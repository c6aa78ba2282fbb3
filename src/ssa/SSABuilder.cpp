//===- ssa/SSABuilder.cpp - SSA construction ---------------------------------===//

#include "ssa/SSABuilder.h"
#include "support/Arena.h"
#include "support/Stats.h"
#include <cstdint>
#include <utility>

using namespace biv;
using namespace biv::ssa;

ir::Instruction *SSAInfo::phiFor(const ir::BasicBlock *BB,
                                 std::string_view VarName) const {
  for (ir::Instruction *Phi : BB->phis())
    if (const ir::Var *V = Phi->variable())
      if (V->name() == VarName)
        return Phi;
  return nullptr;
}

namespace {

class Builder {
public:
  Builder(ir::Function &F, const analysis::DominatorTree &DT)
      : S(Scratch.arena()), F(F), DT(DT), DF(DT) {}

  SSAInfo run();

private:
  void placePhis();
  void rename(ir::BasicBlock *BB);

  ir::Value *currentDef(const ir::Var *V) {
    const uint32_t H = Head[V->id()];
    return H == NoDef ? F.undef() : StackVal[H];
  }

  /// Follows the replacement chain for a deleted LoadVar result.
  ir::Value *resolve(ir::Value *V) {
    while (const auto *I = ir::dyn_cast<ir::Instruction>(V)) {
      if (I->seq() >= RepBySeq.size())
        break;
      ir::Value *R = RepBySeq[I->seq()];
      if (!R)
        break;
      V = R;
    }
    return V;
  }

  /// Every table below is scratch: it dies with the builder.
  support::ScratchScope Scratch;
  support::Arena &S;
  ir::Function &F;
  const analysis::DominatorTree &DT;
  analysis::DominanceFrontier DF;
  SSAInfo Info;

  /// Reaching-definition stacks for every var share one pool: StackVal[E]
  /// is a definition, StackPrev[E] the previous definition of the same var,
  /// Head[var id] the top of that var's stack.  One growing pool instead of
  /// a vector per variable.
  static constexpr uint32_t NoDef = ~uint32_t(0);
  support::ArenaVector<ir::Value *> StackVal;
  support::ArenaVector<uint32_t> StackPrev;
  support::ArenaVector<uint32_t> Head;
  /// LoadVar replacement, indexed by Instruction::seq() (renumbered after
  /// phi placement; erasure is deferred so seqs stay dense during rename).
  support::ArenaVector<ir::Value *> RepBySeq;
  /// Undo log for the rename walk: (var id, head entry to restore).  Each
  /// frame saves a var at most once, tracked by SavedFrame stamps -- a stale
  /// stamp only costs a redundant (still correct) undo entry.
  struct UndoEntry {
    uint32_t VarId;
    uint32_t OldHead;
  };
  support::ArenaVector<UndoEntry> Undo;
  support::ArenaVector<unsigned> SavedFrame;
  unsigned FrameCounter = 0;

  support::ArenaVector<ir::Instruction *> ToErase;
};

SSAInfo Builder::run() {
  placePhis();
  // Give the phis seqs too; RepBySeq and the SCCP tables index off this
  // numbering until the pipeline renumbers again after erasure.
  F.renumberInstructions();
  RepBySeq.resize(S, F.instrSeqBound(), nullptr);
  Head.resize(S, F.vars().size(), NoDef);
  SavedFrame.resize(S, F.vars().size(), 0);
  rename(F.entry());
  // Delete the now-dead variable accesses in one compaction per block (the
  // loads and stores of a big block all die at once; per-instruction erase
  // would shift the tail per call).
  if (!ToErase.empty()) {
    support::ArenaVector<uint8_t> DeadBySeq;
    DeadBySeq.resize(S, F.instrSeqBound(), 0);
    for (ir::Instruction *I : ToErase)
      DeadBySeq[I->seq()] = 1;
    for (ir::BasicBlock *BB : F.blocks())
      BB->removeInstrsIf(
          [&](const ir::Instruction *I) { return DeadBySeq[I->seq()] != 0; });
  }
  return std::move(Info);
}

void Builder::placePhis() {
  const size_t NumVars = F.vars().size();
  const size_t NumBlocks = F.numBlocks();
  if (!NumVars || !NumBlocks)
    return;

  // Store sites per var in CSR form: for each var, the distinct blocks
  // containing a StoreVar of it, in block order.  One pass to count, one to
  // fill; consecutive stores to the same var in one block dedupe via Last.
  support::ArenaVector<uint32_t> Start, Last;
  Start.resize(S, NumVars + 1, 0);
  Last.resize(S, NumVars, ~uint32_t(0));
  for (const ir::BasicBlock *BB : F.blocks())
    for (const ir::Instruction *I : *BB)
      if (I->opcode() == ir::Opcode::StoreVar &&
          Last[I->variable()->id()] != BB->id()) {
        Last[I->variable()->id()] = BB->id();
        ++Start[I->variable()->id() + 1];
      }
  for (size_t V = 0; V < NumVars; ++V)
    Start[V + 1] += Start[V];
  support::ArenaVector<ir::BasicBlock *> StoreBlocks;
  StoreBlocks.resize(S, Start[NumVars]);
  support::ArenaVector<uint32_t> Fill;
  Fill.resize(S, NumVars);
  std::copy(Start.begin(), Start.end() - 1, Fill.begin());
  std::fill(Last.begin(), Last.end(), ~uint32_t(0));
  for (ir::BasicBlock *BB : F.blocks())
    for (const ir::Instruction *I : *BB)
      if (I->opcode() == ir::Opcode::StoreVar &&
          Last[I->variable()->id()] != BB->id()) {
        Last[I->variable()->id()] = BB->id();
        StoreBlocks[Fill[I->variable()->id()]++] = BB;
      }

  // Iterated dominance frontier per variable, seeded by its store blocks.
  // HasStore/HasPhi are epoch stamps (one epoch per var) over block ids.
  support::ArenaVector<uint32_t> StoreStamp, PhiStamp;
  StoreStamp.resize(S, NumBlocks, 0);
  PhiStamp.resize(S, NumBlocks, 0);
  // Insertion index for the next phi per block: phis() rescans the block
  // top on every call, which is quadratic when one header collects a phi
  // per variable, so the count is tracked here instead.
  support::ArenaVector<uint32_t> NumPhis;
  NumPhis.resize(S, NumBlocks, 0);
  for (ir::BasicBlock *BB : F.blocks())
    NumPhis[BB->id()] = uint32_t(BB->phis().size());
  support::ArenaVector<ir::BasicBlock *> Work;
  for (size_t VI = 0; VI < NumVars; ++VI) {
    ir::Var *V = F.vars()[VI];
    const uint32_t Epoch = uint32_t(VI) + 1;
    Work.clear();
    for (uint32_t At = Start[VI]; At < Start[VI + 1]; ++At) {
      StoreStamp[StoreBlocks[At]->id()] = Epoch;
      Work.push_back(S, StoreBlocks[At]);
    }
    while (!Work.empty()) {
      ir::BasicBlock *BB = Work.back();
      Work.pop_back();
      for (ir::BasicBlock *Frontier : DF.frontier(BB)) {
        if (PhiStamp[Frontier->id()] == Epoch)
          continue;
        PhiStamp[Frontier->id()] = Epoch;
        ir::Instruction *P =
            F.newInstr(ir::Opcode::Phi, {}, F.uniqueName(V->name()));
        Frontier->insertAt(NumPhis[Frontier->id()]++, P);
        P->setVariable(V);
        ++Info.PhisPlaced;
        // A phi is itself a definition; keep iterating.
        if (StoreStamp[Frontier->id()] != Epoch) {
          StoreStamp[Frontier->id()] = Epoch;
          Work.push_back(S, Frontier);
        }
      }
    }
  }
}

void Builder::rename(ir::BasicBlock *BB) {
  // Remember stack depths to pop on the way out.
  const size_t UndoMark = Undo.size();
  const unsigned Frame = ++FrameCounter;
  auto pushDef = [&](const ir::Var *V, ir::Value *Def) {
    if (SavedFrame[V->id()] != Frame) {
      SavedFrame[V->id()] = Frame;
      Undo.push_back(S, {V->id(), Head[V->id()]});
    }
    StackVal.push_back(S, Def);
    StackPrev.push_back(S, Head[V->id()]);
    Head[V->id()] = uint32_t(StackVal.size() - 1);
  };

  for (ir::Instruction *I : *BB) {
    // Rewrite operands through pending load replacements first.  Phi
    // operands are filled in by predecessors and must not be rewritten here.
    if (!I->isPhi())
      for (unsigned Idx = 0; Idx < I->numOperands(); ++Idx)
        I->setOperand(Idx, resolve(I->operand(Idx)));

    switch (I->opcode()) {
    case ir::Opcode::Phi:
      if (const ir::Var *V = I->variable())
        pushDef(V, I);
      break;
    case ir::Opcode::LoadVar:
      RepBySeq[I->seq()] = currentDef(I->variable());
      ToErase.push_back(S, I);
      break;
    case ir::Opcode::StoreVar:
      pushDef(I->variable(), I->operand(0));
      ToErase.push_back(S, I);
      break;
    default:
      break;
    }
  }

  // Fill phi operands of successors with the defs reaching this edge.
  for (ir::BasicBlock *Succ : BB->successors())
    for (ir::Instruction *Phi : Succ->phis())
      if (const ir::Var *V = Phi->variable())
        Phi->addIncoming(currentDef(V), BB);

  for (ir::BasicBlock *Child : DT.children(BB))
    rename(Child);

  while (Undo.size() > UndoMark) {
    auto [VarId, OldHead] = Undo.back();
    Undo.pop_back();
    Head[VarId] = OldHead;
  }
}

} // namespace

SSAInfo biv::ssa::buildSSA(ir::Function &F,
                           const analysis::DominatorTree &DT) {
  static const stats::Timer SSAPhase("phase.ssa");
  static const stats::Counter NumPhisPlaced("ssa.phis_placed");
  stats::ScopedSpan Span(SSAPhase);
  SSAInfo Info = Builder(F, DT).run();
  NumPhisPlaced.bump(Info.PhisPlaced);
  return Info;
}

SSAInfo biv::ssa::buildSSA(ir::Function &F) {
  F.recomputePreds();
  analysis::DominatorTree DT(F);
  return buildSSA(F, DT);
}

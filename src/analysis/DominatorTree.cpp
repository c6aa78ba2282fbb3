//===- analysis/DominatorTree.cpp - Dominance analyses ----------------------===//

#include "analysis/DominatorTree.h"
#include "support/Stats.h"
#include <algorithm>

using namespace biv;
using namespace biv::analysis;

DominatorTree::DominatorTree(const ir::Function &F) : F(F) {
  static const stats::Timer DomTreePhase("phase.domtree");
  stats::ScopedSpan Span(DomTreePhase);
  support::Arena &Unit = F.arena();
  support::ScratchScope Scratch;
  support::Arena &S = Scratch.arena();
  const size_t N = F.numBlocks();
  IDom.resize(Unit, N, -1);
  RPONumber.resize(Unit, N, -1);

  // Reverse post order over reachable blocks only.
  RPO = F.reachableRPO(Unit);
  for (size_t I = 0; I < RPO.size(); ++I)
    RPONumber[RPO[I]->id()] = static_cast<int>(I);

  // Cooper-Harvey-Kennedy: iterate to a fixed point, intersecting the
  // dominator sets represented by idom pointers in RPO numbering.
  support::ArenaVector<int> Doms; // by RPO number
  Doms.resize(S, RPO.size(), -1);
  Doms[0] = 0; // entry dominated by itself
  auto intersect = [&](int A, int B) {
    while (A != B) {
      while (A > B)
        A = Doms[A];
      while (B > A)
        B = Doms[B];
    }
    return A;
  };
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 1; I < RPO.size(); ++I) {
      ir::BasicBlock *BB = RPO[I];
      int NewIDom = -1;
      for (ir::BasicBlock *P : BB->predecessors()) {
        int PN = RPONumber[P->id()];
        if (PN < 0 || Doms[PN] < 0)
          continue; // unreachable or not yet processed
        NewIDom = NewIDom < 0 ? PN : intersect(PN, NewIDom);
      }
      assert(NewIDom >= 0 && "reachable block with no processed preds");
      if (Doms[I] != NewIDom) {
        Doms[I] = NewIDom;
        Changed = true;
      }
    }
  }
  // Children as CSR lists, each in RPO order: count, prefix-sum, fill.
  ChildStart.resize(Unit, N + 1, 0);
  for (size_t I = 1; I < RPO.size(); ++I) {
    ir::BasicBlock *Parent = RPO[Doms[I]];
    IDom[RPO[I]->id()] = static_cast<int>(Parent->id());
    ++ChildStart[Parent->id() + 1];
  }
  for (size_t B = 0; B < N; ++B)
    ChildStart[B + 1] += ChildStart[B];
  ChildFlat.resize(Unit, RPO.size() ? RPO.size() - 1 : 0);
  {
    support::ArenaVector<uint32_t> Fill;
    Fill.resize(S, N);
    std::copy(ChildStart.begin(), ChildStart.end() - 1, Fill.begin());
    for (size_t I = 1; I < RPO.size(); ++I)
      ChildFlat[Fill[RPO[Doms[I]]->id()]++] = RPO[I];
  }

  // Number the tree depth-first; unreachable blocks keep empty intervals.
  DFS.resize(Unit, N);
  unsigned Clock = 0;
  struct Frame {
    const ir::BasicBlock *BB;
    size_t Next;
  };
  support::ArenaVector<Frame> Stack;
  Stack.reserve(S, RPO.size());
  Stack.push_back(S, {F.entry(), 0});
  DFS[F.entry()->id()].In = Clock++;
  while (!Stack.empty()) {
    auto &[BB, Next] = Stack.back();
    std::span<ir::BasicBlock *const> Kids = children(BB);
    if (Next == Kids.size()) {
      DFS[BB->id()].Out = Clock++;
      Stack.pop_back();
      continue;
    }
    const ir::BasicBlock *Kid = Kids[Next++];
    DFS[Kid->id()].In = Clock++;
    Stack.push_back(S, {Kid, 0});
  }
}

ir::BasicBlock *DominatorTree::idom(const ir::BasicBlock *BB) const {
  int Id = IDom[BB->id()];
  return Id < 0 ? nullptr : F.blocks()[Id];
}

bool DominatorTree::dominates(const ir::BasicBlock *A,
                              const ir::BasicBlock *B) const {
  if (RPONumber[A->id()] < 0 || RPONumber[B->id()] < 0)
    return false;
  const Interval &IA = DFS[A->id()], &IB = DFS[B->id()];
  return IA.In <= IB.In && IB.Out <= IA.Out;
}

bool DominatorTree::properlyDominates(const ir::BasicBlock *A,
                                      const ir::BasicBlock *B) const {
  return A != B && dominates(A, B);
}

bool DominatorTree::dominates(const ir::Instruction *Def,
                              const ir::Instruction *I) const {
  const ir::BasicBlock *DefBB = Def->parent();
  const ir::BasicBlock *UseBB = I->parent();
  assert(DefBB && UseBB && "instruction without parent");
  if (DefBB != UseBB)
    return properlyDominates(DefBB, UseBB);
  if (Def == I)
    return false;
  // Same block: compare positions; phis count as defined at the top.
  if (Def->isPhi() && !I->isPhi())
    return true;
  if (!Def->isPhi() && I->isPhi())
    return false;
  return DefBB->comesBefore(Def, I);
}

DominanceFrontier::DominanceFrontier(const DominatorTree &DT) {
  const ir::Function &F = DT.function();
  const size_t N = F.numBlocks();
  support::ScratchScope Scratch;
  support::Arena &S = Scratch.arena();
  // Accumulate per-block frontiers as head-linked chains in one scratch
  // pool, then flatten to CSR in the function's arena.
  constexpr uint32_t NoEntry = ~uint32_t(0);
  support::ArenaVector<uint32_t> Head;
  Head.resize(S, N, NoEntry);
  struct Link {
    ir::BasicBlock *Member;
    uint32_t Prev;
  };
  support::ArenaVector<Link> Pool;
  for (ir::BasicBlock *BB : DT.rpo()) {
    if (BB->predecessors().size() < 2)
      continue;
    ir::BasicBlock *IDom = DT.idom(BB);
    for (ir::BasicBlock *P : BB->predecessors())
      for (ir::BasicBlock *Runner = P; Runner && Runner != IDom;
           Runner = DT.idom(Runner)) {
        uint32_t &H = Head[Runner->id()];
        // All entries for one BB are appended consecutively, so a duplicate
        // can only be the chain head.
        if (H != NoEntry && Pool[H].Member == BB)
          continue;
        Pool.push_back(S, {BB, H});
        H = uint32_t(Pool.size() - 1);
      }
  }
  support::Arena &A = F.arena();
  Start.resize(A, N + 1, 0);
  for (size_t B = 0; B < N; ++B)
    for (uint32_t E = Head[B]; E != NoEntry; E = Pool[E].Prev)
      ++Start[B + 1];
  for (size_t B = 0; B < N; ++B)
    Start[B + 1] += Start[B];
  Flat.resize(A, Pool.size());
  // Chains are LIFO; fill each segment backwards to restore append order.
  for (size_t B = 0; B < N; ++B) {
    uint32_t At = Start[B + 1];
    for (uint32_t E = Head[B]; E != NoEntry; E = Pool[E].Prev)
      Flat[--At] = Pool[E].Member;
  }
}

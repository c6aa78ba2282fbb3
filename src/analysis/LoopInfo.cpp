//===- analysis/LoopInfo.cpp - Natural loop nest ----------------------------===//

#include "analysis/LoopInfo.h"
#include "support/Stats.h"
#include <algorithm>
#include <cassert>
#include <iterator>

using namespace biv;
using namespace biv::analysis;

/// Derives the printable loop name from its header block name: "L18.header"
/// becomes "L18"; anything else is used as is.
static std::string_view loopNameFromHeader(const ir::BasicBlock *Header) {
  std::string_view N = Header->name();
  size_t Dot = N.rfind(".header");
  return Dot == std::string_view::npos ? N : N.substr(0, Dot);
}

LoopInfo::LoopInfo(const ir::Function &F, const DominatorTree &DT) : F(F) {
  static const stats::Timer LoopInfoPhase("phase.loopinfo");
  stats::ScopedSpan Span(LoopInfoPhase);
  support::Arena &A = F.arena();
  support::ScratchScope Scratch;
  support::Arena &S = Scratch.arena();
  const size_t NumBlocks = F.numBlocks();
  InnermostFor.resize(A, NumBlocks, nullptr);

  // One loop per back-edge target, latches in RPO; then loops in header RPO
  // order, so outer loops precede the loops nested in them.
  support::ArenaVector<unsigned> RpoPos;
  RpoPos.resize(S, NumBlocks, 0);
  for (unsigned I = 0; I < DT.rpo().size(); ++I)
    RpoPos[DT.rpo()[I]->id()] = I;
  support::ArenaVector<Loop *> ByHeader;
  ByHeader.resize(S, NumBlocks, nullptr);
  for (ir::BasicBlock *BB : DT.rpo())
    for (ir::BasicBlock *Succ : BB->successors())
      if (DT.dominates(Succ, BB)) {
        Loop *&L = ByHeader[Succ->id()];
        if (!L) {
          L = A.create<Loop>(Succ, loopNameFromHeader(Succ));
          L->Info = this;
          Loops.push_back(A, L);
        }
        L->Latches.push_back(A, BB);
      }
  std::sort(Loops.begin(), Loops.end(), [&](const Loop *X, const Loop *Y) {
    return RpoPos[X->Header->id()] < RpoPos[Y->Header->id()];
  });

  // Each body: backwards reachability from the latches without crossing the
  // header.  Mark[id] holds the index of the last loop that reached a block.
  support::ArenaVector<unsigned> BodyIds, BodyStart, Mark;
  BodyStart.reserve(S, Loops.size() + 1);
  Mark.resize(S, NumBlocks, ~0u);
  support::ArenaVector<ir::BasicBlock *> Work;
  for (unsigned Idx = 0; Idx < Loops.size(); ++Idx) {
    Loop &L = *Loops[Idx];
    L.Index = Idx;
    BodyStart.push_back(S, BodyIds.size());
    auto reach = [&](ir::BasicBlock *BB) {
      if (Mark[BB->id()] == Idx)
        return false;
      Mark[BB->id()] = Idx;
      BodyIds.push_back(S, BB->id());
      return true;
    };
    reach(L.Header);
    for (ir::BasicBlock *Latch : L.Latches)
      if (reach(Latch))
        Work.push_back(S, Latch);
    while (!Work.empty()) {
      ir::BasicBlock *BB = Work.back();
      Work.pop_back();
      if (BB == L.Header)
        continue;
      for (ir::BasicBlock *P : BB->predecessors())
        if (reach(P))
          Work.push_back(S, P);
    }
  }
  BodyStart.push_back(S, BodyIds.size());

  // Per block, the loops containing it in index order (outer to inner), as
  // a CSR list; a block's last loop is its innermost one.
  support::ArenaVector<unsigned> LoopsOfStart, LoopsOf, Fill;
  LoopsOfStart.resize(S, NumBlocks + 1, 0);
  for (unsigned Id : BodyIds)
    ++LoopsOfStart[Id + 1];
  for (size_t Id = 0; Id < NumBlocks; ++Id)
    LoopsOfStart[Id + 1] += LoopsOfStart[Id];
  LoopsOf.resize(S, BodyIds.size());
  Fill.resize(S, NumBlocks);
  std::copy(LoopsOfStart.begin(), LoopsOfStart.end() - 1, Fill.begin());
  for (unsigned Idx = 0; Idx < Loops.size(); ++Idx)
    for (unsigned P = BodyStart[Idx]; P < BodyStart[Idx + 1]; ++P)
      LoopsOf[Fill[BodyIds[P]]++] = Idx;

  // Every loop's block list is sized exactly: one array in the function's
  // arena holds them all, each loop a slice of it.
  ir::BasicBlock **BlockPool =
      A.allocateArray<ir::BasicBlock *>(BodyIds.size());
  support::ArenaVector<unsigned> BlocksFilled;
  BlocksFilled.resize(S, Loops.size(), 0);

  // One function-order pass fills every loop's block list and the innermost
  // loop per block.  A header's loop is the last one containing it, so the
  // loop before it there is its parent.
  for (ir::BasicBlock *BB : F.blocks()) {
    const unsigned Begin = LoopsOfStart[BB->id()];
    const unsigned End = LoopsOfStart[BB->id() + 1];
    for (unsigned P = Begin; P < End; ++P) {
      const unsigned Idx = LoopsOf[P];
      BlockPool[BodyStart[Idx] + BlocksFilled[Idx]++] = BB;
    }
    if (Begin == End)
      continue;
    InnermostFor[BB->id()] = Loops[LoopsOf[End - 1]];
    if (Loop *L = ByHeader[BB->id()]; L && End - Begin >= 2) {
      assert(LoopsOf[End - 1] == L->Index && "header outside its own loop");
      L->Parent = Loops[LoopsOf[End - 2]];
    }
  }
  for (unsigned Idx = 0; Idx < Loops.size(); ++Idx)
    Loops[Idx]->Blocks = {BlockPool + BodyStart[Idx],
                          BodyStart[Idx + 1] - BodyStart[Idx]};

  // Nesting, then the pre-order numbering that answers contains().
  for (Loop *L : Loops) {
    if (L->Parent) {
      L->Parent->SubLoops.push_back(A, L);
      L->Depth = L->Parent->Depth + 1;
    } else {
      TopLevel.push_back(A, L);
    }
  }
  unsigned Next = 0;
  struct Frame {
    Loop *L;
    size_t Child;
  };
  support::ArenaVector<Frame> Stack;
  for (Loop *Top : TopLevel) {
    Top->PreOrder = Next++;
    Stack.push_back(S, {Top, 0});
    while (!Stack.empty()) {
      Loop *L = Stack.back().L;
      size_t &Child = Stack.back().Child;
      if (Child == L->SubLoops.size()) {
        L->PreOrderEnd = Next;
        Stack.pop_back();
        continue;
      }
      Loop *Sub = L->SubLoops[Child++];
      Sub->PreOrder = Next++;
      Stack.push_back(S, {Sub, 0});
    }
  }

  for (Loop *L : Loops) {
    // Preheader: unique outside predecessor of the header.
    ir::BasicBlock *Pre = nullptr;
    bool Multiple = false;
    for (ir::BasicBlock *P : L->Header->predecessors()) {
      if (L->contains(P))
        continue;
      if (Pre)
        Multiple = true;
      Pre = P;
    }
    L->Preheader = Multiple ? nullptr : Pre;
    // Exits.
    for (ir::BasicBlock *BB : L->Blocks)
      for (ir::BasicBlock *Succ : BB->successors())
        if (!L->contains(Succ)) {
          if (std::find(L->Exiting.begin(), L->Exiting.end(), BB) ==
              L->Exiting.end())
            L->Exiting.push_back(A, BB);
          if (std::find(L->Exits.begin(), L->Exits.end(), Succ) ==
              L->Exits.end())
            L->Exits.push_back(A, Succ);
        }
  }
}

std::vector<Loop *> LoopInfo::innerToOuter() const {
  // Loops stores parents before children; reversing yields children first.
  return std::vector<Loop *>(std::make_reverse_iterator(Loops.end()),
                             std::make_reverse_iterator(Loops.begin()));
}

Loop *LoopInfo::byName(std::string_view Name) const {
  for (Loop *L : Loops)
    if (L->name() == Name)
      return L;
  return nullptr;
}

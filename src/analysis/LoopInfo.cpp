//===- analysis/LoopInfo.cpp - Natural loop nest ----------------------------===//

#include "analysis/LoopInfo.h"
#include "support/Stats.h"
#include <algorithm>
#include <cassert>

using namespace biv;
using namespace biv::analysis;

/// Derives the printable loop name from its header block name: "L18.header"
/// becomes "L18"; anything else is used as is.
static std::string loopNameFromHeader(const ir::BasicBlock *Header) {
  std::string_view N = Header->name();
  size_t Dot = N.rfind(".header");
  if (Dot != std::string_view::npos)
    return std::string(N.substr(0, Dot));
  return std::string(N);
}

LoopInfo::LoopInfo(const ir::Function &F, const DominatorTree &DT) : F(F) {
  static const stats::Timer LoopInfoPhase("phase.loopinfo");
  stats::ScopedSpan Span(LoopInfoPhase);
  const size_t NumBlocks = F.numBlocks();
  InnermostFor.assign(NumBlocks, nullptr);

  // One loop per back-edge target, latches in RPO; then loops in header RPO
  // order, so outer loops precede the loops nested in them.
  std::vector<unsigned> RpoPos(NumBlocks);
  for (unsigned I = 0; I < DT.rpo().size(); ++I)
    RpoPos[DT.rpo()[I]->id()] = I;
  std::vector<Loop *> ByHeader(NumBlocks, nullptr);
  for (ir::BasicBlock *BB : DT.rpo())
    for (ir::BasicBlock *Succ : BB->successors())
      if (DT.dominates(Succ, BB)) {
        Loop *&L = ByHeader[Succ->id()];
        if (!L) {
          Loops.push_back(
              std::make_unique<Loop>(Succ, loopNameFromHeader(Succ)));
          L = Loops.back().get();
          L->Info = this;
        }
        L->Latches.push_back(BB);
      }
  std::sort(Loops.begin(), Loops.end(),
            [&](const std::unique_ptr<Loop> &A, const std::unique_ptr<Loop> &B) {
              return RpoPos[A->Header->id()] < RpoPos[B->Header->id()];
            });

  // Each body: backwards reachability from the latches without crossing the
  // header.  Mark[id] holds the index of the last loop that reached a block.
  std::vector<unsigned> BodyIds, BodyStart;
  std::vector<unsigned> Mark(NumBlocks, ~0u);
  std::vector<ir::BasicBlock *> Work;
  for (unsigned Idx = 0; Idx < Loops.size(); ++Idx) {
    Loop &L = *Loops[Idx];
    L.Index = Idx;
    BodyStart.push_back(BodyIds.size());
    auto reach = [&](ir::BasicBlock *BB) {
      if (Mark[BB->id()] == Idx)
        return false;
      Mark[BB->id()] = Idx;
      BodyIds.push_back(BB->id());
      return true;
    };
    reach(L.Header);
    for (ir::BasicBlock *Latch : L.Latches)
      if (reach(Latch))
        Work.push_back(Latch);
    while (!Work.empty()) {
      ir::BasicBlock *BB = Work.back();
      Work.pop_back();
      if (BB == L.Header)
        continue;
      for (ir::BasicBlock *P : BB->predecessors())
        if (reach(P))
          Work.push_back(P);
    }
  }
  BodyStart.push_back(BodyIds.size());

  // Per block, the loops containing it in index order (outer to inner), as
  // a CSR list; a block's last loop is its innermost one.
  std::vector<unsigned> LoopsOfStart(NumBlocks + 1, 0);
  for (unsigned Id : BodyIds)
    ++LoopsOfStart[Id + 1];
  for (size_t Id = 0; Id < NumBlocks; ++Id)
    LoopsOfStart[Id + 1] += LoopsOfStart[Id];
  std::vector<unsigned> LoopsOf(BodyIds.size());
  {
    std::vector<unsigned> Fill(LoopsOfStart.begin(), LoopsOfStart.end() - 1);
    for (unsigned Idx = 0; Idx < Loops.size(); ++Idx)
      for (unsigned P = BodyStart[Idx]; P < BodyStart[Idx + 1]; ++P)
        LoopsOf[Fill[BodyIds[P]]++] = Idx;
  }

  // One function-order pass fills every loop's block list and the innermost
  // loop per block.  A header's loop is the last one containing it, so the
  // loop before it there is its parent.
  for (ir::BasicBlock *BB : F.blocks()) {
    const unsigned Begin = LoopsOfStart[BB->id()];
    const unsigned End = LoopsOfStart[BB->id() + 1];
    for (unsigned P = Begin; P < End; ++P)
      Loops[LoopsOf[P]]->Blocks.push_back(BB);
    if (Begin == End)
      continue;
    InnermostFor[BB->id()] = Loops[LoopsOf[End - 1]].get();
    if (Loop *L = ByHeader[BB->id()]; L && End - Begin >= 2) {
      assert(LoopsOf[End - 1] == L->Index && "header outside its own loop");
      L->Parent = Loops[LoopsOf[End - 2]].get();
    }
  }

  // Nesting, then the pre-order numbering that answers contains().
  for (const auto &L : Loops) {
    if (L->Parent) {
      L->Parent->SubLoops.push_back(L.get());
      L->Depth = L->Parent->Depth + 1;
    } else {
      TopLevel.push_back(L.get());
    }
  }
  unsigned Next = 0;
  std::vector<std::pair<Loop *, size_t>> Stack;
  for (Loop *Top : TopLevel) {
    Top->PreOrder = Next++;
    Stack.push_back({Top, 0});
    while (!Stack.empty()) {
      Loop *L = Stack.back().first;
      size_t &Child = Stack.back().second;
      if (Child == L->SubLoops.size()) {
        L->PreOrderEnd = Next;
        Stack.pop_back();
        continue;
      }
      Loop *Sub = L->SubLoops[Child++];
      Sub->PreOrder = Next++;
      Stack.push_back({Sub, 0});
    }
  }

  for (const auto &L : Loops) {
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
            L->Exiting.push_back(BB);
          if (std::find(L->Exits.begin(), L->Exits.end(), Succ) ==
              L->Exits.end())
            L->Exits.push_back(Succ);
        }
  }
}

std::vector<Loop *> LoopInfo::innerToOuter() const {
  // Loops stores parents before children; reversing yields children first.
  std::vector<Loop *> Result;
  for (auto It = Loops.rbegin(); It != Loops.rend(); ++It)
    Result.push_back(It->get());
  return Result;
}

Loop *LoopInfo::byName(const std::string &Name) const {
  for (const auto &L : Loops)
    if (L->name() == Name)
      return L.get();
  return nullptr;
}

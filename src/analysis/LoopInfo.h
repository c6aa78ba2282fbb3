//===- analysis/LoopInfo.h - Natural loop nest ------------------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Natural-loop detection and the loop-nest tree.
///
/// A loop is identified by a header block that dominates one or more latch
/// blocks with back edges to it.  The induction-variable analysis processes
/// this nest "from the inner loops outward" (paper section 5.3), so LoopInfo
/// exposes an inner-to-outer traversal.
///
/// Construction takes time linear in the blocks plus the loop bodies, and
/// membership queries are O(1): a block is in loop L when its innermost loop
/// lies in L's pre-order interval of the loop tree.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_ANALYSIS_LOOPINFO_H
#define BEYONDIV_ANALYSIS_LOOPINFO_H

#include "analysis/DominatorTree.h"
#include "support/Arena.h"
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace biv {
namespace analysis {

class LoopInfo;

/// One natural loop.  Loops and their lists live in the function's arena
/// (DESIGN.md §11) and die with it; only LoopInfo creates them.
class Loop {
public:
  Loop(ir::BasicBlock *Header, std::string_view Name)
      : Header(Header), Name(Name) {}

  ir::BasicBlock *header() const { return Header; }

  /// Printable label, e.g. "L18" recovered from the "L18.header" block name,
  /// matching the loop names in the paper's figures.  A view of the
  /// header's interned name.
  std::string_view name() const { return Name; }

  /// All blocks of the loop (header included), in function order.
  std::span<ir::BasicBlock *const> blocks() const { return Blocks; }
  inline bool contains(const ir::BasicBlock *BB) const;
  bool contains(const ir::Instruction *I) const {
    return contains(I->parent());
  }
  /// True when \p Other is this loop or nested (transitively) inside it.
  bool encloses(const Loop *Other) const {
    return Other && Other->PreOrder >= PreOrder &&
           Other->PreOrder < PreOrderEnd;
  }

  /// Latch blocks (sources of back edges).  The front end produces exactly
  /// one latch per loop.
  std::span<ir::BasicBlock *const> latches() const { return Latches; }

  /// The unique predecessor of the header outside the loop, or null when the
  /// header has several outside predecessors.
  ir::BasicBlock *preheader() const { return Preheader; }

  /// Blocks inside the loop with a successor outside it.
  std::span<ir::BasicBlock *const> exitingBlocks() const { return Exiting; }
  /// Blocks outside the loop that are targets of exiting edges.
  std::span<ir::BasicBlock *const> exitBlocks() const { return Exits; }

  Loop *parent() const { return Parent; }
  std::span<Loop *const> subLoops() const { return SubLoops; }
  /// 1 for outermost loops, parent depth + 1 otherwise.
  unsigned depth() const { return Depth; }

  /// Dense position in LoopInfo::loops(); analyses key flat vectors by it
  /// instead of pointer-keyed maps.
  unsigned index() const { return Index; }

private:
  friend class LoopInfo;

  const LoopInfo *Info = nullptr;
  ir::BasicBlock *Header;
  std::string_view Name;
  std::span<ir::BasicBlock *const> Blocks;
  support::ArenaVector<ir::BasicBlock *> Latches;
  ir::BasicBlock *Preheader = nullptr;
  support::ArenaVector<ir::BasicBlock *> Exiting;
  support::ArenaVector<ir::BasicBlock *> Exits;
  Loop *Parent = nullptr;
  support::ArenaVector<Loop *> SubLoops;
  unsigned Depth = 1;
  unsigned Index = 0;
  /// This loop's subtree is the pre-order range [PreOrder, PreOrderEnd).
  unsigned PreOrder = 0;
  unsigned PreOrderEnd = 0;
};

/// The natural loops of one function, built over its dominator tree.  The
/// loops and every table here live in the function's arena.
class LoopInfo {
public:
  LoopInfo(const ir::Function &F, const DominatorTree &DT);
  // Loops point back here to answer contains().
  LoopInfo(const LoopInfo &) = delete;
  LoopInfo &operator=(const LoopInfo &) = delete;

  /// All loops, every parent preceding its children.
  std::span<Loop *const> loops() const { return Loops; }

  /// Outermost loops only.
  std::span<Loop *const> topLevel() const { return TopLevel; }

  /// Loops in inner-to-outer order (children before parents), the order the
  /// induction-variable analysis wants: loops() reversed.
  std::vector<Loop *> innerToOuter() const;

  /// The innermost loop containing \p BB, or null.
  Loop *loopFor(const ir::BasicBlock *BB) const {
    return BB->id() < InnermostFor.size() ? InnermostFor[BB->id()] : nullptr;
  }

  /// Finds a loop by printable name, or null.
  Loop *byName(std::string_view Name) const;

private:
  const ir::Function &F;
  support::ArenaVector<Loop *> Loops;
  support::ArenaVector<Loop *> TopLevel;
  support::ArenaVector<Loop *> InnermostFor; // by block id
};

bool Loop::contains(const ir::BasicBlock *BB) const {
  return encloses(Info->loopFor(BB));
}

} // namespace analysis
} // namespace biv

#endif // BEYONDIV_ANALYSIS_LOOPINFO_H

//===- analysis/DominatorTree.h - Dominance analyses ------------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree and dominance frontiers.
///
/// Implemented with the Cooper-Harvey-Kennedy iterative algorithm ("A
/// Simple, Fast Dominance Algorithm").  Dominance frontiers feed phi
/// placement in the SSA builder (the Cytron et al. construction the paper
/// builds on).
///
/// The dominator tree and the frontiers live as long as the function they
/// describe, so their tables are allocated in its arena (DESIGN.md §11);
/// construction scratch comes from the thread's scratch arena.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_ANALYSIS_DOMINATORTREE_H
#define BEYONDIV_ANALYSIS_DOMINATORTREE_H

#include "ir/Function.h"
#include "support/Arena.h"
#include <span>

namespace biv {
namespace analysis {

/// Dominator tree over the blocks of one function.  Unreachable blocks have
/// no tree node: idom() is null for them and dominates() is false either way.
class DominatorTree {
public:
  explicit DominatorTree(const ir::Function &F);

  const ir::Function &function() const { return F; }

  /// Immediate dominator; null for the entry and for unreachable blocks.
  ir::BasicBlock *idom(const ir::BasicBlock *BB) const;

  /// Reflexive dominance; O(1) from the blocks' intervals in a depth-first
  /// walk of the tree.
  bool dominates(const ir::BasicBlock *A, const ir::BasicBlock *B) const;
  bool properlyDominates(const ir::BasicBlock *A,
                         const ir::BasicBlock *B) const;

  /// True when instruction \p Def 's value is available at \p I (same block
  /// and earlier, or defining block properly dominates; phis are treated as
  /// defined at the top of their block).  O(1): same-block pairs compare
  /// the block's instruction order stamps (BasicBlock::comesBefore), so
  /// instructions inserted after the tree was built are ordered correctly.
  bool dominates(const ir::Instruction *Def, const ir::Instruction *I) const;

  /// Children in the dominator tree, in reverse post order.
  std::span<ir::BasicBlock *const> children(const ir::BasicBlock *BB) const {
    return {ChildFlat.data() + ChildStart[BB->id()],
            ChildStart[BB->id() + 1] - ChildStart[BB->id()]};
  }

  /// Blocks in reverse post order (reachable only).
  std::span<ir::BasicBlock *const> rpo() const { return RPO; }

private:
  const ir::Function &F;
  support::ArenaVector<int> IDom;      // by block id; -1 = none
  support::ArenaVector<int> RPONumber; // by block id; -1 = unreachable
  std::span<ir::BasicBlock *const> RPO;
  /// CSR layout: ChildFlat[ChildStart[id] .. ChildStart[id+1]) are block
  /// id's children.
  support::ArenaVector<uint32_t> ChildStart;
  support::ArenaVector<ir::BasicBlock *> ChildFlat;
  /// By block id: entry and exit times of a depth-first walk of the tree;
  /// A dominates B iff A's interval contains B's.
  struct Interval {
    unsigned In = 0, Out = 0;
  };
  support::ArenaVector<Interval> DFS;
};

/// Dominance frontiers DF(B) for every reachable block.
class DominanceFrontier {
public:
  explicit DominanceFrontier(const DominatorTree &DT);

  std::span<ir::BasicBlock *const> frontier(const ir::BasicBlock *BB) const {
    return {Flat.data() + Start[BB->id()],
            Start[BB->id() + 1] - Start[BB->id()]};
  }

private:
  /// CSR layout: Flat[Start[id] .. Start[id+1]) is block id's frontier.
  support::ArenaVector<uint32_t> Start;
  support::ArenaVector<ir::BasicBlock *> Flat;
};

} // namespace analysis
} // namespace biv

#endif // BEYONDIV_ANALYSIS_DOMINATORTREE_H

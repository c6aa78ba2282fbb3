//===- ssa/SSABuilder.h - SSA construction ----------------------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SSA construction in the style of Cytron, Ferrante, Rosen, Wegman and
/// Zadeck [CFR+91], the form the paper's algorithm runs on: phi placement at
/// iterated dominance frontiers of the blocks storing each scalar variable,
/// followed by a dominator-tree renaming walk that deletes every LoadVar /
/// StoreVar and rewires uses to the unique reaching SSA definition.
///
/// The builder keeps no pointer-keyed maps (DESIGN.md §11): each inserted
/// phi records the Var it merges in Instruction::variable() (the same slot
/// LoadVar/StoreVar use), rename stacks are indexed by Var::id(), phi/store
/// marks are epoch-stamped per block id, and load replacements are a flat
/// vector over Instruction::seq().
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_SSA_SSABUILDER_H
#define BEYONDIV_SSA_SSABUILDER_H

#include "analysis/DominatorTree.h"
#include "ir/Function.h"
#include <string_view>

namespace biv {
namespace ssa {

/// What SSA construction learned; the IV analysis and tests use it to locate
/// the phi of a given source variable in a given block.  The phi->variable
/// association itself lives on the instructions (Instruction::variable()).
struct SSAInfo {
  /// Number of phis placed (for stats/benches).
  unsigned PhisPlaced = 0;

  /// Finds the phi merging \p VarName at the top of \p BB, or null.
  ir::Instruction *phiFor(const ir::BasicBlock *BB,
                          std::string_view VarName) const;
};

/// Converts \p F into SSA form in place, recomputing preds and building its
/// own dominator tree.  Every LoadVar/StoreVar disappears; phis are named
/// after their variable.
SSAInfo buildSSA(ir::Function &F);

/// The same, on \p DT: a tree built over \p F 's current CFG, with preds
/// computed.  SSA construction leaves the CFG alone, so the caller can keep
/// using \p DT afterwards.
SSAInfo buildSSA(ir::Function &F, const analysis::DominatorTree &DT);

} // namespace ssa
} // namespace biv

#endif // BEYONDIV_SSA_SSABUILDER_H

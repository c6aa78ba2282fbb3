//===- ssa/SSAVerifier.h - SSA dominance verification -----------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Verifies the defining SSA properties on top of the structural checks in
/// ir/Verifier.h: no LoadVar/StoreVar remains, every use is dominated by its
/// unique definition, and phi incomings are dominated at the incoming edge.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_SSA_SSAVERIFIER_H
#define BEYONDIV_SSA_SSAVERIFIER_H

#include "analysis/DominatorTree.h"
#include "ir/Function.h"
#include <string>
#include <vector>

namespace biv {
namespace ssa {

/// Returns human-readable SSA violations; empty means well formed.
std::vector<std::string> verifySSA(const ir::Function &F);

/// Aborts with diagnostics when verifySSA(F) is non-empty.
void verifySSAOrDie(const ir::Function &F);

/// The same, checking dominance on \p DT, a tree of \p F 's current CFG,
/// instead of building one.
void verifySSAOrDie(const ir::Function &F, const analysis::DominatorTree &DT);

} // namespace ssa
} // namespace biv

#endif // BEYONDIV_SSA_SSAVERIFIER_H

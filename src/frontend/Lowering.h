//===- frontend/Lowering.h - AST to CFG lowering ----------------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a parsed FuncDecl to a (pre-SSA) CFG.  Scalar variables become
/// LoadVar/StoreVar pairs that the SSA builder later promotes; arrays stay
/// as indexed loads/stores for dependence analysis.
///
/// Loop shapes produced:
///  - `loop L { ... }`      header = first body block; single backedge from
///                          the body's fall-through end; `break` exits.
///  - `for L: v = a to b`   preheader stores v; header tests v against b and
///                          branches body/exit; dedicated latch increments.
///  - `while (c) { ... }`   like `for` but with the user's condition.
///
/// Loop labels are recorded as block-name prefixes (<label>.header etc.) so
/// the loop analysis can report the paper's loop names.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_FRONTEND_LOWERING_H
#define BEYONDIV_FRONTEND_LOWERING_H

#include "frontend/AST.h"
#include "ir/Function.h"
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace biv {
namespace frontend {

/// Lowers \p Decl to IR.  Semantic problems (break outside a loop, array
/// rank mismatches, reads of never-assigned names) are appended to
/// \p Errors and null is returned.
std::unique_ptr<ir::Function> lower(const FuncDecl &Decl,
                                    std::vector<std::string> &Errors);

/// Parses and lowers \p Source in one step (the common entry point for
/// tests, examples and benches).  Null plus diagnostics on any error.
std::unique_ptr<ir::Function> parseAndLower(std::string_view Source,
                                            std::vector<std::string> &Errors);

/// Like parseAndLower but aborts with the diagnostics on stderr; for tests
/// whose inputs are known to be valid.
std::unique_ptr<ir::Function> parseAndLowerOrDie(std::string_view Source);

} // namespace frontend
} // namespace biv

#endif // BEYONDIV_FRONTEND_LOWERING_H

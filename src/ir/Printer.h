//===- ir/Printer.h - Textual IR dump ---------------------------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Human-readable IR printing, used by tests, examples, and debugging.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IR_PRINTER_H
#define BEYONDIV_IR_PRINTER_H

#include "ir/Function.h"
#include <string>
#include <vector>

namespace biv {
namespace ir {

/// Renders an operand: literal constants as numbers, arguments by name,
/// instructions as %name (or a stable %tN when unnamed).
class Printer {
public:
  explicit Printer(const Function &F) : F(F) { numberValues(); }

  /// The short printable name of \p V.
  std::string nameOf(const Value *V) const;

  /// One-line rendering of \p I (no trailing newline).
  std::string str(const Instruction *I) const;

  /// Full-function rendering.
  std::string str() const;

private:
  void numberValues();

  const Function &F;
  /// Instruction names indexed by Instruction::seq(); empty for seqs that
  /// belong to no instruction in a block.
  std::vector<std::string> Names;
};

/// Convenience: print the whole function.
std::string toString(const Function &F);

} // namespace ir
} // namespace biv

#endif // BEYONDIV_IR_PRINTER_H

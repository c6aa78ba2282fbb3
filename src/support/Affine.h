//===- support/Affine.h - Affine symbolic expressions ----------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Affine expressions c0 + sum(ci * symi) with rational coefficients over
/// opaque symbols.
///
/// Induction-variable tuples carry initial values and steps "represented
/// symbolically if [they] cannot be determined" (section 2).  An Affine keeps
/// exactly that: a rational constant plus a rational-weighted combination of
/// loop-invariant symbols.  Symbols are opaque pointers (the IV analysis uses
/// IR values); printing takes a name-resolver callback.  The terms are a
/// small inline list sorted by symbol, so the common invariant with one
/// symbol is copied without touching the heap.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_SUPPORT_AFFINE_H
#define BEYONDIV_SUPPORT_AFFINE_H

#include "support/Rational.h"
#include "support/SmallVector.h"
#include <functional>
#include <optional>
#include <span>
#include <string>

namespace biv {

/// Opaque identity of a symbolic term (the IV analysis passes IR values).
using SymbolRef = const void *;

/// Resolves a symbol to a printable name.
using SymbolNamer = std::function<std::string(SymbolRef)>;

/// An affine expression: Constant + sum of Coeff * Symbol terms.
///
/// Terms with zero coefficients are never stored, so two equal expressions
/// compare equal structurally.
class Affine {
public:
  /// One symbolic term: Coeff * Sym, with Coeff nonzero.
  struct Term {
    SymbolRef Sym;
    Rational Coeff;

    bool operator==(const Term &O) const {
      return Sym == O.Sym && Coeff == O.Coeff;
    }
  };

  /// Constructs the constant zero.
  Affine() = default;

  /// Constructs the constant \p C.
  Affine(Rational C) : Constant(C) {}
  Affine(int64_t C) : Constant(C) {}

  /// Constructs the single term 1 * \p Sym.
  static Affine symbol(SymbolRef Sym);

  bool isZero() const { return Constant.isZero() && Terms.empty(); }
  bool isConstant() const { return Terms.empty(); }

  /// Returns the constant value if this has no symbolic terms.
  std::optional<Rational> getConstant() const {
    if (!isConstant())
      return std::nullopt;
    return Constant;
  }

  /// Returns the constant part (the symbolic terms are ignored).
  Rational constantPart() const { return Constant; }

  /// Returns the coefficient of \p Sym (zero when absent).
  Rational coefficientOf(SymbolRef Sym) const;

  /// Returns the symbolic terms in deterministic (symbol pointer) order.
  std::span<const Term> terms() const { return {Terms.begin(), Terms.size()}; }

  Affine operator-() const;
  Affine operator+(const Affine &RHS) const;
  Affine operator-(const Affine &RHS) const;
  Affine operator*(const Rational &Scale) const;

  Affine &operator+=(const Affine &RHS) { return *this = *this + RHS; }
  Affine &operator-=(const Affine &RHS) { return *this = *this - RHS; }
  Affine &operator*=(const Rational &S) { return *this = *this * S; }

  /// Multiplies two affine expressions; fails (nullopt) unless at least one
  /// side is constant, since the product would otherwise be quadratic.
  static std::optional<Affine> mul(const Affine &A, const Affine &B);

  bool operator==(const Affine &RHS) const {
    return Constant == RHS.Constant && Terms == RHS.Terms;
  }
  bool operator!=(const Affine &RHS) const { return !(*this == RHS); }

  /// Renders the expression, e.g. "3/2 + 2*n".  Symbols are named by
  /// \p Namer, or printed as "sym" when none is given.
  std::string str(const SymbolNamer &Namer = SymbolNamer()) const {
    std::string Out;
    appendTo(Out, Namer);
    return Out;
  }
  /// Appends the str() rendering to \p Out.
  void appendTo(std::string &Out,
                const SymbolNamer &Namer = SymbolNamer()) const;

private:
  /// Merges \p RHS 's terms into a copy of ours with \p Combine applied
  /// per symbol (a missing side contributes zero); zero results drop out.
  template <typename CombineFn>
  Affine merged(const Affine &RHS, Rational NewConstant,
                CombineFn Combine) const;

  Rational Constant;
  /// Sorted by symbol pointer; no zero coefficients.
  SmallVector<Term, 1> Terms;
};

} // namespace biv

#endif // BEYONDIV_SUPPORT_AFFINE_H

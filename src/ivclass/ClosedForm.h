//===- ivclass/ClosedForm.h - Closed forms of recurrences -------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Closed forms of induction sequences.
///
/// Section 4.3 represents a polynomial induction variable as the tuple
/// (l, i, s1, ..., sm) whose value on iteration h is sum(sk * h^k), and a
/// geometric one by "the polynomial coefficients followed by the
/// coefficients of each exponential term": sum(sk * h^k) + sum(gb * b^h).
/// ClosedForm generalizes that to the full exponential-polynomial space of
/// c-finite recurrences: each exponential base carries a *polynomial*
/// coefficient, sum(sk * h^k) + sum_b (sum_j gbj * h^j) * b^h, which is
/// closed under the resonant case x' = a*x + c*a^h (whose solution needs
/// h*a^h) and under constant-coefficient linear systems with integer
/// eigenvalues.  Every coefficient is an Affine (rational coefficients over
/// loop-invariant symbols) and h is the canonical basic loop counter
/// (l, 0, 1) that is zero on the first iteration.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_IVCLASS_CLOSEDFORM_H
#define BEYONDIV_IVCLASS_CLOSEDFORM_H

#include "support/Affine.h"
#include "support/Rational.h"
#include "support/SmallVector.h"
#include <algorithm>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace biv {
namespace ivclass {

/// Polynomial coefficient of one exponential term: sum_j p[j] * h^j
/// multiplying b^h.  Like the plain polynomial part, index = power of h;
/// the geometric class's constant coefficient stays inline.
using ExpPoly = SmallVector<Affine, 1>;

/// Coefficients of the polynomial part, index = power of h.  Invariants and
/// linear tuples (degree <= 1) keep theirs inline, without a heap block.
using PolyCoeffs = SmallVector<Affine, 2>;

/// The exponential terms of a form: base b -> coefficient polynomial of
/// b^h, ascending by base.  A flat sorted list with the map operations the
/// analyses use.  Most forms have no exponential term, so the list lives
/// behind a pointer that stays null for them; a geometric form copies its
/// terms in one allocation.
class GeoTerms {
public:
  using value_type = std::pair<int64_t, ExpPoly>;
  using iterator = value_type *;
  using const_iterator = const value_type *;

  GeoTerms() = default;
  GeoTerms(std::initializer_list<value_type> Init) {
    for (const value_type &T : Init)
      (*this)[T.first] = T.second;
  }
  GeoTerms(const GeoTerms &O)
      : Terms(O.Terms ? std::make_unique<List>(*O.Terms) : nullptr) {}
  GeoTerms(GeoTerms &&) noexcept = default;
  GeoTerms &operator=(const GeoTerms &O) {
    if (this != &O)
      Terms = O.Terms ? std::make_unique<List>(*O.Terms) : nullptr;
    return *this;
  }
  GeoTerms &operator=(GeoTerms &&) noexcept = default;

  iterator begin() { return Terms ? Terms->begin() : nullptr; }
  iterator end() { return Terms ? Terms->end() : nullptr; }
  const_iterator begin() const { return Terms ? Terms->begin() : nullptr; }
  const_iterator end() const { return Terms ? Terms->end() : nullptr; }
  size_t size() const { return Terms ? Terms->size() : 0; }
  bool empty() const { return size() == 0; }

  const_iterator find(int64_t Base) const {
    const_iterator It = lowerBound(Base);
    return It != end() && It->first == Base ? It : end();
  }
  size_t count(int64_t Base) const { return find(Base) != end(); }

  /// The coefficient polynomial of \p Base, inserted empty when absent.
  ExpPoly &operator[](int64_t Base) {
    const size_t Pos = size_t(lowerBound(Base) - begin());
    if (!Terms)
      Terms = std::make_unique<List>();
    if (Pos == Terms->size() || (*Terms)[Pos].first != Base) {
      Terms->push_back({Base, ExpPoly()});
      std::rotate(Terms->begin() + Pos, Terms->end() - 1, Terms->end());
    }
    return (*Terms)[Pos].second;
  }

  /// Removes the term at \p It; returns the position after it.  Removing
  /// the last term releases the list.
  iterator erase(iterator It) {
    std::move(It + 1, end(), It);
    Terms->pop_back();
    if (Terms->empty()) {
      Terms.reset();
      return nullptr;
    }
    return It;
  }

  bool operator==(const GeoTerms &O) const {
    if (empty() || O.empty())
      return empty() == O.empty();
    return *Terms == *O.Terms;
  }

private:
  using List = SmallVector<value_type, 1>;

  const_iterator lowerBound(int64_t Base) const {
    return std::lower_bound(
        begin(), end(), Base,
        [](const value_type &T, int64_t B) { return T.first < B; });
  }

  std::unique_ptr<List> Terms;
};

/// value(h) = sum_k poly[k] * h^k  +  sum_b (sum_j geo[b][j] * h^j) * b^h.
///
/// Invariants: the polynomial coefficient list has no trailing zeros;
/// exponential terms never use base 0 or 1 (base-1 folds into the
/// polynomial part), their coefficient polynomials have no trailing zeros,
/// and an all-zero coefficient polynomial is never stored.
class ClosedForm {
public:
  /// Constructs the zero form.
  ClosedForm() = default;

  /// The constant (loop-invariant) form \p C.
  static ClosedForm constant(Affine C);

  /// The canonical basic counter h = (L, 0, 1).
  static ClosedForm counter();

  /// init + step * h: the paper's linear tuple (L, init, step).
  static ClosedForm linear(Affine Init, Affine Step);

  /// Builds from explicit coefficients (normalizes); each exponential term
  /// gets a constant (degree-0) coefficient polynomial.
  static ClosedForm make(std::vector<Affine> Poly,
                         std::map<int64_t, Affine> Geo = {});

  /// Builds from explicit coefficients with full coefficient polynomials on
  /// the exponential terms (normalizes).
  static ClosedForm makeExp(std::span<const Affine> Poly, GeoTerms Geo);

  bool isZero() const { return Poly.empty() && Geo.empty(); }
  bool isInvariant() const { return degree() == 0 && Geo.empty(); }
  bool isLinear() const { return degree() <= 1 && Geo.empty(); }
  bool isPolynomial() const { return Geo.empty(); }
  bool hasExponential() const { return !Geo.empty(); }

  /// True when some exponential term carries a non-constant coefficient
  /// polynomial (e.g. h*2^h) -- the c-finite extension beyond the paper's
  /// geometric class.
  bool hasPolyExponential() const {
    for (const auto &[Base, Coeff] : geoTerms())
      if (Coeff.size() > 1)
        return true;
    return false;
  }

  /// Degree of the polynomial part (0 for a constant).
  unsigned degree() const {
    return Poly.size() <= 1 ? 0 : static_cast<unsigned>(Poly.size() - 1);
  }

  /// Coefficient of h^k (zero when absent).
  Affine coeff(unsigned K) const {
    return K < Poly.size() ? Poly[K] : Affine();
  }

  /// The paper's "initial value": value(0).
  Affine initialValue() const;

  /// Step of a linear form (its h coefficient); requires isLinear().
  Affine linearStep() const {
    assert(isLinear() && "step of non-linear form");
    return coeff(1);
  }

  const GeoTerms &geoTerms() const { return Geo; }

  /// Coefficient of h^J * Base^h (zero when absent).
  Affine geoCoeff(int64_t Base, unsigned J = 0) const {
    auto It = geoTerms().find(Base);
    if (It == geoTerms().end() || J >= It->second.size())
      return Affine();
    return It->second[J];
  }

  ClosedForm operator-() const;
  ClosedForm operator+(const ClosedForm &RHS) const;
  ClosedForm operator-(const ClosedForm &RHS) const;
  ClosedForm operator*(const Rational &Scale) const;

  /// Full product; nullopt when the result leaves the representable space
  /// (symbol-by-symbol products).  h^k * b^h cross terms stay representable
  /// here: they land in the coefficient polynomial of b^h.
  std::optional<ClosedForm> mulChecked(const ClosedForm &RHS) const;

  /// Exact value on iteration \p H (H >= 0).
  Affine evaluateAt(int64_t H) const;

  /// value(h + Delta) as a form in h; nullopt when an exponential
  /// coefficient would leave the rationals (never happens for integer
  /// bases with Delta >= -62).
  std::optional<ClosedForm> shifted(int64_t Delta) const;

  /// value(K*c + P) as a form in the new variable c (K >= 1, P >= 0): the
  /// time-stretch that moves an iteration-domain form into the cycle domain
  /// of a period-K branch cycle at phase P.  Exponential bases become b^K;
  /// nullopt when a stretched base leaves int64.  May throw
  /// RationalOverflow (coefficient arithmetic), like the other operators.
  std::optional<ClosedForm> atLinear(int64_t K, int64_t P) const;

  /// Evaluates at a *symbolic* iteration count: only possible for linear
  /// forms (init + step*TC must stay affine).  This is how inner-loop exit
  /// values with symbolic trip counts (the triangular loop of Figure 9) are
  /// built.
  std::optional<Affine> evaluateAtAffine(const Affine &TC) const;

  /// True when the sequence is non-decreasing for all h >= 0, provable from
  /// numeric coefficients alone (conservative).
  bool provablyNonDecreasing() const;
  /// True when strictly increasing for all h >= 0 (conservative).
  bool provablyIncreasing() const;
  /// True when value(h) >= 0 for all h >= 0 (conservative).
  bool provablyNonNegative() const;

  bool operator==(const ClosedForm &RHS) const {
    return Poly == RHS.Poly && geoTerms() == RHS.geoTerms();
  }
  bool operator!=(const ClosedForm &RHS) const { return !(*this == RHS); }

  /// Renders e.g. "3 + 1/2*h + 1/2*h^2", "-2 - h + 3*2^h", or (c-finite)
  /// "1 + 2*h*2^h".  Term order is fixed -- polynomial powers ascending,
  /// then bases ascending with coefficient powers ascending -- so the
  /// rendering never depends on pointer or insertion order.
  std::string str(const SymbolNamer &Namer = SymbolNamer()) const {
    std::string Out;
    appendTo(Out, Namer);
    return Out;
  }
  /// Appends the str() rendering to \p Out.
  void appendTo(std::string &Out,
                const SymbolNamer &Namer = SymbolNamer()) const;

private:
  void normalize();

  PolyCoeffs Poly;
  /// Exponential terms; empty in every invariant and polynomial form.
  /// normalize() never leaves an empty coefficient polynomial behind.
  GeoTerms Geo;
};

} // namespace ivclass
} // namespace biv

#endif // BEYONDIV_IVCLASS_CLOSEDFORM_H

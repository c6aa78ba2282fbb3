//===- support/Affine.cpp - Affine symbolic expressions -------------------===//

#include "support/Affine.h"
#include <algorithm>

using namespace biv;

Affine Affine::symbol(SymbolRef Sym) {
  Affine A;
  A.Terms[Sym] = Rational(1);
  return A;
}

Rational Affine::coefficientOf(SymbolRef Sym) const {
  auto It = Terms.find(Sym);
  return It == Terms.end() ? Rational() : It->second;
}

Affine Affine::operator-() const {
  Affine Result;
  Result.Constant = -Constant;
  for (const auto &[Sym, Coeff] : Terms)
    Result.Terms[Sym] = -Coeff;
  return Result;
}

Affine Affine::operator+(const Affine &RHS) const {
  Affine Result = *this;
  Result.Constant += RHS.Constant;
  for (const auto &[Sym, Coeff] : RHS.Terms) {
    Rational Sum = Result.coefficientOf(Sym) + Coeff;
    if (Sum.isZero())
      Result.Terms.erase(Sym);
    else
      Result.Terms[Sym] = Sum;
  }
  return Result;
}

Affine Affine::operator-(const Affine &RHS) const {
  // Coefficient-wise binary subtraction; *this + (-RHS) would overflow on
  // any RHS coefficient of INT64_MIN even when the difference fits.
  Affine Result = *this;
  Result.Constant = Result.Constant - RHS.Constant;
  for (const auto &[Sym, Coeff] : RHS.Terms) {
    Rational Diff = Result.coefficientOf(Sym) - Coeff;
    if (Diff.isZero())
      Result.Terms.erase(Sym);
    else
      Result.Terms[Sym] = Diff;
  }
  return Result;
}

Affine Affine::operator*(const Rational &Scale) const {
  Affine Result;
  if (Scale.isZero())
    return Result;
  Result.Constant = Constant * Scale;
  for (const auto &[Sym, Coeff] : Terms)
    Result.Terms[Sym] = Coeff * Scale;
  return Result;
}

std::optional<Affine> Affine::mul(const Affine &A, const Affine &B) {
  if (auto C = A.getConstant())
    return B * *C;
  if (auto C = B.getConstant())
    return A * *C;
  return std::nullopt;
}

void Affine::appendTo(std::string &Out, const SymbolNamer &Namer) const {
  auto nameOf = [&](SymbolRef Sym) {
    return Namer ? Namer(Sym) : std::string("sym");
  };
  const bool Leading = Constant.isZero() && !Terms.empty();
  if (!Leading)
    Out += Constant.str();
  auto addTerm = [&](const std::string &Name, const Rational &Coeff,
                     bool First) {
    if (First) {
      if (Coeff == Rational(1)) {
        Out += Name;
      } else if (Coeff == Rational(-1)) {
        Out += '-';
        Out += Name;
      } else {
        Out += Coeff.str();
        Out += '*';
        Out += Name;
      }
      return;
    }
    Rational Abs = Coeff;
    if (Coeff.isNegative()) {
      Out += " - ";
      Abs = -Coeff;
    } else {
      Out += " + ";
    }
    if (!Abs.isOne()) {
      Out += Abs.str();
      Out += '*';
    }
    Out += Name;
  };
  if (Terms.size() == 1) {
    addTerm(nameOf(Terms.begin()->first), Terms.begin()->second, Leading);
    return;
  }
  // Render terms in (name, coefficient) order: Terms is keyed by symbol
  // pointer, and allocation order must never leak into output (reports are
  // byte-compared across batch worker counts and across runs).
  std::vector<std::pair<std::string, Rational>> Ordered;
  Ordered.reserve(Terms.size());
  for (const auto &[Sym, Coeff] : Terms)
    Ordered.emplace_back(nameOf(Sym), Coeff);
  std::sort(Ordered.begin(), Ordered.end(),
            [](const auto &A, const auto &B) {
              if (A.first != B.first)
                return A.first < B.first;
              return A.second < B.second;
            });
  for (size_t K = 0; K < Ordered.size(); ++K)
    addTerm(Ordered[K].first, Ordered[K].second, Leading && K == 0);
}

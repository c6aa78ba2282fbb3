//===- support/Affine.cpp - Affine symbolic expressions -------------------===//

#include "support/Affine.h"
#include <algorithm>
#include <functional>
#include <vector>

using namespace biv;

Affine Affine::symbol(SymbolRef Sym) {
  Affine A;
  A.Terms.push_back({Sym, Rational(1)});
  return A;
}

Rational Affine::coefficientOf(SymbolRef Sym) const {
  for (const Term &T : Terms)
    if (T.Sym == Sym)
      return T.Coeff;
  return Rational();
}

Affine Affine::operator-() const {
  Affine Result;
  Result.Constant = -Constant;
  Result.Terms.reserve(Terms.size());
  for (const Term &T : Terms)
    Result.Terms.push_back({T.Sym, -T.Coeff});
  return Result;
}

template <typename CombineFn>
Affine Affine::merged(const Affine &RHS, Rational NewConstant,
                      CombineFn Combine) const {
  Affine Result;
  Result.Constant = NewConstant;
  Result.Terms.reserve(Terms.size() + RHS.Terms.size());
  const Term *L = Terms.begin(), *LE = Terms.end();
  const Term *R = RHS.Terms.begin(), *RE = RHS.Terms.end();
  std::less<SymbolRef> Before;
  while (L != LE || R != RE) {
    if (R == RE || (L != LE && Before(L->Sym, R->Sym))) {
      Result.Terms.push_back(*L++);
      continue;
    }
    const bool Both = L != LE && L->Sym == R->Sym;
    Rational C = Combine(Both ? L->Coeff : Rational(), R->Coeff);
    if (!C.isZero())
      Result.Terms.push_back({R->Sym, C});
    if (Both)
      ++L;
    ++R;
  }
  return Result;
}

Affine Affine::operator+(const Affine &RHS) const {
  return merged(RHS, Constant + RHS.Constant,
                [](const Rational &A, const Rational &B) { return A + B; });
}

Affine Affine::operator-(const Affine &RHS) const {
  // Coefficient-wise binary subtraction; *this + (-RHS) would overflow on
  // any RHS coefficient of INT64_MIN even when the difference fits.
  return merged(RHS, Constant - RHS.Constant,
                [](const Rational &A, const Rational &B) { return A - B; });
}

Affine Affine::operator*(const Rational &Scale) const {
  Affine Result;
  if (Scale.isZero())
    return Result;
  Result.Constant = Constant * Scale;
  Result.Terms.reserve(Terms.size());
  for (const Term &T : Terms)
    Result.Terms.push_back({T.Sym, T.Coeff * Scale});
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
    addTerm(nameOf(Terms.front().Sym), Terms.front().Coeff, Leading);
    return;
  }
  // Render terms in (name, coefficient) order: Terms is keyed by symbol
  // pointer, and allocation order must never leak into output (reports are
  // byte-compared across batch worker counts and across runs).
  std::vector<std::pair<std::string, Rational>> Ordered;
  Ordered.reserve(Terms.size());
  for (const Term &T : Terms)
    Ordered.emplace_back(nameOf(T.Sym), T.Coeff);
  std::sort(Ordered.begin(), Ordered.end(),
            [](const auto &A, const auto &B) {
              if (A.first != B.first)
                return A.first < B.first;
              return A.second < B.second;
            });
  for (size_t K = 0; K < Ordered.size(); ++K)
    addTerm(Ordered[K].first, Ordered[K].second, Leading && K == 0);
}

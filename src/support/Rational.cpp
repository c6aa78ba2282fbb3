//===- support/Rational.cpp - Exact rational arithmetic -------------------===//

#include "support/Rational.h"

using namespace biv;

int64_t biv::gcd64(int64_t A, int64_t B) {
  if (A < 0)
    A = -A;
  if (B < 0)
    B = -B;
  while (B != 0) {
    int64_t T = A % B;
    A = B;
    B = T;
  }
  return A;
}

static int64_t narrow(__int128 V) {
  // Gcd reduction already ran in 128 bits; a value still out of range here
  // is a genuine overflow of the representation, never a transient.  Report
  // it instead of wrapping (the old assert compiled away under NDEBUG and
  // the static_cast silently truncated).
  if (V < INT64_MIN || V > INT64_MAX)
    throw RationalOverflow();
  return static_cast<int64_t>(V);
}

/// Binary (Stein) gcd of two magnitudes; gcd(0, B) == B.
static uint64_t gcdU64(uint64_t A, uint64_t B) {
  if (A == 0 || B == 0)
    return A | B;
  const int Shift = __builtin_ctzll(A | B);
  A >>= __builtin_ctzll(A);
  do {
    B >>= __builtin_ctzll(B);
    if (A > B) {
      uint64_t T = A;
      A = B;
      B = T;
    }
    B -= A;
  } while (B != 0);
  return A << Shift;
}

Rational Rational::normalized(__int128 N, __int128 D) {
  assert(D != 0 && "rational with zero denominator");
  // Normalize the sign in 128 bits: N = INT64_MIN with D < 0 would overflow
  // a plain int64 negation before the gcd could shrink it.
  if (D < 0) {
    N = -N;
    D = -D;
  }
  if (N >= INT64_MIN && N <= INT64_MAX && D <= INT64_MAX) {
    // Both halves already fit: one 64-bit gcd, and the quotients fit too.
    int64_t N64 = static_cast<int64_t>(N), D64 = static_cast<int64_t>(D);
    uint64_t NMag = N64 < 0 ? 0 - static_cast<uint64_t>(N64)
                            : static_cast<uint64_t>(N64);
    const int64_t G =
        static_cast<int64_t>(gcdU64(NMag, static_cast<uint64_t>(D64)));
    if (G > 1) {
      N64 /= G;
      D64 /= G;
    }
    return Rational(Reduced{}, N64, D64);
  }
  // Reduce in 128 bits before narrowing so transient wide values survive.
  __int128 A = N < 0 ? -N : N, B = D;
  while (B != 0) {
    __int128 T = A % B;
    A = B;
    B = T;
  }
  if (A > 1) {
    N /= A;
    D /= A;
  }
  return Rational(Reduced{}, narrow(N), narrow(D));
}

Rational::Rational(int64_t N, int64_t D) { *this = normalized(N, D); }

Rational Rational::operator-() const {
  // -INT64_MIN/Den is not representable; route through the widening path
  // instead of negating in int64 (signed-overflow UB).
  if (Num == INT64_MIN)
    return normalized(-static_cast<__int128>(Num), Den);
  return Rational(Reduced{}, -Num, Den);
}

Rational Rational::operator+(const Rational &RHS) const {
  int64_t Sum;
  if (Den == 1 && RHS.Den == 1 && !__builtin_add_overflow(Num, RHS.Num, &Sum))
    return Rational(Sum);
  return normalized(static_cast<__int128>(Num) * RHS.Den +
                        static_cast<__int128>(RHS.Num) * Den,
                    static_cast<__int128>(Den) * RHS.Den);
}

Rational Rational::operator-(const Rational &RHS) const {
  // Direct subtraction, not *this + (-RHS): negating first throws for RHS
  // touching INT64_MIN even when the difference itself fits (e.g. the
  // trip-count margin (hi - lo) with lo == INT64_MIN).
  int64_t Diff;
  if (Den == 1 && RHS.Den == 1 && !__builtin_sub_overflow(Num, RHS.Num, &Diff))
    return Rational(Diff);
  return normalized(static_cast<__int128>(Num) * RHS.Den -
                        static_cast<__int128>(RHS.Num) * Den,
                    static_cast<__int128>(Den) * RHS.Den);
}

Rational Rational::operator*(const Rational &RHS) const {
  int64_t Prod;
  if (Den == 1 && RHS.Den == 1 && !__builtin_mul_overflow(Num, RHS.Num, &Prod))
    return Rational(Prod);
  return normalized(static_cast<__int128>(Num) * RHS.Num,
                    static_cast<__int128>(Den) * RHS.Den);
}

Rational Rational::operator/(const Rational &RHS) const {
  assert(!RHS.isZero() && "division by zero rational");
  return normalized(static_cast<__int128>(Num) * RHS.Den,
                    static_cast<__int128>(Den) * RHS.Num);
}

bool Rational::operator<(const Rational &RHS) const {
  if (Den == 1 && RHS.Den == 1)
    return Num < RHS.Num;
  return static_cast<__int128>(Num) * RHS.Den <
         static_cast<__int128>(RHS.Num) * Den;
}

int64_t Rational::floor() const {
  if (Num >= 0)
    return Num / Den;
  // Widen: -Num overflows for Num == INT64_MIN.  The result magnitude only
  // shrinks (Den >= 1), so the final narrow always succeeds.
  __int128 N = -static_cast<__int128>(Num);
  return narrow(-((N + Den - 1) / Den));
}

int64_t Rational::ceil() const {
  // Truncation toward zero is already the ceiling for non-positive values;
  // doing it directly (rather than -(-x).floor()) keeps INT64_MIN/Den legal.
  if (Num <= 0)
    return Num / Den;
  return narrow((static_cast<__int128>(Num) + Den - 1) / Den);
}

Rational Rational::pow(int64_t Exp) const {
  if (Exp < 0)
    return Rational(1) / pow(-Exp);
  Rational Result(1), Base = *this;
  while (Exp > 0) {
    if (Exp & 1)
      Result *= Base;
    Base *= Base;
    Exp >>= 1;
  }
  return Result;
}

std::string Rational::str() const {
  if (isInteger())
    return std::to_string(Num);
  return std::to_string(Num) + "/" + std::to_string(Den);
}

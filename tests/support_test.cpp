//===- tests/support_test.cpp - Rational/Affine/Matrix unit tests ------------===//

#include "support/Affine.h"
#include "support/Matrix.h"
#include "support/Lcg.h"
#include "support/Rational.h"
#include "support/SmallVector.h"
#include <gtest/gtest.h>
#include <cstdio>
#include <limits>
#include <optional>

using namespace biv;

//===----------------------------------------------------------------------===//
// Rational
//===----------------------------------------------------------------------===//

TEST(RationalTest, DefaultIsZero) {
  Rational R;
  EXPECT_TRUE(R.isZero());
  EXPECT_TRUE(R.isInteger());
  EXPECT_EQ(R.getInteger(), 0);
}

TEST(RationalTest, NormalizesSignAndGcd) {
  Rational R(6, -8);
  EXPECT_EQ(R.numerator(), -3);
  EXPECT_EQ(R.denominator(), 4);
  EXPECT_TRUE(R.isNegative());
}

TEST(RationalTest, Arithmetic) {
  Rational Half(1, 2), Third(1, 3);
  EXPECT_EQ(Half + Third, Rational(5, 6));
  EXPECT_EQ(Half - Third, Rational(1, 6));
  EXPECT_EQ(Half * Third, Rational(1, 6));
  EXPECT_EQ(Half / Third, Rational(3, 2));
  EXPECT_EQ(-Half, Rational(-1, 2));
}

TEST(RationalTest, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_NE(Rational(1, 3), Rational(1, 2));
}

TEST(RationalTest, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).floor(), 3);
  EXPECT_EQ(Rational(7, 2).ceil(), 4);
  EXPECT_EQ(Rational(-7, 2).floor(), -4);
  EXPECT_EQ(Rational(-7, 2).ceil(), -3);
  EXPECT_EQ(Rational(6, 2).floor(), 3);
  EXPECT_EQ(Rational(6, 2).ceil(), 3);
}

TEST(RationalTest, Pow) {
  EXPECT_EQ(Rational(2).pow(10), Rational(1024));
  EXPECT_EQ(Rational(-3).pow(3), Rational(-27));
  EXPECT_EQ(Rational(2).pow(0), Rational(1));
  EXPECT_EQ(Rational(2).pow(-2), Rational(1, 4));
  EXPECT_EQ(Rational(1, 2).pow(3), Rational(1, 8));
}

TEST(RationalTest, Str) {
  EXPECT_EQ(Rational(5).str(), "5");
  EXPECT_EQ(Rational(-3, 2).str(), "-3/2");
}

TEST(RationalTest, LargeIntermediates) {
  // (1/3e9) + (1/3e9) must reduce through 128-bit intermediates.
  Rational A(1, 3000000000LL);
  Rational Sum = A + A;
  EXPECT_EQ(Sum, Rational(1, 1500000000LL));
}

TEST(RationalTest, Gcd64) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(-12, 18), 6);
  EXPECT_EQ(gcd64(0, 5), 5);
  EXPECT_EQ(gcd64(0, 0), 0);
}

TEST(RationalTest, GcdReductionAfterEveryOp) {
  // Results are always in lowest terms -- no "non-normalized fraction"
  // survives an operation (the old bug let 3/6 escape and poison ==).
  Rational S = Rational(1, 6) + Rational(1, 3);
  EXPECT_EQ(S.numerator(), 1);
  EXPECT_EQ(S.denominator(), 2);
  Rational P = Rational(2, 3) * Rational(3, 4);
  EXPECT_EQ(P.numerator(), 1);
  EXPECT_EQ(P.denominator(), 2);
  Rational D = Rational(4, 6) / Rational(2, 9);
  EXPECT_EQ(D.numerator(), 3);
  EXPECT_EQ(D.denominator(), 1);
}

TEST(RationalTest, OverflowThrowsInsteadOfWrapping) {
  const int64_t Max = std::numeric_limits<int64_t>::max();
  const int64_t Min = std::numeric_limits<int64_t>::min();
  // Each of these has an exact value just outside int64 after reduction:
  // the old code wrapped silently, producing a *wrong* closed form.
  EXPECT_THROW(Rational(Max) + Rational(1), RationalOverflow);
  EXPECT_THROW(Rational(Min) - Rational(1), RationalOverflow);
  EXPECT_THROW(-Rational(Min), RationalOverflow);
  EXPECT_THROW(Rational(Max) * Rational(2), RationalOverflow);
  // Normalization keeps Den > 0, so a Den of INT64_MIN must negate Num --
  // representable only when the division by gcd makes room.
  EXPECT_THROW(Rational(1, Min), RationalOverflow);
  EXPECT_THROW(Rational(Min, -1), RationalOverflow); // == -Min, one too big
  EXPECT_THROW(Rational(Min) / Rational(-1), RationalOverflow);
}

TEST(RationalTest, ExtremeValuesThatDoFitAreExact) {
  const int64_t Max = std::numeric_limits<int64_t>::max();
  const int64_t Min = std::numeric_limits<int64_t>::min();
  // INT64_MIN / -2 reduces to 2^62: wide intermediates make it exact.
  Rational R(Min, -2);
  EXPECT_EQ(R.numerator(), int64_t(1) << 62);
  EXPECT_EQ(R.denominator(), 1);
  // (MAX/2) * 2 cancels back inside range.
  EXPECT_EQ(Rational(Max, 2) * Rational(2), Rational(Max));
  // floor/ceil at the bottom of the range must not round through a wrap.
  EXPECT_EQ(Rational(Min).floor(), Min);
  EXPECT_EQ(Rational(Min).ceil(), Min);
  EXPECT_EQ(Rational(Min, 3).ceil(), Min / 3);
}

namespace {

/// The arithmetic before the int64 fast paths, kept as the oracle: every
/// result is gcd-reduced in 128 bits, narrowed, and reduced once more by
/// the reducing constructor.  nullopt stands for RationalOverflow (the
/// oracle does not throw, so the test pays for one exception per overflow,
/// not two).
struct RefRational {
  int64_t N = 0;
  int64_t D = 1;
};
using RefResult = std::optional<RefRational>;

bool fitsInt64(__int128 V) {
  return V >= std::numeric_limits<int64_t>::min() &&
         V <= std::numeric_limits<int64_t>::max();
}

RefResult refReduce(__int128 N, __int128 D) {
  if (D < 0) {
    N = -N;
    D = -D;
  }
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
  if (!fitsInt64(N) || !fitsInt64(D))
    return std::nullopt;
  return RefRational{int64_t(N), int64_t(D)};
}

RefResult refNormalized(__int128 N, __int128 D) {
  RefResult R = refReduce(N, D);
  return R ? refReduce(R->N, R->D) : R;
}

RefResult refAdd(RefRational A, RefRational B) {
  return refNormalized(__int128(A.N) * B.D + __int128(B.N) * A.D,
                       __int128(A.D) * B.D);
}
RefResult refSub(RefRational A, RefRational B) {
  return refNormalized(__int128(A.N) * B.D - __int128(B.N) * A.D,
                       __int128(A.D) * B.D);
}
RefResult refMul(RefRational A, RefRational B) {
  return refNormalized(__int128(A.N) * B.N, __int128(A.D) * B.D);
}
RefResult refDiv(RefRational A, RefRational B) {
  return refNormalized(__int128(A.N) * B.D, __int128(A.D) * B.N);
}
RefResult refPow(RefRational X, int64_t Exp) {
  if (Exp < 0) {
    RefResult P = refPow(X, -Exp);
    return P ? refDiv({1, 1}, *P) : P;
  }
  RefRational Result{1, 1}, Base = X;
  while (Exp > 0) {
    if (Exp & 1) {
      RefResult M = refMul(Result, Base);
      if (!M)
        return M;
      Result = *M;
    }
    RefResult Sq = refMul(Base, Base);
    if (!Sq)
      return Sq;
    Base = *Sq;
    Exp >>= 1;
  }
  return Result;
}

/// One seeded operand as a (numerator, denominator) pair for the reducing
/// constructor: a small integer or non-integer rational, or (\p Wide) one of
/// the large shapes the fast paths must agree on as well.
std::pair<int64_t, int64_t> drawOperand(Lcg &R, bool Wide) {
  const int64_t Min = std::numeric_limits<int64_t>::min();
  const int64_t Max = std::numeric_limits<int64_t>::max();
  auto any64 = [&] { return int64_t(R.next() << 32 ^ R.next()); };
  switch (Wide ? R.range(2, 11) : R.range(0, 1)) {
  case 0: // small integer
    return {R.range(-100, 100), 1};
  case 1: // small non-integer rational
    return {R.range(-1000, 1000), R.range(1, 60)};
  case 2: // within 2 of the int64 extremes
    return {R.range(0, 1) ? Min + R.range(0, 2) : Max - R.range(0, 2), 1};
  case 3: // an extreme over a small odd denominator
    return {R.range(0, 1) ? Min + R.range(0, 2) : Max - R.range(0, 2),
            R.range(-8, 8) | 1};
  case 4: // any 64-bit integer
    return {any64(), 1};
  case 5: // large numerator over a small denominator
    return {any64(), R.range(2, 9)};
  case 6:
  case 7:
  case 8: { // large multiple of 2^K: cancels against the next shape
    int64_t K = R.range(1, 40);
    int64_t Bound = (int64_t(1) << (62 - K)) - 1;
    return {R.range(-Bound, Bound) * (int64_t(1) << K), 1};
  }
  default: // small numerator over 2^K
    return {R.range(-(1 << 20), 1 << 20), int64_t(1) << R.range(1, 40)};
  }
}

} // namespace

TEST(RationalTest, FastPathsMatchWideReferenceArithmetic) {
  Lcg R(20260517);
  constexpr unsigned Pairs = 1000000;
  unsigned Mismatches = 0, Overflows = 0, WideButFits = 0, IntPairs = 0;
  std::string First;
  // Runs \p Fast and requires \p Want's value, or a throw where \p Want is
  // an overflow.
  auto check = [&](const char *Op, const std::pair<int64_t, int64_t> &A,
                   const std::pair<int64_t, int64_t> &B, auto &&Fast,
                   const RefResult &Want) {
    Rational Got;
    bool Threw = false;
    try {
      Got = Fast();
    } catch (const RationalOverflow &) {
      Threw = true;
    }
    Overflows += !Want;
    if (Threw == !Want && (Threw || (Got.numerator() == Want->N &&
                                     Got.denominator() == Want->D)))
      return;
    if (Mismatches++ == 0)
      First = std::string(Op) + " on " + std::to_string(A.first) + "/" +
              std::to_string(A.second) + ", " + std::to_string(B.first) +
              "/" + std::to_string(B.second);
  };
  for (unsigned P = 0; P < Pairs; ++P) {
    // Seven pairs in eight are small; the rest mix in the wide shapes.
    const bool Wide = R.range(0, 7) == 0;
    const std::pair<int64_t, int64_t> OA =
        drawOperand(R, Wide && R.range(0, 2));
    const std::pair<int64_t, int64_t> OB =
        drawOperand(R, Wide && R.range(0, 2));
    // The operands themselves go through both reducing constructors.
    const RefResult RA = refReduce(OA.first, OA.second),
                    RB = refReduce(OB.first, OB.second);
    if (!RA || !RB) {
      EXPECT_THROW(
          (Rational(OA.first, OA.second), Rational(OB.first, OB.second)),
          RationalOverflow);
      continue;
    }
    const Rational A(OA.first, OA.second), B(OB.first, OB.second);
    ASSERT_EQ(A.numerator(), RA->N);
    ASSERT_EQ(A.denominator(), RA->D);
    ASSERT_EQ(B.numerator(), RB->N);
    ASSERT_EQ(B.denominator(), RB->D);
    IntPairs += A.isInteger() && B.isInteger();
    const RefResult Sum = refAdd(*RA, *RB), Prod = refMul(*RA, *RB);
    // Intermediates past int64 whose reduced product or sum still fits.
    const __int128 ProdD = __int128(RA->D) * RB->D;
    if (Prod && (!fitsInt64(__int128(RA->N) * RB->N) || !fitsInt64(ProdD)))
      ++WideButFits;
    const __int128 SumN = __int128(RA->N) * RB->D + __int128(RB->N) * RA->D;
    if (Sum && (!fitsInt64(SumN) || !fitsInt64(ProdD)))
      ++WideButFits;
    check("+", OA, OB, [&] { return A + B; }, Sum);
    check("-", OA, OB, [&] { return A - B; }, refSub(*RA, *RB));
    check("*", OA, OB, [&] { return A * B; }, Prod);
    if (!B.isZero())
      check("/", OA, OB, [&] { return A / B; }, refDiv(*RA, *RB));
    // Long powers only of tiny bases; larger ones overflow within a few
    // squarings either way.
    const bool TinyBase = A.numerator() >= -3 && A.numerator() <= 3 &&
                          A.denominator() <= 3;
    const int64_t Exp = TinyBase ? R.range(-3, 64) : R.range(-3, 8);
    if (!A.isZero() || Exp >= 0)
      check("pow", OA, {Exp, 1}, [&] { return A.pow(Exp); },
            refPow(*RA, Exp));
  }
  EXPECT_EQ(Mismatches, 0u) << "first mismatch: " << First;
  // The draw must reach every regime the fast paths split on.
  std::printf("%u pairs: %u integer pairs, %u overflows, %u wide "
              "intermediates that reduce into range\n",
              Pairs, IntPairs, Overflows, WideButFits);
  EXPECT_GT(IntPairs, Pairs / 20);
  EXPECT_GT(Overflows, Pairs / 20);
  EXPECT_GT(WideButFits, Pairs / 200);
}

//===----------------------------------------------------------------------===//
// SmallVector
//===----------------------------------------------------------------------===//

TEST(SmallVectorTest, CopiesAndMovesAcrossTheInlineBoundary) {
  // std::string elements own heap storage, so a lost destructor or a double
  // free shows under the sanitizers.
  using Vec = SmallVector<std::string, 2>;
  const std::string Long(40, 'x');
  Vec A;
  A.push_back("a");
  A.push_back(Long);
  Vec InlineCopy = A;
  A.push_back(A.front()); // grows past the inline slots from its own element
  A.push_back(Long + "y");
  ASSERT_EQ(A.size(), 4u);
  EXPECT_EQ(A[2], "a");
  EXPECT_EQ(A.back(), Long + "y");
  Vec HeapCopy = A;
  EXPECT_EQ(HeapCopy, A);
  Vec Moved = std::move(A);
  EXPECT_TRUE(A.empty());
  EXPECT_EQ(Moved, HeapCopy);
  Vec InlineMoved = std::move(InlineCopy);
  ASSERT_EQ(InlineMoved.size(), 2u);
  EXPECT_EQ(InlineMoved[1], Long);
  InlineMoved = HeapCopy; // inline storage takes a heap-sized copy
  EXPECT_EQ(InlineMoved, HeapCopy);
  Moved = std::move(InlineMoved);
  EXPECT_EQ(Moved, HeapCopy);
  Moved.resize(1);
  EXPECT_EQ(Moved.size(), 1u);
  Moved.resize(3);
  EXPECT_EQ(Moved[2], "");
  Moved.pop_back();
  Moved.assign(5, Long);
  EXPECT_EQ(Moved.size(), 5u);
  EXPECT_NE(Moved, HeapCopy);
  Moved.clear();
  EXPECT_TRUE(Moved.empty());
}

//===----------------------------------------------------------------------===//
// Affine
//===----------------------------------------------------------------------===//

namespace {
int SymA, SymB; // arbitrary distinct addresses as symbols
} // namespace

TEST(AffineTest, ConstantOnly) {
  Affine A(Rational(3, 2));
  EXPECT_TRUE(A.isConstant());
  EXPECT_EQ(*A.getConstant(), Rational(3, 2));
}

TEST(AffineTest, SymbolArithmetic) {
  Affine N = Affine::symbol(&SymA);
  Affine E = N + Affine(2);            // n + 2
  Affine F = E * Rational(3);          // 3n + 6
  EXPECT_EQ(F.coefficientOf(&SymA), Rational(3));
  EXPECT_EQ(F.constantPart(), Rational(6));
  EXPECT_FALSE(F.isConstant());
}

TEST(AffineTest, CancellationRemovesTerms) {
  Affine N = Affine::symbol(&SymA);
  Affine Z = N - N;
  EXPECT_TRUE(Z.isZero());
  EXPECT_TRUE(Z.isConstant());
}

TEST(AffineTest, MulRequiresConstantSide) {
  Affine N = Affine::symbol(&SymA);
  Affine M = Affine::symbol(&SymB);
  EXPECT_FALSE(Affine::mul(N, M).has_value());
  auto P = Affine::mul(N + Affine(1), Affine(4));
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(P->coefficientOf(&SymA), Rational(4));
  EXPECT_EQ(P->constantPart(), Rational(4));
}

TEST(AffineTest, Equality) {
  Affine X = Affine::symbol(&SymA) + Affine(1);
  Affine Y = Affine(1) + Affine::symbol(&SymA);
  EXPECT_EQ(X, Y);
  EXPECT_NE(X, X + Affine(1));
}

TEST(AffineTest, Printing) {
  auto Namer = [](SymbolRef S) {
    return S == &SymA ? std::string("n") : std::string("m");
  };
  Affine E = Affine::symbol(&SymA) * Rational(2) + Affine(Rational(1, 2));
  EXPECT_EQ(E.str(Namer), "1/2 + 2*n");
  Affine Neg = -Affine::symbol(&SymA) + Affine(3);
  EXPECT_EQ(Neg.str(Namer), "3 - n");
  EXPECT_EQ(Affine().str(), "0");
}

//===----------------------------------------------------------------------===//
// RatMatrix
//===----------------------------------------------------------------------===//

TEST(MatrixTest, IdentityInverse) {
  RatMatrix I = RatMatrix::identity(3);
  auto Inv = I.inverse();
  ASSERT_TRUE(Inv.has_value());
  EXPECT_EQ(*Inv, I);
}

TEST(MatrixTest, SingularHasNoInverse) {
  RatMatrix M(2, 2);
  M.at(0, 0) = Rational(1);
  M.at(0, 1) = Rational(2);
  M.at(1, 0) = Rational(2);
  M.at(1, 1) = Rational(4);
  EXPECT_FALSE(M.inverse().has_value());
}

TEST(MatrixTest, PaperVandermondeExample) {
  // Section 4.3: k in loop L14 is a third-order polynomial IV; the matrix of
  // h^k values for h = 0..3 must invert exactly over the rationals.
  RatMatrix A(4, 4);
  for (unsigned H = 0; H < 4; ++H)
    for (unsigned K = 0; K < 4; ++K)
      A.at(H, K) = Rational(int64_t(H)).pow(K);
  auto Inv = A.inverse();
  ASSERT_TRUE(Inv.has_value());
  EXPECT_EQ(*Inv * A, RatMatrix::identity(4));

  // Multiplying the inverse by the first four values of k (4, 9, 17, 29)
  // yields the closed-form coefficients (24 23 6 1)/6, i.e.
  // k(h) = (h^3 + 6h^2 + 23h + 24) / 6.
  std::vector<Affine> B = {Affine(4), Affine(9), Affine(17), Affine(29)};
  auto X = A.solveAffine(B);
  ASSERT_TRUE(X.has_value());
  EXPECT_EQ(*(*X)[0].getConstant(), Rational(4));
  EXPECT_EQ(*(*X)[1].getConstant(), Rational(23, 6));
  EXPECT_EQ(*(*X)[2].getConstant(), Rational(1));
  EXPECT_EQ(*(*X)[3].getConstant(), Rational(1, 6));
}

TEST(MatrixTest, SolveWithSymbolicRHS) {
  // x0 + x1*h for h=0,1 with symbolic first values (n, n+s).
  int N, S;
  RatMatrix A(2, 2);
  A.at(0, 0) = Rational(1);
  A.at(0, 1) = Rational(0);
  A.at(1, 0) = Rational(1);
  A.at(1, 1) = Rational(1);
  std::vector<Affine> B = {Affine::symbol(&N),
                           Affine::symbol(&N) + Affine::symbol(&S)};
  auto X = A.solveAffine(B);
  ASSERT_TRUE(X.has_value());
  EXPECT_EQ((*X)[0], Affine::symbol(&N));
  EXPECT_EQ((*X)[1], Affine::symbol(&S));
}

TEST(MatrixTest, GeometricPaperMatrix) {
  // Section 4.3's geometric example m = 3*m + 2*i + 1: matrix rows are
  // [1 h h^2 3^h] for h = 0..3.
  RatMatrix A(4, 4);
  for (unsigned H = 0; H < 4; ++H) {
    A.at(H, 0) = Rational(1);
    A.at(H, 1) = Rational(int64_t(H));
    A.at(H, 2) = Rational(int64_t(H)).pow(2);
    A.at(H, 3) = Rational(3).pow(int64_t(H));
  }
  ASSERT_TRUE(A.inverse().has_value());
  // First values of m starting at 0 with i = h+1: m' = 3m + 2(h+1) + 1.
  // m(0)=0, m(1)=3, m(2)=14, m(3)=49.
  std::vector<Affine> B = {Affine(0), Affine(3), Affine(14), Affine(49)};
  auto X = A.solveAffine(B);
  ASSERT_TRUE(X.has_value());
  // Verify the closed form reproduces the sequence (coefficients are exact).
  for (int64_t H = 0; H <= 3; ++H) {
    Rational V = *(*X)[0].getConstant() +
                 *(*X)[1].getConstant() * Rational(H) +
                 *(*X)[2].getConstant() * Rational(H).pow(2) +
                 *(*X)[3].getConstant() * Rational(3).pow(H);
    EXPECT_EQ(V, *B[H].getConstant());
  }
  // No quadratic term survives, as the paper notes.
  EXPECT_EQ(*(*X)[2].getConstant(), Rational(0));
}

TEST(MatrixTest, MultiplyShapes) {
  RatMatrix A(2, 3), B(3, 2);
  for (unsigned R = 0; R < 2; ++R)
    for (unsigned C = 0; C < 3; ++C)
      A.at(R, C) = Rational(R + C);
  for (unsigned R = 0; R < 3; ++R)
    for (unsigned C = 0; C < 2; ++C)
      B.at(R, C) = Rational(int64_t(R) - int64_t(C));
  RatMatrix P = A * B;
  EXPECT_EQ(P.rows(), 2u);
  EXPECT_EQ(P.cols(), 2u);
  // Row 0 of A = (0 1 2), col 0 of B = (0 1 2) -> 5.
  EXPECT_EQ(P.at(0, 0), Rational(5));
}

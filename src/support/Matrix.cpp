//===- support/Matrix.cpp - Rational dense matrices -----------------------===//

#include "support/Matrix.h"

using namespace biv;

RatMatrix RatMatrix::identity(unsigned N) {
  RatMatrix M(N, N);
  for (unsigned I = 0; I < N; ++I)
    M.at(I, I) = Rational(1);
  return M;
}

RatMatrix RatMatrix::operator*(const RatMatrix &RHS) const {
  assert(NumCols == RHS.NumRows && "shape mismatch in matrix multiply");
  RatMatrix Result(NumRows, RHS.NumCols);
  for (unsigned R = 0; R < NumRows; ++R)
    for (unsigned K = 0; K < NumCols; ++K) {
      const Rational &V = at(R, K);
      if (V.isZero())
        continue;
      for (unsigned C = 0; C < RHS.NumCols; ++C)
        Result.at(R, C) += V * RHS.at(K, C);
    }
  return Result;
}

std::optional<RatMatrix> RatMatrix::inverse() const {
  assert(NumRows == NumCols && "inverse of non-square matrix");
  unsigned N = NumRows;
  RatMatrix Work = *this;
  RatMatrix Inv = identity(N);
  for (unsigned Col = 0; Col < N; ++Col) {
    // Find a pivot row with a nonzero entry in this column.
    unsigned Pivot = Col;
    while (Pivot < N && Work.at(Pivot, Col).isZero())
      ++Pivot;
    if (Pivot == N)
      return std::nullopt;
    if (Pivot != Col)
      for (unsigned C = 0; C < N; ++C) {
        std::swap(Work.at(Pivot, C), Work.at(Col, C));
        std::swap(Inv.at(Pivot, C), Inv.at(Col, C));
      }
    Rational Scale = Rational(1) / Work.at(Col, Col);
    for (unsigned C = 0; C < N; ++C) {
      Work.at(Col, C) *= Scale;
      Inv.at(Col, C) *= Scale;
    }
    for (unsigned R = 0; R < N; ++R) {
      if (R == Col || Work.at(R, Col).isZero())
        continue;
      Rational Factor = Work.at(R, Col);
      for (unsigned C = 0; C < N; ++C) {
        Work.at(R, C) -= Factor * Work.at(Col, C);
        Inv.at(R, C) -= Factor * Inv.at(Col, C);
      }
    }
  }
  return Inv;
}

std::optional<AffineList>
RatMatrix::solveAffine(std::span<const Affine> B) const {
  assert(NumRows == NumCols && "solve requires a square system");
  assert(B.size() == NumRows && "right-hand side size mismatch");
  std::optional<RatMatrix> Inv = inverse();
  if (!Inv)
    return std::nullopt;
  AffineList X;
  X.resize(NumRows);
  for (unsigned R = 0; R < NumRows; ++R)
    for (unsigned C = 0; C < NumCols; ++C) {
      const Rational &V = Inv->at(R, C);
      if (!V.isZero())
        X[R] += B[C] * V;
    }
  return X;
}

std::string RatMatrix::str() const {
  std::string Out;
  for (unsigned R = 0; R < NumRows; ++R) {
    for (unsigned C = 0; C < NumCols; ++C) {
      if (C)
        Out += ' ';
      Out += at(R, C).str();
    }
    Out += '\n';
  }
  return Out;
}

//===- support/Matrix.h - Rational dense matrices --------------*- C++ -*-===//
//
// Part of the BeyondIV project: a reproduction of Michael Wolfe,
// "Beyond Induction Variables", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small dense matrices over the rationals with Gauss-Jordan inversion.
///
/// Section 4.3 of the paper finds the coefficients of polynomial and
/// geometric induction variables "by matrix inversion with rational
/// arithmetic": build the matrix of powers h^k (and bases g^h) for the first
/// iterations, invert it, and multiply by the computed (perhaps symbolic)
/// first values of the variable.  RatMatrix implements exactly that, and
/// solveAffine handles symbolic right-hand sides.
///
//===----------------------------------------------------------------------===//

#ifndef BEYONDIV_SUPPORT_MATRIX_H
#define BEYONDIV_SUPPORT_MATRIX_H

#include "support/Affine.h"
#include "support/Rational.h"
#include "support/SmallVector.h"
#include <optional>
#include <span>
#include <string>

namespace biv {

/// A dense Rows x Cols matrix of rationals.
/// A short list of affine values, inline up to the size of the common fits.
using AffineList = SmallVector<Affine, 4>;

class RatMatrix {
public:
  RatMatrix(unsigned Rows, unsigned Cols)
      : NumRows(Rows), NumCols(Cols), Data(size_t(Rows) * Cols, Rational()) {}

  /// Builds the N x N identity.
  static RatMatrix identity(unsigned N);

  unsigned rows() const { return NumRows; }
  unsigned cols() const { return NumCols; }

  Rational &at(unsigned R, unsigned C) {
    assert(R < NumRows && C < NumCols && "matrix index out of range");
    return Data[R * NumCols + C];
  }
  const Rational &at(unsigned R, unsigned C) const {
    assert(R < NumRows && C < NumCols && "matrix index out of range");
    return Data[R * NumCols + C];
  }

  RatMatrix operator*(const RatMatrix &RHS) const;

  /// Inverts a square matrix; returns nullopt when singular.
  std::optional<RatMatrix> inverse() const;

  /// Solves A * X = B for the affine-valued unknown vector X using Gaussian
  /// elimination over the rationals; returns nullopt when A is singular.
  /// This is how the paper recovers (perhaps symbolic) closed-form
  /// coefficients from the first few values of a recurrence.
  std::optional<AffineList> solveAffine(std::span<const Affine> B) const;

  /// Renders one row per line, entries separated by single spaces.
  std::string str() const;

  bool operator==(const RatMatrix &RHS) const {
    return NumRows == RHS.NumRows && NumCols == RHS.NumCols &&
           Data == RHS.Data;
  }

private:
  unsigned NumRows, NumCols;
  /// Row-major; matrices up to 4x4 (the classifier's systems and most
  /// recurrence fits) stay inline.
  SmallVector<Rational, 16> Data;
};

} // namespace biv

#endif // BEYONDIV_SUPPORT_MATRIX_H

// Level-2 BLAS: matrix-vector operations.
//
// These are what the paper's introductory example is made of: evaluating
// (x*y^T)*A costs 2*n^3 FLOPs through GER + GEMM while x*(y^T*A) costs
// 4*n^2 through two GEMVs — the canonical case where the FLOP count *is* a
// reliable discriminant.
#pragma once

#include <span>

#include "la/matrix.hpp"

namespace lamb::blas {

/// y := alpha * op(A) * x + beta * y; op(A) is m x n.
void gemv(bool trans, double alpha, la::ConstMatrixView a,
          std::span<const double> x, double beta, std::span<double> y);

/// Rank-1 update: A := alpha * x * y^T + A; A is m x n.
void ger(double alpha, std::span<const double> x, std::span<const double> y,
         la::MatrixView a);

}  // namespace lamb::blas

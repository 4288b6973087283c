// Symmetric rank-k update: lower triangle of C := alpha * A * A^T + beta * C.
//
// Runs on GEMM's packed path (blas/gemm.hpp): A is packed as both operands
// (op(B) = A^T), row blocks and micro-tiles strictly above the diagonal are
// skipped, and tiles that cross it are stored masked to i >= j, so SYRK does
// about half a GEMM's FLOPs at GEMM's per-tile rate. The strict upper
// triangle of C is never read or written.
#pragma once

#include "blas/gemm.hpp"
#include "la/matrix.hpp"

namespace lamb::blas {

/// A is n x k; only the lower triangle of the n x n C is referenced/written.
void syrk(double alpha, la::ConstMatrixView a, double beta, la::MatrixView c,
          const GemmOptions& opts = {});

}  // namespace lamb::blas

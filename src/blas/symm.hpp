// Symmetric matrix multiply ("left, lower"): C := alpha * A * B + beta * C
// where A is m x m symmetric with only the lower triangle stored.
//
// Runs on GEMM's packed path (blas/gemm.hpp): the A panels are packed
// straight from the stored triangle, element (i, p) read as A(max, min), and
// beta folds into the first kc slab's store as in GEMM. The strict upper
// triangle of A is never read.
#pragma once

#include "blas/gemm.hpp"
#include "la/matrix.hpp"

namespace lamb::blas {

void symm(double alpha, la::ConstMatrixView a, la::ConstMatrixView b,
          double beta, la::MatrixView c, const GemmOptions& opts = {});

}  // namespace lamb::blas

// Triangular storage helpers.
//
// SYRK produces only the lower triangle of a symmetric matrix; Algorithm 2 of
// the A*A^T*B expression then *copies the triangle* into a full matrix before
// calling GEMM (paper, Sec. 3.2.2). These are the data-movement "bits between
// calls" that the paper's definition of an algorithm includes.
#pragma once

#include "la/matrix.hpp"

namespace lamb::la {

/// Mirror the lower triangle into the upper one: a(i,j) := a(j,i) for i < j.
/// This is the "copy triangle to form a full matrix" step of AAtB Alg. 2.
void symmetrize_from_lower(MatrixView a);

/// True if a equals its transpose within abs_tol (a NaN off the diagonal
/// makes it false).
bool is_symmetric(ConstMatrixView a, double abs_tol);

}  // namespace lamb::la

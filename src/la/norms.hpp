// Matrix norms and error measures used to validate kernels against the
// reference implementations with properly scaled tolerances.
#pragma once

#include "la/matrix.hpp"

namespace lamb::la {

double frobenius_norm(ConstMatrixView a);

/// max_ij |a(i,j)|, or NaN if any element is NaN.
double max_abs(ConstMatrixView a);

/// max_ij |a(i,j) - b(i,j)|, or NaN if any difference is NaN; requires equal
/// shapes.
double max_abs_diff(ConstMatrixView a, ConstMatrixView b);

/// Forward-error tolerance for a product with inner dimension k: accumulated
/// rounding grows like k * eps * |A||B|; entries here are O(1), so
/// tol = c * k * eps with a small safety factor c.
double gemm_tolerance(index_t k);

}  // namespace lamb::la

// Level-1 helper of the level-3 kernels: the matrix scaling behind GEMM's,
// SYRK's and SYMM's beta (and alpha = 0) paths.
#pragma once

#include "la/matrix.hpp"

namespace lamb::blas {

/// A := s * A over a matrix view, with BLAS beta semantics: s == 0 stores
/// exact zeros without reading A (garbage/NaN content is overwritten) and
/// s == 1 is a no-op. Shared by the level-3 kernels' scaling edge paths.
void scale_matrix(la::MatrixView a, double s);

}  // namespace lamb::blas

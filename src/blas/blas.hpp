// Umbrella header for the BLAS substrate.
#pragma once

#include "blas/gemm.hpp"    // IWYU pragma: export
#include "blas/ref_blas.hpp"  // IWYU pragma: export
#include "blas/symm.hpp"    // IWYU pragma: export
#include "blas/syrk.hpp"    // IWYU pragma: export
#include "blas/variant.hpp"  // IWYU pragma: export

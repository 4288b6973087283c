// Operand generators. The paper's matrices are dense and unstructured: only
// their sizes affect performance, so uniform random entries suffice.
#pragma once

#include "la/matrix.hpp"
#include "support/rng.hpp"

namespace lamb::la {

/// Fill with uniform values in [-1, 1).
void fill_random(MatrixView a, support::Rng& rng);

/// Convenience factories.
Matrix random_matrix(index_t rows, index_t cols, support::Rng& rng);
Matrix random_symmetric(index_t n, support::Rng& rng);

}  // namespace lamb::la

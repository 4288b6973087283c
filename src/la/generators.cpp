#include "la/generators.hpp"

namespace lamb::la {

void fill_random(MatrixView a, support::Rng& rng) {
  for (index_t j = 0; j < a.cols(); ++j) {
    double* column = a.data() + j * a.ld();
    rng.fill_uniform({column, static_cast<std::size_t>(a.rows())}, -1.0, 1.0);
  }
}

Matrix random_matrix(index_t rows, index_t cols, support::Rng& rng) {
  Matrix m(rows, cols);
  fill_random(m.view(), rng);
  return m;
}

Matrix random_symmetric(index_t n, support::Rng& rng) {
  Matrix m(n, n);
  for (index_t j = 0; j < n; ++j) {
    // Draw the lower column run, then mirror it into row j.
    rng.fill_uniform({&m(j, j), static_cast<std::size_t>(n - j)}, -1.0, 1.0);
    for (index_t i = j + 1; i < n; ++i) {
      m(j, i) = m(i, j);
    }
  }
  return m;
}

}  // namespace lamb::la

#include "la/generators.hpp"

namespace lamb::la {

void fill_random(MatrixView a, support::Rng& rng) {
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      a(i, j) = rng.uniform(-1.0, 1.0);
    }
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
    for (index_t i = j; i < n; ++i) {
      const double v = rng.uniform(-1.0, 1.0);
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

}  // namespace lamb::la

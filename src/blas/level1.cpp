#include "blas/level1.hpp"

#include <algorithm>

namespace lamb::blas {

void scale_matrix(la::MatrixView a, double s) {
  if (s == 1.0 || a.rows() == 0) {
    return;
  }
  for (la::index_t j = 0; j < a.cols(); ++j) {
    double* col = &a(0, j);
    if (s == 0.0) {
      std::fill(col, col + a.rows(), 0.0);
    } else {
      for (la::index_t i = 0; i < a.rows(); ++i) {
        col[i] *= s;
      }
    }
  }
}

}  // namespace lamb::blas

#include "la/matrix.hpp"

#include <cmath>

namespace lamb::la {

bool approx_equal(ConstMatrixView a, ConstMatrixView b, double abs_tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return false;
  }
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      if (!(std::abs(a(i, j) - b(i, j)) <= abs_tol)) {
        return false;
      }
    }
  }
  return true;
}

Matrix transposed(ConstMatrixView a) {
  Matrix t(a.cols(), a.rows());
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      t(j, i) = a(i, j);
    }
  }
  return t;
}

}  // namespace lamb::la

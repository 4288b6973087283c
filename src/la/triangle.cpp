#include "la/triangle.hpp"

#include <cmath>

namespace lamb::la {

void symmetrize_from_lower(MatrixView a) {
  LAMB_CHECK(a.rows() == a.cols(), "symmetrize: matrix must be square");
  const index_t n = a.rows();
  for (index_t j = 1; j < n; ++j) {
    for (index_t i = 0; i < j; ++i) {
      a(i, j) = a(j, i);
    }
  }
}

bool is_symmetric(ConstMatrixView a, double abs_tol) {
  if (a.rows() != a.cols()) {
    return false;
  }
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < j; ++i) {
      if (!(std::abs(a(i, j) - a(j, i)) <= abs_tol)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace lamb::la

#include "la/norms.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lamb::la {

double frobenius_norm(ConstMatrixView a) {
  double s = 0.0;
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      s += a(i, j) * a(i, j);
    }
  }
  return std::sqrt(s);
}

double max_abs(ConstMatrixView a) {
  double m = 0.0;
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      const double x = std::abs(a(i, j));
      if (std::isnan(x)) {
        return x;  // std::max would drop it and pass every tolerance check
      }
      m = std::max(m, x);
    }
  }
  return m;
}

double max_abs_diff(ConstMatrixView a, ConstMatrixView b) {
  LAMB_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
             "max_abs_diff: shape mismatch");
  double m = 0.0;
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      const double d = std::abs(a(i, j) - b(i, j));
      if (std::isnan(d)) {
        return d;  // as in max_abs: a NaN must fail `<= tol`
      }
      m = std::max(m, d);
    }
  }
  return m;
}

double gemm_tolerance(index_t k) {
  const double eps = std::numeric_limits<double>::epsilon();
  return 32.0 * static_cast<double>(std::max<index_t>(k, 1)) * eps;
}

}  // namespace lamb::la

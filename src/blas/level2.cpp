#include "blas/level2.hpp"

#include "support/check.hpp"

namespace lamb::blas {

using la::ConstMatrixView;
using la::index_t;
using la::MatrixView;

void gemv(bool trans, double alpha, ConstMatrixView a,
          std::span<const double> x, double beta, std::span<double> y) {
  const index_t rows = trans ? a.cols() : a.rows();
  const index_t cols = trans ? a.rows() : a.cols();
  LAMB_CHECK(static_cast<index_t>(x.size()) == cols, "gemv: x length");
  LAMB_CHECK(static_cast<index_t>(y.size()) == rows, "gemv: y length");

  for (index_t i = 0; i < rows; ++i) {
    y[static_cast<std::size_t>(i)] =
        (beta == 0.0) ? 0.0 : beta * y[static_cast<std::size_t>(i)];
  }
  if (!trans) {
    // Column-major friendly: accumulate one column at a time.
    for (index_t j = 0; j < cols; ++j) {
      const double xj = alpha * x[static_cast<std::size_t>(j)];
      if (xj == 0.0) {
        continue;
      }
      for (index_t i = 0; i < rows; ++i) {
        y[static_cast<std::size_t>(i)] += a(i, j) * xj;
      }
    }
  } else {
    for (index_t i = 0; i < rows; ++i) {
      double s = 0.0;
      for (index_t j = 0; j < cols; ++j) {
        s += a(j, i) * x[static_cast<std::size_t>(j)];
      }
      y[static_cast<std::size_t>(i)] += alpha * s;
    }
  }
}

void ger(double alpha, std::span<const double> x, std::span<const double> y,
         MatrixView a) {
  LAMB_CHECK(static_cast<index_t>(x.size()) == a.rows(), "ger: x length");
  LAMB_CHECK(static_cast<index_t>(y.size()) == a.cols(), "ger: y length");
  for (index_t j = 0; j < a.cols(); ++j) {
    const double yj = alpha * y[static_cast<std::size_t>(j)];
    if (yj == 0.0) {
      continue;
    }
    for (index_t i = 0; i < a.rows(); ++i) {
      a(i, j) += x[static_cast<std::size_t>(i)] * yj;
    }
  }
}

}  // namespace lamb::blas

// Column-major dense matrix container and non-owning views.
//
// The BLAS substrate operates on (pointer, leading-dimension) views so that
// sub-blocks of a matrix can be addressed without copies, exactly like the
// reference BLAS interface. Storage is always column-major (Fortran order),
// matching the convention of the paper's kernels (MKL dgemm et al.).
#pragma once

#include <cstddef>
#include <vector>

#include "support/check.hpp"

namespace lamb::la {

using index_t = std::ptrdiff_t;

class ConstMatrixView;

/// Non-owning mutable view of a column-major block.
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(double* data, index_t rows, index_t cols, index_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    LAMB_CHECK(rows >= 0 && cols >= 0, "view dims must be non-negative");
    LAMB_CHECK(ld >= rows, "leading dimension must cover the rows");
  }

  double* data() const { return data_; }
  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t ld() const { return ld_; }

  double& operator()(index_t i, index_t j) const {
    return data_[i + j * ld_];
  }

  /// Sub-block of size (r x c) starting at (i, j).
  MatrixView block(index_t i, index_t j, index_t r, index_t c) const {
    LAMB_CHECK(i >= 0 && j >= 0 && i + r <= rows_ && j + c <= cols_,
               "block out of range");
    return {data_ + i + j * ld_, r, c, ld_};
  }

 private:
  double* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t ld_ = 0;
};

/// Non-owning read-only view of a column-major block.
class ConstMatrixView {
 public:
  ConstMatrixView() = default;
  ConstMatrixView(const double* data, index_t rows, index_t cols, index_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    LAMB_CHECK(rows >= 0 && cols >= 0, "view dims must be non-negative");
    LAMB_CHECK(ld >= rows, "leading dimension must cover the rows");
  }
  // Implicit widening from a mutable view.
  ConstMatrixView(const MatrixView& v)  // NOLINT(google-explicit-constructor)
      : data_(v.data()), rows_(v.rows()), cols_(v.cols()), ld_(v.ld()) {}

  const double* data() const { return data_; }
  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t ld() const { return ld_; }

  const double& operator()(index_t i, index_t j) const {
    return data_[i + j * ld_];
  }

  ConstMatrixView block(index_t i, index_t j, index_t r, index_t c) const {
    LAMB_CHECK(i >= 0 && j >= 0 && i + r <= rows_ && j + c <= cols_,
               "block out of range");
    return {data_ + i + j * ld_, r, c, ld_};
  }

 private:
  const double* data_ = nullptr;
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t ld_ = 0;
};

/// Owning column-major matrix. The leading dimension equals the row count.
class Matrix {
 public:
  Matrix() = default;
  Matrix(index_t rows, index_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<std::size_t>(rows * cols), fill) {
    LAMB_CHECK(rows >= 0 && cols >= 0, "matrix dims must be non-negative");
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t ld() const { return rows_; }
  bool empty() const { return data_.empty(); }
  std::size_t size() const { return data_.size(); }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  double& operator()(index_t i, index_t j) {
    LAMB_CHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_, "index out of range");
    return data_[static_cast<std::size_t>(i + j * rows_)];
  }
  const double& operator()(index_t i, index_t j) const {
    LAMB_CHECK(i >= 0 && i < rows_ && j >= 0 && j < cols_, "index out of range");
    return data_[static_cast<std::size_t>(i + j * rows_)];
  }

  MatrixView view() { return {data(), rows_, cols_, rows_}; }
  ConstMatrixView view() const { return {data(), rows_, cols_, rows_}; }
  MatrixView block(index_t i, index_t j, index_t r, index_t c) {
    return view().block(i, j, r, c);
  }
  ConstMatrixView block(index_t i, index_t j, index_t r, index_t c) const {
    return view().block(i, j, r, c);
  }

  void set_zero() { std::fill(data_.begin(), data_.end(), 0.0); }

  /// Bytes of payload (used for cache-footprint reasoning).
  std::size_t bytes() const { return data_.size() * sizeof(double); }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<double> data_;
};

/// Deep equality within an absolute tolerance; a NaN is never within it.
bool approx_equal(ConstMatrixView a, ConstMatrixView b, double abs_tol);

/// Explicit transpose copy (used by tests and the reference path).
Matrix transposed(ConstMatrixView a);

}  // namespace lamb::la

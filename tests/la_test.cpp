// Tests for dense containers, views, triangle ops, generators and norms.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "la/generators.hpp"
#include "la/matrix.hpp"
#include "la/norms.hpp"
#include "la/triangle.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace {

using namespace lamb;
using la::index_t;
using la::Matrix;

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(3, 2, 0.5);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 2);
  EXPECT_EQ(m.ld(), 3);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m(2, 1), 0.5);
  m(1, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 7.0);
}

TEST(Matrix, ColumnMajorLayout) {
  Matrix m(2, 2);
  m(0, 0) = 1;
  m(1, 0) = 2;
  m(0, 1) = 3;
  m(1, 1) = 4;
  EXPECT_DOUBLE_EQ(m.data()[0], 1);
  EXPECT_DOUBLE_EQ(m.data()[1], 2);
  EXPECT_DOUBLE_EQ(m.data()[2], 3);
  EXPECT_DOUBLE_EQ(m.data()[3], 4);
}

TEST(Matrix, OutOfRangeIndexThrows) {
  Matrix m(2, 2);
  EXPECT_THROW(m(2, 0), support::CheckError);
  EXPECT_THROW(m(0, 2), support::CheckError);
  EXPECT_THROW(m(-1, 0), support::CheckError);
}

TEST(Matrix, EmptyMatrix) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.bytes(), 0u);
}

TEST(Matrix, SetZero) {
  Matrix m(2, 2, 3.0);
  m.set_zero();
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 0.0);
}

TEST(MatrixView, BlockAddressesSubmatrix) {
  Matrix m(4, 4);
  for (index_t j = 0; j < 4; ++j) {
    for (index_t i = 0; i < 4; ++i) {
      m(i, j) = static_cast<double>(10 * i + j);
    }
  }
  const auto blk = m.block(1, 2, 2, 2);
  EXPECT_EQ(blk.rows(), 2);
  EXPECT_EQ(blk.cols(), 2);
  EXPECT_DOUBLE_EQ(blk(0, 0), 12.0);
  EXPECT_DOUBLE_EQ(blk(1, 1), 23.0);
  EXPECT_EQ(blk.ld(), 4);
}

TEST(MatrixView, BlockOutOfRangeThrows) {
  Matrix m(3, 3);
  EXPECT_THROW(m.block(2, 2, 2, 2), support::CheckError);
}

TEST(MatrixView, MutableViewWritesThrough) {
  Matrix m(3, 3, 0.0);
  auto v = m.block(0, 0, 2, 2);
  v(1, 1) = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 1), 9.0);
}

TEST(MatrixView, ConstViewFromMutable) {
  Matrix m(2, 2, 1.0);
  la::MatrixView mv = m.view();
  la::ConstMatrixView cv = mv;  // implicit widening
  EXPECT_DOUBLE_EQ(cv(0, 0), 1.0);
}

TEST(MatrixView, LdSmallerThanRowsThrows) {
  double buf[4] = {};
  EXPECT_THROW(la::MatrixView(buf, 4, 1, 2), support::CheckError);
}

TEST(Transpose, RoundTrip) {
  support::Rng rng(3);
  Matrix a = la::random_matrix(3, 5, rng);
  Matrix at = la::transposed(a.view());
  EXPECT_EQ(at.rows(), 5);
  EXPECT_EQ(at.cols(), 3);
  Matrix back = la::transposed(at.view());
  EXPECT_TRUE(la::approx_equal(a.view(), back.view(), 0.0));
}

TEST(ApproxEqual, RespectsTolerance) {
  Matrix a(2, 2, 1.0);
  Matrix b(2, 2, 1.0);
  b(0, 0) = 1.05;
  EXPECT_TRUE(la::approx_equal(a.view(), b.view(), 0.1));
  EXPECT_FALSE(la::approx_equal(a.view(), b.view(), 0.01));
}

TEST(ApproxEqual, ShapeMismatchIsFalse) {
  Matrix a(2, 2);
  Matrix b(2, 3);
  EXPECT_FALSE(la::approx_equal(a.view(), b.view(), 1.0));
}

TEST(Triangle, SymmetrizeFromLower) {
  Matrix m(3, 3, 0.0);
  m(1, 0) = 2.0;
  m(2, 0) = 3.0;
  m(2, 1) = 4.0;
  la::symmetrize_from_lower(m.view());
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 4.0);
  EXPECT_TRUE(la::is_symmetric(m.view(), 0.0));
}

TEST(Triangle, SymmetrizeRequiresSquare) {
  Matrix m(2, 3);
  EXPECT_THROW(la::symmetrize_from_lower(m.view()), support::CheckError);
}

TEST(Triangle, IsSymmetricDetectsAsymmetry) {
  Matrix m(2, 2, 1.0);
  m(0, 1) = 2.0;
  EXPECT_FALSE(la::is_symmetric(m.view(), 1e-12));
  EXPECT_TRUE(la::is_symmetric(m.view(), 10.0));
}

TEST(Generators, RandomFillInRange) {
  support::Rng rng(17);
  Matrix m = la::random_matrix(8, 8, rng);
  for (index_t j = 0; j < 8; ++j) {
    for (index_t i = 0; i < 8; ++i) {
      EXPECT_GE(m(i, j), -1.0);
      EXPECT_LT(m(i, j), 1.0);
    }
  }
}

TEST(Generators, RandomSymmetricIsSymmetric) {
  support::Rng rng(17);
  Matrix m = la::random_symmetric(9, rng);
  EXPECT_TRUE(la::is_symmetric(m.view(), 0.0));
}

TEST(Norms, Frobenius) {
  Matrix m(2, 2);
  m(0, 0) = 3.0;
  m(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(la::frobenius_norm(m.view()), 5.0);
}

TEST(Norms, MaxAbs) {
  Matrix m(2, 2, -0.5);
  m(1, 0) = -7.0;
  EXPECT_DOUBLE_EQ(la::max_abs(m.view()), 7.0);
}

TEST(Norms, MaxAbsDiff) {
  Matrix a(2, 2, 1.0);
  Matrix b(2, 2, 1.0);
  b(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(la::max_abs_diff(a.view(), b.view()), 3.0);
}

TEST(Norms, NaNIsNeverWithinTolerance) {
  // Every `max_abs_diff(...) <= tol` check relies on this: std::max(m, NaN)
  // returns m, so a fold that keeps it would read a NaN result as exact.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Matrix all_nan(3, 3, nan);
  const Matrix zeros(3, 3, 0.0);
  EXPECT_TRUE(std::isnan(la::max_abs(all_nan.view())));
  EXPECT_TRUE(std::isnan(la::max_abs_diff(all_nan.view(), zeros.view())));
  EXPECT_TRUE(std::isnan(la::max_abs_diff(zeros.view(), all_nan.view())));
  EXPECT_FALSE(la::approx_equal(all_nan.view(), zeros.view(), 1.0));

  // One NaN among finite values, in the middle of the fold, is not lost to
  // a larger value after it.
  Matrix one_nan(3, 3, 1.0);
  one_nan(1, 1) = nan;
  one_nan(2, 2) = 5.0;
  EXPECT_TRUE(std::isnan(la::max_abs(one_nan.view())));
  EXPECT_TRUE(std::isnan(la::max_abs_diff(one_nan.view(), zeros.view())));
  EXPECT_FALSE(la::approx_equal(one_nan.view(), zeros.view(), 10.0));

  Matrix symmetric_but_nan(3, 3, 1.0);
  symmetric_but_nan(2, 0) = nan;
  symmetric_but_nan(0, 2) = nan;
  EXPECT_FALSE(la::is_symmetric(symmetric_but_nan.view(), 1.0));
}

TEST(Norms, GemmToleranceGrowsWithK) {
  EXPECT_GT(la::gemm_tolerance(1000), la::gemm_tolerance(10));
  EXPECT_GT(la::gemm_tolerance(0), 0.0);
}

}  // namespace

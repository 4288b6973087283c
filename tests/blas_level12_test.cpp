// Level-2 BLAS correctness.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "blas/level2.hpp"
#include "blas/ref_blas.hpp"
#include "la/generators.hpp"
#include "la/norms.hpp"
#include "support/rng.hpp"

namespace {

using namespace lamb;
using la::index_t;
using la::Matrix;

std::vector<double> random_vector(std::size_t n, support::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.uniform(-1.0, 1.0);
  }
  return v;
}

TEST(Level2, GemvMatchesRefGemm) {
  support::Rng rng(1);
  const Matrix a = la::random_matrix(13, 7, rng);
  for (const bool trans : {false, true}) {
    const std::size_t xn = trans ? 13u : 7u;
    const std::size_t yn = trans ? 7u : 13u;
    const std::vector<double> x = random_vector(xn, rng);
    std::vector<double> y = random_vector(yn, rng);
    std::vector<double> y_ref = y;

    blas::gemv(trans, 1.5, a.view(), x, 0.5, y);

    // Reference through ref_gemm with x as an n x 1 matrix.
    la::ConstMatrixView xv(x.data(), static_cast<index_t>(xn), 1,
                           static_cast<index_t>(xn));
    la::MatrixView yv(y_ref.data(), static_cast<index_t>(yn), 1,
                      static_cast<index_t>(yn));
    blas::ref_gemm(trans, false, 1.5, a.view(), xv, 0.5, yv);
    for (std::size_t i = 0; i < yn; ++i) {
      EXPECT_NEAR(y[i], y_ref[i], 1e-13) << "trans=" << trans << " i=" << i;
    }
  }
}

TEST(Level2, GemvBetaZeroOverwrites) {
  support::Rng rng(2);
  const Matrix a = la::random_matrix(4, 4, rng);
  const std::vector<double> x = random_vector(4, rng);
  std::vector<double> y = {1e300, 1e300, 1e300, 1e300};
  blas::gemv(false, 1.0, a.view(), x, 0.0, y);
  for (double v : y) {
    EXPECT_LT(std::abs(v), 100.0);
  }
}

TEST(Level2, GerRankOneUpdate) {
  support::Rng rng(3);
  Matrix a(5, 4, 0.0);
  const std::vector<double> x = random_vector(5, rng);
  const std::vector<double> y = random_vector(4, rng);
  blas::ger(2.0, x, y, a.view());
  for (index_t i = 0; i < 5; ++i) {
    for (index_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(a(i, j),
                  2.0 * x[static_cast<std::size_t>(i)] *
                      y[static_cast<std::size_t>(j)],
                  1e-15);
    }
  }
}

TEST(Level2, IntroExampleFlopArgument) {
  // Paper Sec. 1: for n x n A and n-vectors x, y, evaluating (x*y^T)*A
  // costs ~2n^3 FLOPs (GER + GEMM) while x*(y^T*A) costs ~4n^2 (two GEMVs).
  // Verify both give the same result; the FLOP gap is the whole point.
  support::Rng rng(8);
  const index_t n = 40;
  const Matrix a = la::random_matrix(n, n, rng);
  const std::vector<double> x = random_vector(static_cast<std::size_t>(n), rng);
  const std::vector<double> y = random_vector(static_cast<std::size_t>(n), rng);

  // Cheap order: t := A^T y (row vector y^T A), then outer scale via GER.
  std::vector<double> t(static_cast<std::size_t>(n), 0.0);
  blas::gemv(/*trans=*/true, 1.0, a.view(), y, 0.0, t);
  Matrix cheap(n, n, 0.0);
  blas::ger(1.0, x, t, cheap.view());

  // Expensive order: M := x*y^T, then M*A.
  Matrix outer(n, n, 0.0);
  blas::ger(1.0, x, y, outer.view());
  Matrix expensive(n, n);
  blas::ref_gemm(false, false, 1.0, outer.view(), a.view(), 0.0,
                 expensive.view());

  EXPECT_LE(la::max_abs_diff(cheap.view(), expensive.view()),
            la::gemm_tolerance(n) * 10);
}

}  // namespace

// SYRK and SYMM correctness against the references, including the
// lower-triangle-only storage semantics both kernels rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/microkernel.hpp"
#include "blas/ref_blas.hpp"
#include "blas/symm.hpp"
#include "blas/syrk.hpp"
#include "la/generators.hpp"
#include "la/norms.hpp"
#include "la/triangle.hpp"
#include "support/rng.hpp"

namespace {

using namespace lamb;
using la::index_t;
using la::Matrix;

double lower_max_abs_diff(const Matrix& a, const Matrix& b) {
  double m = 0.0;
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = j; i < a.rows(); ++i) {
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// SYRK shape sweep (n spans the mc = 128 row block; k spans small to big and
// the kc = 256 slab).
// ---------------------------------------------------------------------------
class SyrkShapeTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SyrkShapeTest, LowerTriangleMatchesReference) {
  const auto [n, k] = GetParam();
  support::Rng rng(static_cast<std::uint64_t>(n * 2654435761u + k));
  const Matrix a = la::random_matrix(n, k, rng);
  Matrix c(n, n);
  Matrix c_ref(n, n);
  blas::syrk(1.0, a.view(), 0.0, c.view());
  blas::ref_syrk(1.0, a.view(), 0.0, c_ref.view());
  EXPECT_LE(lower_max_abs_diff(c, c_ref), la::gemm_tolerance(k))
      << "n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, SyrkShapeTest,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(5, 7),
                      std::make_tuple(16, 16), std::make_tuple(64, 10),
                      std::make_tuple(96, 96), std::make_tuple(97, 40),
                      std::make_tuple(128, 64), std::make_tuple(150, 200),
                      std::make_tuple(200, 3), std::make_tuple(250, 128),
                      std::make_tuple(33, 257), std::make_tuple(129, 257),
                      std::make_tuple(8, 300)));

TEST(Syrk, DoesNotTouchStrictUpperTriangle) {
  support::Rng rng(3);
  const Matrix a = la::random_matrix(120, 40, rng);
  Matrix c(120, 120, 777.0);  // poison everything
  blas::syrk(1.0, a.view(), 0.0, c.view());
  // Strict upper must still hold the poison value.
  for (index_t j = 1; j < 120; ++j) {
    for (index_t i = 0; i < j; ++i) {
      ASSERT_DOUBLE_EQ(c(i, j), 777.0) << "(" << i << "," << j << ")";
    }
  }
}

TEST(Syrk, BetaAccumulates) {
  support::Rng rng(4);
  const Matrix a = la::random_matrix(100, 30, rng);
  Matrix c(100, 100, 1.0);
  Matrix c_ref(100, 100, 1.0);
  blas::syrk(0.5, a.view(), 2.0, c.view());
  blas::ref_syrk(0.5, a.view(), 2.0, c_ref.view());
  EXPECT_LE(lower_max_abs_diff(c, c_ref), la::gemm_tolerance(30));
}

TEST(Syrk, ResultIsConsistentWithGemm) {
  // lower(A A^T) must equal the lower triangle of the full GEMM product.
  support::Rng rng(5);
  const Matrix a = la::random_matrix(130, 50, rng);
  Matrix c(130, 130);
  blas::syrk(1.0, a.view(), 0.0, c.view());
  Matrix full(130, 130);
  blas::gemm(false, true, 1.0, a.view(), a.view(), 0.0, full.view());
  EXPECT_LE(lower_max_abs_diff(c, full), la::gemm_tolerance(50));
}

TEST(Syrk, RectangularCThrows) {
  Matrix a(4, 3);
  Matrix c(4, 5);
  EXPECT_THROW(blas::syrk(1.0, a.view(), 0.0, c.view()),
               support::CheckError);
}

TEST(Syrk, EmptyIsNoOp) {
  Matrix a(0, 0);
  Matrix c(0, 0);
  EXPECT_NO_THROW(blas::syrk(1.0, a.view(), 0.0, c.view()));
}

// ---------------------------------------------------------------------------
// SYMM shape sweep.
// ---------------------------------------------------------------------------
class SymmShapeTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SymmShapeTest, MatchesReference) {
  const auto [m, n] = GetParam();
  support::Rng rng(static_cast<std::uint64_t>(m * 40503u + n));
  const Matrix a = la::random_symmetric(m, rng);
  const Matrix b = la::random_matrix(m, n, rng);
  Matrix c(m, n);
  Matrix c_ref(m, n);
  blas::symm(1.0, a.view(), b.view(), 0.0, c.view());
  blas::ref_symm(1.0, a.view(), b.view(), 0.0, c_ref.view());
  EXPECT_LE(la::max_abs_diff(c.view(), c_ref.view()), la::gemm_tolerance(m))
      << "m=" << m << " n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, SymmShapeTest,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(7, 5),
                      std::make_tuple(16, 64), std::make_tuple(96, 10),
                      std::make_tuple(97, 97), std::make_tuple(128, 30),
                      std::make_tuple(150, 120), std::make_tuple(200, 1),
                      std::make_tuple(250, 64), std::make_tuple(64, 250),
                      std::make_tuple(4, 20), std::make_tuple(257, 9)));

TEST(Symm, ReadsOnlyTheLowerTriangle) {
  // Poison the strictly-upper triangle; the result must be unaffected.
  support::Rng rng(6);
  Matrix a = la::random_symmetric(140, rng);
  const Matrix b = la::random_matrix(140, 60, rng);
  Matrix c_clean(140, 60);
  blas::symm(1.0, a.view(), b.view(), 0.0, c_clean.view());

  for (index_t j = 1; j < 140; ++j) {
    for (index_t i = 0; i < j; ++i) {
      a(i, j) = 1.0e9;  // garbage in the upper triangle
    }
  }
  Matrix c_poisoned(140, 60);
  blas::symm(1.0, a.view(), b.view(), 0.0, c_poisoned.view());
  EXPECT_TRUE(la::approx_equal(c_clean.view(), c_poisoned.view(), 0.0));
}

TEST(Symm, EquivalentToGemmOnSymmetrizedMatrix) {
  support::Rng rng(7);
  const Matrix a = la::random_symmetric(170, rng);
  const Matrix b = la::random_matrix(170, 90, rng);
  Matrix via_symm(170, 90);
  blas::symm(1.0, a.view(), b.view(), 0.0, via_symm.view());
  Matrix via_gemm(170, 90);
  blas::gemm(false, false, 1.0, a.view(), b.view(), 0.0, via_gemm.view());
  EXPECT_LE(la::max_abs_diff(via_symm.view(), via_gemm.view()),
            la::gemm_tolerance(170));
}

TEST(Symm, BetaAccumulates) {
  support::Rng rng(8);
  const Matrix a = la::random_symmetric(110, rng);
  const Matrix b = la::random_matrix(110, 40, rng);
  Matrix c(110, 40, 3.0);
  Matrix c_ref(110, 40, 3.0);
  blas::symm(-0.5, a.view(), b.view(), 1.5, c.view());
  blas::ref_symm(-0.5, a.view(), b.view(), 1.5, c_ref.view());
  EXPECT_LE(la::max_abs_diff(c.view(), c_ref.view()), la::gemm_tolerance(110));
}

TEST(Symm, NonSquareAThrows) {
  Matrix a(4, 5);
  Matrix b(4, 3);
  Matrix c(4, 3);
  EXPECT_THROW(blas::symm(1.0, a.view(), b.view(), 0.0, c.view()),
               support::CheckError);
}

TEST(Symm, BShapeMismatchThrows) {
  Matrix a(4, 4);
  Matrix b(5, 3);
  Matrix c(4, 3);
  EXPECT_THROW(blas::symm(1.0, a.view(), b.view(), 0.0, c.view()),
               support::CheckError);
}

TEST(Symm, ParallelPoolMatchesSerial) {
  support::Rng rng(12);
  const Matrix a = la::random_symmetric(150, rng);
  const Matrix b = la::random_matrix(150, 100, rng);
  Matrix serial(150, 100);
  blas::symm(1.0, a.view(), b.view(), 0.0, serial.view());
  parallel::ThreadPool pool(3);
  blas::GemmOptions opts;
  opts.pool = &pool;
  Matrix par(150, 100);
  blas::symm(1.0, a.view(), b.view(), 0.0, par.view(), opts);
  EXPECT_TRUE(la::approx_equal(serial.view(), par.view(), 1e-12));
}

TEST(Syrk, ParallelPoolMatchesSerial) {
  support::Rng rng(13);
  const Matrix a = la::random_matrix(180, 70, rng);
  Matrix serial(180, 180);
  blas::syrk(1.0, a.view(), 0.0, serial.view());
  parallel::ThreadPool pool(3);
  blas::GemmOptions opts;
  opts.pool = &pool;
  Matrix par(180, 180);
  blas::syrk(1.0, a.view(), 0.0, par.view(), opts);
  EXPECT_LE(lower_max_abs_diff(serial, par), 1e-12);
}

// ---------------------------------------------------------------------------
// Every microkernel tier, as KernelAgreementTest does for GEMM. Operands are
// sub-block views (ld > rows) of larger matrices whose frame holds a poison
// value, as do C's strict upper triangle for SYRK and A's strict upper
// triangle for SYMM (NaN there, so a single read shows in C).
// ---------------------------------------------------------------------------

constexpr double kPoison = 777.0;

/// `rows x cols` random values at (2, 1) of a matrix with ld = rows + 3
/// whose frame holds kPoison.
Matrix framed_random(index_t rows, index_t cols, support::Rng& rng) {
  Matrix m(rows + 3, cols + 2, kPoison);
  const Matrix values = la::random_matrix(rows, cols, rng);
  for (index_t j = 0; j < cols; ++j) {
    for (index_t i = 0; i < rows; ++i) {
      m(i + 2, j + 1) = values(i, j);
    }
  }
  return m;
}

la::MatrixView inner(Matrix& m) {
  return m.block(2, 1, m.rows() - 3, m.cols() - 2);
}

Matrix copy_inner(Matrix& m) {
  const la::MatrixView v = inner(m);
  Matrix out(v.rows(), v.cols());
  for (index_t j = 0; j < v.cols(); ++j) {
    for (index_t i = 0; i < v.rows(); ++i) {
      out(i, j) = v(i, j);
    }
  }
  return out;
}

/// Elements of `got` (its lower triangle only with `lower`) farther than
/// `tol` from `want`; a NaN counts as far.
index_t count_far(const Matrix& got, const Matrix& want, double tol,
                  bool lower) {
  index_t far = 0;
  for (index_t j = 0; j < got.cols(); ++j) {
    for (index_t i = lower ? j : 0; i < got.rows(); ++i) {
      far += !(std::abs(got(i, j) - want(i, j)) <= tol) ? 1 : 0;
    }
  }
  return far;
}

bool frame_intact(const Matrix& m) {
  for (index_t j = 0; j < m.cols(); ++j) {
    for (index_t i = 0; i < m.rows(); ++i) {
      const bool in_frame =
          i < 2 || i >= m.rows() - 1 || j < 1 || j >= m.cols() - 1;
      if (in_frame && m(i, j) != kPoison) {
        return false;
      }
    }
  }
  return true;
}

struct TierCase {
  index_t rows;   ///< SYRK n, SYMM m
  index_t depth;  ///< SYRK k, SYMM n
  double alpha;
  double beta;
  bool small_blocks = false;  ///< mc, kc, nc of a few micro-tiles
  bool pooled = false;
};

std::vector<TierCase> tier_cases(const blas::Microkernel& mk) {
  std::vector<TierCase> cases;
  // Diagonal-crossing micro-tiles at this tier's mr x nr.
  for (const index_t n : {mk.mr - 1, mk.mr, mk.mr + 1, mk.nr + 1,
                          2 * mk.mr + mk.nr + 3}) {
    cases.push_back({n, 37, 1.0, 0.0});
  }
  cases.push_back({127, 40, 1.0, 0.0});  // n across mc = 128
  cases.push_back({128, 40, 1.0, 0.0});
  cases.push_back({130, 40, 1.0, 0.0});
  cases.push_back({33, 255, 1.0, 0.0});  // k across kc = 256
  cases.push_back({33, 256, 1.0, 0.0});
  cases.push_back({33, 257, 1.0, 0.0});
  cases.push_back({257, 20, 1.0, 0.0});  // SYMM's k = m across kc
  cases.push_back({20, 0, 1.0, 0.5});    // k = 0: C := beta C
  cases.push_back({20, 10, 0.0, 2.0});   // alpha = 0
  cases.push_back({6, 3, 1.5, 0.5});     // naive
  cases.push_back({50, 3, 1.5, 0.5});    // small-k
  cases.push_back({70, 64, -1.0, 1.0});  // alpha = -1, beta = 1
  cases.push_back({130, 257, -1.0, 1.0});
  cases.push_back({45, 19, 2.5, -0.5});  // fused scale-and-add store
  cases.push_back({50, 40, 1.0, 0.5, /*small_blocks=*/true});
  cases.push_back({300, 8, 1.0, 0.5, false, /*pooled=*/true});
  cases.push_back({90, 70, 1.0, 0.5, false, /*pooled=*/true});
  return cases;
}

class Level3TierTest
    : public ::testing::TestWithParam<const blas::Microkernel*> {
 protected:
  void SetUp() override { blas::force_microkernel(GetParam()); }
  void TearDown() override { blas::force_microkernel(nullptr); }

  blas::GemmOptions options(const TierCase& tc) {
    blas::GemmOptions opts;
    if (tc.small_blocks) {
      opts.blocks.mc = 2 * GetParam()->mr;
      opts.blocks.kc = 16;
      opts.blocks.nc = 3 * GetParam()->nr;
    }
    if (tc.pooled) {
      opts.pool = &pool_;
    }
    return opts;
  }

  parallel::ThreadPool pool_{3};
};

TEST_P(Level3TierTest, SyrkMatchesReferenceAndKeepsUpperTriangle) {
  for (const TierCase& tc : tier_cases(*GetParam())) {
    const index_t n = tc.rows;
    support::Rng rng(static_cast<std::uint64_t>(n * 131 + tc.depth));
    Matrix a = framed_random(n, tc.depth, rng);
    Matrix c = framed_random(n, n, rng);
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < j; ++i) {
        inner(c)(i, j) = kPoison;
      }
    }
    Matrix want = copy_inner(c);
    blas::ref_syrk(tc.alpha, inner(a), tc.beta, want.view());
    blas::syrk(tc.alpha, inner(a), tc.beta, inner(c), options(tc));

    const double tol = la::gemm_tolerance(tc.depth) *
                       (1.0 + std::abs(tc.alpha) + std::abs(tc.beta));
    const std::string where = std::string(GetParam()->name) +
                              " n=" + std::to_string(n) +
                              " k=" + std::to_string(tc.depth);
    EXPECT_EQ(count_far(copy_inner(c), want, tol, /*lower=*/true), 0)
        << where;
    bool upper_kept = true;
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < j; ++i) {
        upper_kept = upper_kept && inner(c)(i, j) == kPoison;
      }
    }
    EXPECT_TRUE(upper_kept) << where;
    EXPECT_TRUE(frame_intact(c)) << where;
  }
}

TEST_P(Level3TierTest, SymmMatchesReferenceAndReadsOnlyLowerA) {
  for (const TierCase& tc : tier_cases(*GetParam())) {
    const index_t m = tc.rows;
    const index_t n = tc.depth;
    support::Rng rng(static_cast<std::uint64_t>(m * 137 + n));
    Matrix a = framed_random(m, m, rng);
    for (index_t j = 0; j < m; ++j) {
      for (index_t i = 0; i < j; ++i) {
        inner(a)(i, j) = std::numeric_limits<double>::quiet_NaN();
      }
    }
    Matrix b = framed_random(m, n, rng);
    Matrix c = framed_random(m, n, rng);
    Matrix want = copy_inner(c);
    blas::ref_symm(tc.alpha, inner(a), inner(b), tc.beta, want.view());
    blas::symm(tc.alpha, inner(a), inner(b), tc.beta, inner(c), options(tc));

    const double tol = la::gemm_tolerance(m) *
                       (1.0 + std::abs(tc.alpha) + std::abs(tc.beta));
    EXPECT_EQ(count_far(copy_inner(c), want, tol, /*lower=*/false), 0)
        << GetParam()->name << " m=" << m << " n=" << n;
    EXPECT_TRUE(frame_intact(c)) << GetParam()->name << " m=" << m
                                 << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTiers, Level3TierTest,
    ::testing::ValuesIn(blas::available_microkernels()),
    [](const ::testing::TestParamInfo<const blas::Microkernel*>& info) {
      return std::string(info.param->name);
    });

}  // namespace

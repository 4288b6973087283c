// GEMM correctness: the optimised kernel against the naive reference over a
// broad parameterized sweep of shapes, transposes, scalars, sub-blocks and
// thread counts.
#include <gtest/gtest.h>

#include <limits>
#include <tuple>

#include "blas/gemm.hpp"
#include "blas/microkernel.hpp"
#include "blas/ref_blas.hpp"
#include "blas/variant.hpp"
#include "la/generators.hpp"
#include "la/norms.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace {

using namespace lamb;
using la::index_t;
using la::Matrix;

Matrix reference_product(bool ta, bool tb, const Matrix& a, const Matrix& b,
                         index_t m, index_t n) {
  Matrix c(m, n);
  blas::ref_gemm(ta, tb, 1.0, a.view(), b.view(), 0.0, c.view());
  return c;
}

// ---------------------------------------------------------------------------
// Shape sweep: every (m, n, k) combination from a set spanning the kernel's
// variant thresholds (naive <= 32, small-k <= 24, blocked) and the microkernel
// edges (MR = 4, NR = 8 remainders).
// ---------------------------------------------------------------------------
class GemmShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapeTest, MatchesReferenceAllTransposeCombos) {
  const auto [m, n, k] = GetParam();
  // Seed mixing in 64 bits: the products overflow (UB) in int arithmetic.
  support::Rng rng((static_cast<std::uint64_t>(m) * 73856093u) ^
                   (static_cast<std::uint64_t>(n) * 19349663u) ^
                   (static_cast<std::uint64_t>(k) * 83492791u));
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      const Matrix a = ta ? la::random_matrix(k, m, rng)
                          : la::random_matrix(m, k, rng);
      const Matrix b = tb ? la::random_matrix(n, k, rng)
                          : la::random_matrix(k, n, rng);
      Matrix c(m, n);
      blas::gemm(ta, tb, 1.0, a.view(), b.view(), 0.0, c.view());
      const Matrix expected = reference_product(ta, tb, a, b, m, n);
      EXPECT_LE(la::max_abs_diff(c.view(), expected.view()),
                la::gemm_tolerance(k))
          << "m=" << m << " n=" << n << " k=" << k << " ta=" << ta
          << " tb=" << tb;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, GemmShapeTest,
    ::testing::Values(
        // Tiny (naive variant).
        std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
        std::make_tuple(8, 8, 8), std::make_tuple(32, 32, 32),
        // Small-k variant (k <= 24, larger m/n).
        std::make_tuple(64, 64, 1), std::make_tuple(100, 50, 8),
        std::make_tuple(50, 100, 24), std::make_tuple(37, 41, 16),
        // Blocked variant with microkernel-edge remainders.
        std::make_tuple(33, 33, 33), std::make_tuple(64, 64, 64),
        std::make_tuple(65, 63, 66), std::make_tuple(100, 100, 100),
        std::make_tuple(127, 129, 128), std::make_tuple(130, 40, 70),
        std::make_tuple(40, 130, 70), std::make_tuple(70, 40, 130),
        // Skinny shapes.
        std::make_tuple(1, 200, 64), std::make_tuple(200, 1, 64),
        std::make_tuple(64, 64, 200), std::make_tuple(3, 5, 300),
        std::make_tuple(300, 5, 3), std::make_tuple(5, 300, 40),
        // Larger, spanning multiple cache blocks.
        std::make_tuple(150, 260, 300), std::make_tuple(260, 150, 300)));

// ---------------------------------------------------------------------------
// alpha/beta sweep.
// ---------------------------------------------------------------------------
class GemmAlphaBetaTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(GemmAlphaBetaTest, ScalarsHandled) {
  const auto [alpha, beta] = GetParam();
  support::Rng rng(55);
  const index_t m = 70;
  const index_t n = 50;
  const index_t k = 60;
  const Matrix a = la::random_matrix(m, k, rng);
  const Matrix b = la::random_matrix(k, n, rng);
  Matrix c = la::random_matrix(m, n, rng);
  Matrix c_ref = c;
  blas::gemm(false, false, alpha, a.view(), b.view(), beta, c.view());
  blas::ref_gemm(false, false, alpha, a.view(), b.view(), beta, c_ref.view());
  EXPECT_LE(la::max_abs_diff(c.view(), c_ref.view()),
            la::gemm_tolerance(k) * (1.0 + std::abs(alpha) + std::abs(beta)));
}

INSTANTIATE_TEST_SUITE_P(
    Scalars, GemmAlphaBetaTest,
    ::testing::Values(std::make_tuple(1.0, 0.0), std::make_tuple(1.0, 1.0),
                      std::make_tuple(-1.0, 0.5), std::make_tuple(2.5, -1.5),
                      std::make_tuple(0.0, 2.0), std::make_tuple(0.0, 0.0)));

TEST(Gemm, BetaZeroOverwritesStaleContent) {
  // beta = 0 must overwrite even NaN-free garbage deterministically.
  support::Rng rng(1);
  const Matrix a = la::random_matrix(40, 40, rng);
  const Matrix b = la::random_matrix(40, 40, rng);
  Matrix c(40, 40, 1.0e300);
  blas::gemm(false, false, 1.0, a.view(), b.view(), 0.0, c.view());
  EXPECT_LT(la::max_abs(c.view()), 1.0e3);
}

TEST(Gemm, AlphaZeroOnlyScalesC) {
  support::Rng rng(2);
  const Matrix a = la::random_matrix(50, 20, rng);
  const Matrix b = la::random_matrix(20, 30, rng);
  Matrix c(50, 30, 2.0);
  blas::gemm(false, false, 0.0, a.view(), b.view(), 0.5, c.view());
  EXPECT_NEAR(c(10, 10), 1.0, 1e-15);
}

TEST(Gemm, ZeroSizedDimensionsAreNoOps) {
  Matrix a(0, 5);
  Matrix b(5, 4);
  Matrix c(0, 4);
  EXPECT_NO_THROW(
      blas::gemm(false, false, 1.0, a.view(), b.view(), 0.0, c.view()));
  Matrix a2(4, 0);
  Matrix b2(0, 3);
  Matrix c2(4, 3, 5.0);
  blas::gemm(false, false, 1.0, a2.view(), b2.view(), 0.0, c2.view());
  EXPECT_DOUBLE_EQ(c2(0, 0), 0.0);  // k = 0 with beta = 0 zeroes C
}

TEST(Gemm, ShapeMismatchThrows) {
  Matrix a(4, 5);
  Matrix b(6, 3);  // inner dim mismatch
  Matrix c(4, 3);
  EXPECT_THROW(
      blas::gemm(false, false, 1.0, a.view(), b.view(), 0.0, c.view()),
      support::CheckError);
}

TEST(Gemm, OperatesOnSubBlocks) {
  support::Rng rng(9);
  Matrix big_a = la::random_matrix(100, 100, rng);
  Matrix big_b = la::random_matrix(100, 100, rng);
  Matrix big_c(100, 100);
  const auto a = big_a.block(10, 20, 60, 50);
  const auto b = big_b.block(5, 5, 50, 40);
  auto c = big_c.block(0, 0, 60, 40);
  blas::gemm(false, false, 1.0, a, b, 0.0, c);

  Matrix c_ref(60, 40);
  blas::ref_gemm(false, false, 1.0, a, b, 0.0, c_ref.view());
  EXPECT_LE(la::max_abs_diff(c, c_ref.view()), la::gemm_tolerance(50));
}

TEST(GemmStripes, ExactlyCoverAdversarialRanges) {
  using blas::kNR;
  for (const index_t workers : {1, 2, 3, 5, 8, 16}) {
    for (const index_t n :
         {index_t{1}, kNR - 1, kNR, kNR + 1, 2 * kNR + 1, 7 * kNR + 1,
          8 * kNR - 1, 8 * kNR, 8 * kNR + 1, 16 * kNR + 1, index_t{1000}}) {
      const auto stripes = blas::partition_column_stripes(n, workers);
      const index_t blocks = (n + kNR - 1) / kNR;
      ASSERT_EQ(static_cast<index_t>(stripes.size()),
                std::min(workers, blocks))
          << "n=" << n << " workers=" << workers;
      index_t cursor = 0;
      index_t narrowest = n;
      index_t widest = 0;
      for (const blas::ColumnStripe& stripe : stripes) {
        ASSERT_EQ(stripe.begin, cursor) << "n=" << n << " workers=" << workers;
        ASSERT_LT(stripe.begin, stripe.end)  // no empty stripes, ever
            << "n=" << n << " workers=" << workers;
        ASSERT_EQ(stripe.begin % kNR, 0)     // panel-aligned starts
            << "n=" << n << " workers=" << workers;
        narrowest = std::min(narrowest, stripe.end - stripe.begin);
        widest = std::max(widest, stripe.end - stripe.begin);
        cursor = stripe.end;
      }
      ASSERT_EQ(cursor, n) << "n=" << n << " workers=" << workers;  // covers [0, n)
      EXPECT_LE(widest - narrowest, kNR)
          << "unbalanced: n=" << n << " workers=" << workers;
    }
  }
}

TEST(GemmStripes, RegressionRoundingUpNoLongerStarvesTrailingWorkers) {
  using blas::kNR;
  // n just above a stripe multiple: 8 workers, 65 columns. The old
  // round-up-to-kNR split gave the first worker 16 columns and workers
  // 5..7 nothing; the balanced split hands every worker one 8-column
  // panel and the 1-column remainder panel to the last.
  const auto stripes = blas::partition_column_stripes(8 * kNR + 1, 8);
  ASSERT_EQ(stripes.size(), 8u);
  for (const blas::ColumnStripe& stripe : stripes) {
    EXPECT_GT(stripe.end, stripe.begin);
    EXPECT_LE(stripe.end - stripe.begin, 2 * kNR);
  }
  EXPECT_EQ(stripes.back().end, 8 * kNR + 1);
}

TEST(GemmStripes, DegenerateRanges) {
  EXPECT_TRUE(blas::partition_column_stripes(0, 4).empty());
  const auto one = blas::partition_column_stripes(3, 4);
  ASSERT_EQ(one.size(), 1u);  // a single partial panel: one stripe only
  EXPECT_EQ(one.front(), (blas::ColumnStripe{0, 3}));
  EXPECT_THROW(blas::partition_column_stripes(8, 0), support::CheckError);
  EXPECT_THROW(blas::partition_column_stripes(-1, 2), support::CheckError);
}

TEST(Gemm, ParallelMatchesSerialOnStripeAdversarialWidths) {
  support::Rng rng(77);
  const index_t m = 96;
  const index_t k = 64;
  for (const index_t n : {blas::kNR * 8 + 1, blas::kNR * 5 - 1, blas::kNR * 2 + 3}) {
    const Matrix a = la::random_matrix(m, k, rng);
    const Matrix b = la::random_matrix(k, n, rng);
    Matrix c_serial(m, n);
    blas::gemm(false, false, 1.0, a.view(), b.view(), 0.0, c_serial.view());
    for (const std::size_t threads : {4u, 8u}) {
      parallel::ThreadPool pool(threads);
      blas::GemmOptions opts;
      opts.pool = &pool;
      Matrix c_par(m, n);
      blas::gemm(false, false, 1.0, a.view(), b.view(), 0.0, c_par.view(),
                 opts);
      EXPECT_TRUE(la::approx_equal(c_serial.view(), c_par.view(), 1e-12))
          << "threads=" << threads << " n=" << n;
    }
  }
}

TEST(GemmParallelMode, PicksRowBlocksOnlyForTallSkinnyShapes) {
  using blas::GemmParallelMode;
  const blas::BlockSizes bs;  // mc = 128
  const index_t nr = 8;
  // One participant: always serial.
  EXPECT_EQ(blas::select_gemm_parallel_mode(4096, 4096, 1, bs, nr),
            GemmParallelMode::kSerial);
  // Wide n: a stripe per worker exists, columns win.
  EXPECT_EQ(blas::select_gemm_parallel_mode(256, 1024, 8, bs, nr),
            GemmParallelMode::kColumnStripes);
  // Tall and skinny (n = one panel, m = many mc blocks): rows win.
  EXPECT_EQ(blas::select_gemm_parallel_mode(4096, 8, 8, bs, nr),
            GemmParallelMode::kRowBlocks);
  // Narrow n with as few row blocks as stripes: columns win (cheaper split).
  EXPECT_EQ(blas::select_gemm_parallel_mode(200, 3 * nr, 8, bs, nr),
            GemmParallelMode::kColumnStripes);
  // Single stripe AND single row block: nothing to split.
  EXPECT_EQ(blas::select_gemm_parallel_mode(100, 8, 8, bs, nr),
            GemmParallelMode::kSerial);
}

TEST(Gemm, RowBlockParallelMatchesSerialOnTallSkinnyShapes) {
  // Shapes chosen so select_gemm_parallel_mode picks kRowBlocks: n too
  // narrow for one stripe per worker, m spanning many mc row blocks (small
  // custom mc keeps the test fast). Includes beta != 0 so the shared-B
  // row path exercises the beta fold too.
  support::Rng rng(91);
  blas::BlockSizes bs;
  bs.mc = 32;
  bs.kc = 48;
  for (const index_t n : {index_t{8}, index_t{17}}) {
    const index_t m = 512;
    const index_t k = 100;  // > bs.kc: several pc slabs share packed B
    const Matrix a = la::random_matrix(m, k, rng);
    const Matrix b = la::random_matrix(k, n, rng);
    const Matrix c0 = la::random_matrix(m, n, rng);
    Matrix c_serial = c0;
    blas::GemmOptions serial_opts;
    serial_opts.blocks = bs;
    blas::gemm(false, false, 1.5, a.view(), b.view(), -0.5, c_serial.view(),
               serial_opts);
    for (const std::size_t threads : {4u, 8u}) {
      parallel::ThreadPool pool(threads);
      ASSERT_EQ(blas::select_gemm_parallel_mode(m, n, pool.size(), bs,
                                                blas::active_microkernel().nr),
                blas::GemmParallelMode::kRowBlocks);
      blas::GemmOptions opts;
      opts.blocks = bs;
      opts.pool = &pool;
      Matrix c_par = c0;
      blas::gemm(false, false, 1.5, a.view(), b.view(), -0.5, c_par.view(),
                 opts);
      EXPECT_TRUE(la::approx_equal(c_serial.view(), c_par.view(), 1e-12))
          << "threads=" << threads << " n=" << n;
    }
  }
}

TEST(Gemm, BetaFoldMatchesReferenceAcrossKcSlabs) {
  // The blocked path folds beta into the first kc slab's store instead of
  // pre-scaling C; with several slabs (k > kc) every later slab must
  // accumulate. Tiny custom kc straddles the slab boundary cheaply.
  support::Rng rng(17);
  blas::BlockSizes bs;
  bs.kc = 16;
  const index_t m = 64;
  const index_t n = 48;
  for (const index_t k : {index_t{15}, index_t{16}, index_t{17}, index_t{70}}) {
    const Matrix a = la::random_matrix(m, k, rng);
    const Matrix b = la::random_matrix(k, n, rng);
    for (const double beta : {0.0, 1.0, -0.75}) {
      Matrix c = la::random_matrix(m, n, rng);
      Matrix c_ref = c;
      blas::GemmOptions opts;
      opts.blocks = bs;
      opts.force_variant = blas::GemmVariant::kBlocked;
      blas::gemm(false, false, 2.0, a.view(), b.view(), beta, c.view(), opts);
      blas::ref_gemm(false, false, 2.0, a.view(), b.view(), beta,
                     c_ref.view());
      EXPECT_LE(la::max_abs_diff(c.view(), c_ref.view()),
                la::gemm_tolerance(k) * 4.0)
          << "k=" << k << " beta=" << beta;
    }
  }
}

TEST(Gemm, BetaZeroOverwritesNaNOnEveryRoute) {
  // beta = 0 is a pure store: NaN garbage in C must not leak through (NaN * 0
  // would) on any variant, nor on the alpha = 0 route that only scales C.
  support::Rng rng(3);
  const index_t m = 70;
  const index_t n = 40;
  const index_t k = 50;
  const Matrix a = la::random_matrix(m, k, rng);
  const Matrix b = la::random_matrix(k, n, rng);
  for (const auto v : {blas::GemmVariant::kNaive, blas::GemmVariant::kSmallK,
                       blas::GemmVariant::kBlocked}) {
    for (const double alpha : {1.0, 0.0}) {
      Matrix c(m, n, std::numeric_limits<double>::quiet_NaN());
      blas::GemmOptions opts;
      opts.force_variant = v;
      blas::gemm(false, false, alpha, a.view(), b.view(), 0.0, c.view(), opts);
      Matrix c_ref(m, n);
      blas::ref_gemm(false, false, alpha, a.view(), b.view(), 0.0,
                     c_ref.view());
      EXPECT_LE(la::max_abs_diff(c.view(), c_ref.view()),
                la::gemm_tolerance(k))
          << "variant=" << blas::to_string(v) << " alpha=" << alpha;
    }
  }
}

TEST(Gemm, ParallelPoolMatchesSerial) {
  support::Rng rng(31);
  const index_t m = 180;
  const index_t n = 170;
  const index_t k = 90;
  const Matrix a = la::random_matrix(m, k, rng);
  const Matrix b = la::random_matrix(k, n, rng);
  Matrix c_serial(m, n);
  blas::gemm(false, false, 1.0, a.view(), b.view(), 0.0, c_serial.view());

  for (const std::size_t threads : {2u, 3u, 5u}) {
    parallel::ThreadPool pool(threads);
    blas::GemmOptions opts;
    opts.pool = &pool;
    Matrix c_par(m, n);
    blas::gemm(false, false, 1.0, a.view(), b.view(), 0.0, c_par.view(), opts);
    EXPECT_TRUE(la::approx_equal(c_serial.view(), c_par.view(), 1e-12))
        << "threads=" << threads;
  }
}

TEST(Gemm, CustomBlockSizesStillCorrect) {
  support::Rng rng(8);
  const Matrix a = la::random_matrix(90, 77, rng);
  const Matrix b = la::random_matrix(77, 85, rng);
  Matrix c(90, 85);
  blas::GemmOptions opts;
  opts.blocks = blas::BlockSizes{24, 16, 32};  // deliberately awkward
  blas::gemm(false, false, 1.0, a.view(), b.view(), 0.0, c.view(), opts);
  Matrix c_ref(90, 85);
  blas::ref_gemm(false, false, 1.0, a.view(), b.view(), 0.0, c_ref.view());
  EXPECT_LE(la::max_abs_diff(c.view(), c_ref.view()), la::gemm_tolerance(77));
}

TEST(Gemm, MatmulConvenience) {
  support::Rng rng(4);
  const Matrix a = la::random_matrix(20, 30, rng);
  const Matrix b = la::random_matrix(30, 10, rng);
  Matrix c(20, 10, 123.0);
  blas::matmul(a.view(), b.view(), c.view());
  Matrix c_ref(20, 10);
  blas::ref_gemm(false, false, 1.0, a.view(), b.view(), 0.0, c_ref.view());
  EXPECT_LE(la::max_abs_diff(c.view(), c_ref.view()), la::gemm_tolerance(30));
}

TEST(GemmVariant, SelectionThresholds) {
  // Pins the crossovers re-tuned against the SIMD microkernels (see
  // blas/variant.hpp for the bm_kernels measurements behind them).
  using blas::GemmVariant;
  EXPECT_EQ(blas::select_gemm_variant(1, 1, 1), GemmVariant::kNaive);
  EXPECT_EQ(blas::select_gemm_variant(8, 8, 8), GemmVariant::kNaive);
  EXPECT_EQ(blas::select_gemm_variant(9, 8, 8), GemmVariant::kBlocked);
  EXPECT_EQ(blas::select_gemm_variant(32, 32, 32), GemmVariant::kBlocked);
  EXPECT_EQ(blas::select_gemm_variant(100, 100, 4), GemmVariant::kSmallK);
  EXPECT_EQ(blas::select_gemm_variant(100, 100, 5), GemmVariant::kBlocked);
  EXPECT_EQ(blas::select_gemm_variant(100, 100, 24), GemmVariant::kBlocked);
}

TEST(GemmVariant, ForcedVariantBypassesSelection) {
  // Every variant must produce the same numbers when forced onto a shape
  // the selector would route elsewhere.
  support::Rng rng(21);
  const index_t m = 60;
  const index_t n = 52;
  const index_t k = 44;
  const Matrix a = la::random_matrix(m, k, rng);
  const Matrix b = la::random_matrix(k, n, rng);
  Matrix c_ref(m, n);
  blas::ref_gemm(false, false, 1.0, a.view(), b.view(), 0.0, c_ref.view());
  for (const auto v : {blas::GemmVariant::kNaive, blas::GemmVariant::kSmallK,
                       blas::GemmVariant::kBlocked}) {
    blas::GemmOptions opts;
    opts.force_variant = v;
    Matrix c(m, n);
    blas::gemm(false, false, 1.0, a.view(), b.view(), 0.0, c.view(), opts);
    EXPECT_LE(la::max_abs_diff(c.view(), c_ref.view()), la::gemm_tolerance(k))
        << "variant=" << blas::to_string(v);
  }
}

TEST(GemmVariant, Names) {
  EXPECT_EQ(blas::to_string(blas::GemmVariant::kNaive), "naive");
  EXPECT_EQ(blas::to_string(blas::GemmVariant::kSmallK), "small-k");
  EXPECT_EQ(blas::to_string(blas::GemmVariant::kBlocked), "blocked");
}

// Associativity smoke check through the optimised kernel: (AB)C == A(BC).
TEST(Gemm, AssociativityHolds) {
  support::Rng rng(77);
  const Matrix a = la::random_matrix(40, 60, rng);
  const Matrix b = la::random_matrix(60, 35, rng);
  const Matrix c = la::random_matrix(35, 45, rng);

  Matrix ab(40, 35);
  blas::matmul(a.view(), b.view(), ab.view());
  Matrix left(40, 45);
  blas::matmul(ab.view(), c.view(), left.view());

  Matrix bc(60, 45);
  blas::matmul(b.view(), c.view(), bc.view());
  Matrix right(40, 45);
  blas::matmul(a.view(), bc.view(), right.view());

  EXPECT_LE(la::max_abs_diff(left.view(), right.view()),
            la::gemm_tolerance(60) * 60);
}

}  // namespace

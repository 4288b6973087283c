// Microkernel dispatch: the SIMD tiers must agree with the scalar anchor
// across fringe shapes, transposes and scalar combinations, the
// LAMB_KERNEL override machinery must behave, and threads that resolve the
// microkernel and the simulated machine's noise tier at once must compute
// what one thread does (the case TSan runs this suite for).
//
// Tolerance note: the SIMD tiers use FMA and a different accumulation
// geometry (8- or 16-row vector lanes vs the scalar 4x8 tile), so results
// are NOT bit-identical to the scalar kernel — both are valid roundings of
// the same dot products whose forward error grows like k * eps (see
// la::gemm_tolerance). Agreement is pinned within that bound; exactness is
// pinned separately per tier (kernel vs itself through gemm's fringe and
// full-tile paths must be deterministic).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <latch>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/microkernel.hpp"
#include "blas/ref_blas.hpp"
#include "blas/variant.hpp"
#include "expr/registry.hpp"
#include "la/generators.hpp"
#include "la/norms.hpp"
#include "model/simulated_machine.hpp"
#include "support/rng.hpp"

namespace {

using namespace lamb;
using la::index_t;
using la::Matrix;

/// Restores auto dispatch (including any LAMB_KERNEL the harness was
/// launched with) when a test finishes fiddling with the active kernel.
struct ScopedKernelReset {
  ~ScopedKernelReset() { blas::force_microkernel(nullptr); }
};

TEST(KernelDispatch, ScalarAlwaysAvailableAndNamesUnique) {
  const auto& kernels = blas::available_microkernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front()->name, "scalar");
  std::set<std::string> names;
  for (const blas::Microkernel* mk : kernels) {
    EXPECT_TRUE(names.insert(mk->name).second)
        << "duplicate tier " << mk->name;
    EXPECT_GE(mk->mr, 1);
    EXPECT_GE(mk->nr, 1);
    EXPECT_LE(mk->mr, blas::kMaxMR);
    EXPECT_LE(mk->nr, blas::kMaxNR);
    EXPECT_NE(mk->fn, nullptr);
  }
}

TEST(KernelDispatch, SelectByNameAndAuto) {
  const auto& kernels = blas::available_microkernels();
  EXPECT_EQ(blas::select_microkernel("auto"), kernels.back());
  EXPECT_EQ(blas::select_microkernel(""), kernels.back());
  for (const blas::Microkernel* mk : kernels) {
    EXPECT_EQ(blas::select_microkernel(mk->name), mk);
  }
  EXPECT_EQ(blas::select_microkernel("mmx"), nullptr);
  EXPECT_EQ(blas::select_microkernel("Scalar"), nullptr);  // case-sensitive
}

TEST(KernelDispatch, ForceAndResetControlTheActiveKernel) {
  ScopedKernelReset reset;
  for (const blas::Microkernel* mk : blas::available_microkernels()) {
    blas::force_microkernel(mk);
    EXPECT_EQ(&blas::active_microkernel(), mk);
  }
}

TEST(KernelDispatch, EnvOverrideSelectsScalar) {
  // Restore whatever LAMB_KERNEL the harness was launched with (CI runs the
  // whole suite under LAMB_KERNEL=scalar), so later tests still re-resolve
  // to the launch configuration.
  const char* launched_with = std::getenv("LAMB_KERNEL");
  const std::string saved = launched_with != nullptr ? launched_with : "";
  ScopedKernelReset reset;

  ASSERT_EQ(setenv("LAMB_KERNEL", "scalar", 1), 0);
  blas::force_microkernel(nullptr);  // re-resolve from the environment
  EXPECT_EQ(&blas::active_microkernel(), &blas::scalar_microkernel());

  // Unknown value: warns and falls back to auto (the best tier).
  ASSERT_EQ(setenv("LAMB_KERNEL", "quantum", 1), 0);
  blas::force_microkernel(nullptr);
  EXPECT_EQ(&blas::active_microkernel(),
            blas::available_microkernels().back());

  ASSERT_EQ(unsetenv("LAMB_KERNEL"), 0);
  blas::force_microkernel(nullptr);
  EXPECT_EQ(&blas::active_microkernel(),
            blas::available_microkernels().back());

  if (launched_with != nullptr) {
    ASSERT_EQ(setenv("LAMB_KERNEL", saved.c_str(), 1), 0);
  }
}

TEST(KernelDispatch, ConcurrentFirstUseComputesWhatOneThreadDoes) {
  ScopedKernelReset reset;
  support::Rng rng(77);
  const Matrix a = la::random_matrix(70, 45, rng);
  const Matrix b = la::random_matrix(45, 60, rng);
  const auto family = expr::make_family("aatbc");
  const std::vector<model::Algorithm> algs =
      family->algorithms({300, 170, 90, 410});
  std::size_t steps = 0;
  for (const model::Algorithm& alg : algs) {
    steps += alg.steps().size();
  }
  // Safe to time from several threads at once (concurrent_timing_safe).
  model::SimulatedMachine machine;
  // A blocked GEMM (the microkernel path) and a set timing.
  const auto run = [&](Matrix& c, std::vector<double>& times) {
    blas::GemmOptions opts;
    opts.force_variant = blas::GemmVariant::kBlocked;
    blas::gemm(false, false, 1.0, a.view(), b.view(), 0.0, c.view(), opts);
    machine.time_set_into(algs, times);
  };

  Matrix want_c(70, 60);
  std::vector<double> want_times(steps);
  run(want_c, want_times);

  constexpr int kThreads = 4;
  std::vector<Matrix> cs(kThreads, Matrix(70, 60));
  std::vector<std::vector<double>> times(kThreads,
                                         std::vector<double>(steps));
  // Unresolve both tiers, then release every thread at once: each takes
  // the first use of both.
  blas::force_microkernel(nullptr);
  model::force_noise_kernel(nullptr);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      run(cs[static_cast<std::size_t>(t)], times[static_cast<std::size_t>(t)]);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  model::force_noise_kernel(nullptr);
  for (int t = 0; t < kThreads; ++t) {
    const auto u = static_cast<std::size_t>(t);
    EXPECT_LE(la::max_abs_diff(cs[u].view(), want_c.view()), 0.0)
        << "thread " << t;
    for (std::size_t i = 0; i < steps; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(times[u][i]),
                std::bit_cast<std::uint64_t>(want_times[i]))
          << "thread " << t << ", step time " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// SIMD vs scalar agreement across fringe shapes. Small custom block sizes
// put m, n straddling the micro-tile geometry and k straddling the kc slab
// boundary without needing 256-deep operands.
// ---------------------------------------------------------------------------

class KernelAgreementTest
    : public ::testing::TestWithParam<const blas::Microkernel*> {
 protected:
  void TearDown() override { blas::force_microkernel(nullptr); }
};

Matrix run_with_kernel(const blas::Microkernel* mk, bool ta, bool tb,
                       double alpha, const Matrix& a, const Matrix& b,
                       double beta, const Matrix& c0,
                       const blas::BlockSizes& bs) {
  blas::force_microkernel(mk);
  Matrix c = c0;
  blas::GemmOptions opts;
  opts.blocks = bs;
  opts.force_variant = blas::GemmVariant::kBlocked;  // the microkernel path
  blas::gemm(ta, tb, alpha, a.view(), b.view(), beta, c.view(), opts);
  blas::force_microkernel(nullptr);
  return c;
}

TEST_P(KernelAgreementTest, MatchesScalarAcrossFringeShapesAndScalars) {
  const blas::Microkernel* mk = GetParam();
  const blas::Microkernel* scalar = &blas::scalar_microkernel();
  blas::BlockSizes bs;
  bs.mc = 3 * mk->mr;  // several micro-panels per block
  bs.kc = 16;          // k sweep below straddles the slab boundary
  bs.nc = 3 * mk->nr + 1;

  // m, n straddle the micro-tile and block boundaries of BOTH geometries;
  // k straddles the kc slab boundary.
  const index_t ms[] = {1, mk->mr - 1, mk->mr, mk->mr + 1, bs.mc - 1,
                        bs.mc + 2, 3 * mk->mr + 2};
  const index_t ns[] = {1, mk->nr - 1, mk->nr, mk->nr + 1, bs.nc - 1,
                        bs.nc + 2, 2 * mk->nr + 3};
  const index_t ks[] = {1, bs.kc - 1, bs.kc, bs.kc + 1, 3 * bs.kc + 5};

  support::Rng rng(1234);
  for (const index_t m : ms) {
    for (const index_t n : ns) {
      for (const index_t k : ks) {
        for (const bool ta : {false, true}) {
          for (const bool tb : {false, true}) {
            const Matrix a = ta ? la::random_matrix(k, m, rng)
                                : la::random_matrix(m, k, rng);
            const Matrix b = tb ? la::random_matrix(n, k, rng)
                                : la::random_matrix(k, n, rng);
            const Matrix c0 = la::random_matrix(m, n, rng);
            // (alpha, beta) spanning store (0), accumulate (1) and the
            // general fused scale-and-add path.
            for (const auto& [alpha, beta] :
                 {std::pair{1.0, 0.0}, std::pair{2.5, 1.0},
                  std::pair{-1.0, -0.5}}) {
              const Matrix got = run_with_kernel(mk, ta, tb, alpha, a, b,
                                                 beta, c0, bs);
              const Matrix want = run_with_kernel(scalar, ta, tb, alpha, a,
                                                  b, beta, c0, bs);
              const double tol = la::gemm_tolerance(k) *
                                 (1.0 + std::abs(alpha) + std::abs(beta));
              EXPECT_LE(la::max_abs_diff(got.view(), want.view()), tol)
                  << mk->name << " vs scalar at m=" << m << " n=" << n
                  << " k=" << k << " ta=" << ta << " tb=" << tb
                  << " alpha=" << alpha << " beta=" << beta;
            }
          }
        }
      }
    }
  }
}

TEST_P(KernelAgreementTest, DeterministicAcrossRepeatRuns) {
  const blas::Microkernel* mk = GetParam();
  support::Rng rng(7);
  const blas::BlockSizes bs;
  const index_t m = 2 * mk->mr + 3;
  const index_t n = 2 * mk->nr + 1;
  const index_t k = 37;
  const Matrix a = la::random_matrix(m, k, rng);
  const Matrix b = la::random_matrix(k, n, rng);
  const Matrix c0 = la::random_matrix(m, n, rng);
  const Matrix first =
      run_with_kernel(mk, false, false, 1.5, a, b, 0.5, c0, bs);
  const Matrix second =
      run_with_kernel(mk, false, false, 1.5, a, b, 0.5, c0, bs);
  EXPECT_LE(la::max_abs_diff(first.view(), second.view()), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllTiers, KernelAgreementTest,
    ::testing::ValuesIn(blas::available_microkernels()),
    [](const ::testing::TestParamInfo<const blas::Microkernel*>& info) {
      return std::string(info.param->name);
    });

}  // namespace

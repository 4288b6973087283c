// MeasuredMachine: real-kernel timing under the paper's protocol. Sizes are
// kept tiny so the suite runs quickly; this validates plumbing, not speed.
#include <gtest/gtest.h>

#include "blas/blas.hpp"
#include "expr/aatb.hpp"
#include "model/measured_machine.hpp"

namespace {

using namespace lamb::model;

MeasuredMachineConfig fast_config() {
  MeasuredMachineConfig cfg;
  cfg.protocol.repetitions = 2;
  cfg.protocol.flush_cache = false;  // keep the test fast
  cfg.flush_bytes = 1u << 20;
  cfg.peak_flops = 1.0e9;  // skip empirical peak estimation
  return cfg;
}

TEST(MeasuredMachine, IsolatedCallTimesArePositive) {
  MeasuredMachine m(fast_config());
  for (const KernelCall& call :
       {make_gemm(24, 24, 24), make_gemm(24, 24, 24, true, false),
        make_syrk(24, 16), make_symm(24, 16), make_tricopy(32)}) {
    EXPECT_GT(m.time_call_isolated(call), 0.0) << call.to_string();
  }
}

TEST(MeasuredMachine, BreakpointsAreTheBlasPathSwitches) {
  const MeasuredMachine m(fast_config());
  const lamb::blas::BlockSizes blocks;
  EXPECT_EQ(m.breakpoints(),
            (std::vector<int>{static_cast<int>(lamb::blas::kSmallKLimit),
                              static_cast<int>(lamb::blas::kNaiveLimit),
                              static_cast<int>(blocks.mc),
                              static_cast<int>(blocks.kc)}));
}

TEST(MeasuredMachine, IsolatedCallsAreMemoised) {
  MeasuredMachine m(fast_config());
  EXPECT_EQ(m.benchmark_cache_size(), 0u);
  const KernelCall call = make_gemm(16, 16, 16);
  const double t1 = m.time_call_isolated(call);
  EXPECT_EQ(m.benchmark_cache_size(), 1u);
  const double t2 = m.time_call_isolated(call);
  EXPECT_DOUBLE_EQ(t1, t2);  // cached value returned verbatim
  EXPECT_EQ(m.benchmark_cache_size(), 1u);
  m.time_call_isolated(make_gemm(16, 16, 17));
  EXPECT_EQ(m.benchmark_cache_size(), 2u);
  m.clear_benchmark_cache();
  EXPECT_EQ(m.benchmark_cache_size(), 0u);
}

TEST(MeasuredMachine, BenchmarkCacheIsCapacityBounded) {
  MeasuredMachineConfig cfg = fast_config();
  cfg.benchmark_cache_capacity = 2;
  MeasuredMachine m(cfg);
  EXPECT_EQ(m.benchmark_cache_capacity(), 2u);

  m.time_call_isolated(make_gemm(16, 16, 16));
  m.time_call_isolated(make_gemm(16, 16, 17));
  m.time_call_isolated(make_gemm(16, 16, 18));  // evicts the k=16 call
  EXPECT_EQ(m.benchmark_cache_size(), 2u);

  // The evicted call re-measures (a miss); the resident ones hit.
  const auto misses_before = m.benchmark_cache_misses();
  m.time_call_isolated(make_gemm(16, 16, 16));
  EXPECT_EQ(m.benchmark_cache_misses(), misses_before + 1);
  EXPECT_EQ(m.benchmark_cache_size(), 2u);
}

TEST(MeasuredMachine, BenchmarkCacheCountersTrackHitsAndMisses) {
  MeasuredMachine m(fast_config());
  EXPECT_EQ(m.benchmark_cache_hits(), 0u);
  EXPECT_EQ(m.benchmark_cache_misses(), 0u);
  const KernelCall call = make_gemm(16, 16, 16);
  m.time_call_isolated(call);
  EXPECT_EQ(m.benchmark_cache_misses(), 1u);
  m.time_call_isolated(call);
  m.time_call_isolated(call);
  EXPECT_EQ(m.benchmark_cache_hits(), 2u);
  EXPECT_EQ(m.benchmark_cache_misses(), 1u);
}

TEST(MeasuredMachine, TimeStepsMatchesAlgorithmStructure) {
  MeasuredMachine m(fast_config());
  const auto algs = lamb::expr::enumerate_aatb_algorithms(20, 16, 24);
  for (const Algorithm& alg : algs) {
    const auto steps = m.time_steps(alg);
    ASSERT_EQ(steps.size(), alg.steps().size()) << alg.name();
    for (double t : steps) {
      EXPECT_GT(t, 0.0);
    }
  }
}

TEST(MeasuredMachine, BiggerWorkTakesLonger) {
  MeasuredMachine m(fast_config());
  const double small = m.time_call_isolated(make_gemm(16, 16, 16));
  const double large = m.time_call_isolated(make_gemm(128, 128, 128));
  EXPECT_GT(large, small);
}

TEST(MeasuredMachine, ConfiguredPeakIsReturned) {
  MeasuredMachine m(fast_config());
  EXPECT_DOUBLE_EQ(m.peak_flops(), 1.0e9);
}

TEST(MeasuredMachine, NameIsStable) {
  MeasuredMachine m(fast_config());
  EXPECT_EQ(m.name(), "measured");
}

TEST(MeasuredMachine, AlgorithmEfficiencyIsPositive) {
  MeasuredMachineConfig cfg = fast_config();
  cfg.peak_flops = 0.0;  // force empirical estimation
  MeasuredMachine m(cfg);
  const auto algs = lamb::expr::enumerate_aatb_algorithms(48, 32, 40);
  const double eff = m.algorithm_efficiency(algs[3]);
  EXPECT_GT(eff, 0.0);
  // Empirical peak is the best observed rate, so efficiencies stay sane.
  EXPECT_LT(eff, 2.0);
}

}  // namespace

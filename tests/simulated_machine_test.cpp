// SimulatedMachine: determinism, base-time physics, measurement jitter,
// inter-kernel cache coupling and the isolated-benchmark view.
#include <gtest/gtest.h>

#include <cmath>

#include "expr/aatb.hpp"
#include "model/simulated_machine.hpp"
#include "support/check.hpp"

namespace {

using namespace lamb::model;

SimulatedMachineConfig quiet_config() {
  SimulatedMachineConfig cfg;
  cfg.jitter = 0.0;  // noise-free for exact arithmetic checks
  return cfg;
}

Algorithm two_step_chain() {
  Algorithm alg("two-step");
  const int a = alg.add_external(300, 200, "A");
  const int b = alg.add_external(200, 250, "B");
  const int c = alg.add_external(250, 150, "C");
  const int ab = alg.add_gemm(a, b);
  alg.add_gemm(ab, c);
  return alg;
}

TEST(SimulatedMachine, DeterministicAcrossInstances) {
  SimulatedMachine m1;
  SimulatedMachine m2;
  const KernelCall call = make_gemm(321, 123, 456);
  EXPECT_DOUBLE_EQ(m1.time_call_isolated(call), m2.time_call_isolated(call));
  const Algorithm alg = two_step_chain();
  EXPECT_EQ(m1.time_steps(alg), m2.time_steps(alg));
}

TEST(SimulatedMachine, BaseTimeMatchesFlopsOverEffectiveRate) {
  SimulatedMachine m(quiet_config());
  const KernelCall call = make_gemm(400, 300, 200);
  const double expected =
      m.config().call_overhead +
      static_cast<double>(call.flops()) /
          (m.config().peak_flops * m.efficiency(call));
  EXPECT_DOUBLE_EQ(m.base_time(call), expected);
}

TEST(SimulatedMachine, TimesArePositiveAndFinite) {
  SimulatedMachine m;
  for (const KernelCall& call :
       {make_gemm(1, 1, 1), make_gemm(1200, 1200, 1200), make_syrk(20, 20),
        make_symm(1200, 20), make_tricopy(600)}) {
    const double t = m.time_call_isolated(call);
    EXPECT_GT(t, 0.0) << call.to_string();
    EXPECT_TRUE(std::isfinite(t)) << call.to_string();
  }
}

TEST(SimulatedMachine, MoreFlopsAtSameShapeClassTakesLonger) {
  SimulatedMachine m(quiet_config());
  EXPECT_GT(m.base_time(make_gemm(600, 600, 600)),
            m.base_time(make_gemm(500, 500, 500)));
}

TEST(SimulatedMachine, EfficiencyNeverExceedsOne) {
  SimulatedMachine m;
  const Algorithm alg = two_step_chain();
  EXPECT_LE(m.algorithm_efficiency(alg), 1.0);
  EXPECT_GT(m.algorithm_efficiency(alg), 0.0);
}

TEST(SimulatedMachine, TriCopyCostIsBandwidthBound) {
  SimulatedMachine m(quiet_config());
  const double t_small = m.base_time(make_tricopy(100));
  const double t_big = m.base_time(make_tricopy(1000));
  // 10x the dimension -> 100x the bytes -> ~100x the time (minus overhead).
  EXPECT_GT(t_big / t_small, 30.0);
}

TEST(SimulatedMachine, TimeAlgorithmIsSumOfSteps) {
  SimulatedMachine m;
  const Algorithm alg = two_step_chain();
  const auto steps = m.time_steps(alg);
  double total = 0.0;
  for (double t : steps) {
    total += t;
  }
  EXPECT_DOUBLE_EQ(m.time_algorithm(alg), total);
}

TEST(SimulatedMachine, CouplingSpeedsUpConsumingStep) {
  SimulatedMachineConfig with = quiet_config();
  with.enable_coupling = true;
  SimulatedMachineConfig without = quiet_config();
  without.enable_coupling = false;

  SimulatedMachine m_with(with);
  SimulatedMachine m_without(without);
  const Algorithm alg = two_step_chain();

  const auto steps_with = m_with.time_steps(alg);
  const auto steps_without = m_without.time_steps(alg);
  ASSERT_EQ(steps_with.size(), 2u);
  // First step starts from a flushed cache either way.
  EXPECT_DOUBLE_EQ(steps_with[0], steps_without[0]);
  // Second step consumes M1 (which fits in the LLC) -> faster with coupling.
  EXPECT_LT(steps_with[1], steps_without[1]);
}

TEST(SimulatedMachine, CouplingOnlyAppliesWhenOutputIsConsumed) {
  // Chain Algorithm 2 computes M1 := A*B then M2 := C*D: the second call
  // does NOT consume the first call's output, so no coupling applies.
  Algorithm alg("indep");
  const int a = alg.add_external(200, 150, "A");
  const int b = alg.add_external(150, 220, "B");
  const int c = alg.add_external(220, 180, "C");
  const int d = alg.add_external(180, 160, "D");
  const int ab = alg.add_gemm(a, b);
  const int cd = alg.add_gemm(c, d);
  alg.add_gemm(ab, cd);

  SimulatedMachineConfig cfg = quiet_config();
  SimulatedMachine m(cfg);
  const auto steps = m.time_steps(alg);
  // Step 2 (C*D) must equal its uncoupled base time.
  EXPECT_DOUBLE_EQ(steps[1], m.base_time(alg.steps()[1].call));
  // Step 3 consumes both temps -> coupled, strictly below base time.
  EXPECT_LT(steps[2], m.base_time(alg.steps()[2].call));
}

TEST(SimulatedMachine, IsolatedEqualsBaseWhenNoiseFree) {
  SimulatedMachine m(quiet_config());
  const KernelCall call = make_syrk(300, 200);
  EXPECT_DOUBLE_EQ(m.time_call_isolated(call), m.base_time(call));
}

TEST(SimulatedMachine, JitterIsSmallAndCentredNearOne) {
  SimulatedMachineConfig cfg;
  cfg.jitter = 0.01;
  SimulatedMachine noisy(cfg);
  SimulatedMachine quiet(quiet_config());
  const KernelCall call = make_gemm(500, 400, 300);
  const double ratio =
      noisy.time_call_isolated(call) / quiet.time_call_isolated(call);
  EXPECT_GT(ratio, 0.98);
  EXPECT_LT(ratio, 1.02);
}

TEST(SimulatedMachine, DifferentSeedsGiveDifferentJitter) {
  SimulatedMachineConfig c1;
  SimulatedMachineConfig c2;
  c2.noise_seed = c1.noise_seed + 1;
  SimulatedMachine m1(c1);
  SimulatedMachine m2(c2);
  const KernelCall call = make_gemm(500, 400, 300);
  EXPECT_NE(m1.time_call_isolated(call), m2.time_call_isolated(call));
}

TEST(SimulatedMachine, PredictBenchmarksMatchesIsolatedSum) {
  SimulatedMachine m;
  const auto algs = lamb::expr::enumerate_aatb_algorithms(200, 150, 250);
  for (const Algorithm& alg : algs) {
    double expected = 0.0;
    for (const Step& s : alg.steps()) {
      expected += m.time_call_isolated(s.call);
    }
    EXPECT_DOUBLE_EQ(m.predict_time_from_benchmarks(alg), expected);
  }
}

TEST(SimulatedMachine, InvalidConfigRejected) {
  SimulatedMachineConfig bad;
  bad.peak_flops = 0.0;
  EXPECT_THROW(SimulatedMachine m(bad), lamb::support::CheckError);
  SimulatedMachineConfig bad2;
  bad2.coupling_max = 1.0;
  EXPECT_THROW(SimulatedMachine m(bad2), lamb::support::CheckError);
  SimulatedMachineConfig bad3;
  bad3.repetitions = 0;
  EXPECT_THROW(SimulatedMachine m(bad3), lamb::support::CheckError);
  SimulatedMachineConfig bad4;
  bad4.repetitions = kMaxSimulatedRepetitions + 1;
  EXPECT_THROW(SimulatedMachine m(bad4), lamb::support::CheckError);
}

TEST(SimulatedMachine, BreakpointsComeFromTheEfficiencyParams) {
  EXPECT_EQ(SimulatedMachine().breakpoints(),
            (std::vector<int>{24, 32, 64, 96, 160, 300}));
  SimulatedMachineConfig flat;
  flat.efficiency = EfficiencyParams::flat();
  EXPECT_TRUE(SimulatedMachine(flat).breakpoints().empty());
}

TEST(SimulatedMachine, NameIsStable) {
  SimulatedMachine m;
  EXPECT_EQ(m.name(), "simulated");
}

}  // namespace

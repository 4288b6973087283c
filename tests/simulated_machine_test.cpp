// SimulatedMachine: determinism, base-time physics, measurement jitter,
// inter-kernel cache coupling, the isolated-benchmark view, and the noise
// tiers, which must give the scalar reference formula's bits.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "expr/aatb.hpp"
#include "expr/registry.hpp"
#include "model/simulated_machine.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

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

// ---------------------------------------------------------------------------
// Noise tiers. Every tier must return the scalar reference formula's bits.
// ---------------------------------------------------------------------------

/// Restores the noise tier resolved from the environment when a test
/// finishes pinning it.
struct ScopedNoiseReset {
  ~ScopedNoiseReset() { force_noise_kernel(nullptr); }
};

/// Lanes of a step-shaped batch: a random context, a kernel kind, sizes
/// in the atlas range and a step index; `wide` draws every word at random.
NoiseBatch random_batch(lamb::support::Rng& rng, bool wide) {
  NoiseBatch batch;
  for (std::size_t j = 0; j < kNoiseBatch; ++j) {
    batch.context[j] = rng.next_u64();
    batch.links[0][j] = wide ? rng.next_u64() : rng.bounded(4);
    for (std::size_t l = 1; l < 4; ++l) {
      batch.links[l][j] = wide ? rng.next_u64() : 1 + rng.bounded(1200);
    }
    batch.links[4][j] = wide ? rng.next_u64() : rng.bounded(8);
  }
  return batch;
}

/// The stream of lane `j` of `batch`: the hash chain NoiseBatch defines.
std::uint64_t lane_stream(const NoiseBatch& batch, std::size_t j) {
  std::uint64_t h = batch.context[j];
  for (const auto& link : batch.links) {
    h = lamb::support::hash_combine(h, link[j]);
  }
  return h;
}

TEST(SimulatedNoise, VectorTiersMatchTheScalarFormulaBitForBit) {
  const auto& kernels = available_noise_kernels();
  ASSERT_EQ(kernels.front(), &scalar_noise_kernel());
  EXPECT_EQ(scalar_noise_kernel().fn, nullptr);
  if (kernels.size() == 1) {
    GTEST_SKIP() << "this build or CPU has no AVX-512DQ noise tier; only "
                    "the scalar formula runs";
  }
  // Sentinel bits in every lane a kernel must leave alone.
  const std::uint64_t kUnwritten = 0x7ff8dead0000beefULL;
  lamb::support::Rng rng(2024);
  for (std::size_t t = 1; t < kernels.size(); ++t) {
    const NoiseKernel* kernel = kernels[t];
    ASSERT_NE(kernel->fn, nullptr) << kernel->name;
    std::size_t compared = 0;
    for (const double jitter : {0.004, 0.5}) {
      for (int round = 0; round < 3; ++round) {
        for (std::size_t n = 1; n <= kNoiseBatch; ++n) {
          const NoiseBatch batch = random_batch(rng, round == 2);
          std::vector<double> got(kNoiseBatch,
                                  std::bit_cast<double>(kUnwritten));
          kernel->fn(batch, n, jitter, got.data());
          for (std::size_t j = 0; j < n; ++j, ++compared) {
            const double want = jitter_factor(lane_stream(batch, j), jitter);
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got[j]),
                      std::bit_cast<std::uint64_t>(want))
                << kernel->name << " lane " << j << " of " << n
                << ", jitter " << jitter << ", round " << round << ": "
                << got[j] << " vs " << want;
          }
          for (std::size_t j = n; j < kNoiseBatch; ++j) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got[j]), kUnwritten)
                << kernel->name << " wrote lane " << j << " of " << n;
          }
        }
      }
    }
    EXPECT_GE(compared, 10000u) << kernel->name;
  }
}

TEST(SimulatedNoise, SetTimingEqualsPerAlgorithmTimingOnEveryTier) {
  ScopedNoiseReset reset;
  SimulatedMachine machine;
  lamb::support::Rng rng(99);
  for (const std::string& name : lamb::expr::registry().names()) {
    const auto family = lamb::expr::make_family(name);
    for (int trial = 0; trial < 4; ++trial) {
      lamb::expr::Instance dims(
          static_cast<std::size_t>(family->dimension_count()));
      for (int& d : dims) {
        d = rng.uniform_int(20, 1200);
      }
      // The bound set twice over, so that sets of every family run past
      // one noise batch (kNoiseBatch steps) and split algorithms across two.
      std::vector<Algorithm> algs = family->algorithms(dims);
      const std::size_t once = algs.size();
      for (std::size_t a = 0; a < once; ++a) {
        algs.push_back(algs[a]);
      }
      // The reference: each algorithm on its own, by the scalar formula.
      force_noise_kernel(&scalar_noise_kernel());
      std::vector<double> want;
      for (const Algorithm& alg : algs) {
        for (const double t : machine.time_steps(alg)) {
          want.push_back(t);
        }
      }
      for (const NoiseKernel* kernel : available_noise_kernels()) {
        force_noise_kernel(kernel);
        std::vector<double> set(want.size());
        machine.time_set_into(algs, set);
        std::vector<double> each;
        for (const Algorithm& alg : algs) {
          for (const double t : machine.time_steps(alg)) {
            each.push_back(t);
          }
        }
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(set[i]),
                    std::bit_cast<std::uint64_t>(want[i]))
              << name << " step time " << i << " on " << kernel->name;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(each[i]),
                    std::bit_cast<std::uint64_t>(want[i]))
              << name << " step time " << i << " on " << kernel->name;
        }
      }
    }
  }
}

TEST(SimulatedNoise, SetTimingRejectsAMisSizedBuffer) {
  SimulatedMachine machine;
  const std::vector<Algorithm> algs = {two_step_chain(), two_step_chain()};
  std::vector<double> out(3);
  EXPECT_THROW(machine.time_set_into(algs, out), lamb::support::CheckError);
}

}  // namespace

// The anomaly classifier: score definitions (paper Sec. 3.3), the disjoint
// set condition, thresholds and property-style invariants, and the
// classification core that every InstanceResult is built from.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>

#include "alloc_counter.hpp"
#include "anomaly/classifier.hpp"
#include "expr/family.hpp"
#include "expr/registry.hpp"
#include "model/simulated_machine.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"

namespace {

using namespace lamb;
using anomaly::InstanceResult;
using anomaly::classify_from_times;

const expr::Instance kDims = {1, 2, 3};

TEST(Classifier, CheapestAndFastestSets) {
  const InstanceResult r = classify_from_times(
      kDims, {100, 100, 200}, {3.0, 2.0, 1.0}, 0.10);
  ASSERT_EQ(r.cheapest.size(), 2u);
  EXPECT_EQ(r.cheapest[0], 0u);
  EXPECT_EQ(r.cheapest[1], 1u);
  ASSERT_EQ(r.fastest.size(), 1u);
  EXPECT_EQ(r.fastest[0], 2u);
}

TEST(Classifier, TimeScoreDefinition) {
  // T_cheapest = min(3, 2) = 2; T_fastest = 1 -> score = (2-1)/2 = 0.5.
  const InstanceResult r = classify_from_times(
      kDims, {100, 100, 200}, {3.0, 2.0, 1.0}, 0.10);
  EXPECT_DOUBLE_EQ(r.time_score, 0.5);
  EXPECT_TRUE(r.anomaly);
}

TEST(Classifier, FlopScoreDefinition) {
  // F_cheapest = 100; fastest algorithm is #2 with 200 FLOPs ->
  // score = (200-100)/200 = 0.5.
  const InstanceResult r = classify_from_times(
      kDims, {100, 100, 200}, {3.0, 2.0, 1.0}, 0.10);
  EXPECT_DOUBLE_EQ(r.flop_score, 0.5);
}

TEST(Classifier, NotAnomalyWhenCheapestIsFastest) {
  const InstanceResult r = classify_from_times(
      kDims, {100, 150, 200}, {1.0, 2.0, 3.0}, 0.10);
  EXPECT_FALSE(r.anomaly);
  EXPECT_DOUBLE_EQ(r.time_score, 0.0);
  EXPECT_DOUBLE_EQ(r.flop_score, 0.0);
}

TEST(Classifier, NotAnomalyWhenSetsIntersect) {
  // Two cheapest; one of them is also fastest.
  const InstanceResult r = classify_from_times(
      kDims, {100, 100, 200}, {5.0, 1.0, 1.5}, 0.10);
  EXPECT_FALSE(r.anomaly);
  EXPECT_DOUBLE_EQ(r.time_score, 0.0);
}

TEST(Classifier, ThresholdGatesWeakAnomalies) {
  // Disjoint sets but only 5% time gap.
  const InstanceResult weak = classify_from_times(
      kDims, {100, 200}, {1.0, 0.95}, 0.10);
  EXPECT_FALSE(weak.anomaly);
  EXPECT_NEAR(weak.time_score, 0.05, 1e-12);

  const InstanceResult strong = classify_from_times(
      kDims, {100, 200}, {1.0, 0.85}, 0.10);
  EXPECT_TRUE(strong.anomaly);
}

TEST(Classifier, ScoresAlwaysInUnitInterval) {
  support::Rng rng(5);
  for (int t = 0; t < 500; ++t) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 6));
    std::vector<long long> flops;
    std::vector<double> times;
    for (std::size_t i = 0; i < n; ++i) {
      flops.push_back(rng.uniform_int(1, 1000));
      times.push_back(rng.uniform(0.001, 10.0));
    }
    const InstanceResult r =
        classify_from_times(kDims, flops, times, 0.10);
    ASSERT_GE(r.time_score, 0.0);
    ASSERT_LE(r.time_score, 1.0);
    ASSERT_GE(r.flop_score, 0.0);
    ASSERT_LE(r.flop_score, 1.0);
    // Definitional property: anomaly implies positive time score and
    // disjoint sets; non-anomaly with intersecting sets has zero scores.
    if (r.anomaly) {
      ASSERT_GT(r.time_score, 0.10);
    }
  }
}

TEST(Classifier, SizeMismatchRejected) {
  EXPECT_THROW(classify_from_times(kDims, {1, 2}, {1.0}, 0.1),
               support::CheckError);
  EXPECT_THROW(classify_from_times(kDims, {}, {}, 0.1),
               support::CheckError);
}

TEST(Classifier, NonPositiveTimesRejected) {
  EXPECT_THROW(classify_from_times(kDims, {1, 2}, {0.0, 1.0}, 0.1),
               support::CheckError);
  // A NaN is rejected wherever it stands, not only as the first time.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(classify_from_times(kDims, {1, 2}, {1.0, nan}, 0.1),
               support::CheckError);
  EXPECT_THROW(classify_from_times(kDims, {1, 2}, {nan, 1.0}, 0.1),
               support::CheckError);
}

TEST(ClassifyInstance, PopulatesPerStepTimes) {
  model::SimulatedMachine machine;
  expr::AatbFamily family;
  const auto r =
      anomaly::classify_instance(family, machine, {80, 100, 120}, 0.10);
  ASSERT_EQ(r.times.size(), 5u);
  ASSERT_EQ(r.step_times.size(), 5u);
  EXPECT_EQ(r.step_times[1].size(), 3u);  // SYRK + tricopy + GEMM
  for (std::size_t i = 0; i < r.times.size(); ++i) {
    double sum = 0.0;
    for (double t : r.step_times[i]) {
      sum += t;
    }
    EXPECT_NEAR(sum, r.times[i], 1e-12);
  }
}

TEST(ClassifyInstance, FlatMachineNeverProducesAnomalies) {
  // On a machine where every kernel runs at identical efficiency and there
  // is no overhead, coupling or noise, time is proportional to FLOPs, so
  // the cheapest algorithm is always fastest.
  model::SimulatedMachineConfig cfg;
  cfg.efficiency = model::EfficiencyParams::flat(0.8);
  cfg.jitter = 0.0;
  cfg.enable_coupling = false;
  cfg.call_overhead = 0.0;
  model::SimulatedMachine machine(cfg);
  expr::AatbFamily aatb;
  expr::ChainFamily chain(4);

  support::Rng rng(31);
  for (int t = 0; t < 100; ++t) {
    expr::Instance dims3 = {rng.uniform_int(20, 1200),
                            rng.uniform_int(20, 1200),
                            rng.uniform_int(20, 1200)};
    ASSERT_FALSE(
        anomaly::classify_instance(aatb, machine, dims3, 0.0).anomaly);

    expr::Instance dims5(5);
    for (auto& d : dims5) {
      d = rng.uniform_int(20, 1200);
    }
    ASSERT_FALSE(
        anomaly::classify_instance(chain, machine, dims5, 0.0).anomaly);
  }
}

TEST(ClassifyInstancePredicted, UsesIsolatedBenchmarks) {
  model::SimulatedMachineConfig cfg;
  cfg.jitter = 0.0;
  model::SimulatedMachine machine(cfg);
  expr::AatbFamily family;
  const expr::Instance dims = {90, 110, 130};
  const auto predicted =
      anomaly::classify_instance_predicted(family, machine, dims, 0.05);
  const auto algs = family.algorithms(dims);
  for (std::size_t i = 0; i < algs.size(); ++i) {
    EXPECT_NEAR(predicted.times[i],
                machine.predict_time_from_benchmarks(algs[i]), 1e-15);
  }
}

TEST(ClassifyInstancePredicted, DiffersFromMeasuredUnderCoupling) {
  // With coupling on, measured times are below benchmark sums for
  // consuming steps; the two classifications can disagree.
  model::SimulatedMachine machine;
  expr::AatbFamily family;
  const expr::Instance dims = {90, 110, 130};
  const auto measured =
      anomaly::classify_instance(family, machine, dims, 0.05);
  const auto predicted =
      anomaly::classify_instance_predicted(family, machine, dims, 0.05);
  for (std::size_t i = 0; i < measured.times.size(); ++i) {
    EXPECT_LE(measured.times[i], predicted.times[i] * 1.02);
  }
}

// ------------------------------------------------- the classification core

/// The families the core is checked on: the four the serving benchmark
/// mixes and the largest chain (5,040 algorithms).
constexpr const char* kCoreFamilies[] = {"aatb", "chain4", "gram", "aatbc",
                                         "chain8"};

/// The default simulated machine, and a flat one: every kernel at one
/// efficiency with no noise, overhead or coupling, so time follows FLOPs and
/// algorithms of equal FLOP counts tie.
std::vector<model::SimulatedMachineConfig> core_machines() {
  model::SimulatedMachineConfig flat;
  flat.efficiency = model::EfficiencyParams::flat();
  flat.jitter = 0.0;
  flat.enable_coupling = false;
  flat.call_overhead = 0.0;
  return {model::SimulatedMachineConfig{}, flat};
}

expr::Instance random_instance(const expr::ExpressionFamily& family,
                               support::Rng& rng) {
  expr::Instance dims(static_cast<std::size_t>(family.dimension_count()));
  for (int& d : dims) {
    d = rng.uniform_int(20, 1200);
  }
  return dims;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_same_verdict(const anomaly::Verdict& got,
                         const anomaly::Verdict& want,
                         const std::string& where) {
  EXPECT_EQ(got.anomaly, want.anomaly) << where;
  EXPECT_EQ(got.fastest, want.fastest) << where;
  EXPECT_EQ(got.cheapest, want.cheapest) << where;
  EXPECT_EQ(bits(got.time_score), bits(want.time_score)) << where;
  EXPECT_EQ(bits(got.flop_score), bits(want.flop_score)) << where;
}

/// What an InstanceResult says, in Verdict form.
anomaly::Verdict verdict_of(const InstanceResult& r) {
  return anomaly::Verdict{r.anomaly, r.fastest.front(), r.cheapest.front(),
                          r.time_score, r.flop_score};
}

/// The paper's definitions applied directly to an InstanceResult's times and
/// FLOP counts: the oracle for both the sets and the verdict.
anomaly::Verdict definitional_verdict(const InstanceResult& r,
                                      double threshold) {
  const std::vector<std::size_t> fastest = support::argmin_set(r.times, 1e-12);
  const long long f_min = *std::min_element(r.flops.begin(), r.flops.end());
  std::vector<std::size_t> cheapest;
  for (std::size_t i = 0; i < r.flops.size(); ++i) {
    if (r.flops[i] == f_min) {
      cheapest.push_back(i);
    }
  }
  EXPECT_EQ(r.fastest, fastest);
  EXPECT_EQ(r.cheapest, cheapest);
  double t_cheapest = std::numeric_limits<double>::infinity();
  bool shared = false;
  for (const std::size_t c : cheapest) {
    t_cheapest = std::min(t_cheapest, r.times[c]);
    shared = shared ||
             std::find(fastest.begin(), fastest.end(), c) != fastest.end();
  }
  long long f_fastest = std::numeric_limits<long long>::max();
  for (const std::size_t f : fastest) {
    f_fastest = std::min(f_fastest, r.flops[f]);
  }
  anomaly::Verdict v;
  v.fastest = fastest.front();
  v.cheapest = cheapest.front();
  v.time_score = (t_cheapest - support::min_value(r.times)) / t_cheapest;
  v.flop_score = static_cast<double>(f_fastest - f_min) /
                 static_cast<double>(f_fastest);
  v.anomaly = !shared && v.time_score > threshold;
  return v;
}

TEST(Classify, CoreMatchesTheInstanceResultsBitForBit) {
  constexpr int kInstances = 200;
  constexpr double kMeasuredThreshold = 0.10;
  constexpr double kPredictedThreshold = 0.05;
  for (const model::SimulatedMachineConfig& cfg : core_machines()) {
    model::SimulatedMachine machine(cfg);
    for (const char* name : kCoreFamilies) {
      const auto family = expr::make_family(name);
      support::Rng rng(0xC0DE);
      std::vector<model::Algorithm> algs;
      anomaly::ClassifyScratch scratch;
      for (int i = 0; i < kInstances; ++i) {
        const expr::Instance dims = random_instance(*family, rng);
        const std::string where = std::string(name) + " on " +
                                  (cfg.jitter > 0.0 ? "default" : "flat") +
                                  ", instance " + std::to_string(i);
        family->bind(dims, algs);

        const anomaly::Verdict measured =
            anomaly::classify(algs, machine, anomaly::Timing::kInContext,
                              kMeasuredThreshold, scratch);
        const InstanceResult r = anomaly::classify_instance(
            *family, machine, dims, kMeasuredThreshold);
        expect_same_verdict(measured, verdict_of(r), where);
        expect_same_verdict(measured,
                            definitional_verdict(r, kMeasuredThreshold),
                            where + " (definition)");
        EXPECT_EQ(scratch.flops, r.flops) << where;
        EXPECT_EQ(scratch.times, r.times) << where;

        const anomaly::Verdict predicted =
            anomaly::classify(algs, machine, anomaly::Timing::kIsolated,
                              kPredictedThreshold, scratch);
        const InstanceResult p = anomaly::classify_instance_predicted(
            *family, machine, dims, kPredictedThreshold);
        expect_same_verdict(predicted, verdict_of(p), where + " (isolated)");
        expect_same_verdict(predicted,
                            definitional_verdict(p, kPredictedThreshold),
                            where + " (isolated, definition)");
        EXPECT_EQ(scratch.times, p.times) << where;
        if (HasFailure()) {
          return;  // one instance's report is enough
        }
      }
    }
  }
}

TEST(Classify, ReusedScratchAndStepBufferDoNotAllocate) {
  model::SimulatedMachine machine;
  for (const char* name : kCoreFamilies) {
    const auto family = expr::make_family(name);
    support::Rng rng(17);
    std::vector<model::Algorithm> algs;
    anomaly::ClassifyScratch scratch;
    for (int i = 0; i < 8; ++i) {
      family->bind(random_instance(*family, rng), algs);
      const std::uint64_t before = lamb::testing::thread_alloc_count();
      anomaly::classify(algs, machine, anomaly::Timing::kInContext, 0.10,
                        scratch);
      anomaly::classify(algs, machine, anomaly::Timing::kIsolated, 0.05,
                        scratch);
      const std::uint64_t spent = lamb::testing::thread_alloc_count() - before;
      if (i > 0) {  // the first instance grows the scratch
        EXPECT_EQ(spent, 0u) << name << " instance " << i;
      }
    }
    std::size_t longest = 0;
    for (const model::Algorithm& alg : algs) {
      longest = std::max(longest, alg.steps().size());
    }
    std::vector<double> buffer(longest);
    const std::uint64_t before = lamb::testing::thread_alloc_count();
    for (const model::Algorithm& alg : algs) {
      machine.time_steps_into(
          alg, std::span<double>(buffer.data(), alg.steps().size()));
    }
    EXPECT_EQ(lamb::testing::thread_alloc_count() - before, 0u) << name;
  }
}

}  // namespace

// ExperimentDriver: parallel batched evaluation must reproduce the serial
// reference implementations bit-for-bit, and parallelism must only engage
// when the machine declares its timing entry points thread-safe.
#include <gtest/gtest.h>

#include <algorithm>

#include "anomaly/driver.hpp"
#include "anomaly/prediction.hpp"
#include "anomaly/region.hpp"
#include "anomaly/search.hpp"
#include "expr/registry.hpp"
#include "model/simulated_machine.hpp"
#include "scripted.hpp"

namespace {

using namespace lamb;
using anomaly::DriverConfig;
using anomaly::ExperimentDriver;

DriverConfig parallel_config() {
  DriverConfig cfg;
  cfg.threads = 4;  // force real workers even on single-core CI hosts
  cfg.batch_size = 16;
  return cfg;
}

TEST(ExperimentDriver, ConstructsFromRegistryName) {
  model::SimulatedMachine machine;
  ExperimentDriver driver("aatb", machine, parallel_config());
  EXPECT_EQ(driver.family().name(), "aatb");
  EXPECT_TRUE(driver.parallel_enabled());
}

TEST(ExperimentDriver, UnknownFamilyNameThrows) {
  model::SimulatedMachine machine;
  EXPECT_THROW(ExperimentDriver("nope", machine), support::CheckError);
}

TEST(ExperimentDriver, ParallelDisabledForUnsafeMachines) {
  // The base-class default declares timing entry points thread-unsafe.
  class UnsafeMachine final : public model::MachineModel {
   public:
    std::string name() const override { return "unsafe"; }
    double peak_flops() const override { return 1.0e9; }
    void time_steps_into(const model::Algorithm&,
                         std::span<double> out) override {
      std::fill(out.begin(), out.end(), 1.0);
    }
    double time_call_isolated(const model::KernelCall&) override {
      return 1.0;
    }
  };
  UnsafeMachine machine;
  EXPECT_FALSE(machine.concurrent_timing_safe());
  ExperimentDriver driver("aatb", machine, parallel_config());
  EXPECT_FALSE(driver.parallel_enabled());
}

TEST(ExperimentDriver, ClassifyBatchMatchesSerialClassification) {
  model::SimulatedMachine machine;
  ExperimentDriver driver("aatb", machine, parallel_config());
  std::vector<expr::Instance> batch;
  support::Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    batch.push_back({rng.uniform_int(20, 400), rng.uniform_int(20, 400),
                     rng.uniform_int(20, 400)});
  }
  const auto results = driver.classify_batch(batch, 0.10);
  ASSERT_EQ(results.size(), batch.size());
  model::SimulatedMachine reference_machine;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto expected = anomaly::classify_instance(
        driver.family(), reference_machine, batch[i], 0.10);
    EXPECT_EQ(results[i].anomaly, expected.anomaly) << i;
    EXPECT_EQ(results[i].times, expected.times) << i;
    EXPECT_EQ(results[i].flops, expected.flops) << i;
  }
}

TEST(ExperimentDriver, ParallelSearchReproducesSerialSearch) {
  // The determinism contract: for a fixed seed the batched parallel search
  // returns exactly the serial result — same sample count, same anomalies,
  // in the same order.
  for (const char* family_name : {"aatb", "chain4"}) {
    model::SimulatedMachine serial_machine;
    anomaly::RandomSearchConfig cfg;
    cfg.target_anomalies = 8;
    cfg.max_samples = 50000;
    cfg.seed = 42;
    const auto serial = anomaly::random_search(
        *expr::make_family(family_name), serial_machine, cfg);

    model::SimulatedMachine machine;
    ExperimentDriver driver(family_name, machine, parallel_config());
    ASSERT_TRUE(driver.parallel_enabled());
    const auto parallel = driver.random_search(cfg);

    EXPECT_EQ(parallel.samples, serial.samples) << family_name;
    ASSERT_EQ(parallel.anomalies.size(), serial.anomalies.size())
        << family_name;
    for (std::size_t i = 0; i < serial.anomalies.size(); ++i) {
      EXPECT_EQ(parallel.anomalies[i].dims, serial.anomalies[i].dims);
      EXPECT_EQ(parallel.anomalies[i].time_score,
                serial.anomalies[i].time_score);
      EXPECT_EQ(parallel.anomalies[i].flop_score,
                serial.anomalies[i].flop_score);
    }
  }
}

TEST(ExperimentDriver, ParallelSearchRespectsSampleBudget) {
  model::SimulatedMachine machine;
  ExperimentDriver driver("chain4", machine, parallel_config());
  anomaly::RandomSearchConfig cfg;
  cfg.target_anomalies = 1000000;  // unreachable
  cfg.max_samples = 100;
  cfg.seed = 9;
  const auto result = driver.random_search(cfg);
  EXPECT_EQ(result.samples, 100);
}

TEST(ExperimentDriver, ObserverSeesEverySampleInOrder) {
  model::SimulatedMachine machine;
  ExperimentDriver driver("aatb", machine, parallel_config());
  anomaly::RandomSearchConfig cfg;
  cfg.target_anomalies = 3;
  cfg.max_samples = 20000;
  cfg.seed = 5;
  long long expected_next = 1;
  const auto result = driver.random_search(
      cfg, [&](long long sample, const anomaly::InstanceResult&) {
        EXPECT_EQ(sample, expected_next);
        ++expected_next;
      });
  EXPECT_EQ(expected_next, result.samples + 1);
}

TEST(ExperimentDriver, TraversalsMatchSerialReference) {
  auto family = std::make_unique<lamb::testing::ScriptedFamily>();
  lamb::testing::ScriptedMachine machine;
  machine.window_lo = 200;
  machine.window_hi = 400;
  machine.holes = {260, 270};

  lamb::testing::ScriptedFamily serial_family;
  lamb::testing::ScriptedMachine serial_machine;
  serial_machine.window_lo = 200;
  serial_machine.window_hi = 400;
  serial_machine.holes = {260, 270};

  anomaly::TraversalConfig cfg;
  cfg.lo = 20;
  cfg.hi = 600;

  ExperimentDriver driver(std::move(family), machine, parallel_config());
  ASSERT_TRUE(driver.parallel_enabled());
  const auto lines = driver.traverse_all_lines({300}, cfg);
  const auto expected = anomaly::traverse_all_lines(
      serial_family, serial_machine, {300}, cfg);
  ASSERT_EQ(lines.size(), expected.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].boundary_lo, expected[i].boundary_lo);
    EXPECT_EQ(lines[i].boundary_hi, expected[i].boundary_hi);
    EXPECT_EQ(lines[i].thickness(), expected[i].thickness());
    ASSERT_EQ(lines[i].samples.size(), expected[i].samples.size());
  }
}

TEST(ExperimentDriver, TraverseRegionsFlattensAnomalyByDimension) {
  model::SimulatedMachine machine;
  ExperimentDriver driver("aatb", machine, parallel_config());
  anomaly::RandomSearchConfig search_cfg;
  search_cfg.target_anomalies = 2;
  search_cfg.max_samples = 20000;
  const auto found = driver.random_search(search_cfg);
  ASSERT_EQ(found.anomalies.size(), 2u);

  anomaly::TraversalConfig cfg;
  cfg.time_score_threshold = 0.05;
  const auto lines = driver.traverse_regions(found.anomalies, cfg);
  ASSERT_EQ(lines.size(), 2u * 3u);
  for (std::size_t a = 0; a < 2; ++a) {
    for (int d = 0; d < 3; ++d) {
      const auto& line = lines[a * 3 + static_cast<std::size_t>(d)];
      EXPECT_EQ(line.dim, d);
      EXPECT_EQ(line.origin, found.anomalies[a].dims);
    }
  }
}

TEST(ExperimentDriver, PredictionMatchesSerialReference) {
  auto family = std::make_unique<lamb::testing::ScriptedFamily>();
  lamb::testing::ScriptedMachine machine;
  machine.isolated_window_lo = 220;  // prediction diverges from truth
  machine.isolated_window_hi = 380;

  lamb::testing::ScriptedFamily serial_family;
  lamb::testing::ScriptedMachine serial_machine;
  serial_machine.isolated_window_lo = 220;
  serial_machine.isolated_window_hi = 380;

  anomaly::TraversalConfig cfg;
  cfg.lo = 20;
  cfg.hi = 600;
  const auto lines = anomaly::traverse_all_lines(serial_family,
                                                 serial_machine, {300}, cfg);
  const auto expected = anomaly::predict_from_benchmarks(
      serial_family, serial_machine, lines, 0.05);

  ExperimentDriver driver(std::move(family), machine, parallel_config());
  const auto got = driver.predict_from_benchmarks(lines, 0.05);
  EXPECT_EQ(got.confusion.tp, expected.confusion.tp);
  EXPECT_EQ(got.confusion.tn, expected.confusion.tn);
  EXPECT_EQ(got.confusion.fp, expected.confusion.fp);
  EXPECT_EQ(got.confusion.fn, expected.confusion.fn);
  ASSERT_EQ(got.samples.size(), expected.samples.size());
  for (std::size_t i = 0; i < got.samples.size(); ++i) {
    EXPECT_EQ(got.samples[i].dims, expected.samples[i].dims);
    EXPECT_EQ(got.samples[i].predicted, expected.samples[i].predicted);
    EXPECT_EQ(got.samples[i].actual, expected.samples[i].actual);
  }
}

}  // namespace

// serve/drift.hpp: the drift monitor must detect a shifted machine through
// the injectable measure hook, rebuild every stale slice exactly once
// through the refresh swap (in-flight readers keep valid pointers and never
// see a stale-marked, unrefreshed slice), advance the drift/refresh
// counters, and persist/reload its baseline. A query that starts after a
// refresh returned never answers from the replaced generation.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "serve/drift.hpp"
#include "serve/selection_service.hpp"
#include "scripted.hpp"
#include "store/profile_io.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace {

using namespace lamb;
using serve::DriftConfig;
using serve::DriftMonitor;
using serve::DriftStats;
using serve::Query;
using serve::Recommendation;
using serve::SelectionService;

std::string temp_dir() {
  static int counter = 0;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("lamb_drift_test_" + std::to_string(::getpid()) + "_" +
        std::to_string(counter++)))
          .string();
  std::filesystem::create_directories(dir);
  return dir;
}

serve::ServiceConfig service_config() {
  serve::ServiceConfig cfg;
  cfg.atlas.lo = 20;
  cfg.atlas.hi = 1200;
  cfg.atlas.coarse_step = 40;
  cfg.threads = 2;
  return cfg;
}

expr::FamilyRegistry scripted_registry() {
  expr::FamilyRegistry registry;
  registry.add("scripted", "test double", [] {
    return std::make_unique<lamb::testing::ScriptedFamily>();
  });
  // A second name for the same family: a cheap way to get a second atlas
  // slice (the scripted family is one-dimensional, so all its non-exact
  // queries share a single slice per family name).
  registry.add("scripted2", "test double, second slice", [] {
    return std::make_unique<lamb::testing::ScriptedFamily>();
  });
  return registry;
}

DriftConfig fast_config() {
  DriftConfig cfg;
  cfg.probes = 6;
  cfg.threshold = 0.15;
  cfg.nodes = {32, 64, 128};
  return cfg;
}

/// A measure hook whose output scales with an externally controlled
/// multiplier: 1.0 = the baseline machine, 2.0 = everything twice as slow.
DriftMonitor::MeasureFn scaled_hook(const std::atomic<double>& scale) {
  return [&scale](const model::KernelCall& call) {
    return scale.load() * (1.0 + 1e-6 * static_cast<double>(call.m));
  };
}

TEST(DriftMonitor, NoDriftMeansNoRefresh) {
  lamb::testing::ScriptedMachine machine;
  auto registry = scripted_registry();
  SelectionService service(machine, service_config(), &registry);
  service.warm({Query{"scripted", {300}, 0, false}});

  std::atomic<double> scale{1.0};
  DriftMonitor monitor(service, machine, fast_config());
  monitor.set_measure_hook(scaled_hook(scale));

  EXPECT_FALSE(monitor.check_once());  // establishes the baseline
  EXPECT_FALSE(monitor.check_once());

  const DriftStats d = monitor.stats();
  EXPECT_EQ(d.checks, 2u);
  EXPECT_EQ(d.drift_detected, 0u);
  EXPECT_EQ(d.refresh_rounds, 0u);
  EXPECT_EQ(d.slices_refreshed, 0u);
  EXPECT_LT(d.last_score, 0.01);
  EXPECT_EQ(d.last_refresh_age_seconds, -1.0);
  EXPECT_GT(d.probe_measurements, 0u);
  EXPECT_EQ(service.stats().refresh_rounds, 0u);
}

TEST(DriftMonitor, ShiftedTimingsRefreshExactlyOnce) {
  lamb::testing::ScriptedMachine machine;
  auto registry = scripted_registry();
  SelectionService service(machine, service_config(), &registry);
  service.warm({Query{"scripted", {300}, 0, false},
                Query{"scripted2", {500}, 0, false}});
  ASSERT_EQ(service.atlas_count(), 2u);

  std::atomic<double> scale{1.0};
  DriftMonitor monitor(service, machine, fast_config());
  monitor.set_measure_hook(scaled_hook(scale));
  EXPECT_FALSE(monitor.check_once());  // baseline at scale 1.0

  scale.store(2.0);  // 100% relative error >> 15% threshold
  EXPECT_TRUE(monitor.check_once());

  DriftStats d = monitor.stats();
  EXPECT_EQ(d.drift_detected, 1u);
  EXPECT_EQ(d.refresh_rounds, 1u);
  EXPECT_EQ(d.slices_refreshed, 2u);
  EXPECT_GT(d.last_score, 0.5);
  EXPECT_GE(d.last_refresh_age_seconds, 0.0);

  const serve::ServiceStats s = service.stats();
  EXPECT_EQ(s.refresh_rounds, 1u);
  EXPECT_EQ(s.slices_refreshed, 2u);

  // The monitor re-baselined on the shifted machine: the same shift must
  // NOT trigger a second refresh round on the next check.
  EXPECT_FALSE(monitor.check_once());
  d = monitor.stats();
  EXPECT_EQ(d.drift_detected, 1u);
  EXPECT_EQ(d.refresh_rounds, 1u);
  EXPECT_EQ(service.stats().refresh_rounds, 1u);
}

TEST(DriftMonitor, RefreshRebuildsAgainstCurrentTimings) {
  // The point of the refresh: after the machine's anomaly window moves, a
  // refreshed atlas must answer like a fresh scan of the new machine —
  // and in-flight raw atlas pointers from before the swap stay valid.
  lamb::testing::ScriptedMachine machine;
  machine.window_lo = 200;
  machine.window_hi = 400;
  auto registry = scripted_registry();
  SelectionService service(machine, service_config(), &registry);

  const Query inside{"scripted", {300}, 0, false};   // old window: anomalous
  const Query outside{"scripted", {900}, 0, false};  // both windows: clean
  service.warm({inside});

  const anomaly::RegionAtlas* before = service.atlas_for(inside);
  ASSERT_NE(before, nullptr);
  EXPECT_TRUE(before->lookup(300).anomalous);

  machine.window_lo = 800;  // the machine moved
  machine.window_hi = 1000;
  EXPECT_EQ(service.refresh_slices(), 1u);

  // The old atlas object is retired, not freed: the raw pointer still
  // answers (with the old generation's view).
  EXPECT_TRUE(before->lookup(300).anomalous);

  const anomaly::RegionAtlas* after = service.atlas_for(inside);
  ASSERT_NE(after, nullptr);
  EXPECT_NE(before, after);
  EXPECT_FALSE(after->lookup(300).anomalous);
  EXPECT_TRUE(after->lookup(900).anomalous);

  // Served answers follow the new generation (the LRU was cleared).
  EXPECT_TRUE(service.query(inside).flops_reliable);
  EXPECT_FALSE(service.query(outside).flops_reliable);
}

TEST(DriftMonitor, ConcurrentReadersAcrossRefreshSeeCompleteGenerations) {
  // Readers hammer query() while refresh rounds swap generations under
  // them: every answer must match the old or the new generation exactly —
  // never a torn or stale-marked, unrefreshed slice. (TSan covers the
  // memory-order side of this in CI.)
  lamb::testing::ScriptedMachine machine;
  auto registry = scripted_registry();
  SelectionService service(machine, service_config(), &registry);
  const Query probe{"scripted", {300}, 0, false};
  service.warm({probe});

  const Recommendation old_gen = service.query(probe);
  machine.window_lo = 800;  // moves {300} out of the anomaly window
  machine.window_hi = 1000;
  // New-generation expectation, computed on an independent service.
  auto registry2 = scripted_registry();
  SelectionService reference(machine, service_config(), &registry2);
  const Recommendation new_gen = reference.query(probe);
  ASSERT_FALSE(old_gen == new_gen);

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const Recommendation rec = service.query(probe);
        if (!(rec == old_gen) && !(rec == new_gen)) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (int round = 0; round < 5; ++round) {
    service.refresh_slices();
  }
  stop.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(service.stats().refresh_rounds, 5u);
  EXPECT_TRUE(service.query(probe) == new_gen);
}

TEST(DriftMonitor, QueriesRacingRefreshesNeverServeAReplacedGeneration) {
  // Readers answer random points of one line, through an LRU that holds
  // about half of them, while refresh rounds move the machine's anomaly
  // window through three positions along the line. A query that starts
  // after round r returned must answer from generation r, or from r + 1 if
  // that round swapped meanwhile. An answer read from a replaced atlas
  // and stored after the round's LRU clear would still be served as a cache
  // hit; inside a window, a point's answer differs from its answers at the
  // other two positions, so such a hit shows.
  const int windows[3][2] = {{20, 400}, {420, 800}, {820, 1200}};
  const auto move_to = [&](lamb::testing::ScriptedMachine& m, int round) {
    m.window_lo = windows[round % 3][0];
    m.window_hi = windows[round % 3][1];
  };
  std::vector<Query> line;
  for (int c = 25; c <= 1195; c += 10) {
    line.push_back(Query{"scripted", {c}, 0, false});
  }
  // Each position's answers, from services built on the moved machine.
  std::vector<Recommendation> want[3];
  for (int g = 0; g < 3; ++g) {
    lamb::testing::ScriptedMachine reference_machine;
    move_to(reference_machine, g);
    auto reference_registry = scripted_registry();
    SelectionService reference(reference_machine, service_config(),
                               &reference_registry);
    for (const Query& q : line) {
      want[g].push_back(reference.query(q));
    }
  }
  // A stale answer from position g shows where it differs from both others.
  for (int g = 0; g < 3; ++g) {
    std::size_t telling = 0;
    for (std::size_t i = 0; i < line.size(); ++i) {
      telling += !(want[g][i] == want[(g + 1) % 3][i]) &&
                         !(want[g][i] == want[(g + 2) % 3][i])
                     ? 1
                     : 0;
    }
    ASSERT_GE(telling, line.size() / 4) << "position " << g;
  }

  lamb::testing::ScriptedMachine machine;
  move_to(machine, 0);
  auto registry = scripted_registry();
  serve::ServiceConfig cfg = service_config();
  cfg.cache_capacity = line.size() / 2;
  cfg.cache_shards = 2;
  SelectionService service(machine, cfg, &registry);
  service.warm({line.front()});

  std::atomic<int> completed{0};  // refresh rounds returned
  std::atomic<bool> stop{false};
  std::atomic<int> stale{0};
  std::atomic<long> checked{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      support::Rng rng(static_cast<std::uint64_t>(r) + 1);
      while (!stop.load()) {
        const std::size_t i = rng.bounded(line.size());
        const int start = completed.load();
        const Recommendation rec = service.query(line[i]);
        if (completed.load() != start) {
          continue;  // a whole round ran meanwhile: any generation is fine
        }
        checked.fetch_add(1);
        if (!(rec == want[start % 3][i]) &&
            !(rec == want[(start + 1) % 3][i])) {
          stale.fetch_add(1);
        }
      }
    });
  }
  constexpr int kRounds = 300;
  for (int round = 1; round <= kRounds; ++round) {
    move_to(machine, round);
    service.refresh_slices();
    completed.store(round);
  }
  stop.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(stale.load(), 0) << "of " << checked.load() << " answers checked";
  EXPECT_GT(checked.load(), kRounds);
  EXPECT_EQ(service.stats().refresh_rounds,
            static_cast<std::uint64_t>(kRounds));
}

TEST(DriftMonitor, RefreshWithNoSlicesIsANoOp) {
  lamb::testing::ScriptedMachine machine;
  auto registry = scripted_registry();
  SelectionService service(machine, service_config(), &registry);
  EXPECT_EQ(service.refresh_slices(), 0u);
  EXPECT_EQ(service.stats().refresh_rounds, 1u);
  EXPECT_EQ(service.stats().slices_refreshed, 0u);
}

TEST(DriftMonitor, BaselinePersistsAcrossMonitors) {
  lamb::testing::ScriptedMachine machine;
  auto registry = scripted_registry();
  SelectionService service(machine, service_config(), &registry);

  const std::string dir = temp_dir();
  DriftConfig cfg = fast_config();
  cfg.baseline_path = dir + "/baseline.lamb";

  std::atomic<double> scale{1.0};
  {
    DriftMonitor first(service, machine, cfg);
    first.set_measure_hook(scaled_hook(scale));
    first.check_once();
    EXPECT_FALSE(first.stats().baseline_loaded);  // measured, not loaded
  }
  ASSERT_TRUE(std::filesystem::exists(cfg.baseline_path));

  // A second monitor adopts the persisted baseline — drift is judged
  // against the ORIGINAL timings, so a shift that happened between the two
  // monitors' lifetimes is still caught.
  scale.store(2.0);
  DriftMonitor second(service, machine, cfg);
  second.set_measure_hook(scaled_hook(scale));
  EXPECT_TRUE(second.check_once());
  EXPECT_TRUE(second.stats().baseline_loaded);
  EXPECT_EQ(second.stats().refresh_rounds, 1u);
}

TEST(DriftMonitor, CorruptBaselineIsRemeasuredNotFatal) {
  lamb::testing::ScriptedMachine machine;
  auto registry = scripted_registry();
  SelectionService service(machine, service_config(), &registry);

  const std::string dir = temp_dir();
  DriftConfig cfg = fast_config();
  cfg.baseline_path = dir + "/baseline.lamb";
  {
    std::ofstream out(cfg.baseline_path, std::ios::binary);
    out << "not a baseline file";
  }

  std::atomic<double> scale{1.0};
  DriftMonitor monitor(service, machine, cfg);
  monitor.set_measure_hook(scaled_hook(scale));
  EXPECT_FALSE(monitor.check_once());
  EXPECT_FALSE(monitor.stats().baseline_loaded);
  // The rewrite replaced the corrupt file with a valid one.
  EXPECT_NO_THROW(store::load_drift_baseline(cfg.baseline_path));
}

TEST(DriftMonitor, MismatchedBaselineGridIsIgnored) {
  lamb::testing::ScriptedMachine machine;
  auto registry = scripted_registry();
  SelectionService service(machine, service_config(), &registry);

  const std::string dir = temp_dir();
  DriftConfig cfg = fast_config();
  cfg.baseline_path = dir + "/baseline.lamb";
  {
    DriftMonitor first(service, machine, cfg);
    std::atomic<double> scale{1.0};
    first.set_measure_hook(scaled_hook(scale));
    first.check_once();
  }

  DriftConfig other = cfg;
  other.nodes = {48, 96};  // different probe grid: baseline must not match
  std::atomic<double> scale{1.0};
  DriftMonitor second(service, machine, other);
  second.set_measure_hook(scaled_hook(scale));
  second.check_once();
  EXPECT_FALSE(second.stats().baseline_loaded);
}

TEST(DriftMonitor, BackgroundThreadChecksAndStops) {
  lamb::testing::ScriptedMachine machine;
  auto registry = scripted_registry();
  SelectionService service(machine, service_config(), &registry);

  DriftConfig cfg = fast_config();
  cfg.check_interval_seconds = 0.01;
  std::atomic<double> scale{1.0};
  DriftMonitor monitor(service, machine, cfg);
  monitor.set_measure_hook(scaled_hook(scale));

  EXPECT_FALSE(monitor.running());
  monitor.start();
  monitor.start();  // idempotent
  EXPECT_TRUE(monitor.running());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (monitor.stats().checks == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(monitor.stats().checks, 0u);

  monitor.stop();
  monitor.stop();  // idempotent
  EXPECT_FALSE(monitor.running());
}

TEST(DriftMonitor, ConfigValidation) {
  lamb::testing::ScriptedMachine machine;
  auto registry = scripted_registry();
  SelectionService service(machine, service_config(), &registry);

  DriftConfig bad = fast_config();
  bad.probes = 0;
  EXPECT_THROW(DriftMonitor(service, machine, bad), support::CheckError);
  bad = fast_config();
  bad.threshold = 0.0;
  EXPECT_THROW(DriftMonitor(service, machine, bad), support::CheckError);
  bad = fast_config();
  bad.nodes = {64};
  EXPECT_THROW(DriftMonitor(service, machine, bad), support::CheckError);
}

}  // namespace

// support/fault.hpp and everything threaded through it: the registry's
// deterministic firing rules, store read/write faults (crash-window
// durability, quarantine-then-rewarm), the serve tier's graceful
// degradation (fallback answers, per-slice circuit breaker, bounded async
// queue), drift-monitor survival, and the HTTP tier's shed/deadline/
// connection-fault behaviour. Every site fires at least once somewhere in
// this suite, and the whole file runs under ASan and TSan (the TSan job
// additionally exports LAMB_NET_TEST_LOOPS=2 so the served tests exercise
// the multi-reactor paths).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "model/simulated_machine.hpp"
#include "net/client.hpp"
#include "net/routes.hpp"
#include "net/server.hpp"
#include "scripted.hpp"
#include "serve/drift.hpp"
#include "serve/selection_service.hpp"
#include "store/atlas_io.hpp"
#include "store/atlas_store.hpp"
#include "store/serial.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"

namespace {

using namespace lamb;
using serve::Query;
using serve::Recommendation;
using serve::SelectionService;
using serve::ServiceConfig;
using serve::Source;
using support::FaultScope;
using support::FaultSite;
using support::fault_injected;

std::string temp_dir() {
  static int counter = 0;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("lamb_fault_test_" + std::to_string(::getpid()) + "_" +
        std::to_string(counter++)))
          .string();
  std::filesystem::create_directories(dir);
  return dir;
}

ServiceConfig fast_config() {
  ServiceConfig cfg;
  cfg.atlas.lo = 20;
  cfg.atlas.hi = 1200;
  cfg.atlas.coarse_step = 40;
  cfg.threads = 2;
  return cfg;
}

/// Wait until `pred` holds, bounded (sanitizer runs are slow).
template <typename Pred>
bool wait_for(Pred pred, double seconds = 10.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

// -------------------------------------------------------------- registry

TEST(FaultRegistry, DisabledByDefaultWithZeroCounters) {
  support::fault_disarm_all();
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(support::fault_fire(FaultSite::kBuildSlice));
    EXPECT_EQ(support::fault_value(FaultSite::kBuildDelayMs), 0u);
  }
  EXPECT_EQ(support::fault_injected_total(), 0u);
}

TEST(FaultRegistry, AlwaysModeFiresEveryCallUntilDisarmed) {
  FaultScope fault("build.slice=always");
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(support::fault_fire(FaultSite::kBuildSlice));
  }
  EXPECT_EQ(fault_injected(FaultSite::kBuildSlice), 5u);
  // Other sites are untouched.
  EXPECT_FALSE(support::fault_fire(FaultSite::kStoreRead));
  EXPECT_EQ(fault_injected(FaultSite::kStoreRead), 0u);
}

TEST(FaultRegistry, EveryNthFiresOnDeterministicOrdinals) {
  FaultScope fault("store.read=1/3");
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) {
    fired.push_back(support::fault_fire(FaultSite::kStoreRead));
  }
  // First call fires, then every third.
  EXPECT_EQ(fired, (std::vector<bool>{true, false, false, true, false, false,
                                      true, false, false}));
  EXPECT_EQ(fault_injected(FaultSite::kStoreRead), 3u);
}

TEST(FaultRegistry, ProbabilityModeIsSeedDeterministic) {
  const auto pattern = [](std::uint64_t seed) {
    FaultScope fault("net.write=0.3", seed);
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      fired.push_back(support::fault_fire(FaultSite::kNetWrite));
    }
    return fired;
  };
  const std::vector<bool> a = pattern(7);
  const std::vector<bool> b = pattern(7);
  EXPECT_EQ(a, b);  // same seed => bit-identical schedule
  EXPECT_NE(a, pattern(8));
  const auto fires = static_cast<std::size_t>(
      std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires, 20u);   // ~60 expected at p=0.3 over 200 calls
  EXPECT_LT(fires, 120u);
}

TEST(FaultRegistry, AfterSkipsAndLimitStops) {
  FaultScope fault("build.slice=always:after=2:limit=3");
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) {
    fired.push_back(support::fault_fire(FaultSite::kBuildSlice));
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, true, false,
                                      false, false}));
  EXPECT_EQ(fault_injected(FaultSite::kBuildSlice), 3u);
}

TEST(FaultRegistry, ValueSiteCarriesThePayload) {
  FaultScope fault("build.delay_ms=25:limit=2");
  EXPECT_EQ(support::fault_value(FaultSite::kBuildDelayMs), 25u);
  EXPECT_EQ(support::fault_value(FaultSite::kBuildDelayMs), 25u);
  EXPECT_EQ(support::fault_value(FaultSite::kBuildDelayMs), 0u);
}

TEST(FaultRegistry, MalformedSpecsThrow) {
  EXPECT_THROW(support::fault_arm("nonsense.site=always"),
               support::CheckError);
  EXPECT_THROW(support::fault_arm("build.slice=sometimes"),
               support::CheckError);
  EXPECT_THROW(support::fault_arm("build.slice=always:bogus=1"),
               support::CheckError);
  EXPECT_THROW(support::fault_arm("build.slice"), support::CheckError);
  support::fault_disarm_all();
}

TEST(FaultRegistry, FaultScopeRestoresThePreviousArming) {
  FaultScope outer("build.slice=always");
  EXPECT_TRUE(support::fault_fire(FaultSite::kBuildSlice));
  {
    FaultScope inner("store.read=always");
    // Arming replaces the whole registry: only the inner site fires now.
    EXPECT_TRUE(support::fault_fire(FaultSite::kStoreRead));
    EXPECT_FALSE(support::fault_fire(FaultSite::kBuildSlice));
  }
  // The outer spec is re-armed (with fresh counters) on inner destruction.
  EXPECT_TRUE(support::fault_fire(FaultSite::kBuildSlice));
  EXPECT_FALSE(support::fault_fire(FaultSite::kStoreRead));
  EXPECT_EQ(fault_injected(FaultSite::kBuildSlice), 1u);
}

// ----------------------------------------------------------------- store

TEST(FaultStore, ReadFaultSurfacesAsSerialError) {
  model::SimulatedMachine machine;
  SelectionService service(machine, fast_config());
  service.query(Query{"aatb", {300, 260, 549}, 0, false});
  store::AtlasStore atlas_store(temp_dir());
  ASSERT_EQ(service.checkpoint(atlas_store), 1u);
  const std::string path = atlas_store.list().front();
  {
    FaultScope fault("store.read=always");
    EXPECT_THROW((void)store::load_atlas(path), store::SerialError);
    EXPECT_GE(fault_injected(FaultSite::kStoreRead), 1u);
  }
  EXPECT_NO_THROW((void)store::load_atlas(path));
}

TEST(FaultStore, QuarantineThenRewarmRestoresAHealthyStore) {
  const std::string dir = temp_dir();
  model::SimulatedMachine machine;
  const ServiceConfig cfg = fast_config();
  const Query q0{"aatb", {300, 260, 549}, 0, false};
  const Query q1{"aatb", {80, 300, 768}, 1, false};

  SelectionService first(machine, cfg);
  const Recommendation want0 = first.query(q0);
  const Recommendation want1 = first.query(q1);
  store::AtlasStore atlas_store(dir);
  ASSERT_EQ(first.checkpoint(atlas_store), 2u);
  const std::string victim = atlas_store.list().front();

  // Bit-rot one record, then warm: the bad file is quarantined (renamed +
  // journaled), the good one adopted, nothing thrown.
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(24);
    f.put('\xFF');
  }
  SelectionService second(machine, cfg);
  EXPECT_EQ(second.warm_from_store(atlas_store), 1u);
  EXPECT_EQ(second.stats().atlases_quarantined, 1u);
  EXPECT_FALSE(std::filesystem::exists(victim));
  EXPECT_TRUE(std::filesystem::exists(dir + "/quarantine.journal"));

  // Serving is unaffected: the lost slice rebuilds on demand with the same
  // payload, and a re-checkpoint makes the store whole again.
  EXPECT_EQ(second.query(q0), want0);
  EXPECT_EQ(second.query(q1), want1);
  EXPECT_EQ(second.checkpoint(atlas_store), 2u);
  SelectionService third(machine, cfg);
  EXPECT_EQ(third.warm_from_store(atlas_store), 2u);
  EXPECT_EQ(third.stats().atlases_quarantined, 0u);
}

// ----------------------------------------------------------------- serve

TEST(FaultServe, TotalBuildFailureDegradesEveryEntryPointToFallback) {
  model::SimulatedMachine machine;
  ServiceConfig cfg = fast_config();
  cfg.degrade_on_failure = true;
  SelectionService service(machine, cfg);
  FaultScope fault("build.slice=always");

  const Query q{"aatb", {300, 260, 549}, 0, false};
  const Recommendation rec = service.query(q);
  EXPECT_EQ(rec.source, Source::kFallback);
  EXPECT_EQ(rec.algorithm, rec.flop_minimal);  // analytical ranking
  EXPECT_TRUE(rec.flops_reliable);
  EXPECT_EQ(rec.time_score, 0.0);

  const std::vector<Query> batch = {
      Query{"aatb", {300, 260, 549}, 0, false},
      Query{"aatb", {80, 300, 768}, 1, false},
      Query{"aatb", {500, 514, 200}, 2, false},
  };
  for (const Recommendation& r : service.query_batch(batch)) {
    EXPECT_EQ(r.source, Source::kFallback);
  }

  auto fut = service.query_async(Query{"aatb", {700, 260, 549}, 0, false});
  EXPECT_EQ(fut.get().source, Source::kFallback);

  EXPECT_EQ(service.stats().degraded_answers, 5u);
  EXPECT_EQ(service.atlas_count(), 0u);
  EXPECT_GE(fault_injected(FaultSite::kBuildSlice), 1u);
}

TEST(FaultServe, WarmCountsOnlyTheSlicesItObtained) {
  // With degrade_on_failure a failed build returns no atlas: warm() must
  // not report that slice as warmed.
  model::SimulatedMachine machine;
  ServiceConfig cfg = fast_config();
  cfg.degrade_on_failure = true;
  SelectionService service(machine, cfg);
  const std::vector<Query> queries = {
      Query{"aatb", {300, 260, 549}, 0, false},
      Query{"aatb", {80, 300, 768}, 1, false},
  };
  {
    FaultScope fault("build.slice=always");
    EXPECT_EQ(service.warm(queries), 0u);
    EXPECT_EQ(service.atlas_count(), 0u);
    EXPECT_EQ(fault_injected(FaultSite::kBuildSlice), 2u);
  }
  {
    FaultScope fault("build.slice=always:limit=1");
    EXPECT_EQ(service.warm(queries), 1u);  // one of the two builds fails
    EXPECT_EQ(service.atlas_count(), 1u);
  }
  EXPECT_EQ(service.warm(queries), 1u);  // the slice still missing
  EXPECT_EQ(service.atlas_count(), 2u);
  EXPECT_EQ(service.warm(queries), 0u);  // nothing left to warm
}

TEST(FaultServe, BuildFailurePropagatesWithoutDegrade) {
  model::SimulatedMachine machine;
  SelectionService service(machine, fast_config());  // degrade off (default)
  FaultScope fault("build.slice=always");
  EXPECT_THROW(service.query(Query{"aatb", {300, 260, 549}, 0, false}),
               std::runtime_error);
}

TEST(FaultServe, AllocFaultDegradesLikeAnyBuildFailure) {
  model::SimulatedMachine machine;
  ServiceConfig cfg = fast_config();
  cfg.degrade_on_failure = true;
  SelectionService service(machine, cfg);
  FaultScope fault("alloc.build=always:limit=1");
  EXPECT_EQ(service.query(Query{"aatb", {300, 260, 549}, 0, false}).source,
            Source::kFallback);
  EXPECT_EQ(fault_injected(FaultSite::kAllocBuild), 1u);
}

TEST(FaultServe, RecoveryIsAutomaticOnceFaultsClear) {
  model::SimulatedMachine machine;
  ServiceConfig cfg = fast_config();
  cfg.degrade_on_failure = true;
  cfg.breaker_threshold = 0;  // isolate the no-cache property from the breaker
  SelectionService service(machine, cfg);
  const Query q{"aatb", {300, 260, 549}, 0, false};

  FaultScope fault("build.slice=always:limit=2");
  EXPECT_EQ(service.query(q).source, Source::kFallback);
  EXPECT_EQ(service.query(q).source, Source::kFallback);
  // Fallback answers are never cached, so the first post-fault query builds
  // and serves from the atlas; the next one hits the LRU.
  EXPECT_EQ(service.query(q).source, Source::kAtlas);
  EXPECT_EQ(service.query(q).source, Source::kCache);
  EXPECT_EQ(service.stats().degraded_answers, 2u);
}

TEST(FaultServe, WarmAnswersAreByteIdenticalWithInjectionArmedButQuiet) {
  model::SimulatedMachine machine_a;
  model::SimulatedMachine machine_b;
  SelectionService clean(machine_a, fast_config());
  SelectionService armed(machine_b, fast_config());

  std::vector<Query> queries;
  for (int d0 = 100; d0 <= 900; d0 += 200) {
    queries.push_back(Query{"aatb", {d0, 260, 549}, 0, false});
    queries.push_back(Query{"aatb", {80, d0, 768}, 1, false});
  }
  const auto want = clean.query_batch(queries);

  // Armed but never firing (after= pushes the first fire out of reach):
  // every fault_fire() on the hot path takes the armed branch, yet the
  // answers must stay bit-identical to the never-armed service.
  {
    FaultScope fault(
        "build.slice=always:after=1000000000,"
        "store.read=always:after=1000000000");
    const auto got = armed.query_batch(queries);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << i;
      EXPECT_EQ(got[i].source, want[i].source) << i;
    }
    EXPECT_EQ(support::fault_injected_total(), 0u);
  }
  // And again with the registry fully disarmed.
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(armed.query(queries[i]), want[i]) << i;
  }
}

TEST(FaultServe, BreakerOpensHalfOpensAndClosesWithBackoff) {
  model::SimulatedMachine machine;
  ServiceConfig cfg = fast_config();
  cfg.degrade_on_failure = true;
  cfg.breaker_threshold = 2;
  cfg.breaker_backoff_initial_s = 0.05;  // jittered to at most 0.075s
  SelectionService service(machine, cfg);
  const Query q{"aatb", {300, 260, 549}, 0, false};

  FaultScope fault("build.slice=always:limit=2");
  EXPECT_EQ(service.query(q).source, Source::kFallback);  // failure 1
  EXPECT_EQ(service.query(q).source, Source::kFallback);  // failure 2: opens
  EXPECT_EQ(service.stats().breaker_opens, 1u);
  {
    const auto states = service.breaker_states();
    ASSERT_EQ(states.size(), 1u);
    EXPECT_EQ(states[0].state, 1.0);  // open
    EXPECT_EQ(states[0].consecutive_failures, 2);
    EXPECT_EQ(states[0].slice, "aatb:d0:0.260.549");
  }
  // The fault budget is exhausted, so a build NOW would succeed — the only
  // thing standing between this query and an atlas answer is the open
  // breaker. Fallback here proves the breaker is gating builds.
  EXPECT_EQ(service.query(q).source, Source::kFallback);
  EXPECT_EQ(service.atlas_count(), 0u);

  // Backoff elapses: half-open. The next query is the probe build; it
  // succeeds and fully resets the breaker.
  ASSERT_TRUE(wait_for([&] {
    const auto states = service.breaker_states();
    return states.size() == 1 && states[0].state == 0.5;
  }));
  EXPECT_EQ(service.query(q).source, Source::kAtlas);
  EXPECT_TRUE(service.breaker_states().empty());
  EXPECT_EQ(service.query(q).source, Source::kCache);
}

TEST(FaultServe, BoundedAsyncQueueShedsNewBucketsToFallback) {
  model::SimulatedMachine machine;
  ServiceConfig cfg = fast_config();
  cfg.degrade_on_failure = true;
  cfg.max_build_queue = 1;
  SelectionService service(machine, cfg);

  // Stall the first background build long enough to stack the queue.
  FaultScope fault("build.delay_ms=300:limit=1");
  auto f1 = service.query_async(Query{"aatb", {300, 260, 549}, 0, false});
  // The worker pops the first bucket before building, so the queue is empty
  // again once the slow build is in flight.
  ASSERT_TRUE(wait_for([&] { return service.async_queue_depth() == 0; }));
  auto f2 = service.query_async(Query{"aatb", {80, 300, 768}, 1, false});
  ASSERT_EQ(service.async_queue_depth(), 1u);
  // A third distinct slice exceeds the bound: shed, resolved immediately.
  auto f3 = service.query_async(Query{"aatb", {500, 514, 200}, 2, false});
  EXPECT_EQ(f3.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f3.get().source, Source::kFallback);
  EXPECT_EQ(service.stats().builds_shed, 1u);

  // The queued work still completes normally.
  EXPECT_EQ(f1.get().source, Source::kAtlas);
  EXPECT_EQ(f2.get().source, Source::kAtlas);
}

TEST(FaultServe, AsyncWaitersOfAFailedBuildShareItsSingleAttempt) {
  model::SimulatedMachine machine;
  ServiceConfig cfg = fast_config();
  cfg.degrade_on_failure = true;
  cfg.breaker_threshold = 0;  // no breaker to cap the retries
  SelectionService service(machine, cfg);

  // The first build is slow and succeeds; every later one fails.
  FaultScope fault("build.delay_ms=300:limit=1,build.slice=always:after=1");
  auto first = service.query_async(Query{"aatb", {300, 260, 549}, 0, false});
  ASSERT_TRUE(wait_for([&] { return service.async_queue_depth() == 0; }));
  // While the worker is held, queue several waiters on one other slice:
  // one bucket, one build attempt, and that attempt fails.
  constexpr int kWaiters = 8;
  std::vector<std::future<Recommendation>> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.push_back(
        service.query_async(Query{"aatb", {80, 100 + 50 * i, 768}, 1, false}));
  }
  ASSERT_EQ(service.async_queue_depth(), 1u);

  EXPECT_EQ(first.get().source, Source::kAtlas);
  for (auto& waiter : waiters) {
    EXPECT_EQ(waiter.get().source, Source::kFallback);
  }
  EXPECT_EQ(fault_injected(FaultSite::kBuildSlice), 1u);
  EXPECT_EQ(service.stats().degraded_answers,
            static_cast<std::uint64_t>(kWaiters));
  EXPECT_EQ(service.stats().atlases_built, 1u);
}

// ----------------------------------------------------------------- drift

TEST(FaultDrift, MonitorSurvivesProbeFaultsAndRecovers) {
  model::SimulatedMachine machine;
  ServiceConfig cfg = fast_config();
  SelectionService service(machine, cfg);
  serve::DriftConfig drift_cfg;
  drift_cfg.check_interval_seconds = 0.02;
  drift_cfg.probes = 2;
  drift_cfg.nodes = {32, 64};
  serve::DriftMonitor monitor(service, machine, drift_cfg);
  monitor.set_measure_hook([](const model::KernelCall&) { return 1.0; });

  support::fault_arm("drift.probe=always:limit=3");
  monitor.start();
  // The background thread eats the injected probe failures (with backoff)
  // instead of dying...
  ASSERT_TRUE(wait_for([&] { return monitor.stats().check_failures >= 1; }));
  // ...and once the fault budget is exhausted, checks complete again.
  ASSERT_TRUE(wait_for([&] { return monitor.stats().checks >= 2; }));
  monitor.stop();
  support::fault_disarm_all();

  const serve::DriftStats stats = monitor.stats();
  EXPECT_GE(stats.check_failures, 1u);
  EXPECT_GE(stats.checks, 2u);
}

// ------------------------------------------------------------------- net

net::ServerConfig apply_test_loops(net::ServerConfig cfg) {
  if (cfg.loops == 0) {
    if (const char* env = std::getenv("LAMB_NET_TEST_LOOPS")) {
      const long n = std::strtol(env, nullptr, 10);
      if (n > 0) {
        cfg.loops = static_cast<std::size_t>(n);
      }
    }
  }
  return cfg;
}

/// A served scripted-family SelectionService with the robustness posture
/// the serving binary uses (degrade on), on an ephemeral port.
class ServedFixture {
 public:
  explicit ServedFixture(net::ServerConfig server_cfg = {},
                         net::SelectionRoutesConfig routes_cfg = {})
      : service_(machine_, degrading_config(), &registry_),
        routes_(service_, routes_cfg),
        server_(routes_.router(), apply_test_loops(std::move(server_cfg))) {
    routes_.attach_server(&server_);
    loop_ = std::thread([this] { server_.run(); });
  }

  ~ServedFixture() {
    if (loop_.joinable()) {
      server_.stop();
      loop_.join();
    }
  }

  static ServiceConfig degrading_config() {
    ServiceConfig cfg;
    cfg.atlas.lo = 20;
    cfg.atlas.hi = 1200;
    cfg.atlas.coarse_step = 40;
    cfg.threads = 2;
    cfg.degrade_on_failure = true;
    return cfg;
  }

  net::Client connect() { return net::Client("127.0.0.1", server_.port()); }
  net::Server& server() { return server_; }
  SelectionService& service() { return service_; }

 private:
  lamb::testing::ScriptedMachine machine_;
  expr::FamilyRegistry registry_ = [] {
    expr::FamilyRegistry r;
    r.add("scripted", "test double", [] {
      return std::make_unique<lamb::testing::ScriptedFamily>();
    });
    return r;
  }();
  SelectionService service_;
  net::SelectionRoutes routes_;
  net::Server server_;
  std::thread loop_;
};

TEST(FaultNet, TotalBuildFailureStillAnswersEveryRequestAsFallback) {
  ServedFixture served;
  FaultScope fault("build.slice=always");
  auto client = served.connect();

  // /v1/query: 200 with source=fallback — never a 500.
  const auto single = client.request("POST", "/v1/query", "scripted,300");
  EXPECT_EQ(single.status, 200);
  EXPECT_NE(single.body.find(",fallback"), std::string::npos) << single.body;

  // /v1/batch: every line degrades, same contract.
  const auto batch = client.request("POST", "/v1/batch",
                                    "scripted,100\nscripted,300\n"
                                    "scripted,700\n");
  EXPECT_EQ(batch.status, 200);
  std::size_t lines = 0;
  std::size_t start = 0;
  while (start < batch.body.size()) {
    std::size_t end = batch.body.find('\n', start);
    if (end == std::string::npos) {
      end = batch.body.size();
    }
    const std::string line = batch.body.substr(start, end - start);
    if (!line.empty()) {
      ++lines;
      EXPECT_NE(line.find(",fallback"), std::string::npos) << line;
    }
    start = end + 1;
  }
  EXPECT_EQ(lines, 3u);

  // The degradation is visible on /metrics.
  const auto metrics = client.request("GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("lamb_answers_degraded_total"),
            std::string::npos);
  EXPECT_NE(
      metrics.body.find("lamb_fault_injected_total{site=\"build.slice\"}"),
      std::string::npos);
}

TEST(FaultNet, ShedHookReturns503WithRetryAfterBeforeParsing) {
  net::ServerConfig cfg;
  cfg.shed_hook = [] { return true; };
  cfg.retry_after_s = 2;
  ServedFixture served(cfg);
  auto client = served.connect();
  const auto response = client.request("POST", "/v1/query", "scripted,300");
  EXPECT_EQ(response.status, 503);
  std::string retry_after;
  for (const net::Header& h : response.headers) {
    if (h.name == "Retry-After") {
      retry_after = h.value;
    }
  }
  EXPECT_EQ(retry_after, "2");
  EXPECT_FALSE(response.keep_alive);  // shed responses close the connection
  EXPECT_GE(served.server().stats().requests_shed, 1u);
}

TEST(FaultNet, SlowBuildHitsTheDeadlineThenRecovers) {
  net::SelectionRoutesConfig routes_cfg;
  routes_cfg.deadline_ms = 20.0;
  ServedFixture served({}, routes_cfg);
  auto client = served.connect();

  {
    FaultScope fault("build.delay_ms=400:limit=1");
    const auto response = client.request("POST", "/v1/query", "scripted,300");
    EXPECT_EQ(response.status, 504);
    // The stalled build keeps running behind the 504 and publishes its
    // slice when it finishes.
    ASSERT_TRUE(wait_for([&] { return served.service().atlas_count() == 1; }));
  }
  const auto response = client.request("POST", "/v1/query", "scripted,300");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.body.find("fallback"), std::string::npos);
}

TEST(FaultNet, AcceptFaultDropsConnectionsThenServiceResumes) {
  ServedFixture served;
  std::uint64_t dropped = 0;
  {
    FaultScope fault("net.accept=always:limit=2");
    // The TCP handshake completes (kernel backlog), but the reactor closes
    // the connection on accept; the client sees EOF on its first exchange.
    for (int i = 0; i < 2; ++i) {
      auto client = served.connect();
      EXPECT_THROW((void)client.request("GET", "/healthz"), net::NetError);
    }
    dropped = fault_injected(FaultSite::kNetAccept);
  }
  EXPECT_EQ(dropped, 2u);
  EXPECT_EQ(served.server().stats().accept_faults, 2u);
  auto client = served.connect();
  EXPECT_EQ(client.request("GET", "/healthz").status, 200);
}

TEST(FaultNet, WriteFaultResetsTheConnectionThenServiceResumes) {
  ServedFixture served;
  {
    FaultScope fault("net.write=always:limit=1");
    auto client = served.connect();
    EXPECT_THROW((void)client.request("GET", "/healthz"), net::NetError);
  }
  EXPECT_EQ(served.server().stats().write_faults, 1u);
  auto client = served.connect();
  EXPECT_EQ(client.request("GET", "/healthz").status, 200);
}

}  // namespace

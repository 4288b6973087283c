// obs/: the tracing subsystem's own guarantees — calibrated timestamps,
// sampling arithmetic, span-tree shape, torn-slot rejection under ring
// wraparound, the bounded slow log, and snapshot arithmetic. The serving
// integration (spans from real HTTP requests) lives in net_test/serve_test;
// here the tracer is driven directly.
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <thread>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/symm.hpp"
#include "blas/syrk.hpp"
#include "la/generators.hpp"
#include "obs/clock.hpp"
#include "obs/pmu.hpp"
#include "obs/trace.hpp"
#include "support/rng.hpp"

namespace {

using namespace lamb;

/// Every test owns the process-wide tracer for its duration: configure()
/// resets rings, histograms and counters, and the fixture guarantees the
/// tracer is off — and the PMU hooks uninstalled — afterwards so unrelated
/// tests stay uninstrumented.
class ObsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::TracerConfig off;
    off.enabled = false;
    obs::tracer().configure(off);
    obs::pmu_test_install_virtual(nullptr);
    obs::pmu_test_fail_open(0);
    ::unsetenv("LAMB_PMU");
    obs::pmu_reset_for_test();
  }
};

TEST_F(ObsTest, ClockIsMonotonic) {
  std::uint64_t prev = obs::now_ns();
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t now = obs::now_ns();
    ASSERT_GE(now, prev);
    prev = now;
  }
}

TEST_F(ObsTest, ClockTracksSteadyClock) {
  using SteadyClock = std::chrono::steady_clock;
  const std::uint64_t t0 = obs::now_ns();
  const SteadyClock::time_point s0 = SteadyClock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::uint64_t t1 = obs::now_ns();
  const SteadyClock::time_point s1 = SteadyClock::now();
  const double traced = static_cast<double>(t1 - t0) * 1e-9;
  const double steady =
      std::chrono::duration<double>(s1 - s0).count();
  // The TSC path is calibrated against steady_clock; whichever source is
  // active must agree with it to well under a sleep quantum.
  EXPECT_GT(traced, 0.5 * steady);
  EXPECT_LT(traced, 2.0 * steady + 0.005);
}

TEST_F(ObsTest, DisabledTracerIsInert) {
  obs::TracerConfig off;
  off.enabled = false;
  obs::Tracer& tracer = obs::tracer();
  tracer.configure(off);

  obs::RequestTrace trace = tracer.begin_request("/v1/query");
  EXPECT_FALSE(trace.started);
  EXPECT_EQ(trace.ctx.trace_id, 0u);
  {
    const obs::SpanScope span(obs::Stage::kRoute);
  }
  tracer.end_request(trace);

  EXPECT_TRUE(tracer.recent_spans().empty());
  const obs::TracerCounters counters = tracer.counters();
  EXPECT_EQ(counters.requests, 0u);
  EXPECT_EQ(counters.spans, 0u);
  const auto stages = tracer.stage_snapshots();
  for (const auto& snap : stages) {
    EXPECT_EQ(snap.count, 0u);
  }
}

TEST_F(ObsTest, SamplingArithmetic) {
  obs::TracerConfig cfg;
  cfg.enabled = true;
  cfg.sample_every = 4;
  obs::Tracer& tracer = obs::tracer();
  tracer.configure(cfg);

  const auto run_requests = [&tracer](int n) {
    for (int i = 0; i < n; ++i) {
      obs::RequestTrace trace = tracer.begin_request("/v1/query");
      tracer.end_request(trace);
    }
  };

  run_requests(16);  // 1-in-4: requests 0, 4, 8, 12
  obs::TracerCounters counters = tracer.counters();
  EXPECT_EQ(counters.requests, 16u);
  EXPECT_EQ(counters.sampled, 4u);

  tracer.set_sample_every(0);  // counters tier: histograms, no capture
  run_requests(8);
  counters = tracer.counters();
  EXPECT_EQ(counters.requests, 24u);
  EXPECT_EQ(counters.sampled, 4u);

  tracer.set_sample_every(1);  // full capture
  run_requests(4);
  counters = tracer.counters();
  EXPECT_EQ(counters.requests, 28u);
  EXPECT_EQ(counters.sampled, 8u);

  // The always-on tier saw every request regardless of sampling.
  const auto stages = tracer.stage_snapshots();
  EXPECT_EQ(stages[static_cast<std::size_t>(obs::Stage::kRequest)].count,
            28u);
}

TEST_F(ObsTest, SpanScopesFormATree) {
  obs::TracerConfig cfg;
  cfg.enabled = true;
  cfg.sample_every = 1;
  obs::Tracer& tracer = obs::tracer();
  tracer.configure(cfg);

  obs::RequestTrace trace = tracer.begin_request("/v1/query");
  ASSERT_TRUE(trace.started);
  ASSERT_TRUE(trace.ctx.sampled);
  const std::uint32_t root_id = trace.ctx.parent_span;
  {
    const obs::ContextGuard guard(trace.ctx);
    const obs::SpanScope route(obs::Stage::kRoute);
    {
      const obs::SpanScope build(obs::Stage::kBuild);
    }
  }
  tracer.end_request(trace);

  const std::vector<obs::SpanRecord> spans =
      tracer.collect_trace(trace.ctx.trace_id);
  ASSERT_EQ(spans.size(), 3u);
  std::map<obs::Stage, obs::SpanRecord> by_stage;
  for (const obs::SpanRecord& span : spans) {
    by_stage[span.stage] = span;
  }
  ASSERT_TRUE(by_stage.count(obs::Stage::kRequest));
  ASSERT_TRUE(by_stage.count(obs::Stage::kRoute));
  ASSERT_TRUE(by_stage.count(obs::Stage::kBuild));

  const obs::SpanRecord& request = by_stage[obs::Stage::kRequest];
  const obs::SpanRecord& route = by_stage[obs::Stage::kRoute];
  const obs::SpanRecord& build = by_stage[obs::Stage::kBuild];
  // Parent links: request is the root, route under it, build under route.
  EXPECT_EQ(request.span_id, root_id);
  EXPECT_EQ(request.parent_id, 0u);
  EXPECT_EQ(route.parent_id, request.span_id);
  EXPECT_EQ(build.parent_id, route.span_id);
  // Interval containment: children nest inside their parents on the shared
  // timeline even though the records came from ring readback.
  EXPECT_GE(route.t_start_ns, request.t_start_ns);
  EXPECT_LE(route.t_end_ns, request.t_end_ns);
  EXPECT_GE(build.t_start_ns, route.t_start_ns);
  EXPECT_LE(build.t_end_ns, route.t_end_ns);

  // The exit of the inner scopes restored the context's parent pointer.
  EXPECT_EQ(obs::current_context().trace_id, 0u);

  // The capture renders as Chrome trace-event JSON naming every stage.
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"request\""), std::string::npos);
  EXPECT_NE(json.find("\"route\""), std::string::npos);
  EXPECT_NE(json.find("\"build\""), std::string::npos);
}

TEST_F(ObsTest, GemmRecordsAKernelSpan) {
  obs::TracerConfig cfg;
  cfg.enabled = true;
  cfg.sample_every = 1;
  obs::Tracer& tracer = obs::tracer();
  tracer.configure(cfg);

  support::Rng rng(7);
  const la::Matrix a = la::random_matrix(48, 48, rng);
  const la::Matrix b = la::random_matrix(48, 48, rng);
  la::Matrix c(48, 48);

  obs::RequestTrace trace = tracer.begin_request("gemm");
  {
    const obs::ContextGuard guard(trace.ctx);
    blas::gemm(false, false, 1.0, a.view(), b.view(), 0.0, c.view());
  }
  tracer.end_request(trace);

  const std::vector<obs::SpanRecord> spans =
      tracer.collect_trace(trace.ctx.trace_id);
  bool found_kernel = false;
  for (const obs::SpanRecord& span : spans) {
    if (span.stage == obs::Stage::kKernel) {
      found_kernel = true;
      EXPECT_EQ(span.parent_id, trace.ctx.parent_span);
      EXPECT_GE(span.t_end_ns, span.t_start_ns);
    }
  }
  EXPECT_TRUE(found_kernel);
}

/// Kernel spans of one sampled trace around `work`.
template <typename Work>
std::vector<obs::SpanRecord> kernel_spans_of(Work&& work) {
  obs::TracerConfig cfg;
  cfg.enabled = true;
  cfg.sample_every = 1;
  obs::Tracer& tracer = obs::tracer();
  tracer.configure(cfg);
  obs::RequestTrace trace = tracer.begin_request("level3");
  {
    const obs::ContextGuard guard(trace.ctx);
    work();
  }
  tracer.end_request(trace);
  std::vector<obs::SpanRecord> kernels;
  for (const obs::SpanRecord& span : tracer.collect_trace(trace.ctx.trace_id)) {
    if (span.stage == obs::Stage::kKernel) {
      EXPECT_EQ(span.parent_id, trace.ctx.parent_span);
      kernels.push_back(span);
    }
  }
  return kernels;
}

// SYRK and SYMM each record one kernel span with the model's FLOP count
// (KernelCall::flops()), however many blocks the shape spans: n = 130 and
// m = 130 cross the mc = 128 row block.
TEST_F(ObsTest, SyrkRecordsOneKernelSpanWithModelFlops) {
  support::Rng rng(8);
  const la::Matrix a = la::random_matrix(130, 40, rng);
  la::Matrix c(130, 130);
  const std::vector<obs::SpanRecord> spans = kernel_spans_of(
      [&] { blas::syrk(1.0, a.view(), 0.0, c.view()); });
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].flops, 130ull * 131ull * 40ull);
}

TEST_F(ObsTest, SymmRecordsOneKernelSpanWithModelFlops) {
  support::Rng rng(9);
  const la::Matrix a = la::random_symmetric(130, rng);
  const la::Matrix b = la::random_matrix(130, 24, rng);
  la::Matrix c(130, 24);
  const std::vector<obs::SpanRecord> spans = kernel_spans_of(
      [&] { blas::symm(1.0, a.view(), b.view(), 0.0, c.view()); });
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].flops, 2ull * 130ull * 130ull * 24ull);
}

// Hammer a tiny ring from several writer threads while a reader scans it:
// wraparound overwrites constantly, and the per-slot seqlock must make the
// reader drop mid-overwrite slots rather than return a frankenspan. Every
// pushed record is self-consistent (t_start/t_end/parent derived from its
// trace_id), so any torn read is detectable.
TEST_F(ObsTest, RingWraparoundNeverTearsASpan) {
  obs::TracerConfig cfg;
  cfg.enabled = true;
  cfg.sample_every = 1;
  cfg.ring_capacity = 16;  // force constant wraparound
  obs::Tracer& tracer = obs::tracer();
  tracer.configure(cfg);

  constexpr int kWriters = 4;
  constexpr int kSpansPerWriter = 20000;
  constexpr std::uint32_t kParentTag = 42;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> torn{0};
  std::atomic<std::uint64_t> observed{0};

  std::thread reader([&] {
    // One guaranteed pass after `done`: the writers may outrun this
    // thread's startup entirely, and the residual ring must still be
    // checked.
    bool final_pass = false;
    for (;;) {
      if (done.load(std::memory_order_acquire)) {
        final_pass = true;
      }
      for (const obs::SpanRecord& span : tracer.recent_spans()) {
        observed.fetch_add(1, std::memory_order_relaxed);
        const bool consistent =
            span.parent_id == kParentTag &&
            span.t_start_ns == span.trace_id * 3 &&
            span.t_end_ns == span.t_start_ns + 7;
        if (!consistent) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (final_pass) {
        break;
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&tracer, w] {
      for (int i = 0; i < kSpansPerWriter; ++i) {
        obs::TraceContext ctx;
        ctx.trace_id = static_cast<std::uint64_t>(w) * kSpansPerWriter +
                       static_cast<std::uint64_t>(i) + 1;
        ctx.parent_span = kParentTag;
        ctx.sampled = true;
        tracer.record_span(ctx, obs::Stage::kBuild, ctx.trace_id * 3,
                           ctx.trace_id * 3 + 7);
      }
    });
  }
  for (std::thread& writer : writers) {
    writer.join();
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn.load(), 0u) << "reader returned a torn span";
  EXPECT_GT(observed.load(), 0u) << "reader never saw a committed span";
  // head counts every push even though the ring retains only the tail.
  EXPECT_EQ(tracer.counters().spans,
            static_cast<std::uint64_t>(kWriters) * kSpansPerWriter);
  // Post-join scan: all retained spans are committed and self-consistent.
  for (const obs::SpanRecord& span : tracer.recent_spans()) {
    EXPECT_EQ(span.parent_id, kParentTag);
    EXPECT_EQ(span.t_start_ns, span.trace_id * 3);
    EXPECT_EQ(span.t_end_ns, span.t_start_ns + 7);
  }
}

TEST_F(ObsTest, SlowLogIsBoundedAndKeepsNewest) {
  obs::TracerConfig cfg;
  cfg.enabled = true;
  cfg.sample_every = 1;
  cfg.slow_threshold_ns = 0;  // everything is "slow"
  cfg.slow_capacity = 2;
  obs::Tracer& tracer = obs::tracer();
  tracer.configure(cfg);

  for (int i = 0; i < 5; ++i) {
    obs::RequestTrace trace =
        tracer.begin_request(i % 2 == 0 ? "/v1/query" : "/v1/batch");
    tracer.end_request(trace);
  }

  const std::vector<obs::SlowTrace> slow = tracer.slow_traces();
  ASSERT_EQ(slow.size(), 2u);
  // Oldest-first readback of the newest two admissions (traces 4 and 5).
  EXPECT_LT(slow[0].trace_id, slow[1].trace_id);
  EXPECT_EQ(tracer.counters().slow, 5u);
  for (const obs::SlowTrace& entry : slow) {
    EXPECT_FALSE(entry.label.empty());
    EXPECT_FALSE(entry.spans.empty());  // the root span at minimum
  }
  const std::string json = tracer.slow_json();
  EXPECT_NE(json.find("\"trace_id\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
}

// ------------------------------------------------------------------- pmu

/// The virtual counter source: a test-controlled value feeding all five
/// counters, so scope deltas are exact arithmetic (no real hardware).
std::atomic<std::uint64_t> g_virtual_counter{0};
std::uint64_t virtual_counter() {
  return g_virtual_counter.load(std::memory_order_relaxed);
}

// LAMB_PMU=off must disable EVERY surface coherently: availability off
// with the reason in the status, scopes inert, sampled spans still
// well-formed but carrying no PMU deltas, stage totals all zero.
TEST_F(ObsTest, PmuOffDisablesEverySurfaceCoherently) {
  ::setenv("LAMB_PMU", "off", 1);
  obs::pmu_reset_for_test();

  EXPECT_FALSE(obs::pmu_available());
  EXPECT_NE(obs::pmu_status().find("LAMB_PMU=off"), std::string::npos);

  obs::PmuScope scope;
  scope.arm();
  EXPECT_FALSE(scope.armed());
  const obs::PmuSample sample = scope.finish();
  EXPECT_FALSE(sample.valid);
  EXPECT_EQ(sample.cycles, 0u);

  obs::TracerConfig cfg;
  cfg.enabled = true;
  cfg.sample_every = 1;
  obs::Tracer& tracer = obs::tracer();
  tracer.configure(cfg);
  obs::RequestTrace trace = tracer.begin_request("/v1/query");
  {
    const obs::ContextGuard guard(trace.ctx);
    const obs::SpanScope build(obs::Stage::kBuild);
  }
  tracer.end_request(trace);

  const std::vector<obs::SpanRecord> spans =
      tracer.collect_trace(trace.ctx.trace_id);
  ASSERT_EQ(spans.size(), 2u);  // spans still captured, tree intact
  for (const obs::SpanRecord& span : spans) {
    EXPECT_GE(span.t_end_ns, span.t_start_ns);
    EXPECT_FALSE(span.pmu.valid);
  }
  for (const obs::PmuStageTotals& totals : tracer.pmu_stage_totals()) {
    EXPECT_EQ(totals.samples, 0u);
    EXPECT_EQ(totals.cycles, 0u);
  }
}

TEST_F(ObsTest, PmuFailedOpenDegradesWithAParanoidHint) {
  obs::pmu_test_fail_open(EPERM);
  EXPECT_FALSE(obs::pmu_available());
  EXPECT_NE(obs::pmu_status().find("perf_event_paranoid"),
            std::string::npos);
  obs::PmuScope scope(/*arm_now=*/true);
  EXPECT_FALSE(scope.armed());
  EXPECT_FALSE(scope.finish().valid);

  // Restoring real opens re-probes from scratch — the cached verdict must
  // not stick past the hook (whatever the real probe then says).
  obs::pmu_test_fail_open(0);
  EXPECT_NE(obs::pmu_status(), "unprobed");
}

// The exclusive-attribution contract, exactly: entering a child freezes
// the parent, leaving it resumes, so each scope owns precisely the counts
// that advanced while it was the innermost armed scope.
TEST_F(ObsTest, NestedPmuScopesAttributeToTheInnermost) {
  obs::pmu_test_install_virtual(&virtual_counter);
  ASSERT_TRUE(obs::pmu_available());
  EXPECT_NE(obs::pmu_status().find("virtual"), std::string::npos);

  g_virtual_counter = 100;
  obs::PmuScope outer;
  outer.arm();
  ASSERT_TRUE(outer.armed());

  g_virtual_counter = 110;  // 10 counts belong to outer
  obs::PmuScope inner;
  inner.arm();

  g_virtual_counter = 125;  // 15 counts belong to inner
  const obs::PmuSample inner_sample = inner.finish();

  g_virtual_counter = 130;  // 5 more counts belong to outer
  const obs::PmuSample outer_sample = outer.finish();

  ASSERT_TRUE(inner_sample.valid);
  ASSERT_TRUE(outer_sample.valid);
  EXPECT_EQ(inner_sample.cycles, 15u);
  EXPECT_EQ(inner_sample.instructions, 15u);
  EXPECT_EQ(outer_sample.cycles, 15u);  // 10 before + 5 after the child
  EXPECT_EQ(outer_sample.instructions, 15u);
}

TEST_F(ObsTest, SampledSpansCarryPmuDeltasIntoTotalsAndJson) {
  obs::pmu_test_install_virtual(&virtual_counter);
  g_virtual_counter = 1000;

  obs::TracerConfig cfg;
  cfg.enabled = true;
  cfg.sample_every = 1;
  obs::Tracer& tracer = obs::tracer();
  tracer.configure(cfg);

  obs::RequestTrace trace = tracer.begin_request("/v1/query");
  {
    const obs::ContextGuard guard(trace.ctx);
    const obs::SpanScope build(obs::Stage::kBuild);
    g_virtual_counter += 40;
  }
  tracer.end_request(trace);

  const std::vector<obs::SpanRecord> spans =
      tracer.collect_trace(trace.ctx.trace_id);
  bool found_build = false;
  for (const obs::SpanRecord& span : spans) {
    if (span.stage == obs::Stage::kBuild) {
      found_build = true;
      ASSERT_TRUE(span.pmu.valid);
      EXPECT_EQ(span.pmu.cycles, 40u);
      EXPECT_EQ(span.pmu.instructions, 40u);
    }
  }
  EXPECT_TRUE(found_build);

  const auto totals = tracer.pmu_stage_totals();
  const auto& build_totals =
      totals[static_cast<std::size_t>(obs::Stage::kBuild)];
  EXPECT_EQ(build_totals.samples, 1u);
  EXPECT_EQ(build_totals.cycles, 40u);

  // The Chrome trace surfaces the deltas as span args.
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"ipc\""), std::string::npos);
}

TEST_F(ObsTest, SubtractSnapshotYieldsTheDelta) {
  support::LatencyHistogram histogram;
  histogram.record(1e-4);
  histogram.record(2e-3);
  const support::LatencyHistogram::Snapshot before = histogram.snapshot();
  histogram.record(5e-2);
  histogram.record(5e-2);
  histogram.record(1e-4);
  const support::LatencyHistogram::Snapshot after = histogram.snapshot();

  const support::LatencyHistogram::Snapshot delta =
      obs::subtract_snapshot(after, before);
  EXPECT_EQ(delta.count, 3u);
  EXPECT_NEAR(delta.sum_seconds, 5e-2 + 5e-2 + 1e-4, 1e-9);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t count : delta.counts) {
    bucket_total += count;
  }
  EXPECT_EQ(bucket_total, 3u);
}

}  // namespace

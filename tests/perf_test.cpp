// Tests for the timing, cache flush and measurement-protocol layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "perf/cache_flush.hpp"
#include "perf/machine_info.hpp"
#include "perf/measurement.hpp"
#include "perf/timer.hpp"
#include "support/check.hpp"

namespace {

using namespace lamb;

TEST(Timer, ElapsedIsNonNegativeAndGrows) {
  perf::Timer t;
  const double e1 = t.elapsed();
  EXPECT_GE(e1, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double e2 = t.elapsed();
  EXPECT_GT(e2, e1);
}

TEST(Timer, ResetRestartsClock) {
  perf::Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // Started before the reset and read after it: a restarted clock cannot
  // have run longer, however long the host stalls in between.
  const perf::Timer outer;
  t.reset();
  const double since_reset = t.elapsed();
  EXPECT_LE(since_reset, outer.elapsed());
}

TEST(NowSeconds, Monotonic) {
  const double a = perf::now_seconds();
  const double b = perf::now_seconds();
  EXPECT_GE(b, a);
}

TEST(CacheFlusher, FlushTouchesBuffer) {
  perf::CacheFlusher flusher(1u << 20);  // small buffer keeps the test fast
  EXPECT_EQ(flusher.bytes(), 1u << 20);
  flusher.flush();
  EXPECT_GT(flusher.sink(), 0.0);
  const double first = flusher.sink();
  flusher.flush();
  EXPECT_GT(flusher.sink(), first);  // read-modify-write accumulates
}

TEST(Measurement, CollectsRequestedRepetitions) {
  perf::CacheFlusher flusher(1u << 16);
  perf::MeasurementConfig cfg{/*repetitions=*/5, /*flush_cache=*/false};
  int calls = 0;
  const auto r = perf::measure([&] { ++calls; }, cfg, flusher);
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(r.samples.size(), 5u);
  EXPECT_GE(r.median_seconds, 0.0);
  EXPECT_LE(r.min_seconds, r.median_seconds);
  EXPECT_GE(r.max_seconds, r.median_seconds);
}

TEST(Measurement, ZeroRepetitionsRejected) {
  perf::CacheFlusher flusher(1u << 16);
  perf::MeasurementConfig cfg{0, false};
  EXPECT_THROW(perf::measure([] {}, cfg, flusher), support::CheckError);
}

TEST(Measurement, MedianIsRobustToOneSlowRun) {
  perf::CacheFlusher flusher(1u << 16);
  perf::MeasurementConfig cfg{5, false};
  int call = 0;
  const auto r = perf::measure(
      [&] {
        if (call++ == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      },
      cfg, flusher);
  // The median is the middle sample, so the single 20 ms outlier (sleep_for
  // sleeps at least that long) is the maximum and not the median.
  std::vector<double> sorted = r.samples;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(r.median_seconds, sorted[2]);
  EXPECT_GE(r.max_seconds, 0.020);
  EXPECT_LT(r.median_seconds, r.max_seconds);
}

TEST(MeasureSteps, PerStepAndTotalTimes) {
  perf::CacheFlusher flusher(1u << 16);
  perf::MeasurementConfig cfg{3, false};
  std::vector<std::function<void()>> steps = {
      [] { std::this_thread::sleep_for(std::chrono::microseconds(200)); },
      [] { std::this_thread::sleep_for(std::chrono::microseconds(800)); },
  };
  const auto r = perf::measure_steps(steps, cfg, flusher);
  ASSERT_EQ(r.median_step_seconds.size(), 2u);
  // sleep_for sleeps at least as long as asked; the step-1 bound also
  // catches swapped steps.
  EXPECT_GE(r.median_step_seconds[0], 200e-6);
  EXPECT_GE(r.median_step_seconds[1], 800e-6);
  EXPECT_GE(r.median_total_seconds, 1e-3);  // total covers both steps
}

TEST(MeasureSteps, EmptyStepsRejected) {
  perf::CacheFlusher flusher(1u << 16);
  perf::MeasurementConfig cfg{1, false};
  EXPECT_THROW(perf::measure_steps({}, cfg, flusher), support::CheckError);
}

TEST(MachineInfo, SaneDefaults) {
  const perf::MachineInfo info = perf::query_machine_info();
  EXPECT_GE(info.logical_cores, 1u);
  EXPECT_GT(info.l1_bytes, 0u);
  EXPECT_GT(info.llc_bytes, 0u);
  EXPECT_FALSE(info.to_string().empty());
}

TEST(PeakEstimate, PositiveAndPlausible) {
  const double peak = perf::estimate_peak_flops(nullptr);
  EXPECT_GT(peak, 1.0e6);    // faster than a 1987 workstation
  EXPECT_LT(peak, 1.0e15);   // slower than a petaflop from one core
}

}  // namespace

// Online drift detection and atlas refresh.
//
// A selection atlas encodes the machine's timing surface as measured at
// build time — but machines move: noisy neighbors, thermal throttling,
// frequency scaling. A recommendation that was right at warm-up can be
// stale after hours of uptime. DriftMonitor closes that loop:
//
//   1. At start it establishes a BASELINE — a GriddedProfile of isolated
//      GEMM timings over a small size grid (or loads one persisted earlier
//      through store/profile_io, so drift is judged against the timings the
//      atlases were actually built with, across process restarts).
//   2. Periodically (a background thread, or check_once() for callers who
//      own the cadence) it re-measures a seeded random sample of grid nodes
//      and computes a robust drift score: the MEDIAN relative error of the
//      re-measured timings against the stored baseline. The median makes a
//      single noisy probe harmless — drift means the middle of the
//      distribution moved, not one outlier.
//   3. When the score crosses the threshold, every published atlas slice is
//      stale: the monitor rebuilds them all through
//      SelectionService::refresh_slices() (one swap — readers never see
//      a stale-marked, unrefreshed slice; in-flight atlas_for() pointers
//      stay valid), then re-baselines on the machine's new
//      timings, so one real shift triggers exactly one refresh round.
//
// Every timing goes through a single measure hook, injectable for tests
// (shift the hook's output past the threshold and the whole pipeline —
// detection, refresh, counters — runs without touching real hardware).
// The monitor's counters surface on /metrics via SelectionRoutes::
// attach_drift (lamb_drift_* series).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "model/kernel_call.hpp"
#include "model/machine.hpp"
#include "model/perf_profile.hpp"
#include "serve/selection_service.hpp"
#include "support/rng.hpp"

namespace lamb::serve {

struct DriftConfig {
  /// Background check cadence (start()/stop() thread); check_once() callers
  /// may ignore it.
  double check_interval_seconds = 30.0;
  /// Grid nodes re-measured per check (sampled with the seeded rng).
  std::size_t probes = 12;
  /// Robust relative-error score at which the atlases are declared stale.
  double threshold = 0.15;
  std::uint64_t seed = 0x0D21F7;
  /// Per-axis GEMM probe sizes (m, n and k all draw from this list). Small
  /// by default: a check must cost milliseconds, not an atlas scan.
  std::vector<double> nodes = {32, 64, 128, 256};
  /// When set, the baseline profile is persisted here (framed, checksummed
  /// — store/profile_io) and reloaded on restart if it matches this machine
  /// and grid; drift is then measured against the original build-time
  /// timings, not a fresh warm-up.
  std::string baseline_path;
};

struct DriftStats {
  std::uint64_t checks = 0;           ///< check_once() completions
  std::uint64_t check_failures = 0;   ///< background checks that threw
  std::uint64_t probe_measurements = 0;
  std::uint64_t drift_detected = 0;   ///< checks whose score crossed threshold
  std::uint64_t refresh_rounds = 0;   ///< refresh rounds triggered
  std::uint64_t slices_refreshed = 0; ///< atlas slices rebuilt across rounds
  /// CPU cycles / instructions spent inside probe measurements, and cycles
  /// spent on refresh rounds (rebuild + re-baseline) — PMU-attributed via
  /// obs::PmuScope; all zero when the PMU is unavailable. These price the
  /// monitor itself: a refresh decision is annotated with what the
  /// evidence cost to gather.
  std::uint64_t probe_cycles = 0;
  std::uint64_t probe_instructions = 0;
  std::uint64_t refresh_cycles = 0;
  double last_score = 0.0;            ///< most recent robust drift score
  bool baseline_loaded = false;       ///< baseline came from baseline_path
  /// Seconds since the last completed refresh; -1 until the first one.
  double last_refresh_age_seconds = -1.0;
};

class DriftMonitor {
 public:
  /// Replaces MachineModel::time_call_isolated for every probe and baseline
  /// measurement. Tests inject timing shifts here.
  using MeasureFn = std::function<double(const model::KernelCall&)>;

  /// Service and machine must outlive the monitor. The baseline is NOT
  /// measured here — it is established lazily by the first check (or
  /// start()), after any test hook is in place.
  DriftMonitor(SelectionService& service, model::MachineModel& machine,
               DriftConfig config = {});
  ~DriftMonitor();  ///< stop()s the background thread if running

  DriftMonitor(const DriftMonitor&) = delete;
  DriftMonitor& operator=(const DriftMonitor&) = delete;

  const DriftConfig& config() const { return config_; }

  /// Install the measurement hook (null restores the real machine). Must
  /// not race an in-flight check: set it before start() or after stop().
  void set_measure_hook(MeasureFn hook);

  /// Launch the periodic background checker; idempotent.
  void start();
  /// Stop and join the background checker; idempotent, safe if never
  /// started.
  void stop();
  bool running() const;

  /// One synchronous check: establish/refresh the baseline if needed,
  /// re-measure a probe sample, score it, and — when the score crosses the
  /// threshold — refresh every atlas slice and re-baseline. Returns true
  /// when drift was detected. Serialised against the background thread.
  bool check_once();

  DriftStats stats() const;

 private:
  double measure(const model::KernelCall& call);
  /// Measure the full probe grid into a fresh baseline profile.
  model::GriddedProfile measure_baseline();
  /// Load (if compatible) or measure-and-save the baseline. Caller holds
  /// check_mutex_.
  void ensure_baseline();
  void save_baseline(const model::GriddedProfile& profile) const;
  void background_loop();

  SelectionService& service_;
  model::MachineModel& machine_;
  DriftConfig config_;

  /// Serialises checks (background vs manual) and baseline management.
  mutable std::mutex check_mutex_;
  MeasureFn hook_;
  std::optional<model::GriddedProfile> baseline_;
  support::Rng rng_;

  mutable std::mutex stats_mutex_;
  DriftStats stats_;  ///< guarded by stats_mutex_, as is last_refresh_
  std::optional<std::chrono::steady_clock::time_point> last_refresh_;

  mutable std::mutex thread_mutex_;
  std::condition_variable stop_cv_;
  std::thread thread_;
  bool stop_ = false;
};

}  // namespace lamb::serve

#include "serve/drift.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "obs/pmu.hpp"
#include "store/profile_io.hpp"
#include "store/serial.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"
#include "support/statistics.hpp"

namespace lamb::serve {

namespace {

void validate(const DriftConfig& cfg) {
  LAMB_CHECK(cfg.probes >= 1, "drift: need at least one probe per check");
  LAMB_CHECK(cfg.threshold > 0.0, "drift: threshold must be positive");
  LAMB_CHECK(cfg.check_interval_seconds > 0.0,
             "drift: check interval must be positive");
  LAMB_CHECK(cfg.nodes.size() >= 2, "drift: need at least two grid nodes");
  for (double node : cfg.nodes) {
    LAMB_CHECK(node >= 1.0, "drift: grid nodes must be >= 1");
  }
}

model::KernelCall probe_call(const std::vector<double>& nodes,
                             const std::vector<std::size_t>& idx) {
  const auto sz = [&](std::size_t d) {
    return static_cast<la::index_t>(nodes[idx[d]]);
  };
  return model::make_gemm(sz(0), sz(1), sz(2));
}

}  // namespace

DriftMonitor::DriftMonitor(SelectionService& service,
                           model::MachineModel& machine, DriftConfig config)
    : service_(service), machine_(machine), config_(std::move(config)),
      rng_(config_.seed) {
  validate(config_);
}

DriftMonitor::~DriftMonitor() { stop(); }

void DriftMonitor::set_measure_hook(MeasureFn hook) {
  const std::lock_guard<std::mutex> lock(check_mutex_);
  hook_ = std::move(hook);
}

double DriftMonitor::measure(const model::KernelCall& call) {
  {
    const std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.probe_measurements;
  }
  if (support::fault_fire(support::FaultSite::kDriftProbe)) {
    throw std::runtime_error("fault injected: drift.probe");
  }
  return hook_ ? hook_(call) : machine_.time_call_isolated(call);
}

model::GriddedProfile DriftMonitor::measure_baseline() {
  const std::vector<double>& nodes = config_.nodes;
  return model::GriddedProfile(
      {nodes, nodes, nodes}, [&](const std::vector<double>& c) {
        return measure(model::make_gemm(static_cast<la::index_t>(c[0]),
                                        static_cast<la::index_t>(c[1]),
                                        static_cast<la::index_t>(c[2])));
      });
}

void DriftMonitor::save_baseline(const model::GriddedProfile& profile) const {
  if (config_.baseline_path.empty()) {
    return;
  }
  store::save_drift_baseline(config_.baseline_path,
                             {machine_.name(), profile});
}

void DriftMonitor::ensure_baseline() {
  if (baseline_.has_value()) {
    return;
  }
  if (!config_.baseline_path.empty() &&
      std::filesystem::exists(config_.baseline_path)) {
    try {
      store::BaselineRecord record =
          store::load_drift_baseline(config_.baseline_path);
      const std::vector<std::vector<double>> want{config_.nodes, config_.nodes,
                                                  config_.nodes};
      if (record.machine == machine_.name() &&
          record.profile.axes() == want) {
        baseline_.emplace(std::move(record.profile));
        const std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.baseline_loaded = true;
        return;
      }
      // Another machine or another probe grid: re-measure below.
    } catch (const store::SerialError& e) {
      // A corrupt baseline must not take the monitor down — it just costs
      // a re-measure (and the rewrite replaces the bad file).
      std::fprintf(stderr, "drift: skipping baseline %s: %s\n",
                   config_.baseline_path.c_str(), e.what());
    }
  }
  baseline_.emplace(measure_baseline());
  save_baseline(*baseline_);
}

bool DriftMonitor::check_once() {
  const std::lock_guard<std::mutex> lock(check_mutex_);
  ensure_baseline();

  // Re-measure a seeded sample of grid nodes and score the drift as the
  // MEDIAN relative error against the stored baseline — robust: one noisy
  // probe cannot trigger a refresh, the middle of the distribution must
  // have moved. The whole probe pass runs under a PmuScope so the refresh
  // decision can be annotated with what the evidence cost to gather.
  obs::PmuScope probe_pmu(/*arm_now=*/true);
  const std::size_t per_axis = config_.nodes.size();
  std::vector<double> errors;
  errors.reserve(config_.probes);
  for (std::size_t p = 0; p < config_.probes; ++p) {
    std::vector<std::size_t> idx(3);
    for (std::size_t d = 0; d < 3; ++d) {
      idx[d] = static_cast<std::size_t>(rng_.bounded(per_axis));
    }
    const double expected = baseline_->node_value(idx);
    const double observed = measure(probe_call(config_.nodes, idx));
    if (expected > 0.0) {
      errors.push_back(std::fabs(observed - expected) / expected);
    }
  }
  const obs::PmuSample probe_cost = probe_pmu.finish();
  const double score =
      errors.empty() ? 0.0 : support::median(errors);
  const bool drifted = score > config_.threshold;
  {
    const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.checks;
    stats_.last_score = score;
    if (probe_cost.valid) {
      stats_.probe_cycles += probe_cost.cycles;
      stats_.probe_instructions += probe_cost.instructions;
    }
    if (drifted) {
      ++stats_.drift_detected;
    }
  }
  if (!drifted) {
    return false;
  }

  // The machine moved: every published slice is stale. Rebuild them all
  // (one swap of every slice — see SelectionService::refresh_slices), then
  // adopt the machine's new timings as the baseline so one real shift
  // triggers exactly one refresh round instead of one per check forever.
  obs::PmuScope refresh_pmu(/*arm_now=*/true);
  const std::size_t refreshed = service_.refresh_slices();
  baseline_.emplace(measure_baseline());
  save_baseline(*baseline_);
  const obs::PmuSample refresh_cost = refresh_pmu.finish();
  if (probe_cost.valid || refresh_cost.valid) {
    std::fprintf(stderr,
                 "drift: refresh at score %.4f (%zu slices; probes %llu "
                 "cycles ipc %.2f, refresh %llu cycles)\n",
                 score, refreshed,
                 static_cast<unsigned long long>(probe_cost.cycles),
                 probe_cost.ipc(),
                 static_cast<unsigned long long>(refresh_cost.cycles));
  } else {
    std::fprintf(stderr, "drift: refresh at score %.4f (%zu slices)\n",
                 score, refreshed);
  }
  {
    const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.refresh_rounds;
    stats_.slices_refreshed += refreshed;
    if (refresh_cost.valid) {
      stats_.refresh_cycles += refresh_cost.cycles;
    }
    last_refresh_ = std::chrono::steady_clock::now();
  }
  return true;
}

void DriftMonitor::background_loop() {
  const auto base = std::chrono::duration<double>(
      config_.check_interval_seconds);
  // Consecutive failures (a dead probe path, a machine that throws on every
  // timing) back the cadence off exponentially, capped at 16x, instead of
  // hammering a broken measurement stack at full rate; one success snaps
  // back to the configured interval.
  int consecutive_failures = 0;
  std::unique_lock<std::mutex> lock(thread_mutex_);
  while (!stop_) {
    const auto interval =
        base * static_cast<double>(1 << std::min(consecutive_failures, 4));
    if (stop_cv_.wait_for(lock, interval, [&] { return stop_; })) {
      return;
    }
    lock.unlock();
    try {
      check_once();
      consecutive_failures = 0;
    } catch (const std::exception& e) {
      // A failed check (a refresh build error, a probe fault) must not kill
      // the monitor; the next tick retries against the same baseline.
      ++consecutive_failures;
      {
        const std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.check_failures;
      }
      std::fprintf(stderr, "drift: check failed (%d in a row): %s\n",
                   consecutive_failures, e.what());
    }
    lock.lock();
  }
}

void DriftMonitor::start() {
  const std::lock_guard<std::mutex> lock(thread_mutex_);
  if (thread_.joinable()) {
    return;
  }
  stop_ = false;
  thread_ = std::thread([this] { background_loop(); });
}

void DriftMonitor::stop() {
  {
    const std::lock_guard<std::mutex> lock(thread_mutex_);
    if (!thread_.joinable()) {
      return;
    }
    stop_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
  const std::lock_guard<std::mutex> lock(thread_mutex_);
  thread_ = std::thread();
}

bool DriftMonitor::running() const {
  const std::lock_guard<std::mutex> lock(thread_mutex_);
  return thread_.joinable() && !stop_;
}

DriftStats DriftMonitor::stats() const {
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  DriftStats s = stats_;
  if (last_refresh_.has_value()) {
    s.last_refresh_age_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      *last_refresh_)
            .count();
  }
  return s;
}

}  // namespace lamb::serve

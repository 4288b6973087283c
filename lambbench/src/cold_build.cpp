// cold-build: one caller sends one query() per distinct atlas slice of a
// seeded sim::TraceGenerator stream (same four families as warm-serve) to
// a fresh SelectionService, so every answer scans its slice on the caller's
// thread: expression enumeration, SimulatedMachine timing and classification
// for each scan sample, then one copy-on-write snapshot publication.
//
// Why: this is the latency every cache miss and every drift refresh pays,
// and the only workload where expr, the simulated machine and the
// classifier do the work. It is also the writer side of the snapshot map,
// whose publication copies every slice already published, so a lookup
// change that slows publication shows here and not in warm-serve. It runs no
// BLAS, no store and no HTTP. setup_s = service construction.
#include <algorithm>
#include <map>
#include <thread>

#include "anomaly/classifier.hpp"
#include "expr/registry.hpp"
#include "model/simulated_machine.hpp"
#include "stream.hpp"
#include "support/str.hpp"

namespace lambbench {

namespace {

using lamb::serve::Query;
using lamb::serve::Recommendation;
using lamb::serve::SelectionService;

constexpr int kBasesPerFamily = 300;  // >1,000 slices (gram bases collide)
constexpr int kStreamRequests = 20000;  // touches every base w.h.p.
/// One pass on the reference host (4-vCPU Xeon KVM guest) while the other
/// replicas run theirs.
constexpr double kPassSeconds = 2.3;
/// Slices whose scan samples are re-timed call by call in the traced run.
constexpr std::size_t kSampleEvery = 16;
/// Concurrent identical callers in the untraced run (at most nproc - 1).
constexpr unsigned kMaxReplicas = 3;

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

lamb::serve::ServiceConfig service_config() {
  lamb::serve::ServiceConfig cfg;
  cfg.threads = host_threads();  // the refresh_slices() pool
  return cfg;
}

class ColdBuild {
 public:
  ColdBuild(const Options& options, Result& result)
      : options_(options), result_(result) {}

  void prepare() {
    stream_ = make_stream(serving_phase(kBasesPerFamily, kStreamRequests, 0.0,
                                        4, 0.0),
                          options_.seed, result_);
    for (std::uint32_t s = 0; s < stream_.slots.size(); ++s) {
      const Slot& slot = stream_.slots[s];
      queries_.push_back(stream_.query(
          s, slot.base[static_cast<std::size_t>(slot.dim)]));
      if (families_.find(slot.family) == families_.end()) {
        families_.emplace(slot.family, lamb::expr::make_family(slot.family));
      }
    }
    // Only the unit queries are inputs from here on.
    stream_.requests.clear();
    stream_.requests.shrink_to_fit();
    result_.input_bytes =
        stream_.bytes() + queries_.size() * (sizeof(Query) + 32);
    units_.assign(queries_.size(), 1);
  }

  /// One pass from identical state: a fresh service, then one cold query()
  /// per slice, each timed (or spanned when `log` is set) into `minima`.
  /// The first pass is checked against directly built atlases, later passes
  /// against the first. With `scan`, each query has a RegionAtlas built
  /// directly for its slice right beside it (before it on even slices,
  /// after on odd ones), so both samples see the same moment of the host
  /// and their difference is the service's own cost.
  double pass(UnitMinima& minima, SpanLog* log, Tally& tally,
              UnitMinima* scan = nullptr,
              lamb::serve::SelectionService** keep = nullptr) {
    const std::uint64_t s0 = now_ns();
    auto service = std::make_unique<SelectionService>(machine_,
                                                      service_config());
    const double setup_s = static_cast<double>(now_ns() - s0) * 1e-9;
    const std::uint32_t query_name = log ? log->intern("query") : 0;
    const std::uint32_t scan_name = log ? log->intern("RegionAtlas") : 0;
    const bool first = answers_.empty();
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      const auto direct_scan = [&] {
        const Slot& s = stream_.slots[i];
        run_unit(
            *scan, i, log, scan_name,
            [&] {
              return lamb::anomaly::RegionAtlas(*families_.at(s.family),
                                                machine_, s.base, s.dim,
                                                service_config().atlas);
            },
            [](const lamb::anomaly::RegionAtlas& a) {
              return static_cast<std::int64_t>(a.samples_used());
            });
      };
      if (scan != nullptr && i % 2 == 0) {
        direct_scan();
      }
      ++tally.attempted;
      Recommendation rec;
      try {
        rec = run_unit(
            minima, i, log, query_name,
            [&] { return service->query(queries_[i]); },
            [](const Recommendation& a) {
              return static_cast<std::int64_t>(a.source);
            });
        if (scan != nullptr && i % 2 == 1) {
          direct_scan();
        }
      } catch (const std::exception&) {
        ++tally.failed;
        if (first) {
          answers_.emplace_back();
        }
        continue;
      }
      if (first) {
        answers_.push_back(rec);
        mix_answer(result_, rec);
      } else if (!(rec == answers_[i])) {
        ++tally.failed;
      }
    }
    if (first) {
      tally.failed += check_first_pass();
      samples_ = service->stats().atlas_samples;
    }
    if (keep != nullptr) {
      *keep = service.get();
      kept_ = std::move(service);
    }
    return setup_s;
  }

  void untraced() {
    // One single-threaded pass fixes (and oracle-checks) the answers; then
    // up to kMaxReplicas identical callers, each with its own fresh
    // services, repeat the passes concurrently. Slow periods on different
    // vCPUs of the reference host correlate weakly, so every replica adds
    // chances of a quiet sample to each unit's minimum.
    const int replicas = static_cast<int>(
        std::clamp(host_threads() - 1, 1u, kMaxReplicas));
    const PassPlan plan(options_.seconds, kPassSeconds, 3);
    std::vector<UnitMinima> minima(static_cast<std::size_t>(replicas),
                                   UnitMinima(queries_.size()));
    std::vector<Tally> tallies(static_cast<std::size_t>(replicas));
    std::vector<std::vector<double>> setups(static_cast<std::size_t>(replicas));
    setups[0].push_back(pass(minima[0], nullptr, tallies[0]));
    std::vector<std::thread> threads;
    for (int r = 0; r < replicas; ++r) {
      threads.emplace_back([&, r] {
        const auto i = static_cast<std::size_t>(r);
        for (int p = r == 0 ? 1 : 0; plan.run(p); ++p) {
          setups[i].push_back(pass(minima[i], nullptr, tallies[i]));
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    UnitMinima merged(queries_.size());
    std::vector<double> all_setups;  // one per pass, every replica
    for (int r = 0; r < replicas; ++r) {
      const auto i = static_cast<std::size_t>(r);
      for (std::size_t u = 0; u < queries_.size(); ++u) {
        merged.record(u, minima[i][u]);
      }
      all_setups.insert(all_setups.end(), setups[i].begin(), setups[i].end());
      result_.attempted += tallies[i].attempted;
      result_.failed += tallies[i].failed;
    }
    add_end_to_end(result_, merged, units_, all_setups);
    counts(static_cast<int>(all_setups.size()));
  }

  void traced() {
    const PassPlan plan(options_.seconds, 3 * kPassSeconds, 2);
    UnitMinima plain(queries_.size());
    UnitMinima call(queries_.size());
    UnitMinima scan(queries_.size());
    // Two passes of request + call spans, then the sampled scan layers.
    SpanLog log(4 * queries_.size() + (1u << 16));
    SelectionService* service = nullptr;
    Tally tally;
    int passes = 0;
    while (plan.run(passes)) {
      const int p = passes++;
      // Alternate which of the pair runs first, so order effects cancel.
      if (p % 2 == 0) {
        pass(plain, nullptr, tally);
      }
      log.clear();
      pass(call, &log, tally, &scan, &service);
      if (p % 2 == 1) {
        pass(plain, nullptr, tally);
      }
    }
    result_.attempted += tally.attempted;
    result_.failed += tally.failed;
    std::vector<double> scan_ms;
    std::vector<double> overhead_us;
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      scan_ms.push_back(static_cast<double>(scan[i]) * 1e-6);
      overhead_us.push_back(
          (static_cast<double>(call[i]) - static_cast<double>(scan[i])) *
          1e-3);
    }
    result_.metric("anomaly.scan_ms", median(scan_ms), "ms");
    result_.metric("serve.cold_overhead_us", median(overhead_us), "us");
    result_.metric("anomaly.samples_per_slice",
                   static_cast<double>(samples_) /
                       static_cast<double>(queries_.size()),
                   "count");
    scan_layers(log);
    log.write_chrome_json(options_.trace_dir + "/cold-build.json");

    const std::uint64_t r0 = now_ns();
    service->refresh_slices();
    result_.metric("serve.refresh_s",
                   static_cast<double>(now_ns() - r0) * 1e-9, "s");
    add_trace_overhead(result_, call, plain, units_);
    counts(passes);
  }

 private:
  std::uint64_t check_first_pass() {
    std::uint64_t failed = 0;
    // The oracle: every slice built directly, outside any timed region.
    const std::vector<lamb::anomaly::RegionAtlas> oracle =
        oracle_atlases(stream_, machine_, service_config().atlas);
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      const Query& q = queries_[i];
      if (!matches(answers_[i],
                   oracle[i].lookup(q.dims[static_cast<std::size_t>(q.dim)]))) {
        ++failed;
      }
    }
    return failed;
  }

  /// The layers a scan hides, called directly on the same inputs: per
  /// coarse scan coordinate of every kSampleEvery-th slice,
  /// classify_instance, then ExpressionFamily::algorithms and
  /// SimulatedMachine::time_steps as its children's equivalents.
  void scan_layers(SpanLog& log) {
    const std::uint32_t classify_name = log.intern("classify_instance");
    const std::uint32_t enumerate_name = log.intern("algorithms");
    const std::uint32_t time_name = log.intern("time_steps");
    const lamb::anomaly::AtlasConfig cfg = service_config().atlas;
    std::vector<double> classify_us;
    std::vector<double> enumerate_us;
    std::vector<double> time_us;
    double sink = 0.0;
    for (std::size_t i = 0; i < queries_.size(); i += kSampleEvery) {
      const Slot& s = stream_.slots[i];
      const lamb::expr::ExpressionFamily& family = *families_.at(s.family);
      lamb::expr::Instance dims = s.base;
      for (int c = cfg.lo; c <= cfg.hi; c += cfg.coarse_step) {
        dims[static_cast<std::size_t>(s.dim)] = c;
        const std::uint32_t req = log.open(SpanLog::kRequest, i);
        const std::uint32_t cl = log.open(classify_name, i, req);
        const lamb::anomaly::InstanceResult r =
            lamb::anomaly::classify_instance(family, machine_, dims,
                                             cfg.time_score_threshold);
        log.close(cl, r.anomaly ? 1 : 0);
        const std::uint32_t en = log.open(enumerate_name, i, req);
        const std::vector<lamb::model::Algorithm> algs =
            family.algorithms(dims);
        log.close(en, static_cast<std::int64_t>(algs.size()));
        std::vector<std::uint32_t> steps;
        for (const lamb::model::Algorithm& alg : algs) {
          const std::uint32_t ts = log.open(time_name, i, req);
          sink += machine_.time_steps(alg).front();
          log.close(ts);
          steps.push_back(ts);
        }
        log.close(req);
        const auto us = [&](std::uint32_t h) {
          return static_cast<double>(log.duration_ns(h)) * 1e-3;
        };
        if (cl != 0 && en != 0) {
          classify_us.push_back(us(cl));
          enumerate_us.push_back(us(en));
        }
        for (std::uint32_t h : steps) {
          if (h != 0) {
            time_us.push_back(us(h));
          }
        }
      }
    }
    result_.mix_value(sink);
    result_.metric("anomaly.classify_us", median(classify_us), "us");
    result_.metric("expr.enumerate_us", median(enumerate_us), "us");
    result_.metric("model.time_steps_us", median(time_us), "us");
  }

  void counts(int passes) {
    result_.count("passes", passes);
    result_.count("units_per_pass", static_cast<double>(queries_.size()));
    result_.count("anomaly.samples_per_slice",
                  static_cast<double>(samples_) /
                      static_cast<double>(queries_.size()));
    result_.count("attempted", static_cast<double>(result_.attempted));
    result_.notes.push_back(lamb::support::strf(
        "cold-build: %zu first-touch queries (one per slice) per pass, %d "
        "passes, %lld scan samples per pass",
        queries_.size(), passes, samples_));
  }

  const Options& options_;
  Result& result_;
  lamb::model::SimulatedMachine machine_;
  Stream stream_;
  std::vector<Query> queries_;  ///< unit i: first query of slice i
  std::vector<std::uint32_t> units_;
  std::map<std::string, std::unique_ptr<lamb::expr::ExpressionFamily>>
      families_;
  std::vector<Recommendation> answers_;  ///< first pass, oracle-checked
  long long samples_ = 0;
  std::unique_ptr<SelectionService> kept_;
};

}  // namespace

void run_cold_build(const Options& options, Result& result) {
  ColdBuild bench(options, result);
  bench.prepare();
  reset_peak_rss();
  if (options.trace) {
    bench.traced();
  } else {
    bench.untraced();
  }
}

}  // namespace lambbench

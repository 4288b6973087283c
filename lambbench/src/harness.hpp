// Shared pieces of the lamb benchmark harness: run options, the result
// record every workload fills in, the per-unit minimum estimator, quantiles,
// the in-memory span log of the traced run, and peak-RSS bookkeeping.
//
// Estimator. The host this benchmark was tuned on is a shared VM whose
// noise is one-sided: other tenants only ever slow a measurement down. For
// the workloads that replay a fixed input (warm-serve, cold-build,
// blas-exec) every unit is therefore timed once per pass, each pass starting
// from identical state, and a unit's time is its minimum over the passes
// (Chen & Revels, arXiv:1608.04295). Percentiles and throughput are taken
// over those per-unit minima. Set-up is repeated once per pass and reported
// as the median.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/clock.hpp"

namespace lambbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for this run's stores, removed at exit.
  std::string work_dir;
  /// Where the traced run writes its spans (Chrome trace-event JSON).
  std::string trace_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// How the value was measured, when the name alone does not say.
  std::string note;
};

/// What one workload run produces.
struct Result {
  std::uint64_t attempted = 0;  ///< operations checked against the oracle
  std::uint64_t failed = 0;     ///< mismatches, exceptions, non-2xx replies
  std::vector<Metric> metrics;
  /// Values that must repeat exactly for a given seed (the determinism
  /// self-check compares them across runs), in insertion order.
  std::vector<std::pair<std::string, double>> counts;
  /// FNV-1a over the generated inputs and the checked answers.
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  /// Bytes of the benchmark's own input buffers (not lamb's memory).
  std::size_t input_bytes = 0;
  /// Free-form lines printed before the result (per-layer provenance).
  std::vector<std::string> notes;

  void metric(std::string name, double value, std::string unit,
              std::string note = {}) {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(note)});
  }
  void count(std::string name, double value) {
    counts.emplace_back(std::move(name), value);
  }
  void mix(const void* data, std::size_t bytes);
  template <typename T>
  void mix_value(const T& value) {
    mix(&value, sizeof(value));
  }
};

inline std::uint64_t now_ns() { return lamb::obs::now_ns(); }

/// The passes of one run. Their number is fixed by --seconds and what one
/// pass costs on the reference host (never below `floor`), so the
/// operations a run attempts repeat exactly for a seed. Past twice
/// --seconds the run stops after its current pass (keeping `floor`), so a
/// far slower host still finishes in time.
class PassPlan {
 public:
  PassPlan(double seconds, double pass_seconds, int floor);
  /// True while pass `p` (0-based) should run.
  bool run(int p) const {
    return p < passes_ && (p < floor_ || now_ns() < deadline_ns_);
  }

 private:
  int passes_;
  int floor_;
  std::uint64_t deadline_ns_;
};

/// Per-unit minimum over passes, in nanoseconds.
class UnitMinima {
 public:
  explicit UnitMinima(std::size_t units = 0)
      : min_ns_(units, ~std::uint64_t{0}) {}
  void record(std::size_t unit, std::uint64_t ns) {
    if (ns < min_ns_[unit]) {
      min_ns_[unit] = ns;
    }
  }
  std::size_t size() const { return min_ns_.size(); }
  std::uint64_t operator[](std::size_t unit) const { return min_ns_[unit]; }

 private:
  std::vector<std::uint64_t> min_ns_;
};

/// Linear-interpolated q-quantile (numpy's default); NaN when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Units completed per second of the requests' summed minima. `units[i]` is
/// the number of units (answered queries, executions) request i completes.
double throughput(const UnitMinima& minima,
                  const std::vector<std::uint32_t>& units);

/// The five end-to-end metrics from per-request minima. A request's latency
/// is the latency every one of its units waits.
void add_end_to_end(Result& result, const UnitMinima& minima,
                    const std::vector<std::uint32_t>& units,
                    const std::vector<double>& setup_seconds);

/// bench.trace_overhead_pct: traced throughput against untraced.
void add_trace_overhead(Result& result, const UnitMinima& traced,
                        const UnitMinima& plain,
                        const std::vector<std::uint32_t>& units);

/// Peak resident set (VmHWM) in MB.
double peak_rss_mb();
/// Return freed heap to the kernel and restart the VmHWM high-water mark
/// from the current resident set, so input generation does not count
/// toward peak_rss_mb.
void reset_peak_rss();

/// The traced run's spans: one per public call the benchmark makes into a
/// layer, nested request -> call. Kept in memory; written out at the end.
struct Span {
  std::uint32_t name = 0;     ///< SpanLog::intern() index
  std::uint32_t parent = 0;   ///< 1 + index of the parent span, 0 = root
  std::uint64_t request = 0;  ///< request id shared by a request's spans
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t attr = 0;      ///< call-specific: answer source, batch size...
};

class SpanLog {
 public:
  /// Name 0, the root span of every request.
  static constexpr std::uint32_t kRequest = 0;

  explicit SpanLog(std::size_t capacity);

  std::uint32_t intern(const std::string& name);
  /// Opens a span; returns its handle (1 + index) for close() and as a
  /// child's parent. Past capacity the span is counted and dropped (handle
  /// 0, close() ignores it).
  std::uint32_t open(std::uint32_t name, std::uint64_t request,
                     std::uint32_t parent = 0) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return 0;
    }
    spans_.push_back(Span{name, parent, request, now_ns(), 0, 0});
    return static_cast<std::uint32_t>(spans_.size());
  }
  void close(std::uint32_t handle, std::int64_t attr = 0) {
    if (handle != 0) {
      Span& s = spans_[handle - 1];
      s.end_ns = now_ns();
      s.attr = attr;
    }
  }

  std::uint64_t duration_ns(std::uint32_t handle) const {
    const Span& s = spans_[handle - 1];
    return s.end_ns - s.start_ns;
  }
  void clear() { spans_.clear(); }

  /// Chrome trace-event JSON of the first kMaxWrittenSpans spans held (a
  /// traced warm-serve pass holds ~400k; the file records the totals).
  void write_chrome_json(const std::string& path) const;
  static constexpr std::size_t kMaxWrittenSpans = 1u << 16;

 private:
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::uint64_t dropped_ = 0;
};

/// Runs one unit: `call()` timed bare into `minima`, or, with a `log`, as
/// a request span around a `name` span whose duration goes into `minima`
/// (its attr is `attr(result)`). Returns what `call` returned.
template <typename Call, typename Attr>
auto run_unit(UnitMinima& minima, std::size_t unit, SpanLog* log,
              std::uint32_t name, Call&& call, Attr&& attr) {
  if (log == nullptr) {
    const std::uint64_t t0 = now_ns();
    auto out = call();
    minima.record(unit, now_ns() - t0);
    return out;
  }
  const std::uint32_t request = log->open(SpanLog::kRequest, unit);
  const std::uint32_t span = log->open(name, unit, request);
  auto out = call();
  log->close(span, attr(out));
  log->close(request);
  if (span != 0) {
    minima.record(unit, log->duration_ns(span));
  }
  return out;
}

/// Workload entry points. Each fills `result` with its five end-to-end
/// metrics (untraced) or its per-layer metrics (traced).
void run_warm_serve(const Options& options, Result& result);
void run_cold_build(const Options& options, Result& result);
void run_blas_exec(const Options& options, Result& result);
void run_http_serve(const Options& options, Result& result);

/// Hardware threads, at least 1.
unsigned host_threads();

}  // namespace lambbench

// SelectionRoutes: the HTTP surface of a SelectionService.
//
//   POST /v1/query    one query line  -> one recommendation line
//   POST /v1/batch    N query lines   -> N recommendation lines, in order,
//                     fused into a single SelectionService::query_batch()
//                     call (the wire-level face of the 6x batch win)
//   GET  /healthz     liveness probe ("ok")
//   GET  /metrics     Prometheus text: ServiceStats counters, cache hit
//                     rate, per-source answer counts, HTTP counters and
//                     live gauges (connections, in-flight requests), the
//                     request-latency histogram, the per-stage
//                     lamb_stage_seconds histograms, lamb_trace_* tracer
//                     counters, process uptime and build info, and — when
//                     a DriftMonitor is attached — the lamb_drift_* series
//   GET  /debug/trace Chrome trace-event JSON of every span currently in
//                     the per-thread rings (open in chrome://tracing or
//                     Perfetto)
//   GET  /debug/slow  the slow-query log as JSON, span trees inline
//   POST /debug/sample_rate
//                     body = one integer N: set detailed span capture to
//                     1-in-N requests (0 = off, 1 = all); answers the
//                     current tracer knobs as JSON
//
// Wire format (also documented in the README):
//   query line   := family ',' d1 ',' d2 [',' dk]* [',dim=' N] [',exact']
//   answer line  := algorithm ',' flop_minimal ',' flops_reliable ','
//                   time_score ',' source
// time_score is printed with %.17g, so parsing the answer back reproduces
// the service's double bit-for-bit (tests pin HTTP answers against direct
// query() calls this way). algorithm/flop_minimal are 0-based indices;
// source is cache|atlas|measured|fallback (fallback = a degraded,
// cost-model-only answer served because the slice build failed or was
// shed — see SelectionService::ServiceConfig::degrade_on_failure).
//
// Threading: /healthz and /metrics are answered on the event loop.
// /v1/query first asks SelectionService::try_warm allocation-free
// (thread-local scratch query, stack-formatted answer, zero-copy
// Responder::send): an LRU hit or a published slice answers from one LRU
// probe, entirely on the loop thread, without touching the allocator.
// Anything else asks through query_async: a build or an exact
// classification resolves on the service's background builder, watched by
// this object's small worker pool so the loop never blocks. /v1/batch parses and answers entirely on a worker
// (its slice builds ride the service's ThreadPool inside query_batch).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/server.hpp"
#include "serve/drift.hpp"
#include "serve/selection_service.hpp"

namespace lamb::net {

struct SelectionRoutesConfig {
  /// Threads watching deferred query futures and running batch requests.
  std::size_t worker_threads = 2;
  /// Upper bound on query lines per /v1/batch request: bounds the fused
  /// batch the service sees independently of the HTTP byte limit (a 1 MB
  /// body can hold ~260k minimal lines; this keeps the answer sweep and
  /// the response allocation an order of magnitude smaller).
  std::size_t max_batch_queries = 1u << 16;
  /// When > 0, a cold /v1/query whose slice build has not resolved within
  /// this many milliseconds answers 504 instead of holding the connection
  /// (the build itself keeps running and publishes for the next asker).
  /// Warm answers never consult it. 0 disables the deadline.
  double deadline_ms = 0.0;
};

/// Parse one wire-format query line; throws std::invalid_argument with a
/// caller-facing message on malformed input.
serve::Query parse_query_line(std::string_view line);

/// In-place variant: resets and fills `q`, reusing its string and vector
/// capacity — the serving warm path parses into a thread-local scratch
/// Query so an LRU-hit request allocates nothing. Same errors as
/// parse_query_line.
void parse_query_line_into(std::string_view line, serve::Query& q);

/// One answer line (no trailing newline), %.17g time_score.
std::string format_recommendation(const serve::Recommendation& rec);

/// Parse an answer line back (tests round-trip through this); throws
/// std::invalid_argument on malformed input.
serve::Recommendation parse_recommendation(std::string_view line);

class SelectionRoutes {
 public:
  explicit SelectionRoutes(serve::SelectionService& service,
                           SelectionRoutesConfig config = {});
  /// Joins the workers; queued jobs finish first (their Responders may
  /// already be dead-lettered if the server is gone — that is safe).
  ~SelectionRoutes();

  SelectionRoutes(const SelectionRoutes&) = delete;
  SelectionRoutes& operator=(const SelectionRoutes&) = delete;

  /// A Router serving the seven routes listed above, bound to this object
  /// (which must outlive the Server running it).
  Router router();

  /// Give /metrics the front-end counters too (call between constructing
  /// the Server and run()). Exports the merged whole-server snapshot as the
  /// lamb_http_* families plus the per-reactor lamb_net_loop_* series (one
  /// series per loop, labeled loop="i"). Without it only service metrics
  /// are exported.
  void attach_server(const Server* server) { server_ = server; }

  /// Export a drift monitor's counters as lamb_drift_* series (same
  /// lifecycle rule as attach_server; the monitor must outlive the
  /// routes). Without it the drift series are simply absent.
  void attach_drift(const serve::DriftMonitor* monitor) { drift_ = monitor; }

 private:
  void handle_query(const Request& request, Responder responder);
  void handle_batch(const Request& request, Responder responder);
  void handle_debug_trace(const Request& request, Responder responder);
  Response debug_sample_rate_response(const Request& request);
  Response metrics_response() const;

  void defer(std::function<void()> job);
  void worker_loop();

  serve::SelectionService& service_;
  SelectionRoutesConfig config_;
  const Server* server_ = nullptr;
  const serve::DriftMonitor* drift_ = nullptr;
  /// lamb_uptime_seconds epoch: the routes object's construction, which in
  /// every deployment shape coincides with process start.
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  /// Cold queries answered 504 because their build missed deadline_ms
  /// (lamb_shed_total{reason="deadline"}).
  mutable std::atomic<std::uint64_t> deadline_hits_{0};

  std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;
  std::deque<std::function<void()>> jobs_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace lamb::net

#include "net/routes.hpp"

#include <charconv>
#include <chrono>
#include <cstdio>
#include <future>
#include <limits>
#include <utility>

#include "blas/microkernel.hpp"
#include "obs/pmu.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/str.hpp"

// Stamped by CMake from `git describe` at configure time; "unknown" when
// building outside a git checkout (tarballs).
#ifndef LAMB_GIT_DESCRIBE
#define LAMB_GIT_DESCRIBE "unknown"
#endif

namespace lamb::net {

namespace {

constexpr std::string_view kCsvType = "text/csv; charset=utf-8";
constexpr std::string_view kPrometheusType =
    "text/plain; version=0.0.4; charset=utf-8";

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) {
    s.remove_prefix(1);
  }
  while (!s.empty() && is_space(s.back())) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  while (true) {
    const std::size_t next = s.find(sep, pos);
    out.push_back(s.substr(pos, next - pos));
    if (next == std::string_view::npos) {
      return out;
    }
    pos = next + 1;
  }
}

/// Whole-field integer parse; throws with the offending field quoted.
long long parse_int_field(std::string_view field) {
  field = trim(field);
  long long value = 0;
  const auto [end, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec != std::errc() || end != field.data() + field.size() ||
      field.empty()) {
    throw std::invalid_argument("bad integer field '" + std::string(field) +
                                "'");
  }
  return value;
}

/// Same, bounded to int: a value like 4294967297 must be a 400, not a
/// silent wrap to 1 that answers for a different instance.
int parse_int32_field(std::string_view field) {
  const long long value = parse_int_field(field);
  if (value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("integer field '" + std::string(trim(field)) +
                                "' out of range");
  }
  return static_cast<int>(value);
}

double parse_double_field(std::string_view field) {
  field = trim(field);
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec != std::errc() || end != field.data() + field.size() ||
      field.empty()) {
    throw std::invalid_argument("bad number field '" + std::string(field) +
                                "'");
  }
  return value;
}

Response csv_response(std::string body) {
  Response r;
  r.content_type = std::string(kCsvType);
  r.body = std::move(body);
  return r;
}

}  // namespace

void parse_query_line_into(std::string_view line, serve::Query& q) {
  // Reuses q's string/vector capacity and walks the fields without a split
  // vector — the warm /v1/query path parses into a thread-local scratch
  // Query, and an LRU hit must not allocate.
  q.family.clear();
  q.dims.clear();
  q.dim = 0;
  q.exact = false;
  std::size_t pos = 0;
  bool first = true;
  for (;;) {
    const std::size_t next = line.find(',', pos);
    const std::string_view field =
        trim(line.substr(pos, next == std::string_view::npos
                                  ? std::string_view::npos
                                  : next - pos));
    if (first) {
      first = false;
      if (field.empty()) {
        throw std::invalid_argument("query line starts with an empty family");
      }
      q.family.assign(field);
    } else if (field == "exact") {
      q.exact = true;
    } else if (field.substr(0, 4) == "dim=") {
      q.dim = parse_int32_field(field.substr(4));
    } else {
      q.dims.push_back(parse_int32_field(field));
    }
    if (next == std::string_view::npos) {
      break;
    }
    pos = next + 1;
  }
  if (q.dims.empty()) {
    throw std::invalid_argument(
        "query line needs at least one dimension after the family");
  }
}

serve::Query parse_query_line(std::string_view line) {
  serve::Query q;
  parse_query_line_into(line, q);
  return q;
}

std::string format_recommendation(const serve::Recommendation& rec) {
  return support::strf(
      "%zu,%zu,%d,%.17g,%s", rec.algorithm, rec.flop_minimal,
      rec.flops_reliable ? 1 : 0, rec.time_score,
      std::string(serve::to_string(rec.source)).c_str());
}

serve::Recommendation parse_recommendation(std::string_view line) {
  const std::vector<std::string_view> fields = split(trim(line), ',');
  if (fields.size() != 5) {
    throw std::invalid_argument("answer line needs 5 fields, got " +
                                std::to_string(fields.size()));
  }
  serve::Recommendation rec;
  rec.algorithm = static_cast<std::size_t>(parse_int_field(fields[0]));
  rec.flop_minimal = static_cast<std::size_t>(parse_int_field(fields[1]));
  const long long reliable = parse_int_field(fields[2]);
  if (reliable != 0 && reliable != 1) {
    throw std::invalid_argument("flops_reliable must be 0 or 1");
  }
  rec.flops_reliable = reliable == 1;
  rec.time_score = parse_double_field(fields[3]);
  const std::string_view source = trim(fields[4]);
  if (source == "cache") {
    rec.source = serve::Source::kCache;
  } else if (source == "atlas") {
    rec.source = serve::Source::kAtlas;
  } else if (source == "measured") {
    rec.source = serve::Source::kMeasured;
  } else if (source == "fallback") {
    rec.source = serve::Source::kFallback;
  } else {
    throw std::invalid_argument("unknown source '" + std::string(source) +
                                "'");
  }
  return rec;
}

// --------------------------------------------------------- SelectionRoutes

SelectionRoutes::SelectionRoutes(serve::SelectionService& service,
                                 SelectionRoutesConfig config)
    : service_(service), config_(config) {
  const std::size_t workers =
      config_.worker_threads > 0 ? config_.worker_threads : 1;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SelectionRoutes::~SelectionRoutes() {
  {
    const std::lock_guard<std::mutex> lock(jobs_mutex_);
    stop_ = true;
  }
  jobs_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void SelectionRoutes::defer(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_.push_back(std::move(job));
  }
  jobs_cv_.notify_one();
}

void SelectionRoutes::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(jobs_mutex_);
      jobs_cv_.wait(lock, [&] { return stop_ || !jobs_.empty(); });
      if (jobs_.empty()) {
        return;  // stopping, queue drained
      }
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();  // jobs catch their own exceptions and answer 500 themselves
  }
}

void SelectionRoutes::handle_query(const Request& request,
                                   Responder responder) {
  // Exactly one non-empty line; batches go to /v1/batch. Scanned in place
  // (no split vector): this prefix of the handler is the allocation-free
  // warm path.
  std::string_view line;
  {
    const std::string_view body = request.body;
    std::size_t pos = 0;
    for (;;) {
      const std::size_t nl = body.find('\n', pos);
      const std::string_view candidate = trim(
          body.substr(pos, nl == std::string_view::npos
                               ? std::string_view::npos
                               : nl - pos));
      if (!candidate.empty()) {
        if (!line.empty()) {
          responder.send(text_response(
              400, "expected one query line; POST batches to /v1/batch\n"));
          return;
        }
        line = candidate;
      }
      if (nl == std::string_view::npos) {
        break;
      }
      pos = nl + 1;
    }
  }
  if (line.empty()) {
    responder.send(text_response(400, "empty query body\n"));
    return;
  }

  // Warm fast path: parse into thread-local scratch (capacity reused
  // across requests) and answer an LRU hit or a published slice from one
  // LRU probe, without blocking or allocating. The answer is formatted on
  // the stack and takes the zero-copy send — on the owning loop thread
  // that serializes straight into the connection's output buffer,
  // allocation-free end to end (net_test audits this).
  thread_local serve::Query scratch_query;
  serve::Recommendation warm;
  try {
    parse_query_line_into(line, scratch_query);
  } catch (const std::invalid_argument& e) {
    responder.send(text_response(400, std::string(e.what()) + "\n"));
    return;
  }
  if (service_.try_warm(scratch_query, warm)) {
    const std::string_view source = serve::to_string(warm.source);
    char buf[160];
    const int len = std::snprintf(
        buf, sizeof(buf), "%zu,%zu,%d,%.17g,%.*s\n", warm.algorithm,
        warm.flop_minimal, warm.flops_reliable ? 1 : 0, warm.time_score,
        static_cast<int>(source.size()), source.data());
    responder.send(200, kCsvType, std::string_view(buf, len > 0 ? len : 0));
    return;
  }

  std::shared_future<serve::Recommendation> answer;
  try {
    answer = service_.query_async(scratch_query).share();
  } catch (const support::CheckError& e) {
    // The service rejected the query shape (unknown family, arity, range).
    responder.send(text_response(400, std::string(e.what()) + "\n"));
    return;
  }

  const auto respond = [](const Responder& r,
                          const std::shared_future<serve::Recommendation>& f) {
    try {
      r.send(csv_response(format_recommendation(f.get()) + "\n"));
    } catch (const std::exception& e) {
      r.send(text_response(500, std::string("query failed: ") + e.what() +
                                    "\n"));
    }
  };
  // An answer that resolved at once (a slice published since the probe
  // above, or a shed build's fallback) finishes on the event loop. A cold
  // one rides the service's background builder; a worker waits on it so
  // the loop thread never does.
  if (answer.wait_for(std::chrono::seconds(0)) ==
      std::future_status::ready) {
    respond(responder, answer);
    return;
  }
  defer([this, respond, responder = std::move(responder),
         answer = std::move(answer), ctx = obs::current_context()] {
    // The worker finishes the request under its trace context, so any
    // spans recorded while waiting attach to the right tree.
    const obs::ContextGuard guard(ctx);
    if (config_.deadline_ms > 0.0 &&
        answer.wait_for(std::chrono::duration<double, std::milli>(
            config_.deadline_ms)) != std::future_status::ready) {
      // The build missed the request deadline. It keeps running and will
      // publish its slice for the next asker; this request gets a 504 now
      // instead of holding the connection open indefinitely.
      deadline_hits_.fetch_add(1, std::memory_order_relaxed);
      responder.send(text_response(
          504, support::strf("deadline exceeded (%.0f ms): slice still "
                             "building, retry\n",
                             config_.deadline_ms)));
      return;
    }
    respond(responder, answer);
  });
}

void SelectionRoutes::handle_batch(const Request& request,
                                   Responder responder) {
  // The request object dies when this returns; the job owns a copy of the
  // body and parses it off the event loop.
  defer([this, body = request.body, responder = std::move(responder),
         ctx = obs::current_context()] {
    const obs::ContextGuard guard(ctx);
    std::vector<serve::Query> queries;
    try {
      {
        // Body parsing is real per-query work at batch sizes; it gets its
        // own parse span (the HTTP-framing one closed at dispatch).
        const obs::SpanScope parse_span(obs::Stage::kParse);
        std::size_t line_number = 0;
        for (std::string_view line : split(body, '\n')) {
          ++line_number;
          line = trim(line);
          if (line.empty()) {
            continue;
          }
          try {
            queries.push_back(parse_query_line(line));
          } catch (const std::invalid_argument& e) {
            throw std::invalid_argument(
                support::strf("line %zu: ", line_number) + e.what());
          }
          if (queries.size() > config_.max_batch_queries) {
            responder.send(text_response(
                413, support::strf("batch exceeds %zu queries\n",
                                   config_.max_batch_queries)));
            return;
          }
        }
      }
      const std::vector<serve::Recommendation> recommendations =
          service_.query_batch(queries);
      std::string out;
      out.reserve(recommendations.size() * 48);
      for (const serve::Recommendation& rec : recommendations) {
        out += format_recommendation(rec);
        out += '\n';
      }
      responder.send(csv_response(std::move(out)));
    } catch (const std::invalid_argument& e) {
      responder.send(text_response(400, std::string(e.what()) + "\n"));
    } catch (const support::CheckError& e) {
      responder.send(text_response(400, std::string(e.what()) + "\n"));
    } catch (const std::exception& e) {
      responder.send(text_response(
          500, std::string("batch failed: ") + e.what() + "\n"));
    }
  });
}

void SelectionRoutes::handle_debug_trace(const Request&,
                                         Responder responder) {
  // Scanning every thread ring and rendering the JSON is O(threads x ring)
  // string work; a worker does it so the event loop never carries the
  // debug surface.
  defer([responder = std::move(responder)] {
    Response r;
    r.content_type = "application/json";
    r.body = obs::tracer().chrome_trace_json();
    responder.send(std::move(r));
  });
}

Response SelectionRoutes::debug_sample_rate_response(const Request& request) {
  obs::Tracer& tr = obs::tracer();
  try {
    const long long n = parse_int_field(trim(request.body));
    if (n < 0 || n > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument("sample rate out of range");
    }
    tr.set_sample_every(static_cast<std::uint32_t>(n));
  } catch (const std::invalid_argument& e) {
    return text_response(
        400, std::string(e.what()) +
                 " (body must be one integer: 0 = off, 1 = all, N = 1-in-N)\n");
  }
  Response r;
  r.content_type = "application/json";
  r.body = support::strf(
      "{\"enabled\":%s,\"sample_every\":%u,\"slow_threshold_ms\":%.3f}\n",
      tr.enabled() ? "true" : "false", tr.sample_every(),
      static_cast<double>(tr.slow_threshold_ns()) * 1e-6);
  return r;
}

Response SelectionRoutes::metrics_response() const {
  const serve::ServiceStats s = service_.stats();
  // The exposition contract (every family announces # HELP and # TYPE
  // before its first series; counters integral, gauges fractional) lives
  // in support::MetricsWriter and is pinned by scripts/metrics_lint.sh.
  support::MetricsWriter w(8192);

  w.family("lamb_selection_answers_total", "counter",
           "Answers by source.");
  w.counter("lamb_selection_answers_total", "{source=\"cache\"}",
            s.cache_answers);
  w.counter("lamb_selection_answers_total", "{source=\"atlas\"}",
            s.atlas_answers);
  w.counter("lamb_selection_answers_total", "{source=\"measured\"}",
            s.measured_queries);
  w.counter("lamb_selection_answers_total", "{source=\"fallback\"}",
            s.degraded_answers);

  w.family("lamb_selection_cache_hits_total", "counter",
           "Recommendation-cache hits.");
  w.counter("lamb_selection_cache_hits_total", s.cache_hits);
  w.family("lamb_selection_cache_misses_total", "counter",
           "Recommendation-cache misses.");
  w.counter("lamb_selection_cache_misses_total", s.cache_misses);
  w.family("lamb_selection_cache_hit_ratio", "gauge",
           "Cache hits over lookups since start.");
  const std::uint64_t lookups = s.cache_hits + s.cache_misses;
  w.gauge("lamb_selection_cache_hit_ratio",
          lookups == 0 ? 0.0
                       : static_cast<double>(s.cache_hits) /
                             static_cast<double>(lookups));

  w.family("lamb_selection_atlases_built_total", "counter",
           "Region atlases built.");
  w.counter("lamb_selection_atlases_built_total", s.atlases_built);
  w.family("lamb_selection_atlases_loaded_total", "counter",
           "Region atlases loaded from disk.");
  w.counter("lamb_selection_atlases_loaded_total", s.atlases_loaded);
  w.family("lamb_selection_atlases_skipped_total", "counter",
           "Atlas files skipped at warm-up: older format version (rebuilt "
           "on first query), or corrupt and quarantine failed.");
  w.counter("lamb_selection_atlases_skipped_total", s.atlases_skipped);
  w.family("lamb_selection_atlases_quarantined_total", "counter",
           "Corrupt atlas files renamed aside (*.corrupt) at warm-up.");
  w.counter("lamb_selection_atlases_quarantined_total",
            s.atlases_quarantined);
  w.family("lamb_selection_atlas_samples_total", "counter",
           "Measurements taken while building atlases.");
  w.counter("lamb_selection_atlas_samples_total",
            static_cast<std::uint64_t>(s.atlas_samples < 0
                                           ? 0
                                           : s.atlas_samples));
  w.family("lamb_selection_batch_calls_total", "counter",
           "query_batch() calls.");
  w.counter("lamb_selection_batch_calls_total", s.batch_calls);
  w.family("lamb_selection_batch_queries_total", "counter",
           "Queries carried by batch calls.");
  w.counter("lamb_selection_batch_queries_total", s.batch_queries);
  w.family("lamb_selection_async_calls_total", "counter",
           "query_async() calls.");
  w.counter("lamb_selection_async_calls_total", s.async_calls);

  w.family("lamb_selection_refresh_rounds_total", "counter",
           "Atlas refresh rounds.");
  w.counter("lamb_selection_refresh_rounds_total", s.refresh_rounds);
  w.family("lamb_selection_slices_refreshed_total", "counter",
           "Slices rebuilt by refresh rounds.");
  w.counter("lamb_selection_slices_refreshed_total", s.slices_refreshed);

  // These three are gauges (they go up AND down) and are emitted as such —
  // they used to ride the counter helper, which a typed writer forbids.
  w.family("lamb_selection_atlas_count", "gauge",
           "Resident region atlases.");
  w.gauge("lamb_selection_atlas_count",
          static_cast<double>(service_.atlas_count()));
  w.family("lamb_selection_cache_size", "gauge",
           "Entries in the recommendation cache.");
  w.gauge("lamb_selection_cache_size",
          static_cast<double>(service_.cache_size()));

  // Robustness families: how much of the load is riding the degraded path,
  // what was shed, which slices the circuit breaker is holding open, and
  // what the fault registry has actually injected. All present even at
  // zero, so dashboards and the chaos smoke can assert on them by name.
  w.family("lamb_answers_degraded_total", "counter",
           "Answers served from the flop-minimal fallback instead of an "
           "atlas (build failed, breaker open, queue shed or deadline).");
  w.counter("lamb_answers_degraded_total", s.degraded_answers);

  std::uint64_t admission_shed = 0;
  if (server_ != nullptr) {
    for (std::size_t i = 0; i < server_->loops(); ++i) {
      admission_shed += server_->loop_stats(i).requests_shed.load(
          std::memory_order_relaxed);
    }
  }
  w.family("lamb_shed_total", "counter",
           "Requests shed instead of served, by reason: admission = 503 "
           "before parse, build_queue = fallback instead of a queued "
           "build, deadline = 504 past the query deadline.");
  w.counter("lamb_shed_total", "{reason=\"admission\"}", admission_shed);
  w.counter("lamb_shed_total", "{reason=\"build_queue\"}", s.builds_shed);
  w.counter("lamb_shed_total", "{reason=\"deadline\"}",
            deadline_hits_.load(std::memory_order_relaxed));

  w.family("lamb_breaker_opens_total", "counter",
           "Circuit-breaker open transitions across all slices.");
  w.counter("lamb_breaker_opens_total", s.breaker_opens);
  const auto breakers = service_.breaker_states();
  if (!breakers.empty()) {
    w.family("lamb_breaker_state", "gauge",
             "Per-slice breaker state: 1 open, 0.5 half-open probe, 0 "
             "failing but closed. Healthy slices carry no series.");
    for (const auto& b : breakers) {
      w.gauge("lamb_breaker_state",
              support::strf("{slice=\"%s\"}", b.slice.c_str()).c_str(),
              b.state);
    }
  }

  w.family("lamb_fault_injected_total", "counter",
           "Faults fired by the LAMB_FAULT registry, by site (all zero "
           "when injection is disarmed).");
  for (std::size_t i = 0; i < support::kFaultSiteCount; ++i) {
    const auto site = static_cast<support::FaultSite>(i);
    w.counter("lamb_fault_injected_total",
              support::strf("{site=\"%s\"}",
                            std::string(support::fault_site_name(site))
                                .c_str())
                  .c_str(),
              support::fault_injected(site));
  }

  w.family("lamb_uptime_seconds", "gauge",
           "Seconds since the serving process started.");
  w.gauge("lamb_uptime_seconds",
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start_)
              .count());
  w.family("lamb_build_info", "gauge",
           "Constant 1, labeled with version and kernel tier.");
  w.gauge("lamb_build_info",
          support::strf("{version=\"%s\",kernel_tier=\"%s\"}",
                        LAMB_GIT_DESCRIBE, blas::active_microkernel().name)
              .c_str(),
          1.0);

  if (drift_ != nullptr) {
    const serve::DriftStats d = drift_->stats();
    w.family("lamb_drift_checks_total", "counter",
             "Drift probe rounds run.");
    w.counter("lamb_drift_checks_total", d.checks);
    w.family("lamb_drift_probe_measurements_total", "counter",
             "Individual drift probe measurements.");
    w.counter("lamb_drift_probe_measurements_total", d.probe_measurements);
    w.family("lamb_drift_detected_total", "counter",
             "Drift detections.");
    w.counter("lamb_drift_detected_total", d.drift_detected);
    w.family("lamb_drift_refreshes_total", "counter",
             "Refresh rounds triggered by drift.");
    w.counter("lamb_drift_refreshes_total", d.refresh_rounds);
    w.family("lamb_drift_slices_refreshed_total", "counter",
             "Slices rebuilt after drift.");
    w.counter("lamb_drift_slices_refreshed_total", d.slices_refreshed);
    w.family("lamb_drift_check_failures_total", "counter",
             "Drift check rounds that threw; the monitor survives and "
             "backs off its interval until probes succeed again.");
    w.counter("lamb_drift_check_failures_total", d.check_failures);
    w.family("lamb_drift_probe_cycles_total", "counter",
             "CPU cycles spent inside drift probe measurements "
             "(PMU-attributed; 0 when counters are unavailable).");
    w.counter("lamb_drift_probe_cycles_total", d.probe_cycles);
    w.family("lamb_drift_probe_instructions_total", "counter",
             "Instructions retired inside drift probe measurements.");
    w.counter("lamb_drift_probe_instructions_total", d.probe_instructions);
    w.family("lamb_drift_refresh_cycles_total", "counter",
             "CPU cycles spent on drift-triggered refresh rounds.");
    w.counter("lamb_drift_refresh_cycles_total", d.refresh_cycles);
    w.family("lamb_drift_score", "gauge",
             "Latest drift score.");
    w.gauge("lamb_drift_score", d.last_score);
    w.family("lamb_drift_last_refresh_age_seconds", "gauge",
             "Seconds since the last drift refresh.");
    w.gauge("lamb_drift_last_refresh_age_seconds",
            d.last_refresh_age_seconds);
  }

  if (server_ != nullptr) {
    // Whole-server aggregate: every reactor's counters merged into one
    // snapshot (histograms merge exactly — bucket-wise integer adds).
    const HttpStatsSnapshot h = server_->stats();
    w.family("lamb_http_connections_accepted_total", "counter",
             "Connections accepted.");
    w.counter("lamb_http_connections_accepted_total",
              h.connections_accepted);
    w.family("lamb_http_connections_rejected_total", "counter",
             "Connections refused (over max_connections or fd exhaustion).");
    w.counter("lamb_http_connections_rejected_total",
              h.connections_rejected);
    w.family("lamb_http_requests_total", "counter",
             "HTTP requests dispatched.");
    w.counter("lamb_http_requests_total", h.requests_total);
    w.family("lamb_http_responses_total", "counter",
             "HTTP responses by status class.");
    w.counter("lamb_http_responses_total", "{class=\"2xx\"}",
              h.responses_2xx);
    w.counter("lamb_http_responses_total", "{class=\"4xx\"}",
              h.responses_4xx);
    w.counter("lamb_http_responses_total", "{class=\"5xx\"}",
              h.responses_5xx);
    w.counter("lamb_http_responses_total", "{class=\"other\"}",
              h.responses_other);
    w.family("lamb_http_parse_errors_total", "counter",
             "Malformed requests answered 4xx.");
    w.counter("lamb_http_parse_errors_total", h.parse_errors);
    w.family("lamb_http_requests_shed_total", "counter",
             "Requests answered the prebuilt admission 503 before parse.");
    w.counter("lamb_http_requests_shed_total", h.requests_shed);
    w.family("lamb_http_idle_reaped_total", "counter",
             "Connections closed by the idle reaper.");
    w.counter("lamb_http_idle_reaped_total", h.idle_reaped);
    w.family("lamb_http_accept_faults_total", "counter",
             "Accepted connections dropped by net.accept fault injection.");
    w.counter("lamb_http_accept_faults_total", h.accept_faults);
    w.family("lamb_http_write_faults_total", "counter",
             "Connections torn down by net.write fault injection.");
    w.counter("lamb_http_write_faults_total", h.write_faults);
    w.family("lamb_http_bytes_read_total", "counter",
             "Bytes read from clients.");
    w.counter("lamb_http_bytes_read_total", h.bytes_read);
    w.family("lamb_http_bytes_written_total", "counter",
             "Bytes written to clients.");
    w.counter("lamb_http_bytes_written_total", h.bytes_written);

    w.family("lamb_http_connections_active", "gauge",
             "Currently open client connections.");
    w.gauge("lamb_http_connections_active",
            static_cast<double>(h.connections_active));
    w.family("lamb_http_requests_in_flight", "gauge",
             "Requests dispatched to a handler, response not yet queued.");
    w.gauge("lamb_http_requests_in_flight",
            static_cast<double>(h.requests_in_flight));

    w.family("lamb_http_request_duration_seconds", "histogram",
             "Dispatch-to-response-queued seconds.");
    w.histogram("lamb_http_request_duration_seconds", "",
                h.request_latency);

    // Per-reactor series, one per event loop. lamb_net_loops is the
    // cardinality anchor: scripts/metrics_lint.sh asserts every
    // lamb_net_loop_* family carries exactly this many loop="i" series.
    const std::size_t loops = server_->loops();
    w.family("lamb_net_loops", "gauge",
             "Configured event loops (reactors).");
    w.gauge("lamb_net_loops", static_cast<double>(loops));
    const auto loop_label = [](std::size_t i) {
      return support::strf("{loop=\"%zu\"}", i);
    };
    w.family("lamb_net_loop_connections", "gauge",
             "Open connections owned by each event loop.");
    for (std::size_t i = 0; i < loops; ++i) {
      w.gauge("lamb_net_loop_connections", loop_label(i).c_str(),
              static_cast<double>(
                  server_->loop_stats(i).connections_active.load(
                      std::memory_order_relaxed)));
    }
    w.family("lamb_net_loop_requests_total", "counter",
             "Requests dispatched by each event loop.");
    for (std::size_t i = 0; i < loops; ++i) {
      w.counter("lamb_net_loop_requests_total", loop_label(i).c_str(),
                server_->loop_stats(i).requests_total.load(
                    std::memory_order_relaxed));
    }
    w.family("lamb_net_loop_epoll_wakeups_total", "counter",
             "epoll_wait returns on each event loop.");
    for (std::size_t i = 0; i < loops; ++i) {
      w.counter("lamb_net_loop_epoll_wakeups_total", loop_label(i).c_str(),
                server_->loop_stats(i).epoll_wakeups.load(
                    std::memory_order_relaxed));
    }
  }

  {
    obs::Tracer& tr = obs::tracer();
    const auto stages = tr.stage_snapshots();
    w.family("lamb_stage_seconds", "histogram",
             "Per-stage serving latency, seconds (always-on tier; empty "
             "until tracing is enabled).");
    for (std::size_t i = 0; i < obs::kStageCount; ++i) {
      const std::string label =
          "stage=\"" +
          std::string(obs::to_string(static_cast<obs::Stage>(i))) + "\"";
      w.histogram("lamb_stage_seconds", label, stages[i]);
    }

    const obs::TracerCounters tc = tr.counters();
    w.family("lamb_trace_requests_total", "counter", "Traces begun.");
    w.counter("lamb_trace_requests_total", tc.requests);
    w.family("lamb_trace_sampled_total", "counter",
             "Traces with detailed span capture.");
    w.counter("lamb_trace_sampled_total", tc.sampled);
    w.family("lamb_trace_spans_total", "counter",
             "Spans pushed into the per-thread rings (pre-overwrite).");
    w.counter("lamb_trace_spans_total", tc.spans);
    w.family("lamb_trace_slow_total", "counter", "Slow-log admissions.");
    w.counter("lamb_trace_slow_total", tc.slow);
    w.family("lamb_trace_enabled", "gauge", "1 when tracing is enabled.");
    w.gauge("lamb_trace_enabled", tr.enabled() ? 1.0 : 0.0);
    w.family("lamb_trace_sample_every", "gauge",
             "Detailed capture rate: 1-in-N requests (0 = off).");
    w.gauge("lamb_trace_sample_every",
            static_cast<double>(tr.sample_every()));

    // PMU families. The availability gauge ALWAYS appears; every other
    // lamb_pmu_* family appears only when counters are live — the lint
    // pins that consistency, and profile_smoke.sh drives the LAMB_PMU=off
    // scrape against it.
    const bool pmu = obs::pmu_available();
    w.family("lamb_pmu_available", "gauge",
             "1 when hardware performance counters are live (perf_event); "
             "0 when disabled or unavailable.");
    w.gauge("lamb_pmu_available", pmu ? 1.0 : 0.0);
    if (pmu) {
      const auto totals = tr.pmu_stage_totals();
      const auto ipc = tr.pmu_ipc_snapshots();
      const auto stage_label = [](std::size_t i) {
        return "{stage=\"" +
               std::string(obs::to_string(static_cast<obs::Stage>(i))) +
               "\"}";
      };
      w.family("lamb_pmu_samples_total", "counter",
               "Sampled spans with PMU attribution, by stage.");
      for (std::size_t i = 0; i < obs::kStageCount; ++i) {
        w.counter("lamb_pmu_samples_total", stage_label(i).c_str(),
                  totals[i].samples);
      }
      w.family("lamb_pmu_cycles_total", "counter",
               "CPU cycles attributed to sampled spans, by stage.");
      for (std::size_t i = 0; i < obs::kStageCount; ++i) {
        w.counter("lamb_pmu_cycles_total", stage_label(i).c_str(),
                  totals[i].cycles);
      }
      w.family("lamb_pmu_instructions_total", "counter",
               "Instructions retired in sampled spans, by stage.");
      for (std::size_t i = 0; i < obs::kStageCount; ++i) {
        w.counter("lamb_pmu_instructions_total", stage_label(i).c_str(),
                  totals[i].instructions);
      }
      w.family("lamb_pmu_llc_loads_total", "counter",
               "Last-level-cache read accesses in sampled spans, by stage.");
      for (std::size_t i = 0; i < obs::kStageCount; ++i) {
        w.counter("lamb_pmu_llc_loads_total", stage_label(i).c_str(),
                  totals[i].llc_loads);
      }
      w.family("lamb_pmu_llc_misses_total", "counter",
               "Last-level-cache read misses in sampled spans, by stage.");
      for (std::size_t i = 0; i < obs::kStageCount; ++i) {
        w.counter("lamb_pmu_llc_misses_total", stage_label(i).c_str(),
                  totals[i].llc_misses);
      }
      w.family("lamb_pmu_stalled_backend_total", "counter",
               "Backend-stalled cycles in sampled spans, by stage.");
      for (std::size_t i = 0; i < obs::kStageCount; ++i) {
        w.counter("lamb_pmu_stalled_backend_total", stage_label(i).c_str(),
                  totals[i].stalled_backend);
      }
      w.family("lamb_pmu_flops_total", "counter",
               "Declared floating-point operations of PMU-attributed "
               "spans, by stage (2mnk per gemm).");
      for (std::size_t i = 0; i < obs::kStageCount; ++i) {
        w.counter("lamb_pmu_flops_total", stage_label(i).c_str(),
                  totals[i].flops);
      }
      w.family("lamb_pmu_ipc", "histogram",
               "Distribution of per-span IPC, by stage (bucket bounds are "
               "the shared 1-2-5 grid, read unitless).");
      for (std::size_t i = 0; i < obs::kStageCount; ++i) {
        const std::string label =
            "stage=\"" +
            std::string(obs::to_string(static_cast<obs::Stage>(i))) + "\"";
        w.histogram("lamb_pmu_ipc", label, ipc[i]);
      }
    }
  }

  Response r;
  r.content_type = std::string(kPrometheusType);
  r.body = w.take();
  return r;
}

Router SelectionRoutes::router() {
  Router router;
  router.get("/healthz",
             [](const Request&) { return text_response(200, "ok\n"); });
  router.get("/metrics",
             [this](const Request&) { return metrics_response(); });
  router.handle("POST", "/v1/query",
                [this](const Request& request, Responder responder) {
                  handle_query(request, std::move(responder));
                });
  router.handle("POST", "/v1/batch",
                [this](const Request& request, Responder responder) {
                  handle_batch(request, std::move(responder));
                });
  router.handle("GET", "/debug/trace",
                [this](const Request& request, Responder responder) {
                  handle_debug_trace(request, std::move(responder));
                });
  router.get("/debug/slow", [](const Request&) {
    Response r;
    r.content_type = "application/json";
    r.body = obs::tracer().slow_json();
    return r;
  });
  router.post("/debug/sample_rate", [this](const Request& request) {
    return debug_sample_rate_response(request);
  });
  return router;
}

}  // namespace lamb::net

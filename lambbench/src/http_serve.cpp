// http-serve: one process runs a net::Server (one event loop) with
// SelectionRoutes (one worker) over a store-warmed SelectionService. Two
// net::Client connections, one thread each, keep a fixed window of
// pipelined requests in flight, replaying a seeded sim::TraceGenerator
// stream: single queries on /v1/query and about 5% 64-line /v1/batch
// requests. The stream's hot set (16 slices) fits in the LRU, so after its
// first touch a single query stays on the inline try_cached path and the
// LRU never evicts. Busy threads: 2 clients + 1 loop + 1 route worker.
//
// Why: it is the only workload that runs net (request parsing, the
// reactor, the write path, the client). Requests overlap, so a per-request
// minimum over passes means nothing here: every round is a fresh service,
// server and pair of connections, latencies are plain per-request times,
// and each metric is the median over rounds. setup_s = store warm + server
// bind + client connects.
#include <thread>

#include "model/simulated_machine.hpp"
#include "net/client.hpp"
#include "net/routes.hpp"
#include "net/server.hpp"
#include "store/atlas_store.hpp"
#include "stream.hpp"
#include "support/hash.hpp"
#include "support/str.hpp"

namespace lambbench {

namespace {

using lamb::serve::Query;
using lamb::serve::SelectionService;

constexpr int kBasesPerFamily = 4;  // 16 slices: the hot set fits the LRU
constexpr int kRequests = 60000;
constexpr double kLocality = 0.9;
constexpr int kLocalityStep = 4;
constexpr double kBatchFraction = 0.05;
constexpr int kConnections = 2;
constexpr int kWindow = 16;
/// One untraced round on the reference host (4-vCPU Xeon KVM guest).
constexpr double kRoundSeconds = 0.6;

lamb::serve::ServiceConfig service_config() {
  lamb::serve::ServiceConfig cfg;
  cfg.threads = 1;  // warm slices only: no build pool
  return cfg;
}

/// Runs a server's event loop on its own thread; stops the server and
/// joins the thread on every exit path.
class LoopThread {
 public:
  explicit LoopThread(lamb::net::Server& server)
      : server_(server), thread_([this] { server_.run(); }) {}
  ~LoopThread() {
    server_.stop();
    thread_.join();
  }
  LoopThread(const LoopThread&) = delete;
  LoopThread& operator=(const LoopThread&) = delete;

 private:
  lamb::net::Server& server_;
  std::thread thread_;
};

struct Round {
  double setup_s = 0.0;
  double warm_ms = 0.0;
  double seconds = 0.0;
  double queries = 0.0;
  std::vector<double> latency_us;  ///< per request, client-observed
  lamb::net::HttpStatsSnapshot http;
  lamb::serve::ServiceStats service;
  double batch_ns_per_query = 0.0;  ///< direct query_batch, traced only
};

class HttpServe {
 public:
  HttpServe(const Options& options, Result& result)
      : options_(options), result_(result) {}

  void prepare() {
    stream_ = make_stream(serving_phase(kBasesPerFamily, kRequests, kLocality,
                                        kLocalityStep, kBatchFraction),
                          options_.seed, result_);
    for (const CompactRequest& r : stream_.requests) {
      queries_ += stream_.units(r);
      singles_ += r.batch ? 0 : 1;
    }
    store_dir_ = options_.work_dir + "/http-serve-store";
    write_store(stream_, machine_, store_dir_);
    oracle_ = oracle_atlases(stream_, machine_, service_config().atlas);
    result_.input_bytes = stream_.bytes();
  }

  Round round(bool traced, bool first) {
    Round out;
    const lamb::store::AtlasStore store(store_dir_);
    const std::uint64_t s0 = now_ns();
    SelectionService service(machine_, service_config());
    const std::uint64_t w0 = now_ns();
    service.warm_from_store(store);
    const std::uint64_t w1 = now_ns();
    lamb::net::SelectionRoutesConfig routes_cfg;
    routes_cfg.worker_threads = 1;
    lamb::net::SelectionRoutes routes(service, routes_cfg);
    lamb::net::ServerConfig server_cfg;
    server_cfg.loops = 1;
    server_cfg.max_connections = 8;
    lamb::net::Server server(routes.router(), server_cfg);
    routes.attach_server(&server);
    const LoopThread loop(server);
    // The listener is bound in the Server constructor, so the connects
    // complete at once: no readiness poll, no retry backoff.
    lamb::net::ClientConfig client_cfg;
    client_cfg.connect_timeout_s = 10.0;
    client_cfg.io_timeout_s = 60.0;
    std::vector<lamb::net::Client> clients;
    for (int c = 0; c < kConnections; ++c) {
      clients.emplace_back("127.0.0.1", server.port(), client_cfg);
    }
    out.setup_s = static_cast<double>(now_ns() - s0) * 1e-9;
    out.warm_ms = static_cast<double>(w1 - w0) * 1e-6;

    std::vector<ConnectionLog> connections(kConnections);
    std::vector<SpanLog> logs;
    if (traced) {
      for (int c = 0; c < kConnections; ++c) {
        logs.emplace_back(2 * stream_.requests.size() / kConnections + 16);
      }
    }
    const std::uint64_t t0 = now_ns();
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        drive(clients[static_cast<std::size_t>(c)], c,
              connections[static_cast<std::size_t>(c)],
              traced ? &logs[static_cast<std::size_t>(c)] : nullptr);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    out.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    out.http = server.stats();
    out.service = service.stats();

    out.queries = static_cast<double>(queries_);
    for (ConnectionLog& d : connections) {
      result_.attempted += d.attempted;
      result_.failed += d.failed;
      out.latency_us.insert(out.latency_us.end(), d.latency_us.begin(),
                            d.latency_us.end());
      if (first) {
        result_.mix_value(d.digest);
      }
    }
    if (traced) {
      out.batch_ns_per_query = direct_batches(service);
      logs.front().write_chrome_json(options_.trace_dir + "/http-serve.json");
    }
    return out;
  }

  void untraced() {
    const PassPlan plan(options_.seconds, kRoundSeconds, 5);
    std::vector<double> qps;
    std::vector<double> p50;
    std::vector<double> p99;
    std::vector<double> setups;
    Round first;
    int rounds = 0;
    while (plan.run(rounds)) {
      const int r = rounds++;
      Round rd = round(false, r == 0);
      qps.push_back(rd.queries / rd.seconds);
      p50.push_back(quantile(rd.latency_us, 0.50) * 1e-3);
      p99.push_back(quantile(rd.latency_us, 0.99) * 1e-3);
      setups.push_back(rd.setup_s);
      if (r == 0) {
        first = std::move(rd);
      }
    }
    result_.metric("throughput_per_s", median(qps), "units/s");
    result_.metric("latency_p50_ms", median(p50), "ms");
    result_.metric("latency_p99_ms", median(p99), "ms");
    result_.metric("setup_s", median(setups), "s");
    result_.metric("peak_rss_mb", peak_rss_mb(), "MB");
    counts(first, rounds);
  }

  void traced() {
    const PassPlan plan(options_.seconds, 2 * kRoundSeconds, 2);
    std::vector<double> plain_qps;
    std::vector<double> traced_qps;
    std::vector<double> server_us;
    std::vector<double> wire_us;
    std::vector<double> wakeups;
    std::vector<double> batch_ns;
    std::vector<double> warm_ms;
    Round first;
    int rounds = 0;
    while (plan.run(rounds)) {
      const int r = rounds++;
      Round a = round(false, r == 0);
      Round b = round(true, false);
      plain_qps.push_back(a.queries / a.seconds);
      traced_qps.push_back(b.queries / b.seconds);
      const double server = b.http.request_latency.quantile(0.5) * 1e6;
      server_us.push_back(server);
      wire_us.push_back(median(b.latency_us) - server);
      wakeups.push_back(static_cast<double>(b.http.epoll_wakeups) /
                        static_cast<double>(b.http.requests_total));
      batch_ns.push_back(b.batch_ns_per_query);
      warm_ms.push_back(a.warm_ms);
      warm_ms.push_back(b.warm_ms);
      if (r == 0) {
        first = std::move(a);
      }
    }
    result_.metric("net.server_us", median(server_us), "us",
                   "median of Server::stats().request_latency (histogram)");
    result_.metric("net.wire_us", median(wire_us), "us");
    result_.metric("net.bytes_per_query", bytes_per_query(first), "bytes");
    result_.metric("net.wakeups_per_request", median(wakeups), "ratio");
    result_.metric("serve.batch_ns_per_query", median(batch_ns), "ns");
    result_.metric("serve.cache_answer_share", cache_share(first), "ratio");
    result_.metric("store.warm_ms", median(warm_ms), "ms");
    result_.metric("bench.trace_overhead_pct",
                   100.0 * (1.0 - median(traced_qps) / median(plain_qps)),
                   "%");
    counts(first, rounds);
  }

 private:
  /// One connection's share of the stream: every request whose index is
  /// `c` mod kConnections, kWindow in flight.
  struct ConnectionLog {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> latency_us;
    std::uint64_t digest = 0xcbf29ce484222325ULL;
  };

  void drive(lamb::net::Client& client, int c, ConnectionLog& d, SpanLog* log) {
    std::vector<std::size_t> mine;
    for (std::size_t i = static_cast<std::size_t>(c);
         i < stream_.requests.size(); i += kConnections) {
      mine.push_back(i);
    }
    std::vector<std::uint64_t> sent_at(mine.size());
    std::vector<std::uint32_t> spans(log ? 2 * mine.size() : 0);
    d.latency_us.reserve(mine.size());
    const std::uint32_t client_name = log ? log->intern("Client::request") : 0;
    std::string body;
    std::size_t sent = 0;
    std::size_t received = 0;
    try {
      while (received < mine.size()) {
        while (sent < mine.size() && sent - received < kWindow) {
          const CompactRequest& r = stream_.requests[mine[sent]];
          render(r, body);
          if (log != nullptr) {
            spans[2 * sent] = log->open(SpanLog::kRequest, mine[sent]);
            spans[2 * sent + 1] =
                log->open(client_name, mine[sent], spans[2 * sent]);
          }
          sent_at[sent] = now_ns();
          client.send("POST", r.batch ? "/v1/batch" : "/v1/query", body);
          ++sent;
        }
        const lamb::net::ResponseParser::Parsed response = client.receive();
        const std::uint64_t done = now_ns();
        if (log != nullptr) {
          log->close(spans[2 * received + 1], response.status);
        }
        d.latency_us.push_back(
            static_cast<double>(done - sent_at[received]) * 1e-3);
        check(stream_.requests[mine[received]], response, d);
        if (log != nullptr) {
          log->close(spans[2 * received]);
        }
        ++received;
      }
    } catch (const std::exception&) {
      // A broken connection fails every request it still owed.
      for (; received < mine.size(); ++received) {
        const std::uint32_t units =
            stream_.units(stream_.requests[mine[received]]);
        d.attempted += units;
        d.failed += units;
      }
    }
  }

  void render(const CompactRequest& r, std::string& body) const {
    body.clear();
    const Slot& s = stream_.slots[r.slot];
    const std::uint32_t n = stream_.units(r);
    char line[128];
    for (std::uint32_t k = 0; k < n; ++k) {
      int len = std::snprintf(line, sizeof(line), "%s", s.family.c_str());
      for (std::size_t d = 0; d < s.base.size(); ++d) {
        const int v = static_cast<int>(d) == s.dim
                          ? stream_.coord(r, static_cast<int>(k))
                          : s.base[d];
        len += std::snprintf(line + len,
                             sizeof(line) - static_cast<std::size_t>(len),
                             ",%d", v);
      }
      body.append(line, static_cast<std::size_t>(len));
      body += '\n';
    }
  }

  /// Every answer line parsed back and compared with a lookup on the
  /// directly built atlas; `source` is provenance and ignored.
  void check(const CompactRequest& r,
             const lamb::net::ResponseParser::Parsed& response,
             ConnectionLog& d) const {
    const std::uint32_t units = stream_.units(r);
    d.attempted += units;
    if (response.status < 200 || response.status > 299) {
      d.failed += units;
      return;
    }
    const lamb::anomaly::RegionAtlas& oracle = oracle_[r.slot];
    std::string_view body = response.body;
    std::uint32_t k = 0;
    while (!body.empty() && k < units) {
      const std::size_t nl = body.find('\n');
      const std::string_view line = body.substr(0, nl);
      body = nl == std::string_view::npos ? std::string_view{}
                                          : body.substr(nl + 1);
      try {
        const lamb::serve::Recommendation rec =
            lamb::net::parse_recommendation(line);
        const int coord = stream_.coord(r, static_cast<int>(k));
        if (!matches(rec, oracle.lookup(coord))) {
          ++d.failed;
        }
        d.digest = lamb::support::fnv1a64(&rec.algorithm, sizeof(rec.algorithm),
                                          d.digest);
        d.digest = lamb::support::fnv1a64(&rec.time_score,
                                          sizeof(rec.time_score), d.digest);
      } catch (const std::exception&) {
        ++d.failed;
      }
      ++k;
    }
    d.failed += units - k;  // missing lines
  }

  /// serve.batch_ns_per_query on this workload: query_batch called
  /// directly on the round's service with the stream's batches, each the
  /// minimum of three calls, per query.
  double direct_batches(SelectionService& service) {
    ScratchQueries scratch(stream_);
    std::vector<double> per_query;
    for (const CompactRequest& r : stream_.requests) {
      if (!r.batch) {
        continue;
      }
      const std::vector<Query>& batch = scratch.batch(r);
      std::uint64_t best = ~std::uint64_t{0};
      for (int rep = 0; rep < 3; ++rep) {
        const std::uint64_t t0 = now_ns();
        const auto recs = service.query_batch(batch);
        best = std::min(best, now_ns() - t0);
      }
      per_query.push_back(static_cast<double>(best) / batch.size());
    }
    return median(per_query);
  }

  double bytes_per_query(const Round& r) const {
    return static_cast<double>(r.http.bytes_read + r.http.bytes_written) /
           r.queries;
  }
  double cache_share(const Round& r) const {
    return static_cast<double>(r.service.cache_answers) /
           static_cast<double>(singles_);
  }

  void counts(const Round& first, int rounds) {
    result_.count("rounds", rounds);
    result_.count("requests_per_round",
                  static_cast<double>(stream_.requests.size()));
    result_.count("queries_per_round", static_cast<double>(queries_));
    result_.count("serve.cache_answer_share", cache_share(first));
    result_.count("net.bytes_per_query", bytes_per_query(first));
    result_.count("attempted", static_cast<double>(result_.attempted));
    result_.notes.push_back(lamb::support::strf(
        "http-serve: %zu requests (%zu queries) per round over %zu slices, "
        "%d rounds, %d connections x window %d, cache answers %llu of %zu "
        "single queries",
        stream_.requests.size(), queries_, stream_.slots.size(), rounds,
        kConnections, kWindow,
        static_cast<unsigned long long>(first.service.cache_answers),
        singles_));
  }

  const Options& options_;
  Result& result_;
  lamb::model::SimulatedMachine machine_;
  Stream stream_;
  std::size_t queries_ = 0;
  std::size_t singles_ = 0;
  std::vector<lamb::anomaly::RegionAtlas> oracle_;
  std::string store_dir_;
};

}  // namespace

void run_http_serve(const Options& options, Result& result) {
  HttpServe bench(options, result);
  bench.prepare();
  reset_peak_rss();
  if (options.trace) {
    bench.traced();
  } else {
    bench.untraced();
  }
}

}  // namespace lambbench

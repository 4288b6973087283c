// bm_net_throughput: load generator for the HTTP serving front-end, and
// CI's HTTP floors.
//
// Spins up an in-process Server over a warm SelectionService (simulated
// machine, one hot atlas slice — the serving path, not the scan, is under
// test), then drives it over loopback with N connections, each keeping a
// window of pipelined requests in flight. Two phases:
//
//   single   every request is POST /v1/query with one query line
//   batch    every request is POST /v1/batch carrying --batch query lines,
//            fused server-side into one query_batch call
//
// Reports queries/s and per-request p50/p99 latency for both, plus the
// per-query speedup of the batch endpoint. The run fails when the batch
// endpoint is not faster per query, and, with --min-qps, when the single
// phase stays below that floor (CI gates 80000 q/s at --loops=4).
//
//   bm_net_throughput [--connections=4] [--requests=20000] [--pipeline=32]
//                     [--batch=64] [--min-qps=0] [--port=0]
//                     [--http-threads=2] [--loops=1]
//                     [--trace=off|counters|sampled|full] [--trace-sweep]
//                     [--rounds=3] [--max-sampled-overhead=0]
//
// --loops shards the server over N epoll event loops (SO_REUSEPORT
// listeners when the kernel allows); loops beyond the host's cores cannot
// scale. Each phase is a single shot. lambbench's http-serve workload
// (lambbench/run.py) times the same tier with checked answers, taking the
// median over repeated rounds.
//
// --trace configures the server-side tracer before the phases run, so the
// normal numbers can be taken under any tracing tier. --trace-sweep replaces
// the phases: it re-runs the single-query phase under off, sampled (1-in-64)
// and full tracing in interleaved rounds, rotating the mode order each round,
// and computes each round's overhead against that round's own off-mode qps.
// It reports the SMALLEST per-round overhead. One round that happens to
// favour the traced mode is enough to pull that statistic down, even below
// zero, so it is a lenient bound, not an estimate of the cost.
// --max-sampled-overhead=PCT (0 = report only) fails the run when the
// sampled statistic exceeds PCT%, that is, when sampled tracing costs more
// than PCT% in every round.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "model/simulated_machine.hpp"
#include "net/client.hpp"
#include "net/routes.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "serve/selection_service.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

namespace {

using namespace lamb;
using clock_type = std::chrono::steady_clock;

struct PhaseResult {
  double seconds = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t queries = 0;
  std::vector<double> latencies;  ///< per-request, seconds

  double qps() const { return static_cast<double>(queries) / seconds; }
  double quantile(double q) const {
    if (latencies.empty()) {
      return 0.0;
    }
    std::vector<double> sorted = latencies;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1));
    return sorted[rank];
  }
};

/// One connection's worth of work: keep `window` requests pipelined until
/// `requests` round trips complete; per-request latency is measured from
/// its send to its response.
void drive_connection(const std::string& host, std::uint16_t port,
                      const std::vector<std::string>& bodies,
                      const char* target, int requests, int window,
                      PhaseResult& out) {
  // Bounded connect/IO: a wedged server fails the benchmark loudly instead
  // of hanging CI forever.
  net::ClientConfig client_cfg;
  client_cfg.connect_timeout_s = 10.0;
  client_cfg.io_timeout_s = 120.0;
  client_cfg.connect_retries = 3;  // survive a listener still coming up
  net::Client client(host, port, client_cfg);
  std::vector<clock_type::time_point> send_times;
  send_times.reserve(static_cast<std::size_t>(requests));
  out.latencies.reserve(static_cast<std::size_t>(requests));
  int sent = 0;
  int received = 0;
  while (received < requests) {
    while (sent < requests && sent - received < window) {
      client.send("POST", target, bodies[static_cast<std::size_t>(sent) %
                                          bodies.size()]);
      send_times.push_back(clock_type::now());
      ++sent;
    }
    const auto response = client.receive();
    if (response.status != 200) {
      std::fprintf(stderr, "request failed (%d): %s\n", response.status,
                   response.body.c_str());
      std::exit(1);
    }
    out.latencies.push_back(std::chrono::duration<double>(
                                clock_type::now() -
                                send_times[static_cast<std::size_t>(received)])
                                .count());
    ++received;
  }
  out.requests = static_cast<std::uint64_t>(requests);
}

PhaseResult run_phase(const std::string& host, std::uint16_t port,
                      const std::vector<std::string>& bodies,
                      const char* target, int connections,
                      int requests_per_conn, int window,
                      std::uint64_t queries_per_request) {
  std::vector<PhaseResult> per_conn(static_cast<std::size_t>(connections));
  std::vector<std::thread> threads;
  const auto t0 = clock_type::now();
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      drive_connection(host, port, bodies, target, requests_per_conn,
                       window, per_conn[static_cast<std::size_t>(c)]);
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  PhaseResult total;
  total.seconds = std::chrono::duration<double>(clock_type::now() - t0)
                      .count();
  for (PhaseResult& conn : per_conn) {
    total.requests += conn.requests;
    total.latencies.insert(total.latencies.end(), conn.latencies.begin(),
                           conn.latencies.end());
  }
  total.queries = total.requests * queries_per_request;
  return total;
}

void report(const char* name, const PhaseResult& r,
            std::uint64_t queries_per_request) {
  std::printf(
      "%-7s %9llu requests x %4llu q | %8.0f q/s | per-request p50 %7.1f us"
      "  p99 %7.1f us | per-query %7.1f ns\n",
      name, static_cast<unsigned long long>(r.requests),
      static_cast<unsigned long long>(queries_per_request), r.qps(),
      1e6 * r.quantile(0.50), 1e6 * r.quantile(0.99),
      1e9 * r.seconds / static_cast<double>(r.queries));
}

/// Applies one tracing tier to the process-wide tracer (the server runs in
/// this process, so this is the server's tracer too). False on a bad name.
bool apply_trace_mode(const std::string& mode) {
  obs::TracerConfig tc;
  if (mode == "off") {
    tc.enabled = false;
  } else if (mode == "counters") {
    tc.enabled = true;
    tc.sample_every = 0;
  } else if (mode == "sampled") {
    tc.enabled = true;
    tc.sample_every = 64;
  } else if (mode == "full") {
    tc.enabled = true;
    tc.sample_every = 1;
  } else {
    return false;
  }
  obs::tracer().configure(tc);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lamb;
  const support::Cli cli(argc, argv);
  const int connections = static_cast<int>(cli.get_int("connections", 4));
  const int requests = static_cast<int>(cli.get_int("requests", 20000));
  const int window = static_cast<int>(cli.get_int("pipeline", 32));
  const int batch = static_cast<int>(cli.get_int("batch", 64));
  const int loops = static_cast<int>(cli.get_int("loops", 1));
  const double min_qps = cli.get_double("min-qps", 0.0);
  const std::string trace_mode = cli.get_string("trace", "off");
  const auto http_threads =
      static_cast<std::size_t>(cli.get_int("http-threads", 2));
  const auto port = static_cast<std::uint16_t>(cli.get_int("port", 0));
  const bool trace_sweep = cli.get_bool("trace-sweep", false);
  const int rounds =
      trace_sweep ? static_cast<int>(cli.get_int("rounds", 3)) : 0;
  const double max_overhead =
      trace_sweep ? cli.get_double("max-sampled-overhead", 0.0) : 0.0;
  cli.reject_unknown_flags();
  if (!apply_trace_mode(trace_mode)) {
    std::fprintf(stderr, "bad --trace=%s (off|counters|sampled|full)\n",
                 trace_mode.c_str());
    return 1;
  }

  model::SimulatedMachine machine;
  serve::ServiceConfig cfg;
  cfg.threads = 2;
  serve::SelectionService service(machine, cfg);

  net::SelectionRoutesConfig routes_cfg;
  routes_cfg.worker_threads = http_threads;
  net::SelectionRoutes routes(service, routes_cfg);
  net::ServerConfig server_cfg;
  server_cfg.port = port;
  server_cfg.max_connections = static_cast<std::size_t>(connections) + 8;
  server_cfg.loops = static_cast<std::size_t>(loops);
  net::Server server(routes.router(), server_cfg);
  routes.attach_server(&server);
  std::thread loop([&] { server.run(); });

  // Warm one slice; every query below lands on it, so the wire + serving
  // path dominates, not atlas scans.
  support::Rng rng(42);
  std::vector<serve::Query> warmup;
  for (int i = 0; i < 64; ++i) {
    warmup.push_back(serve::Query{
        "aatb", {rng.uniform_int(cfg.atlas.lo, cfg.atlas.hi), 260, 549}, 0,
        false});
  }
  service.warm(warmup);

  // Pre-render request bodies (the generator must not be the bottleneck).
  std::vector<std::string> single_bodies;
  for (int i = 0; i < 256; ++i) {
    single_bodies.push_back(support::strf(
        "aatb,%d,260,549", rng.uniform_int(cfg.atlas.lo, cfg.atlas.hi)));
  }
  std::vector<std::string> batch_bodies;
  for (int i = 0; i < 16; ++i) {
    std::string body;
    for (int row = 0; row < batch; ++row) {
      body += support::strf("aatb,%d,260,549\n",
                            rng.uniform_int(cfg.atlas.lo, cfg.atlas.hi));
    }
    batch_bodies.push_back(std::move(body));
  }

  std::printf("bm_net_throughput: %d connections, pipeline %d, %zu loop%s "
              "(%s), loopback port %u\n",
              connections, window, server.loops(),
              server.loops() == 1 ? "" : "s",
              server.loops() == 1          ? "single listener"
              : server.sharded_listeners() ? "SO_REUSEPORT"
                                           : "acceptor handoff",
              server.port());

  if (trace_sweep) {
    static constexpr const char* kModes[] = {"off", "sampled", "full"};
    double best_qps[3] = {0.0, 0.0, 0.0};

    // One untimed pass warms the wire path (socket buffers, allocator,
    // branch predictors) so round 0 is not systematically slow.
    apply_trace_mode("off");
    run_phase("127.0.0.1", server.port(), single_bodies, "/v1/query",
              connections, std::max(1, requests / 4), window, 1);

    // Interleave the modes within each round, so that drift slower than a
    // round (thermal, noisy neighbours) degrades every mode of a round
    // roughly equally, and rotate the starting mode per round so no mode
    // always runs first or last. Overheads are computed per round against
    // that round's own off-mode qps; the gate reads their minimum (see the
    // header comment).
    std::vector<std::array<double, 3>> round_qps(
        static_cast<std::size_t>(rounds));
    for (int r = 0; r < rounds; ++r) {
      for (int i = 0; i < 3; ++i) {
        const int m = (r + i) % 3;
        apply_trace_mode(kModes[m]);
        const PhaseResult result =
            run_phase("127.0.0.1", server.port(), single_bodies, "/v1/query",
                      connections, requests, window, 1);
        round_qps[static_cast<std::size_t>(r)][static_cast<std::size_t>(m)] =
            result.qps();
        std::printf("  round %d %-8s %8.0f q/s\n", r, kModes[m],
                    result.qps());
        best_qps[m] = std::max(best_qps[m], result.qps());
      }
    }
    apply_trace_mode("off");

    double sampled_pct = std::numeric_limits<double>::infinity();
    double full_pct = std::numeric_limits<double>::infinity();
    for (int r = 0; r < rounds; ++r) {
      const std::array<double, 3>& q = round_qps[static_cast<std::size_t>(r)];
      const double sampled_r = 100.0 * (1.0 - q[1] / q[0]);
      const double full_r = 100.0 * (1.0 - q[2] / q[0]);
      std::printf("  round %d overhead: sampled %+.2f%%  full %+.2f%%\n", r,
                  sampled_r, full_r);
      sampled_pct = std::min(sampled_pct, sampled_r);
      full_pct = std::min(full_pct, full_r);
    }
    std::printf(
        "trace sweep (%d rounds): off %.0f q/s | sampled %.0f q/s | full "
        "%.0f q/s | min-round overhead sampled %+.2f%% full %+.2f%%\n",
        rounds, best_qps[0], best_qps[1], best_qps[2], sampled_pct, full_pct);

    server.stop();
    loop.join();

    if (max_overhead > 0.0 && sampled_pct > max_overhead) {
      std::fprintf(stderr,
                   "FAIL: sampled tracing costs %.2f%% qps "
                   "(--max-sampled-overhead=%.2f)\n",
                   sampled_pct, max_overhead);
      return 1;
    }
    return 0;
  }

  const PhaseResult single =
      run_phase("127.0.0.1", server.port(), single_bodies, "/v1/query",
                connections, requests, window, 1);
  report("single", single, 1);

  const int batch_requests =
      std::max(1, requests / std::max(1, batch / 8));  // similar wall time
  const PhaseResult batched =
      run_phase("127.0.0.1", server.port(), batch_bodies, "/v1/batch",
                connections, batch_requests, window,
                static_cast<std::uint64_t>(batch));
  report("batch", batched, static_cast<std::uint64_t>(batch));

  const double single_per_query = single.seconds /
                                  static_cast<double>(single.queries);
  const double batch_per_query = batched.seconds /
                                 static_cast<double>(batched.queries);
  std::printf("batch endpoint per-query speedup: %.1fx\n",
              single_per_query / batch_per_query);

  server.stop();
  loop.join();

  bool ok = true;
  if (min_qps > 0.0 && single.qps() < min_qps) {
    std::fprintf(stderr, "FAIL: single %.0f q/s below --min-qps=%.0f\n",
                 single.qps(), min_qps);
    ok = false;
  }
  if (batch_per_query >= single_per_query) {
    std::fprintf(stderr,
                 "FAIL: batch endpoint not faster per query (%.1f ns vs "
                 "%.1f ns)\n",
                 1e9 * batch_per_query, 1e9 * single_per_query);
    ok = false;
  }
  return ok ? 0 : 1;
}

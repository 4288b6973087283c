// serve_cli: drive the SelectionService from the command line.
//
// Subcommands (first positional argument):
//   build   build one atlas slice and persist it
//             serve_cli build --family=aatb --base=150,260,549 --dim=0
//                       --atlas-dir=atlases [--lo --hi --step --threshold]
//   warm    batch-build the slices a query list needs, checkpoint them
//             serve_cli warm --family=aatb --atlas-dir=atlases
//                       --queries=queries.csv
//   query   answer queries from a CSV file or stdin (one instance per line,
//           comma-separated sizes; '#' starts a comment) in one query_batch
//           call
//             echo 300,260,549 | serve_cli query --family=aatb
//                       --atlas-dir=atlases
//   serve   HTTP front-end: warm from --atlas-dir (and --queries, if given),
//           then listen until SIGINT/SIGTERM (graceful drain, checkpoint on
//           exit when an atlas dir is set)
//             serve_cli serve --port=8080 --atlas-dir=atlases
//                       [--bind=127.0.0.1 --http-threads=2 --loops=N]
//                       [--trace=off|counters|sampled|full
//                        --trace-sample=64 --slow-ms=10]
//                       [--drift-refresh --drift-interval=30
//                        --drift-threshold=0.15 --drift-probes=12]
//           --drift-refresh runs a background DriftMonitor: it re-measures a
//           sampled probe grid on a cadence and, when the machine's timings
//           move, rebuilds every atlas slice and swaps the new set into the
//           slice map under one hold (SelectionService::refresh_slices);
//           progress is visible as lamb_drift_* on /metrics.
//           With --atlas-dir the drift baseline persists next to the slices.
//           --loops=N shards the front-end over N independent epoll loops
//           (per-loop SO_REUSEPORT listeners when the kernel allows, else a
//           round-robin acceptor); /metrics exports per-loop lamb_net_loop_*
//           series next to the aggregated lamb_http_* families.
//           --trace controls the obs::Tracer (default sampled): counters
//           keeps only the always-on lamb_stage_seconds histograms, sampled
//           adds full span capture for 1-in---trace-sample requests, full
//           samples everything. Spans surface on GET /debug/trace (Chrome
//           trace-event JSON, e.g. `curl -o trace.json HOST:PORT/debug/trace`),
//           requests slower than --slow-ms on GET /debug/slow;
//           POST /debug/sample_rate retunes sampling live.
//   fsck    verify every checkpoint in --atlas-dir (framed *.atlas records
//           and the drift baseline) without loading them into a service;
//           --repair quarantines corrupt files (renamed to *.corrupt and
//           journaled, see store/serial.hpp) and removes stale *.tmp
//           staging files. Exits 1 when unrepaired corruption remains.
//             serve_cli fsck --atlas-dir=atlases [--repair]
//   simulate  replay a trace spec (sim/trace.hpp grammar) against a fresh
//           service, in-process or through a loopback HTTP server, and
//           report per-phase qps, latency percentiles and the answer-source
//           mix. Deterministic: same --trace + --seed => same stream, and
//           (in-process, or --http with --connections=1) the same source
//           mix — the CI smoke diffs two runs.
//             serve_cli simulate [--trace=spec.toml] [--seed=1]
//                       [--http --connections=1 --loops=N] [--warm] [--pace=1]
//                       [--json=out.json] [--max-p99-ms=N] [--print-trace]
//                       [--stage-breakdown]
//           --stage-breakdown additionally attributes serving time to the
//           pipeline stages (parse/route/lru/atlas/build/kernel) per phase,
//           via the tracer's always-on counters tier.
//   profile replay a trace spec in-process with FULL span sampling and
//           print the per-stage wall-time x PMU attribution table: stage
//           executions, total wall time and share, plus cycles,
//           instructions, IPC and LLC miss rate per stage when the PMU is
//           available (all hardware columns degrade to "-" when it is not
//           — see lamb_pmu_available on /metrics).
//             serve_cli profile [--trace=spec.toml] [--seed=1] [--warm]
//                       [--sample=1] [--json=out.json]
//
// An unknown subcommand exits 1 before any machine model, service or
// --atlas-dir is touched. To compare the service's speed between commits,
// use lambbench/run.py (the warm-serve and cold-build workloads; --trace 1
// adds per-layer numbers), not these subcommands.
//
// Common flags: --family=NAME (registry name), --dim=N (slice dimension,
// default 0), --exact (bypass the atlas), --atlas-dir=DIR (persistent store;
// omitted = in-memory only), --real (measured machine instead of simulated),
// --lo/--hi/--step/--threshold (atlas scan geometry; anomaly::AtlasConfig's
// defaults, except --hi=300 with --real), --threads=N.
//
// Robustness flags (serve/simulate degrade by default; see README "Failure
// model"): --degrade=0|1 (fallback answers instead of exceptions when a
// build fails), --breaker-threshold=N and --breaker-backoff-ms=MS (per-slice
// circuit breaker), --max-build-queue=N (bounded async build queue),
// --build-deadline-ms=MS (cap a query's wait on an in-flight build),
// --deadline-ms=MS (HTTP 504 ceiling per request), --max-in-flight=N
// (admission control: shed 503 + Retry-After past N concurrent requests),
// --idle-timeout-s=S (reap idle keep-alive connections). Fault injection for
// drills: LAMB_FAULT="site=spec,..." (support/fault.hpp grammar), surfaced
// as lamb_fault_injected_total on /metrics.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <span>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>

#include "model/measured_machine.hpp"
#include "model/simulated_machine.hpp"
#include "net/routes.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "serve/drift.hpp"
#include "serve/selection_service.hpp"
#include "sim/generator.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "store/atlas_io.hpp"
#include "store/profile_io.hpp"
#include "store/serial.hpp"
#include "support/cli.hpp"
#include "support/fault.hpp"
#include "support/str.hpp"

#include <filesystem>

namespace {

using namespace lamb;

serve::ServiceConfig service_config(const support::Cli& cli, bool real,
                                    bool serving) {
  serve::ServiceConfig cfg;
  const anomaly::AtlasConfig defaults;
  cfg.atlas.lo = static_cast<int>(cli.get_int("lo", defaults.lo));
  cfg.atlas.hi = static_cast<int>(cli.get_int("hi", real ? 300 : defaults.hi));
  cfg.atlas.coarse_step =
      static_cast<int>(cli.get_int("step", defaults.coarse_step));
  cfg.atlas.time_score_threshold =
      cli.get_double("threshold", defaults.time_score_threshold);
  cfg.threads = static_cast<std::size_t>(cli.get_int("threads", 0));
  // Robustness posture. Serving paths (serve, simulate) degrade to the
  // flop-minimal fallback when a build fails — a wrong-but-safe answer
  // beats a 500; the one-shot CLI commands keep throwing so failures are
  // loud at the terminal. --degrade overrides either default.
  cfg.degrade_on_failure = cli.get_bool("degrade", serving);
  cfg.breaker_threshold =
      static_cast<int>(cli.get_int("breaker-threshold", 3));
  cfg.breaker_backoff_initial_s =
      cli.get_double("breaker-backoff-ms", 500.0) * 1e-3;
  cfg.build_deadline_s = cli.get_double("build-deadline-ms", 0.0) * 1e-3;
  cfg.max_build_queue =
      static_cast<std::size_t>(cli.get_int("max-build-queue", 0));
  return cfg;
}

std::unique_ptr<model::MachineModel> make_machine(const support::Cli& cli) {
  if (cli.get_bool("real", false)) {
    model::MeasuredMachineConfig cfg;
    cfg.protocol.repetitions = static_cast<int>(cli.get_int("repetitions", 5));
    return std::make_unique<model::MeasuredMachine>(cfg);
  }
  model::SimulatedMachineConfig cfg;
  cfg.noise_seed = cli.get_seed("noise-seed", 0xC0FFEE);
  return std::make_unique<model::SimulatedMachine>(cfg);
}

expr::Instance parse_instance(const std::string& line) {
  expr::Instance dims;
  std::stringstream ss(line);
  std::string field;
  while (std::getline(ss, field, ',')) {
    try {
      std::size_t consumed = 0;
      const int value = std::stoi(field, &consumed);
      if (field.find_first_not_of(" \t\r", consumed) != std::string::npos) {
        throw std::invalid_argument("trailing garbage");
      }
      dims.push_back(value);
    } catch (const std::exception&) {
      std::fprintf(stderr, "bad size field '%s' in query line '%s'\n",
                   field.c_str(), line.c_str());
      std::exit(1);
    }
  }
  return dims;
}

/// Queries from --queries=PATH ("-" or absent = stdin); blank lines and
/// '#' comments are skipped.
std::vector<serve::Query> read_queries(const support::Cli& cli,
                                       const std::string& family, int dim,
                                       bool exact) {
  const std::string path = cli.get_string("queries", "-");
  std::ifstream file;
  std::istream* in = &std::cin;
  if (path != "-") {
    file.open(path);
    if (!file) {
      std::fprintf(stderr, "cannot open queries file: %s\n", path.c_str());
      std::exit(1);
    }
    in = &file;
  }
  std::vector<serve::Query> queries;
  std::string line;
  while (std::getline(*in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    queries.push_back(serve::Query{family, parse_instance(line), dim, exact});
  }
  return queries;
}

void print_stats(const serve::SelectionService& service) {
  const serve::ServiceStats s = service.stats();
  std::printf("stats: cache %llu hits / %llu misses, %llu atlases built "
              "(+%llu loaded, %llu skipped, %lld scan samples), "
              "%llu measured queries\n",
              static_cast<unsigned long long>(s.cache_hits),
              static_cast<unsigned long long>(s.cache_misses),
              static_cast<unsigned long long>(s.atlases_built),
              static_cast<unsigned long long>(s.atlases_loaded),
              static_cast<unsigned long long>(s.atlases_skipped),
              s.atlas_samples,
              static_cast<unsigned long long>(s.measured_queries));
  std::printf("stats: answers by source cache=%llu atlas=%llu "
              "measured=%llu; %llu batch calls (%llu queries), "
              "%llu async calls\n",
              static_cast<unsigned long long>(s.cache_answers),
              static_cast<unsigned long long>(s.atlas_answers),
              static_cast<unsigned long long>(s.measured_queries),
              static_cast<unsigned long long>(s.batch_calls),
              static_cast<unsigned long long>(s.batch_queries),
              static_cast<unsigned long long>(s.async_calls));
}

void print_recommendations(const std::vector<serve::Query>& queries,
                           const std::vector<serve::Recommendation>& recs) {
  std::printf("instance,algorithm,flops_reliable,time_score,source\n");
  for (std::size_t i = 0; i < recs.size(); ++i) {
    std::string inst;
    for (std::size_t d = 0; d < queries[i].dims.size(); ++d) {
      inst += support::strf("%s%d", d > 0 ? "x" : "", queries[i].dims[d]);
    }
    std::printf("%s,%zu,%d,%.4f,%s\n", inst.c_str(), recs[i].algorithm + 1,
                recs[i].flops_reliable ? 1 : 0, recs[i].time_score,
                std::string(serve::to_string(recs[i].source)).c_str());
  }
}

int cmd_build(const support::Cli& cli, serve::SelectionService& service,
              model::MachineModel&) {
  const std::string family = cli.get_string("family", "aatb");
  const expr::Instance base =
      parse_instance(cli.get_string("base", "150,260,549"));
  const int dim = static_cast<int>(cli.get_int("dim", 0));
  const serve::Query probe{family, base, dim, false};
  service.warm({probe});
  const anomaly::RegionAtlas* atlas = service.atlas_for(probe);
  std::printf("%s", atlas->to_string().c_str());
  print_stats(service);
  return 0;
}

int cmd_warm(const support::Cli& cli, serve::SelectionService& service,
             model::MachineModel&) {
  const std::string family = cli.get_string("family", "aatb");
  const int dim = static_cast<int>(cli.get_int("dim", 0));
  const auto queries = read_queries(cli, family, dim, false);
  const std::size_t built = service.warm(queries);
  std::printf("%zu queries -> %zu atlas slices built (%zu total)\n",
              queries.size(), built, service.atlas_count());
  print_stats(service);
  return 0;
}

int cmd_query(const support::Cli& cli, serve::SelectionService& service,
              model::MachineModel&) {
  const std::string family = cli.get_string("family", "aatb");
  const int dim = static_cast<int>(cli.get_int("dim", 0));
  const bool exact = cli.get_bool("exact", false);
  const auto queries = read_queries(cli, family, dim, exact);
  const auto recs = service.query_batch(queries);
  print_recommendations(queries, recs);
  print_stats(service);
  return 0;
}

/// --trace=off|counters|sampled|full (+ --trace-sample, --slow-ms) ->
/// tracer configuration. Returns the mode string for the banner.
std::string configure_tracing(const support::Cli& cli) {
  const std::string mode = cli.get_string("trace", "sampled");
  obs::TracerConfig tc;
  if (mode == "off") {
    tc.enabled = false;
  } else if (mode == "counters") {
    tc.enabled = true;
    tc.sample_every = 0;  // histograms only, no span capture
  } else if (mode == "sampled") {
    tc.enabled = true;
    tc.sample_every = static_cast<std::uint32_t>(
        cli.get_int("trace-sample", 64));
  } else if (mode == "full") {
    tc.enabled = true;
    tc.sample_every = 1;
  } else {
    std::fprintf(stderr,
                 "bad --trace=%s (want off|counters|sampled|full)\n",
                 mode.c_str());
    std::exit(1);
  }
  tc.slow_threshold_ns = static_cast<std::uint64_t>(
      cli.get_double("slow-ms", 10.0) * 1e6);
  obs::tracer().configure(tc);
  return mode;
}

/// stop() is an atomic store plus one eventfd write: async-signal-safe.
std::atomic<net::Server*> g_serving{nullptr};

void handle_stop_signal(int) {
  if (net::Server* server = g_serving.load()) {
    server->stop();
  }
}

int cmd_serve(const support::Cli& cli, serve::SelectionService& service,
              model::MachineModel& machine) {
  const std::string family = cli.get_string("family", "aatb");
  const int dim = static_cast<int>(cli.get_int("dim", 0));
  if (cli.has("queries")) {
    const auto queries = read_queries(cli, family, dim, false);
    const std::size_t built = service.warm(queries);
    std::printf("pre-warmed %zu atlas slices from %zu queries\n", built,
                queries.size());
  }

  const std::string trace_mode = configure_tracing(cli);

  net::SelectionRoutesConfig routes_cfg;
  routes_cfg.worker_threads =
      static_cast<std::size_t>(cli.get_int("http-threads", 2));
  routes_cfg.deadline_ms = cli.get_double("deadline-ms", 0.0);
  net::SelectionRoutes routes(service, routes_cfg);

  std::unique_ptr<serve::DriftMonitor> drift;
  if (cli.get_bool("drift-refresh", false)) {
    serve::DriftConfig drift_cfg;
    drift_cfg.check_interval_seconds =
        cli.get_double("drift-interval", drift_cfg.check_interval_seconds);
    drift_cfg.threshold =
        cli.get_double("drift-threshold", drift_cfg.threshold);
    drift_cfg.probes = static_cast<std::size_t>(
        cli.get_int("drift-probes", static_cast<long long>(drift_cfg.probes)));
    const std::string atlas_dir = cli.get_string("atlas-dir", "");
    if (!atlas_dir.empty()) {
      drift_cfg.baseline_path = atlas_dir + "/drift_baseline.lamb";
    }
    drift = std::make_unique<serve::DriftMonitor>(service, machine, drift_cfg);
    routes.attach_drift(drift.get());
    drift->start();
    std::printf("drift refresh: every %.1f s, %zu probes, threshold %.2f%s\n",
                drift_cfg.check_interval_seconds, drift_cfg.probes,
                drift_cfg.threshold,
                drift_cfg.baseline_path.empty() ? ""
                                                : ", persisted baseline");
  }

  net::ServerConfig server_cfg;
  server_cfg.bind_address = cli.get_string("bind", "127.0.0.1");
  server_cfg.port = static_cast<std::uint16_t>(cli.get_int("port", 8080));
  server_cfg.loops = static_cast<std::size_t>(cli.get_int("loops", 1));
  server_cfg.max_in_flight =
      static_cast<std::size_t>(cli.get_int("max-in-flight", 0));
  server_cfg.idle_timeout_s = cli.get_double("idle-timeout-s", 0.0);
  // Backpressure from the build tier: when the async build queue backs up
  // past the watermark, shed new requests at admission instead of letting
  // them pile onto a queue that is already losing ground.
  const auto shed_watermark =
      static_cast<std::size_t>(cli.get_int("shed-queue-depth", 0));
  if (shed_watermark > 0) {
    server_cfg.shed_hook = [&service, shed_watermark] {
      return service.async_queue_depth() >= shed_watermark;
    };
  }
  net::Server server(routes.router(), server_cfg);
  routes.attach_server(&server);

  g_serving.store(&server);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);

  std::printf("serving on http://%s:%u (POST /v1/query, POST /v1/batch, "
              "GET /healthz, GET /metrics, GET /debug/trace, "
              "GET /debug/slow, POST /debug/sample_rate); "
              "%zu event loop%s (%s); SIGINT/SIGTERM drains\n",
              server_cfg.bind_address.c_str(), server.port(), server.loops(),
              server.loops() == 1 ? "" : "s",
              server.loops() == 1          ? "single listener"
              : server.sharded_listeners() ? "SO_REUSEPORT sharded"
                                           : "acceptor handoff");
  if (trace_mode != "off") {
    const obs::TracerConfig tc = obs::tracer().config();
    const std::string capture =
        tc.sample_every == 0 ? "no span capture"
                             : support::strf("1-in-%u span capture",
                                             tc.sample_every);
    std::printf("tracing %s: %s, slow log at %.1f ms, %s timestamps\n",
                trace_mode.c_str(), capture.c_str(),
                static_cast<double>(tc.slow_threshold_ns) * 1e-6,
                obs::using_tsc() ? "tsc" : "steady_clock");
  }
  std::fflush(stdout);
  server.run();
  g_serving.store(nullptr);
  if (drift != nullptr) {
    drift->stop();
    const serve::DriftStats d = drift->stats();
    std::printf("drift: %llu checks, %llu drift events, %llu refresh rounds "
                "(%llu slices), last score %.4f\n",
                static_cast<unsigned long long>(d.checks),
                static_cast<unsigned long long>(d.drift_detected),
                static_cast<unsigned long long>(d.refresh_rounds),
                static_cast<unsigned long long>(d.slices_refreshed),
                d.last_score);
  }

  const net::HttpStatsSnapshot h = server.stats();
  std::printf("drained: %llu connections, %llu requests, %llu bytes out, "
              "%llu shed, %llu idle-reaped\n",
              static_cast<unsigned long long>(h.connections_accepted),
              static_cast<unsigned long long>(h.requests_total),
              static_cast<unsigned long long>(h.bytes_written),
              static_cast<unsigned long long>(h.requests_shed),
              static_cast<unsigned long long>(h.idle_reaped));
  print_stats(service);
  return 0;
}

/// Checkpoint integrity audit. Walks --atlas-dir and re-parses every framed
/// record exactly the way warm_from_store would, but without a service or
/// machine model — so it runs before a deploy, on a snapshot, or against a
/// dir a crashed server left behind. Three findings:
///   corrupt  *.atlas / drift baseline that fails its frame checksum
///            (--repair quarantines: rename to *.corrupt + journal entry)
///   stale    *.tmp staging files from an interrupted atomic write
///            (--repair removes them; the rename never happened, so they
///            shadow nothing), and *.atlas records of an older format
///            version (kept: warm_from_store skips them, the slice is
///            rebuilt on first query and the next checkpoint overwrites
///            the file)
///   ok       records that parse clean
/// Exits 1 while unrepaired corruption remains, 0 otherwise.
int cmd_fsck(const support::Cli& cli) {
  namespace fs = std::filesystem;
  const std::string dir = cli.get_string("atlas-dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "fsck: --atlas-dir is required\n");
    return 1;
  }
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    std::fprintf(stderr, "fsck: %s is not a directory\n", dir.c_str());
    return 1;
  }
  const bool repair = cli.get_bool("repair", false);

  std::vector<fs::path> entries;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      entries.push_back(entry.path());
    }
  }
  std::sort(entries.begin(), entries.end());

  std::size_t ok = 0;
  std::size_t corrupt = 0;
  std::size_t stale = 0;
  std::size_t repaired = 0;
  std::size_t unrepaired = 0;
  for (const fs::path& path : entries) {
    const std::string name = path.filename().string();
    if (path.extension() == ".tmp") {
      ++stale;
      if (repair) {
        fs::remove(path, ec);
        if (!ec) {
          ++repaired;
          std::printf("fsck: removed stale staging file %s\n", name.c_str());
        }
      } else {
        std::printf("fsck: stale staging file %s (interrupted write)\n",
                    name.c_str());
      }
      continue;
    }
    std::string error;
    if (path.extension() == ".atlas") {
      try {
        (void)store::load_atlas(path.string());
      } catch (const store::StaleRecordError& e) {
        ++stale;
        std::printf("fsck: stale record %s (%s)\n", name.c_str(), e.what());
        continue;
      } catch (const store::SerialError& e) {
        error = e.what();
      }
    } else if (name == "drift_baseline.lamb") {
      try {
        (void)store::load_drift_baseline(path.string());
      } catch (const store::SerialError& e) {
        error = e.what();
      }
    } else {
      continue;  // quarantine journal, *.corrupt, unrelated files
    }
    if (error.empty()) {
      ++ok;
      continue;
    }
    ++corrupt;
    ++unrepaired;
    std::printf("fsck: CORRUPT %s: %s\n", name.c_str(), error.c_str());
    if (repair) {
      try {
        store::quarantine_file(path.string(), error);
        ++repaired;
        --unrepaired;
        std::printf("fsck: quarantined %s\n", name.c_str());
      } catch (const store::SerialError& e) {
        std::fprintf(stderr, "fsck: cannot quarantine %s: %s\n", name.c_str(),
                     e.what());
      }
    }
  }

  std::printf("fsck %s: %zu ok, %zu corrupt, %zu stale%s\n", dir.c_str(), ok,
              corrupt, stale,
              repair ? support::strf(", %zu repaired", repaired).c_str()
                     : "");
  return unrepaired > 0 ? 1 : 0;
}

int cmd_simulate(const support::Cli& cli, serve::SelectionService& service,
                 model::MachineModel&) {
  const sim::TraceSpec spec = cli.has("trace")
                                  ? sim::load_trace(cli.get_string("trace", ""))
                                  : sim::default_trace();
  if (cli.get_bool("print-trace", false)) {
    std::printf("%s", spec.to_string().c_str());
    return 0;
  }

  const std::uint64_t seed = cli.get_seed("seed", 1);
  sim::TraceGenerator generator(spec, seed);
  const std::vector<sim::Request> requests = generator.generate();

  sim::ReplayConfig replay_cfg;
  replay_cfg.connections =
      static_cast<std::size_t>(cli.get_int("connections", 1));
  replay_cfg.warm = cli.get_bool("warm", false);
  replay_cfg.pace = cli.get_double("pace", 0.0);
  replay_cfg.stage_breakdown = cli.get_bool("stage-breakdown", false);

  std::printf("%s", spec.to_string().c_str());
  std::printf("seed %llu -> %zu requests\n",
              static_cast<unsigned long long>(seed), requests.size());
  std::fflush(stdout);

  sim::SimReport report;
  if (cli.get_bool("http", false)) {
    // Loopback replay through the full HTTP tier: the service owner warms
    // directly (replay_http cannot), then a background thread runs the
    // server on an ephemeral port while this thread drives the clients.
    if (replay_cfg.warm) {
      for (const sim::Request& req : requests) {
        service.warm(std::span<const serve::Query>(req.queries));
      }
    }
    net::SelectionRoutesConfig routes_cfg;
    routes_cfg.worker_threads =
        static_cast<std::size_t>(cli.get_int("http-threads", 2));
    routes_cfg.deadline_ms = cli.get_double("deadline-ms", 0.0);
    net::SelectionRoutes routes(service, routes_cfg);
    net::ServerConfig server_cfg;
    server_cfg.bind_address = "127.0.0.1";
    server_cfg.port = static_cast<std::uint16_t>(cli.get_int("port", 0));
    server_cfg.loops = static_cast<std::size_t>(cli.get_int("loops", 1));
    server_cfg.max_in_flight =
        static_cast<std::size_t>(cli.get_int("max-in-flight", 0));
    server_cfg.idle_timeout_s = cli.get_double("idle-timeout-s", 0.0);
    net::Server server(routes.router(), server_cfg);
    routes.attach_server(&server);
    std::thread loop([&server] { server.run(); });
    try {
      report = sim::replay_http("127.0.0.1", server.port(), requests, spec,
                                replay_cfg);
    } catch (...) {
      server.stop();
      loop.join();
      throw;
    }
    server.stop();
    loop.join();
  } else {
    report = sim::replay_in_process(service, requests, spec, replay_cfg);
  }

  std::printf("%s", report.to_string().c_str());
  std::printf("source mix:\n%s", report.source_mix().c_str());
  print_stats(service);

  if (cli.has("json")) {
    const std::string path = cli.get_string("json", "");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    out << report.to_json();
    std::printf("wrote %s\n", path.c_str());
  }

  const double max_p99_ms = cli.get_double("max-p99-ms", 0.0);
  if (max_p99_ms > 0.0) {
    for (const sim::PhaseStats& p : report.phases) {
      if (p.p99_us > max_p99_ms * 1000.0) {
        std::fprintf(stderr,
                     "FAIL: phase %s p99 %.1f us exceeds ceiling %.1f us\n",
                     p.name.c_str(), p.p99_us, max_p99_ms * 1000.0);
        return 1;
      }
    }
    std::printf("p99 ceiling %.1f ms: ok\n", max_p99_ms);
  }

  // Per-phase error budget: each phase spec may allow a fraction of its
  // requests to come back non-200 (shed, deadline, hard error) — a chaos
  // trace expects some, a clean trace expects none. Checked for every
  // phase; in-process replay throws on failure instead, so the counters
  // are only non-zero over HTTP.
  for (std::size_t i = 0; i < report.phases.size(); ++i) {
    const sim::PhaseStats& p = report.phases[i];
    const std::uint64_t failed = p.shed + p.deadline + p.errors;
    const double budget = spec.phases[i].error_budget;
    if (static_cast<double>(failed) >
        budget * static_cast<double>(p.requests)) {
      std::fprintf(stderr,
                   "FAIL: phase %s: %llu/%llu requests failed "
                   "(shed=%llu deadline=%llu errors=%llu), budget %.3f\n",
                   p.name.c_str(), static_cast<unsigned long long>(failed),
                   static_cast<unsigned long long>(p.requests),
                   static_cast<unsigned long long>(p.shed),
                   static_cast<unsigned long long>(p.deadline),
                   static_cast<unsigned long long>(p.errors), budget);
      return 1;
    }
  }
  return 0;
}

int cmd_profile(const support::Cli& cli, serve::SelectionService& service,
                model::MachineModel&) {
  const sim::TraceSpec spec = cli.has("trace")
                                  ? sim::load_trace(cli.get_string("trace", ""))
                                  : sim::default_trace();
  const std::uint64_t seed = cli.get_seed("seed", 1);
  sim::TraceGenerator generator(spec, seed);
  const std::vector<sim::Request> requests = generator.generate();

  // Full sampling: every request carries spans (and, when the hardware
  // allows, PMU deltas), into a ring big enough that the replay does not
  // overwrite itself. configure() drops prior tracer state, so the totals
  // read back below are exactly this replay's.
  obs::TracerConfig tc;
  tc.enabled = true;
  tc.sample_every =
      static_cast<std::uint32_t>(cli.get_int("sample", 1));
  tc.ring_capacity = 1 << 15;
  obs::tracer().configure(tc);

  sim::ReplayConfig replay_cfg;
  replay_cfg.warm = cli.get_bool("warm", false);
  replay_cfg.stage_breakdown = true;

  std::printf("pmu: %s\n", obs::pmu_status().c_str());
  std::printf("seed %llu -> %zu requests, 1-in-%u sampled\n",
              static_cast<unsigned long long>(seed), requests.size(),
              tc.sample_every);
  std::fflush(stdout);
  const sim::SimReport report =
      sim::replay_in_process(service, requests, spec, replay_cfg);

  const auto stages = obs::tracer().stage_snapshots();
  const auto pmu = obs::tracer().pmu_stage_totals();
  double total_seconds = 0.0;
  for (const auto& s : stages) {
    total_seconds += s.sum_seconds;
  }

  // Per-stage wall-time x PMU attribution. Stage times overlap (build
  // contains kernel, request contains everything HTTP-side), so the
  // percentage column shares out the SUM of stage times, not wall time.
  std::printf("\n%-8s %9s %11s %6s %12s %12s %6s %9s\n", "stage", "count",
              "wall_ms", "pct", "cycles", "instrs", "ipc", "llc_miss");
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    if (stages[s].count == 0) {
      continue;
    }
    std::printf("%-8s %9llu %11.3f %5.1f%%",
                std::string(obs::to_string(static_cast<obs::Stage>(s)))
                    .c_str(),
                static_cast<unsigned long long>(stages[s].count),
                1e3 * stages[s].sum_seconds,
                total_seconds > 0.0
                    ? 100.0 * stages[s].sum_seconds / total_seconds
                    : 0.0);
    if (pmu[s].cycles > 0) {
      std::printf(" %12llu %12llu %6.2f",
                  static_cast<unsigned long long>(pmu[s].cycles),
                  static_cast<unsigned long long>(pmu[s].instructions),
                  static_cast<double>(pmu[s].instructions) /
                      static_cast<double>(pmu[s].cycles));
      if (pmu[s].llc_loads > 0) {
        std::printf(" %8.2f%%", 100.0 *
                                    static_cast<double>(pmu[s].llc_misses) /
                                    static_cast<double>(pmu[s].llc_loads));
      } else {
        std::printf(" %9s", "-");
      }
    } else {
      std::printf(" %12s %12s %6s %9s", "-", "-", "-", "-");
    }
    std::printf("\n");
  }

  std::printf("\n%s", report.to_string().c_str());
  print_stats(service);

  if (cli.has("json")) {
    const std::string path = cli.get_string("json", "");
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    out << report.to_json();
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

using Command = int (*)(const support::Cli&, serve::SelectionService&,
                        model::MachineModel&);

/// Every subcommand that runs against a service; fsck runs without one.
constexpr std::pair<std::string_view, Command> kCommands[] = {
    {"build", cmd_build}, {"warm", cmd_warm},         {"query", cmd_query},
    {"serve", cmd_serve}, {"simulate", cmd_simulate}, {"profile", cmd_profile}};

}  // namespace

int main(int argc, char** argv) {
  using namespace lamb;
  const support::Cli cli(argc, argv);
  // Fault injection arms from LAMB_FAULT before anything else runs, so the
  // store warm-up and every subcommand see the armed sites.
  support::fault_arm_from_env();
  const std::string cmd =
      cli.positional().empty() ? "" : cli.positional().front();
  if (cmd == "fsck") {
    // Pure on-disk audit; needs no service or machine model.
    return cmd_fsck(cli);
  }
  // Resolved before the machine, the service or --atlas-dir exist: warming
  // from the store creates the directory and may quarantine files in it.
  Command command = nullptr;
  for (const auto& [name, run] : kCommands) {
    if (name == cmd) {
      command = run;
      break;
    }
  }
  if (command == nullptr) {
    if (!cmd.empty()) {
      std::fprintf(stderr, "unknown subcommand: %s\n", cmd.c_str());
    }
    std::fprintf(stderr,
                 "usage: %s build|warm|query|serve|simulate|profile|fsck "
                 "[flags]\n"
                 "(see the header comment of examples/serve_cli.cpp)\n",
                 cli.program().c_str());
    return 1;
  }

  const bool serving = cmd == "serve" || cmd == "simulate";
  const auto machine = make_machine(cli);
  serve::SelectionService service(
      *machine, service_config(cli, cli.get_bool("real", false), serving));

  const std::string atlas_dir = cli.get_string("atlas-dir", "");
  std::unique_ptr<store::AtlasStore> atlas_store;
  if (!atlas_dir.empty()) {
    atlas_store = std::make_unique<store::AtlasStore>(atlas_dir);
    const std::size_t adopted = service.warm_from_store(*atlas_store);
    std::printf("atlas store %s: %zu slices adopted\n", atlas_dir.c_str(),
                adopted);
  }

  const int rc = command(cli, service, *machine);
  if (atlas_store != nullptr && rc == 0) {
    const std::size_t written = service.checkpoint(*atlas_store);
    std::printf("checkpointed %zu slices to %s\n", written, atlas_dir.c_str());
  }
  return rc;
}

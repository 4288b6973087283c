// lamb_bench: the repository's benchmark. Runs one named workload from a
// seed and prints its end-to-end metrics, or, with --trace 1, the per-layer
// metrics of a traced run.
//
//   lamb_bench --workload NAME --seed N --seconds S --trace 0|1
//              [--work-dir DIR] [--git-describe TEXT]
//
// Workloads (see each source file for what it runs and why):
//   warm-serve   store-warmed SelectionService, query() + query_batch()
//   cold-build   one first-touch query() per slice of a fresh service
//   blas-exec    every algorithm of seeded instances on real operands
//   http-serve   net::Server + SelectionRoutes, two pipelined clients
// BENCHMARK.json lists the first three: http-serve's run-to-run p99 spread
// on the reference host (IQR/median 0.36 over five seeds) exceeds the
// largest bound a metric may have, so it runs on request and inside every
// traced run, for the net layer.
//
// Output: a provenance line, one line per metric, a `detail` JSON line with
// the counts that must repeat exactly for a seed (run.py --self-check
// compares them), and as the last line the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status is 1 when any answer failed its oracle check, 2 on a usage
// or set-up error (no result line).
//
// The traced run (--trace 1) measures every layer: the named workload gets
// half of --seconds, the other three share the rest, and each per-layer
// metric comes from the workload it is defined on (the named one first).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "blas/microkernel.hpp"
#include "harness.hpp"
#include "obs/clock.hpp"
#include "obs/pmu.hpp"
#include "support/str.hpp"

namespace {

using namespace lambbench;

struct Workload {
  const char* name;
  void (*run)(const Options&, Result&);
};

constexpr Workload kWorkloads[] = {
    {"warm-serve", run_warm_serve},
    {"cold-build", run_cold_build},
    {"blas-exec", run_blas_exec},
    {"http-serve", run_http_serve},
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += lamb::support::strf("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  return lamb::support::strf("%.17g", v);
}

/// Cost of one obs::now_ns() call: the floor under any unit worth timing
/// on its own (units under ~10x this are timed in groups).
double timer_ns() {
  double best = 1e9;
  for (int rep = 0; rep < 20; ++rep) {
    const std::uint64_t t0 = lamb::obs::now_ns();
    std::uint64_t sink = 0;
    for (int i = 0; i < 1000; ++i) {
      sink += lamb::obs::now_ns();
    }
    const std::uint64_t t1 = lamb::obs::now_ns();
    best = std::min(best, static_cast<double>(t1 - t0 + (sink & 1)) / 1000);
  }
  return best;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "lamb_bench: %s\nusage: lamb_bench --workload "
               "warm-serve|cold-build|blas-exec|http-serve --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR] "
               "[--git-describe TEXT]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string git_describe = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--git-describe") {
      git_describe = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const Workload* primary = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) {
      primary = &w;
    }
  }
  if (primary == nullptr) {
    return usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (!have_seed || !(options.seconds > 0.0)) {
    return usage("--seed and a positive --seconds are required");
  }
  if (options.work_dir.empty()) {
    options.work_dir = ".bench_build/work";
  }
  options.trace_dir = options.work_dir + "/traces";
  options.work_dir += lamb::support::strf("/%s-%d", options.workload.c_str(),
                                          static_cast<int>(getpid()));
  std::filesystem::create_directories(options.work_dir);
  if (options.trace) {
    std::filesystem::create_directories(options.trace_dir);
  }

  // Provenance: what a later run must match to be compared with this one.
  std::printf(
      "provenance {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"kernel_tier\": %s, "
      "\"pmu_available\": %s, \"pmu_status\": %s, \"git_describe\": %s, "
      "\"timer\": %s, \"timer_ns\": %.1f}\n",
      json_string(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      json_number(options.seconds).c_str(), options.trace ? 1 : 0,
      host_threads(),
      json_string(lamb::blas::active_microkernel().name).c_str(),
      lamb::obs::pmu_available() ? "true" : "false",
      json_string(lamb::obs::pmu_status()).c_str(),
      json_string(git_describe).c_str(),
      lamb::obs::using_tsc() ? "\"tsc\"" : "\"steady_clock\"", timer_ns());
  std::fflush(stdout);

  Result result;
  std::vector<std::string> sources;  // workload each metric came from
  try {
    if (!options.trace) {
      primary->run(options, result);
      sources.assign(result.metrics.size(), primary->name);
    } else {
      // The named workload first, with half the time; the others fill in
      // the per-layer metrics it does not exercise.
      Options sub = options;
      sub.seconds = options.seconds / 2;
      primary->run(sub, result);
      sources.assign(result.metrics.size(), primary->name);
      result.notes.push_back(lamb::support::strf(
          "%s: %llu operations checked, %llu failed", primary->name,
          static_cast<unsigned long long>(result.attempted),
          static_cast<unsigned long long>(result.failed)));
      sub.seconds = options.seconds / 6;
      for (const Workload& w : kWorkloads) {
        if (&w == primary) {
          continue;
        }
        Result other;
        w.run(sub, other);
        result.notes.push_back(lamb::support::strf(
            "%s: %llu operations checked, %llu failed", w.name,
            static_cast<unsigned long long>(other.attempted),
            static_cast<unsigned long long>(other.failed)));
        result.attempted += other.attempted;
        result.failed += other.failed;
        for (Metric& m : other.metrics) {
          bool present = false;
          for (const Metric& have : result.metrics) {
            present = present || have.name == m.name;
          }
          if (!present) {
            result.metrics.push_back(std::move(m));
            sources.push_back(w.name);
          } else if (m.name == "bench.trace_overhead_pct") {
            result.notes.push_back(lamb::support::strf(
                "%s: bench.trace_overhead_pct %.3f %%", w.name, m.value));
          }
        }
        for (std::string& note : other.notes) {
          result.notes.push_back(std::move(note));
        }
        for (auto& [name, value] : other.counts) {
          result.counts.emplace_back(std::string(w.name) + "." + name, value);
        }
        result.mix_value(other.digest);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lamb_bench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 2;
  }
  std::filesystem::remove_all(options.work_dir);

  for (const std::string& note : result.notes) {
    std::printf("note %s\n", note.c_str());
  }
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("metric %-28s %16.6g %-8s (%s)%s%s\n", m.name.c_str(),
                m.value, m.unit.c_str(), sources[i].c_str(),
                m.note.empty() ? "" : " ", m.note.c_str());
  }
  std::string counts;
  for (const auto& [name, value] : result.counts) {
    counts += (counts.empty() ? "" : ", ") + json_string(name) + ": " +
              json_number(value);
  }
  std::printf(
      "detail {\"counts\": {%s}, \"digest\": \"%016llx\", "
      "\"input_bytes\": %zu, \"attempted\": %llu, \"failed\": %llu}\n",
      counts.c_str(), static_cast<unsigned long long>(result.digest),
      result.input_bytes, static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed));

  std::string metrics;
  for (const Metric& m : result.metrics) {
    metrics += (metrics.empty() ? "" : ", ") + json_string(m.name) +
               ": {\"value\": " + json_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

#include "harness.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>

#include "support/hash.hpp"

namespace lambbench {

void Result::mix(const void* data, std::size_t bytes) {
  digest = lamb::support::fnv1a64(data, bytes, digest);
}

PassPlan::PassPlan(double seconds, double pass_seconds, int floor)
    : passes_(std::max(floor,
                       static_cast<int>(std::lround(seconds / pass_seconds)))),
      floor_(floor),
      deadline_ns_(now_ns() + static_cast<std::uint64_t>(2e9 * seconds)) {}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double throughput(const UnitMinima& minima,
                  const std::vector<std::uint32_t>& units) {
  double ns = 0.0;
  double done = 0.0;
  for (std::size_t i = 0; i < minima.size(); ++i) {
    ns += static_cast<double>(minima[i]);
    done += units[i];
  }
  return done / (ns * 1e-9);
}

void add_end_to_end(Result& result, const UnitMinima& minima,
                    const std::vector<std::uint32_t>& units,
                    const std::vector<double>& setup_seconds) {
  std::vector<double> latency_ms;
  latency_ms.reserve(minima.size());
  for (std::size_t i = 0; i < minima.size(); ++i) {
    latency_ms.push_back(static_cast<double>(minima[i]) * 1e-6);
  }
  result.metric("throughput_per_s", throughput(minima, units), "units/s");
  result.metric("latency_p50_ms", quantile(latency_ms, 0.50), "ms");
  result.metric("latency_p99_ms", quantile(latency_ms, 0.99), "ms");
  result.metric("setup_s", median(setup_seconds), "s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

void add_trace_overhead(Result& result, const UnitMinima& traced,
                        const UnitMinima& plain,
                        const std::vector<std::uint32_t>& units) {
  result.metric("bench.trace_overhead_pct",
                100.0 * (1.0 - throughput(traced, units) /
                                   throughput(plain, units)),
                "%");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return std::numeric_limits<double>::quiet_NaN();
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

SpanLog::SpanLog(std::size_t capacity) : names_{"request"} {
  spans_.reserve(capacity);
}

std::uint32_t SpanLog::intern(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) {
    return static_cast<std::uint32_t>(it - names_.begin());
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return;
  }
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  const std::size_t written = std::min(spans_.size(), kMaxWrittenSpans);
  std::fprintf(out,
               "{\"displayTimeUnit\":\"ns\",\"spansHeld\":%zu,"
               "\"spansWritten\":%zu,\"spansDropped\":%llu,"
               "\"traceEvents\":[\n",
               spans_.size(), written,
               static_cast<unsigned long long>(dropped_));
  for (std::size_t i = 0; i < written; ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%u,\"request\":%llu,\"attr\":%lld}}\n",
                 i == 0 ? "" : ",", names_[s.name].c_str(),
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i + 1,
                 s.parent, static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.attr));
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
}

unsigned host_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace lambbench

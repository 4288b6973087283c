#include "support/metrics.hpp"

#include "support/str.hpp"

namespace lamb::support {

void MetricsWriter::declare(std::string_view name, std::string_view kind,
                            std::string_view help) {
  out_.append("# HELP ").append(name).append(" ").append(help);
  out_.append("\n# TYPE ").append(name).append(" ").append(kind);
  out_ += '\n';
}

void MetricsWriter::series(std::string_view name, std::string_view labels,
                           std::uint64_t value) {
  out_.append(name).append(labels);
  out_ += strf(" %llu\n", static_cast<unsigned long long>(value));
}

void MetricsWriter::series(std::string_view name, std::string_view labels,
                           double value) {
  out_.append(name).append(labels);
  out_ += strf(" %.9g\n", value);
}

void MetricsWriter::series(std::string_view name, std::string_view labels,
                           const LatencyHistogram::Snapshot& snap) {
  // Each bucket's label set is the series' own, braces dropped, then le.
  std::string bucket = std::string(name) + "_bucket{";
  if (!labels.empty()) {
    bucket.append(labels.substr(1, labels.size() - 2)).append(",");
  }
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < LatencyHistogram::kBounds.size(); ++b) {
    cumulative += snap.counts[b];
    out_ += bucket;
    out_ += strf("le=\"%g\"} %llu\n", LatencyHistogram::kBounds[b],
                 static_cast<unsigned long long>(cumulative));
  }
  out_ += bucket;
  out_ += strf("le=\"+Inf\"} %llu\n",
               static_cast<unsigned long long>(snap.count));
  out_.append(name).append("_sum").append(labels);
  out_ += strf(" %.9f\n", snap.sum_seconds);
  out_.append(name).append("_count").append(labels);
  out_ += strf(" %llu\n", static_cast<unsigned long long>(snap.count));
}

}  // namespace lamb::support

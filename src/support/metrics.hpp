// Prometheus text-exposition writer (the format scripts/metrics_lint.sh
// pins): every family announces # HELP and # TYPE before its first series,
// counters are integral, gauges may be fractional, histograms emit the
// cumulative _bucket/_sum/_count triple.
//
// The call that emits a family also declares it, so each family is named
// once. counter(name, help, value) and gauge(name, help, value) write a
// family of one unlabelled series. counter_family, gauge_family and
// histogram_family(name, help) declare a labelled family and return a
// handle; its add(labels, value) writes one series, where labels reads
// "{key=\"value\",...}" or "" for none. The kind is in the types: a counter
// takes only std::uint64_t, a gauge only double and a histogram only a
// LatencyHistogram::Snapshot, so a series of the wrong kind does not
// compile.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "support/histogram.hpp"

namespace lamb::support {

class MetricsWriter {
 public:
  /// A declared family; Value is its kind's value type. It keeps the
  /// writer and the name, so both must outlive it (names are literals).
  template <typename Value>
  class Family {
   public:
    void add(std::string_view labels, Value value) {
      writer_->series(name_, labels, value);
    }
    template <typename Other>
    void add(std::string_view labels, Other value) = delete;

   private:
    friend class MetricsWriter;
    Family(MetricsWriter& writer, std::string_view name)
        : writer_(&writer), name_(name) {}

    MetricsWriter* writer_;
    std::string_view name_;
  };
  using CounterFamily = Family<std::uint64_t>;
  using GaugeFamily = Family<double>;
  using HistogramFamily = Family<const LatencyHistogram::Snapshot&>;

  explicit MetricsWriter(std::size_t reserve = 4096) { out_.reserve(reserve); }

  CounterFamily counter_family(std::string_view name, std::string_view help) {
    declare(name, "counter", help);
    return CounterFamily(*this, name);
  }
  /// Gauges print with %.9g: integral values exact, fractional ones compact.
  GaugeFamily gauge_family(std::string_view name, std::string_view help) {
    declare(name, "gauge", help);
    return GaugeFamily(*this, name);
  }
  /// A series' labels lead each of its buckets' le label.
  HistogramFamily histogram_family(std::string_view name,
                                   std::string_view help) {
    declare(name, "histogram", help);
    return HistogramFamily(*this, name);
  }

  void counter(std::string_view name, std::string_view help,
               std::uint64_t value) {
    counter_family(name, help).add("", value);
  }
  template <typename Other>
  void counter(std::string_view name, std::string_view help,
               Other value) = delete;

  void gauge(std::string_view name, std::string_view help, double value) {
    gauge_family(name, help).add("", value);
  }
  template <typename Other>
  void gauge(std::string_view name, std::string_view help,
             Other value) = delete;

  std::string take() { return std::move(out_); }

 private:
  void declare(std::string_view name, std::string_view kind,
               std::string_view help);
  void series(std::string_view name, std::string_view labels,
              std::uint64_t value);
  void series(std::string_view name, std::string_view labels, double value);
  void series(std::string_view name, std::string_view labels,
              const LatencyHistogram::Snapshot& snap);

  std::string out_;
};

}  // namespace lamb::support

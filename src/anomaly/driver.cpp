#include "anomaly/driver.hpp"

#include <algorithm>
#include <set>
#include <thread>

#include "expr/registry.hpp"
#include "support/check.hpp"

namespace lamb::anomaly {

namespace {

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

ExperimentDriver::ExperimentDriver(
    std::unique_ptr<const expr::ExpressionFamily> family,
    model::MachineModel& machine, DriverConfig config)
    : family_(std::move(family)), machine_(machine), config_(config) {
  LAMB_CHECK(family_ != nullptr, "driver needs a family");
  LAMB_CHECK(config_.batch_size >= 1, "batch size must be positive");
  if (machine_.concurrent_timing_safe()) {
    pool_ = std::make_unique<parallel::ThreadPool>(
        resolve_threads(config_.threads));
  }
}

ExperimentDriver::ExperimentDriver(const std::string& family_name,
                                   model::MachineModel& machine,
                                   DriverConfig config)
    : ExperimentDriver(expr::make_family(family_name), machine,
                       std::move(config)) {}

bool ExperimentDriver::parallel_enabled() const {
  return pool_ != nullptr && pool_->size() > 1;
}

InstanceResult ExperimentDriver::classify(const expr::Instance& dims) {
  return classify_instance(*family_, machine_, dims,
                           config_.time_score_threshold);
}

std::vector<InstanceResult> ExperimentDriver::classify_batch(
    const std::vector<expr::Instance>& batch, double time_score_threshold) {
  std::vector<InstanceResult> results(batch.size());
  const auto classify_range = [&](std::ptrdiff_t begin, std::ptrdiff_t end) {
    std::vector<model::Algorithm> algs;  // re-bound in place per instance
    for (std::ptrdiff_t i = begin; i < end; ++i) {
      const expr::Instance& dims = batch[static_cast<std::size_t>(i)];
      family_->bind(dims, algs);
      results[static_cast<std::size_t>(i)] =
          classify_algorithms(algs, machine_, dims, time_score_threshold);
    }
  };
  if (parallel_enabled()) {
    pool_->parallel_for(static_cast<std::ptrdiff_t>(batch.size()),
                        classify_range);
  } else {
    classify_range(0, static_cast<std::ptrdiff_t>(batch.size()));
  }
  return results;
}

RandomSearchResult ExperimentDriver::random_search(
    const RandomSearchConfig& cfg, const SearchObserver& observer) {
  if (!parallel_enabled()) {
    return anomaly::random_search(*family_, machine_, cfg, observer);
  }
  LAMB_CHECK(cfg.lo >= 1 && cfg.hi >= cfg.lo, "search box must be non-empty");
  LAMB_CHECK(cfg.target_anomalies >= 0, "target must be non-negative");

  // Mirrors the serial loop exactly: instances are drawn from the RNG in
  // sequence and consumed in draw order with the serial stopping rule; the
  // pool only overlaps the classification of instances already drawn.
  support::Rng rng(cfg.seed);
  RandomSearchResult result;
  std::set<expr::Instance> seen_anomalies;

  std::vector<expr::Instance> batch;
  std::vector<InstanceResult> classified;
  std::size_t next = 0;

  while (static_cast<int>(result.anomalies.size()) < cfg.target_anomalies &&
         result.samples < cfg.max_samples) {
    if (next == classified.size()) {
      const long long remaining = cfg.max_samples - result.samples;
      const long long want =
          std::min<long long>(config_.batch_size, remaining);
      batch.assign(static_cast<std::size_t>(want),
                   expr::Instance(
                       static_cast<std::size_t>(family_->dimension_count())));
      for (expr::Instance& dims : batch) {
        for (int& d : dims) {
          d = rng.uniform_int(cfg.lo, cfg.hi);
        }
      }
      classified = classify_batch(batch, cfg.time_score_threshold);
      next = 0;
    }
    InstanceResult& r = classified[next];
    const expr::Instance& dims = batch[next];
    ++next;
    ++result.samples;
    if (observer) {
      observer(result.samples, r);
    }
    if (r.anomaly && seen_anomalies.insert(dims).second) {
      result.anomalies.push_back(std::move(r));
    }
  }
  return result;
}

LineTraversal ExperimentDriver::traverse_line(const expr::Instance& origin,
                                              int dim,
                                              const TraversalConfig& cfg) {
  return anomaly::traverse_line(*family_, machine_, origin, dim, cfg);
}

std::vector<LineTraversal> ExperimentDriver::traverse_all_lines(
    const expr::Instance& origin, const TraversalConfig& cfg) {
  const int dims = family_->dimension_count();
  std::vector<LineTraversal> out(static_cast<std::size_t>(dims));
  const auto traverse_range = [&](std::ptrdiff_t begin, std::ptrdiff_t end) {
    for (std::ptrdiff_t d = begin; d < end; ++d) {
      out[static_cast<std::size_t>(d)] = anomaly::traverse_line(
          *family_, machine_, origin, static_cast<int>(d), cfg);
    }
  };
  if (parallel_enabled()) {
    pool_->parallel_for(dims, traverse_range);
  } else {
    traverse_range(0, dims);
  }
  return out;
}

std::vector<LineTraversal> ExperimentDriver::traverse_regions(
    const std::vector<InstanceResult>& anomalies,
    const TraversalConfig& cfg) {
  const int dims = family_->dimension_count();
  const std::ptrdiff_t total =
      static_cast<std::ptrdiff_t>(anomalies.size()) * dims;
  std::vector<LineTraversal> out(static_cast<std::size_t>(total));
  const auto traverse_range = [&](std::ptrdiff_t begin, std::ptrdiff_t end) {
    for (std::ptrdiff_t i = begin; i < end; ++i) {
      const std::size_t anomaly_index = static_cast<std::size_t>(i / dims);
      const int dim = static_cast<int>(i % dims);
      out[static_cast<std::size_t>(i)] = anomaly::traverse_line(
          *family_, machine_, anomalies[anomaly_index].dims, dim, cfg);
    }
  };
  if (parallel_enabled()) {
    pool_->parallel_for(total, traverse_range);
  } else {
    traverse_range(0, total);
  }
  return out;
}

PredictionResult ExperimentDriver::predict_from_benchmarks(
    const std::vector<LineTraversal>& traversals,
    double time_score_threshold) {
  if (!parallel_enabled()) {
    return anomaly::predict_from_benchmarks(*family_, machine_, traversals,
                                            time_score_threshold);
  }
  // Flatten (line, sample) pairs so the pool can chew through the expensive
  // predicted classifications; assembly stays in traversal order.
  std::vector<const LineSample*> samples;
  for (const LineTraversal& line : traversals) {
    for (const LineSample& sample : line.samples) {
      samples.push_back(&sample);
    }
  }
  std::vector<PredictionSample> rows(samples.size());
  pool_->parallel_for(
      static_cast<std::ptrdiff_t>(samples.size()),
      [&](std::ptrdiff_t begin, std::ptrdiff_t end) {
        for (std::ptrdiff_t i = begin; i < end; ++i) {
          const InstanceResult& measured =
              samples[static_cast<std::size_t>(i)]->result;
          const InstanceResult actual = classify_from_times(
              measured.dims, measured.flops, measured.times,
              time_score_threshold);
          const InstanceResult predicted = classify_instance_predicted(
              *family_, machine_, measured.dims, time_score_threshold);
          rows[static_cast<std::size_t>(i)] = PredictionSample{
              measured.dims, actual.anomaly, predicted.anomaly,
              actual.time_score, predicted.time_score};
        }
      });
  PredictionResult result;
  result.samples = std::move(rows);
  for (const PredictionSample& row : result.samples) {
    result.confusion.add(row.actual, row.predicted);
  }
  return result;
}

}  // namespace lamb::anomaly

#include "anomaly/classifier.hpp"

#include <algorithm>
#include <limits>

#include "support/check.hpp"
#include "support/statistics.hpp"

namespace lamb::anomaly {

InstanceResult classify_from_times(const expr::Instance& dims,
                                   std::vector<long long> flops,
                                   std::vector<double> times,
                                   double time_score_threshold) {
  LAMB_CHECK(!flops.empty(), "no algorithms to classify");
  LAMB_CHECK(flops.size() == times.size(), "flops/times size mismatch");
  LAMB_CHECK(time_score_threshold >= 0.0, "threshold must be non-negative");

  InstanceResult r;
  r.dims = dims;
  r.flops = std::move(flops);
  r.times = std::move(times);

  // Cheapest set: exact argmin over FLOP counts (FLOP counts are exact
  // integers, so ties are exact ties — e.g. chain Algorithms 2 and 5).
  long long min_flops = std::numeric_limits<long long>::max();
  for (long long f : r.flops) {
    min_flops = std::min(min_flops, f);
  }
  for (std::size_t i = 0; i < r.flops.size(); ++i) {
    if (r.flops[i] == min_flops) {
      r.cheapest.push_back(i);
    }
  }

  // Fastest set: argmin over measured times within a hair of relative
  // tolerance (measured doubles are never exactly tied by accident).
  r.fastest = support::argmin_set(r.times, 1e-12);

  const double t_fastest = *std::min_element(r.times.begin(), r.times.end());
  double t_cheapest = std::numeric_limits<double>::infinity();
  for (std::size_t i : r.cheapest) {
    t_cheapest = std::min(t_cheapest, r.times[i]);
  }
  LAMB_CHECK(t_cheapest > 0.0 && t_fastest > 0.0, "times must be positive");
  r.time_score = (t_cheapest - t_fastest) / t_cheapest;

  long long f_fastest = std::numeric_limits<long long>::max();
  for (std::size_t i : r.fastest) {
    f_fastest = std::min(f_fastest, r.flops[i]);
  }
  r.flop_score = f_fastest > 0
                     ? static_cast<double>(f_fastest - min_flops) /
                           static_cast<double>(f_fastest)
                     : 0.0;

  const bool disjoint = [&] {
    for (std::size_t c : r.cheapest) {
      for (std::size_t f : r.fastest) {
        if (c == f) {
          return false;
        }
      }
    }
    return true;
  }();
  r.anomaly = disjoint && r.time_score > time_score_threshold;
  return r;
}

InstanceResult classify_algorithms(std::span<const model::Algorithm> algs,
                                   model::MachineModel& machine,
                                   const expr::Instance& dims,
                                   double time_score_threshold) {
  std::vector<long long> flops;
  std::vector<double> times;
  std::vector<std::vector<double>> step_times;
  flops.reserve(algs.size());
  times.reserve(algs.size());
  step_times.reserve(algs.size());
  for (const model::Algorithm& alg : algs) {
    flops.push_back(alg.flops());
    std::vector<double> steps = machine.time_steps(alg);
    double total = 0.0;
    for (double t : steps) {
      total += t;
    }
    times.push_back(total);
    step_times.push_back(std::move(steps));
  }
  InstanceResult r = classify_from_times(dims, std::move(flops),
                                         std::move(times),
                                         time_score_threshold);
  r.step_times = std::move(step_times);
  return r;
}

InstanceResult classify_instance(const expr::ExpressionFamily& family,
                                 model::MachineModel& machine,
                                 const expr::Instance& dims,
                                 double time_score_threshold) {
  return classify_algorithms(family.algorithms(dims), machine, dims,
                             time_score_threshold);
}

InstanceResult classify_instance_predicted(
    const expr::ExpressionFamily& family, model::MachineModel& machine,
    const expr::Instance& dims, double time_score_threshold) {
  const std::vector<model::Algorithm> algs = family.algorithms(dims);
  std::vector<long long> flops;
  std::vector<double> times;
  std::vector<std::vector<double>> step_times;
  flops.reserve(algs.size());
  times.reserve(algs.size());
  for (const model::Algorithm& alg : algs) {
    flops.push_back(alg.flops());
    std::vector<double> steps;
    steps.reserve(alg.steps().size());
    double total = 0.0;
    for (const model::Step& s : alg.steps()) {
      const double t = machine.time_call_isolated(s.call);
      steps.push_back(t);
      total += t;
    }
    times.push_back(total);
    step_times.push_back(std::move(steps));
  }
  InstanceResult r = classify_from_times(dims, std::move(flops),
                                         std::move(times),
                                         time_score_threshold);
  r.step_times = std::move(step_times);
  return r;
}

}  // namespace lamb::anomaly

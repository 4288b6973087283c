#include "anomaly/classifier.hpp"

#include <algorithm>
#include <limits>

#include "support/check.hpp"

namespace lamb::anomaly {

namespace {

/// A verdict with the two bounds that define its sets: the cheapest
/// algorithms are those at `min_flops`, the fastest those at or below
/// `fastest_cutoff`.
struct Judgement {
  Verdict verdict;
  long long min_flops = 0;
  double fastest_cutoff = 0.0;
};

/// The paper's rules over per-algorithm FLOP counts and times: two passes,
/// no allocation.
Judgement judge(std::span<const long long> flops,
                std::span<const double> times, double time_score_threshold) {
  LAMB_CHECK(!flops.empty(), "no algorithms to classify");
  LAMB_CHECK(flops.size() == times.size(), "flops/times size mismatch");
  LAMB_CHECK(time_score_threshold >= 0.0, "threshold must be non-negative");

  Judgement j;
  double t_fastest = std::numeric_limits<double>::infinity();
  j.min_flops = std::numeric_limits<long long>::max();
  for (std::size_t i = 0; i < flops.size(); ++i) {
    LAMB_CHECK(times[i] > 0.0, "times must be positive");  // NaN fails too
    j.min_flops = std::min(j.min_flops, flops[i]);
    t_fastest = std::min(t_fastest, times[i]);
  }
  // Cheapest set: exact argmin over FLOP counts (FLOP counts are exact
  // integers, so ties are exact ties — e.g. chain Algorithms 2 and 5).
  // Fastest set: argmin over measured times within a hair of relative
  // tolerance (measured doubles are never exactly tied by accident).
  j.fastest_cutoff = t_fastest + t_fastest * 1e-12;

  Verdict& v = j.verdict;
  v.cheapest = v.fastest = flops.size();  // lowered to each set's first
  bool disjoint = true;
  double t_cheapest = std::numeric_limits<double>::infinity();
  long long f_fastest = std::numeric_limits<long long>::max();
  for (std::size_t i = 0; i < flops.size(); ++i) {
    const bool cheapest = flops[i] == j.min_flops;
    const bool fastest = times[i] <= j.fastest_cutoff;
    if (cheapest) {
      v.cheapest = std::min(v.cheapest, i);
      t_cheapest = std::min(t_cheapest, times[i]);
    }
    if (fastest) {
      v.fastest = std::min(v.fastest, i);
      f_fastest = std::min(f_fastest, flops[i]);
    }
    disjoint = disjoint && !(cheapest && fastest);
  }
  v.time_score = (t_cheapest - t_fastest) / t_cheapest;
  v.flop_score = f_fastest > 0
                     ? static_cast<double>(f_fastest - j.min_flops) /
                           static_cast<double>(f_fastest)
                     : 0.0;
  v.anomaly = disjoint && v.time_score > time_score_threshold;
  return j;
}

/// An InstanceResult of `flops` and `times` with the sets `j` defines.
InstanceResult result_of(const expr::Instance& dims,
                         std::vector<long long> flops,
                         std::vector<double> times, const Judgement& j) {
  InstanceResult r;
  r.dims = dims;
  r.flops = std::move(flops);
  r.times = std::move(times);
  for (std::size_t i = 0; i < r.flops.size(); ++i) {
    if (r.flops[i] == j.min_flops) {
      r.cheapest.push_back(i);
    }
    if (r.times[i] <= j.fastest_cutoff) {
      r.fastest.push_back(i);
    }
  }
  r.time_score = j.verdict.time_score;
  r.flop_score = j.verdict.flop_score;
  r.anomaly = j.verdict.anomaly;
  return r;
}

/// Times every algorithm into `scratch` (see classify()): in context with
/// one time_set_into() of the whole set.
void time_into(std::span<const model::Algorithm> algs,
               model::MachineModel& machine, Timing timing,
               ClassifyScratch& scratch) {
  std::size_t total_steps = 0;
  for (const model::Algorithm& alg : algs) {
    total_steps += alg.steps().size();
  }
  scratch.flops.resize(algs.size());
  scratch.times.resize(algs.size());
  scratch.step_times.resize(total_steps);
  if (timing == Timing::kInContext) {
    machine.time_set_into(algs, scratch.step_times);
  } else {
    std::size_t s = 0;
    for (const model::Algorithm& alg : algs) {
      for (const model::Step& step : alg.steps()) {
        scratch.step_times[s++] = machine.time_call_isolated(step.call);
      }
    }
  }
  const double* step_time = scratch.step_times.data();
  for (std::size_t a = 0; a < algs.size(); ++a) {
    double total = 0.0;
    for (std::size_t s = 0; s < algs[a].steps().size(); ++s) {
      total += *step_time++;
    }
    scratch.flops[a] = algs[a].flops();
    scratch.times[a] = total;
  }
}

/// classify() into a fresh scratch, as a full InstanceResult.
InstanceResult classify_into_result(std::span<const model::Algorithm> algs,
                                    model::MachineModel& machine,
                                    Timing timing, const expr::Instance& dims,
                                    double time_score_threshold) {
  ClassifyScratch scratch;
  time_into(algs, machine, timing, scratch);
  const Judgement j =
      judge(scratch.flops, scratch.times, time_score_threshold);
  std::vector<std::vector<double>> step_times;
  step_times.reserve(algs.size());
  auto next = scratch.step_times.begin();
  for (const model::Algorithm& alg : algs) {
    const auto end = next + static_cast<std::ptrdiff_t>(alg.steps().size());
    step_times.emplace_back(next, end);
    next = end;
  }
  InstanceResult r = result_of(dims, std::move(scratch.flops),
                               std::move(scratch.times), j);
  r.step_times = std::move(step_times);
  return r;
}

}  // namespace

Verdict classify(std::span<const model::Algorithm> algs,
                 model::MachineModel& machine, Timing timing,
                 double time_score_threshold, ClassifyScratch& scratch) {
  time_into(algs, machine, timing, scratch);
  return judge(scratch.flops, scratch.times, time_score_threshold).verdict;
}

InstanceResult classify_from_times(const expr::Instance& dims,
                                   std::vector<long long> flops,
                                   std::vector<double> times,
                                   double time_score_threshold) {
  const Judgement j = judge(flops, times, time_score_threshold);
  return result_of(dims, std::move(flops), std::move(times), j);
}

InstanceResult classify_algorithms(std::span<const model::Algorithm> algs,
                                   model::MachineModel& machine,
                                   const expr::Instance& dims,
                                   double time_score_threshold) {
  return classify_into_result(algs, machine, Timing::kInContext, dims,
                              time_score_threshold);
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
  return classify_into_result(family.algorithms(dims), machine,
                              Timing::kIsolated, dims, time_score_threshold);
}

}  // namespace lamb::anomaly

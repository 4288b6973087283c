// Anomaly classification (paper Sec. 3.3).
//
// For an instance, the *cheapest* algorithms minimise the FLOP count and the
// *fastest* algorithms minimise measured execution time. The instance is an
// anomaly when the two sets are disjoint AND the time score exceeds a
// threshold (the paper uses 10% for Experiment 1 and 5% for Experiments 2-3).
//
//   time score = (T_cheapest - T_fastest) / T_cheapest
//     where T_cheapest = min time among the cheapest algorithms,
//           T_fastest  = min time among all algorithms;
//   FLOP score = (F_fastest - F_cheapest) / F_fastest
//     where F_cheapest = min FLOP count,
//           F_fastest  = min FLOP count among the fastest algorithms.
#pragma once

#include <span>
#include <vector>

#include "expr/family.hpp"
#include "model/machine.hpp"

namespace lamb::anomaly {

struct InstanceResult {
  expr::Instance dims;
  std::vector<long long> flops;              ///< per algorithm
  std::vector<double> times;                 ///< per algorithm, end-to-end
  std::vector<std::vector<double>> step_times;  ///< per algorithm, per step
  std::vector<std::size_t> cheapest;         ///< argmin-FLOPs set
  std::vector<std::size_t> fastest;          ///< argmin-time set
  double time_score = 0.0;
  double flop_score = 0.0;
  bool anomaly = false;
};

/// Pure classification from already-known times and FLOP counts. Both
/// experiments (measured and benchmark-predicted) go through this one
/// function so the definitions cannot drift apart.
InstanceResult classify_from_times(const expr::Instance& dims,
                                   std::vector<long long> flops,
                                   std::vector<double> times,
                                   double time_score_threshold);

/// Classify an instance by timing every algorithm of `algs`, the family's
/// set bound to `dims` (ExpressionFamily::bind), on `machine`. A scan binds
/// each sample into one set and calls this.
InstanceResult classify_algorithms(std::span<const model::Algorithm> algs,
                                   model::MachineModel& machine,
                                   const expr::Instance& dims,
                                   double time_score_threshold);

/// Classify an instance by timing every algorithm on `machine`
/// (classify_algorithms on a freshly bound set).
InstanceResult classify_instance(const expr::ExpressionFamily& family,
                                 model::MachineModel& machine,
                                 const expr::Instance& dims,
                                 double time_score_threshold);

/// Classify using Experiment 3's predictor: per-algorithm times are the sums
/// of isolated-call benchmarks instead of end-to-end measurements.
InstanceResult classify_instance_predicted(
    const expr::ExpressionFamily& family, model::MachineModel& machine,
    const expr::Instance& dims, double time_score_threshold);

}  // namespace lamb::anomaly

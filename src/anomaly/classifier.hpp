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
//
// One core applies these rules: classify() times a bound algorithm set into
// caller-owned scratch and returns the Verdict, which is all an atlas scan
// keeps of a sample. Callers that want every set and every time build an
// InstanceResult (classify_algorithms, classify_instance,
// classify_instance_predicted, classify_from_times); the same verdict code
// fills it.
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

/// Where classify() takes an algorithm's time from.
enum class Timing {
  kInContext,  ///< MachineModel::time_steps_into: the algorithm end to end
  kIsolated,   ///< the sum of MachineModel::time_call_isolated of its calls
               ///< (Experiment 3's predictor)
};

/// What classification decides about one instance.
struct Verdict {
  bool anomaly = false;
  std::size_t fastest = 0;   ///< first index of the argmin-time set
  std::size_t cheapest = 0;  ///< first index of the argmin-FLOPs set
  double time_score = 0.0;
  double flop_score = 0.0;
};

/// Working memory of classify(), owned by the caller. Reused across
/// instances, it grows to the largest algorithm set once and classifying
/// allocates nothing after that.
struct ClassifyScratch {
  std::vector<long long> flops;  ///< per algorithm, of the last instance
  std::vector<double> times;     ///< per algorithm, of the last instance
  /// Every step time of the last instance, algorithm after algorithm.
  std::vector<double> step_times;
};

/// The classification core: time every algorithm of `algs`, a family's set
/// bound to one instance, on `machine` from `timing`, leave each one's
/// FLOP count and total time (its step times summed in order from 0.0) in
/// `scratch`, and judge them.
Verdict classify(std::span<const model::Algorithm> algs,
                 model::MachineModel& machine, Timing timing,
                 double time_score_threshold, ClassifyScratch& scratch);

/// Pure classification from already-known times and FLOP counts. Both
/// experiments (measured and benchmark-predicted) judge through the
/// verdict code classify() uses, so the definitions cannot drift apart.
InstanceResult classify_from_times(const expr::Instance& dims,
                                   std::vector<long long> flops,
                                   std::vector<double> times,
                                   double time_score_threshold);

/// Classify an instance by timing every algorithm of `algs`, the family's
/// set bound to `dims` (ExpressionFamily::bind), in context on `machine`:
/// classify() into a fresh scratch, with every set and step time kept.
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

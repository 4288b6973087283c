// MachineModel: the timing oracle experiments run against.
//
// Two implementations exist:
//   * SimulatedMachine (model/simulated_machine.hpp) — deterministic analytic
//     model; the default for the benches so every figure reproduces in
//     seconds on any host.
//   * MeasuredMachine (model/measured_machine.hpp) — executes algorithms on
//     the real BLAS substrate under the paper's measurement protocol.
//
// The two entry points mirror the paper's experiments:
//   time_steps_into()    — the algorithm run end-to-end: cache flushed before
//                          each repetition but *warm between kernel calls*
//                          (Experiments 1 and 2), one time per step written
//                          into a buffer the caller owns, so a scan that
//                          times many instances reuses one buffer;
//                          time_steps() returns the same times in a vector;
//                          time_set_into() times a whole bound set into one
//                          buffer, algorithm after algorithm: by default
//                          time_steps_into() of each, while SimulatedMachine
//                          draws the noise of many steps at once;
//   time_call_isolated() — a single call benchmarked cold (Experiment 3's
//                          predictor).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "model/algorithm.hpp"
#include "model/kernel_call.hpp"

namespace lamb::model {

class MachineModel {
 public:
  virtual ~MachineModel() = default;

  virtual std::string name() const = 0;

  /// Peak FLOP rate used to convert times into efficiencies.
  virtual double peak_flops() const = 0;

  /// True when time_steps_into()/time_call_isolated() may be called from
  /// several threads at once. Analytic models (SimulatedMachine) are pure
  /// functions of the call and say yes; anything that touches real hardware
  /// or mutable caches must stay serialised (the default). The
  /// ExperimentDriver keys its batch parallelism off this.
  virtual bool concurrent_timing_safe() const { return false; }

  /// Median per-step execution times of the algorithm executed end-to-end,
  /// written to `out` (out.size() == alg.steps().size()).
  virtual void time_steps_into(const Algorithm& alg,
                               std::span<double> out) = 0;

  /// time_steps_into() into a fresh vector.
  std::vector<double> time_steps(const Algorithm& alg);

  /// The step times of every algorithm of `algs`, algorithm after
  /// algorithm, written to `out` (out.size() == the total step count): the
  /// times time_steps_into() gives each. The default calls it on each
  /// algorithm's part of `out` in turn.
  virtual void time_set_into(std::span<const Algorithm> algs,
                             std::span<double> out);

  /// Median cold-cache time of one call benchmarked in isolation.
  virtual double time_call_isolated(const KernelCall& call) = 0;

  /// Sizes L (in any order) at which some kernel's efficiency steps
  /// between operand dimension L and L + 1: the library switching internal
  /// variants or cache blocks (paper Sec. 4.1.3). Every kernel dimension of
  /// the registered families is one instance dimension, so the region atlas
  /// samples each L and L + 1 on the line it scans. The default is none:
  /// nothing is known about the kernels.
  virtual std::vector<int> breakpoints() const { return {}; }

  /// Total measured time of the algorithm (sum of step times).
  double time_algorithm(const Algorithm& alg);

  /// Experiment 3 predictor: sum of the isolated benchmarks of every call.
  double predict_time_from_benchmarks(const Algorithm& alg);

  /// Measured whole-algorithm efficiency: flops / (time * peak).
  double algorithm_efficiency(const Algorithm& alg);
};

}  // namespace lamb::model

// Deterministic simulated machine.
//
// time(call) = flops / (peak * efficiency(call)) + per-call overhead, with
//   * multiplicative measurement jitter: the median of ten repetitions
//     (kSimulatedRepetitions), each drawn from a hash of the call, the
//     context and the repetition index (bit-reproducible everywhere);
//     inside time_set_into() the context is the algorithm's
//     signature_hash() and the step's index, so two schedules that make
//     the same calls still draw different noise,
//   * an inter-kernel cache-coupling term inside time_set_into(): a call
//     whose inputs were just produced and still fit in the LLC runs
//     slightly faster than its cold-cache benchmark. Experiment 3's
//     predictor (time_call_isolated) deliberately omits this term — the gap
//     between the two is exactly what the paper's confusion matrices
//     quantify.
//
// The triangle copy (AAtB Alg. 2) is costed as pure bandwidth-bound data
// movement.
//
// Every scan sample of an atlas times a whole bound set here, so a kernel
// call costs its arithmetic only. time_set_into() is the one timing entry:
// it takes each step's (base time × coupling) in order, and each step's
// noise from the active noise tier (model/simulated_noise.hpp). The scalar
// tier applies the reference formula step by step; the AVX-512 tier takes
// the steps' measurement streams up to kNoiseBatch at a time and draws and
// sorts eight steps' repetitions per vector. Each time is
// (base × coupling) × jitter, with the same bits on every tier;
// time_steps_into() times a set of one. Nothing allocates.
#pragma once

#include <cstdint>
#include <span>

#include "model/efficiency_model.hpp"
#include "model/machine.hpp"
#include "model/simulated_noise.hpp"

namespace lamb::model {

struct SimulatedMachineConfig {
  EfficiencyParams efficiency = EfficiencyParams::xeon_like();
  double peak_flops = 80.0e9;        ///< DP peak of the simulated host
  double copy_bandwidth = 1.5e9;     ///< bytes/s for the (strided) triangle copy
  double call_overhead = 1.5e-6;     ///< seconds per kernel invocation
  double llc_bytes = 14.0 * (1 << 20);
  double coupling_max = 0.10;        ///< max warm-cache speedup fraction
  // Kernels differ in how much they profit from warm inputs: the packed GEMM
  // streams its operands and reuses them from cache aggressively, while the
  // triangular access patterns of SYRK/SYMM profit less. This differential is
  // what makes measured (in-context) times diverge from isolated benchmarks
  // and produces Experiment 3's false negatives.
  double coupling_weight_gemm = 1.0;
  double coupling_weight_syrk = 0.35;
  double coupling_weight_symm = 0.35;
  double coupling_weight_tricopy = 0.5;
  double jitter = 0.004;             ///< relative measurement noise amplitude
  std::uint64_t noise_seed = 0xC0FFEE;
  bool enable_coupling = true;       ///< ablation switch (cache effects off)
};

class SimulatedMachine final : public MachineModel {
 public:
  explicit SimulatedMachine(SimulatedMachineConfig config = {});

  std::string name() const override;
  double peak_flops() const override { return config_.peak_flops; }
  /// Timing is a pure function of the call: safe to run concurrently.
  bool concurrent_timing_safe() const override { return true; }

  /// time_set_into() of the set {alg}.
  void time_steps_into(const Algorithm& alg, std::span<double> out) override;
  void time_set_into(std::span<const Algorithm> algs,
                     std::span<double> out) override;
  double time_call_isolated(const KernelCall& call) override;
  /// The efficiency surfaces' variant-step limits (efficiency_breakpoints).
  std::vector<int> breakpoints() const override;

  /// Noise-free base time of a call (no jitter, no coupling); exposed for
  /// tests and for the analytic cost models.
  double base_time(const KernelCall& call) const;

  /// Efficiency surface accessor (Figure 1).
  double efficiency(const KernelCall& call) const;

  const SimulatedMachineConfig& config() const { return config_; }

 private:
  /// Warm-cache speedup factor for step `i` given the previous step.
  double coupling_factor(const Algorithm& alg, std::size_t step_index) const;

  SimulatedMachineConfig config_;
};

}  // namespace lamb::model

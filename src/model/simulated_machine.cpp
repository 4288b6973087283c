#include "model/simulated_machine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"

namespace lamb::model {

namespace {

std::uint64_t call_stream(const KernelCall& call, std::uint64_t seed,
                          std::uint64_t context) {
  std::uint64_t h = support::hash_combine(seed, context);
  h = support::hash_combine(h, static_cast<std::uint64_t>(call.kind));
  h = support::hash_combine(h, static_cast<std::uint64_t>(call.m));
  h = support::hash_combine(h, static_cast<std::uint64_t>(call.n));
  h = support::hash_combine(h, static_cast<std::uint64_t>(call.k));
  return h;
}

constexpr std::uint64_t kIsolatedContext = 0x150;
constexpr std::uint64_t kSteppedContext = 0x57E9;

}  // namespace

SimulatedMachine::SimulatedMachine(SimulatedMachineConfig config)
    : config_(config) {
  LAMB_CHECK(config_.peak_flops > 0.0, "peak must be positive");
  LAMB_CHECK(config_.repetitions >= 1 &&
                 config_.repetitions <= kMaxSimulatedRepetitions,
             "repetitions out of range");
  LAMB_CHECK(config_.coupling_max >= 0.0 && config_.coupling_max < 1.0,
             "coupling fraction out of range");
}

std::string SimulatedMachine::name() const {
  return "simulated";
}

std::vector<int> SimulatedMachine::breakpoints() const {
  return efficiency_breakpoints(config_.efficiency);
}

double SimulatedMachine::efficiency(const KernelCall& call) const {
  return call_efficiency(config_.efficiency, call);
}

double SimulatedMachine::base_time(const KernelCall& call) const {
  if (call.kind == KernelKind::kTriCopy) {
    const double bytes = 2.0 * 0.5 * static_cast<double>(call.m) *
                         static_cast<double>(call.m) * sizeof(double);
    return config_.call_overhead + bytes / config_.copy_bandwidth;
  }
  const double eff = efficiency(call);
  if (eff <= 0.0 || call.flops() == 0) {
    return config_.call_overhead;
  }
  return config_.call_overhead +
         static_cast<double>(call.flops()) / (config_.peak_flops * eff);
}

double SimulatedMachine::jitter_factor(std::uint64_t stream) const {
  if (config_.jitter <= 0.0) {
    return 1.0;
  }
  // Every kernel call of every scan sample draws here: no heap.
  std::array<double, kMaxSimulatedRepetitions> buffer;
  const std::span<double> draws(buffer.data(),
                                static_cast<std::size_t>(config_.repetitions));
  for (int r = 0; r < config_.repetitions; ++r) {
    const std::uint64_t h =
        support::hash_combine(stream, static_cast<std::uint64_t>(r));
    // Map the hash to a uniform in [-1, 1).
    const double u =
        static_cast<double>(h >> 11) * 0x1.0p-53 * 2.0 - 1.0;
    // Timing noise is one-sided-ish in practice: runs can only be delayed.
    // Use |u| with a small symmetric part so medians stay near 1.
    draws[static_cast<std::size_t>(r)] =
        1.0 + config_.jitter * (0.25 * u + 0.75 * std::abs(u));
  }
  return support::median_in_place(draws);
}

double SimulatedMachine::coupling_factor(const Algorithm& alg,
                                         std::size_t step_index) const {
  if (!config_.enable_coupling || step_index == 0) {
    return 1.0;  // first call runs from a flushed cache
  }
  const Step& prev = alg.steps()[step_index - 1];
  const Step& cur = alg.steps()[step_index];
  // Bytes of the previous output still resident in the LLC.
  const double produced = static_cast<double>(prev.call.bytes_out());
  const double resident = std::min(produced, config_.llc_bytes);
  // Fraction of the current call's input traffic that those bytes cover,
  // counted only if the current call actually consumes the previous output.
  bool consumes_prev = false;
  for (int input : cur.inputs) {
    if (input == prev.output) {
      consumes_prev = true;
      break;
    }
  }
  if (!consumes_prev) {
    return 1.0;
  }
  // Blocked kernels stream the consumed operand repeatedly (once per cache
  // block of the other operand), so the benefit scales with the fraction of
  // the consumed intermediate that is still resident — not with its share of
  // one pass over the inputs.
  const double share =
      std::clamp(resident / std::max(1.0, produced), 0.0, 1.0);
  double weight = 1.0;
  switch (cur.call.kind) {
    case KernelKind::kGemm:
      weight = config_.coupling_weight_gemm;
      break;
    case KernelKind::kSyrk:
      weight = config_.coupling_weight_syrk;
      break;
    case KernelKind::kSymm:
      weight = config_.coupling_weight_symm;
      break;
    case KernelKind::kTriCopy:
      weight = config_.coupling_weight_tricopy;
      break;
  }
  return 1.0 - config_.coupling_max * weight * share;
}

std::vector<double> SimulatedMachine::time_steps(const Algorithm& alg) {
  std::vector<double> times;
  times.reserve(alg.steps().size());
  const std::uint64_t alg_ctx =
      support::hash_combine(kSteppedContext, alg.signature_hash());
  for (std::size_t i = 0; i < alg.steps().size(); ++i) {
    const KernelCall& call = alg.steps()[i].call;
    const std::uint64_t stream = support::hash_combine(
        call_stream(call, config_.noise_seed, alg_ctx),
        static_cast<std::uint64_t>(i));
    times.push_back(base_time(call) * coupling_factor(alg, i) *
                    jitter_factor(stream));
  }
  return times;
}

double SimulatedMachine::time_call_isolated(const KernelCall& call) {
  const std::uint64_t stream =
      call_stream(call, config_.noise_seed, kIsolatedContext);
  return base_time(call) * jitter_factor(stream);
}

}  // namespace lamb::model

#include "model/simulated_machine.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace lamb::model {

namespace {

/// The call's measurement stream under `context_stream`, the hash of the
/// noise seed and the timing context.
std::uint64_t call_stream(const KernelCall& call,
                          std::uint64_t context_stream) {
  std::uint64_t h = context_stream;
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

void SimulatedMachine::time_steps_into(const Algorithm& alg,
                                       std::span<double> out) {
  time_set_into({&alg, 1}, out);
}

void SimulatedMachine::time_set_into(std::span<const Algorithm> algs,
                                     std::span<double> out) {
  std::size_t total_steps = 0;
  for (const Algorithm& alg : algs) {
    total_steps += alg.steps().size();
  }
  LAMB_CHECK(out.size() == total_steps, "time_set_into: one time per step");
  const auto algorithm_stream = [this](const Algorithm& alg) {
    return support::hash_combine(
        config_.noise_seed,
        support::hash_combine(kSteppedContext, alg.signature_hash()));
  };
  double* next = out.data();
  // A vector noise tier (which takes jitter > 0) draws the factors of up to
  // kNoiseBatch steps at once. Otherwise each step's factor comes from the
  // reference formula as the step is timed, in a loop of its own: with the
  // batch's bookkeeping in it, the scalar tier ran about 8% slower a step.
  const noise_fn batched =
      config_.jitter > 0.0 ? active_noise_kernel().fn : nullptr;
  if (batched == nullptr) {
    for (const Algorithm& alg : algs) {
      const std::uint64_t alg_stream = algorithm_stream(alg);
      for (std::size_t i = 0; i < alg.steps().size(); ++i) {
        const KernelCall& call = alg.steps()[i].call;
        const std::uint64_t stream = support::hash_combine(
            call_stream(call, alg_stream), static_cast<std::uint64_t>(i));
        *next++ = base_time(call) * coupling_factor(alg, i) *
                  jitter_factor(stream, config_.jitter);
      }
    }
    return;
  }
  // Batch lane j: step j's (base time × coupling) and its stream's links,
  // the links call_stream() combines, then the step's index.
  NoiseBatch batch;
  std::array<double, kNoiseBatch> scaled;
  std::array<double, kNoiseBatch> factors;
  std::size_t filled = 0;
  const auto flush = [&] {
    batched(batch, filled, config_.jitter, factors.data());
    for (std::size_t j = 0; j < filled; ++j) {
      next[j] = scaled[j] * factors[j];
    }
    next += filled;
    filled = 0;
  };
  for (const Algorithm& alg : algs) {
    const std::uint64_t alg_stream = algorithm_stream(alg);
    for (std::size_t i = 0; i < alg.steps().size(); ++i) {
      const KernelCall& call = alg.steps()[i].call;
      scaled[filled] = base_time(call) * coupling_factor(alg, i);
      batch.context[filled] = alg_stream;
      batch.links[0][filled] = static_cast<std::uint64_t>(call.kind);
      batch.links[1][filled] = static_cast<std::uint64_t>(call.m);
      batch.links[2][filled] = static_cast<std::uint64_t>(call.n);
      batch.links[3][filled] = static_cast<std::uint64_t>(call.k);
      batch.links[4][filled] = static_cast<std::uint64_t>(i);
      if (++filled == kNoiseBatch) {
        flush();
      }
    }
  }
  if (filled > 0) {
    flush();
  }
}

double SimulatedMachine::time_call_isolated(const KernelCall& call) {
  const std::uint64_t stream = call_stream(
      call, support::hash_combine(config_.noise_seed, kIsolatedContext));
  return base_time(call) * jitter_factor(stream, config_.jitter);
}

}  // namespace lamb::model

// Measured machine: times algorithms on the real BLAS substrate, one serial
// kernel call at a time on the calling thread, under the paper's protocol
// (R repetitions, cache flushed before each repetition, median recorded;
// Sec. 3.4). Isolated-call benchmarks are memoised because Experiments 2
// and 3 revisit the same calls many times; the memo is LRU-bounded so a
// long-running serving process cannot grow without limit.
#pragma once

#include <memory>

#include "model/machine.hpp"
#include "perf/cache_flush.hpp"
#include "perf/measurement.hpp"
#include "support/lru.hpp"
#include "support/rng.hpp"

namespace lamb::model {

struct MeasuredMachineConfig {
  perf::MeasurementConfig protocol{/*repetitions=*/10, /*flush_cache=*/true};
  std::size_t flush_bytes = 64u << 20;
  std::uint64_t data_seed = 7;  ///< operand contents (timing-neutral)
  double peak_flops = 0.0;      ///< 0 -> estimate empirically
  /// Isolated-call memo bound (entries); least-recently-used benchmarks are
  /// evicted beyond it. 0 = unbounded (the pre-serving behaviour).
  std::size_t benchmark_cache_capacity = 32768;
};

class MeasuredMachine final : public MachineModel {
 public:
  explicit MeasuredMachine(MeasuredMachineConfig config = {});

  std::string name() const override;
  double peak_flops() const override;

  void time_steps_into(const Algorithm& alg, std::span<double> out) override;
  double time_call_isolated(const KernelCall& call) override;
  /// Where lamb::blas switches paths: the naive and small-k variant limits
  /// (blas/variant.hpp) and the mc and kc cache blocks (blas/packing.hpp).
  std::vector<int> breakpoints() const override;

  /// Drop memoised isolated-call benchmarks (counters are kept).
  void clear_benchmark_cache();

  std::size_t benchmark_cache_size() const { return isolated_cache_.size(); }
  std::size_t benchmark_cache_capacity() const {
    return isolated_cache_.capacity();
  }
  std::uint64_t benchmark_cache_hits() const { return isolated_cache_.hits(); }
  std::uint64_t benchmark_cache_misses() const {
    return isolated_cache_.misses();
  }

 private:
  double run_isolated(const KernelCall& call);

  MeasuredMachineConfig config_;
  perf::CacheFlusher flusher_;
  mutable double peak_ = 0.0;
  support::LruCache<KernelCall, double, KernelCallHash> isolated_cache_;
};

}  // namespace lamb::model

// Host introspection: core count, cache sizes, and an empirical estimate of
// peak double-precision FLOP rate (used to express measured kernel rates as
// efficiencies, the y-axis of the paper's Figures 1, 8 and 11).
#pragma once

#include <cstddef>
#include <string>

namespace lamb::perf {

struct MachineInfo {
  unsigned logical_cores = 1;
  std::size_t l1_bytes = 32u << 10;
  std::size_t l2_bytes = 1u << 20;
  std::size_t llc_bytes = 8u << 20;

  std::string to_string() const;
};

/// Query the host (sysconf where available; conservative fallbacks).
MachineInfo query_machine_info();

/// Empirical peak estimate: the best GEMM rate observed over a few
/// cache-friendly sizes, in FLOP/s. This is the denominator for measured
/// efficiencies; by construction the best kernel approaches efficiency 1.
double estimate_peak_flops();

}  // namespace lamb::perf

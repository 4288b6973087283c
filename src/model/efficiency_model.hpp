// Analytic kernel-efficiency surfaces for the simulated machine.
//
// The model encodes the mechanisms the paper identifies as the drivers of
// anomalies (Secs. 4.1.3, 4.2.3 and Fig. 1):
//   * efficiency ramps up with each operand dimension and saturates
//     ("the performance of said kernel changes a little with a small change
//       in size"),
//   * abrupt multiplicative steps where the library switches internal
//     algorithmic variants (small-k rank updates, skinny-panel paths),
//   * SYRK and SYMM reach lower rates than GEMM at small-to-medium sizes.
//
// Every constant lives in a parameter struct so tests can build degenerate
// machines (e.g. flat profiles, where anomalies provably cannot occur).
#pragma once

#include <vector>

#include "la/matrix.hpp"
#include "model/kernel_call.hpp"

namespace lamb::model {

/// x / (x + half): 0 at 0, 0.5 at `half`, -> 1 as x grows.
double saturation(double x, double half);

struct GemmEfficiencyParams {
  double e_max = 0.93;
  double half_m = 20.0;
  double half_n = 16.0;
  double half_k = 60.0;
  // Variant steps (abrupt changes).
  la::index_t tiny_limit = 32;
  double tiny_factor = 0.35;
  la::index_t small_k_limit = 24;
  double small_k_factor = 0.78;
  la::index_t mid_k_limit = 160;
  double mid_k_factor = 0.92;
  la::index_t small_m_limit = 64;
  double small_m_factor = 0.87;
};

struct SyrkEfficiencyParams {
  double e_max = 0.92;
  double half_m = 150.0;
  double half_k = 60.0;
  la::index_t small_m_limit = 96;
  double small_m_factor = 0.48;
  la::index_t mid_m_limit = 300;
  double mid_m_factor = 0.70;
};

struct SymmEfficiencyParams {
  double e_max = 0.90;
  double half_m = 60.0;
  double half_n = 60.0;
  la::index_t small_m_limit = 64;
  double small_m_factor = 0.78;
  la::index_t mid_m_limit = 160;
  double mid_m_factor = 0.93;
};

struct EfficiencyParams {
  GemmEfficiencyParams gemm;
  SyrkEfficiencyParams syrk;
  SymmEfficiencyParams symm;

  /// Defaults tuned by eye to the qualitative shape of the paper's Figures
  /// 1, 8 and 11. Fitting them to the paper's numbers is an open item of
  /// ROADMAP.md ("Close the gap to the paper's numbers").
  static EfficiencyParams xeon_like() { return {}; }

  /// A machine whose kernels all run at the same flat efficiency. On such a
  /// machine the FLOP count is a perfect discriminant — used by tests.
  static EfficiencyParams flat(double efficiency = 0.8);
};

double gemm_efficiency(const GemmEfficiencyParams& p, la::index_t m,
                       la::index_t n, la::index_t k);
double syrk_efficiency(const SyrkEfficiencyParams& p, la::index_t m,
                       la::index_t k);
double symm_efficiency(const SymmEfficiencyParams& p, la::index_t m,
                       la::index_t n);

/// Efficiency of an arbitrary call (TriCopy has no FLOPs; returns 0).
double call_efficiency(const EfficiencyParams& p, const KernelCall& call);

/// The variant-step limits of `p` (ascending, distinct): every positive
/// limit whose factor is not 1, so the efficiency surfaces step between L
/// and L + 1 and are smooth everywhere else. 24, 32, 64, 96, 160 and 300
/// for xeon_like(); none for flat().
std::vector<int> efficiency_breakpoints(const EfficiencyParams& p);

}  // namespace lamb::model

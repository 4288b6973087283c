#include "model/efficiency_model.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace lamb::model {

double saturation(double x, double half) {
  LAMB_CHECK(half > 0.0, "saturation: half must be positive");
  if (x <= 0.0) {
    return 0.0;
  }
  return x / (x + half);
}

EfficiencyParams EfficiencyParams::flat(double efficiency) {
  LAMB_CHECK(efficiency > 0.0 && efficiency <= 1.0,
             "flat efficiency must be in (0, 1]");
  EfficiencyParams p;
  // Saturation halves ~0 make the ramps effectively flat; no variant steps.
  p.gemm = GemmEfficiencyParams{efficiency, 1e-6, 1e-6, 1e-6, 0,   1.0,
                                0,          1.0,   0,    1.0,  0,   1.0};
  p.syrk = SyrkEfficiencyParams{efficiency, 1e-6, 1e-6, 0, 1.0, 0, 1.0};
  p.symm = SymmEfficiencyParams{efficiency, 1e-6, 1e-6, 0, 1.0, 0, 1.0};
  return p;
}

double gemm_efficiency(const GemmEfficiencyParams& p, la::index_t m,
                       la::index_t n, la::index_t k) {
  if (m <= 0 || n <= 0 || k <= 0) {
    return 0.0;
  }
  double e = p.e_max;
  e *= saturation(static_cast<double>(m), p.half_m);
  e *= saturation(static_cast<double>(n), p.half_n);
  e *= saturation(static_cast<double>(k), p.half_k);
  if (std::max({m, n, k}) <= p.tiny_limit) {
    e *= p.tiny_factor;
  } else if (k <= p.small_k_limit) {
    e *= p.small_k_factor;
  } else if (k <= p.mid_k_limit) {
    e *= p.mid_k_factor;
  }
  if (m <= p.small_m_limit) {
    e *= p.small_m_factor;
  }
  return e;
}

double syrk_efficiency(const SyrkEfficiencyParams& p, la::index_t m,
                       la::index_t k) {
  if (m <= 0 || k <= 0) {
    return 0.0;
  }
  double e = p.e_max;
  e *= saturation(static_cast<double>(m), p.half_m);
  e *= saturation(static_cast<double>(k), p.half_k);
  if (m <= p.small_m_limit) {
    e *= p.small_m_factor;
  } else if (m <= p.mid_m_limit) {
    e *= p.mid_m_factor;
  }
  return e;
}

double symm_efficiency(const SymmEfficiencyParams& p, la::index_t m,
                       la::index_t n) {
  if (m <= 0 || n <= 0) {
    return 0.0;
  }
  double e = p.e_max;
  e *= saturation(static_cast<double>(m), p.half_m);
  e *= saturation(static_cast<double>(n), p.half_n);
  if (m <= p.small_m_limit) {
    e *= p.small_m_factor;
  } else if (m <= p.mid_m_limit) {
    e *= p.mid_m_factor;
  }
  return e;
}

double call_efficiency(const EfficiencyParams& p, const KernelCall& call) {
  switch (call.kind) {
    case KernelKind::kGemm:
      return gemm_efficiency(p.gemm, call.m, call.n, call.k);
    case KernelKind::kSyrk:
      return syrk_efficiency(p.syrk, call.m, call.k);
    case KernelKind::kSymm:
      return symm_efficiency(p.symm, call.m, call.n);
    case KernelKind::kTriCopy:
      return 0.0;
  }
  return 0.0;
}

std::vector<int> efficiency_breakpoints(const EfficiencyParams& p) {
  std::vector<int> out;
  const auto step = [&out](la::index_t limit, double factor) {
    if (limit >= 1 && factor != 1.0) {
      out.push_back(static_cast<int>(limit));
    }
  };
  step(p.gemm.tiny_limit, p.gemm.tiny_factor);
  step(p.gemm.small_k_limit, p.gemm.small_k_factor);
  step(p.gemm.mid_k_limit, p.gemm.mid_k_factor);
  step(p.gemm.small_m_limit, p.gemm.small_m_factor);
  step(p.syrk.small_m_limit, p.syrk.small_m_factor);
  step(p.syrk.mid_m_limit, p.syrk.mid_m_factor);
  step(p.symm.small_m_limit, p.symm.small_m_factor);
  step(p.symm.mid_m_limit, p.symm.mid_m_factor);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace lamb::model

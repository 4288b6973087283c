// Efficiency-model properties: bounds, ramps, variant steps and the flat
// degenerate machine.
#include <gtest/gtest.h>

#include "model/efficiency_model.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace {

using namespace lamb::model;
namespace la = lamb::la;

TEST(Saturation, BasicShape) {
  EXPECT_DOUBLE_EQ(saturation(0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(saturation(10.0, 10.0), 0.5);
  EXPECT_GT(saturation(1e9, 10.0), 0.999);
  EXPECT_DOUBLE_EQ(saturation(-5.0, 10.0), 0.0);
}

TEST(Saturation, NonPositiveHalfRejected) {
  EXPECT_THROW(saturation(1.0, 0.0), lamb::support::CheckError);
}

TEST(Efficiency, AlwaysInUnitInterval) {
  const EfficiencyParams p = EfficiencyParams::xeon_like();
  lamb::support::Rng rng(5);
  for (int t = 0; t < 2000; ++t) {
    const la::index_t m = rng.uniform_int(1, 3000);
    const la::index_t n = rng.uniform_int(1, 3000);
    const la::index_t k = rng.uniform_int(1, 3000);
    for (const KernelCall& call :
         {make_gemm(m, n, k), make_syrk(m, k), make_symm(m, n)}) {
      const double e = call_efficiency(p, call);
      ASSERT_GT(e, 0.0) << call.to_string();
      ASSERT_LE(e, 1.0) << call.to_string();
    }
  }
}

TEST(Efficiency, ZeroDimsGiveZero) {
  const EfficiencyParams p = EfficiencyParams::xeon_like();
  EXPECT_DOUBLE_EQ(gemm_efficiency(p.gemm, 0, 5, 5), 0.0);
  EXPECT_DOUBLE_EQ(syrk_efficiency(p.syrk, 5, 0), 0.0);
  EXPECT_DOUBLE_EQ(symm_efficiency(p.symm, 0, 5), 0.0);
}

TEST(Efficiency, TriCopyHasNoEfficiency) {
  const EfficiencyParams p = EfficiencyParams::xeon_like();
  EXPECT_DOUBLE_EQ(call_efficiency(p, make_tricopy(100)), 0.0);
}

TEST(Efficiency, RampsUpWithSizeWithinAVariant) {
  const EfficiencyParams p = EfficiencyParams::xeon_like();
  // Within the blocked-variant regime (k > 128, m > 48), each dimension
  // increase must not decrease efficiency.
  double prev = 0.0;
  for (la::index_t s = 200; s <= 2000; s += 100) {
    const double e = gemm_efficiency(p.gemm, s, s, s);
    EXPECT_GE(e, prev);
    prev = e;
  }
}

TEST(Efficiency, GemmApproachesEMax) {
  const EfficiencyParams p = EfficiencyParams::xeon_like();
  const double e = gemm_efficiency(p.gemm, 100000, 100000, 100000);
  EXPECT_GT(e, 0.95 * p.gemm.e_max);
  EXPECT_LE(e, p.gemm.e_max);
}

TEST(Efficiency, SmallKVariantStepIsAbrupt) {
  const EfficiencyParams p = EfficiencyParams::xeon_like();
  const double just_below =
      gemm_efficiency(p.gemm, 500, 500, p.gemm.small_k_limit);
  const double just_above =
      gemm_efficiency(p.gemm, 500, 500, p.gemm.small_k_limit + 1);
  // The jump across the threshold must far exceed the smooth ramp change.
  const double smooth_delta =
      gemm_efficiency(p.gemm, 500, 500, p.gemm.small_k_limit + 2) - just_above;
  EXPECT_GT(just_above - just_below, 5.0 * smooth_delta);
}

TEST(Efficiency, SmallMVariantStepExists) {
  const EfficiencyParams p = EfficiencyParams::xeon_like();
  const double below =
      gemm_efficiency(p.gemm, p.gemm.small_m_limit, 500, 500);
  const double above =
      gemm_efficiency(p.gemm, p.gemm.small_m_limit + 1, 500, 500);
  EXPECT_GT(above, below);
}

TEST(Efficiency, SyrkBelowGemmAtSmallSizes) {
  // Mechanism behind the paper's AAtB anomalies (Fig. 11 left): SYRK's rate
  // is well below GEMM's for small/medium m.
  const EfficiencyParams p = EfficiencyParams::xeon_like();
  for (la::index_t m : {50, 100, 200}) {
    EXPECT_LT(syrk_efficiency(p.syrk, m, 300),
              gemm_efficiency(p.gemm, m, m, 300))
        << "m=" << m;
  }
}

TEST(Efficiency, SyrkVariantStepsAtConfiguredLimits) {
  const EfficiencyParams p = EfficiencyParams::xeon_like();
  const double small = syrk_efficiency(p.syrk, p.syrk.small_m_limit, 500);
  const double mid = syrk_efficiency(p.syrk, p.syrk.small_m_limit + 1, 500);
  EXPECT_GT(mid, small);
  const double mid2 = syrk_efficiency(p.syrk, p.syrk.mid_m_limit, 500);
  const double large = syrk_efficiency(p.syrk, p.syrk.mid_m_limit + 1, 500);
  EXPECT_GT(large, mid2);
}

TEST(Efficiency, SymmBelowGemmAtSmallN) {
  const EfficiencyParams p = EfficiencyParams::xeon_like();
  EXPECT_LT(symm_efficiency(p.symm, 150, 50),
            gemm_efficiency(p.gemm, 150, 50, 150));
}

TEST(Efficiency, FlatProfileIsConstant) {
  const EfficiencyParams p = EfficiencyParams::flat(0.7);
  lamb::support::Rng rng(9);
  for (int t = 0; t < 200; ++t) {
    const la::index_t m = rng.uniform_int(1, 2000);
    const la::index_t n = rng.uniform_int(1, 2000);
    const la::index_t k = rng.uniform_int(1, 2000);
    EXPECT_NEAR(gemm_efficiency(p.gemm, m, n, k), 0.7, 1e-3);
    EXPECT_NEAR(syrk_efficiency(p.syrk, m, k), 0.7, 1e-3);
    EXPECT_NEAR(symm_efficiency(p.symm, m, n), 0.7, 1e-3);
  }
}

TEST(Efficiency, BreakpointsAreTheVariantStepLimits) {
  const EfficiencyParams p = EfficiencyParams::xeon_like();
  EXPECT_EQ(efficiency_breakpoints(p),
            (std::vector<int>{24, 32, 64, 96, 160, 300}));
  // A flat machine has none, and a factor of 1 is no step.
  EXPECT_TRUE(efficiency_breakpoints(EfficiencyParams::flat(0.7)).empty());
  EfficiencyParams q = p;
  q.syrk.mid_m_factor = 1.0;
  EXPECT_EQ(efficiency_breakpoints(q),
            (std::vector<int>{24, 32, 64, 96, 160}));
}

TEST(Efficiency, FlatProfileValidatesRange) {
  EXPECT_THROW(EfficiencyParams::flat(0.0), lamb::support::CheckError);
  EXPECT_THROW(EfficiencyParams::flat(1.5), lamb::support::CheckError);
}

}  // namespace

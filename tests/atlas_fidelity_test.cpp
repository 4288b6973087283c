// The region atlas against the exact oracle. For fixed slices on
// SimulatedMachine with the service's default AtlasConfig (12 seeded bases,
// every dimension of each family the serving benchmark mixes), every integer
// size of the scanned range is classified directly with classify_instance
// and compared with the atlas's answer at that size:
//   * the served (recommended) algorithm is within 1% of the fastest time;
//   * the FLOP-minimal algorithm is in the cheapest set;
//   * the anomalous flag is wrong at no more than 0.1% of the sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "anomaly/atlas.hpp"
#include "anomaly/classifier.hpp"
#include "expr/registry.hpp"
#include "model/simulated_machine.hpp"
#include "support/rng.hpp"

namespace {

using namespace lamb;

constexpr int kBases = 12;
constexpr std::uint64_t kSeed = 2024;

struct Fidelity {
  long long sizes = 0;
  long long slow = 0;                ///< served > 1% slower than the fastest
  long long flop_minimal_wrong = 0;  ///< flop_minimal not FLOP-minimal
  long long flag_wrong = 0;
  double worst = 1.0;                ///< max served / fastest time
  long long samples = 0;
  long long intervals = 0;
  int slices = 0;
};

Fidelity measure(const std::string& name) {
  const auto family = expr::make_family(name);
  model::SimulatedMachine machine;
  const anomaly::AtlasConfig cfg;
  support::Rng rng(kSeed);
  Fidelity f;
  for (int b = 0; b < kBases; ++b) {
    expr::Instance base(static_cast<std::size_t>(family->dimension_count()));
    for (int& d : base) {
      d = rng.uniform_int(cfg.lo, cfg.hi);
    }
    for (int dim = 0; dim < family->dimension_count(); ++dim) {
      const anomaly::RegionAtlas atlas(*family, machine, base, dim, cfg);
      ++f.slices;
      f.samples += atlas.samples_used();
      f.intervals += static_cast<long long>(atlas.intervals().size());
      expr::Instance dims = base;
      for (int size = cfg.lo; size <= cfg.hi; ++size) {
        dims[static_cast<std::size_t>(dim)] = size;
        const anomaly::InstanceResult r = anomaly::classify_instance(
            *family, machine, dims, cfg.time_score_threshold);
        const anomaly::AtlasInterval& answer = atlas.lookup(size);
        const double fastest =
            *std::min_element(r.times.begin(), r.times.end());
        const double ratio = r.times[answer.recommended] / fastest;
        ++f.sizes;
        f.slow += ratio > 1.01 ? 1 : 0;
        f.worst = std::max(f.worst, ratio);
        f.flop_minimal_wrong +=
            std::find(r.cheapest.begin(), r.cheapest.end(),
                      answer.flop_minimal) == r.cheapest.end()
                ? 1
                : 0;
        f.flag_wrong += answer.anomalous != r.anomaly ? 1 : 0;
      }
    }
  }
  return f;
}

class AtlasFidelity : public ::testing::TestWithParam<const char*> {};

TEST_P(AtlasFidelity, EverySizeAgreesWithTheOracle) {
  const Fidelity f = measure(GetParam());
  std::printf(
      "%-6s %d slices, %lld sizes: served >1%% slower %lld (worst %.4fx), "
      "flop_minimal wrong %lld, flag wrong %lld; %.1f samples and %.1f "
      "intervals per slice\n",
      GetParam(), f.slices, f.sizes, f.slow, f.worst, f.flop_minimal_wrong,
      f.flag_wrong, static_cast<double>(f.samples) / f.slices,
      static_cast<double>(f.intervals) / f.slices);
  EXPECT_EQ(f.slow, 0) << "worst served/fastest " << f.worst;
  EXPECT_EQ(f.flop_minimal_wrong, 0);
  EXPECT_LE(f.flag_wrong * 1000, f.sizes)
      << f.flag_wrong << " wrong flags in " << f.sizes << " sizes";
}

INSTANTIATE_TEST_SUITE_P(Families, AtlasFidelity,
                         ::testing::Values("aatb", "chain4", "gram", "aatbc"));

}  // namespace

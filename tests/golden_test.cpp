// Golden digests of the simulated machine's numbers. SimulatedMachine is a
// pure function of its configuration, so every time it reports and every
// atlas built on it are fixed bits. These digests pin them: a change to the
// timing path (the repetition median, the jitter hash streams, how a family
// binds an instance's sizes) that moves a single bit fails here. A change
// meant to alter the numbers updates the constants; the failure message
// prints the new value.
//
// Per family (the four the serving benchmark mixes):
//   * timings: FNV-1a over the IEEE bits of every time_steps() double of
//     every algorithm and every time_call_isolated() double of each of its
//     calls, at three fixed instances: every dimension 64, every dimension
//     65 (the two sides of the efficiency breakpoint at 64) and a mixed one;
//   * atlases: FNV-1a over RegionAtlas::to_csv() of 12 fixed slices with
//     the default AtlasConfig.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "anomaly/atlas.hpp"
#include "expr/registry.hpp"
#include "model/simulated_machine.hpp"
#include "support/endian.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace {

using namespace lamb;

struct Golden {
  const char* family;
  std::uint64_t timings;
  std::uint64_t atlases;
};

void PrintTo(const Golden& g, std::ostream* os) { *os << g.family; }

constexpr Golden kGolden[] = {
    {"aatb", 0x2c7c01b224525856ULL, 0xcf97bb139237f8abULL},
    {"chain4", 0xe16450fd900ff3a6ULL, 0x6c0a1d10df6eb0d7ULL},
    {"gram", 0xce3c8dfd50519d4fULL, 0x2e4107ba7954d203ULL},
    {"aatbc", 0x33b6318a302a5ad7ULL, 0xd5fab3f0bfcf61c9ULL},
};

constexpr int kMixed[] = {20, 97, 161, 301, 1200};
constexpr int kAtlasSlices = 12;
constexpr std::uint64_t kAtlasSeed = 2024;

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ULL", v);
  return buf;
}

std::uint64_t timings_digest(const expr::ExpressionFamily& family) {
  const auto n = static_cast<std::size_t>(family.dimension_count());
  expr::Instance mixed(kMixed, kMixed + n);
  model::SimulatedMachine machine;
  std::string bits;
  for (const expr::Instance& dims :
       {expr::Instance(n, 64), expr::Instance(n, 65), mixed}) {
    for (const model::Algorithm& alg : family.algorithms(dims)) {
      for (const double t : machine.time_steps(alg)) {
        support::append_f64(bits, t);
      }
      for (const model::Step& step : alg.steps()) {
        support::append_f64(bits, machine.time_call_isolated(step.call));
      }
    }
  }
  return support::fnv1a64(bits);
}

std::uint64_t atlases_digest(const expr::ExpressionFamily& family) {
  model::SimulatedMachine machine;
  const anomaly::AtlasConfig cfg;
  support::Rng rng(kAtlasSeed);
  std::string csv;
  for (int s = 0; s < kAtlasSlices; ++s) {
    expr::Instance base(static_cast<std::size_t>(family.dimension_count()));
    for (int& d : base) {
      d = rng.uniform_int(cfg.lo, cfg.hi);
    }
    const int dim = s % family.dimension_count();
    csv += anomaly::RegionAtlas(family, machine, base, dim, cfg).to_csv();
  }
  return support::fnv1a64(csv);
}

class SimulatedGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(SimulatedGolden, TimingsAndAtlasesKeepTheirBits) {
  const Golden& g = GetParam();
  const auto family = expr::make_family(g.family);
  const std::uint64_t timings = timings_digest(*family);
  const std::uint64_t atlases = atlases_digest(*family);
  EXPECT_EQ(timings, g.timings) << g.family << " timings digest is now "
                                << hex(timings);
  EXPECT_EQ(atlases, g.atlases) << g.family << " atlases digest is now "
                                << hex(atlases);
}

INSTANTIATE_TEST_SUITE_P(Families, SimulatedGolden,
                         ::testing::ValuesIn(kGolden),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                           return std::string(info.param.family);
                         });

}  // namespace

// RegionAtlas: symbolic-size anomaly maps, verified against the scripted
// machine's exact anomaly window and on the simulated machine.
#include <gtest/gtest.h>

#include <algorithm>

#include "anomaly/atlas.hpp"
#include "expr/family.hpp"
#include "model/simulated_machine.hpp"
#include "scripted.hpp"
#include "support/check.hpp"

namespace {

using namespace lamb;
using anomaly::AtlasConfig;
using anomaly::RegionAtlas;

AtlasConfig scripted_config() {
  AtlasConfig cfg;
  cfg.lo = 20;
  cfg.hi = 1200;
  cfg.coarse_step = 40;
  return cfg;
}

TEST(Atlas, RecoversScriptedWindowExactly) {
  lamb::testing::ScriptedFamily family;
  lamb::testing::ScriptedMachine machine;  // anomalous window [200, 400]
  const RegionAtlas atlas(family, machine, {300}, 0, scripted_config());

  // Three intervals: safe, anomalous [200, 400], safe.
  ASSERT_EQ(atlas.intervals().size(), 3u);
  EXPECT_FALSE(atlas.intervals()[0].anomalous);
  EXPECT_TRUE(atlas.intervals()[1].anomalous);
  EXPECT_FALSE(atlas.intervals()[2].anomalous);
  // Bisection refines the window to unit resolution.
  EXPECT_EQ(atlas.interval_lo(atlas.intervals()[1]), 200);
  EXPECT_EQ(atlas.intervals()[1].hi, 400);
}

TEST(Atlas, RefinesAChangeOfTheFastestAlgorithmWithoutAFlagFlip) {
  // Inside [300, 500] the expensive algorithm is 2% faster: the fastest
  // algorithm changes twice while the flag stays "FLOPs are safe" (2% is
  // under the 5% threshold). Each run of equal answers is its own interval.
  lamb::testing::ScriptedFamily family;
  lamb::testing::ScriptedMachine machine;
  machine.window_lo = 300;
  machine.window_hi = 500;
  machine.window_cheap_seconds = 1.02;
  const RegionAtlas atlas(family, machine, {300}, 0, scripted_config());
  ASSERT_EQ(atlas.intervals().size(), 3u);
  for (const auto& interval : atlas) {
    EXPECT_FALSE(interval.anomalous);
    EXPECT_EQ(interval.flop_minimal, 0u);
  }
  EXPECT_EQ(atlas.intervals()[0].hi, 299);
  EXPECT_EQ(atlas.intervals()[1].hi, 500);
  EXPECT_EQ(atlas.recommend(299), 0u);
  EXPECT_EQ(atlas.recommend(300), 1u);
  EXPECT_EQ(atlas.recommend(500), 1u);
  EXPECT_EQ(atlas.recommend(501), 0u);
}

TEST(Atlas, SamplesEachBreakpointAndItsSuccessor) {
  // A window [101, 110] between the coarse samples 100 and 140 is invisible
  // to the grid alone; breakpoints at 100 and 110 put samples at 100, 101,
  // 110 and 111, which fix both ends exactly.
  lamb::testing::ScriptedFamily family;
  lamb::testing::ScriptedMachine machine;
  machine.window_lo = 101;
  machine.window_hi = 110;
  const RegionAtlas blind(family, machine, {300}, 0, scripted_config());
  EXPECT_EQ(blind.intervals().size(), 1u);

  machine.kernel_breakpoints = {100, 110, 1200, 5000};
  const RegionAtlas atlas(family, machine, {300}, 0, scripted_config());
  ASSERT_EQ(atlas.intervals().size(), 3u);
  EXPECT_EQ(atlas.interval_lo(atlas.intervals()[1]), 101);
  EXPECT_EQ(atlas.intervals()[1].hi, 110);
  EXPECT_TRUE(atlas.intervals()[1].anomalous);
  // 31 grid samples (20..1180 and 1200) plus 101, 110 and 111; 100 is on
  // the grid, 1200 is the end and 1201 and 5000 lie outside the range.
  EXPECT_EQ(atlas.samples_used(), blind.samples_used() + 3);
}

TEST(Atlas, LookupAndRecommendation) {
  lamb::testing::ScriptedFamily family;
  lamb::testing::ScriptedMachine machine;
  const RegionAtlas atlas(family, machine, {300}, 0, scripted_config());

  // Inside the window FLOPs are unreliable; the expensive algorithm (#1)
  // is the right call. Outside, the cheap algorithm (#0) is both.
  EXPECT_FALSE(atlas.flops_reliable_at(300));
  EXPECT_EQ(atlas.recommend(300), 1u);
  EXPECT_TRUE(atlas.flops_reliable_at(100));
  EXPECT_EQ(atlas.recommend(100), 0u);
  EXPECT_TRUE(atlas.flops_reliable_at(1000));

  // Queries outside the scanned range clamp.
  EXPECT_TRUE(atlas.flops_reliable_at(5));
  EXPECT_TRUE(atlas.flops_reliable_at(99999));
}

TEST(Atlas, IntervalsPartitionTheRange) {
  lamb::testing::ScriptedFamily family;
  lamb::testing::ScriptedMachine machine;
  const RegionAtlas atlas(family, machine, {300}, 0, scripted_config());
  int expected_lo = 20;
  for (const auto& interval : atlas.intervals()) {
    EXPECT_EQ(atlas.interval_lo(interval), expected_lo);
    EXPECT_GE(interval.hi, expected_lo);
    expected_lo = interval.hi + 1;
  }
  EXPECT_EQ(atlas.intervals().back().hi, 1200);
}

TEST(Atlas, AnomalousFractionMatchesWindow) {
  lamb::testing::ScriptedFamily family;
  lamb::testing::ScriptedMachine machine;
  const RegionAtlas atlas(family, machine, {300}, 0, scripted_config());
  // Window [200, 400] of [20, 1200]: 201 / 1181 ~ 17%.
  EXPECT_NEAR(atlas.anomalous_fraction(), 201.0 / 1181.0, 0.01);
}

TEST(Atlas, WorstTimeScoreIsRecorded) {
  lamb::testing::ScriptedFamily family;
  lamb::testing::ScriptedMachine machine;
  const RegionAtlas atlas(family, machine, {300}, 0, scripted_config());
  EXPECT_DOUBLE_EQ(atlas.intervals()[1].worst_time_score, 0.5);
}

TEST(Atlas, CheaperThanExhaustiveScan) {
  lamb::testing::ScriptedFamily family;
  lamb::testing::ScriptedMachine machine;
  const RegionAtlas atlas(family, machine, {300}, 0, scripted_config());
  // Coarse stride 40 over 1181 coordinates plus two bisections must use far
  // fewer classifications than a unit-stride scan.
  EXPECT_LT(atlas.samples_used(), 100);
}

TEST(Atlas, ToStringListsIntervals) {
  lamb::testing::ScriptedFamily family;
  lamb::testing::ScriptedMachine machine;
  const RegionAtlas atlas(family, machine, {300}, 0, scripted_config());
  const std::string text = atlas.to_string({"cheap", "expensive"});
  EXPECT_NE(text.find("ANOMALOUS"), std::string::npos);
  EXPECT_NE(text.find("flops-safe"), std::string::npos);
  EXPECT_NE(text.find("expensive"), std::string::npos);
}

TEST(Atlas, LookupClampSemanticsAreExplicit) {
  lamb::testing::ScriptedFamily family;
  lamb::testing::ScriptedMachine machine;
  const RegionAtlas atlas(family, machine, {300}, 0, scripted_config());

  // Below config.lo: the first interval answers.
  EXPECT_EQ(&atlas.lookup(-100), &atlas.intervals().front());
  EXPECT_EQ(&atlas.lookup(19), &atlas.intervals().front());
  EXPECT_EQ(&atlas.lookup(20), &atlas.intervals().front());
  // Above config.hi: the last interval answers.
  EXPECT_EQ(&atlas.lookup(1200), &atlas.intervals().back());
  EXPECT_EQ(&atlas.lookup(1201), &atlas.intervals().back());
  EXPECT_EQ(&atlas.lookup(1 << 30), &atlas.intervals().back());
  // Interior boundaries land on the covering interval, inclusive both ends.
  for (const auto& interval : atlas.intervals()) {
    EXPECT_EQ(&atlas.lookup(atlas.interval_lo(interval)), &interval);
    EXPECT_EQ(&atlas.lookup(interval.hi), &interval);
  }
}

TEST(Atlas, SingleIntervalAtlasAnswersEverything) {
  lamb::testing::ScriptedFamily family;
  lamb::testing::ScriptedMachine machine;
  machine.window_lo = 10000;  // window outside the scan: nothing anomalous
  machine.window_hi = 20000;
  AtlasConfig cfg = scripted_config();
  const RegionAtlas atlas(family, machine, {300}, 0, cfg);
  ASSERT_EQ(atlas.intervals().size(), 1u);
  for (int size : {-5, 20, 600, 1200, 99999}) {
    EXPECT_EQ(&atlas.lookup(size), &atlas.intervals().front()) << size;
    EXPECT_TRUE(atlas.flops_reliable_at(size)) << size;
  }
}

TEST(Atlas, DirectConstructionValidatesThePartition) {
  using lamb::anomaly::AtlasInterval;
  AtlasConfig cfg;
  cfg.lo = 10;
  cfg.hi = 30;
  const AtlasInterval first{19, false, 0, 0, 0.0};
  const AtlasInterval second{30, true, 1, 0, 0.5};

  const RegionAtlas ok({5}, 0, cfg, {first, second}, 42);
  EXPECT_EQ(ok.samples_used(), 42);
  EXPECT_EQ(ok.recommend(25), 1u);
  EXPECT_FALSE(ok.flops_reliable_at(25));
  EXPECT_EQ(ok.interval_lo(ok.lookup(25)), 20);

  // Short of config.hi, past it, descending, repeated, below config.lo,
  // empty: all rejected.
  EXPECT_THROW(RegionAtlas({5}, 0, cfg, {first}, 1), support::CheckError);
  EXPECT_THROW(RegionAtlas({5}, 0, cfg, {first, {31, true, 1, 0, 0.5}}, 1),
               support::CheckError);
  EXPECT_THROW(RegionAtlas({5}, 0, cfg, {second, first}, 1),
               support::CheckError);
  EXPECT_THROW(RegionAtlas({5}, 0, cfg, {first, first, second}, 1),
               support::CheckError);
  EXPECT_THROW(RegionAtlas({5}, 0, cfg, {{9, false, 0, 0, 0.0}, second}, 1),
               support::CheckError);
  EXPECT_THROW(RegionAtlas({5}, 0, cfg, {}, 1), support::CheckError);
  EXPECT_THROW(RegionAtlas({5}, 1, cfg, {first, second}, 1),
               support::CheckError);  // dim out of range for the base
}

TEST(Atlas, ToCsvListsOneRowPerInterval) {
  lamb::testing::ScriptedFamily family;
  lamb::testing::ScriptedMachine machine;
  const RegionAtlas atlas(family, machine, {300}, 0, scripted_config());
  const std::string csv = atlas.to_csv();
  EXPECT_NE(csv.find("dim,lo,hi,anomalous,"), std::string::npos);
  const auto rows = static_cast<std::size_t>(
      std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(rows, atlas.intervals().size() + 1);  // header + intervals
  EXPECT_NE(csv.find("200,400,1"), std::string::npos);  // the window row
}

TEST(Atlas, IterationCoversAllIntervals) {
  lamb::testing::ScriptedFamily family;
  lamb::testing::ScriptedMachine machine;
  const RegionAtlas atlas(family, machine, {300}, 0, scripted_config());
  std::size_t seen = 0;
  for (const auto& interval : atlas) {
    EXPECT_LE(atlas.interval_lo(interval), interval.hi);
    ++seen;
  }
  EXPECT_EQ(seen, atlas.intervals().size());
}

TEST(Atlas, InvalidArgumentsRejected) {
  lamb::testing::ScriptedFamily family;
  lamb::testing::ScriptedMachine machine;
  EXPECT_THROW(RegionAtlas(family, machine, {300}, 1, scripted_config()),
               support::CheckError);
  AtlasConfig bad = scripted_config();
  bad.coarse_step = 0;
  EXPECT_THROW(RegionAtlas(family, machine, {300}, 0, bad),
               support::CheckError);
}

TEST(Atlas, AatbD0AtlasMatchesFigure11Structure) {
  // Along d0 with (d1, d2) = (260, 549): anomalous at small d0, safe at
  // large d0 (Fig. 11 left), with GEMM-based algorithms recommended inside
  // the region.
  expr::AatbFamily family;
  model::SimulatedMachine machine;
  AtlasConfig cfg;
  cfg.coarse_step = 25;
  const RegionAtlas atlas(family, machine, {150, 260, 549}, 0, cfg);

  EXPECT_FALSE(atlas.flops_reliable_at(150));
  EXPECT_TRUE(atlas.flops_reliable_at(1100));
  const auto& inside = atlas.lookup(150);
  EXPECT_TRUE(inside.recommended == 2 || inside.recommended == 3);
  EXPECT_LE(inside.flop_minimal, 1u);  // SYRK pair is FLOP-minimal
  EXPECT_GT(atlas.anomalous_fraction(), 0.0);
  EXPECT_LT(atlas.anomalous_fraction(), 1.0);
}

}  // namespace

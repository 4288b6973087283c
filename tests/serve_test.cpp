// serve/: SelectionService answers must be bit-identical to what the
// underlying RegionAtlas / classifier produce directly, from every source
// (atlas, measured, cache) and every entry point (HTTP at two event loops
// included), under concurrency, and across a store checkpoint/warm cycle,
// also one checkpointed while slices are built and refreshed; an answer
// that straddles a refresh is never served from the LRU afterwards, and a
// refresh frees the atlases it replaces; a warm query() allocates nothing,
// and a cold one no more with 256 slices published than with 1.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "alloc_counter.hpp"
#include "anomaly/classifier.hpp"
#include "model/simulated_machine.hpp"
#include "net/client.hpp"
#include "net/routes.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "scripted.hpp"
#include "serve/selection_service.hpp"
#include "serve/shard_cache.hpp"
#include "sim/generator.hpp"
#include "sim/simulator.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"

namespace {

using namespace lamb;
using serve::Query;
using serve::Recommendation;
using serve::SelectionService;
using serve::ServiceConfig;
using serve::Source;

std::string temp_dir() {
  static int counter = 0;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("lamb_serve_test_" + std::to_string(::getpid()) + "_" +
        std::to_string(counter++)))
          .string();
  std::filesystem::create_directories(dir);
  return dir;
}

ServiceConfig scripted_config() {
  ServiceConfig cfg;
  cfg.atlas.lo = 20;
  cfg.atlas.hi = 1200;
  cfg.atlas.coarse_step = 40;
  cfg.threads = 2;
  return cfg;
}

/// A family whose atlas build always fails: exercises error propagation
/// through batch builds, async futures and the build-dedup layer.
class BoomFamily final : public expr::ExpressionFamily {
 public:
  std::string name() const override { return "boom"; }
  int dimension_count() const override { return 1; }
  void bind(const expr::Instance&,
            std::vector<model::Algorithm>&) const override {
    throw std::runtime_error("boom: scripted build failure");
  }
  std::vector<la::Matrix> make_externals(const expr::Instance&,
                                         support::Rng&) const override {
    throw std::runtime_error("boom: no externals");
  }
};

/// Registry with the scripted test double and the failing family.
expr::FamilyRegistry test_registry() {
  expr::FamilyRegistry registry;
  registry.add("scripted", "test double", [] {
    return std::make_unique<lamb::testing::ScriptedFamily>();
  });
  registry.add("boom", "always fails to build", [] {
    return std::make_unique<BoomFamily>();
  });
  return registry;
}

// ----------------------------------------------------------- sharded cache

TEST(ShardCache, BoundsCapacityAndCounts) {
  serve::ShardedLruCache<std::string, int> cache(/*capacity=*/4, /*shards=*/2);
  for (int i = 0; i < 100; ++i) {
    cache.put(std::to_string(i), i);
  }
  EXPECT_LE(cache.size(), 4u);
  EXPECT_EQ(cache.hits(), 0u);
  cache.put("stay", 7);
  ASSERT_TRUE(cache.get("stay").has_value());
  EXPECT_EQ(*cache.get("stay"), 7);
  EXPECT_GE(cache.hits(), 2u);
  EXPECT_GE(cache.misses(), 0u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get("stay").has_value());
}

/// Hash that maps an int key straight to its shard (the key's low bits),
/// so tests can fill every shard deterministically.
struct IdentityHash {
  std::size_t operator()(int key) const { return static_cast<std::size_t>(key); }
};

TEST(ShardCache, CapacityRemainderIsDistributedNotDropped) {
  // Regression: capacity 10 over 4 shards used to give 4 * (10 / 4) = 8
  // global slots; the remainder must be spread across shards instead.
  serve::ShardedLruCache<int, int, IdentityHash> cache(/*capacity=*/10,
                                                       /*shards=*/4);
  EXPECT_EQ(cache.capacity(), 10u);
  for (int k = 0; k < 400; ++k) {
    cache.put(k, k);  // k % 4 selects the shard: every shard saturates
  }
  EXPECT_EQ(cache.size(), 10u);

  // The aggregate bound equals the requested capacity for any split.
  for (const std::size_t shards : {1u, 2u, 3u, 4u, 7u, 16u}) {
    for (const std::size_t capacity : {1u, 5u, 10u, 16u, 17u, 100u}) {
      serve::ShardedLruCache<int, int, IdentityHash> c(capacity, shards);
      EXPECT_EQ(c.capacity(), capacity)
          << "capacity " << capacity << " shards " << shards;
    }
  }
}

TEST(ShardCache, ClearKeepsTheLifetimeCounts) {
  serve::ShardedLruCache<int, int, IdentityHash> cache(8, 2);
  cache.put(1, 10);
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_FALSE(cache.get(1).has_value());  // counts on from there
  EXPECT_EQ(cache.misses(), 2u);
}

// ----------------------------------------------------------- correctness

TEST(SelectionService, AtlasAnswersAreBitIdenticalToDirectAtlas) {
  lamb::testing::ScriptedMachine machine;
  lamb::testing::ScriptedFamily family;
  const ServiceConfig cfg = scripted_config();

  // Reference: the atlas built directly, same base/dim/config.
  const anomaly::RegionAtlas direct(family, machine, {300}, 0, cfg.atlas);

  // "scripted" is not in the global registry; register a local one.
  expr::FamilyRegistry registry;
  registry.add("scripted", "test double", [] {
    return std::make_unique<lamb::testing::ScriptedFamily>();
  });
  SelectionService scripted_service(machine, cfg, &registry);

  for (int size = 20; size <= 1200; size += 7) {
    const Recommendation rec =
        scripted_service.query(Query{"scripted", {size}, 0, false});
    const anomaly::AtlasInterval& interval = direct.lookup(size);
    EXPECT_EQ(rec.algorithm, interval.recommended) << size;
    EXPECT_EQ(rec.flop_minimal, interval.flop_minimal) << size;
    EXPECT_EQ(rec.flops_reliable, !interval.anomalous) << size;
    EXPECT_EQ(rec.time_score, interval.worst_time_score) << size;
  }
  // One slice serves the whole sweep.
  EXPECT_EQ(scripted_service.stats().atlases_built, 1u);
}

TEST(SelectionService, ExactQueriesMatchDirectClassification) {
  model::SimulatedMachine machine;
  const ServiceConfig cfg = scripted_config();
  SelectionService service(machine, cfg);
  const auto family = expr::make_family("aatb");

  for (const expr::Instance& dims :
       {expr::Instance{150, 260, 549}, expr::Instance{800, 260, 549}}) {
    const Recommendation rec =
        service.query(Query{"aatb", dims, 0, /*exact=*/true});
    const anomaly::InstanceResult direct = anomaly::classify_instance(
        *family, machine, dims, cfg.atlas.time_score_threshold);
    EXPECT_EQ(rec.algorithm, direct.fastest.front());
    EXPECT_EQ(rec.flop_minimal, direct.cheapest.front());
    EXPECT_EQ(rec.flops_reliable, !direct.anomaly);
    EXPECT_EQ(rec.time_score, direct.time_score);
    EXPECT_EQ(rec.source, Source::kMeasured);
  }
  EXPECT_EQ(service.stats().measured_queries, 2u);
  EXPECT_EQ(service.stats().atlases_built, 0u);
}

TEST(SelectionService, CachedAnswerIsIdenticalWithCacheSource) {
  model::SimulatedMachine machine;
  SelectionService service(machine, scripted_config());
  const Query q{"aatb", {150, 260, 549}, 0, false};

  const Recommendation first = service.query(q);
  EXPECT_EQ(first.source, Source::kAtlas);
  const Recommendation second = service.query(q);
  EXPECT_EQ(second.source, Source::kCache);
  EXPECT_EQ(second, first);  // payload equality ignores provenance
  EXPECT_EQ(service.stats().cache_hits, 1u);
  EXPECT_EQ(service.stats().cache_misses, 1u);
}

TEST(SelectionService, SlicesAreSharedAcrossQueriesAlongTheSameLine) {
  model::SimulatedMachine machine;
  SelectionService service(machine, scripted_config());
  for (int d0 = 100; d0 <= 1000; d0 += 100) {
    service.query(Query{"aatb", {d0, 260, 549}, 0, false});
  }
  EXPECT_EQ(service.stats().atlases_built, 1u);
  // A different dimension or a different base line is a different slice.
  service.query(Query{"aatb", {150, 260, 549}, 1, false});
  service.query(Query{"aatb", {150, 333, 549}, 0, false});
  EXPECT_EQ(service.stats().atlases_built, 3u);
  EXPECT_EQ(service.atlas_count(), 3u);
}

TEST(SelectionService, InvalidQueriesAreRejected) {
  model::SimulatedMachine machine;
  SelectionService service(machine, scripted_config());
  EXPECT_THROW(service.query(Query{"no_such_family", {100}, 0, false}),
               support::CheckError);
  EXPECT_THROW(service.query(Query{"aatb", {100, 200}, 0, false}),
               support::CheckError);  // arity
  EXPECT_THROW(service.query(Query{"aatb", {100, 200, 300}, 3, false}),
               support::CheckError);  // dim out of range
  EXPECT_THROW(service.query(Query{"aatb", {0, 200, 300}, 0, false}),
               support::CheckError);  // non-positive size
}

TEST(SelectionService, DimensionsAboveTheBoundAreRejected) {
  // At 2e9 a GEMM's 2*m*n*k overflows the long long FLOP count.
  model::SimulatedMachine machine;
  SelectionService service(machine, scripted_config());
  EXPECT_THROW(
      service.query(Query{"chain4", {100, 2000000000, 1200, 300, 400}, 0,
                          false}),
      support::CheckError);
  EXPECT_THROW(service.query(Query{"chain4",
                                   {100, expr::kMaxDimension + 1, 100, 100,
                                    100},
                                   0, true}),
               support::CheckError);
  EXPECT_NO_THROW(service.query(
      Query{"chain4", {100, expr::kMaxDimension, 100, 100, 100}, 0, true}));
}

TEST(SelectionService, BatchGroupsBoundTheScannedCoordinateLikeALoneQuery) {
  // A query that joins a published group is checked only at its scanned
  // coordinate, with the bound a lone query gets: above kMaxDimension it is
  // rejected, not clamped into the last interval, and at zero it fails
  // with the lone query's error.
  model::SimulatedMachine machine;
  SelectionService service(machine, scripted_config());
  const Query ok{"aatb", {300, 260, 549}, 0, false};
  ASSERT_EQ(service.warm({ok}), 1u);
  for (const int c : {600000, expr::kMaxDimension + 1, 0, -1}) {
    const Query bad{"aatb", {c, 260, 549}, 0, false};
    std::string lone;
    try {
      service.query(bad);
    } catch (const support::CheckError& e) {
      lone = e.what();
    }
    ASSERT_FALSE(lone.empty()) << c;
    for (const std::vector<Query>& batch :
         {std::vector<Query>{bad}, std::vector<Query>{ok, bad},
          std::vector<Query>{ok, ok, bad, ok}}) {
      try {
        service.query_batch(batch);
        ADD_FAILURE() << "batch of " << batch.size() << " answered c = " << c;
      } catch (const support::CheckError& e) {
        EXPECT_EQ(e.what(), lone) << c;
      }
    }
  }
  EXPECT_EQ(service.stats().atlases_built, 1u);
}

TEST(SelectionService, OverlongChainIsRejectedBeforeEnumerating) {
  // chain13 would enumerate 12! = 479,001,600 schedules while resolving.
  model::SimulatedMachine machine;
  SelectionService service(machine, scripted_config());
  EXPECT_THROW(service.query(Query{"chain13", std::vector<int>(14, 50), 0,
                                   false}),
               support::CheckError);
  EXPECT_EQ(service.stats().atlases_built, 0u);
}

TEST(SelectionService, ConcurrentFirstQueriesShareOneFamily) {
  // Every thread misses the family cache and builds chain7 outside the
  // lock; all of them must answer from the family that was kept.
  model::SimulatedMachine machine;
  SelectionService service(machine, scripted_config());
  const Query q{"chain7", {30, 60, 90, 40, 70, 20, 50, 80}, 0, true};
  std::vector<Recommendation> answers(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < answers.size(); ++t) {
    threads.emplace_back([&, t] { answers[t] = service.query(q); });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  const auto family = expr::make_family("chain7");
  const auto expected = anomaly::classify_instance(
      *family, machine, q.dims, scripted_config().atlas.time_score_threshold);
  for (const Recommendation& rec : answers) {
    EXPECT_EQ(rec.algorithm, expected.fastest.front());
    EXPECT_EQ(rec.flop_minimal, expected.cheapest.front());
    EXPECT_EQ(rec.time_score, expected.time_score);
  }
}

TEST(SelectionService, QueryBatchMatchesSequentialQueries) {
  model::SimulatedMachine machine;
  SelectionService reference_service(machine, scripted_config());
  SelectionService batch_service(machine, scripted_config());

  std::vector<Query> batch;
  for (int d0 = 50; d0 <= 1150; d0 += 50) {
    batch.push_back(Query{"aatb", {d0, 260, 549}, 0, false});
    batch.push_back(Query{"aatb", {80, d0, 768}, 1, false});
  }
  const auto batched = batch_service.query_batch(batch);
  ASSERT_EQ(batched.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batched[i], reference_service.query(batch[i])) << i;
  }
}

// ----------------------------------------------------------- persistence

TEST(SelectionService, CheckpointThenWarmServesIdenticalAnswersWithoutBuilds) {
  const std::string dir = temp_dir();
  model::SimulatedMachine machine;
  const ServiceConfig cfg = scripted_config();

  std::vector<Query> queries;
  for (int d0 = 100; d0 <= 1100; d0 += 200) {
    queries.push_back(Query{"aatb", {d0, 260, 549}, 0, false});
    queries.push_back(Query{"aatb", {d0, 514, 768}, 2, false});
  }

  SelectionService first(machine, cfg);
  const auto answers = first.query_batch(queries);
  store::AtlasStore atlas_store(dir);
  EXPECT_EQ(first.checkpoint(atlas_store), first.atlas_count());
  EXPECT_GT(atlas_store.size(), 0u);

  SelectionService second(machine, cfg);
  EXPECT_EQ(second.warm_from_store(atlas_store), atlas_store.size());
  const auto reloaded = second.query_batch(queries);
  ASSERT_EQ(reloaded.size(), answers.size());
  for (std::size_t i = 0; i < answers.size(); ++i) {
    EXPECT_EQ(reloaded[i], answers[i]) << i;
    EXPECT_EQ(reloaded[i].source, Source::kAtlas) << i;
  }
  // Everything came from disk: no scans in the second service.
  EXPECT_EQ(second.stats().atlases_built, 0u);
  EXPECT_EQ(second.stats().atlases_loaded, atlas_store.size());
  EXPECT_EQ(second.stats().atlas_samples, 0);
}

TEST(SelectionService, WarmFromStoreQuarantinesCorruptFilesWithoutAborting) {
  const std::string dir = temp_dir();
  model::SimulatedMachine machine;
  const ServiceConfig cfg = scripted_config();

  // Two healthy slices on disk...
  SelectionService first(machine, cfg);
  first.query_batch({Query{"aatb", {300, 260, 549}, 0, false},
                     Query{"aatb", {80, 300, 768}, 1, false}});
  store::AtlasStore atlas_store(dir);
  ASSERT_EQ(first.checkpoint(atlas_store), 2u);
  const std::vector<std::string> paths = atlas_store.list();
  ASSERT_EQ(paths.size(), 2u);

  // ...then one is truncated mid-frame (a crash without the atomic-rename
  // write), and a zero-byte straggler appears next to them.
  {
    std::ifstream in(paths.front(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 40u);
    std::ofstream out(paths.front(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  { std::ofstream zero(dir + "/0000000000000000.atlas", std::ios::binary); }

  // The healthy slice is adopted, the two bad files are quarantined with a
  // diagnostic (renamed *.corrupt + journal entry so they are not silently
  // re-read on every warm), and nothing throws.
  SelectionService second(machine, cfg);
  EXPECT_EQ(second.warm_from_store(atlas_store), 1u);
  EXPECT_EQ(second.atlas_count(), 1u);
  EXPECT_EQ(second.stats().atlases_loaded, 1u);
  EXPECT_EQ(second.stats().atlases_quarantined, 2u);
  EXPECT_EQ(second.stats().atlases_skipped, 0u);
  EXPECT_FALSE(std::filesystem::exists(paths.front()));
  EXPECT_TRUE(std::filesystem::exists(paths.front() + ".corrupt"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/quarantine.journal"));

  // Both queries still answer identically to the first service: one from
  // the adopted slice, the other rebuilt on demand behind the miss.
  for (const Query& q : {Query{"aatb", {300, 260, 549}, 0, false},
                         Query{"aatb", {80, 300, 768}, 1, false}}) {
    EXPECT_EQ(second.query(q), first.query(q));
  }
}

TEST(SelectionService, WarmFromStoreRebuildsStaleVersionRecords) {
  const std::string dir = temp_dir();
  model::SimulatedMachine machine;
  const ServiceConfig cfg = scripted_config();
  store::AtlasStore atlas_store(dir);
  const Query q{"aatb", {300, 260, 549}, 0, false};
  const std::string path = atlas_store.path_for(
      store::AtlasKey{"aatb", machine.name(), 0, q.dims, cfg.atlas});

  // A healthy version-1 record, as the flag-refined scan stored it:
  // intervals with a stored lower bound and 64-bit algorithm indices. Its
  // one interval answers algorithm 4 everywhere.
  store::ByteWriter w;
  w.str("aatb");
  w.str(machine.name());
  w.i32(0);
  w.vec_i32(q.dims);
  w.i32(cfg.atlas.lo);
  w.i32(cfg.atlas.hi);
  w.i32(cfg.atlas.coarse_step);
  w.f64(cfg.atlas.time_score_threshold);
  w.i64(31);
  w.u32(1);
  w.i32(cfg.atlas.lo);
  w.i32(cfg.atlas.hi);
  w.boolean(true);
  w.u64(4);
  w.u64(4);
  w.f64(0.5);
  store::write_file(path, store::kKindAtlas, 1, w.bytes());
  EXPECT_THROW(store::load_atlas(path), store::StaleRecordError);

  // Stale, not corrupt: skipped and counted, left in place, not
  // quarantined.
  SelectionService service(machine, cfg);
  EXPECT_EQ(service.warm_from_store(atlas_store), 0u);
  EXPECT_EQ(service.stats().atlases_skipped, 1u);
  EXPECT_EQ(service.stats().atlases_quarantined, 0u);
  EXPECT_EQ(service.stats().atlases_loaded, 0u);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".corrupt"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/quarantine.journal"));

  // Rebuilt on first query: the answer is the current scan's.
  const auto family = expr::make_family("aatb");
  const anomaly::RegionAtlas direct(*family, machine, q.dims, 0, cfg.atlas);
  const anomaly::AtlasInterval& want = direct.lookup(300);
  const Recommendation rec = service.query(q);
  EXPECT_EQ(rec.algorithm, want.recommended);
  EXPECT_EQ(rec.flop_minimal, want.flop_minimal);
  EXPECT_EQ(rec.flops_reliable, !want.anomalous);
  EXPECT_EQ(service.stats().atlases_built, 1u);

  // The next checkpoint overwrites the stale record, which a fresh service
  // then adopts.
  EXPECT_EQ(service.checkpoint(atlas_store), 1u);
  EXPECT_EQ(atlas_store.list(), std::vector<std::string>{path});
  EXPECT_EQ(store::load_atlas(path).atlas.to_csv(), direct.to_csv());
  SelectionService again(machine, cfg);
  EXPECT_EQ(again.warm_from_store(atlas_store), 1u);
  EXPECT_EQ(again.stats().atlases_skipped, 0u);
  EXPECT_EQ(again.query(q), rec);
}

TEST(SelectionService, WarmFromStoreSkipsForeignRecords) {
  const std::string dir = temp_dir();
  store::AtlasStore atlas_store(dir);
  model::SimulatedMachine machine;
  const ServiceConfig cfg = scripted_config();

  // A record for a different machine model.
  lamb::testing::ScriptedFamily family;
  lamb::testing::ScriptedMachine scripted;
  const anomaly::RegionAtlas foreign(family, scripted, {300}, 0, cfg.atlas);
  atlas_store.save(
      store::AtlasKey{"scripted", scripted.name(), 0, {300}, cfg.atlas},
      foreign);
  // A record on this machine under a name no registry accepts, which no
  // slice key can hold.
  atlas_store.save(
      store::AtlasKey{std::string(expr::kMaxFamilyName + 1, 's'),
                      machine.name(), 0, {300}, cfg.atlas},
      foreign);

  SelectionService service(machine, cfg);
  EXPECT_EQ(service.warm_from_store(atlas_store), 0u);
  EXPECT_EQ(service.atlas_count(), 0u);
  EXPECT_EQ(service.stats().atlases_quarantined, 0u);
}

TEST(SelectionService, WarmFromStoreSkipsRecordsTheServiceCannotServe) {
  // Records on this machine and scan config that no query of this service
  // could have built: a family the registry does not make, a base of the
  // wrong arity, and fixed coordinates out of [1, kMaxDimension]. Adopting
  // them would publish slices the warm path trusts, and every later
  // refresh_slices() would fail on the unknown family.
  const std::string dir = temp_dir();
  store::AtlasStore atlas_store(dir);
  model::SimulatedMachine machine;
  const ServiceConfig cfg = scripted_config();
  const Query good{"aatb", {300, 260, 549}, 0, false};
  {
    SelectionService first(machine, cfg);
    first.warm({good});
    ASSERT_EQ(first.checkpoint(atlas_store), 1u);
  }
  const auto save = [&](const std::string& family, expr::Instance base) {
    const anomaly::AtlasInterval everywhere{cfg.atlas.hi, false, 0, 0, 0.0};
    const anomaly::RegionAtlas atlas(base, 0, cfg.atlas, {everywhere}, 1);
    atlas_store.save(
        store::AtlasKey{family, machine.name(), 0, base, cfg.atlas}, atlas);
  };
  save("nosuch", {0, 260, 549});
  save("aatb", {0, 260});
  save("aatb", {0, 0, 549});
  save("aatb", {0, 260, expr::kMaxDimension + 1});
  ASSERT_EQ(atlas_store.size(), 5u);

  SelectionService service(machine, cfg);
  EXPECT_EQ(service.warm_from_store(atlas_store), 1u);
  EXPECT_EQ(service.atlas_count(), 1u);
  EXPECT_EQ(service.stats().atlases_quarantined, 0u);
  EXPECT_EQ(atlas_store.size(), 5u);  // skipped records stay on disk
  EXPECT_EQ(service.refresh_slices(), 1u);
  EXPECT_EQ(service.refresh_slices(), 1u);
  EXPECT_THROW(service.query(Query{"aatb", {300, 0, 549}, 0, false}),
               support::CheckError);
  EXPECT_EQ(service.query(good).source, Source::kAtlas);
  EXPECT_EQ(service.stats().slices_refreshed, 2u);
}

TEST(SelectionService, RefreshLowersNoCounter) {
  // /metrics exports these as counters, so a scrape taken after a refresh
  // must read none of them lower than one taken before it.
  model::SimulatedMachine machine;
  SelectionService service(machine, scripted_config());
  const Query q{"aatb", {150, 260, 549}, 0, false};
  service.query(q);  // miss, build
  service.query(q);  // hit
  const serve::ServiceStats before = service.stats();
  ASSERT_EQ(before.cache_hits, 1u);
  ASSERT_EQ(before.cache_misses, 1u);
  ASSERT_EQ(service.refresh_slices(), 1u);
  const serve::ServiceStats after = service.stats();
  using Count = std::uint64_t serve::ServiceStats::*;
  for (const auto& [name, count] : std::initializer_list<
           std::pair<const char*, Count>>{
           {"cache_hits", &serve::ServiceStats::cache_hits},
           {"cache_misses", &serve::ServiceStats::cache_misses},
           {"atlases_built", &serve::ServiceStats::atlases_built},
           {"cache_answers", &serve::ServiceStats::cache_answers},
           {"atlas_answers", &serve::ServiceStats::atlas_answers},
           {"slices_refreshed", &serve::ServiceStats::slices_refreshed},
           {"refresh_rounds", &serve::ServiceStats::refresh_rounds}}) {
    EXPECT_GE(after.*count, before.*count) << name;
  }
  EXPECT_GE(after.atlas_samples, before.atlas_samples);
  // The refresh emptied the cache, and the counts go on from their totals.
  EXPECT_EQ(service.query(q).source, Source::kAtlas);
  EXPECT_EQ(service.stats().cache_misses, 2u);
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

TEST(SelectionService, RefreshRoundsFreeTheAtlasesTheyReplace) {
  // A server that refreshes on every drift alarm must hold one generation
  // of atlases, not one per round. With one build thread every allocation
  // is made and freed on this thread, and a round builds the same atlases
  // as the round before it; so once the first round has run, each later
  // round ends with the live heap it started with.
  ServiceConfig cfg = scripted_config();
  cfg.threads = 1;
  model::SimulatedMachine machine;
  SelectionService service(machine, cfg);
  std::vector<Query> lines;
  for (int line = 0; line < 12; ++line) {
    lines.push_back(Query{"aatb", {150, 260 + 40 * line, 549}, 0, false});
  }
  ASSERT_EQ(service.warm(lines), lines.size());
  ASSERT_EQ(service.refresh_slices(), lines.size());
  const std::int64_t live = lamb::testing::thread_live_blocks();
  for (int round = 1; round < 50; ++round) {
    ASSERT_EQ(service.refresh_slices(), lines.size());
  }
  EXPECT_EQ(lamb::testing::thread_live_blocks(), live);
}

TEST(SelectionService, CheckpointRacingBuildsAndARefreshRestoresEverySlice) {
  // Two threads cold-query distinct slices while a third checkpoints over
  // and over and a fourth refreshes. Each checkpoint copies the published
  // slices under the slice map's lock and writes them outside it, so every
  // record it writes is whole. Afterwards one more checkpoint restores every
  // slice into a fresh service, which answers like the busy one without
  // building.
  model::SimulatedMachine machine;
  const ServiceConfig cfg = scripted_config();
  const std::string racing_dir = temp_dir();
  const std::string final_dir = temp_dir();
  SelectionService service(machine, cfg);
  ASSERT_EQ(service.warm({Query{"aatb", {150, 260, 549}, 0, false}}), 1u);

  std::vector<Query> cold;  // one query per slice, none published yet
  for (int line = 0; line < 8; ++line) {
    cold.push_back(Query{"aatb", {150, 300 + 50 * line, 549}, 0, false});
    cold.push_back(Query{"aatb", {80, 300 + 50 * line, 768}, 2, false});
  }
  const std::size_t slices = 1 + cold.size();

  store::AtlasStore racing_store(racing_dir);
  std::atomic<int> busy{3};  // the two askers and the refresher
  std::atomic<int> checkpoints{0};
  std::size_t refreshed = 0;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < cold.size(); i += 2) {
        EXPECT_EQ(service.query(cold[i]).source, Source::kAtlas) << i;
      }
      busy.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    refreshed = service.refresh_slices();
    busy.fetch_sub(1);
  });
  threads.emplace_back([&] {
    do {
      const std::size_t written = service.checkpoint(racing_store);
      EXPECT_GE(written, 1u);
      EXPECT_LE(written, slices);
      checkpoints.fetch_add(1);
    } while (busy.load() > 0);
  });
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_GE(checkpoints.load(), 1);
  EXPECT_GE(refreshed, 1u);
  ASSERT_EQ(service.atlas_count(), slices);

  // Every record written during the race loads.
  SelectionService racing_reader(machine, cfg);
  EXPECT_EQ(racing_reader.warm_from_store(racing_store), racing_store.size());
  EXPECT_EQ(racing_reader.stats().atlases_quarantined, 0u);

  store::AtlasStore final_store(final_dir);
  EXPECT_EQ(service.checkpoint(final_store), slices);
  SelectionService restored(machine, cfg);
  EXPECT_EQ(restored.warm_from_store(final_store), slices);
  EXPECT_EQ(restored.atlas_count(), slices);
  for (const Query& q : cold) {
    for (const int c : {25, 333, 1190}) {
      Query sample = q;
      sample.dims[static_cast<std::size_t>(q.dim)] = c;
      EXPECT_EQ(restored.query(sample), service.query(sample));
    }
  }
  EXPECT_EQ(restored.stats().atlases_built, 0u);
}

// ----------------------------------------------------------- concurrency

TEST(SelectionService, ConcurrentQueriesMatchUncachedClassification) {
  model::SimulatedMachine machine;
  ServiceConfig cfg = scripted_config();
  cfg.cache_capacity = 256;  // small enough to force eviction + rebuild hits
  SelectionService service(machine, cfg);

  // Reference answers computed serially from directly-built atlases.
  const auto family = expr::make_family("aatb");
  const anomaly::RegionAtlas direct_d0(*family, machine, {1, 260, 549}, 0,
                                       cfg.atlas);
  const anomaly::RegionAtlas direct_d1(*family, machine, {80, 1, 768}, 1,
                                       cfg.atlas);

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 200;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        // Deterministic per-thread walk over both slices.
        const int size = 20 + ((t * 131 + i * 17) % 1181);
        const bool along_d0 = (t + i) % 2 == 0;
        const Query q = along_d0
                            ? Query{"aatb", {size, 260, 549}, 0, false}
                            : Query{"aatb", {80, size, 768}, 1, false};
        const Recommendation rec = service.query(q);
        const anomaly::AtlasInterval& want =
            (along_d0 ? direct_d0 : direct_d1).lookup(size);
        if (rec.algorithm != want.recommended ||
            rec.flop_minimal != want.flop_minimal ||
            rec.flops_reliable != !want.anomalous ||
            rec.time_score != want.worst_time_score) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  // The two slices were each built exactly once despite the stampede.
  EXPECT_EQ(service.stats().atlases_built, 2u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.cache_hits + stats.cache_misses,
            static_cast<std::uint64_t>(kThreads) * kQueriesPerThread);
}

TEST(SelectionService, ConcurrentBatchesAreBitIdenticalToDirectAtlases) {
  model::SimulatedMachine machine;
  SelectionService service(machine, scripted_config());
  const ServiceConfig cfg = scripted_config();

  // Reference answers from directly-built atlases, computed serially.
  const auto family = expr::make_family("aatb");
  const anomaly::RegionAtlas direct_d0(*family, machine, {1, 260, 549}, 0,
                                       cfg.atlas);
  const anomaly::RegionAtlas direct_d1(*family, machine, {80, 1, 768}, 1,
                                       cfg.atlas);

  constexpr int kThreads = 8;
  constexpr int kRounds = 25;
  constexpr int kBatch = 64;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<Query> batch;
        batch.reserve(kBatch);
        for (int i = 0; i < kBatch; ++i) {
          const int size = 20 + ((t * 311 + round * 97 + i * 17) % 1181);
          const bool along_d0 = (t + round + i) % 2 == 0;
          batch.push_back(along_d0
                              ? Query{"aatb", {size, 260, 549}, 0, false}
                              : Query{"aatb", {80, size, 768}, 1, false});
        }
        const auto recs = service.query_batch(batch);
        for (int i = 0; i < kBatch; ++i) {
          const int size =
              batch[static_cast<std::size_t>(i)]
                  .dims[static_cast<std::size_t>(
                      batch[static_cast<std::size_t>(i)].dim)];
          const anomaly::AtlasInterval& want =
              (batch[static_cast<std::size_t>(i)].dim == 0 ? direct_d0
                                                           : direct_d1)
                  .lookup(size);
          const Recommendation& rec = recs[static_cast<std::size_t>(i)];
          if (rec.algorithm != want.recommended ||
              rec.flop_minimal != want.flop_minimal ||
              rec.flops_reliable != !want.anomalous ||
              rec.time_score != want.worst_time_score) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  // Both slices were built exactly once despite 8 racing batch callers.
  EXPECT_EQ(service.stats().atlases_built, 2u);
}

TEST(SelectionService, ConcurrentMixedSingleBatchAndAsyncCallersAgree) {
  model::SimulatedMachine machine;
  ServiceConfig cfg = scripted_config();
  cfg.cache_capacity = 128;  // force eviction churn alongside the builds
  SelectionService service(machine, cfg);

  const auto family = expr::make_family("aatb");
  const anomaly::RegionAtlas direct(*family, machine, {1, 260, 549}, 0,
                                    cfg.atlas);
  const auto check = [&](int size, const Recommendation& rec) {
    const anomaly::AtlasInterval& want = direct.lookup(size);
    return rec.algorithm == want.recommended &&
           rec.flop_minimal == want.flop_minimal &&
           rec.flops_reliable == !want.anomalous &&
           rec.time_score == want.worst_time_score;
  };

  constexpr int kThreads = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 60; ++i) {
        const int size = 20 + ((t * 131 + i * 29) % 1181);
        const Query q{"aatb", {size, 260, 549}, 0, false};
        switch ((t + i) % 3) {
          case 0: {
            if (!check(size, service.query(q))) {
              mismatches.fetch_add(1);
            }
            break;
          }
          case 1: {
            const auto recs = service.query_batch({q, q});
            if (!check(size, recs[0]) || !check(size, recs[1])) {
              mismatches.fetch_add(1);
            }
            break;
          }
          default: {
            if (!check(size, service.query_async(q).get())) {
              mismatches.fetch_add(1);
            }
            break;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(service.stats().atlases_built, 1u);
}

// Full-capture tracing under the same 8-thread mixed workload: every
// operation runs under its own synthetic root span, and afterwards every
// recorded span must belong to a known trace and form a well-formed tree —
// exactly one root, every parent id resolvable within the trace, and every
// child's interval nested inside its parent's (the timestamps are globally
// ordered, so this holds across ThreadPool slice builds and the async
// worker too). The ring is sized to retain everything; the wraparound /
// torn-read behaviour is obs_test's job.
TEST(SelectionService, TracedMixedStressYieldsWellFormedSpanTrees) {
  model::SimulatedMachine machine;
  ServiceConfig cfg = scripted_config();
  cfg.cache_capacity = 128;
  SelectionService service(machine, cfg);

  obs::Tracer& tracer = obs::tracer();
  obs::TracerConfig tc;
  tc.enabled = true;
  tc.sample_every = 1;       // capture every operation
  tc.ring_capacity = 65536;  // large enough that nothing is overwritten
  tracer.configure(tc);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 40;
  std::mutex ids_mutex;
  std::set<std::uint64_t> known_traces;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::set<std::uint64_t> local;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int size = 20 + ((t * 131 + i * 29) % 1181);
        const Query q{"aatb", {size, 260, 549}, 0, false};
        obs::RequestTrace trace = tracer.begin_request("stress");
        {
          const obs::ContextGuard guard(trace.ctx);
          switch ((t + i) % 3) {
            case 0:
              service.query(q);
              break;
            case 1:
              service.query_batch({q, q});
              break;
            default:
              // get() before end_request: the worker's spans for this
              // trace are all pushed before the future resolves.
              service.query_async(q).get();
              break;
          }
        }
        tracer.end_request(trace);
        local.insert(trace.ctx.trace_id);
      }
      const std::lock_guard<std::mutex> lock(ids_mutex);
      known_traces.insert(local.begin(), local.end());
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  tracer.set_enabled(false);  // quiesce before scanning

  std::map<std::uint64_t, std::vector<obs::SpanRecord>> by_trace;
  for (const obs::SpanRecord& span : tracer.recent_spans()) {
    ASSERT_TRUE(known_traces.count(span.trace_id))
        << "span from unknown trace " << span.trace_id;
    by_trace[span.trace_id].push_back(span);
  }
  ASSERT_EQ(by_trace.size(),
            static_cast<std::size_t>(kThreads) * kOpsPerThread);

  for (const auto& [trace_id, spans] : by_trace) {
    std::map<std::uint32_t, obs::SpanRecord> by_id;
    std::size_t roots = 0;
    for (const obs::SpanRecord& span : spans) {
      ASSERT_TRUE(by_id.emplace(span.span_id, span).second)
          << "duplicate span id in trace " << trace_id;
      if (span.parent_id == 0) {
        ++roots;
        EXPECT_EQ(span.stage, obs::Stage::kRequest);
      }
    }
    EXPECT_EQ(roots, 1u) << "trace " << trace_id;
    for (const obs::SpanRecord& span : spans) {
      ASSERT_LE(span.t_start_ns, span.t_end_ns);
      if (span.parent_id == 0) {
        continue;
      }
      const auto parent = by_id.find(span.parent_id);
      ASSERT_NE(parent, by_id.end())
          << "orphan span " << span.span_id << " in trace " << trace_id;
      EXPECT_GE(span.t_start_ns, parent->second.t_start_ns);
      EXPECT_LE(span.t_end_ns, parent->second.t_end_ns);
    }
  }

  // Restore the process-wide default for the rest of the suite.
  obs::TracerConfig off;
  off.enabled = false;
  tracer.configure(off);
}

// ------------------------------------------------------ batch edge cases

TEST(SelectionService, EmptyBatchIsAnEmptyAnswer) {
  model::SimulatedMachine machine;
  SelectionService service(machine, scripted_config());
  EXPECT_TRUE(service.query_batch(std::vector<Query>{}).empty());
  EXPECT_EQ(service.warm(std::vector<Query>{}), 0u);
  EXPECT_EQ(service.stats().atlases_built, 0u);
  EXPECT_EQ(service.stats().cache_misses, 0u);
}

TEST(SelectionService, AllDuplicateBatchBuildsOnceAndAgreesWithSingleQuery) {
  model::SimulatedMachine machine;
  SelectionService batch_service(machine, scripted_config());
  SelectionService reference_service(machine, scripted_config());

  const Query q{"aatb", {300, 260, 549}, 0, false};
  const std::vector<Query> batch(512, q);
  const auto recs = batch_service.query_batch(batch);
  ASSERT_EQ(recs.size(), batch.size());
  const Recommendation want = reference_service.query(q);
  for (const Recommendation& rec : recs) {
    EXPECT_EQ(rec, want);
    EXPECT_EQ(rec.source, Source::kAtlas);
  }
  EXPECT_EQ(batch_service.stats().atlases_built, 1u);
}

TEST(SelectionService, MixedExactAndAtlasBatchMatchesSequentialQueries) {
  model::SimulatedMachine machine;
  SelectionService batch_service(machine, scripted_config());
  SelectionService reference_service(machine, scripted_config());

  std::vector<Query> batch;
  for (int d0 = 100; d0 <= 900; d0 += 100) {
    batch.push_back(Query{"aatb", {d0, 260, 549}, 0, false});
    batch.push_back(Query{"aatb", {d0, 260, 549}, 0, /*exact=*/true});
    batch.push_back(Query{"aatb", {d0, 260, 549}, 0, false});  // duplicate
  }
  const auto batched = batch_service.query_batch(batch);
  ASSERT_EQ(batched.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batched[i], reference_service.query(batch[i])) << i;
  }
}

TEST(SelectionService, QueryBatchPropagatesSliceBuildFailure) {
  lamb::testing::ScriptedMachine machine;
  const expr::FamilyRegistry registry = test_registry();
  SelectionService service(machine, scripted_config(), &registry);

  const std::vector<Query> batch{Query{"boom", {100}, 0, false},
                                 Query{"scripted", {100}, 0, false}};
  EXPECT_THROW(service.query_batch(batch), std::runtime_error);

  // The failure is not sticky: the healthy slice still answers, and a
  // retried boom build fails afresh instead of wedging the service.
  const Recommendation rec = service.query(Query{"scripted", {100}, 0, false});
  EXPECT_EQ(rec.source, Source::kAtlas);
  EXPECT_THROW(service.query(Query{"boom", {100}, 0, false}),
               std::runtime_error);
}

TEST(SelectionService, LargeSingleSliceBatchMatchesTheDirectAtlas) {
  lamb::testing::ScriptedMachine machine;
  const expr::FamilyRegistry registry = test_registry();
  ServiceConfig cfg = scripted_config();
  cfg.threads = 4;
  SelectionService service(machine, cfg, &registry);

  lamb::testing::ScriptedFamily family;
  const anomaly::RegionAtlas direct(family, machine, {1}, 0, cfg.atlas);

  std::vector<Query> batch;
  batch.reserve(5000);
  for (int i = 0; i < 5000; ++i) {
    batch.push_back(Query{"scripted", {20 + (i * 13) % 1181}, 0, false});
  }
  const auto recs = service.query_batch(batch);
  ASSERT_EQ(recs.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const anomaly::AtlasInterval& want = direct.lookup(batch[i].dims[0]);
    ASSERT_EQ(recs[i].algorithm, want.recommended) << i;
    ASSERT_EQ(recs[i].flop_minimal, want.flop_minimal) << i;
    ASSERT_EQ(recs[i].flops_reliable, !want.anomalous) << i;
    ASSERT_EQ(recs[i].time_score, want.worst_time_score) << i;
  }
  EXPECT_EQ(service.stats().atlases_built, 1u);
}

// ------------------------------------------------------------------ async

TEST(SelectionService, AsyncAnswersMatchSyncAndDeduplicateBuilds) {
  model::SimulatedMachine machine;
  SelectionService async_service(machine, scripted_config());
  SelectionService reference_service(machine, scripted_config());

  // Flood the queue before anything is built: one slice, many waiters.
  std::vector<Query> queries;
  std::vector<std::future<Recommendation>> futures;
  for (int d0 = 50; d0 <= 1150; d0 += 25) {
    queries.push_back(Query{"aatb", {d0, 260, 549}, 0, false});
    futures.push_back(async_service.query_async(queries.back()));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get(), reference_service.query(queries[i])) << i;
  }
  EXPECT_EQ(async_service.stats().atlases_built, 1u);

  // Warm slices and cache hits resolve without touching the queue again.
  auto warm_future = async_service.query_async(queries.front());
  const Recommendation warm_rec = warm_future.get();
  EXPECT_EQ(warm_rec, reference_service.query(queries.front()));
  EXPECT_EQ(async_service.stats().atlases_built, 1u);
}

TEST(SelectionService, AsyncExactQueriesMatchDirectClassification) {
  model::SimulatedMachine machine;
  const ServiceConfig cfg = scripted_config();
  SelectionService service(machine, cfg);
  const auto family = expr::make_family("aatb");

  const Query q{"aatb", {150, 260, 549}, 0, /*exact=*/true};
  Recommendation rec = service.query_async(q).get();
  const anomaly::InstanceResult direct = anomaly::classify_instance(
      *family, machine, q.dims, cfg.atlas.time_score_threshold);
  EXPECT_EQ(rec.algorithm, direct.fastest.front());
  EXPECT_EQ(rec.flop_minimal, direct.cheapest.front());
  EXPECT_EQ(rec.flops_reliable, !direct.anomaly);
  EXPECT_EQ(rec.time_score, direct.time_score);
  EXPECT_EQ(rec.source, Source::kMeasured);
  // A repeat is a cache hit and never re-measures.
  EXPECT_EQ(service.query_async(q).get().source, Source::kCache);
  EXPECT_EQ(service.stats().measured_queries, 1u);
}

TEST(SelectionService, AsyncBuildFailureFailsTheFuturesNotTheService) {
  lamb::testing::ScriptedMachine machine;
  const expr::FamilyRegistry registry = test_registry();
  SelectionService service(machine, scripted_config(), &registry);

  auto bad_a = service.query_async(Query{"boom", {100}, 0, false});
  auto bad_b = service.query_async(Query{"boom", {200}, 0, false});
  EXPECT_THROW(bad_a.get(), std::runtime_error);
  EXPECT_THROW(bad_b.get(), std::runtime_error);
  // Invalid queries fail synchronously, exactly like query().
  EXPECT_THROW(service.query_async(Query{"scripted", {100, 5}, 0, false}),
               support::CheckError);
  // The service is still healthy.
  EXPECT_EQ(service.query_async(Query{"scripted", {100}, 0, false})
                .get()
                .source,
            Source::kAtlas);
}

// ------------------------------------------------------------- slice map

TEST(SelectionService, PublishedAtlasPointersSurviveLaterSnapshotSwaps) {
  model::SimulatedMachine machine;
  SelectionService service(machine, scripted_config());
  const Query first{"aatb", {150, 260, 549}, 0, false};
  service.query(first);
  const anomaly::RegionAtlas* before = service.atlas_for(first);
  ASSERT_NE(before, nullptr);
  const std::string csv_before = before->to_csv();

  // Each new slice is inserted into the slice map; the earlier atlas must
  // keep its identity and contents (atlas_for pointers stay valid until a
  // refresh).
  for (int d1 = 300; d1 <= 800; d1 += 100) {
    service.query(Query{"aatb", {150, d1, 549}, 0, false});
  }
  const anomaly::RegionAtlas* after = service.atlas_for(first);
  EXPECT_EQ(before, after);
  EXPECT_EQ(after->to_csv(), csv_before);
}

TEST(SelectionService, WarmBatchBuildsOnThePoolBitIdenticalToSerial) {
  model::SimulatedMachine machine;
  ServiceConfig parallel_cfg = scripted_config();
  parallel_cfg.threads = 4;
  ServiceConfig serial_cfg = scripted_config();
  serial_cfg.threads = 1;

  std::vector<Query> queries;
  for (int line = 0; line < 6; ++line) {
    queries.push_back(
        Query{"aatb", {150, 200 + 60 * line, 549}, 0, false});
  }

  SelectionService parallel_service(machine, parallel_cfg);
  SelectionService serial_service(machine, serial_cfg);
  EXPECT_EQ(parallel_service.warm(queries), queries.size());
  EXPECT_EQ(serial_service.warm(queries), queries.size());
  // Warming again is a no-op.
  EXPECT_EQ(parallel_service.warm(queries), 0u);

  for (const Query& q : queries) {
    const anomaly::RegionAtlas* a = parallel_service.atlas_for(q);
    const anomaly::RegionAtlas* b = serial_service.atlas_for(q);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->to_csv(), b->to_csv());
    EXPECT_EQ(a->samples_used(), b->samples_used());
  }
}

// ----------------------------------------------------------- differential

/// A simulator stream over four registry families and two scanned
/// dimensions: dozens of slices, locality sweeps, 16-query batch sweeps and
/// exact single queries.
sim::TraceSpec differential_trace() {
  sim::PhaseSpec sweep;
  sweep.name = "sweep";
  sweep.duration = 0.5;
  sweep.rate = 400.0;
  sweep.families = {{"aatb", 1.0}, {"chain4", 1.0}, {"gram", 1.0},
                    {"aatbc", 1.0}};
  sweep.bases = 4;
  sweep.batch_fraction = 0.15;
  sweep.batch_size = 16;
  sweep.exact_fraction = 0.1;
  sweep.locality = 0.8;
  sweep.locality_step = 7;
  sim::PhaseSpec cross = sweep;
  cross.name = "cross";
  cross.dim = 1;
  cross.bases = 3;
  cross.locality = 0.3;
  cross.exact_fraction = 0.2;
  return sim::TraceSpec{{sweep, cross}};
}

/// The answer each query should get, computed without the service:
/// RegionAtlas::lookup on an atlas built directly for the query's slice, or
/// classify_instance for exact queries.
class DirectOracle {
 public:
  DirectOracle(model::MachineModel& machine, anomaly::AtlasConfig config)
      : machine_(machine), config_(config) {}

  Recommendation want(const Query& q) {
    std::unique_ptr<expr::ExpressionFamily>& slot = families_[q.family];
    if (slot == nullptr) {
      slot = expr::make_family(q.family);
    }
    const expr::ExpressionFamily& family = *slot;
    Recommendation rec;
    if (q.exact) {
      const anomaly::InstanceResult r = anomaly::classify_instance(
          family, machine_, q.dims, config_.time_score_threshold);
      rec.algorithm = r.fastest.front();
      rec.flop_minimal = r.cheapest.front();
      rec.flops_reliable = !r.anomaly;
      rec.time_score = r.time_score;
      return rec;
    }
    expr::Instance base = q.dims;
    base[static_cast<std::size_t>(q.dim)] = 0;
    auto [it, inserted] = atlases_.try_emplace({q.family, q.dim, base});
    if (inserted) {
      it->second = std::make_unique<anomaly::RegionAtlas>(
          family, machine_, base, q.dim, config_);
    }
    const anomaly::AtlasInterval& interval =
        it->second->lookup(q.dims[static_cast<std::size_t>(q.dim)]);
    rec.algorithm = interval.recommended;
    rec.flop_minimal = interval.flop_minimal;
    rec.flops_reliable = !interval.anomalous;
    rec.time_score = interval.worst_time_score;
    return rec;
  }

  std::size_t slices() const { return atlases_.size(); }

 private:
  model::MachineModel& machine_;
  anomaly::AtlasConfig config_;
  std::map<std::string, std::unique_ptr<expr::ExpressionFamily>> families_;
  std::map<std::tuple<std::string, int, expr::Instance>,
           std::unique_ptr<anomaly::RegionAtlas>>
      atlases_;
};

enum class EntryPoint {
  kQuery,
  kWarmThenAsync,
  kBatch,
  kAsync,
  kWarmed,
  kHttp
};

const char* entry_point_name(EntryPoint entry) {
  switch (entry) {
    case EntryPoint::kQuery:
      return "query";
    case EntryPoint::kWarmThenAsync:
      return "try_warm+query_async";
    case EntryPoint::kBatch:
      return "query_batch";
    case EntryPoint::kAsync:
      return "query_async";
    case EntryPoint::kWarmed:
      return "warm+query";
    case EntryPoint::kHttp:
      return "http (2 loops)";
  }
  return "?";
}

/// The service behind a net::Server with two event loops and two client
/// connections, one per loop (the acceptor hands connections out round
/// robin). Requests alternate between the connections: single queries go
/// to /v1/query, batches to /v1/batch.
class HttpFront {
 public:
  explicit HttpFront(SelectionService& service)
      : routes_(service), server_(routes_.router(), two_loops()) {
    // The listener exists before run(), so the connects succeed already.
    net::ClientConfig client_cfg;
    client_cfg.io_timeout_s = 120.0;  // a wedged server fails, not hangs
    for (int c = 0; c < 2; ++c) {
      clients_.emplace_back("127.0.0.1", server_.port(), client_cfg);
    }
    loop_ = std::thread([this] { server_.run(); });
  }
  ~HttpFront() {
    server_.stop();
    loop_.join();
  }

  HttpFront(const HttpFront&) = delete;
  HttpFront& operator=(const HttpFront&) = delete;

  /// One answer per query of `req`; a failed request answers fallbacks,
  /// which the oracle comparison rejects.
  std::vector<Recommendation> answer(const sim::Request& req) {
    net::Client& client = clients_[next_];
    next_ = (next_ + 1) % clients_.size();
    std::string body;
    for (const Query& q : req.queries) {
      body += sim::format_query_line(q);
      body += '\n';
    }
    const net::ResponseParser::Parsed response =
        client.request("POST", req.batch ? "/v1/batch" : "/v1/query", body);
    std::vector<Recommendation> out;
    if (response.status == 200) {
      std::size_t pos = 0;
      while (pos < response.body.size()) {
        const std::size_t eol = response.body.find('\n', pos);
        out.push_back(net::parse_recommendation(
            std::string_view(response.body).substr(pos, eol - pos)));
        pos = eol == std::string::npos ? response.body.size() : eol + 1;
      }
      EXPECT_EQ(out.size(), req.queries.size()) << response.body;
    } else {
      ADD_FAILURE() << "HTTP " << response.status << ": " << response.body;
    }
    Recommendation failed;
    failed.source = Source::kFallback;
    out.resize(req.queries.size(), failed);
    return out;
  }

  void expect_every_loop_served() const {
    for (std::size_t loop = 0; loop < server_.loops(); ++loop) {
      EXPECT_GT(server_.loop_stats(loop).requests_total.load(), 0u)
          << "loop " << loop;
    }
  }

 private:
  static net::ServerConfig two_loops() {
    net::ServerConfig cfg;
    cfg.loops = 2;
    cfg.listen = net::ServerConfig::Listen::kAcceptor;
    return cfg;
  }

  net::SelectionRoutes routes_;
  net::Server server_;
  std::thread loop_;
  std::vector<net::Client> clients_;
  std::size_t next_ = 0;
};

/// Answers the whole stream through one entry point, one answer per query
/// in stream order. query_async submits the entire stream before waiting,
/// so its build buckets collect many waiters; kWarmed answers through
/// query() on a service the caller has warmed.
std::vector<Recommendation> answer_stream(
    SelectionService& service, EntryPoint entry,
    const std::vector<sim::Request>& requests) {
  std::vector<Recommendation> out;
  std::vector<std::future<Recommendation>> pending;
  std::optional<HttpFront> http;
  if (entry == EntryPoint::kHttp) {
    http.emplace(service);
  }
  for (const sim::Request& req : requests) {
    switch (entry) {
      case EntryPoint::kQuery:
      case EntryPoint::kWarmed:
        for (const Query& q : req.queries) {
          out.push_back(service.query(q));
        }
        break;
      case EntryPoint::kWarmThenAsync:  // the /v1/query route's sequence
        for (const Query& q : req.queries) {
          Recommendation rec;
          if (!service.try_warm(q, rec)) {
            rec = service.query_async(q).get();
          }
          out.push_back(rec);
        }
        break;
      case EntryPoint::kBatch:
        for (const Recommendation& rec : service.query_batch(req.queries)) {
          out.push_back(rec);
        }
        break;
      case EntryPoint::kAsync:
        for (const Query& q : req.queries) {
          pending.push_back(service.query_async(q));
        }
        break;
      case EntryPoint::kHttp:
        for (const Recommendation& rec : http->answer(req)) {
          out.push_back(rec);
        }
        break;
    }
  }
  for (std::future<Recommendation>& fut : pending) {
    out.push_back(fut.get());
  }
  if (http) {
    http->expect_every_loop_served();
  }
  return out;
}

TEST(SelectionService, EveryEntryPointAnswersASimulatedStreamLikeTheOracle) {
  model::SimulatedMachine machine;
  // The default LRU holds the whole stream; a 64-entry one evicts all along.
  ServiceConfig evicting = scripted_config();
  evicting.cache_capacity = 64;
  evicting.cache_shards = 4;
  const std::vector<std::pair<std::string, ServiceConfig>> configs = {
      {"", scripted_config()}, {" (64-entry LRU)", evicting}};
  const std::vector<sim::Request> requests =
      sim::TraceGenerator(differential_trace(), 7).generate();

  std::vector<Query> queries;
  for (const sim::Request& req : requests) {
    queries.insert(queries.end(), req.queries.begin(), req.queries.end());
  }
  DirectOracle oracle(machine, scripted_config().atlas);
  std::vector<Recommendation> want;
  std::size_t exact = 0;
  for (const Query& q : queries) {
    want.push_back(oracle.want(q));
    exact += q.exact ? 1 : 0;
  }
  ASSERT_GE(oracle.slices(), 24u);
  ASSERT_GE(exact, 10u);
  ASSERT_TRUE(std::any_of(requests.begin(), requests.end(),
                          [](const sim::Request& r) { return r.batch; }));
  const std::set<std::tuple<std::string, expr::Instance, int, bool>> distinct =
      [&] {
        std::set<std::tuple<std::string, expr::Instance, int, bool>> out;
        for (const Query& q : queries) {
          out.emplace(q.family, q.dims, q.dim, q.exact);
        }
        return out;
      }();
  ASSERT_GT(distinct.size(), 4 * evicting.cache_capacity);

  for (const auto& [config_label, cfg] : configs) {
    for (const bool armed : {false, true}) {
      // Armed but quiet: every fault site on the build and HTTP paths takes
      // the armed branch, and none may fire or change an answer.
      std::optional<support::FaultScope> fault;
      if (armed) {
        fault.emplace(
            "build.slice=always:after=1000000000,"
            "build.delay_ms=50:after=1000000000,"
            "alloc.build=always:after=1000000000,"
            "net.accept=always:after=1000000000,"
            "net.write=always:after=1000000000");
      }
      for (const EntryPoint entry :
           {EntryPoint::kQuery, EntryPoint::kWarmThenAsync,
            EntryPoint::kBatch, EntryPoint::kAsync, EntryPoint::kWarmed,
            EntryPoint::kHttp}) {
        const std::string label = std::string(entry_point_name(entry)) +
                                  (armed ? " (armed)" : "") + config_label;
        SelectionService service(machine, cfg);
        if (entry == EntryPoint::kWarmed) {
          // Every slice is built up front, so no answer below builds one.
          ASSERT_EQ(service.warm(queries), oracle.slices()) << label;
        }
        const std::vector<Recommendation> got =
            answer_stream(service, entry, requests);
        ASSERT_EQ(got.size(), want.size()) << label;
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < want.size(); ++i) {
          if (!(got[i] == want[i]) || got[i].source == Source::kFallback) {
            if (++mismatches <= 5) {
              ADD_FAILURE() << label << ": query " << i << " ("
                            << queries[i].family << ", dim " << queries[i].dim
                            << (queries[i].exact ? ", exact" : "")
                            << ") answered algorithm " << got[i].algorithm
                            << " from " << serve::to_string(got[i].source)
                            << ", want " << want[i].algorithm;
            }
          }
        }
        EXPECT_EQ(mismatches, 0u) << label;
        EXPECT_EQ(service.stats().atlases_built, oracle.slices()) << label;
      }
      EXPECT_EQ(support::fault_injected_total(), 0u);
    }
  }
}

// ----------------------------------------------- LRU generations and heap

/// ScriptedMachine timings, except that timing an algorithm at kGatedSize
/// (outside every atlas scan's range) waits for release(): a query can be
/// held after it read its slice, or began to classify, and before it stores
/// its answer in the LRU.
class GatedMachine final : public model::MachineModel {
 public:
  static constexpr int kGatedSize = 1500;

  std::string name() const override { return inner_.name(); }
  double peak_flops() const override { return inner_.peak_flops(); }
  bool concurrent_timing_safe() const override { return true; }

  void time_steps_into(const model::Algorithm& alg,
                       std::span<double> out) override {
    if (alg.steps().at(0).call.m == kGatedSize) {
      std::unique_lock<std::mutex> lock(mutex_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return released_; });
    }
    inner_.time_steps_into(alg, out);
  }
  double time_call_isolated(const model::KernelCall& call) override {
    return inner_.time_call_isolated(call);
  }

  void wait_until_entered() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return entered_; });
  }
  void release() {
    const std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  lamb::testing::ScriptedMachine inner_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(SelectionService, AnswerStoredAfterARefreshFromBeforeItIsNotServed) {
  // An exact answer is held inside classification while refresh_slices()
  // swaps the slices, advances the LRU generation and clears the LRU; the
  // held answer is stored after that clear. It was computed before the
  // refresh, so no later lookup may serve it.
  GatedMachine machine;
  const expr::FamilyRegistry registry = test_registry();
  SelectionService service(machine, scripted_config(), &registry);
  service.warm({Query{"scripted", {300}, 0, false}});  // a slice to refresh
  const Query held{"scripted", {GatedMachine::kGatedSize}, 0, true};

  Recommendation first;
  std::thread asker([&] { first = service.query(held); });
  machine.wait_until_entered();
  EXPECT_EQ(service.refresh_slices(), 1u);
  machine.release();
  asker.join();
  EXPECT_EQ(first.source, Source::kMeasured);

  const Recommendation second = service.query(held);
  EXPECT_EQ(second.source, Source::kMeasured)
      << "an answer computed before the refresh was served after it";
  EXPECT_EQ(second, first);  // the machine did not move
  EXPECT_EQ(service.query(held).source, Source::kCache);
  EXPECT_EQ(service.stats().measured_queries, 2u);
}

TEST(SelectionService, QueriesPastTheKeyBoundsMissAndAreRejected) {
  // A name longer than expr::kMaxFamilyName, or more sizes than
  // expr::kMaxArity, cannot form an LRU key: the probe misses, and
  // validation rejects the query like any unknown family or arity.
  model::SimulatedMachine machine;
  SelectionService service(machine, scripted_config());
  const std::vector<Query> rejected = {
      {std::string(expr::kMaxFamilyName + 1, 'a'), {100, 200, 300}, 0, false},
      {"aatb", std::vector<int>(expr::kMaxArity + 1, 50), 0, false},
      {"aatb", std::vector<int>(expr::kMaxArity + 1, 50), 0, true}};
  for (const Query& q : rejected) {
    Recommendation rec;
    EXPECT_FALSE(service.try_warm(q, rec));
    EXPECT_THROW(service.query(q), support::CheckError);
    EXPECT_THROW(service.query_async(q), support::CheckError);
    EXPECT_THROW(service.query_batch({q}), support::CheckError);
  }
  EXPECT_EQ(service.stats().atlases_built, 0u);
}

TEST(SelectionService, PublishedSlicesRejectInvalidQueriesLikeAFreshService) {
  // The warm path checks only a query's dim and scanned coordinate and
  // trusts its published slice for the rest, so with the slices published —
  // by building, or by adopting a store — every entry point must reject
  // each invalid query with the very error a fresh service gives, and still
  // answer valid ones like the directly built atlas.
  const std::string dir = temp_dir();
  model::SimulatedMachine machine;
  const ServiceConfig cfg = scripted_config();
  const std::vector<Query> lines = {{"aatb", {300, 260, 549}, 0, false},
                                    {"aatb", {300, 260, 549}, 1, false},
                                    {"chain4", {100, 200, 300, 400, 500}, 2,
                                     false}};
  const int big = expr::kMaxDimension + 1;
  const std::vector<Query> invalid = {
      {"nosuch", {300, 260, 549}, 0, false},
      {std::string(expr::kMaxFamilyName + 1, 'a'), {300, 260, 549}, 0, false},
      {"aatb", {300, 260}, 0, false},
      {"aatb", {300, 260, 549, 7}, 0, false},
      {"aatb", {300, 260, 549}, 3, false},
      {"aatb", {300, 260, 549}, -1, false},
      {"aatb", {0, 260, 549}, 0, false},
      {"aatb", {-1, 260, 549}, 0, false},
      {"aatb", {big, 260, 549}, 0, false},
      {"aatb", {300, 0, 549}, 1, false},
      {"aatb", {300, 260, 0}, 0, false},
      {"aatb", {300, -5, 549}, 0, false},
      {"aatb", {300, big, 549}, 0, false},
      {"chain4", {100, 200, 0, 400, 500}, 2, false},
      {"chain4", {100, 200, 300, 400, 0}, 2, false}};
  const auto error_of = [](const auto& call) {
    try {
      call();
    } catch (const support::CheckError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };

  std::vector<std::string> want;
  {
    SelectionService fresh(machine, cfg);
    for (const Query& q : invalid) {
      want.push_back(error_of([&] { fresh.query(q); }));
      ASSERT_NE(want.back(), "no error") << q.family;
    }
  }

  SelectionService built(machine, cfg);
  ASSERT_EQ(built.warm(lines), lines.size());
  store::AtlasStore atlas_store(dir);
  ASSERT_EQ(built.checkpoint(atlas_store), lines.size());
  SelectionService adopted(machine, cfg);
  ASSERT_EQ(adopted.warm_from_store(atlas_store), lines.size());

  for (SelectionService* service : {&built, &adopted}) {
    const char* how = service == &built ? "built" : "adopted";
    for (std::size_t i = 0; i < invalid.size(); ++i) {
      const Query& q = invalid[i];
      // A valid query on the same line first, so the invalid one meets a
      // published group as well as opening one.
      Query line = q.family == "chain4" ? lines[2] : lines[0];
      line.dim = q.dim >= 0 && q.dim < 3 ? q.dim : 0;
      EXPECT_EQ(error_of([&] { service->query(q); }), want[i]) << how << i;
      EXPECT_EQ(error_of([&] { service->query_batch({q}); }), want[i])
          << how << i;
      EXPECT_EQ(error_of([&] { service->query_batch({line, q}); }), want[i])
          << how << i;
      EXPECT_EQ(error_of([&] { service->query_async(q); }), want[i])
          << how << i;
      Recommendation untouched;
      EXPECT_FALSE(service->try_warm(q, untouched)) << how << i;
    }
    for (const Query& base : lines) {
      const auto family = expr::make_family(base.family);
      const anomaly::RegionAtlas direct(*family, machine, base.dims, base.dim,
                                        cfg.atlas);
      for (const int c : {cfg.atlas.lo, 77, 600, cfg.atlas.hi}) {
        Query q = base;
        q.dims[static_cast<std::size_t>(q.dim)] = c;
        const anomaly::AtlasInterval& interval = direct.lookup(c);
        Recommendation warm;  // first, so the published slice answers it
        EXPECT_TRUE(service->try_warm(q, warm)) << how << c;
        for (const Recommendation& rec :
             {warm, service->query(q), service->query_batch({q}).front(),
              service->query_async(q).get()}) {
          EXPECT_EQ(rec.algorithm, interval.recommended) << how << c;
          EXPECT_EQ(rec.flop_minimal, interval.flop_minimal) << how << c;
          EXPECT_EQ(rec.flops_reliable, !interval.anomalous) << how << c;
          EXPECT_EQ(rec.time_score, interval.worst_time_score) << how << c;
        }
      }
    }
  }
  EXPECT_EQ(built.stats().atlases_built, lines.size());
  EXPECT_EQ(adopted.stats().atlases_built, 0u);
}

TEST(SelectionService, WarmQueriesDoNotAllocate) {
  // Atlas answers on a full LRU, each of which evicts, and LRU hits: the
  // keys and recommendations are held by value and a full LRU reuses its
  // tail slot, so neither path touches the heap.
  model::SimulatedMachine machine;
  ServiceConfig cfg = scripted_config();
  cfg.cache_capacity = 64;
  cfg.cache_shards = 4;
  SelectionService service(machine, cfg);
  std::vector<Query> line;
  for (int c = cfg.atlas.lo; c <= cfg.atlas.hi; ++c) {
    line.push_back(Query{"aatb", {c, 260, 549}, 0, false});
  }
  ASSERT_EQ(service.warm({line.front()}), 1u);
  for (const Query& q : line) {
    service.query(q);  // resolves the family, fills the LRU's arrays
  }

  // A line longer than the LRU, walked in order: every query misses, and
  // with the LRU already full every answer's put evicts the least recent
  // entry.
  ASSERT_EQ(service.cache_size(), cfg.cache_capacity);
  const std::uint64_t misses_before = service.stats().cache_misses;
  std::size_t atlas_answers = 0;
  const std::uint64_t before = lamb::testing::thread_alloc_count();
  for (int round = 0; round < 2; ++round) {
    for (const Query& q : line) {
      atlas_answers += service.query(q).source == Source::kAtlas ? 1 : 0;
    }
  }
  const std::uint64_t evictions =
      service.stats().cache_misses - misses_before;
  const Query& hot = line[line.size() / 2];
  service.query(hot);
  const std::uint64_t after_atlas = lamb::testing::thread_alloc_count();
  std::size_t cache_answers = 0;
  for (int i = 0; i < 1000; ++i) {
    cache_answers += service.query(hot).source == Source::kCache ? 1 : 0;
  }
  const std::uint64_t after_hits = lamb::testing::thread_alloc_count();

  EXPECT_EQ(atlas_answers, 2 * line.size());
  EXPECT_GE(atlas_answers, 1000u);
  EXPECT_EQ(evictions, atlas_answers);  // each a miss put into a full LRU
  EXPECT_EQ(cache_answers, 1000u);
  EXPECT_EQ(service.cache_size(), cfg.cache_capacity);
  EXPECT_EQ(after_atlas - before, 0u)
      << "operator-new calls across " << atlas_answers << " atlas answers";
  EXPECT_EQ(after_hits - after_atlas, 0u)
      << "operator-new calls across " << cache_answers << " LRU hits";
}

TEST(SelectionService, ColdQueryAllocationsDoNotGrowWithPublishedSlices) {
  // Publishing a slice inserts one node into the slice map; it copies no
  // other slice. So a cold query() makes about as many operator-new calls
  // with 256 other slices published as with 1.
  ServiceConfig cfg = scripted_config();
  cfg.atlas.hi = 400;  // cheap scans: 257 slices are built below
  const Query cold{"aatb", {300, 260, 549}, 0, false};
  const auto cold_query_allocations = [&](int published) {
    model::SimulatedMachine machine;
    SelectionService service(machine, cfg);
    std::vector<Query> others;
    for (int i = 0; i < published; ++i) {
      others.push_back(Query{"aatb", {100, 20 + i, 768}, 0, false});
    }
    EXPECT_EQ(service.warm(others), others.size());
    const std::uint64_t before = lamb::testing::thread_alloc_count();
    const Recommendation rec = service.query(cold);
    const std::uint64_t allocations =
        lamb::testing::thread_alloc_count() - before;
    EXPECT_EQ(rec.source, Source::kAtlas);
    EXPECT_EQ(service.atlas_count(), others.size() + 1);
    return allocations;
  };
  const std::uint64_t with_one = cold_query_allocations(1);
  const std::uint64_t with_many = cold_query_allocations(256);
  EXPECT_LE(with_many, with_one + 8)
      << "a cold query made " << with_one << " operator-new calls with 1 "
      << "other slice published and " << with_many << " with 256";
}

}  // namespace

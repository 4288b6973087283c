// SelectionService: the online answer to "which algorithm should I run?".
//
// The paper's Sec. 5 proposal, productionised: all the expensive knowledge —
// where the FLOP discriminant fails, and what to run instead — is computed
// offline (RegionAtlas scans, persisted through store::AtlasStore) and
// amortised into microsecond lookups at query time. A query names a family
// (by registry name), a concrete instance, and the symbolic dimension of
// interest; the answer is the algorithm index to run, whether the FLOP
// count can be trusted there, and where the answer came from.
//
// The service generalises the one-dimensional RegionAtlas to N symbolic
// dimensions by slicing: a slice is (family, dim, base instance with the
// scanned coordinate canonicalised away), so every query along the same
// axis-aligned line shares one atlas, and any dimension of any instance can
// be served.
//
// The warm path. query() reads the LRU generation once, builds the query's
// value key once and hashes it once; that hash serves the LRU probe and the
// put after a miss. On a miss, one hold of the slice map's mutex finds the
// published slice and answers the scanned coordinate from it, copying the
// matched interval out; it resolves no family and copies no shared_ptr.
// try_warm() and query_async() answer an already-published slice the same
// way, and query_batch() opens a new slice group with one hold that finds
// its published slice, again resolving no family. Only an unpublished
// slice, an exact query or a query that cannot form a key goes through
// family_for() — which validates the query and throws for an invalid one —
// and then obtain_atlas(): the slice is built here, or by another thread
// (builds are deduplicated per slice), and answered with
// RegionAtlas::lookup. Exact queries are classified directly; with
// degrade_on_failure a failed build answers from the analytical
// flop-minimal ranking. warm() and refresh_slices() build slices on the
// ThreadPool when the machine's timing is thread-safe.
//
// Validity is proven at publication. Every published slice id names a
// family this service's registry makes, with that family's arity, a dim in
// range, and every fixed coordinate in [1, expr::kMaxDimension]: a build
// publishes only after family_for() accepted its query, and
// warm_from_store() adopts only records that pass the same checks. A query
// that matches a published slice id is therefore valid as soon as its dim
// indexes its instance and its scanned coordinate lies in
// [1, expr::kMaxDimension] — the only checks the warm path and the batch
// group loop make themselves. Anything else falls through to family_for(),
// so every entry point rejects an invalid query with the same error.
//
// Slice map semantics: the published atlases live in one map, guarded with
// the builds in flight by one mutex. A warm answer holds it for one find
// and one interval lookup; writers hold it for an insert, a swap or a copy
// of the map's entries — never across a build or store I/O. A warm query
// therefore never waits on a build. A builder publishes its atlas and
// unregisters its build under one hold, so every slice is published, in
// flight, or neither. refresh_slices() swaps all its rebuilt slices under
// one hold, so a reader finds either the old or the new generation, never
// a torn or partially built atlas. Published atlases are never freed while
// the service lives (refresh retires the ones it replaces), so raw pointers
// returned by atlas_for() stay valid.
//
// Inside the service a query is keyed by value: the family name (at most
// expr::kMaxFamilyName bytes) and the instance (at most expr::kMaxArity
// sizes) are held inline, so the LRU and the slice maps hash and compare
// keys without touching the heap, and a warm query() — LRU hit or atlas
// answer, an eviction included — allocates nothing (serve_test audits
// this). The key hash (support::hash_name_ints) mixes word-sized pieces of
// the name and the sizes independently, and the warm path takes it from
// the query's own fields rather than reading back the key it has just
// written. A query whose name or arity cannot form a key is an LRU miss,
// and validation then rejects it.
//
// Answers are bit-identical to what the underlying RegionAtlas / classifier
// would produce directly, from every entry point (tests/serve_test.cpp
// answers one simulated stream through each and pins this).
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "anomaly/atlas.hpp"
#include "expr/registry.hpp"
#include "model/machine.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/shard_cache.hpp"
#include "store/atlas_store.hpp"

namespace lamb::serve {

struct Query {
  std::string family;    ///< registry name ("aatb", "chain4", ...)
  expr::Instance dims;   ///< concrete instance to select an algorithm for
  int dim = 0;           ///< symbolic dimension of the atlas slice
  bool exact = false;    ///< bypass the atlas: classify this very instance

  friend bool operator==(const Query&, const Query&) = default;
};

enum class Source : std::uint8_t {
  kCache,     ///< sharded LRU hit
  kAtlas,     ///< atlas-slice interval lookup
  kMeasured,  ///< direct classification on the machine model
  kFallback,  ///< degraded: analytical flop-minimal ranking, no timing
};

std::string_view to_string(Source source);

struct Recommendation {
  std::size_t algorithm = 0;     ///< index to run (fastest known)
  std::size_t flop_minimal = 0;  ///< what the FLOP discriminant would pick
  bool flops_reliable = true;    ///< FLOP-minimal is safe here
  double time_score = 0.0;       ///< severity at/around the instance
  Source source = Source::kMeasured;

  /// Equality over the selection payload; `source` is provenance, not part
  /// of the answer.
  friend bool operator==(const Recommendation& a, const Recommendation& b) {
    return a.algorithm == b.algorithm && a.flop_minimal == b.flop_minimal &&
           a.flops_reliable == b.flops_reliable &&
           a.time_score == b.time_score;
  }
};

struct ServiceConfig {
  /// Slice geometry + classification threshold shared by every atlas the
  /// service builds (part of the atlas identity, so stores segregate by it).
  anomaly::AtlasConfig atlas;
  std::size_t cache_capacity = 1u << 16;  ///< recommendations, all shards
  std::size_t cache_shards = 16;  ///< rounded down to a power of two
  /// Workers for parallel atlas builds; 0 = hardware threads. Parallel
  /// builds engage only when the machine's timing is thread-safe.
  std::size_t threads = 0;
  /// Graceful degradation: when a slice build fails (or the breaker is open,
  /// or a deduplicated build exceeds build_deadline_s, or the async queue
  /// sheds), answer from the analytical flop-minimal ranking with
  /// source=kFallback instead of propagating the exception. Off by default:
  /// library callers keep exact error propagation; the serving binary turns
  /// it on. Fallback answers are never cached, so recovery is automatic.
  bool degrade_on_failure = false;
  /// Per-slice circuit breaker (active only with degrade_on_failure): this
  /// many consecutive build failures open the breaker, skipping further
  /// build attempts until an exponential backoff elapses; then one
  /// half-open probe build closes it on success or re-opens it with a
  /// doubled backoff. The backoff is capped at 30 s, then stretched by a
  /// deterministic jitter in [1, 1.5), so it never exceeds 45 s. 0 disables
  /// the breaker.
  int breaker_threshold = 3;
  double breaker_backoff_initial_s = 0.5;
  /// With degrade_on_failure: bound on waiting for another thread's
  /// in-flight build of the same slice; past it the waiter answers from
  /// fallback while the build continues and publishes for later queries.
  /// 0 waits indefinitely.
  double build_deadline_s = 0.0;
  /// With degrade_on_failure: bound on distinct queued async build buckets;
  /// enqueues past it answer from fallback immediately instead of growing
  /// the queue without limit. 0 = unbounded.
  std::size_t max_build_queue = 0;
};

struct ServiceStats {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t atlases_built = 0;
  std::uint64_t atlases_loaded = 0;     ///< warmed from a store
  std::uint64_t atlases_skipped = 0;    ///< stale or unquarantinable
                                        ///< store files skipped
  std::uint64_t measured_queries = 0;   ///< answers classified directly
  long long atlas_samples = 0;          ///< classifications spent building
  // Monotonic per-source answer counters and per-entry-point call counts.
  // Unlike the LRU's hit/miss pair these are never reset by clear(), which
  // is what a scrape-based exporter (the HTTP /metrics endpoint) needs.
  std::uint64_t cache_answers = 0;  ///< answers served from the LRU
  std::uint64_t atlas_answers = 0;  ///< answers served from an atlas slice
  std::uint64_t batch_calls = 0;    ///< query_batch() invocations
  std::uint64_t batch_queries = 0;  ///< queries summed over those batches
  std::uint64_t async_calls = 0;    ///< query_async() invocations
  std::uint64_t slices_refreshed = 0;  ///< slices rebuilt by refresh_slices()
  std::uint64_t refresh_rounds = 0;    ///< refresh_slices() invocations
  std::uint64_t degraded_answers = 0;  ///< answers served with source=fallback
  std::uint64_t builds_shed = 0;       ///< async buckets shed by the queue bound
  std::uint64_t breaker_opens = 0;     ///< closed/half-open -> open transitions
  std::uint64_t atlases_quarantined = 0;  ///< corrupt store files set aside
};

/// One per-slice circuit breaker, for /metrics: state is 0 (closed but
/// recently failing), 0.5 (half-open: backoff elapsed, probe pending or in
/// flight) or 1 (open). Healthy slices carry no breaker and are not listed.
struct BreakerSnapshot {
  std::string slice;
  double state = 0.0;
  int consecutive_failures = 0;
};

class SelectionService {
 public:
  /// The machine (and registry, defaulting to the process-wide one) must
  /// outlive the service.
  explicit SelectionService(model::MachineModel& machine,
                            ServiceConfig config = {},
                            const expr::FamilyRegistry* registry = nullptr);
  /// Abandons queued async queries: their futures fail with CheckError.
  ~SelectionService();

  SelectionService(const SelectionService&) = delete;
  SelectionService& operator=(const SelectionService&) = delete;

  const ServiceConfig& config() const { return config_; }

  /// Answer one query. Safe for concurrent callers: the cache is sharded,
  /// a published slice answers under one hold of the slice map's mutex,
  /// atlas builds are deduplicated per slice, and machines whose timing is
  /// not thread-safe are serialised behind one timing mutex.
  Recommendation query(const Query& q);

  /// Answer a batch, results in input order. Queries are grouped by atlas
  /// slice in one pass; a new group whose slice is published opens through
  /// the warm path's one hold, without resolving its family, and a query
  /// joining a group has only its scanned coordinate checked. Each missing
  /// slice is built exactly once (on the ThreadPool when the machine's
  /// timing is thread-safe), and each group is answered through
  /// RegionAtlas::lookup behind a memo of the last interval it answered.
  /// The per-query LRU is neither consulted nor populated for grouped
  /// queries, which is what makes a warm batch several times faster than
  /// repeated query() calls; the payloads are identical either way, since
  /// the LRU only ever caches atlas answers for non-exact queries.
  /// Exact queries take the query() path. A slice-build failure propagates
  /// to the caller (first error wins); with degrade_on_failure the failed
  /// group answers from fallback instead.
  std::vector<Recommendation> query_batch(std::span<const Query> batch);
  std::vector<Recommendation> query_batch(std::initializer_list<Query> batch) {
    return query_batch(std::span<const Query>(batch.begin(), batch.size()));
  }

  /// Answers a warm query inline, from one LRU probe: an LRU hit (counted
  /// as a cache answer, as query() would), or a non-exact query whose slice
  /// is published, looked up under one slice-map hold, counted as one atlas
  /// answer and stored in the LRU, as query() would. Returns false, with
  /// `out` untouched, when the query needs a build or an exact
  /// classification, or is invalid; query_async() takes it from there.
  /// Never builds or waits on a build, and like query() allocates nothing
  /// once the LRU shard is full, so the HTTP reactors answer warm queries
  /// with it on their loop threads.
  bool try_warm(const Query& q, Recommendation& out);

  /// Answer one query without blocking on atlas scans. Cache hits and
  /// already-built slices resolve immediately; anything needing a scan (or
  /// an exact classification) is handed to a background worker through a
  /// deduplicating build queue — N pending queries on the same slice cost
  /// one build, and all N answer from its outcome. Invalid queries throw
  /// synchronously; a failed build fails the futures (or, with
  /// degrade_on_failure, answers each from fallback). Destroying the service
  /// fails still-queued futures.
  std::future<Recommendation> query_async(Query q);

  /// Build (or wait for) the atlas slices the queries would need that are
  /// not yet published, without producing recommendations. Returns the
  /// number of those slices it obtained; with degrade_on_failure a build
  /// that failed, was breakered or missed its deadline is not counted.
  std::size_t warm(std::span<const Query> batch);
  std::size_t warm(std::initializer_list<Query> batch) {
    return warm(std::span<const Query>(batch.begin(), batch.size()));
  }

  /// Adopt every atlas in `atlas_store` built on this machine model with
  /// this service's AtlasConfig that this service could have built itself:
  /// its family is one the registry makes (resolved here, once per name),
  /// its base has that family's arity, its dim is in range and its fixed
  /// coordinates lie in [1, expr::kMaxDimension]. A record that fails these
  /// checks is skipped like a foreign one: not adopted, not quarantined,
  /// left on disk. Returns the number adopted. A corrupt file is
  /// quarantined; a stale one (an older record format version) is left in
  /// place and counted in atlases_skipped, its slice is rebuilt on first
  /// query and the next checkpoint() overwrites it.
  std::size_t warm_from_store(const store::AtlasStore& atlas_store);

  /// Persist every published slice; returns the number written. The
  /// slices are copied under the slice map's mutex and written outside it,
  /// so queries, builds and refreshes go on during the I/O.
  std::size_t checkpoint(store::AtlasStore& atlas_store) const;

  /// Re-scan every published slice against the machine's *current* timings
  /// and swap the rebuilt set in — the drift monitor's answer to a machine
  /// whose timings have moved (see serve/drift.hpp). The slice ids are
  /// copied under the slice map's mutex, rebuilt outside it, and swapped in
  /// all at once under one hold, so readers see either the complete old
  /// generation or the complete new one. Replaced atlases are retired, not
  /// freed — raw pointers from atlas_for() stay valid for the service's
  /// lifetime. After the swap the recommendation LRU moves to a new
  /// generation and is cleared: every entry is stamped with the generation
  /// read before its answer looked up the slice (or began classifying), and
  /// a lookup reads only its own generation, so an answer computed from a
  /// replaced atlas and stored after the clear is never served. Slices
  /// published concurrently by on-demand builds are already fresh and are
  /// kept untouched. Rebuilds run on the ThreadPool when the machine's
  /// timing is thread-safe; a build failure propagates and leaves the old
  /// generation fully in place. Returns the number of slices rebuilt.
  std::size_t refresh_slices();

  /// The built slice for a query's (family, dim, base), if any. The pointer
  /// stays valid for the service's lifetime (slices are never dropped).
  const anomaly::RegionAtlas* atlas_for(const Query& q);

  std::size_t atlas_count() const;
  std::size_t cache_size() const { return cache_.size(); }
  ServiceStats stats() const;

  /// Current per-slice breakers (failing, half-open or open slices only).
  std::vector<BreakerSnapshot> breaker_states() const;

  /// Distinct build buckets queued behind query_async (an admission-control
  /// watermark input for the HTTP tier).
  std::size_t async_queue_depth() const;

 private:
  using AtlasPtr = std::shared_ptr<const anomaly::RegionAtlas>;

  /// A query's identity by value. Trivially copyable, so the LRU and the
  /// slice maps hold it without a heap allocation. It takes two shapes:
  ///  - the LRU key (query_key): the whole query, stamped with the LRU
  ///    generation its answer was computed under;
  ///  - the slice id (slice_id): machine and scan config are fixed per
  ///    service, so (family, dim, base line) is enough, with the scanned
  ///    coordinate zeroed, exact false and generation 0. checkpoint()
  ///    derives the store::AtlasKey at the store boundary. An exact query's
  ///    async bucket is its query_key at generation 0.
  ///
  /// Only make_key() fills a Key: a declared one starts indeterminate, so a
  /// warm query writes its key once.
  struct Key {
    std::array<char, expr::kMaxFamilyName> family;  ///< zero-padded
    std::uint8_t family_size;
    std::uint8_t arity;
    bool exact;
    int dim;
    std::uint32_t generation;
    std::array<int, expr::kMaxArity> dims;  ///< zero past `arity`

    std::string_view family_name() const {
      return {family.data(), family_size};
    }
    expr::Instance instance() const {
      return expr::Instance(dims.begin(), dims.begin() + arity);
    }
    friend bool operator==(const Key&, const Key&) = default;
  };
  static_assert(std::is_trivially_copyable_v<Key>);
  /// hash_fields() of the key's fields. The generation is left out: keys
  /// that differ only in it are rare (an answer that straddled a refresh)
  /// and share a probe run.
  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };
  /// support::hash_name_ints over a key's fields: the name, the sizes up to
  /// the arity, and dim and exact in the tag. The warm path takes it
  /// straight from the query's own fields, never from the key it has just
  /// written.
  static std::size_t hash_fields(std::string_view family,
                                 std::span<const int> dims, int dim,
                                 bool exact);
  /// Fills `out`; false when the name or the arity exceeds the inline bounds.
  static bool make_key(std::string_view family, std::span<const int> dims,
                       int dim, bool exact, std::uint32_t generation, Key& out);
  static bool query_key(const Query& q, std::uint32_t generation, Key& out) {
    return make_key(q.family, q.dims, q.dim, q.exact, generation, out);
  }
  /// The slice of a validated, non-exact query.
  static Key slice_id(const Query& q);
  /// An alias that says which shape a Key holds.
  using SliceId = Key;
  /// A query's LRU key at the generation its caller read, built and hashed
  /// once for the LRU probe and for the put after a miss.
  struct KeyedQuery {
    Key key;
    std::size_t hash = 0;
    bool keyed = false;  ///< false: the name or the arity is past the bounds
  };

  struct AsyncWaiter {
    Query query;
    std::promise<Recommendation> promise;
    /// The enqueuer's trace context: the worker answers under it so the
    /// waiter's spans attach to the originating request's tree.
    obs::TraceContext ctx;
  };

  /// Resolves a family by registry name (instantiated once, outside
  /// families_mutex_, and cached).
  const expr::ExpressionFamily& resolve_family(const std::string& name);
  /// Validates the query shape and resolves the family (cached per name).
  const expr::ExpressionFamily& family_for(const Query& q);
  /// warm_from_store()'s adoption rule: whether this service could have
  /// built the record's slice (see the header's validity invariant).
  bool adoptable(const store::AtlasKey& key);

  /// The published atlas for a slice, or null.
  AtlasPtr find_slice(const SliceId& id) const;
  /// Fills `k` with `q`'s key at `generation`, hashed when the query forms
  /// one.
  static void keyed_query(const Query& q, std::uint32_t generation,
                          KeyedQuery& k);
  /// The LRU probe, under one kLru span: fills `k` through keyed_query();
  /// on a hit fills `out` (source kCache, counted as a cache answer) and
  /// returns true.
  bool probe_lru(const Query& q, std::uint32_t generation, KeyedQuery& k,
                 Recommendation& out);
  /// The warm path's own checks: a non-exact query key whose dim indexes
  /// its instance and whose scanned coordinate lies in
  /// [1, expr::kMaxDimension] becomes its slice id, in place, and true is
  /// returned. Anything else is left as it is, for family_for() to judge.
  static bool to_warm_slice(Key& key);
  /// The warm answer: when to_warm_slice() accepts `key` and its slice is
  /// published, one hold of slices_mutex_ finds the slice and copies the
  /// interval that answers the scanned coordinate into `out`. False
  /// otherwise, with `out` untouched: the caller validates through
  /// family_for(). Counts nothing and stores nothing in the LRU.
  bool answer_published(const Key& key, Recommendation& out) const;
  /// The slice's atlas: published, in flight (waits for the builder), or
  /// built here and published. One hold of slices_mutex_ finds the slice,
  /// consults the breaker and joins or registers the build; the builder
  /// publishes (first publication wins) and unregisters under another.
  /// Throws what the build threw — unless degrade_on_failure is set, in
  /// which case a failed build, an open breaker or an expired build
  /// deadline return nullptr and the caller answers from fallback_answer().
  AtlasPtr obtain_atlas(const SliceId& id);
  /// Scans the slice (under timing_guard()).
  AtlasPtr build_slice(const SliceId& id);
  /// Holds timing_mutex_ when the machine's timing is not thread-safe.
  std::unique_lock<std::mutex> timing_guard();

  /// The answer core after an LRU miss. An exact query is validated and
  /// classified directly. Any other is answered from its slice with
  /// RegionAtlas::lookup: `atlas` when the caller has already resolved the
  /// slice, else the published slice through answer_published(), else —
  /// after family_for() has validated the query — what obtain_atlas()
  /// returns; a null atlas (degraded build) means fallback_answer(). Every
  /// answer but a fallback goes into the LRU under `k`, keyed at the
  /// generation the caller read before it resolved the slice.
  Recommendation answer(const Query& q, const KeyedQuery& k,
                        std::optional<AtlasPtr> atlas = std::nullopt);
  /// The LRU generation; refresh_slices() advances it after its swap.
  std::uint32_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  /// An exact query's answer: `algorithms`, the family's set bound to the
  /// query's sizes, classified in context (under timing_guard()).
  Recommendation classify_exact(std::span<const model::Algorithm> algorithms);

  /// The degraded answer: the analytical flop-minimal algorithm, no timing
  /// involved (the paper's premise — a cheap cost-model answer always
  /// exists). Counted in degraded_answers; never cached.
  Recommendation fallback_answer(const Query& q);

  /// Breaker gate before a build attempt. True admits the caller (sets
  /// `probe` when this is the half-open probe); false means answer from
  /// fallback without touching the machine.
  bool breaker_admit(const SliceId& id, bool& probe);
  void breaker_success(const SliceId& id);
  void breaker_failure(const SliceId& id);
  /// Clears the half-open probing claim when an admitted prober ended up
  /// waiting on another thread's build instead of building itself.
  void breaker_probe_release(const SliceId& id);

  void async_worker_loop();

  /// fn(0) ... fn(n - 1), on the ThreadPool when it has more than one
  /// participant, with the caller's trace context handed to the workers.
  void for_each_parallel(std::size_t n,
                         const std::function<void(std::size_t)>& fn);

  model::MachineModel& machine_;
  ServiceConfig config_;
  const expr::FamilyRegistry& registry_;
  std::unique_ptr<parallel::ThreadPool> pool_;

  std::mutex families_mutex_;
  std::unordered_map<std::string, std::unique_ptr<const expr::ExpressionFamily>>
      families_;

  /// Guards the three members below. Held for a find plus one interval
  /// lookup or one shared_ptr copy, an insert, a swap, or a copy of the
  /// map's entries (checkpoint(), refresh_slices()) — never across a build
  /// or store I/O. obtain_atlas() consults the breaker inside it:
  /// breakers_mutex_ may be taken under this mutex, never the other way
  /// round.
  mutable std::mutex slices_mutex_;
  /// The published atlases; entries are added or replaced, never erased.
  std::unordered_map<SliceId, AtlasPtr, KeyHash> slices_;
  /// Deduplicates concurrent builds of the same slice: the first caller
  /// registers a future, everyone else waits on it.
  std::unordered_map<SliceId, std::shared_future<AtlasPtr>, KeyHash>
      in_flight_;
  /// Atlases replaced by refresh_slices(), kept so atlas_for() pointers
  /// stay valid for the service's lifetime.
  std::vector<AtlasPtr> retired_;
  /// Serialises whole-generation refreshes (each stale slice is rebuilt
  /// exactly once per refresh round).
  std::mutex refresh_mutex_;

  /// Per-slice circuit breakers (degrade_on_failure only). An entry exists
  /// only while a slice is failing; success erases it.
  struct Breaker {
    int consecutive_failures = 0;
    int open_count = 0;             ///< consecutive opens, drives the backoff
    std::uint64_t open_until_ns = 0;  ///< 0 = closed (counting failures)
    bool probing = false;           ///< half-open probe build in flight
  };
  mutable std::mutex breakers_mutex_;
  std::unordered_map<SliceId, Breaker, KeyHash> breakers_;

  /// Background build queue for query_async (worker started lazily).
  mutable std::mutex async_mutex_;
  std::condition_variable async_cv_;
  std::deque<SliceId> async_order_;  // FIFO of bucket ids
  std::unordered_map<SliceId, std::vector<AsyncWaiter>, KeyHash>
      async_pending_;
  std::thread async_worker_;
  bool async_stop_ = false;

  /// Serialises machine access when timing is not thread-safe.
  std::mutex timing_mutex_;
  const bool concurrent_timing_;

  ShardedLruCache<Key, Recommendation, KeyHash> cache_;
  std::atomic<std::uint32_t> generation_{0};
  std::atomic<std::uint64_t> atlases_built_{0};
  std::atomic<std::uint64_t> atlases_loaded_{0};
  std::atomic<std::uint64_t> atlases_skipped_{0};
  std::atomic<std::uint64_t> measured_queries_{0};
  std::atomic<long long> atlas_samples_{0};
  std::atomic<std::uint64_t> cache_answers_{0};
  std::atomic<std::uint64_t> atlas_answers_{0};
  std::atomic<std::uint64_t> batch_calls_{0};
  std::atomic<std::uint64_t> batch_queries_{0};
  std::atomic<std::uint64_t> async_calls_{0};
  std::atomic<std::uint64_t> slices_refreshed_{0};
  std::atomic<std::uint64_t> refresh_rounds_{0};
  std::atomic<std::uint64_t> degraded_answers_{0};
  std::atomic<std::uint64_t> builds_shed_{0};
  std::atomic<std::uint64_t> breaker_opens_{0};
  std::atomic<std::uint64_t> atlases_quarantined_{0};
};

}  // namespace lamb::serve

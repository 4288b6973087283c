#include "serve/selection_service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <new>
#include <optional>
#include <thread>
#include <utility>

#include "anomaly/classifier.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/fault.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

namespace lamb::serve {

namespace {

std::size_t resolve_threads(std::size_t requested) {
  if (requested > 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

bool same_config(const anomaly::AtlasConfig& a, const anomaly::AtlasConfig& b) {
  return a.lo == b.lo && a.hi == b.hi && a.coarse_step == b.coarse_step &&
         a.time_score_threshold == b.time_score_threshold;
}

/// The bound validation puts on every size. The warm path and the batch
/// group loop check it themselves on the scanned coordinate: a published
/// slice has proven every other field of a query that matches it (see the
/// header), but not that one.
bool size_in_bounds(int c) { return c >= 1 && c <= expr::kMaxDimension; }

/// Same atlas slice: same family, same scanned dimension, same base line
/// (all coordinates equal except the scanned one). Cheaper than comparing
/// canonical key strings — no allocation, and batches are typically sweeps
/// where consecutive queries share a slice.
bool same_slice(const Query& a, const Query& b) {
  if (a.dim != b.dim || a.dims.size() != b.dims.size()) {
    return false;
  }
  for (std::size_t d = 0; d < a.dims.size(); ++d) {
    if (d != static_cast<std::size_t>(a.dim) && a.dims[d] != b.dims[d]) {
      return false;
    }
  }
  return a.family == b.family;  // the costliest comparison goes last
}

Recommendation recommendation_from(const anomaly::AtlasInterval& interval) {
  Recommendation rec;
  rec.algorithm = interval.recommended;
  rec.flop_minimal = interval.flop_minimal;
  rec.flops_reliable = !interval.anomalous;
  rec.time_score = interval.worst_time_score;
  rec.source = Source::kAtlas;
  return rec;
}

constexpr std::uint32_t kNoGroup = ~std::uint32_t{0};

/// Ceiling on a breaker's doubled backoff, before the [1, 1.5) jitter.
constexpr double kBreakerBackoffMaxS = 30.0;

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::size_t SelectionService::hash_fields(std::string_view family,
                                         std::span<const int> dims, int dim,
                                         bool exact) {
  return static_cast<std::size_t>(support::hash_name_ints(
      family, dims,
      static_cast<std::uint32_t>(dim) | std::uint64_t{exact} << 32));
}

std::size_t SelectionService::KeyHash::operator()(const Key& key) const {
  return hash_fields(key.family_name(), {key.dims.data(), key.arity}, key.dim,
                     key.exact);
}

bool SelectionService::make_key(std::string_view family,
                                std::span<const int> dims, int dim,
                                bool exact, std::uint32_t generation,
                                Key& out) {
  if (family.size() > expr::kMaxFamilyName ||
      dims.size() > static_cast<std::size_t>(expr::kMaxArity)) {
    return false;
  }
  out = Key{};
  std::copy(family.begin(), family.end(), out.family.begin());
  out.family_size = static_cast<std::uint8_t>(family.size());
  out.arity = static_cast<std::uint8_t>(dims.size());
  out.exact = exact;
  out.dim = dim;
  out.generation = generation;
  std::copy(dims.begin(), dims.end(), out.dims.begin());
  return true;
}

SelectionService::SliceId SelectionService::slice_id(const Query& q) {
  // Validation has bounded the name (FamilyRegistry::add) and the arity
  // (expr::kMaxArity), and put dim in range.
  SliceId id;
  LAMB_CHECK(make_key(q.family, q.dims, q.dim, false, 0, id),
             "slice of an unvalidated query");
  id.dims[static_cast<std::size_t>(q.dim)] = 0;
  return id;
}

std::string_view to_string(Source source) {
  switch (source) {
    case Source::kCache:
      return "cache";
    case Source::kAtlas:
      return "atlas";
    case Source::kMeasured:
      return "measured";
    case Source::kFallback:
      return "fallback";
  }
  return "?";
}

SelectionService::SelectionService(model::MachineModel& machine,
                                   ServiceConfig config,
                                   const expr::FamilyRegistry* registry)
    : machine_(machine), config_(config),
      registry_(registry != nullptr ? *registry : expr::registry()),
      concurrent_timing_(machine.concurrent_timing_safe()),
      cache_(config.cache_capacity, config.cache_shards) {
  // The pool only ever runs atlas builds, and those are serialised behind
  // timing_mutex_ on machines whose timing is not thread-safe — don't park
  // idle workers in that case.
  if (concurrent_timing_) {
    pool_ = std::make_unique<parallel::ThreadPool>(
        resolve_threads(config_.threads));
  }
}

SelectionService::~SelectionService() {
  {
    const std::lock_guard<std::mutex> lock(async_mutex_);
    async_stop_ = true;
  }
  async_cv_.notify_all();
  if (async_worker_.joinable()) {
    async_worker_.join();
  }
  // Fail anything that was still queued, instead of the anonymous
  // broken-promise error the promise destructor would produce.
  for (auto& [id, waiters] : async_pending_) {
    for (AsyncWaiter& waiter : waiters) {
      waiter.promise.set_exception(std::make_exception_ptr(support::CheckError(
          "SelectionService destroyed with pending async queries")));
    }
  }
}

const expr::ExpressionFamily& SelectionService::resolve_family(
    const std::string& name) {
  {
    const std::lock_guard<std::mutex> lock(families_mutex_);
    if (const auto it = families_.find(name); it != families_.end()) {
      return *it->second;
    }
  }
  // Built outside the lock: a family compiles its algorithm set when built
  // (milliseconds for a long chain), and every query that misses the LRU
  // takes this lock. Of two racing builds, the first inserted is kept.
  std::unique_ptr<const expr::ExpressionFamily> built = registry_.make(name);
  const std::lock_guard<std::mutex> lock(families_mutex_);
  return *families_.try_emplace(name, std::move(built)).first->second;
}

const expr::ExpressionFamily& SelectionService::family_for(const Query& q) {
  const expr::ExpressionFamily& family = resolve_family(q.family);
  family.check_instance(q.dims);
  LAMB_CHECK(q.dim >= 0 && q.dim < family.dimension_count(),
             "query dimension out of range");
  return family;
}

bool SelectionService::adoptable(const store::AtlasKey& key) {
  const expr::ExpressionFamily* family = nullptr;
  try {
    family = &resolve_family(key.family);
  } catch (const std::exception&) {
    return false;  // a family this registry does not make
  }
  if (static_cast<int>(key.base.size()) != family->dimension_count() ||
      key.dim < 0 || key.dim >= family->dimension_count()) {
    return false;
  }
  for (std::size_t d = 0; d < key.base.size(); ++d) {
    if (d != static_cast<std::size_t>(key.dim) &&
        !size_in_bounds(key.base[d])) {
      return false;  // a fixed coordinate no query could carry
    }
  }
  return true;
}

std::unique_lock<std::mutex> SelectionService::timing_guard() {
  return concurrent_timing_ ? std::unique_lock<std::mutex>()
                            : std::unique_lock<std::mutex>(timing_mutex_);
}

SelectionService::AtlasPtr SelectionService::find_slice(
    const SliceId& id) const {
  const std::lock_guard<std::mutex> lock(slices_mutex_);
  const auto it = slices_.find(id);
  return it == slices_.end() ? nullptr : it->second;
}

void SelectionService::keyed_query(const Query& q, std::uint32_t generation,
                                   KeyedQuery& k) {
  k.keyed = query_key(q, generation, k.key);
  k.hash = k.keyed ? hash_fields(q.family, q.dims, q.dim, q.exact) : 0;
}

bool SelectionService::probe_lru(const Query& q, std::uint32_t generation,
                                 KeyedQuery& k, Recommendation& out) {
  // The key and the Recommendation are trivially copyable and
  // ShardedLruCache::get allocates nothing, so the whole probe is
  // allocation-free.
  const obs::SpanScope lru_span(obs::Stage::kLru);
  keyed_query(q, generation, k);
  if (!k.keyed) {
    return false;  // cannot be cached; validation rejects it
  }
  if (auto hit = cache_.get(k.key, k.hash)) {
    hit->source = Source::kCache;
    cache_answers_.fetch_add(1);
    out = *hit;
    return true;
  }
  return false;
}

bool SelectionService::to_warm_slice(Key& key) {
  if (key.exact || key.dim < 0 || key.dim >= key.arity ||
      !size_in_bounds(key.dims[static_cast<std::size_t>(key.dim)])) {
    return false;
  }
  key.dims[static_cast<std::size_t>(key.dim)] = 0;
  key.generation = 0;
  return true;
}

bool SelectionService::answer_published(const Key& key,
                                        Recommendation& out) const {
  SliceId id = key;
  if (!to_warm_slice(id)) {
    return false;
  }
  anomaly::AtlasInterval interval;
  {
    const std::lock_guard<std::mutex> lock(slices_mutex_);
    const auto it = slices_.find(id);
    if (it == slices_.end()) {
      return false;
    }
    interval = it->second->lookup(key.dims[static_cast<std::size_t>(key.dim)]);
  }
  out = recommendation_from(interval);
  return true;
}

SelectionService::AtlasPtr SelectionService::build_slice(const SliceId& id) {
  const obs::SpanScope build_span(obs::Stage::kBuild);
  if (const std::uint64_t ms =
          support::fault_value(support::FaultSite::kBuildDelayMs)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  }
  if (support::fault_fire(support::FaultSite::kAllocBuild)) {
    throw std::bad_alloc();
  }
  const std::string name(id.family_name());
  if (support::fault_fire(support::FaultSite::kBuildSlice)) {
    throw std::runtime_error("fault injected: build.slice for " + name);
  }
  // The canonicalised base carries a 0 at the scanned coordinate, which
  // the scan overrides at every sample.
  const expr::ExpressionFamily& family = resolve_family(name);
  const auto timing_lock = timing_guard();
  const AtlasPtr built = std::make_shared<const anomaly::RegionAtlas>(
      family, machine_, id.instance(), id.dim, config_.atlas);
  atlas_samples_.fetch_add(built->samples_used());
  atlases_built_.fetch_add(1);
  return built;
}

SelectionService::AtlasPtr SelectionService::obtain_atlas(const SliceId& id) {
  const bool degrade = config_.degrade_on_failure;
  bool probe = false;
  std::optional<std::promise<AtlasPtr>> promise;  // set when this caller builds
  std::shared_future<AtlasPtr> shared;
  {
    const std::lock_guard<std::mutex> lock(slices_mutex_);
    if (const auto it = slices_.find(id); it != slices_.end()) {
      return it->second;
    }
    if (degrade && config_.breaker_threshold > 0 &&
        !breaker_admit(id, probe)) {
      return nullptr;  // breaker open: no build attempt, caller degrades
    }
    // A builder publishes and unregisters under one hold, so a slice that
    // is neither published nor in flight is this caller's to build.
    const auto [it, inserted] = in_flight_.try_emplace(id);
    if (inserted) {
      it->second = promise.emplace().get_future().share();
    }
    shared = it->second;
  }
  if (!promise) {
    if (probe) {
      // Another thread won the build; its outcome drives the breaker.
      breaker_probe_release(id);
    }
    if (degrade && config_.build_deadline_s > 0.0) {
      const auto deadline =
          std::chrono::duration<double>(config_.build_deadline_s);
      if (shared.wait_for(deadline) != std::future_status::ready) {
        // The build continues and publishes for later queries; this caller
        // answers from fallback now.
        return nullptr;
      }
    }
    if (!degrade) {
      return shared.get();  // blocks on the builder; rethrows its error
    }
    try {
      return shared.get();
    } catch (...) {
      return nullptr;  // the builder already recorded the breaker failure
    }
  }
  try {
    const AtlasPtr built = build_slice(id);
    AtlasPtr result;
    {
      const std::lock_guard<std::mutex> lock(slices_mutex_);
      // warm_from_store() may have adopted the slice meanwhile; it wins.
      result = slices_.try_emplace(id, built).first->second;
      in_flight_.erase(id);
    }
    promise->set_value(result);
    if (degrade && config_.breaker_threshold > 0) {
      breaker_success(id);
    }
    return result;
  } catch (...) {
    promise->set_exception(std::current_exception());
    {
      const std::lock_guard<std::mutex> lock(slices_mutex_);
      in_flight_.erase(id);
    }
    if (degrade) {
      if (config_.breaker_threshold > 0) {
        breaker_failure(id);
      }
      return nullptr;
    }
    throw;
  }
}

bool SelectionService::breaker_admit(const SliceId& id, bool& probe) {
  const std::lock_guard<std::mutex> lock(breakers_mutex_);
  const auto it = breakers_.find(id);
  if (it == breakers_.end() || it->second.open_until_ns == 0) {
    return true;  // closed (healthy, or still counting failures)
  }
  Breaker& b = it->second;
  if (steady_now_ns() < b.open_until_ns) {
    return false;  // open: backoff still running
  }
  if (b.probing) {
    return false;  // half-open: another caller already holds the probe
  }
  b.probing = true;
  probe = true;
  return true;
}

void SelectionService::breaker_success(const SliceId& id) {
  const std::lock_guard<std::mutex> lock(breakers_mutex_);
  breakers_.erase(id);  // full reset; healthy slices carry no breaker
}

void SelectionService::breaker_failure(const SliceId& id) {
  const std::lock_guard<std::mutex> lock(breakers_mutex_);
  Breaker& b = breakers_[id];
  b.probing = false;
  b.consecutive_failures += 1;
  const bool reopen = b.open_until_ns != 0;  // a failed half-open probe
  if (!reopen && b.consecutive_failures < config_.breaker_threshold) {
    return;
  }
  double backoff = config_.breaker_backoff_initial_s;
  for (int i = 0; i < b.open_count && backoff < kBreakerBackoffMaxS; ++i) {
    backoff *= 2.0;
  }
  backoff = std::min(backoff, kBreakerBackoffMaxS);
  // Deterministic jitter in [1, 1.5): same slice + same open ordinal =>
  // same schedule in every run, but distinct slices never thunder together.
  const std::uint64_t h = support::mix64(
      KeyHash{}(id) ^ static_cast<std::uint64_t>(b.open_count));
  backoff *= 1.0 + 0.5 * (static_cast<double>(h >> 11) * 0x1.0p-53);
  b.open_until_ns = steady_now_ns() +
                    static_cast<std::uint64_t>(backoff * 1e9);
  b.open_count += 1;
  breaker_opens_.fetch_add(1);
  const std::string_view name = id.family_name();
  std::fprintf(stderr,
               "breaker: slice %.*s:dim%d open (%d consecutive failures, "
               "retry in %.3fs)\n",
               static_cast<int>(name.size()), name.data(), id.dim,
               b.consecutive_failures, backoff);
}

void SelectionService::breaker_probe_release(const SliceId& id) {
  const std::lock_guard<std::mutex> lock(breakers_mutex_);
  const auto it = breakers_.find(id);
  if (it != breakers_.end()) {
    it->second.probing = false;
  }
}

std::vector<BreakerSnapshot> SelectionService::breaker_states() const {
  const std::lock_guard<std::mutex> lock(breakers_mutex_);
  std::vector<BreakerSnapshot> out;
  out.reserve(breakers_.size());
  const std::uint64_t now = steady_now_ns();
  for (const auto& [id, b] : breakers_) {
    BreakerSnapshot snap;
    std::string base;
    for (std::size_t d = 0; d < id.arity; ++d) {
      base += support::strf("%s%d", d == 0 ? "" : ".", id.dims[d]);
    }
    snap.slice = support::strf("%s:d%d:%s",
                               std::string(id.family_name()).c_str(), id.dim,
                               base.c_str());
    snap.state = b.open_until_ns == 0 ? 0.0
                 : now < b.open_until_ns ? 1.0
                                         : 0.5;
    snap.consecutive_failures = b.consecutive_failures;
    out.push_back(std::move(snap));
  }
  std::sort(out.begin(), out.end(),
            [](const BreakerSnapshot& a, const BreakerSnapshot& b) {
              return a.slice < b.slice;
            });
  return out;
}

std::size_t SelectionService::async_queue_depth() const {
  const std::lock_guard<std::mutex> lock(async_mutex_);
  return async_order_.size();
}

Recommendation SelectionService::classify_exact(
    std::span<const model::Algorithm> algorithms) {
  const obs::SpanScope build_span(obs::Stage::kBuild);
  anomaly::ClassifyScratch scratch;
  anomaly::Verdict verdict;
  {
    const auto timing_lock = timing_guard();
    verdict = anomaly::classify(algorithms, machine_,
                                anomaly::Timing::kInContext,
                                config_.atlas.time_score_threshold, scratch);
  }
  measured_queries_.fetch_add(1);
  Recommendation rec;
  rec.algorithm = verdict.fastest;
  rec.flop_minimal = verdict.cheapest;
  rec.flops_reliable = !verdict.anomaly;
  rec.time_score = verdict.time_score;
  rec.source = Source::kMeasured;
  return rec;
}

Recommendation SelectionService::fallback_answer(const Query& q) {
  // Pure cost-model arithmetic: no machine timing, no locks beyond the
  // family memo — this is the answer that is always available, whatever
  // state the measurement stack is in.
  const expr::ExpressionFamily& family = resolve_family(q.family);
  const std::vector<model::Algorithm> algorithms = family.algorithms(q.dims);
  std::size_t best = 0;
  for (std::size_t i = 1; i < algorithms.size(); ++i) {
    if (algorithms[i].flops() < algorithms[best].flops()) {
      best = i;  // strict <: ties keep the earliest, the canonical order
    }
  }
  Recommendation rec;
  rec.algorithm = best;
  rec.flop_minimal = best;
  rec.flops_reliable = true;
  rec.time_score = 0.0;
  rec.source = Source::kFallback;
  degraded_answers_.fetch_add(1);
  return rec;
}

Recommendation SelectionService::answer(const Query& q, const KeyedQuery& k,
                                        std::optional<AtlasPtr> atlas) {
  Recommendation rec;
  if (q.exact) {
    rec = classify_exact(family_for(q).algorithms(q.dims));
  } else {
    const obs::SpanScope atlas_span(obs::Stage::kAtlas);
    if (atlas || !k.keyed || !answer_published(k.key, rec)) {
      if (!atlas) {
        family_for(q);  // throws for an invalid query, before any build
        atlas = obtain_atlas(slice_id(q));
      }
      if (*atlas == nullptr) {
        // degrade_on_failure: the build failed, timed out or is breakered.
        // Never cached, so the next miss retries (or the breaker gates it).
        return fallback_answer(q);
      }
      rec = recommendation_from(
          (*atlas)->lookup(q.dims[static_cast<std::size_t>(q.dim)]));
    }
    atlas_answers_.fetch_add(1);
  }
  if (k.keyed) {
    cache_.put(k.key, k.hash, rec);
  }
  return rec;
}

Recommendation SelectionService::query(const Query& q) {
  KeyedQuery k;
  Recommendation rec;
  if (probe_lru(q, generation(), k, rec)) {
    return rec;
  }
  return answer(q, k);
}

bool SelectionService::try_warm(const Query& q, Recommendation& out) {
  KeyedQuery k;
  if (probe_lru(q, generation(), k, out)) {
    return true;
  }
  if (q.exact || !k.keyed) {
    return false;
  }
  const obs::SpanScope atlas_span(obs::Stage::kAtlas);
  if (!answer_published(k.key, out)) {
    return false;
  }
  atlas_answers_.fetch_add(1);
  cache_.put(k.key, k.hash, out);
  return true;
}

std::vector<Recommendation> SelectionService::query_batch(
    std::span<const Query> batch) {
  std::vector<Recommendation> out(batch.size());
  if (batch.empty()) {
    return out;
  }
  LAMB_CHECK(batch.size() <= ~std::uint32_t{0},
             "query_batch: batch too large");  // indices are 32-bit
  batch_calls_.fetch_add(1);
  batch_queries_.fetch_add(batch.size());

  // One atlas span covers the whole grouped answering (slice resolution,
  // deferred builds nest inside it as build spans, lookups).
  const obs::SpanScope atlas_span(obs::Stage::kAtlas);

  struct Group {
    std::size_t rep;  ///< index of the group's first query
    AtlasPtr atlas;
    /// The interval answered last and its lower bound: a sweep's next
    /// step (or a random coordinate in a wide interval) answers without a
    /// lookup.
    const anomaly::AtlasInterval* memo = nullptr;
    int memo_lo = 0;
  };
  std::vector<Group> groups;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> deferred;  // (query, group)
  std::vector<std::uint32_t> exact_queries;  // -> query() path, input order

  const auto answer_grouped = [&](std::size_t i, Group& group) {
    const int c = batch[i].dims[static_cast<std::size_t>(batch[i].dim)];
    if (group.memo == nullptr || c < group.memo_lo || c > group.memo->hi) {
      group.memo = &group.atlas->lookup(c);
      group.memo_lo = group.atlas->interval_lo(*group.memo);
    }
    out[i] = recommendation_from(*group.memo);
  };

  // Validate, group by slice, and answer everything already servable, in
  // one sweep. Consecutive queries usually share a slice (batches are
  // sweeps), so the hot case is one slice comparison plus the scanned
  // coordinate's bound check — the other coordinates were proven on the
  // group's representative, and same_slice pins them equal. Distinct
  // slices per batch are few, so the cold case is a linear group scan. A
  // brand-new group opens through the warm path's one slice-map hold; only
  // an unpublished slice or an exact query is validated through
  // family_for(), and the unpublished group is deferred.
  std::uint32_t last_group = kNoGroup;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Query& q = batch[i];
    std::uint32_t g;
    if (!q.exact && last_group != kNoGroup &&
        same_slice(q, batch[groups[last_group].rep])) {
      if (!size_in_bounds(q.dims[static_cast<std::size_t>(q.dim)])) {
        family_for(q);  // throws the error a lone query would get
      }
      g = last_group;
    } else {
      if (q.exact) {
        family_for(q);
        exact_queries.push_back(static_cast<std::uint32_t>(i));
        continue;  // answered on the query() path below
      }
      g = kNoGroup;
      for (std::uint32_t k = 0; k < groups.size(); ++k) {
        if (same_slice(q, batch[groups[k].rep])) {
          g = k;
          break;
        }
      }
      if (g != kNoGroup) {
        if (!size_in_bounds(q.dims[static_cast<std::size_t>(q.dim)])) {
          family_for(q);
        }
      } else {
        SliceId id;
        AtlasPtr atlas;
        if (query_key(q, 0, id) && to_warm_slice(id)) {
          atlas = find_slice(id);
        }
        if (atlas == nullptr) {
          family_for(q);  // not published: validate before it is built
        }
        groups.push_back(Group{i, std::move(atlas)});
        g = static_cast<std::uint32_t>(groups.size() - 1);
      }
      last_group = g;
    }
    if (groups[g].atlas != nullptr) {
      answer_grouped(i, groups[g]);
    } else {
      deferred.emplace_back(static_cast<std::uint32_t>(i), g);
    }
  }

  // Build every missing slice exactly once (a build failure propagates,
  // first error wins — or, with degrade_on_failure, degrades just that
  // group's queries to the fallback), then answer the deferred queries.
  std::size_t degraded = 0;
  if (!deferred.empty()) {
    std::vector<std::size_t> missing;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (groups[g].atlas == nullptr) {
        missing.push_back(g);
      }
    }
    for_each_parallel(missing.size(), [&](std::size_t m) {
      Group& group = groups[missing[m]];
      group.atlas = obtain_atlas(slice_id(batch[group.rep]));
    });
    for (const auto& [i, g] : deferred) {
      if (groups[g].atlas != nullptr) {
        answer_grouped(i, groups[g]);
      } else {
        // degrade_on_failure: the group's build degraded; its queries
        // answer from the analytical fallback instead of failing the batch.
        out[i] = fallback_answer(batch[i]);
        ++degraded;
      }
    }
  }

  // Exact queries take the ordinary query() path, in input order.
  for (const std::uint32_t i : exact_queries) {
    out[i] = query(batch[i]);
  }
  // Everything not on the exact or degraded path was answered from a
  // grouped slice.
  atlas_answers_.fetch_add(batch.size() - exact_queries.size() - degraded);
  return out;
}

std::future<Recommendation> SelectionService::query_async(Query q) {
  std::promise<Recommendation> ready;
  Recommendation rec;
  if (try_warm(q, rec)) {
    async_calls_.fetch_add(1);
    ready.set_value(rec);
    return ready.get_future();
  }
  family_for(q);  // invalid queries throw here, synchronously, like query()
  async_calls_.fetch_add(1);
  // Exact queries queue under their own instance.
  SliceId id;
  if (q.exact) {
    LAMB_CHECK(query_key(q, 0, id), "bucket of an unvalidated query");
  } else {
    id = slice_id(q);
  }
  std::future<Recommendation> fut;
  {
    const std::lock_guard<std::mutex> lock(async_mutex_);
    LAMB_CHECK(!async_stop_, "query_async on a stopping service");
    if (!async_worker_.joinable()) {
      async_worker_ = std::thread([this] { async_worker_loop(); });
    }
    // Bounded queue: a brand-new bucket past the bound sheds to the
    // analytical fallback instead of growing the backlog without limit.
    // Waiters joining an already-queued bucket always join — they add no
    // build work.
    if (config_.degrade_on_failure && config_.max_build_queue > 0 &&
        async_order_.size() >= config_.max_build_queue &&
        !async_pending_.contains(id)) {
      builds_shed_.fetch_add(1);
      ready.set_value(fallback_answer(q));
      return ready.get_future();
    }
    const auto [it, inserted] = async_pending_.try_emplace(id);
    if (inserted) {
      async_order_.push_back(id);
    }
    it->second.push_back(AsyncWaiter{std::move(q), {}, obs::current_context()});
    fut = it->second.back().promise.get_future();
  }
  async_cv_.notify_one();
  return fut;
}

void SelectionService::async_worker_loop() {
  for (;;) {
    decltype(async_pending_)::node_type bucket;
    {
      std::unique_lock<std::mutex> lock(async_mutex_);
      async_cv_.wait(lock,
                     [&] { return async_stop_ || !async_order_.empty(); });
      if (async_stop_) {
        return;  // the destructor fails whatever is still queued
      }
      bucket = async_pending_.extract(async_order_.front());
      async_order_.pop_front();
    }
    std::vector<AsyncWaiter>& waiters = bucket.mapped();
    // One resolution per slice bucket: every waiter answers from this one
    // obtain_atlas() result, a degraded (null) one included, and caches it
    // under the generation read before the resolution. Its spans attach to
    // the first waiter's request (the one that caused it).
    const std::uint32_t generation = this->generation();
    AtlasPtr atlas;
    if (!bucket.key().exact) {
      try {
        const obs::ContextGuard guard(waiters.front().ctx);
        const obs::SpanScope atlas_span(obs::Stage::kAtlas);
        atlas = obtain_atlas(bucket.key());
      } catch (...) {
        const std::exception_ptr error = std::current_exception();
        for (AsyncWaiter& waiter : waiters) {
          waiter.promise.set_exception(error);
        }
        continue;
      }
    }
    for (AsyncWaiter& waiter : waiters) {
      try {
        const obs::ContextGuard guard(waiter.ctx);
        Recommendation rec;
        KeyedQuery k;
        if (!probe_lru(waiter.query, this->generation(), k, rec)) {
          keyed_query(waiter.query, generation, k);
          rec = answer(waiter.query, k, atlas);
        }
        waiter.promise.set_value(rec);
      } catch (...) {
        waiter.promise.set_exception(std::current_exception());
      }
    }
  }
}

void SelectionService::for_each_parallel(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (pool_ == nullptr || pool_->size() <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  // Pool workers have no trace context of their own; hand them ours so
  // their build spans land in the caller's tree.
  const obs::TraceContext ctx = obs::current_context();
  pool_->parallel_for(static_cast<std::ptrdiff_t>(n),
                      [&](std::ptrdiff_t begin, std::ptrdiff_t end) {
                        const obs::ContextGuard guard(ctx);
                        for (std::ptrdiff_t i = begin; i < end; ++i) {
                          fn(static_cast<std::size_t>(i));
                        }
                      });
}

std::size_t SelectionService::warm(std::span<const Query> batch) {
  // Distinct unpublished slices, in first-appearance order. obtain_atlas()
  // deduplicates against concurrent builders, so a slice published
  // meanwhile only costs one more find.
  std::vector<SliceId> to_build;
  for (const Query& q : batch) {
    if (q.exact) {
      continue;
    }
    family_for(q);
    const SliceId id = slice_id(q);
    if (find_slice(id) == nullptr &&
        std::find(to_build.begin(), to_build.end(), id) == to_build.end()) {
      to_build.push_back(id);
    }
  }
  // With degrade_on_failure a failed build returns null: not warmed.
  std::atomic<std::size_t> obtained{0};
  for_each_parallel(to_build.size(), [&](std::size_t i) {
    if (obtain_atlas(to_build[i]) != nullptr) {
      obtained.fetch_add(1, std::memory_order_relaxed);
    }
  });
  return obtained.load();
}

std::size_t SelectionService::warm_from_store(
    const store::AtlasStore& atlas_store) {
  std::vector<std::pair<SliceId, AtlasPtr>> fresh;
  for (const std::string& path : atlas_store.list()) {
    std::optional<store::AtlasRecord> record;
    try {
      record.emplace(store::load_atlas(path));
    } catch (const store::StaleRecordError& e) {
      // Written correctly by an older build: not served (the scan that
      // made it answers differently) and not corrupt. The slice is rebuilt
      // on first query and the next checkpoint() overwrites the file.
      std::fprintf(stderr, "warm_from_store: skipping %s: %s\n",
                   path.c_str(), e.what());
      atlases_skipped_.fetch_add(1);
      continue;
    } catch (const store::SerialError& e) {
      // One corrupt, truncated or foreign file (a crash mid-write, a disk
      // error) must not abort warming the healthy rest of the store — and
      // must not be silently re-read forever: set it aside with a journal
      // line so fsck / operators can inspect it.
      try {
        store::quarantine_file(path, e.what());
        std::fprintf(stderr, "warm_from_store: quarantined %s: %s\n",
                     path.c_str(), e.what());
        atlases_quarantined_.fetch_add(1);
      } catch (const store::SerialError& rename_error) {
        std::fprintf(stderr, "warm_from_store: skipping %s: %s\n",
                     path.c_str(), rename_error.what());
        atlases_skipped_.fetch_add(1);
      }
      continue;
    }
    const store::AtlasKey key = store::AtlasKey::of(*record);
    if (key.machine != machine_.name() ||
        !same_config(key.config, config_.atlas)) {
      continue;  // built for another machine model or another scan geometry
    }
    // Store keys may carry any value at the scanned coordinate (canonical()
    // zeroes it only when printing); normalise here (load_atlas has checked
    // that dim indexes the base). A record this service could not have
    // built — its name or arity past the key bounds, a family the registry
    // does not make, the wrong arity, a fixed coordinate out of range — is
    // skipped like a foreign one: every published slice must name a valid
    // line, or the warm path would answer queries validation rejects and
    // refresh_slices() would fail on it.
    SliceId id;
    if (!make_key(key.family, key.base, key.dim, false, 0, id) ||
        !adoptable(key)) {
      continue;
    }
    id.dims[static_cast<std::size_t>(key.dim)] = 0;
    fresh.emplace_back(id, std::make_shared<const anomaly::RegionAtlas>(
                               std::move(record->atlas)));
  }
  // One hold adopts everything; already-present slices win (they may be
  // referenced by outstanding atlas_for() pointers), and the atlases not
  // adopted are freed with `fresh`, outside the lock.
  std::size_t adopted = 0;
  {
    const std::lock_guard<std::mutex> lock(slices_mutex_);
    for (auto& [id, atlas] : fresh) {
      adopted += slices_.try_emplace(id, std::move(atlas)).second ? 1 : 0;
    }
  }
  atlases_loaded_.fetch_add(adopted);
  return adopted;
}

std::size_t SelectionService::checkpoint(store::AtlasStore& atlas_store) const {
  std::vector<std::pair<SliceId, AtlasPtr>> published;
  {
    const std::lock_guard<std::mutex> lock(slices_mutex_);
    published.assign(slices_.begin(), slices_.end());
  }
  const std::string machine = machine_.name();
  for (const auto& [id, atlas] : published) {
    atlas_store.save(store::AtlasKey{std::string(id.family_name()), machine,
                                     id.dim, id.instance(), config_.atlas},
                     *atlas);
  }
  return published.size();
}

std::size_t SelectionService::refresh_slices() {
  // One refresh round at a time: a second caller rebuilds against the new
  // generation, never the same stale one twice.
  const std::lock_guard<std::mutex> refresh_lock(refresh_mutex_);
  // The stale generation: everything published at this instant. Slices that
  // appear concurrently (on-demand builds) were scanned against the
  // machine's current timings and are not stale.
  std::vector<SliceId> ids;
  {
    const std::lock_guard<std::mutex> lock(slices_mutex_);
    ids.reserve(slices_.size());
    for (const auto& [id, atlas] : slices_) {
      ids.push_back(id);
    }
  }
  if (ids.empty()) {
    refresh_rounds_.fetch_add(1);
    return 0;
  }

  // Rebuild every stale slice off to the side; queries keep answering from
  // the old generation the whole time. A build failure throws out of here
  // with the old generation fully intact.
  std::vector<AtlasPtr> rebuilt(ids.size());
  for_each_parallel(ids.size(),
                    [&](std::size_t i) { rebuilt[i] = build_slice(ids[i]); });

  // One hold swaps the whole stale set. Slices published since the ids were
  // copied are left as they are. The replaced atlases end up in `rebuilt`
  // and are freed when it goes out of scope, outside the lock, once no
  // answer still holds one.
  {
    const std::lock_guard<std::mutex> lock(slices_mutex_);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      slices_.at(ids[i]).swap(rebuilt[i]);
    }
  }
  // Cached recommendations quote the stale generation. Advance the
  // generation after the swap: an answer that read it afterwards also found
  // the new atlases, and one that read it before — and may still store its
  // replaced-atlas answer after the clear below — is keyed under the old
  // generation, which no later lookup asks for. The clear frees their slots
  // (and resets the LRU hit/miss pair; the monotonic per-source counters
  // are unaffected).
  generation_.fetch_add(1, std::memory_order_release);
  cache_.clear();
  slices_refreshed_.fetch_add(ids.size());
  refresh_rounds_.fetch_add(1);
  return ids.size();
}

const anomaly::RegionAtlas* SelectionService::atlas_for(const Query& q) {
  family_for(q);
  // The slice map keeps the atlas alive until refresh_slices() replaces it.
  return find_slice(slice_id(q)).get();
}

std::size_t SelectionService::atlas_count() const {
  const std::lock_guard<std::mutex> lock(slices_mutex_);
  return slices_.size();
}

ServiceStats SelectionService::stats() const {
  ServiceStats s;
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.atlases_built = atlases_built_.load();
  s.atlases_loaded = atlases_loaded_.load();
  s.atlases_skipped = atlases_skipped_.load();
  s.measured_queries = measured_queries_.load();
  s.atlas_samples = atlas_samples_.load();
  s.cache_answers = cache_answers_.load();
  s.atlas_answers = atlas_answers_.load();
  s.batch_calls = batch_calls_.load();
  s.batch_queries = batch_queries_.load();
  s.async_calls = async_calls_.load();
  s.slices_refreshed = slices_refreshed_.load();
  s.refresh_rounds = refresh_rounds_.load();
  s.degraded_answers = degraded_answers_.load();
  s.builds_shed = builds_shed_.load();
  s.breaker_opens = breaker_opens_.load();
  s.atlases_quarantined = atlases_quarantined_.load();
  return s;
}

}  // namespace lamb::serve

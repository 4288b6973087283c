#include "obs/trace.hpp"

#include <algorithm>

#include "support/str.hpp"

namespace lamb::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

/// One ring slot: a per-slot seqlock over all-atomic payload fields. The
/// writer (the owning thread) bumps seq odd, stores the payload words with
/// release, and bumps seq even; the reader loads seq, then the payload
/// words with acquire, then seq again, and discards the slot when seq was
/// odd or changed. A reader that sees any word of a newer write therefore
/// synchronises with it and sees that write's odd seq on its second load
/// (Boehm, "Can seqlocks get along with programming language memory
/// models?", MSPC 2012). No fences: TSan models acquire and release on the
/// atomics but not std::atomic_thread_fence. Plain fields would be a data
/// race under a wrapping writer — all-atomic keeps TSan exact. On x86 the
/// release stores and acquire loads are the same plain moves as relaxed.
struct Slot {
  std::atomic<std::uint64_t> seq{0};
  std::atomic<std::uint64_t> trace_id{0};
  std::atomic<std::uint64_t> ids{0};    ///< span_id | parent_id << 32
  /// stage | pmu-valid << 7 | thread_index << 8 (stages are 0..6, so bit 7
  /// of the low byte is free for the PMU flag).
  std::atomic<std::uint64_t> meta{0};
  std::atomic<std::uint64_t> t_start{0};
  std::atomic<std::uint64_t> t_end{0};
  std::atomic<std::uint64_t> flops{0};
  std::atomic<std::uint64_t> pmu_cycles{0};
  std::atomic<std::uint64_t> pmu_instructions{0};
  std::atomic<std::uint64_t> pmu_llc_loads{0};
  std::atomic<std::uint64_t> pmu_llc_misses{0};
  std::atomic<std::uint64_t> pmu_stalled{0};
};
constexpr std::uint64_t kMetaPmuValid = 0x80;

/// The owning thread's cached lane pointer; invalidated when the tracer's
/// generation moves (configure() dropped the lanes it pointed into).
thread_local detail::Lane* t_lane = nullptr;
thread_local std::uint64_t t_lane_generation = 0;

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += support::strf("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string_view to_string(Stage stage) {
  switch (stage) {
    case Stage::kRequest:
      return "request";
    case Stage::kParse:
      return "parse";
    case Stage::kRoute:
      return "route";
    case Stage::kLru:
      return "lru";
    case Stage::kAtlas:
      return "atlas";
    case Stage::kBuild:
      return "build";
    case Stage::kKernel:
      return "kernel";
  }
  return "?";
}

/// Per-stage PMU accumulators: owner-written with relaxed adds, merged at
/// scrape time (same contract as the stage histograms).
struct PmuAgg {
  std::atomic<std::uint64_t> samples{0};
  std::atomic<std::uint64_t> cycles{0};
  std::atomic<std::uint64_t> instructions{0};
  std::atomic<std::uint64_t> llc_loads{0};
  std::atomic<std::uint64_t> llc_misses{0};
  std::atomic<std::uint64_t> stalled{0};
  std::atomic<std::uint64_t> flops{0};
};

struct detail::Lane {
  Lane(std::size_t capacity, std::uint32_t lane_index)
      : ring(capacity), mask(capacity - 1), index(lane_index) {}

  std::vector<Slot> ring;  ///< power-of-two sized, never resized
  std::uint64_t mask;
  std::atomic<std::uint64_t> head{0};  ///< total spans pushed by the owner
  std::uint32_t index;
  std::array<support::LatencyHistogram, kStageCount> stages;
  std::array<PmuAgg, kStageCount> pmu;
  std::array<support::LatencyHistogram, kStageCount> pmu_ipc;
};

Tracer::Tracer() = default;
Tracer::~Tracer() = default;

Tracer& tracer() {
  // Leaked on purpose: worker thread_locals and late Responder tickets may
  // record past any static destruction order.
  static Tracer* instance = new Tracer();
  return *instance;
}

void Tracer::configure(const TracerConfig& config) {
  {
    const std::lock_guard<std::mutex> lock(lanes_mutex_);
    lanes_.clear();
    ring_capacity_ = round_up_pow2(std::max<std::size_t>(config.ring_capacity,
                                                         8));
    generation_.fetch_add(1, std::memory_order_release);
  }
  {
    const std::lock_guard<std::mutex> lock(slow_mutex_);
    slow_.clear();
    slow_next_ = 0;
    slow_capacity_ = std::max<std::size_t>(config.slow_capacity, 1);
  }
  sample_every_.store(config.sample_every, std::memory_order_relaxed);
  slow_threshold_ns_.store(config.slow_threshold_ns,
                           std::memory_order_relaxed);
  next_trace_.store(1, std::memory_order_relaxed);
  sampled_.store(0, std::memory_order_relaxed);
  slow_admitted_.store(0, std::memory_order_relaxed);
  detail::g_enabled.store(config.enabled, std::memory_order_relaxed);
}

TracerConfig Tracer::config() const {
  TracerConfig out;
  out.enabled = enabled();
  out.sample_every = sample_every();
  out.slow_threshold_ns = slow_threshold_ns();
  {
    const std::lock_guard<std::mutex> lock(lanes_mutex_);
    out.ring_capacity = ring_capacity_;
  }
  {
    const std::lock_guard<std::mutex> lock(slow_mutex_);
    out.slow_capacity = slow_capacity_;
  }
  return out;
}

void Tracer::set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void Tracer::set_sample_every(std::uint32_t n) {
  sample_every_.store(n, std::memory_order_relaxed);
}

void Tracer::set_slow_threshold_ns(std::uint64_t ns) {
  slow_threshold_ns_.store(ns, std::memory_order_relaxed);
}

detail::Lane& Tracer::lane() {
  const std::uint64_t generation =
      generation_.load(std::memory_order_acquire);
  if (t_lane == nullptr || t_lane_generation != generation) {
    const std::lock_guard<std::mutex> lock(lanes_mutex_);
    auto owned = std::make_unique<detail::Lane>(
        ring_capacity_, static_cast<std::uint32_t>(lanes_.size()));
    t_lane = owned.get();
    t_lane_generation = generation_.load(std::memory_order_relaxed);
    lanes_.push_back(std::move(owned));
  }
  return *t_lane;
}

void Tracer::push(detail::Lane& lane, const SpanRecord& record) {
  const std::uint64_t head = lane.head.load(std::memory_order_relaxed);
  Slot& slot = lane.ring[head & lane.mask];
  const std::uint64_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_relaxed);  // odd: write begun
  slot.trace_id.store(record.trace_id, std::memory_order_release);
  slot.ids.store(static_cast<std::uint64_t>(record.span_id) |
                     (static_cast<std::uint64_t>(record.parent_id) << 32),
                 std::memory_order_release);
  slot.meta.store(static_cast<std::uint64_t>(record.stage) |
                      (record.pmu.valid ? kMetaPmuValid : 0) |
                      (static_cast<std::uint64_t>(lane.index) << 8),
                  std::memory_order_release);
  slot.t_start.store(record.t_start_ns, std::memory_order_release);
  slot.t_end.store(record.t_end_ns, std::memory_order_release);
  slot.flops.store(record.flops, std::memory_order_release);
  slot.pmu_cycles.store(record.pmu.cycles, std::memory_order_release);
  slot.pmu_instructions.store(record.pmu.instructions,
                              std::memory_order_release);
  slot.pmu_llc_loads.store(record.pmu.llc_loads, std::memory_order_release);
  slot.pmu_llc_misses.store(record.pmu.llc_misses,
                            std::memory_order_release);
  slot.pmu_stalled.store(record.pmu.stalled_backend,
                         std::memory_order_release);
  slot.seq.store(seq + 2, std::memory_order_release);  // even: committed
  lane.head.store(head + 1, std::memory_order_release);
}

RequestTrace Tracer::begin_request(std::string_view label,
                                   std::uint64_t start_ns) {
  RequestTrace trace;
  if (!enabled()) {
    return trace;
  }
  trace.started = true;
  trace.start_ns = start_ns != 0 ? start_ns : now_ns();
  trace.ctx.trace_id = next_trace_.fetch_add(1, std::memory_order_relaxed);
  // Deterministic 1-in-N on the trace id itself (the first request after
  // configure() is always sampled — a lone debug query yields a trace).
  const std::uint32_t every = sample_every_.load(std::memory_order_relaxed);
  trace.ctx.sampled =
      every != 0 && (trace.ctx.trace_id - 1) % every == 0;
  if (trace.ctx.sampled) {
    trace.ctx.parent_span = alloc_span_id();  // the root span's id
    trace.label = std::string(label);
    sampled_.fetch_add(1, std::memory_order_relaxed);
  }
  return trace;
}

void Tracer::end_request(RequestTrace& trace) {
  if (!trace.started) {
    return;
  }
  trace.started = false;
  const std::uint64_t t1 = now_ns();
  record_stage(Stage::kRequest, trace.start_ns, t1);
  if (!trace.ctx.sampled) {
    return;
  }
  detail::Lane& ln = lane();
  push(ln, SpanRecord{trace.ctx.trace_id, trace.ctx.parent_span, 0, ln.index,
                      Stage::kRequest, trace.start_ns, t1, {}, 0});
  if (t1 - trace.start_ns >=
      slow_threshold_ns_.load(std::memory_order_relaxed)) {
    admit_slow(trace, t1);
  }
}

void Tracer::record_span(const TraceContext& ctx, Stage stage,
                         std::uint64_t t0, std::uint64_t t1) {
  if (!ctx.sampled || !enabled()) {
    return;
  }
  detail::Lane& ln = lane();
  push(ln, SpanRecord{ctx.trace_id, alloc_span_id(), ctx.parent_span,
                      ln.index, stage, t0, t1, {}, 0});
}

void Tracer::record_stage(Stage stage, std::uint64_t t0, std::uint64_t t1) {
  if (!enabled()) {
    return;
  }
  lane().stages[static_cast<std::size_t>(stage)].record(
      static_cast<double>(t1 - t0) * 1e-9);
}

void Tracer::admit_slow(const RequestTrace& trace, std::uint64_t t_end_ns) {
  SlowTrace entry;
  entry.trace_id = trace.ctx.trace_id;
  entry.t_start_ns = trace.start_ns;
  entry.duration_ns = t_end_ns - trace.start_ns;
  entry.label = trace.label;
  entry.spans = collect_trace(trace.ctx.trace_id);
  const std::lock_guard<std::mutex> lock(slow_mutex_);
  if (slow_.size() < slow_capacity_) {
    slow_.push_back(std::move(entry));
  } else {
    slow_[slow_next_ % slow_capacity_] = std::move(entry);
  }
  slow_next_ = (slow_next_ + 1) % slow_capacity_;
  slow_admitted_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<SpanRecord> Tracer::scan_lanes(
    std::uint64_t trace_filter) const {
  std::vector<SpanRecord> out;
  const std::lock_guard<std::mutex> lock(lanes_mutex_);
  for (const std::unique_ptr<detail::Lane>& lane : lanes_) {
    const std::uint64_t head = lane->head.load(std::memory_order_acquire);
    const std::uint64_t capacity = lane->mask + 1;
    const std::uint64_t n = std::min<std::uint64_t>(head, capacity);
    for (std::uint64_t i = head - n; i < head; ++i) {
      const Slot& slot = lane->ring[i & lane->mask];
      const std::uint64_t seq1 = slot.seq.load(std::memory_order_acquire);
      if ((seq1 & 1) != 0) {
        continue;  // mid-write
      }
      SpanRecord record;
      record.trace_id = slot.trace_id.load(std::memory_order_acquire);
      const std::uint64_t ids = slot.ids.load(std::memory_order_acquire);
      const std::uint64_t meta = slot.meta.load(std::memory_order_acquire);
      record.t_start_ns = slot.t_start.load(std::memory_order_acquire);
      record.t_end_ns = slot.t_end.load(std::memory_order_acquire);
      record.flops = slot.flops.load(std::memory_order_acquire);
      record.pmu.cycles = slot.pmu_cycles.load(std::memory_order_acquire);
      record.pmu.instructions =
          slot.pmu_instructions.load(std::memory_order_acquire);
      record.pmu.llc_loads =
          slot.pmu_llc_loads.load(std::memory_order_acquire);
      record.pmu.llc_misses =
          slot.pmu_llc_misses.load(std::memory_order_acquire);
      record.pmu.stalled_backend =
          slot.pmu_stalled.load(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != seq1) {
        continue;  // overwritten while reading
      }
      record.span_id = static_cast<std::uint32_t>(ids);
      record.parent_id = static_cast<std::uint32_t>(ids >> 32);
      record.stage = static_cast<Stage>(meta & 0x7f);
      record.pmu.valid = (meta & kMetaPmuValid) != 0;
      record.thread_index = static_cast<std::uint32_t>(meta >> 8);
      if (record.trace_id == 0 ||
          (trace_filter != 0 && record.trace_id != trace_filter)) {
        continue;
      }
      out.push_back(record);
    }
  }
  return out;
}

std::vector<SpanRecord> Tracer::recent_spans() const { return scan_lanes(0); }

std::vector<SpanRecord> Tracer::collect_trace(std::uint64_t trace_id) const {
  return scan_lanes(trace_id);
}

std::array<support::LatencyHistogram::Snapshot, kStageCount>
Tracer::stage_snapshots() const {
  std::array<support::LatencyHistogram::Snapshot, kStageCount> merged{};
  const std::lock_guard<std::mutex> lock(lanes_mutex_);
  for (const std::unique_ptr<detail::Lane>& lane : lanes_) {
    for (std::size_t s = 0; s < kStageCount; ++s) {
      const support::LatencyHistogram::Snapshot part =
          lane->stages[s].snapshot();
      for (std::size_t b = 0; b < part.counts.size(); ++b) {
        merged[s].counts[b] += part.counts[b];
      }
      merged[s].count += part.count;
      merged[s].sum_seconds += part.sum_seconds;
    }
  }
  return merged;
}

std::array<PmuStageTotals, kStageCount> Tracer::pmu_stage_totals() const {
  std::array<PmuStageTotals, kStageCount> merged{};
  const std::lock_guard<std::mutex> lock(lanes_mutex_);
  for (const std::unique_ptr<detail::Lane>& lane : lanes_) {
    for (std::size_t s = 0; s < kStageCount; ++s) {
      const PmuAgg& agg = lane->pmu[s];
      merged[s].samples += agg.samples.load(std::memory_order_relaxed);
      merged[s].cycles += agg.cycles.load(std::memory_order_relaxed);
      merged[s].instructions +=
          agg.instructions.load(std::memory_order_relaxed);
      merged[s].llc_loads += agg.llc_loads.load(std::memory_order_relaxed);
      merged[s].llc_misses += agg.llc_misses.load(std::memory_order_relaxed);
      merged[s].stalled_backend +=
          agg.stalled.load(std::memory_order_relaxed);
      merged[s].flops += agg.flops.load(std::memory_order_relaxed);
    }
  }
  return merged;
}

std::array<support::LatencyHistogram::Snapshot, kStageCount>
Tracer::pmu_ipc_snapshots() const {
  std::array<support::LatencyHistogram::Snapshot, kStageCount> merged{};
  const std::lock_guard<std::mutex> lock(lanes_mutex_);
  for (const std::unique_ptr<detail::Lane>& lane : lanes_) {
    for (std::size_t s = 0; s < kStageCount; ++s) {
      merged[s].merge(lane->pmu_ipc[s].snapshot());
    }
  }
  return merged;
}

std::vector<SlowTrace> Tracer::slow_traces() const {
  const std::lock_guard<std::mutex> lock(slow_mutex_);
  // Oldest first: start at the overwrite cursor when the ring has wrapped.
  std::vector<SlowTrace> out;
  out.reserve(slow_.size());
  const std::size_t n = slow_.size();
  const std::size_t first = n < slow_capacity_ ? 0 : slow_next_;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(slow_[(first + i) % n]);
  }
  return out;
}

TracerCounters Tracer::counters() const {
  TracerCounters c;
  c.requests = next_trace_.load(std::memory_order_relaxed) - 1;
  c.sampled = sampled_.load(std::memory_order_relaxed);
  c.slow = slow_admitted_.load(std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(lanes_mutex_);
  for (const std::unique_ptr<detail::Lane>& lane : lanes_) {
    c.spans += lane->head.load(std::memory_order_relaxed);
  }
  return c;
}

namespace {

/// The PMU attribution of one span as extra JSON object members (leading
/// comma), shared by the Chrome export and the slow log. Empty when the
/// span carried no valid counters.
std::string pmu_args_json(const SpanRecord& s) {
  std::string out;
  if (s.flops != 0) {
    out += support::strf(", \"flops\": %llu",
                         static_cast<unsigned long long>(s.flops));
    const std::uint64_t wall = s.t_end_ns - s.t_start_ns;
    if (wall != 0) {
      out += support::strf(", \"gflops\": %.2f",
                           static_cast<double>(s.flops) /
                               static_cast<double>(wall));
    }
  }
  if (!s.pmu.valid) {
    return out;
  }
  out += support::strf(
      ", \"cycles\": %llu, \"instructions\": %llu, \"ipc\": %.3f",
      static_cast<unsigned long long>(s.pmu.cycles),
      static_cast<unsigned long long>(s.pmu.instructions), s.pmu.ipc());
  if (s.pmu.llc_loads != 0 || s.pmu.llc_misses != 0) {
    out += support::strf(
        ", \"llc_loads\": %llu, \"llc_misses\": %llu, "
        "\"llc_miss_rate\": %.4f",
        static_cast<unsigned long long>(s.pmu.llc_loads),
        static_cast<unsigned long long>(s.pmu.llc_misses),
        s.pmu.llc_miss_rate());
  }
  if (s.pmu.stalled_backend != 0) {
    out += support::strf(
        ", \"stalled_backend\": %llu",
        static_cast<unsigned long long>(s.pmu.stalled_backend));
  }
  if (s.flops != 0 && s.pmu.cycles != 0) {
    out += support::strf(", \"flops_per_cycle\": %.3f",
                         static_cast<double>(s.flops) /
                             static_cast<double>(s.pmu.cycles));
  }
  return out;
}

}  // namespace

std::string Tracer::chrome_trace_json() const {
  std::vector<SpanRecord> spans = recent_spans();
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.t_start_ns < b.t_start_ns;
            });
  // Rebase timestamps so the viewer opens at t=0 with small numbers.
  const std::uint64_t t0 = spans.empty() ? 0 : spans.front().t_start_ns;
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out += support::strf(
        "%s\n  {\"name\": \"%s\", \"cat\": \"lamb\", \"ph\": \"X\", "
        "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
        "\"args\": {\"trace_id\": %llu, \"span_id\": %u, \"parent_id\": %u"
        "%s}}",
        i == 0 ? "" : ",", std::string(to_string(s.stage)).c_str(),
        static_cast<double>(s.t_start_ns - t0) / 1e3,
        static_cast<double>(s.t_end_ns - s.t_start_ns) / 1e3,
        s.thread_index, static_cast<unsigned long long>(s.trace_id),
        s.span_id, s.parent_id, pmu_args_json(s).c_str());
  }
  out += "\n]}\n";
  return out;
}

std::string Tracer::slow_json() const {
  const std::vector<SlowTrace> slow = slow_traces();
  std::string out = "[";
  for (std::size_t i = 0; i < slow.size(); ++i) {
    const SlowTrace& t = slow[i];
    // Per-stage rollup of the retained span tree: a slow entry names which
    // stage ate the time without re-sampling the request. kRequest (the
    // root) is skipped — it would just restate duration_us.
    std::array<std::uint64_t, kStageCount> stage_ns{};
    std::array<std::uint64_t, kStageCount> stage_count{};
    std::array<std::uint64_t, kStageCount> stage_cycles{};
    for (const SpanRecord& s : t.spans) {
      const std::size_t stage = static_cast<std::size_t>(s.stage);
      stage_ns[stage] += s.t_end_ns - s.t_start_ns;
      stage_count[stage] += 1;
      if (s.pmu.valid) {
        stage_cycles[stage] += s.pmu.cycles;
      }
    }
    out += support::strf(
        "%s\n  {\"trace_id\": %llu, \"label\": \"%s\", "
        "\"duration_us\": %.3f, \"stages\": {",
        i == 0 ? "" : ",", static_cast<unsigned long long>(t.trace_id),
        json_escape(t.label).c_str(),
        static_cast<double>(t.duration_ns) / 1e3);
    bool first_stage = true;
    for (std::size_t s = 1; s < kStageCount; ++s) {
      if (stage_count[s] == 0) {
        continue;
      }
      out += support::strf(
          "%s\"%s\": {\"count\": %llu, \"total_us\": %.3f",
          first_stage ? "" : ", ",
          std::string(to_string(static_cast<Stage>(s))).c_str(),
          static_cast<unsigned long long>(stage_count[s]),
          static_cast<double>(stage_ns[s]) / 1e3);
      if (stage_cycles[s] != 0) {
        out += support::strf(", \"cycles\": %llu",
                             static_cast<unsigned long long>(stage_cycles[s]));
      }
      out += "}";
      first_stage = false;
    }
    out += "}, \"spans\": [";
    for (std::size_t j = 0; j < t.spans.size(); ++j) {
      const SpanRecord& s = t.spans[j];
      out += support::strf(
          "%s\n    {\"stage\": \"%s\", \"span_id\": %u, \"parent_id\": %u, "
          "\"start_us\": %.3f, \"duration_us\": %.3f%s}",
          j == 0 ? "" : ",", std::string(to_string(s.stage)).c_str(),
          s.span_id, s.parent_id,
          static_cast<double>(s.t_start_ns - t.t_start_ns) / 1e3,
          static_cast<double>(s.t_end_ns - s.t_start_ns) / 1e3,
          pmu_args_json(s).c_str());
    }
    out += "\n  ]}";
  }
  out += "\n]\n";
  return out;
}

void SpanScope::begin(Stage stage) {
  stage_ = stage;
  armed_ = true;
  t0_ = now_ns();
  TraceContext& ctx = detail::t_context;
  if (ctx.sampled) {
    sampled_ = true;
    saved_parent_ = ctx.parent_span;
    span_id_ = tracer().alloc_span_id();
    ctx.parent_span = span_id_;  // children opened inside nest under us
    // Counters ride the sampled tier only: the 1-in-N spans that already
    // pay for ring pushes pick up PMU attribution, the rest stay at one
    // relaxed availability load inside arm().
    pmu_.arm();
  }
}

void SpanScope::finish() {
  const std::uint64_t t1 = now_ns();
  Tracer& t = tracer();
  if (sampled_) {
    const PmuSample pmu = pmu_.finish();
    TraceContext& ctx = detail::t_context;
    ctx.parent_span = saved_parent_;
    if (t.enabled()) {
      detail::Lane& ln = t.lane();
      t.push(ln, SpanRecord{ctx.trace_id, span_id_, saved_parent_, ln.index,
                            stage_, t0_, t1, pmu, flops_});
      if (pmu.valid) {
        const std::size_t s = static_cast<std::size_t>(stage_);
        PmuAgg& agg = ln.pmu[s];
        agg.samples.fetch_add(1, std::memory_order_relaxed);
        agg.cycles.fetch_add(pmu.cycles, std::memory_order_relaxed);
        agg.instructions.fetch_add(pmu.instructions,
                                   std::memory_order_relaxed);
        agg.llc_loads.fetch_add(pmu.llc_loads, std::memory_order_relaxed);
        agg.llc_misses.fetch_add(pmu.llc_misses, std::memory_order_relaxed);
        agg.stalled.fetch_add(pmu.stalled_backend,
                              std::memory_order_relaxed);
        agg.flops.fetch_add(flops_, std::memory_order_relaxed);
        ln.pmu_ipc[s].record(pmu.ipc());
      }
    }
  }
  t.record_stage(stage_, t0_, t1);
}

support::LatencyHistogram::Snapshot subtract_snapshot(
    const support::LatencyHistogram::Snapshot& now,
    const support::LatencyHistogram::Snapshot& before) {
  support::LatencyHistogram::Snapshot out;
  for (std::size_t b = 0; b < out.counts.size(); ++b) {
    out.counts[b] = now.counts[b] - before.counts[b];
  }
  out.count = now.count - before.count;
  out.sum_seconds = now.sum_seconds - before.sum_seconds;
  return out;
}

}  // namespace lamb::obs

#include "stream.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>

#include "expr/registry.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/generator.hpp"
#include "store/atlas_store.hpp"
#include "support/check.hpp"

namespace lambbench {

using lamb::serve::Query;

std::size_t Stream::bytes() const {
  std::size_t total = requests.capacity() * sizeof(CompactRequest);
  for (const Slot& s : slots) {
    total += sizeof(Slot) + s.base.capacity() * sizeof(int);
  }
  return total;
}

int Stream::coord(const CompactRequest& r, int i) const {
  return std::clamp(static_cast<int>(r.coord) + i, lo, hi);
}

Query Stream::query(std::uint32_t slot, int c) const {
  const Slot& s = slots[slot];
  Query q{s.family, s.base, s.dim, false};
  q.dims[static_cast<std::size_t>(s.dim)] = c;
  return q;
}

lamb::sim::PhaseSpec serving_phase(int bases, int requests, double locality,
                                   int locality_step, double batch_fraction) {
  lamb::sim::PhaseSpec ph;
  ph.name = "bench";
  // A uniform tick at `requests` per virtual second for one second: the
  // arrival times are irrelevant to a closed loop, only the count matters.
  ph.arrival = lamb::sim::Arrival::kUniform;
  ph.duration = 1.0;
  ph.rate = requests;
  ph.families = {{"aatb", 1.0}, {"chain4", 1.0}, {"gram", 1.0},
                 {"aatbc", 1.0}};
  ph.bases = bases;
  ph.locality = locality;
  ph.locality_step = locality_step;
  ph.batch_fraction = batch_fraction;
  ph.batch_size = 64;
  const lamb::anomaly::AtlasConfig atlas;  // the service's default geometry
  ph.lo = atlas.lo;
  ph.hi = atlas.hi;
  return ph;
}

Stream make_stream(const lamb::sim::PhaseSpec& phase, std::uint64_t seed,
                   Result& result) {
  Stream out;
  out.batch_size = phase.batch_size;
  out.lo = phase.lo;
  out.hi = phase.hi;
  std::map<std::pair<std::string, lamb::expr::Instance>, std::uint32_t> ids;
  {
    lamb::sim::TraceSpec spec;
    spec.phases.push_back(phase);
    const std::vector<lamb::sim::Request> requests =
        lamb::sim::TraceGenerator(spec, seed).generate();
    out.requests.reserve(requests.size());
    for (const lamb::sim::Request& req : requests) {
      const Query& first = req.queries.front();
      lamb::expr::Instance line = first.dims;
      line[static_cast<std::size_t>(first.dim)] = 0;
      const auto [it, fresh] = ids.try_emplace(
          {first.family, line}, static_cast<std::uint32_t>(out.slots.size()));
      if (fresh) {
        out.slots.push_back({first.family, first.dims, first.dim});
      }
      CompactRequest c;
      c.slot = it->second;
      c.coord = static_cast<std::uint16_t>(
          first.dims[static_cast<std::size_t>(first.dim)]);
      c.batch = req.batch;
      // The compact form must replay exactly what the generator produced.
      for (std::size_t i = 0; i < req.queries.size(); ++i) {
        LAMB_CHECK(req.queries[i] ==
                       out.query(c.slot, out.coord(c, static_cast<int>(i))),
                   "stream: request does not fold into (slot, coord)");
      }
      LAMB_CHECK(req.queries.size() == out.units(c),
                 "stream: unexpected batch size");
      out.requests.push_back(c);
      result.mix_value(c.slot);
      result.mix_value(c.coord);
      result.mix_value(c.batch);
    }
  }
  for (const Slot& s : out.slots) {
    result.mix(s.family.data(), s.family.size());
    result.mix(s.base.data(), s.base.size() * sizeof(int));
  }
  return out;
}

ScratchQueries::ScratchQueries(const Stream& stream) : stream_(stream) {
  singles_.reserve(stream.slots.size());
  batches_.reserve(stream.slots.size());
  for (std::uint32_t s = 0; s < stream.slots.size(); ++s) {
    singles_.push_back(stream.query(s, stream.lo));
    batches_.emplace_back(static_cast<std::size_t>(stream.batch_size),
                          singles_.back());
  }
}

const Query& ScratchQueries::single(const CompactRequest& r) {
  Query& q = singles_[r.slot];
  q.dims[static_cast<std::size_t>(q.dim)] = r.coord;
  return q;
}

const std::vector<Query>& ScratchQueries::batch(const CompactRequest& r) {
  std::vector<Query>& b = batches_[r.slot];
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i].dims[static_cast<std::size_t>(b[i].dim)] =
        stream_.coord(r, static_cast<int>(i));
  }
  return b;
}

double write_store(const Stream& stream, lamb::model::MachineModel& machine,
                   const std::string& dir) {
  std::filesystem::remove_all(dir);
  lamb::serve::ServiceConfig cfg;
  cfg.threads = host_threads();
  lamb::serve::SelectionService service(machine, cfg);
  std::vector<Query> firsts;
  for (std::uint32_t s = 0; s < stream.slots.size(); ++s) {
    firsts.push_back(stream.query(s, stream.lo));
  }
  service.warm(firsts);
  lamb::store::AtlasStore store(dir);
  const std::uint64_t t0 = now_ns();
  service.checkpoint(store);
  return static_cast<double>(now_ns() - t0) * 1e-6;
}

std::vector<lamb::anomaly::RegionAtlas> oracle_atlases(
    const Stream& stream, lamb::model::MachineModel& machine,
    const lamb::anomaly::AtlasConfig& config) {
  std::map<std::string, std::unique_ptr<lamb::expr::ExpressionFamily>> families;
  for (const Slot& s : stream.slots) {
    if (families.find(s.family) == families.end()) {
      families.emplace(s.family, lamb::expr::make_family(s.family));
    }
  }
  std::vector<std::optional<lamb::anomaly::RegionAtlas>> built(
      stream.slots.size());
  lamb::parallel::ThreadPool pool(host_threads());
  pool.parallel_for(static_cast<std::ptrdiff_t>(built.size()),
                    [&](std::ptrdiff_t begin, std::ptrdiff_t end) {
                      for (auto i = static_cast<std::size_t>(begin);
                           i < static_cast<std::size_t>(end); ++i) {
                        const Slot& s = stream.slots[i];
                        built[i].emplace(*families.at(s.family), machine,
                                         s.base, s.dim, config);
                      }
                    });
  std::vector<lamb::anomaly::RegionAtlas> out;
  out.reserve(built.size());
  for (auto& atlas : built) {
    out.push_back(std::move(*atlas));
  }
  return out;
}

bool matches(const lamb::serve::Recommendation& rec,
             const lamb::anomaly::AtlasInterval& interval) {
  return rec.algorithm == interval.recommended &&
         rec.flop_minimal == interval.flop_minimal &&
         rec.flops_reliable == !interval.anomalous &&
         rec.time_score == interval.worst_time_score;
}

void mix_answer(Result& result, const lamb::serve::Recommendation& rec) {
  result.mix_value(rec.algorithm);
  result.mix_value(rec.flop_minimal);
  result.mix_value(rec.flops_reliable);
  result.mix_value(rec.time_score);
}

}  // namespace lambbench

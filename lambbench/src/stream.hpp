// Seeded query streams for the serving workloads, in compact form.
//
// sim::TraceGenerator expands a spec eagerly into one heap-allocated Query
// per answered query — hundreds of bytes each, which at a few hundred
// thousand requests would dwarf the service's own memory and make
// peak_rss_mb measure the benchmark. The stream is therefore generated once,
// folded into 8-byte requests (slice slot, coordinate, batch flag), and the
// expansion freed before anything is timed. Replay rebuilds each Query in a
// per-slot scratch object by overwriting one coordinate, which allocates
// nothing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "anomaly/atlas.hpp"
#include "harness.hpp"
#include "model/machine.hpp"
#include "serve/selection_service.hpp"
#include "sim/trace.hpp"

namespace lambbench {

/// One atlas slice the stream touches: family, scanned dimension and base
/// line (the scanned coordinate is whatever the first query carried).
struct Slot {
  std::string family;
  lamb::expr::Instance base;
  int dim = 0;
};

struct CompactRequest {
  std::uint32_t slot = 0;
  std::uint16_t coord = 0;  ///< single query, or a batch's first coordinate
  bool batch = false;
};

struct Stream {
  std::vector<Slot> slots;  ///< first-touch order
  std::vector<CompactRequest> requests;
  int batch_size = 0;
  int lo = 0;
  int hi = 0;

  /// Queries a request answers (1, or batch_size).
  std::uint32_t units(const CompactRequest& r) const {
    return r.batch ? static_cast<std::uint32_t>(batch_size) : 1u;
  }
  std::size_t bytes() const;
  /// Coordinate of query `i` of a request (batches sweep upward, clamped).
  int coord(const CompactRequest& r, int i) const;
  lamb::serve::Query query(std::uint32_t slot, int coord) const;
};

/// The four families every serving workload mixes, equally weighted.
lamb::sim::PhaseSpec serving_phase(int bases, int requests, double locality,
                                   int locality_step, double batch_fraction);

/// Generate `phase` with sim::TraceGenerator from `seed` and compact it.
/// Mixes the stream into result.digest.
Stream make_stream(const lamb::sim::PhaseSpec& phase, std::uint64_t seed,
                   Result& result);

/// Reusable per-slot Query objects for allocation-free replay.
class ScratchQueries {
 public:
  explicit ScratchQueries(const Stream& stream);
  /// The single query of `r`, coordinate set.
  const lamb::serve::Query& single(const CompactRequest& r);
  /// The batch of `r`, coordinates set.
  const std::vector<lamb::serve::Query>& batch(const CompactRequest& r);

 private:
  const Stream& stream_;
  std::vector<lamb::serve::Query> singles_;
  std::vector<std::vector<lamb::serve::Query>> batches_;
};

/// Builds every slot's slice on a service with host_threads() build
/// workers and checkpoints them into a fresh store at `dir` — the store the
/// serving workloads warm from. Returns the checkpoint's milliseconds.
double write_store(const Stream& stream, lamb::model::MachineModel& machine,
                   const std::string& dir);

/// The oracle: one RegionAtlas per slot, built directly (not through the
/// service) on up to host_threads() threads.
std::vector<lamb::anomaly::RegionAtlas> oracle_atlases(
    const Stream& stream, lamb::model::MachineModel& machine,
    const lamb::anomaly::AtlasConfig& config);

/// True when `rec` carries the payload of `interval` (source ignored).
bool matches(const lamb::serve::Recommendation& rec,
             const lamb::anomaly::AtlasInterval& interval);

/// Digest of an answer payload (source excluded: it is provenance).
void mix_answer(Result& result, const lamb::serve::Recommendation& rec);

}  // namespace lambbench

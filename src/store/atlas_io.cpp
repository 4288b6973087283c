#include "store/atlas_io.hpp"

#include <limits>

#include "support/check.hpp"

namespace lamb::store {

void write_atlas(ByteWriter& w, const AtlasRecord& record) {
  const anomaly::RegionAtlas& atlas = record.atlas;
  w.str(record.family);
  w.str(record.machine);
  w.i32(atlas.symbolic_dimension());
  w.vec_i32(atlas.base_instance());
  w.i32(atlas.config().lo);
  w.i32(atlas.config().hi);
  w.i32(atlas.config().coarse_step);
  w.f64(atlas.config().time_score_threshold);
  w.i64(atlas.samples_used());
  w.u32(static_cast<std::uint32_t>(atlas.intervals().size()));
  for (const anomaly::AtlasInterval& interval : atlas) {
    w.i32(interval.hi);
    w.boolean(interval.anomalous);
    w.u32(interval.recommended);
    w.u32(interval.flop_minimal);
    w.f64(interval.worst_time_score);
  }
}

AtlasRecord read_atlas(ByteReader& r) {
  std::string family = r.str();
  std::string machine = r.str();
  const int dim = r.i32();
  expr::Instance base = r.vec_i32();
  anomaly::AtlasConfig config;
  config.lo = r.i32();
  config.hi = r.i32();
  config.coarse_step = r.i32();
  config.time_score_threshold = r.f64();
  const long long samples = r.i64();
  const std::uint32_t count = r.u32();
  // 21 payload bytes per interval: reject counts the payload cannot hold
  // before reserving (a corrupt count must not turn into bad_alloc).
  if (r.remaining() / 21 < count) {
    throw SerialError("truncated record: interval count exceeds payload");
  }
  std::vector<anomaly::AtlasInterval> intervals;
  intervals.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    anomaly::AtlasInterval interval;
    interval.hi = r.i32();
    interval.anomalous = r.boolean();
    interval.recommended = r.u32();
    interval.flop_minimal = r.u32();
    interval.worst_time_score = r.f64();
    intervals.push_back(interval);
  }
  try {
    return AtlasRecord{std::move(family), std::move(machine),
                       anomaly::RegionAtlas(std::move(base), dim, config,
                                            std::move(intervals), samples)};
  } catch (const support::CheckError& e) {
    // The RegionAtlas ctor enforces the partition invariants; surface a
    // violation as a serialization error, not a programming error.
    throw SerialError(std::string("corrupt atlas record: ") + e.what());
  }
}

void save_atlas(const std::string& path, const AtlasRecord& record) {
  ByteWriter w;
  write_atlas(w, record);
  write_file(path, kKindAtlas, kAtlasFormatVersion, w.bytes());
}

AtlasRecord load_atlas(const std::string& path) {
  const std::string payload = read_file(path, kKindAtlas, kAtlasFormatVersion);
  ByteReader r(payload);
  AtlasRecord record = read_atlas(r);
  r.expect_end();
  return record;
}

}  // namespace lamb::store

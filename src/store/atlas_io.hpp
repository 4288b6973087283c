// RegionAtlas persistence: exact round-trip of an atlas (base instance,
// symbolic dimension, scan config, intervals, sample count) together with
// the family and machine-model names it was built against — enough for a
// reader to refuse an atlas that does not match its own configuration.
#pragma once

#include <string>

#include "anomaly/atlas.hpp"
#include "store/serial.hpp"

namespace lamb::store {

/// Version 2: intervals carry no lower bound (it is the previous upper
/// bound + 1) and 32-bit algorithm indices; the tuple-refined scan with
/// breakpoint samples wrote it. Version-1 records came from the
/// flag-refined, majority-vote scan and are stale (StaleRecordError).
inline constexpr std::uint32_t kAtlasFormatVersion = 2;

/// An atlas plus the provenance needed to validate a lookup against it.
struct AtlasRecord {
  std::string family;
  std::string machine;
  anomaly::RegionAtlas atlas;
};

void write_atlas(ByteWriter& w, const AtlasRecord& record);
/// Throws SerialError on malformed input (including interval sets that do
/// not partition the config range — validated by the RegionAtlas ctor).
AtlasRecord read_atlas(ByteReader& r);

/// Framed-file convenience wrappers (kind kKindAtlas). load_atlas throws
/// StaleRecordError for an intact record of an older format version.
void save_atlas(const std::string& path, const AtlasRecord& record);
AtlasRecord load_atlas(const std::string& path);

}  // namespace lamb::store

// Performance-profile persistence: exact round-trip of GriddedProfile grids,
// and the drift monitor's baseline built on it, so the timings a service's
// atlases were built with survive a restart.
#pragma once

#include <string>

#include "model/perf_profile.hpp"
#include "store/serial.hpp"

namespace lamb::store {

inline constexpr std::uint32_t kProfileFormatVersion = 1;

void write_profile(ByteWriter& w, const model::GriddedProfile& profile);
model::GriddedProfile read_profile(ByteReader& r);

/// A single profile plus the machine it was measured on — the drift
/// monitor's persisted baseline (serve/drift.hpp), so a restarted service
/// detects drift against the timings its atlases were actually built with.
struct BaselineRecord {
  std::string machine;
  model::GriddedProfile profile;
};

/// Framed-file wrappers (kind kKindDriftBaseline; crash-safe like every
/// store write).
void save_drift_baseline(const std::string& path,
                         const BaselineRecord& record);
BaselineRecord load_drift_baseline(const std::string& path);

}  // namespace lamb::store

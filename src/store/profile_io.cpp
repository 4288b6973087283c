#include "store/profile_io.hpp"

#include "support/check.hpp"

namespace lamb::store {

void write_profile(ByteWriter& w, const model::GriddedProfile& profile) {
  w.u32(static_cast<std::uint32_t>(profile.dimension_count()));
  for (const std::vector<double>& axis : profile.axes()) {
    w.vec_f64(axis);
  }
  w.vec_f64(profile.values());
}

model::GriddedProfile read_profile(ByteReader& r) {
  const std::uint32_t dims = r.u32();
  if (dims == 0 || dims > 8) {
    throw SerialError("corrupt profile record: implausible axis count");
  }
  std::vector<std::vector<double>> axes;
  axes.reserve(dims);
  for (std::uint32_t d = 0; d < dims; ++d) {
    axes.push_back(r.vec_f64());
  }
  std::vector<double> values = r.vec_f64();
  try {
    return model::GriddedProfile(std::move(axes), std::move(values));
  } catch (const support::CheckError& e) {
    throw SerialError(std::string("corrupt profile record: ") + e.what());
  }
}

void save_drift_baseline(const std::string& path,
                         const BaselineRecord& record) {
  ByteWriter w;
  w.str(record.machine);
  write_profile(w, record.profile);
  write_file(path, kKindDriftBaseline, kProfileFormatVersion, w.bytes());
}

BaselineRecord load_drift_baseline(const std::string& path) {
  const std::string payload =
      read_file(path, kKindDriftBaseline, kProfileFormatVersion);
  ByteReader r(payload);
  std::string machine = r.str();
  model::GriddedProfile profile = read_profile(r);
  r.expect_end();
  return BaselineRecord{std::move(machine), std::move(profile)};
}

}  // namespace lamb::store

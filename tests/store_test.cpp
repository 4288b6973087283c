// store/: byte-level serialization, framed files, atlas/profile round-trips,
// and the AtlasStore directory. Corruption of every flavour (bad magic,
// wrong kind, wrong version, truncation, bit flips, invalid payloads) must
// surface as SerialError — never UB or a half-parsed object.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "model/simulated_machine.hpp"
#include "scripted.hpp"
#include "store/atlas_io.hpp"
#include "store/atlas_store.hpp"
#include "store/profile_io.hpp"
#include "store/serial.hpp"
#include "support/fault.hpp"

namespace {

using namespace lamb;
using store::ByteReader;
using store::ByteWriter;
using store::SerialError;

std::string temp_dir() {
  static int counter = 0;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("lamb_store_test_" + std::to_string(::getpid()) + "_" +
        std::to_string(counter++)))
          .string();
  std::filesystem::create_directories(dir);
  return dir;
}

anomaly::RegionAtlas scripted_atlas() {
  lamb::testing::ScriptedFamily family;
  lamb::testing::ScriptedMachine machine;
  anomaly::AtlasConfig cfg;
  cfg.lo = 20;
  cfg.hi = 1200;
  cfg.coarse_step = 40;
  return anomaly::RegionAtlas(family, machine, {300}, 0, cfg);
}

// ------------------------------------------------------------ byte codec

TEST(Serial, PrimitivesRoundTripExactly) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i32(-42);
  w.i64(-9'000'000'000LL);
  w.f64(-0.1);
  w.f64(1e-308);
  w.boolean(true);
  w.boolean(false);
  w.str(std::string("with\0nul", 8));
  w.vec_i32({1, -2, 3});
  w.vec_f64({0.5, -1.25});

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -9'000'000'000LL);
  EXPECT_EQ(r.f64(), -0.1);  // bit-exact, not approximate
  EXPECT_EQ(r.f64(), 1e-308);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), std::string("with\0nul", 8));
  EXPECT_EQ(r.vec_i32(), (std::vector<int>{1, -2, 3}));
  EXPECT_EQ(r.vec_f64(), (std::vector<double>{0.5, -1.25}));
  EXPECT_TRUE(r.at_end());
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Serial, EncodingIsLittleEndian) {
  ByteWriter w;
  w.u32(0x11223344);
  const std::string& b = w.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(b[0]), 0x44);
  EXPECT_EQ(static_cast<unsigned char>(b[3]), 0x11);
}

TEST(Serial, TruncatedReadsThrow) {
  ByteWriter w;
  w.u32(7);
  ByteReader r(w.bytes());
  r.u32();
  EXPECT_THROW(r.u8(), SerialError);
  ByteReader half(std::string_view(w.bytes().data(), 2));
  EXPECT_THROW(half.u32(), SerialError);
}

TEST(Serial, OverlongVectorLengthThrows) {
  // A length prefix claiming more elements than the payload can hold must be
  // rejected before any allocation of that size.
  ByteWriter w;
  w.u32(0xFFFFFFFF);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.vec_f64(), SerialError);
}

TEST(Serial, CorruptBooleanThrows) {
  ByteWriter w;
  w.u8(7);
  ByteReader r(w.bytes());
  EXPECT_THROW(r.boolean(), SerialError);
}

TEST(Serial, TrailingBytesAreRejected) {
  ByteWriter w;
  w.u32(1);
  w.u8(0);
  ByteReader r(w.bytes());
  r.u32();
  EXPECT_THROW(r.expect_end(), SerialError);
}

// ------------------------------------------------------------ framed files

TEST(Serial, FramedFileRoundTrips) {
  const std::string path = temp_dir() + "/frame.bin";
  store::write_file(path, store::kKindAtlas, 3, "payload bytes");
  EXPECT_EQ(store::read_file(path, store::kKindAtlas, 3), "payload bytes");
}

TEST(Serial, FramedFileRejectsBadMagicKindVersionAndMissing) {
  const std::string dir = temp_dir();
  const std::string path = dir + "/frame.bin";
  store::write_file(path, store::kKindAtlas, 1, "payload");

  EXPECT_THROW(store::read_file(dir + "/nope.bin", store::kKindAtlas, 1),
               SerialError);
  EXPECT_THROW(store::read_file(path, store::kKindProfile, 1), SerialError);
  // An older version than the reader's is stale; a newer one is not.
  EXPECT_THROW(store::read_file(path, store::kKindAtlas, 2),
               store::StaleRecordError);
  store::write_file(path, store::kKindAtlas, 3, "payload");
  try {
    store::read_file(path, store::kKindAtlas, 2);
    ADD_FAILURE() << "newer version accepted";
  } catch (const SerialError& e) {
    EXPECT_EQ(dynamic_cast<const store::StaleRecordError*>(&e), nullptr);
  }

  std::ofstream(dir + "/garbage.bin", std::ios::binary) << "not a lamb file";
  EXPECT_THROW(store::read_file(dir + "/garbage.bin", store::kKindAtlas, 1),
               SerialError);
}

TEST(Serial, FramedFileDetectsCorruptionAndTruncation) {
  const std::string dir = temp_dir();
  const std::string path = dir + "/frame.bin";
  store::write_file(path, store::kKindAtlas, 1, "payload payload payload");

  // Flip one payload byte: checksum mismatch.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-3, std::ios::end);
    f.put('X');
  }
  EXPECT_THROW(store::read_file(path, store::kKindAtlas, 1), SerialError);

  // Truncate the payload: size mismatch.
  store::write_file(path, store::kKindAtlas, 1, "payload payload payload");
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 4);
  EXPECT_THROW(store::read_file(path, store::kKindAtlas, 1), SerialError);

  // Truncate into the header.
  std::filesystem::resize_file(path, 10);
  EXPECT_THROW(store::read_file(path, store::kKindAtlas, 1), SerialError);
}

// ------------------------------------------------------------ atlas io

TEST(AtlasIo, RoundTripIsExact) {
  const anomaly::RegionAtlas atlas = scripted_atlas();
  const std::string path = temp_dir() + "/a.atlas";
  store::save_atlas(path, {"scripted", "scripted", atlas});

  const store::AtlasRecord back = store::load_atlas(path);
  EXPECT_EQ(back.family, "scripted");
  EXPECT_EQ(back.machine, "scripted");
  EXPECT_EQ(back.atlas.base_instance(), atlas.base_instance());
  EXPECT_EQ(back.atlas.symbolic_dimension(), atlas.symbolic_dimension());
  EXPECT_EQ(back.atlas.config().lo, atlas.config().lo);
  EXPECT_EQ(back.atlas.config().hi, atlas.config().hi);
  EXPECT_EQ(back.atlas.config().coarse_step, atlas.config().coarse_step);
  EXPECT_EQ(back.atlas.config().time_score_threshold,
            atlas.config().time_score_threshold);
  EXPECT_EQ(back.atlas.samples_used(), atlas.samples_used());
  ASSERT_EQ(back.atlas.intervals().size(), atlas.intervals().size());
  for (std::size_t i = 0; i < atlas.intervals().size(); ++i) {
    const auto& a = atlas.intervals()[i];
    const auto& b = back.atlas.intervals()[i];
    EXPECT_EQ(b.hi, a.hi);
    EXPECT_EQ(b.anomalous, a.anomalous);
    EXPECT_EQ(b.recommended, a.recommended);
    EXPECT_EQ(b.flop_minimal, a.flop_minimal);
    EXPECT_EQ(b.worst_time_score, a.worst_time_score);  // bit-exact
  }
  // Every lookup agrees, including the clamped edges.
  for (int size : {-5, 19, 20, 199, 200, 300, 400, 401, 1200, 5000}) {
    EXPECT_EQ(back.atlas.recommend(size), atlas.recommend(size)) << size;
    EXPECT_EQ(back.atlas.flops_reliable_at(size),
              atlas.flops_reliable_at(size))
        << size;
  }
  EXPECT_EQ(back.atlas.to_csv(), atlas.to_csv());
}

TEST(AtlasIo, CorruptIntervalPartitionIsRejected) {
  // A record whose intervals do not partition the range must fail cleanly.
  ByteWriter w;
  w.str("fam");
  w.str("mach");
  w.i32(0);              // dim
  w.vec_i32({300});      // base
  w.i32(20);             // lo
  w.i32(100);            // hi
  w.i32(10);             // step
  w.f64(0.05);           // threshold
  w.i64(3);              // samples
  w.u32(1);              // one interval...
  w.i32(60);             // ...that stops short of hi
  w.boolean(false);
  w.u32(0);
  w.u32(0);
  w.f64(0.0);
  ByteReader r(w.bytes());
  EXPECT_THROW(store::read_atlas(r), SerialError);
}

TEST(AtlasIo, TruncatedRecordThrows) {
  const anomaly::RegionAtlas atlas = scripted_atlas();
  ByteWriter w;
  store::write_atlas(w, {"scripted", "scripted", atlas});
  for (const std::size_t cut : {std::size_t{0}, std::size_t{3},
                                w.bytes().size() / 2, w.bytes().size() - 1}) {
    ByteReader r(std::string_view(w.bytes().data(), cut));
    EXPECT_THROW(store::read_atlas(r), SerialError) << "cut at " << cut;
  }
}

// ------------------------------------------------------------ profile io

TEST(ProfileIo, GriddedProfileRoundTripsExactly) {
  const model::GriddedProfile profile(
      {{1.0, 2.0, 4.0}, {1.0, 3.0}},
      [](const std::vector<double>& c) { return c[0] * 10 + c[1]; });
  ByteWriter w;
  store::write_profile(w, profile);
  ByteReader r(w.bytes());
  const model::GriddedProfile back = store::read_profile(r);
  EXPECT_EQ(back.axes(), profile.axes());
  EXPECT_EQ(back.values(), profile.values());
  EXPECT_EQ(back.interpolate({1.7, 2.2}), profile.interpolate({1.7, 2.2}));
}

TEST(ProfileIo, ProfileSetRoundTripsThroughFile) {
  model::SimulatedMachine machine;
  // A tiny grid keeps the test fast; build() benchmarks every node.
  const auto profiles =
      model::KernelProfileSet::build(machine, {20, 60, 180, 540});
  const std::string path = temp_dir() + "/p.profile";
  store::save_profile_set(path, {machine.name(), profiles});

  const store::ProfileSetRecord back = store::load_profile_set(path);
  EXPECT_EQ(back.machine, machine.name());
  for (const model::KernelCall& call :
       {model::make_gemm(100, 200, 50), model::make_syrk(80, 33),
        model::make_symm(120, 77), model::make_tricopy(99)}) {
    EXPECT_EQ(back.profiles.predicted_time(call),
              profiles.predicted_time(call))
        << call.to_string();
  }
}

TEST(ProfileIo, ValueCountMismatchIsRejected) {
  ByteWriter w;
  w.u32(1);                  // one axis
  w.vec_f64({1.0, 2.0});     // two nodes
  w.vec_f64({1.0, 2.0, 3.0});  // three values: grid wants two
  ByteReader r(w.bytes());
  EXPECT_THROW(store::read_profile(r), SerialError);
}

TEST(AtlasIo, HugeIntervalCountIsRejectedBeforeAllocation) {
  ByteWriter w;
  w.str("fam");
  w.str("mach");
  w.i32(0);
  w.vec_i32({300});
  w.i32(20);
  w.i32(100);
  w.i32(10);
  w.f64(0.05);
  w.i64(3);
  w.u32(0xFFFFFFFF);  // interval count far beyond the payload
  ByteReader r(w.bytes());
  EXPECT_THROW(store::read_atlas(r), SerialError);
}

TEST(ProfileIo, OverflowingGridSizeIsRejected) {
  // 8 axes of 256 nodes each: 256^8 wraps std::size_t to 0 if the grid size
  // is computed unchecked; the empty value vector must still be rejected.
  ByteWriter w;
  w.u32(8);
  std::vector<double> axis(256);
  for (std::size_t i = 0; i < axis.size(); ++i) {
    axis[i] = static_cast<double>(i);
  }
  for (int d = 0; d < 8; ++d) {
    w.vec_f64(axis);
  }
  w.vec_f64({});
  ByteReader r(w.bytes());
  EXPECT_THROW(store::read_profile(r), SerialError);
}

TEST(ProfileIo, ImplausibleAxisCountIsRejected) {
  ByteWriter w;
  w.u32(4096);
  ByteReader r(w.bytes());
  EXPECT_THROW(store::read_profile(r), SerialError);
}

// ------------------------------------------------------------ atlas store

TEST(AtlasStore, SaveLoadContainsAndList) {
  const anomaly::RegionAtlas atlas = scripted_atlas();
  store::AtlasStore atlas_store(temp_dir() + "/store");
  const store::AtlasKey key{"scripted", "scripted", 0, {300},
                            atlas.config()};
  EXPECT_FALSE(atlas_store.contains(key));
  EXPECT_FALSE(atlas_store.load(key).has_value());
  EXPECT_EQ(atlas_store.size(), 0u);

  atlas_store.save(key, atlas);
  EXPECT_TRUE(atlas_store.contains(key));
  EXPECT_EQ(atlas_store.size(), 1u);
  const auto back = atlas_store.load(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->to_csv(), atlas.to_csv());

  // The scanned coordinate is canonicalised away: any base along the slice
  // maps to the same record.
  const store::AtlasKey other{"scripted", "scripted", 0, {999},
                              atlas.config()};
  EXPECT_TRUE(atlas_store.contains(other));

  // A different config is a different atlas.
  anomaly::AtlasConfig narrower = atlas.config();
  narrower.hi = 600;
  EXPECT_FALSE(atlas_store.contains(
      store::AtlasKey{"scripted", "scripted", 0, {300}, narrower}));
}

TEST(AtlasStore, WritesAreStagedAndAtomicallyRenamed) {
  const anomaly::RegionAtlas atlas = scripted_atlas();
  const std::string dir = temp_dir() + "/store";
  store::AtlasStore atlas_store(dir);
  const store::AtlasKey key{"scripted", "scripted", 0, {300},
                            atlas.config()};

  // Overwriting an existing record goes through a ".tmp" sibling + rename,
  // so a reader can never observe a half-written frame; afterwards no temp
  // file lingers and the record is intact.
  atlas_store.save(key, atlas);
  atlas_store.save(key, atlas);
  std::size_t total_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    ++total_files;
  }
  EXPECT_EQ(total_files, 1u);
  EXPECT_EQ(atlas_store.list().size(), 1u);
  const auto back = atlas_store.load(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->to_csv(), atlas.to_csv());

  // A stale ".tmp" from a simulated crash is invisible to the store.
  { std::ofstream stale(dir + "/deadbeef.atlas.tmp"); stale << "junk"; }
  EXPECT_EQ(atlas_store.list().size(), 1u);
}

TEST(AtlasStore, CrashBeforeRenameLeavesDestinationUntouched) {
  const anomaly::RegionAtlas atlas = scripted_atlas();
  const std::string dir = temp_dir() + "/store";
  store::AtlasStore atlas_store(dir);
  const store::AtlasKey key{"scripted", "scripted", 0, {300},
                            atlas.config()};
  atlas_store.save(key, atlas);
  const std::string canonical = [&] {
    std::ifstream in(atlas_store.path_for(key), std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }();

  // The store.write fault fires after the staged bytes are flushed but
  // BEFORE the atomic rename — the crash window the fsync-then-rename
  // protocol protects. The destination must be byte-identical to the last
  // good save; only a ".tmp" straggler may remain.
  {
    support::FaultScope fault("store.write=always");
    EXPECT_THROW(atlas_store.save(key, atlas), SerialError);
    EXPECT_EQ(support::fault_injected(support::FaultSite::kStoreWrite), 1u);
  }
  {
    std::ifstream in(atlas_store.path_for(key), std::ios::binary);
    const std::string after((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(after, canonical);
  }

  // Disarmed, the same save completes and the record still round-trips.
  atlas_store.save(key, atlas);
  const auto back = atlas_store.load(key);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->to_csv(), atlas.to_csv());
}

TEST(AtlasStore, ForeignFileUnderKeyNameIsRejected) {
  const anomaly::RegionAtlas atlas = scripted_atlas();
  store::AtlasStore atlas_store(temp_dir() + "/store");
  const store::AtlasKey key{"scripted", "scripted", 0, {300},
                            atlas.config()};
  // Write a record with a different identity at this key's path.
  store::save_atlas(atlas_store.path_for(key),
                    {"other_family", "scripted", atlas});
  EXPECT_THROW(atlas_store.load(key), SerialError);
}

}  // namespace

// Region atlas: the paper's future-work proposal for the LAMP with symbolic
// sizes (Sec. 5 — "knowledge of the location of abrupt changes in the
// performance profiles of the kernels will help to localise regions of
// severe anomalies").
//
// Given an expression family, a machine, a base instance and ONE symbolic
// dimension, the atlas scans the dimension's whole range once and records,
// for every size, the answer tuple (anomalous, fastest algorithm,
// FLOP-minimal algorithm) as a partition into intervals of equal tuples.
// The scan samples where the kernels change:
//   * a coarse grid at `coarse_step`, both endpoints included;
//   * each machine breakpoint L and L + 1 inside the range
//     (MachineModel::breakpoints(): the sizes where some kernel's
//     efficiency steps, which are exactly the abrupt changes the paper
//     names);
//   * wherever two adjacent samples answer differently, recursive bisection
//     down to unit resolution, so every change of any tuple member that the
//     samples reveal lands on its exact size.
// Each run of equal tuples becomes one interval carrying that tuple and the
// worst time score over its samples. At run time — when the symbolic size
// becomes known — a query is a binary search: it answers "can I trust the
// FLOP count here, and if not, which algorithm should I run instead?"
// without any further measurement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "anomaly/classifier.hpp"

namespace lamb::anomaly {

/// One interval of the partition. Its lower bound is not stored: it is the
/// previous interval's `hi` + 1, or config.lo for the first
/// (RegionAtlas::interval_lo).
struct AtlasInterval {
  int hi = 0;                       ///< inclusive upper bound
  bool anomalous = false;
  std::uint32_t recommended = 0;    ///< fastest algorithm throughout
  std::uint32_t flop_minimal = 0;   ///< what the FLOP discriminant would pick
  double worst_time_score = 0.0;    ///< max time score over its samples
};
// A slice holds several intervals and a service holds thousands of slices.
static_assert(sizeof(AtlasInterval) <= 24);

struct AtlasConfig {
  int lo = 20;
  int hi = 1200;
  int coarse_step = 80;          ///< coarse-grid stride of the scan
  double time_score_threshold = 0.05;
};

class RegionAtlas {
 public:
  /// Scan dimension `dim` of `base` over [config.lo, config.hi].
  RegionAtlas(const expr::ExpressionFamily& family,
              model::MachineModel& machine, const expr::Instance& base,
              int dim, const AtlasConfig& config = {});

  /// Assemble an atlas from already-known parts — the deserialization path
  /// (store/atlas_io). Validates that `intervals` partitions
  /// [config.lo, config.hi]: non-empty, upper bounds strictly ascending from
  /// config.lo, the last equal to config.hi. Throws support::CheckError
  /// otherwise, so corrupt files cannot produce an atlas that violates the
  /// lookup() invariants.
  RegionAtlas(expr::Instance base, int dim, AtlasConfig config,
              std::vector<AtlasInterval> intervals, long long samples_used);

  const std::vector<AtlasInterval>& intervals() const { return intervals_; }
  /// Inclusive lower bound of `interval`, which must be one of this
  /// atlas's intervals (an element of intervals(), or what lookup()
  /// returned).
  int interval_lo(const AtlasInterval& interval) const {
    return &interval == intervals_.data() ? config_.lo
                                          : (&interval - 1)->hi + 1;
  }
  int symbolic_dimension() const { return dim_; }
  const expr::Instance& base_instance() const { return base_; }
  const AtlasConfig& config() const { return config_; }

  /// Interval iteration (`for (const AtlasInterval& iv : atlas)`).
  std::vector<AtlasInterval>::const_iterator begin() const {
    return intervals_.begin();
  }
  std::vector<AtlasInterval>::const_iterator end() const {
    return intervals_.end();
  }

  /// The interval covering `size`, by binary search. Sizes outside the
  /// scanned range clamp: anything below `config.lo` answers from the first
  /// interval, anything above `config.hi` from the last. A single-interval
  /// atlas therefore answers every query from that one interval.
  const AtlasInterval& lookup(int size) const;

  /// True when the FLOP-minimal algorithm is safe for this size.
  bool flops_reliable_at(int size) const;

  /// Index of the algorithm to run for this size (fastest per the atlas).
  std::size_t recommend(int size) const;

  /// Fraction of the scanned range covered by anomalous intervals.
  double anomalous_fraction() const;

  /// Number of classification samples spent building the atlas.
  long long samples_used() const { return samples_used_; }

  std::string to_string(
      const std::vector<std::string>& algorithm_names = {}) const;

  /// CSV rendering (header + one row per interval), the shape the store and
  /// the bench dumps share.
  std::string to_csv() const;

 private:
  expr::Instance base_;
  int dim_;
  AtlasConfig config_;
  std::vector<AtlasInterval> intervals_;
  long long samples_used_ = 0;
};

}  // namespace lamb::anomaly

#include "anomaly/atlas.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/str.hpp"

namespace lamb::anomaly {

namespace {

/// One classified scan coordinate: the answer tuple and its time score.
struct ScanPoint {
  int coord = 0;
  bool anomalous = false;
  std::uint32_t fastest = 0;
  std::uint32_t cheapest = 0;
  double time_score = 0.0;

  bool same_answer(const ScanPoint& o) const {
    return anomalous == o.anomalous && fastest == o.fastest &&
           cheapest == o.cheapest;
  }
};

/// Append to `points`, in ascending order, every sample bisection takes
/// strictly between `left` and `right`: while two neighbours answer
/// differently and lie more than one apart, classify the midpoint and
/// recurse on both halves, so each change the samples reveal lands on its
/// exact size. `left` is taken by value because callers pass
/// points.back(), which push_back may move.
template <class ClassifyAt>
void refine(ScanPoint left, const ScanPoint& right,
            const ClassifyAt& classify_at, std::vector<ScanPoint>& points) {
  if (right.coord - left.coord <= 1 || left.same_answer(right)) {
    return;
  }
  const ScanPoint mid =
      classify_at(left.coord + (right.coord - left.coord) / 2);
  refine(left, mid, classify_at, points);
  points.push_back(mid);
  refine(mid, right, classify_at, points);
}

}  // namespace

RegionAtlas::RegionAtlas(const expr::ExpressionFamily& family,
                         model::MachineModel& machine,
                         const expr::Instance& base, int dim,
                         const AtlasConfig& config)
    : base_(base), dim_(dim), config_(config) {
  LAMB_CHECK(dim >= 0 && dim < family.dimension_count(),
             "atlas: dimension out of range");
  LAMB_CHECK(config.lo >= 1 && config.hi >= config.lo, "atlas: bad range");
  LAMB_CHECK(config.coarse_step >= 1, "atlas: bad stride");

  // The coarse grid with both endpoints, plus each kernel breakpoint L and
  // L + 1 that falls inside the range.
  std::vector<int> coords;
  for (long long c = config_.lo; c <= config_.hi; c += config_.coarse_step) {
    coords.push_back(static_cast<int>(c));
  }
  coords.push_back(config_.hi);
  for (const int l : machine.breakpoints()) {
    if (l >= config_.lo && l <= config_.hi) {
      coords.push_back(l);
    }
    if (l >= config_.lo - 1 && l < config_.hi) {
      coords.push_back(l + 1);
    }
  }
  std::sort(coords.begin(), coords.end());
  coords.erase(std::unique(coords.begin(), coords.end()), coords.end());

  // One algorithm set and one classification scratch for the whole scan,
  // re-bound and overwritten in place per sample.
  expr::Instance dims = base_;
  std::vector<model::Algorithm> algs;
  ClassifyScratch scratch;
  const auto classify_at = [&](int coord) {
    dims[static_cast<std::size_t>(dim_)] = coord;
    family.bind(dims, algs);
    const Verdict v = classify(algs, machine, Timing::kInContext,
                               config_.time_score_threshold, scratch);
    return ScanPoint{coord, v.anomaly, static_cast<std::uint32_t>(v.fastest),
                     static_cast<std::uint32_t>(v.cheapest), v.time_score};
  };
  std::vector<ScanPoint> points;
  for (const int c : coords) {
    const ScanPoint p = classify_at(c);
    if (!points.empty()) {
      refine(points.back(), p, classify_at, points);
    }
    points.push_back(p);
  }
  samples_used_ = static_cast<long long>(points.size());

  // Each run of equal answers is one interval: adjacent samples that
  // answer differently are one apart after refinement, so a run's last
  // sample is its interval's upper bound.
  std::size_t runs = 1;
  for (std::size_t i = 1; i < points.size(); ++i) {
    runs += points[i].same_answer(points[i - 1]) ? 0 : 1;
  }
  intervals_.reserve(runs);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScanPoint& p = points[i];
    if (i == 0 || !p.same_answer(points[i - 1])) {
      intervals_.push_back(
          AtlasInterval{p.coord, p.anomalous, p.fastest, p.cheapest, 0.0});
    }
    AtlasInterval& interval = intervals_.back();
    interval.hi = p.coord;
    interval.worst_time_score =
        std::max(interval.worst_time_score, p.time_score);
  }
}

RegionAtlas::RegionAtlas(expr::Instance base, int dim, AtlasConfig config,
                         std::vector<AtlasInterval> intervals,
                         long long samples_used)
    : base_(std::move(base)), dim_(dim), config_(config),
      intervals_(std::move(intervals)), samples_used_(samples_used) {
  LAMB_CHECK(dim_ >= 0, "atlas: negative dimension");
  LAMB_CHECK(static_cast<std::size_t>(dim_) < base_.size(),
             "atlas: dimension out of range");
  LAMB_CHECK(config_.hi >= config_.lo, "atlas: bad range");
  LAMB_CHECK(!intervals_.empty(), "atlas: no intervals");
  long long previous_hi = static_cast<long long>(config_.lo) - 1;
  for (const AtlasInterval& interval : intervals_) {
    LAMB_CHECK(interval.hi > previous_hi,
               "atlas: interval bounds must ascend from config.lo");
    previous_hi = interval.hi;
  }
  LAMB_CHECK(intervals_.back().hi == config_.hi,
             "atlas: intervals must end at config.hi");
}

const AtlasInterval& RegionAtlas::lookup(int size) const {
  const int clamped = std::clamp(size, config_.lo, config_.hi);
  // First interval whose upper bound reaches `clamped`; the intervals are a
  // contiguous ascending partition, so it is the covering one.
  const auto it = std::partition_point(
      intervals_.begin(), intervals_.end(),
      [clamped](const AtlasInterval& interval) { return interval.hi < clamped; });
  return it != intervals_.end() ? *it : intervals_.back();
}

bool RegionAtlas::flops_reliable_at(int size) const {
  return !lookup(size).anomalous;
}

std::size_t RegionAtlas::recommend(int size) const {
  return lookup(size).recommended;
}

double RegionAtlas::anomalous_fraction() const {
  long long anomalous = 0;
  for (const AtlasInterval& interval : intervals_) {
    if (interval.anomalous) {
      anomalous += interval.hi - interval_lo(interval) + 1;
    }
  }
  const long long total =
      static_cast<long long>(config_.hi) - config_.lo + 1;
  return static_cast<double>(anomalous) / static_cast<double>(total);
}

std::string RegionAtlas::to_string(
    const std::vector<std::string>& algorithm_names) const {
  const auto name_of = [&](std::size_t i) {
    if (i < algorithm_names.size()) {
      return algorithm_names[i];
    }
    return support::strf("#%zu", i + 1);
  };
  std::string out = support::strf(
      "region atlas along d%d (other dims fixed), %lld samples:\n", dim_,
      samples_used_);
  for (const AtlasInterval& interval : intervals_) {
    out += support::strf(
        "  [%4d, %4d]  %-12s  run %-10s (FLOP-min: %s, worst ts %.1f%%)\n",
        interval_lo(interval), interval.hi,
        interval.anomalous ? "ANOMALOUS" : "flops-safe",
        name_of(interval.recommended).c_str(),
        name_of(interval.flop_minimal).c_str(),
        100.0 * interval.worst_time_score);
  }
  return out;
}

std::string RegionAtlas::to_csv() const {
  std::string out =
      "dim,lo,hi,anomalous,recommended,flop_minimal,worst_time_score\n";
  for (const AtlasInterval& interval : intervals_) {
    out += support::strf("%d,%d,%d,%d,%u,%u,%.17g\n", dim_,
                         interval_lo(interval),
                         interval.hi, interval.anomalous ? 1 : 0,
                         interval.recommended, interval.flop_minimal,
                         interval.worst_time_score);
  }
  return out;
}

}  // namespace lamb::anomaly

#include "anomaly/region.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace lamb::anomaly {

namespace {

struct Walk {
  int boundary = 0;
  std::vector<LineSample> samples;
};

}  // namespace

LineTraversal traverse_line(const expr::ExpressionFamily& family,
                            model::MachineModel& machine,
                            const expr::Instance& origin, int dim,
                            const TraversalConfig& config) {
  LAMB_CHECK(dim >= 0 && dim < family.dimension_count(),
             "dimension index out of range");
  LAMB_CHECK(config.step >= 1, "step must be positive");
  LAMB_CHECK(config.hole_tolerance >= 0, "hole tolerance must be >= 0");
  const int c0 = origin[static_cast<std::size_t>(dim)];
  LAMB_CHECK(c0 >= config.lo && c0 <= config.hi,
             "origin outside the search space");

  // One algorithm set for the whole line, re-bound in place per sample.
  expr::Instance dims = origin;
  std::vector<model::Algorithm> algs;
  const auto classify_at = [&](int coord) {
    dims[static_cast<std::size_t>(dim)] = coord;
    family.bind(dims, algs);
    return classify_algorithms(algs, machine, dims,
                               config.time_score_threshold);
  };

  const InstanceResult origin_result = classify_at(c0);
  const bool origin_anomalous = origin_result.anomaly;

  const auto walk = [&](int direction) {
    Walk w;
    int streak = origin_anomalous ? 0 : 1;
    int streak_start = c0;
    int coord = c0;
    for (;;) {
      const int next = coord + direction * config.step;
      if (next < config.lo || next > config.hi) {
        // Reached the search-space bound: the last instance is the boundary.
        w.boundary = coord;
        break;
      }
      coord = next;
      InstanceResult r = classify_at(coord);
      const bool anomalous = r.anomaly;
      w.samples.push_back(LineSample{coord, std::move(r)});
      if (anomalous) {
        streak = 0;
      } else {
        if (streak == 0) {
          streak_start = coord;
        }
        ++streak;
        if (streak > config.hole_tolerance) {
          // hole_tolerance+1 consecutive non-anomalies end the region; the
          // first of them is the boundary.
          w.boundary = streak_start;
          break;
        }
      }
    }
    return w;
  };

  Walk up = walk(+1);
  Walk down = walk(-1);

  LineTraversal t;
  t.dim = dim;
  t.origin = origin;
  t.boundary_hi = up.boundary;
  t.boundary_lo = down.boundary;

  t.samples.reserve(down.samples.size() + up.samples.size() + 1);
  for (auto it = down.samples.rbegin(); it != down.samples.rend(); ++it) {
    t.samples.push_back(std::move(*it));
  }
  t.samples.push_back(LineSample{c0, origin_result});
  for (auto& s : up.samples) {
    t.samples.push_back(std::move(s));
  }
  return t;
}

std::vector<LineTraversal> traverse_all_lines(
    const expr::ExpressionFamily& family, model::MachineModel& machine,
    const expr::Instance& origin, const TraversalConfig& config) {
  std::vector<LineTraversal> out;
  out.reserve(static_cast<std::size_t>(family.dimension_count()));
  for (int dim = 0; dim < family.dimension_count(); ++dim) {
    out.push_back(traverse_line(family, machine, origin, dim, config));
  }
  return out;
}

}  // namespace lamb::anomaly

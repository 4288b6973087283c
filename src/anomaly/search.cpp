#include "anomaly/search.hpp"

#include "support/check.hpp"

namespace lamb::anomaly {

RandomSearchResult random_search(const expr::ExpressionFamily& family,
                                 model::MachineModel& machine,
                                 const RandomSearchConfig& config,
                                 const SearchObserver& observer) {
  LAMB_CHECK(config.lo >= 1 && config.hi >= config.lo,
             "search box must be non-empty");
  LAMB_CHECK(config.target_anomalies >= 0, "target must be non-negative");

  support::Rng rng(config.seed);
  RandomSearchResult result;
  std::set<expr::Instance> seen_anomalies;
  std::vector<model::Algorithm> algs;  // re-bound in place per sample

  while (static_cast<int>(result.anomalies.size()) < config.target_anomalies &&
         result.samples < config.max_samples) {
    expr::Instance dims(static_cast<std::size_t>(family.dimension_count()));
    for (int& d : dims) {
      d = rng.uniform_int(config.lo, config.hi);
    }
    ++result.samples;
    family.bind(dims, algs);
    InstanceResult r = classify_algorithms(algs, machine, dims,
                                           config.time_score_threshold);
    if (observer) {
      observer(result.samples, r);
    }
    if (r.anomaly && seen_anomalies.insert(dims).second) {
      result.anomalies.push_back(std::move(r));
    }
  }
  return result;
}

}  // namespace lamb::anomaly

// Anomaly hunt: a compact version of the paper's Experiment 1 you can play
// with. Samples random instances of either expression, classifies each, and
// prints the anomalies it finds with their severity scores.
//
// Usage: ./examples/anomaly_hunt [--family=NAME] [--anomalies=N]
//                                [--hi=1200] [--seed=S] [--threshold=0.10]
// where NAME is any expr::registry() family (aatb, chain4, gram, aatbc, ...).
#include <cstdio>

#include "anomaly/driver.hpp"
#include "expr/registry.hpp"
#include "model/simulated_machine.hpp"
#include "support/cli.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace lamb;
  const support::Cli cli(argc, argv);

  anomaly::RandomSearchConfig cfg;
  cfg.hi = static_cast<int>(cli.get_int("hi", 1200));
  cfg.target_anomalies = static_cast<int>(cli.get_int("anomalies", 12));
  cfg.max_samples = cli.get_int("max-samples", 500000);
  cfg.time_score_threshold = cli.get_double("threshold", 0.10);
  cfg.seed = cli.get_seed("seed", 2022);
  const std::string family_name = cli.get_string("family", "aatb");
  cli.reject_unknown_flags();

  model::SimulatedMachine machine;
  anomaly::ExperimentDriver driver(family_name, machine);
  const expr::ExpressionFamily& family = driver.family();
  std::printf("hunting %d anomalies of %s in [%d, %d]^%d "
              "(time-score threshold %s)...\n\n",
              cfg.target_anomalies, family.name().c_str(), cfg.lo, cfg.hi,
              family.dimension_count(),
              support::format_percent(cfg.time_score_threshold, 0).c_str());

  const auto result = driver.random_search(cfg);

  support::Table table({"instance", "cheapest", "fastest", "time score",
                        "FLOP score"});
  for (const auto& a : result.anomalies) {
    std::string inst = "(";
    for (std::size_t i = 0; i < a.dims.size(); ++i) {
      inst += support::strf("%d%s", a.dims[i],
                            i + 1 < a.dims.size() ? "," : ")");
    }
    std::string cheap;
    for (std::size_t c : a.cheapest) {
      cheap += support::strf("%zu ", c + 1);
    }
    std::string fast;
    for (std::size_t f : a.fastest) {
      fast += support::strf("%zu ", f + 1);
    }
    table.add_row({inst, cheap, fast,
                   support::format_percent(a.time_score),
                   support::format_percent(a.flop_score)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\n%zu anomalies in %lld samples -> abundance %s\n",
              result.anomalies.size(), result.samples,
              support::format_percent(result.abundance(), 2).c_str());
  std::printf("(paper, threshold 10%%: aatb 9.7%%, chain 0.4%%)\n");
  return 0;
}

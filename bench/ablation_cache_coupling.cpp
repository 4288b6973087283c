// Ablation: inter-kernel cache effects on vs off.
//
// The paper filters out inter-kernel cache effects via the Experiment 3
// predictor and observes that "most of the anomalies remained as such".
// This bench makes the ablation explicit on the simulated machine: find
// anomalies with coupling enabled, re-classify every one on an otherwise
// identical machine with coupling disabled, and report the survival rate —
// plus the abundance under both machines. --families sweeps any registry
// families.
#include <cstdio>
#include <utility>

#include "bench_common.hpp"
#include "model/simulated_machine.hpp"

int main(int argc, char** argv) {
  using namespace lamb;
  bench::BenchContext ctx(argc, argv);
  bench::print_header("Ablation", "inter-kernel cache coupling on vs off",
                      ctx);
  if (ctx.real) {
    ctx.cli.reject_unknown_flags();
    std::printf("this ablation is defined on the simulated machine only\n");
    return 0;
  }
  // Every family's search, with its own default anomaly target.
  std::vector<std::pair<std::string, anomaly::RandomSearchConfig>> searches;
  for (const std::string& name : ctx.families("aatb,chain4")) {
    anomaly::RandomSearchConfig cfg;
    cfg.target_anomalies = static_cast<int>(
        ctx.cli.get_int("anomalies", name == "aatb" ? 300 : 40));
    cfg.max_samples = ctx.cli.get_int("max-samples", 100000);
    cfg.seed = ctx.cli.get_seed("seed", 2);
    searches.emplace_back(name, cfg);
  }
  ctx.cli.reject_unknown_flags();

  model::SimulatedMachineConfig on_cfg;
  model::SimulatedMachineConfig off_cfg;
  off_cfg.enable_coupling = false;
  model::SimulatedMachine coupled(on_cfg);
  model::SimulatedMachine uncoupled(off_cfg);

  auto csv = ctx.csv("ablation_cache_coupling");
  csv.row({"family", "abundance_coupled", "abundance_uncoupled",
           "anomaly_survival"});

  bench::Comparison cmp;
  for (const auto& [name, cfg] : searches) {
    anomaly::ExperimentDriver with_driver(name, coupled);
    anomaly::ExperimentDriver without_driver(name, uncoupled);

    const auto with = with_driver.random_search(cfg);
    const auto without = without_driver.random_search(cfg);

    int survived = 0;
    for (const auto& a : with.anomalies) {
      const auto re = anomaly::classify_instance(
          without_driver.family(), uncoupled, a.dims,
          cfg.time_score_threshold);
      survived += re.anomaly ? 1 : 0;
    }
    const double survival =
        with.anomalies.empty()
            ? 0.0
            : static_cast<double>(survived) /
                  static_cast<double>(with.anomalies.size());

    std::printf("%s: abundance %.2f%% (coupled) vs %.2f%% (uncoupled); "
                "%d / %zu anomalies survive decoupling (%.0f%%)\n",
                name.c_str(), 100.0 * with.abundance(),
                100.0 * without.abundance(), survived, with.anomalies.size(),
                100.0 * survival);
    csv.row(name, {with.abundance(), without.abundance(), survival});
    cmp.add(name + ": anomalies survive removing cache effects", "most",
            support::format_percent(survival, 0));
  }
  cmp.render();
  bench::print_csv_path(csv);
  return 0;
}

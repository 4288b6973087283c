// Ablation: abrupt kernel-variant steps vs smooth-only efficiency profiles.
//
// Section 4.1.3 attributes abrupt region-boundary transitions to internal
// kernel-variant switches. This bench removes every variant step from the
// simulated machine (keeping the smooth ramps) and measures how anomaly
// abundance changes — separating the two mechanisms the paper identifies.
// --families sweeps any registry families.
#include <cstdio>

#include "bench_common.hpp"
#include "model/simulated_machine.hpp"

namespace {

lamb::model::EfficiencyParams without_steps() {
  using namespace lamb::model;
  EfficiencyParams p = EfficiencyParams::xeon_like();
  p.gemm.tiny_factor = 1.0;
  p.gemm.small_k_factor = 1.0;
  p.gemm.mid_k_factor = 1.0;
  p.gemm.small_m_factor = 1.0;
  p.syrk.small_m_factor = 1.0;
  p.syrk.mid_m_factor = 1.0;
  p.symm.small_m_factor = 1.0;
  p.symm.mid_m_factor = 1.0;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lamb;
  bench::BenchContext ctx(argc, argv);
  bench::print_header("Ablation (paper Sec. 4.1.3)",
                      "kernel-variant steps vs smooth-only profiles", ctx);
  if (ctx.real) {
    ctx.cli.reject_unknown_flags();
    std::printf("this ablation is defined on the simulated machine only\n");
    return 0;
  }
  anomaly::RandomSearchConfig cfg;
  cfg.target_anomalies = 1 << 30;  // abundance estimate over a fixed budget
  cfg.max_samples = ctx.cli.get_int("max-samples", 30000);
  cfg.seed = ctx.cli.get_seed("seed", 4);
  const std::vector<std::string> families = ctx.families("aatb,chain4");
  ctx.cli.reject_unknown_flags();

  model::SimulatedMachineConfig stepped_cfg;
  model::SimulatedMachineConfig smooth_cfg;
  smooth_cfg.efficiency = without_steps();
  model::SimulatedMachine stepped(stepped_cfg);
  model::SimulatedMachine smooth(smooth_cfg);

  auto csv = ctx.csv("ablation_variant_steps");
  csv.row({"family", "abundance_stepped", "abundance_smooth"});

  bench::Comparison cmp;
  for (const std::string& name : families) {
    anomaly::ExperimentDriver stepped_driver(name, stepped);
    anomaly::ExperimentDriver smooth_driver(name, smooth);
    const auto with = stepped_driver.random_search(cfg);
    const auto without = smooth_driver.random_search(cfg);
    std::printf("%s: abundance %.3f%% with variant steps, %.3f%% smooth-only\n",
                name.c_str(), 100.0 * with.abundance(),
                100.0 * without.abundance());
    csv.row(name, {with.abundance(), without.abundance()});
    cmp.add(name + ": variant steps increase anomaly abundance",
            "implied (abrupt transitions observed)",
            with.abundance() > without.abundance() ? "yes" : "NO");
  }
  cmp.render();
  bench::print_csv_path(csv);
  return 0;
}

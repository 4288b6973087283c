// Figure 8 (+ Sec. 4.1.3): efficiencies of the six chain algorithms along
// lines through two anomalous regions, with the classification strip
// (cheapest / fastest / both) and the two transition types.
//
// Paper: at a region boundary either one or more kernels' efficiency changes
// abruptly (internal variant switch) or all change gradually; no third type.
#include <cstdio>

#include "bench_common.hpp"
#include "boundary_common.hpp"

int main(int argc, char** argv) {
  using namespace lamb;
  bench::BenchContext ctx(argc, argv);
  auto driver = ctx.driver("chain4");
  bench::print_header("Figure 8 / Sec 4.1.3",
                      "chain algorithm efficiencies across region boundaries",
                      ctx, driver.family());

  bench::SearchDefaults defaults;
  defaults.sim_anomalies = 2;
  defaults.real_anomalies = 2;
  defaults.seed = 3;
  const auto search_cfg = ctx.search_config(defaults);
  const auto trav_cfg = ctx.traversal_config(search_cfg);
  ctx.cli.reject_unknown_flags();
  const auto found = bench::run_search(driver, search_cfg);
  if (found.anomalies.empty()) {
    std::printf("no anomalies found; increase --max-samples\n");
    return 0;
  }

  auto csv = ctx.csv("fig8_chain_boundaries");
  csv.row({"coord", "alg", "eff_total", "eff_calls..."});

  int abrupt = 0;
  int gradual = 0;
  for (const auto& a : found.anomalies) {
    // Pick the dimension with the thickest region, like the paper's
    // hand-picked illustrative lines.
    const auto lines = driver.traverse_all_lines(a.dims, trav_cfg);
    const anomaly::LineTraversal* best = &lines.front();
    for (const auto& line : lines) {
      if (line.thickness() > best->thickness()) {
        best = &line;
      }
    }
    std::printf("%s\n", bench::render_boundary_line(driver.family(),
                                                    driver.machine(), *best,
                                                    csv)
                            .c_str());
    for (const auto& t : bench::classify_transitions(
             driver.family(), driver.machine(), *best, trav_cfg.lo,
             trav_cfg.hi)) {
      if (t.at_search_bound) {
        std::printf("boundary at %d: search-space bound\n", t.boundary_coord);
        continue;
      }
      std::printf("boundary at %d: %s transition (max kernel jump %.1f%%)\n",
                  t.boundary_coord, t.abrupt ? "ABRUPT" : "gradual",
                  100.0 * t.max_jump);
      (t.abrupt ? abrupt : gradual) += 1;
    }
    std::printf("\n");
  }

  bench::Comparison cmp;
  cmp.add("two transition types (abrupt / gradual)", "both observed",
          support::strf("%d abrupt, %d gradual", abrupt, gradual));
  cmp.add("regions have identifiable boundaries", "yes",
          abrupt + gradual > 0 ? "yes" : "only space bounds");
  cmp.render();
  bench::print_csv_path(csv);
  return 0;
}

// Figure 11 (+ Sec. 4.2.3): efficiencies of the five A*A^T*B algorithms
// along three lines (one per dimension) through anomalous regions.
//
// Paper structure: SYRK-based algorithms 1/2 are cheapest throughout the
// regions while GEMM-based 3/4 are fastest; for small d0 the region covers
// d0 <= ~290; along d1/d2 regions extend to the search bound.
#include <cstdio>

#include "bench_common.hpp"
#include "boundary_common.hpp"

int main(int argc, char** argv) {
  using namespace lamb;
  bench::BenchContext ctx(argc, argv);
  // This figure is specific to A*A^T*B: the illustrative origins and the
  // SYRK/GEMM structural checks below are 3-dimensional, so no --family
  // override is offered.
  anomaly::ExperimentDriver driver(expr::make_family("aatb"), *ctx.machine,
                                   ctx.driver_config());
  bench::print_header("Figure 11 / Sec 4.2.3",
                      "A*A^T*B algorithm efficiencies across regions", ctx,
                      driver.family());

  anomaly::TraversalConfig trav_cfg;
  trav_cfg.lo = static_cast<int>(ctx.cli.get_int("lo", 20));
  trav_cfg.hi = static_cast<int>(ctx.cli.get_int("hi", ctx.real ? 300 : 1200));
  trav_cfg.time_score_threshold = ctx.cli.get_double("threshold", 0.05);

  // The paper's three illustrative lines (one per dimension). The exact
  // anomalies differ between machines, so by default we use the paper's
  // origins when they are anomalous on this machine and otherwise search for
  // replacements nearby.
  std::vector<std::pair<expr::Instance, int>> picks = {
      {{227, 260, 549}, 0},  // Fig. 11 left: d0 traversed
      {{80, 514, 768}, 1},   // Fig. 11 centre: d1 traversed
      {{110, 301, 938}, 2},  // Fig. 11 right: d2 traversed
  };
  anomaly::RandomSearchConfig search_cfg;
  search_cfg.lo = trav_cfg.lo;
  search_cfg.hi = trav_cfg.hi;
  search_cfg.target_anomalies = 1;
  search_cfg.max_samples = ctx.cli.get_int("max-samples", 50000);
  ctx.cli.reject_unknown_flags();

  auto csv = ctx.csv("fig11_aatb_boundaries");
  csv.row({"coord", "alg", "eff_total", "eff_calls..."});

  bench::Comparison cmp;
  for (std::size_t i = 0; i < picks.size(); ++i) {
    expr::Instance origin = picks[i].first;
    const int dim = picks[i].second;
    if (origin[0] > trav_cfg.hi || origin[1] > trav_cfg.hi ||
        origin[2] > trav_cfg.hi ||
        !anomaly::classify_instance(driver.family(), driver.machine(), origin,
                                    trav_cfg.time_score_threshold)
             .anomaly) {
      search_cfg.seed = 17 + i;
      const auto found = driver.random_search(search_cfg);
      if (found.anomalies.empty()) {
        std::printf("no anomaly found for line %zu\n", i);
        continue;
      }
      origin = found.anomalies.front().dims;
      std::printf("(paper origin not anomalous here; using (%d,%d,%d))\n",
                  origin[0], origin[1], origin[2]);
    }
    const auto line = driver.traverse_line(origin, dim, trav_cfg);
    std::printf("%s\n", bench::render_boundary_line(driver.family(),
                                                    driver.machine(), line,
                                                    csv)
                            .c_str());
    for (const auto& t : bench::classify_transitions(
             driver.family(), driver.machine(), line, trav_cfg.lo,
             trav_cfg.hi)) {
      if (t.at_search_bound) {
        std::printf("boundary at %d: search-space bound\n", t.boundary_coord);
      } else {
        std::printf("boundary at %d: %s transition (max kernel jump %.1f%%)\n",
                    t.boundary_coord, t.abrupt ? "ABRUPT" : "gradual",
                    100.0 * t.max_jump);
      }
    }

    // Structural check inside the region: SYRK pair cheapest, GEMM pair
    // fastest.
    int structural = 0;
    int anomalous = 0;
    for (const auto& s : line.samples) {
      if (!s.result.anomaly) {
        continue;
      }
      ++anomalous;
      const bool cheapest_syrk = !s.result.cheapest.empty() &&
                                 s.result.cheapest.front() <= 1;
      bool fastest_gemm = false;
      for (std::size_t f : s.result.fastest) {
        fastest_gemm |= (f == 2 || f == 3);
      }
      structural += (cheapest_syrk && fastest_gemm) ? 1 : 0;
    }
    cmp.add(support::strf("line %zu (d%d): algs 1/2 cheapest, 3/4 fastest",
                          i + 1, dim),
            "throughout the region",
            anomalous > 0
                ? support::strf("%d / %d region samples", structural,
                                anomalous)
                : "(no region)");
    std::printf("\n");
  }
  cmp.render();
  bench::print_csv_path(csv);
  return 0;
}

// Figure 7 (+ Sec. 4.1.2): Experiment 2 on the matrix chain — the thickness
// of the anomalous region around each Experiment-1 anomaly, per dimension
// d0..d4 (step 10, 5% threshold, holes of up to 2 tolerated).
//
// Paper: thicknesses spread from thin slivers to regions spanning most of a
// line; the maximum is close to 1181 (the full [20, 1200] line).
#include <cstdio>

#include "bench_common.hpp"
#include "support/ascii_plot.hpp"
#include "support/statistics.hpp"

int main(int argc, char** argv) {
  using namespace lamb;
  bench::BenchContext ctx(argc, argv);
  auto driver = ctx.driver("chain4");
  bench::print_header("Figure 7 / Sec 4.1.2",
                      "chain anomalous-region thickness per dimension", ctx,
                      driver.family());

  bench::SearchDefaults defaults;
  defaults.sim_anomalies = 40;
  defaults.real_anomalies = 2;
  const auto search_cfg = ctx.search_config(defaults);
  const auto trav_cfg = ctx.traversal_config(search_cfg);
  ctx.cli.reject_unknown_flags();
  const auto found = bench::run_search(driver, search_cfg);

  const int dims = driver.family().dimension_count();
  std::vector<std::vector<double>> thickness(static_cast<std::size_t>(dims));
  auto csv = ctx.csv("fig7_chain_thickness");
  csv.row({"anomaly", "dim", "boundary_lo", "boundary_hi", "thickness"});

  const auto lines = driver.traverse_regions(found.anomalies, trav_cfg);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto& line = lines[i];
    thickness[static_cast<std::size_t>(line.dim)].push_back(
        static_cast<double>(line.thickness()));
    csv.row(support::strf("%zu", i / static_cast<std::size_t>(dims)),
            {static_cast<double>(line.dim),
             static_cast<double>(line.boundary_lo),
             static_cast<double>(line.boundary_hi),
             static_cast<double>(line.thickness())});
  }

  const double line_span = static_cast<double>(trav_cfg.hi - trav_cfg.lo - 1);
  double overall_max = 0.0;
  for (int d = 0; d < dims; ++d) {
    const auto& t = thickness[static_cast<std::size_t>(d)];
    std::printf("\ndimension d%d: %s\n", d,
                support::five_number_summary(t).c_str());
    if (!t.empty()) {
      std::printf("%s",
                  support::histogram_plot(t, 0.0, line_span, 8,
                                          support::strf("thickness histogram d%d",
                                                        d))
                      .c_str());
      overall_max = std::max(overall_max, support::max_value(t));
    }
  }

  bench::Comparison cmp;
  cmp.add("max possible thickness", "1181 (line [20,1200])",
          support::strf("%.0f (line [%d,%d])", line_span, trav_cfg.lo,
                        trav_cfg.hi));
  cmp.add("regions are contiguous (thickness > 0)", "yes",
          overall_max > 0 ? "yes" : "NO");
  cmp.add("some regions span a large part of a line", "yes",
          overall_max > 0.3 * line_span ? "yes" : "NO");
  cmp.render();
  bench::print_csv_path(csv);
  return 0;
}

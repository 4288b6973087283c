// Figure 10 (+ Sec. 4.2.2): Experiment 2 on A*A^T*B — region thickness per
// dimension d0..d2.
//
// Paper: regions are significantly thinner in dimension d0 than in d1/d2
// (many d1/d2 regions extend across the entire line).
#include <cstdio>

#include "bench_common.hpp"
#include "support/ascii_plot.hpp"
#include "support/statistics.hpp"

int main(int argc, char** argv) {
  using namespace lamb;
  bench::BenchContext ctx(argc, argv);
  auto driver = ctx.driver("aatb");
  bench::print_header("Figure 10 / Sec 4.2.2",
                      "A*A^T*B anomalous-region thickness per dimension",
                      ctx, driver.family());

  bench::SearchDefaults defaults;
  defaults.sim_anomalies = 150;
  defaults.real_anomalies = 3;
  const auto search_cfg = ctx.search_config(defaults);
  const auto trav_cfg = ctx.traversal_config(search_cfg);
  ctx.cli.reject_unknown_flags();
  const auto found = bench::run_search(driver, search_cfg);

  const int dims = driver.family().dimension_count();
  std::vector<std::vector<double>> thickness(static_cast<std::size_t>(dims));
  auto csv = ctx.csv("fig10_aatb_thickness");
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
  std::vector<double> means(static_cast<std::size_t>(dims), 0.0);
  for (int d = 0; d < dims; ++d) {
    const auto& t = thickness[static_cast<std::size_t>(d)];
    std::printf("\ndimension d%d: %s\n", d,
                support::five_number_summary(t).c_str());
    if (!t.empty()) {
      means[static_cast<std::size_t>(d)] = support::mean(t);
      std::printf("%s",
                  support::histogram_plot(t, 0.0, line_span, 8,
                                          support::strf("thickness histogram d%d",
                                                        d))
                      .c_str());
    }
  }

  bench::Comparison cmp;
  cmp.add("d0 regions thinner than d1/d2", "yes (significantly)",
          (means.size() >= 3 && means[0] < means[1] && means[0] < means[2])
              ? support::strf("yes (means %.0f vs %.0f / %.0f)", means[0],
                              means[1], means[2])
              : "NO");
  cmp.add("some d1/d2 regions span the whole line", "yes",
          (thickness.size() >= 3 && !thickness[1].empty() &&
           (support::max_value(thickness[1]) > 0.9 * line_span ||
            support::max_value(thickness[2]) > 0.9 * line_span))
              ? "yes"
              : "NO");
  cmp.render();
  bench::print_csv_path(csv);
  return 0;
}

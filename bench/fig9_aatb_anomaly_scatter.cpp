// Figure 9 (+ Sec. 4.2.1): Experiment 1 on A*A^T*B. Random search in the box
// [20, 1200]^3, threshold 10%. --family selects another registry family over
// the same protocol.
//
// Paper: 1,000 anomalies in 10,258 samples -> abundance 9.7%; 39.2% of
// anomalies have time score > 20% or FLOP score > 30%; extremes trade 45%
// more FLOPs for 40% less time.
#include <cstdio>

#include "bench_common.hpp"
#include "support/ascii_plot.hpp"
#include "support/statistics.hpp"

int main(int argc, char** argv) {
  using namespace lamb;
  bench::BenchContext ctx(argc, argv);
  auto driver = ctx.driver("aatb");
  bench::print_header("Figure 9 / Sec 4.2.1",
                      "random search for A*A^T*B anomalies", ctx,
                      driver.family());

  bench::SearchDefaults defaults;
  defaults.sim_anomalies = 1000;
  defaults.real_anomalies = 10;
  defaults.sim_max_samples = 100000;
  defaults.real_max_samples = 300;
  defaults.threshold_from_flag = true;  // search-only bench: --threshold
  const auto cfg = ctx.search_config(defaults);
  ctx.cli.reject_unknown_flags();
  const auto result = bench::run_search(driver, cfg);

  std::vector<double> ts;
  std::vector<double> fs;
  auto csv = ctx.csv("fig9_aatb_anomalies");
  std::vector<std::string> header = driver.family().dimension_names();
  header.push_back("time_score");
  header.push_back("flop_score");
  csv.row(header);
  int severe = 0;
  for (const auto& a : result.anomalies) {
    ts.push_back(a.time_score);
    fs.push_back(a.flop_score);
    if (a.time_score > 0.20 || a.flop_score > 0.30) {
      ++severe;
    }
    std::vector<double> rest(a.dims.begin() + 1, a.dims.end());
    rest.push_back(a.time_score);
    rest.push_back(a.flop_score);
    csv.row(support::strf("%d", a.dims[0]), rest);
  }

  if (!ts.empty()) {
    support::PlotOptions opts;
    opts.title = "Time score vs FLOP score (" + driver.family().name() +
                 " anomalies)";
    opts.x_label = "FLOP score";
    opts.y_label = "time score";
    opts.x_min = 0.0;
    opts.x_max = 0.5;
    opts.y_min = 0.0;
    opts.y_max = 0.5;
    std::printf("\n%s\n", support::scatter_plot(fs, ts, opts).c_str());

    bench::Comparison cmp;
    cmp.add("abundance", "9.7% (1,000 / 10,258)",
            support::strf("%.1f%% (%zu / %lld)", 100.0 * result.abundance(),
                          result.anomalies.size(), result.samples));
    cmp.add("anomalies abundant (> 2%)", "yes",
            result.abundance() > 0.02 ? "yes" : "NO");
    cmp.add("severe fraction (ts>20% or fs>30%)", "39.2%",
            support::format_percent(static_cast<double>(severe) /
                                    static_cast<double>(ts.size())));
    cmp.add("max time score", "~40%",
            support::format_percent(support::max_value(ts)));
    cmp.add("max FLOP score", "~45%",
            support::format_percent(support::max_value(fs)));
    cmp.render();
  } else {
    std::printf("no anomalies found within the sample budget\n");
  }
  bench::print_csv_path(csv);
  return 0;
}

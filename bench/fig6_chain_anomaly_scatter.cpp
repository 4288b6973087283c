// Figure 6 (+ Sec. 4.1.1): Experiment 1 on the matrix chain A*B*C*D.
// Random search in the box [20, 1200]^5 with a 10% time-score threshold
// until N distinct anomalies are found; scatter of time score vs FLOP score.
// --family selects another registry family over the same protocol.
//
// Paper: 100 anomalies in 22,962 samples -> abundance 0.4%; most anomalies
// have FLOP score < 10% and time score < 20%.
#include <cstdio>

#include "bench_common.hpp"
#include "support/ascii_plot.hpp"
#include "support/statistics.hpp"

int main(int argc, char** argv) {
  using namespace lamb;
  bench::BenchContext ctx(argc, argv);
  auto driver = ctx.driver("chain4");
  bench::print_header("Figure 6 / Sec 4.1.1",
                      "random search for matrix-chain anomalies", ctx,
                      driver.family());

  bench::SearchDefaults defaults;
  defaults.sim_anomalies = 100;
  defaults.real_anomalies = 3;
  defaults.sim_max_samples = 200000;
  defaults.real_max_samples = 300;
  defaults.threshold_from_flag = true;  // search-only bench: --threshold
  const auto cfg = ctx.search_config(defaults);
  ctx.cli.reject_unknown_flags();
  const auto result = bench::run_search(driver, cfg);

  std::vector<double> ts;
  std::vector<double> fs;
  auto csv = ctx.csv("fig6_chain_anomalies");
  std::vector<std::string> header = driver.family().dimension_names();
  header.push_back("time_score");
  header.push_back("flop_score");
  csv.row(header);
  for (const auto& a : result.anomalies) {
    ts.push_back(a.time_score);
    fs.push_back(a.flop_score);
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
    opts.y_max = 0.4;
    std::printf("\n%s\n", support::scatter_plot(fs, ts, opts).c_str());

    int mild = 0;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (fs[i] < 0.10 && ts[i] < 0.20) {
        ++mild;
      }
    }
    bench::Comparison cmp;
    cmp.add("abundance", "0.4% (100 / 22,962)",
            support::strf("%.2f%% (%zu / %lld)", 100.0 * result.abundance(),
                          result.anomalies.size(), result.samples));
    cmp.add("anomalies are rare (< 2%)", "yes",
            result.abundance() < 0.02 ? "yes" : "NO");
    cmp.add("fraction of mild anomalies (fs<10% and ts<20%)", "most",
            support::format_percent(static_cast<double>(mild) /
                                    static_cast<double>(ts.size())));
    cmp.add("max time score", "~35%",
            support::format_percent(support::max_value(ts)));
    cmp.render();
  } else {
    std::printf("no anomalies found within the sample budget\n");
  }
  bench::print_csv_path(csv);
  return 0;
}

// Table 2 (+ Sec. 4.2.4): Experiment 3 on A*A^T*B — anomaly prediction from
// isolated kernel benchmarks.
//
// Paper: 253,053 samples; recall 75% (160,867 / 214,578), precision 98.5%
// (160,867 / 163,301).
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace lamb;
  bench::BenchContext ctx(argc, argv);
  auto driver = ctx.driver("aatb");
  bench::print_header("Table 2 / Sec 4.2.4",
                      "A*A^T*B anomaly prediction from kernel benchmarks",
                      ctx, driver.family());

  bench::SearchDefaults defaults;
  defaults.sim_anomalies = 100;
  defaults.real_anomalies = 3;
  const auto search_cfg = ctx.search_config(defaults);
  const double threshold = ctx.cli.get_double("threshold", 0.05);
  ctx.cli.reject_unknown_flags();
  const auto found = bench::run_search(driver, search_cfg);

  anomaly::TraversalConfig trav_cfg;
  trav_cfg.lo = search_cfg.lo;
  trav_cfg.hi = search_cfg.hi;
  trav_cfg.time_score_threshold = 0.05;
  const auto all_lines = driver.traverse_regions(found.anomalies, trav_cfg);
  std::printf("Experiment 2: %zu traversed lines\n", all_lines.size());

  const auto result = driver.predict_from_benchmarks(all_lines, threshold);

  std::printf("\n%s\n", result.confusion.to_table().c_str());

  auto csv = ctx.csv("tab2_aatb_confusion");
  csv.row({"tn", "fp", "fn", "tp", "recall", "precision"});
  csv.row(support::strf("%lld", result.confusion.tn),
          {static_cast<double>(result.confusion.fp),
           static_cast<double>(result.confusion.fn),
           static_cast<double>(result.confusion.tp),
           result.confusion.recall(), result.confusion.precision()});

  bench::Comparison cmp;
  cmp.add("samples", "253,053",
          support::format_count(result.confusion.total()));
  cmp.add("recall (anomalies predicted)", "75%",
          support::format_percent(result.confusion.recall()));
  cmp.add("precision (predictions correct)", "98.5%",
          support::format_percent(result.confusion.precision()));
  cmp.add("high precision (> 90%)", "yes",
          result.confusion.precision() > 0.90 ? "yes" : "NO");
  cmp.add("most anomalies predictable from benchmarks", "yes",
          result.confusion.recall() > 0.60 ? "yes" : "NO");
  cmp.render();
  bench::print_csv_path(csv);
  return 0;
}

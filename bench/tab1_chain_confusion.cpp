// Table 1 (+ Sec. 4.1.4): Experiment 3 on the matrix chain — predicting
// anomalies from isolated kernel benchmarks, reported as a confusion matrix.
//
// Paper: 24,987 samples; recall 92% (15,839 / 17,129 actual anomalies
// predicted), precision 96% (15,839 / 16,495 predictions correct).
#include <cstdio>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace lamb;
  bench::BenchContext ctx(argc, argv);
  auto driver = ctx.driver("chain4");
  bench::print_header("Table 1 / Sec 4.1.4",
                      "chain anomaly prediction from kernel benchmarks", ctx,
                      driver.family());

  bench::SearchDefaults defaults;
  defaults.sim_anomalies = 25;
  defaults.real_anomalies = 2;
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

  auto csv = ctx.csv("tab1_chain_confusion");
  csv.row({"tn", "fp", "fn", "tp", "recall", "precision"});
  csv.row(support::strf("%lld", result.confusion.tn),
          {static_cast<double>(result.confusion.fp),
           static_cast<double>(result.confusion.fn),
           static_cast<double>(result.confusion.tp),
           result.confusion.recall(), result.confusion.precision()});

  bench::Comparison cmp;
  cmp.add("samples", "24,987",
          support::format_count(result.confusion.total()));
  cmp.add("recall (anomalies predicted)", "92%",
          support::format_percent(result.confusion.recall()));
  cmp.add("precision (predictions correct)", "96%",
          support::format_percent(result.confusion.precision()));
  cmp.add("high precision (> 90%)", "yes",
          result.confusion.precision() > 0.90 ? "yes" : "NO");
  cmp.add("most anomalies predictable from benchmarks", "yes",
          result.confusion.recall() > 0.60 ? "yes" : "NO");
  cmp.render();
  bench::print_csv_path(csv);
  return 0;
}

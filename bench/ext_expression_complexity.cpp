// Extension: the paper's complexity conjecture.
//
// Section 5: "large expressions have many more mathematically equivalent
// algorithms and also involve more kernels. These are two factors that one
// can reasonably assume will increase the opportunities for anomalies to
// occur." This bench tests the first factor directly by sweeping the chain
// length n = 3..6 (6, 24, 120 schedules) and measuring anomaly abundance —
// and also reports how the hybrid FLOPs+profiles selector (Sec. 5's proposed
// remedy) holds up as the algorithm space grows.
#include <cstdio>
#include <memory>

#include "anomaly/search.hpp"
#include "bench_common.hpp"
#include "chain/chain.hpp"
#include "expr/family.hpp"
#include "model/selection.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) {
  using namespace lamb;
  bench::BenchContext ctx(argc, argv);
  bench::print_header("Extension (paper Sec. 5)",
                      "anomaly abundance vs expression complexity", ctx);
  const int max_len = static_cast<int>(ctx.cli.get_int("max-length", 6));
  const anomaly::DriverConfig driver_cfg = ctx.driver_config();
  anomaly::RandomSearchConfig search_cfg;
  search_cfg.hi =
      static_cast<int>(ctx.cli.get_int("hi", ctx.real ? 300 : 1200));
  search_cfg.target_anomalies = 1 << 30;
  const long long max_samples = ctx.cli.get_int("max-samples", 24000);
  search_cfg.seed = ctx.cli.get_seed("seed", 8);
  ctx.cli.reject_unknown_flags();

  auto profiles = std::make_shared<const model::KernelProfileSet>(
      model::KernelProfileSet::build(*ctx.machine));
  model::AlgorithmSelector selector(profiles);

  auto csv = ctx.csv("ext_expression_complexity");
  csv.row({"chain_length", "algorithms", "abundance", "mean_time_score",
           "flops_pick_slowdown", "hybrid_pick_slowdown"});

  bench::Comparison cmp;
  double prev_abundance = -1.0;
  bool monotone = true;
  for (int n = 3; n <= max_len; ++n) {
    // The sweep pins the family per iteration (chainN resolves dynamically
    // in the registry); --family must not override it.
    anomaly::ExperimentDriver driver(
        expr::make_family(support::strf("chain%d", n)), *ctx.machine,
        driver_cfg);
    const expr::ExpressionFamily& family = driver.family();
    anomaly::RandomSearchConfig cfg = search_cfg;
    // Larger algorithm spaces cost more per sample; shrink the budget.
    cfg.max_samples = max_samples / std::max(1, (n - 2) * (n - 2));
    const auto found = driver.random_search(cfg);

    double mean_ts = 0.0;
    for (const auto& a : found.anomalies) {
      mean_ts += a.time_score;
    }
    mean_ts = found.anomalies.empty()
                  ? 0.0
                  : mean_ts / static_cast<double>(found.anomalies.size());

    // Selector quality over an independent instance sample.
    support::Rng rng(99);
    double flops_slowdown = 0.0;
    double hybrid_slowdown = 0.0;
    const int trials = 120;
    for (int t = 0; t < trials; ++t) {
      expr::Instance dims(static_cast<std::size_t>(n) + 1);
      for (auto& d : dims) {
        d = rng.uniform_int(cfg.lo, cfg.hi);
      }
      const auto algs = family.algorithms(dims);
      double oracle = -1.0;
      std::vector<double> times;
      times.reserve(algs.size());
      for (const auto& alg : algs) {
        times.push_back(ctx.machine->time_algorithm(alg));
        if (oracle < 0 || times.back() < oracle) {
          oracle = times.back();
        }
      }
      flops_slowdown +=
          times[selector.choose(algs, model::SelectionPolicy::kFlopsOnly)] /
              oracle -
          1.0;
      hybrid_slowdown +=
          times[selector.choose(algs, model::SelectionPolicy::kHybrid)] /
              oracle -
          1.0;
    }
    flops_slowdown /= trials;
    hybrid_slowdown /= trials;

    std::printf("chain length %d: %3zu algorithms, %6lld samples, "
                "abundance %6.3f%%, mean ts %4.1f%%, mean slowdown "
                "flops %5.2f%% vs hybrid %5.2f%%\n",
                n, family.algorithms(expr::Instance(
                              static_cast<std::size_t>(n) + 1, 50))
                       .size(),
                found.samples, 100.0 * found.abundance(), 100.0 * mean_ts,
                100.0 * flops_slowdown, 100.0 * hybrid_slowdown);
    csv.row(support::strf("%d", n),
            {static_cast<double>(chain::schedule_count(n)),
             found.abundance(), mean_ts, flops_slowdown, hybrid_slowdown});
    if (prev_abundance >= 0.0 && found.abundance() < prev_abundance) {
      monotone = false;
    }
    prev_abundance = found.abundance();
  }

  cmp.add("abundance grows with chain length",
          "conjectured (\"even more abundant in more complex expressions\")",
          monotone ? "yes (monotone over the sweep)" : "mostly (not strictly monotone)");
  cmp.render();
  bench::print_csv_path(csv);
  return 0;
}

// Ablation: the paper's future-work discriminant. Section 5 conjectures that
// combining FLOP counts with kernel performance profiles "may lead to a more
// robust algorithm selection methodology". This bench quantifies it: select
// algorithms for random instances with (a) the FLOP-count discriminant and
// (b) the interpolated-profile discriminant, and compare realised runtimes
// against the brute-force oracle.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "expr/family.hpp"
#include "model/cost_model.hpp"
#include "support/rng.hpp"

int main(int argc, char** argv) {
  using namespace lamb;
  bench::BenchContext ctx(argc, argv);
  bench::print_header("Ablation (paper Sec. 5)",
                      "FLOP-count vs profile-based algorithm selection", ctx);
  const int trials =
      static_cast<int>(ctx.cli.get_int("trials", ctx.real ? 20 : 400));
  const int hi = static_cast<int>(ctx.cli.get_int("hi", ctx.real ? 300 : 1200));
  const std::uint64_t seed = ctx.cli.get_seed("seed", 7);
  const std::vector<std::string> families = ctx.families("aatb,chain4");
  ctx.cli.reject_unknown_flags();

  auto profiles = std::make_shared<const model::KernelProfileSet>(
      model::KernelProfileSet::build(*ctx.machine));
  model::FlopCostModel flop_cost;
  model::ProfileCostModel profile_cost(profiles);

  auto csv = ctx.csv("ablation_profile_selection");
  csv.row({"family", "selector", "picked_fastest_pct", "mean_slowdown_pct",
           "worst_slowdown_pct"});

  bench::Comparison cmp;
  for (const std::string& family_name : families) {
    const auto family = expr::make_family(family_name);
    support::Rng rng(seed);
    struct Stats {
      int picked_fastest = 0;
      double sum_slowdown = 0.0;
      double worst_slowdown = 0.0;
    };
    Stats flop_stats;
    Stats profile_stats;

    for (int t = 0; t < trials; ++t) {
      expr::Instance dims(
          static_cast<std::size_t>(family->dimension_count()));
      for (auto& d : dims) {
        d = rng.uniform_int(20, hi);
      }
      const auto algs = family->algorithms(dims);
      std::vector<double> actual;
      actual.reserve(algs.size());
      for (const auto& alg : algs) {
        actual.push_back(ctx.machine->time_algorithm(alg));
      }
      const double oracle = *std::min_element(actual.begin(), actual.end());

      const auto eval = [&](const model::CostModel& cost, Stats& s) {
        const auto pick = model::select_best(algs, cost).front();
        const double slowdown = actual[pick] / oracle - 1.0;
        s.picked_fastest += slowdown < 0.02 ? 1 : 0;
        s.sum_slowdown += slowdown;
        s.worst_slowdown = std::max(s.worst_slowdown, slowdown);
      };
      eval(flop_cost, flop_stats);
      eval(profile_cost, profile_stats);
    }

    const auto report = [&](const char* name, const Stats& s) {
      std::printf("%s / %-7s: picked fastest(±2%%) %5.1f%%, mean slowdown "
                  "%5.2f%%, worst %5.1f%%\n",
                  family->name().c_str(), name,
                  100.0 * s.picked_fastest / trials,
                  100.0 * s.sum_slowdown / trials, 100.0 * s.worst_slowdown);
      csv.row(family->name() + "," + name,
              {100.0 * s.picked_fastest / trials,
               100.0 * s.sum_slowdown / trials, 100.0 * s.worst_slowdown});
    };
    report("flops", flop_stats);
    report("profile", profile_stats);

    cmp.add(family->name() + ": profile beats FLOPs on mean slowdown",
            "conjectured (future work)",
            profile_stats.sum_slowdown < flop_stats.sum_slowdown ? "yes"
                                                                 : "NO");
  }
  cmp.render();
  bench::print_csv_path(csv);
  return 0;
}

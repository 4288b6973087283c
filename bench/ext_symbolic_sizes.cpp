// Extension: the region atlas for the LAMP with symbolic sizes (paper
// Sec. 5). Builds the atlas along each dimension of the paper's Fig. 11
// lines and along chain4 and aatbc lines, prints the intervals, and
// evaluates the atlas as a *selector*: over a sweep of the symbolic size,
// how much runtime does atlas-guided selection save compared with trusting
// the FLOP count, and how far is it from the per-size fastest (the oracle)?
#include <cstdio>

#include "anomaly/atlas.hpp"
#include "bench_common.hpp"
#include "expr/family.hpp"

int main(int argc, char** argv) {
  using namespace lamb;
  bench::BenchContext ctx(argc, argv);
  bench::print_header("Extension (paper Sec. 5)",
                      "region atlas for symbolic operand sizes", ctx);

  // The lines below fix their families and bases, so no --family override
  // is offered.
  anomaly::AtlasConfig cfg;
  cfg.hi = static_cast<int>(ctx.cli.get_int("hi", ctx.real ? 300 : cfg.hi));
  cfg.coarse_step =
      static_cast<int>(ctx.cli.get_int("step", cfg.coarse_step));
  ctx.cli.reject_unknown_flags();

  auto csv = ctx.csv("ext_symbolic_sizes");
  csv.row({"line", "dim", "interval_lo", "interval_hi", "anomalous",
           "recommended", "worst_ts"});

  bench::Comparison cmp;
  struct Line {
    const char* family;
    expr::Instance base;
    int dim;
  };
  // The three A*A^T*B lines of Fig. 11, then lines of the 4-factor chain
  // and of A*A^T*B*C on which the FLOP-minimal algorithm is slower than the
  // per-size fastest.
  const std::vector<Line> lines = {
      {"aatb", {150, 260, 549}, 0},
      {"aatb", {80, 514, 768}, 1},
      {"aatb", {110, 301, 938}, 2},
      {"chain4", {50, 600, 450, 650, 700}, 0},
      {"chain4", {250, 150, 500, 300, 600}, 4},
      {"aatbc", {300, 300, 250, 150}, 1},
      {"aatbc", {50, 800, 1050, 700}, 3},
  };
  const std::vector<std::string> aatb_names = {
      "alg1(syrk+symm)", "alg2(syrk+gemm)", "alg3(gemm+symm)",
      "alg4(gemm+gemm)", "alg5(gemm+gemm)"};
  long long samples = 0;
  for (std::size_t l = 0; l < lines.size(); ++l) {
    const auto& [name, base, dim] = lines[l];
    const auto family_ptr = expr::make_family(name);
    const expr::ExpressionFamily& family = *family_ptr;
    // --atlas-dir reuses a persisted scan from an earlier run when present.
    const anomaly::RegionAtlas atlas = ctx.atlas(family, base, dim, cfg);
    samples += atlas.samples_used();
    std::string label = support::strf("%s (", name);
    for (std::size_t d = 0; d < base.size(); ++d) {
      label += support::strf("%s%d", d > 0 ? "," : "", base[d]);
    }
    label += support::strf(") d%d", dim);
    std::printf("%s:\n%s\n", label.c_str(),
                atlas.to_string(family.name() == "aatb"
                                    ? aatb_names
                                    : std::vector<std::string>{})
                    .c_str());
    for (const auto& interval : atlas.intervals()) {
      csv.row(support::strf("%zu", l),
              {static_cast<double>(dim),
               static_cast<double>(atlas.interval_lo(interval)),
               static_cast<double>(interval.hi),
               interval.anomalous ? 1.0 : 0.0,
               static_cast<double>(interval.recommended),
               interval.worst_time_score});
    }

    // Selector evaluation over the full symbolic range.
    double flops_total = 0.0;
    double atlas_total = 0.0;
    double oracle_total = 0.0;
    for (int size = cfg.lo; size <= cfg.hi; size += 10) {
      expr::Instance dims = base;
      dims[static_cast<std::size_t>(dim)] = size;
      const auto algs = family.algorithms(dims);
      std::vector<double> times;
      times.reserve(algs.size());
      for (const auto& alg : algs) {
        times.push_back(ctx.machine->time_algorithm(alg));
      }
      long long min_flops = algs[0].flops();
      std::size_t by_flops = 0;
      for (std::size_t i = 0; i < algs.size(); ++i) {
        if (algs[i].flops() < min_flops) {
          min_flops = algs[i].flops();
          by_flops = i;
        }
      }
      flops_total += times[by_flops];
      atlas_total += times[atlas.recommend(size)];
      oracle_total += *std::min_element(times.begin(), times.end());
    }
    std::printf("sweep along %s: FLOP-min %.2f ms, atlas %.2f ms, "
                "oracle %.2f ms (atlas overhead vs oracle %.2f%%)\n\n",
                label.c_str(), 1e3 * flops_total, 1e3 * atlas_total,
                1e3 * oracle_total,
                100.0 * (atlas_total / oracle_total - 1.0));
    cmp.add(support::strf("%s sweep: atlas faster than FLOP-min",
                          label.c_str()),
            "goal of the proposed methodology",
            atlas_total < flops_total
                ? support::strf("yes (%.1f%% saved)",
                                100.0 * (1.0 - atlas_total / flops_total))
                : "NO");
  }
  cmp.add("scan samples per slice", "-",
          support::strf("%.1f (stride %d)",
                        static_cast<double>(samples) /
                            static_cast<double>(lines.size()),
                        cfg.coarse_step));
  cmp.render();
  bench::print_csv_path(csv);
  return 0;
}

// Figure 1: efficiency of GEMM, SYRK and SYMM as the (square) operand size
// grows. Paper: all three ramp up and plateau below peak, with small but
// noticeable differences (SYRK/SYMM below GEMM until ~1000+).
//
// Default: simulated machine, sizes 50..3000. With --real the host's BLAS
// substrate is benchmarked (sizes capped, see --max-size).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "model/kernel_call.hpp"
#include "support/ascii_plot.hpp"

int main(int argc, char** argv) {
  using namespace lamb;
  bench::BenchContext ctx(argc, argv);
  bench::print_header("Figure 1", "kernel efficiency vs square size", ctx);

  const long long max_size =
      ctx.cli.get_int("max-size", ctx.real ? 448 : 3000);
  const long long step = ctx.cli.get_int("step", ctx.real ? 64 : 50);
  ctx.cli.reject_unknown_flags();

  support::Series gemm{"gemm", {}, {}, 'g'};
  support::Series syrk{"syrk", {}, {}, 's'};
  support::Series symm{"symm", {}, {}, 'y'};

  support::CsvWriter csv(ctx.out_dir + "/fig1_kernel_efficiency.csv");
  csv.row({"size", "eff_gemm", "eff_syrk", "eff_symm"});

  const double peak = ctx.machine->peak_flops();
  for (long long s = 50; s <= max_size; s += step) {
    const auto n = static_cast<la::index_t>(s);
    const model::KernelCall calls[3] = {model::make_gemm(n, n, n),
                                        model::make_syrk(n, n),
                                        model::make_symm(n, n)};
    double eff[3];
    for (int i = 0; i < 3; ++i) {
      const double t = ctx.machine->time_call_isolated(calls[i]);
      eff[i] = static_cast<double>(calls[i].flops()) / (t * peak);
    }
    gemm.xs.push_back(static_cast<double>(s));
    gemm.ys.push_back(eff[0]);
    syrk.xs.push_back(static_cast<double>(s));
    syrk.ys.push_back(eff[1]);
    symm.xs.push_back(static_cast<double>(s));
    symm.ys.push_back(eff[2]);
    csv.row(support::strf("%lld", s), {eff[0], eff[1], eff[2]});
  }

  support::PlotOptions opts;
  opts.title = "Efficiency vs size (m = k = n)";
  opts.x_label = "size";
  opts.y_label = "efficiency";
  opts.y_min = 0.0;
  opts.y_max = 1.0;
  const std::vector<support::Series> series = {gemm, syrk, symm};
  std::printf("%s\n", support::line_plot(series, opts).c_str());

  bench::Comparison cmp;
  cmp.add("kernels ramp up then plateau below peak", "yes",
          gemm.ys.back() > 0.7 && gemm.ys.front() < gemm.ys.back() ? "yes"
                                                                   : "NO");
  cmp.add("syrk/symm below gemm at small sizes", "yes",
          (syrk.ys.front() < gemm.ys.front() &&
           symm.ys.front() < gemm.ys.front())
              ? "yes"
              : "NO");
  cmp.add("differences small but noticeable at large sizes", "yes",
          (gemm.ys.back() - syrk.ys.back() < 0.25) ? "yes" : "NO");
  cmp.render();
  std::printf("\nCSV: %s\n", csv.path().c_str());
  return 0;
}

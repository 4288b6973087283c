// bm_kernels: microbenchmarks of the BLAS substrate, printed as a table.
//
//   bm_kernels [--seconds=0.15] [--min-gflops=0] [--sizes=64,128,256,384]
//              [--roofline]
//
// Sections:
//   gemm      blocked dgemm squares, once per available microkernel tier
//             (scalar / avx2 / avx512) — the headline GFLOP/s numbers
//   variant   one shape per dispatch variant (naive / small-k / blocked)
//             plus the transposed blocked path, on the auto-dispatched tier
//   level3    syrk / symm on GEMM's packed path
//   pack      packing throughput (GB/s) into a grow-only, uninitialised
//             PackBuffer for every path the level-3 kernels pack through:
//             pack_a of a plain and a symmetric A (SYMM's rule), pack_b of
//             B and of B^T (SYRK's and A*A^T's B operand)
//
// --roofline replaces the sections with the arithmetic-intensity sweep of
// the roofline section below.
//
// Each row is one timed loop of --seconds on one thread, as the machine
// models run the kernels, and a single shot: enough to show a missing SIMD
// tier or a broken packing path, not to compare two commits. lambbench's
// blas-exec workload (lambbench/run.py) does that, with checked results and
// minima over passes. --min-gflops fails the run (exit 1) if the best
// blocked dgemm of the auto-dispatched kernel stays below the floor, so
// kernel regressions break CI (perf-smoke gates at 18) instead of silently
// eroding the atlas measurements.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "blas/blas.hpp"
#include "blas/microkernel.hpp"
#include "la/generators.hpp"
#include "obs/pmu.hpp"
#include "perf/timer.hpp"
#include "support/ascii_plot.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"

namespace {

using namespace lamb;
using la::index_t;
using la::Matrix;

struct Row {
  std::string section;
  std::string name;
  std::string kernel;   ///< microkernel tier ("-" for non-GEMM rows)
  std::string variant;  ///< gemm dispatch variant ("-" when n/a)
  index_t m = 0, n = 0, k = 0;
  double value = 0.0;  ///< GFLOP/s (compute rows) or GB/s (pack rows)
  const char* unit = "gflops";
};

std::vector<Row> g_rows;
double g_seconds = 0.15;

/// Repeats fn until the budget elapses; returns (seconds, iterations).
template <typename Fn>
std::pair<double, int> run_timed(Fn&& fn) {
  fn();  // warm-up (page-in, buffer growth) outside the timed window
  int iters = 0;
  perf::Timer timer;
  do {
    fn();
    ++iters;
  } while (timer.elapsed() < g_seconds);
  return {timer.elapsed(), iters};
}

void report(Row row, double work_per_iter, double seconds, int iters) {
  row.value = work_per_iter * iters / seconds / 1e9;
  std::printf("%-9s %-26s %-7s %-8s %4td %4td %4td  %8.2f %s\n",
              row.section.c_str(), row.name.c_str(), row.kernel.c_str(),
              row.variant.c_str(), row.m, row.n, row.k, row.value, row.unit);
  g_rows.push_back(std::move(row));
}

void bench_gemm(const std::string& section, const std::string& name,
                const blas::Microkernel* force, bool ta, bool tb, index_t m,
                index_t n, index_t k, const blas::GemmOptions& opts = {}) {
  support::Rng rng(42);
  const Matrix a = ta ? la::random_matrix(k, m, rng)
                      : la::random_matrix(m, k, rng);
  const Matrix b = tb ? la::random_matrix(n, k, rng)
                      : la::random_matrix(k, n, rng);
  Matrix c(m, n);
  blas::force_microkernel(force);
  const auto [seconds, iters] = run_timed([&] {
    blas::gemm(ta, tb, 1.0, a.view(), b.view(), 0.0, c.view(), opts);
  });
  blas::force_microkernel(nullptr);
  const blas::GemmVariant variant =
      opts.force_variant.value_or(blas::select_gemm_variant(m, n, k));
  // Only the blocked variant runs the microkernel; naive/small-k rows get
  // "-" so neither the table nor the --min-gflops gate attributes their
  // numbers to a SIMD tier.
  const std::string kernel =
      variant == blas::GemmVariant::kBlocked
          ? (force != nullptr ? force->name : blas::active_microkernel().name)
          : "-";
  Row row{section, name,           kernel,
          std::string(blas::to_string(variant)),
          m,       n,
          k};
  report(std::move(row), 2.0 * static_cast<double>(m) * n * k, seconds,
         iters);
}

/// Head-to-head variant runs on the SAME shape (via GemmOptions'
/// force_variant) across the dispatch boundaries — the data the
/// select_gemm_variant thresholds are tuned against.
void bench_crossovers() {
  for (const index_t k : {index_t{2}, index_t{4}, index_t{8}, index_t{12},
                          index_t{16}, index_t{24}, index_t{32}}) {
    for (const auto v :
         {blas::GemmVariant::kSmallK, blas::GemmVariant::kBlocked}) {
      blas::GemmOptions opts;
      opts.force_variant = v;
      bench_gemm("crossover", std::string("k_sweep_") +
                                  std::string(blas::to_string(v)),
                 nullptr, false, false, 256, 256, k, opts);
    }
  }
  for (const index_t n : {index_t{8}, index_t{16}, index_t{24}, index_t{32},
                          index_t{48}, index_t{64}}) {
    for (const auto v :
         {blas::GemmVariant::kNaive, blas::GemmVariant::kBlocked}) {
      blas::GemmOptions opts;
      opts.force_variant = v;
      bench_gemm("crossover", std::string("cube_sweep_") +
                                  std::string(blas::to_string(v)),
                 nullptr, false, false, n, n, n, opts);
    }
  }
}

void bench_gemm_tiers(const std::vector<index_t>& sizes) {
  for (const blas::Microkernel* mk : blas::available_microkernels()) {
    for (const index_t n : sizes) {
      bench_gemm("gemm", "dgemm_square", mk, false, false, n, n, n);
    }
  }
}

void bench_variants() {
  // One representative shape per dispatch variant, forced so the rows keep
  // measuring their path even as the thresholds move.
  blas::GemmOptions naive;
  naive.force_variant = blas::GemmVariant::kNaive;
  bench_gemm("variant", "naive", nullptr, false, false, 24, 24, 24, naive);
  blas::GemmOptions small_k;
  small_k.force_variant = blas::GemmVariant::kSmallK;
  bench_gemm("variant", "small_k", nullptr, false, false, 256, 256, 8,
             small_k);
  bench_gemm("variant", "blocked", nullptr, false, false, 256, 256, 256);
  bench_gemm("variant", "blocked_tt", nullptr, true, true, 256, 256, 256);
}

void bench_level3() {
  support::Rng rng(7);
  const index_t n = 256;
  {
    const Matrix a = la::random_matrix(n, n / 2, rng);
    Matrix c(n, n);
    const auto [seconds, iters] =
        run_timed([&] { blas::syrk(1.0, a.view(), 0.0, c.view()); });
    report(Row{"level3", "dsyrk", blas::active_microkernel().name, "-", n, n,
               n / 2},
           static_cast<double>(n + 1) * n * (n / 2), seconds, iters);
  }
  {
    const Matrix a = la::random_symmetric(n, rng);
    const Matrix b = la::random_matrix(n, n, rng);
    Matrix c(n, n);
    const auto [seconds, iters] = run_timed(
        [&] { blas::symm(1.0, a.view(), b.view(), 0.0, c.view()); });
    report(Row{"level3", "dsymm", blas::active_microkernel().name, "-", n, n,
               n},
           2.0 * static_cast<double>(n) * n * n, seconds, iters);
  }
}

void bench_pack() {
  const blas::Microkernel& mk = blas::active_microkernel();
  const blas::BlockSizes bs;
  support::Rng rng(11);
  // One representative block each: full-height A block, wide B block, with
  // a fringe panel (the -3) so the zeroing paths are exercised.
  const index_t mc = bs.mc - 3;
  const index_t nc = 509;
  const index_t kc = bs.kc;
  const Matrix a = la::random_matrix(bs.mc, kc, rng);
  const Matrix b = la::random_matrix(kc, 512, rng);
  const double a_bytes = static_cast<double>(mc) * kc * sizeof(double);
  const double b_bytes = static_cast<double>(nc) * kc * sizeof(double);

  blas::PackBuffer buf;
  {
    const auto [seconds, iters] = run_timed([&] {
      blas::pack_a(blas::ReadA::kPlain, a.view(), 0, 0, mc, kc, mk.mr, buf);
    });
    report(Row{"pack", "pack_a", mk.name, "-", mc, 0, kc, 0.0, "gbps"},
           a_bytes, seconds, iters);
  }
  {
    // The diagonal block of a symmetric A: half the panel is gathered from
    // the rows of the stored lower triangle.
    const Matrix s = la::random_symmetric(kc, rng);
    const auto [seconds, iters] = run_timed([&] {
      blas::pack_a(blas::ReadA::kSymmetric, s.view(), 0, 0, mc, kc, mk.mr,
                   buf);
    });
    report(Row{"pack", "pack_a_symmetric", mk.name, "-", mc, 0, kc, 0.0,
               "gbps"},
           a_bytes, seconds, iters);
  }
  {
    const auto [seconds, iters] = run_timed(
        [&] { blas::pack_b(false, b.view(), 0, 0, kc, nc, mk.nr, buf); });
    report(Row{"pack", "pack_b", mk.name, "-", 0, nc, kc, 0.0, "gbps"},
           b_bytes, seconds, iters);
  }
  {
    const Matrix bt = la::transposed(b.view());
    const auto [seconds, iters] = run_timed(
        [&] { blas::pack_b(true, bt.view(), 0, 0, kc, nc, mk.nr, buf); });
    report(Row{"pack", "pack_b_trans", mk.name, "-", 0, nc, kc, 0.0, "gbps"},
           b_bytes, seconds, iters);
  }
}

// ---------------------------------------------------------------- roofline
//
// --roofline sweeps arithmetic intensity (flops per DRAM byte) by varying
// k at fixed m = n = 256: AI = 2mnk / 8(mn + mk + kn) runs from ~1 at
// k = 4 to ~26 at k = 512, crossing the machine's ridge point. Each point
// runs the blocked path on a forced microkernel tier with a PmuScope
// around the timed loop, so attained GFLOP/s comes with cycles,
// instructions, IPC and LLC miss rate; the memory ceiling comes from a
// STREAM-style triad over buffers far past the LLC. Rendered with
// support/ascii_plot.

struct RooflineRow {
  std::string kernel;
  double ai = 0.0;      ///< flops per byte of mandatory DRAM traffic
  double gflops = 0.0;  ///< attained, from wall time
};

std::vector<RooflineRow> g_roofline;

double measure_triad_gbps() {
  // 3 x 32 MiB streams: far past any LLC, so the triad measures DRAM.
  const std::size_t n = std::size_t{1} << 22;
  std::vector<double> a(n, 1.0);
  std::vector<double> b(n, 2.0);
  std::vector<double> c(n, 3.0);
  const auto [seconds, iters] = run_timed([&] {
    double* pa = a.data();
    const double* pb = b.data();
    const double* pc = c.data();
    for (std::size_t i = 0; i < n; ++i) {
      pa[i] = pb[i] + 0.5 * pc[i];
    }
    asm volatile("" ::"r"(pa) : "memory");
  });
  const double bytes = 3.0 * static_cast<double>(n) * sizeof(double);
  return bytes * iters / seconds / 1e9;
}

void roofline_point(const blas::Microkernel* mk, index_t m, index_t n,
                    index_t k) {
  support::Rng rng(42);
  const Matrix a = la::random_matrix(m, k, rng);
  const Matrix b = la::random_matrix(k, n, rng);
  Matrix c(m, n);
  blas::GemmOptions opts;
  opts.force_variant = blas::GemmVariant::kBlocked;
  blas::force_microkernel(mk);
  obs::PmuScope pmu(/*arm_now=*/true);
  const auto [seconds, iters] = run_timed([&] {
    blas::gemm(false, false, 1.0, a.view(), b.view(), 0.0, c.view(), opts);
  });
  const obs::PmuSample sample = pmu.finish();
  blas::force_microkernel(nullptr);

  RooflineRow row;
  row.kernel = mk->name;
  const double flops = 2.0 * static_cast<double>(m) * n * k;
  const double bytes =
      8.0 * (static_cast<double>(m) * n + static_cast<double>(m) * k +
             static_cast<double>(k) * n);
  row.ai = flops / bytes;
  row.gflops = flops * iters / seconds / 1e9;
  std::printf("%-9s %-26s %-7s %-8s %4td %4td %4td  %8.2f gflops  ai %5.2f",
              "roofline", "k_sweep", row.kernel.c_str(), "blocked", m, n, k,
              row.gflops, row.ai);
  if (sample.valid) {
    // The PMU window includes run_timed's untimed warm-up call; pair counter
    // ratios with the flops of every call in the window, not just the timed
    // ones.
    const double flops_in_window = flops * (iters + 1);
    std::printf("  ipc %4.2f  llc-miss %4.1f%%  flop/cyc %4.2f",
                sample.ipc(), 100.0 * sample.llc_miss_rate(),
                sample.cycles == 0
                    ? 0.0
                    : flops_in_window / static_cast<double>(sample.cycles));
  }
  std::printf("\n");
  g_roofline.push_back(std::move(row));
}

void run_roofline() {
  std::printf("pmu: %s\n", obs::pmu_status().c_str());
  const double triad_gbps = measure_triad_gbps();
  std::printf("triad bandwidth: %.2f GB/s (memory ceiling)\n\n",
              triad_gbps);
  for (const blas::Microkernel* mk : blas::available_microkernels()) {
    for (const index_t k :
         {index_t{4}, index_t{8}, index_t{16}, index_t{32}, index_t{64},
          index_t{128}, index_t{256}, index_t{512}}) {
      roofline_point(mk, 256, 256, k);
    }
  }

  // One series per tier plus the roof itself: min(bw * AI, peak), drawn in
  // log2(AI) so the ridge point sits mid-plot instead of crushed left.
  std::vector<support::Series> series;
  const char markers[] = {'o', '*', '#', '+'};
  double peak = 0.0;
  double x_lo = 1e30;
  double x_hi = -1e30;
  for (const RooflineRow& r : g_roofline) {
    peak = std::max(peak, r.gflops);
    const double x = std::log2(r.ai);
    x_lo = std::min(x_lo, x);
    x_hi = std::max(x_hi, x);
    support::Series* s = nullptr;
    for (support::Series& existing : series) {
      if (existing.name == r.kernel) {
        s = &existing;
      }
    }
    if (s == nullptr) {
      series.push_back({r.kernel, {}, {},
                        markers[series.size() % sizeof(markers)]});
      s = &series.back();
    }
    s->xs.push_back(x);
    s->ys.push_back(r.gflops);
  }
  support::Series roof{"roof", {}, {}, '.'};
  for (int i = 0; i <= 64; ++i) {
    const double x = x_lo + (x_hi - x_lo) * i / 64.0;
    roof.xs.push_back(x);
    roof.ys.push_back(std::min(triad_gbps * std::exp2(x), peak));
  }
  series.push_back(std::move(roof));
  support::PlotOptions plot;
  plot.title = "roofline: attained GFLOP/s vs arithmetic intensity";
  plot.x_label = "log2(flops/byte)";
  plot.y_label = "GFLOP/s";
  std::printf("\n%s", support::line_plot(series, plot).c_str());
}

std::vector<index_t> parse_sizes(const std::string& csv) {
  std::vector<index_t> sizes;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) {
      try {
        std::size_t used = 0;
        const long long v = std::stoll(tok, &used);
        if (used != tok.size() || v <= 0) {
          throw std::invalid_argument(tok);
        }
        sizes.push_back(static_cast<index_t>(v));
      } catch (const std::exception&) {
        std::fprintf(stderr,
                     "bm_kernels: --sizes expects positive integers, got "
                     "'%s'\n",
                     tok.c_str());
        std::exit(1);
      }
    }
    if (comma == std::string::npos) {
      break;
    }
    pos = comma + 1;
  }
  return sizes;
}

}  // namespace

int main(int argc, char** argv) {
  const support::Cli cli(argc, argv);
  g_seconds = cli.get_double("seconds", 0.15);
  const double min_gflops = cli.get_double("min-gflops", 0.0);
  const std::vector<index_t> sizes =
      parse_sizes(cli.get_string("sizes", "64,128,256,384"));

  std::printf("active kernel: %s (LAMB_KERNEL to override)\n",
              blas::active_microkernel().name);
  std::printf("%-9s %-26s %-7s %-8s %4s %4s %4s  %8s\n", "section", "name",
              "kernel", "variant", "m", "n", "k", "value");

  if (cli.get_bool("roofline", false)) {
    // Exclusive mode: the AI sweep replaces the normal sections, and
    // --min-gflops stays a normal-mode gate (roofline runs are diagnostic,
    // not acceptance).
    run_roofline();
    return 0;
  }

  bench_gemm_tiers(sizes);
  bench_variants();
  bench_crossovers();
  bench_level3();
  bench_pack();

  if (min_gflops > 0.0) {
    // Gate on the auto-dispatched tier's best blocked dgemm square.
    const std::string active = blas::active_microkernel().name;
    double best = 0.0;
    for (const Row& r : g_rows) {
      if (r.section == "gemm" && r.kernel == active &&
          r.variant == "blocked") {
        best = std::max(best, r.value);
      }
    }
    if (best < min_gflops) {
      std::fprintf(stderr,
                   "FAIL: blocked dgemm peaked at %.2f GFLOP/s on kernel "
                   "'%s', below the --min-gflops floor of %.2f\n",
                   best, active.c_str(), min_gflops);
      return 1;
    }
    std::printf("blocked dgemm %.2f GFLOP/s >= floor %.2f: ok\n", best,
                min_gflops);
  }
  return 0;
}

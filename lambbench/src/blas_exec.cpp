// blas-exec: one thread, with no pool, executes every algorithm of a seeded
// list of aatb, chain4 and gram instances on real operands through
// model::execute (an ExecutionWorkspace run step by step). The list is
// stratified by shape class, so every seed gets the same mix and nearly the
// same FLOP total: tiny and small-k shapes that take the naive and
// small-k GEMM variants, small and medium cubes, skinny panels, and
// instances with an operand larger than one core's 2 MiB L2.
//
// Why: it is the paper's measured experiment and the only workload where a
// BLAS kernel runs at all (the simulated machine never executes one), so
// level-3 kernel work shows here and nowhere else. It touches no service,
// store or HTTP code. setup_s = make_externals + algorithms() for the whole
// list.
#include <malloc.h>

#include <algorithm>
#include <map>

#include "expr/registry.hpp"
#include "harness.hpp"
#include "la/norms.hpp"
#include "model/executor.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

namespace lambbench {

namespace {

using lamb::la::Matrix;
using lamb::model::Algorithm;
using lamb::model::KernelKind;

/// One shape class: the family, a [lo, hi] range per dimension, and how
/// many instances of it every list holds. Within a class the dimensions are
/// Latin-hypercube samples (each dimension's range cut into `count` strata,
/// one seeded draw per stratum, strata paired by seeded permutations), so a
/// class covers its whole range on every seed and the list's FLOP total
/// barely moves between seeds.
struct ShapeClass {
  const char* family;
  std::vector<std::pair<int, int>> dims;
  int count;
};

// Sized for ~1,700 executions (~7 GFLOP) and ~70 MB of operands a pass.
const std::vector<ShapeClass>& shape_classes() {
  static const std::vector<ShapeClass> classes = {
      {"aatb", {{4, 16}, {2, 8}, {4, 16}}, 60},               // naive
      {"aatb", {{32, 96}, {32, 96}, {32, 96}}, 60},           // small cube
      {"aatb", {{128, 192}, {128, 192}, {128, 192}}, 12},     // medium cube
      {"aatb", {{96, 256}, {2, 12}, {96, 256}}, 16},          // small k
      {"aatb", {{128, 320}, {48, 160}, {2, 12}}, 10},         // skinny B
      {"aatb", {{64, 96}, {4800, 5600}, {32, 96}}, 3},        // A > L2
      {"chain4", {{4, 16}, {2, 8}, {4, 16}, {2, 8}, {4, 16}}, 32},
      {"chain4", {{24, 96}, {24, 96}, {24, 96}, {24, 96}, {24, 96}}, 48},
      {"chain4", {{96, 160}, {96, 160}, {96, 160}, {96, 160}, {96, 160}}, 8},
      {"chain4", {{128, 256}, {2, 12}, {128, 256}, {2, 12}, {128, 256}}, 12},
      {"chain4", {{64, 96}, {4800, 5600}, {32, 96}, {32, 96}, {32, 96}}, 3},
      {"gram", {{4, 16}, {2, 8}}, 48},
      {"gram", {{24, 128}, {24, 128}}, 64},
      {"gram", {{128, 320}, {96, 320}}, 12},
      {"gram", {{128, 384}, {2, 12}}, 16},
      {"gram", {{64, 96}, {4800, 5600}}, 4},                  // A > L2
  };
  return classes;
}

/// One untraced pass on the reference host (4-vCPU Xeon KVM guest).
constexpr double kPassSeconds = 0.35;

template <typename T>
void shuffle(std::vector<T>& v, lamb::support::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.bounded(i)]);
  }
}

struct Instance {
  const lamb::expr::ExpressionFamily* family = nullptr;
  lamb::expr::Instance dims;
  std::vector<Matrix> externals;
  std::vector<Algorithm> algorithms;
  double tolerance_scale = 0.0;  ///< gemm_tolerance over the summed dims
};

class BlasExec {
 public:
  BlasExec(const Options& options, Result& result)
      : options_(options), result_(result) {}

  void prepare() {
    lamb::support::Rng rng(options_.seed);
    for (const ShapeClass& sc : shape_classes()) {
      if (families_.find(sc.family) == families_.end()) {
        families_.emplace(sc.family, lamb::expr::make_family(sc.family));
      }
      std::vector<std::vector<int>> strata;
      for (std::size_t d = 0; d < sc.dims.size(); ++d) {
        std::vector<int> order(static_cast<std::size_t>(sc.count));
        for (int k = 0; k < sc.count; ++k) {
          order[static_cast<std::size_t>(k)] = k;
        }
        shuffle(order, rng);
        strata.push_back(std::move(order));
      }
      for (int k = 0; k < sc.count; ++k) {
        Instance inst;
        inst.family = families_.at(sc.family).get();
        lamb::la::index_t sum = 0;
        for (std::size_t d = 0; d < sc.dims.size(); ++d) {
          const auto [lo, hi] = sc.dims[d];
          const double u =
              (strata[d][static_cast<std::size_t>(k)] + rng.uniform()) /
              sc.count;
          inst.dims.push_back(lo + static_cast<int>(u * (hi - lo + 1)));
          sum += inst.dims.back();
        }
        inst.tolerance_scale = lamb::la::gemm_tolerance(sum);
        result_.mix(inst.dims.data(), inst.dims.size() * sizeof(int));
        instances_.push_back(std::move(inst));
      }
    }
    // A seeded order interleaves the classes, so no class sits in one
    // stretch of a pass.
    shuffle(instances_, rng);
    for (const Instance& inst : instances_) {
      units_per_pass_ += inst.family->algorithms(inst.dims).size();
    }
    units_.assign(units_per_pass_, 1);
    result_.input_bytes = instances_.size() * sizeof(Instance);
  }

  /// setup_s: every instance's operands and algorithm set, from scratch.
  /// Returns seconds; `externals_ms` and `enumerate` get the layer split.
  double setup(double* externals_ms = nullptr,
               UnitMinima* enumerate = nullptr) {
    lamb::support::Rng rng(options_.seed ^ 0x5eedULL);
    std::uint64_t in_externals = 0;
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      Instance& inst = instances_[i];
      const std::uint64_t a = now_ns();
      inst.externals = inst.family->make_externals(inst.dims, rng);
      const std::uint64_t b = now_ns();
      inst.algorithms = inst.family->algorithms(inst.dims);
      const std::uint64_t c = now_ns();
      in_externals += b - a;
      if (enumerate != nullptr) {
        enumerate->record(i, c - b);
      }
    }
    const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    operand_bytes_ = 0.0;
    for (const Instance& inst : instances_) {
      for (const Matrix& m : inst.externals) {
        operand_bytes_ += static_cast<double>(m.bytes());
      }
    }
    if (externals_ms != nullptr) {
      *externals_ms = static_cast<double>(in_externals) * 1e-6;
    }
    return seconds;
  }

  /// Frees the operands (the next set-up makes them again).
  void release() {
    for (Instance& inst : instances_) {
      inst.externals.clear();
      inst.externals.shrink_to_fit();
    }
  }

  /// One pass: every algorithm of every instance through model::execute,
  /// each timed (or spanned) into `minima`; every result checked against
  /// the instance's first algorithm outside the timed region.
  void pass(UnitMinima& minima, SpanLog* log, bool first) {
    const std::uint32_t execute_name = log ? log->intern("execute") : 0;
    std::size_t unit = 0;
    for (const Instance& inst : instances_) {
      Matrix reference;
      double tol = 0.0;
      for (std::size_t a = 0; a < inst.algorithms.size(); ++a, ++unit) {
        const Algorithm& alg = inst.algorithms[a];
        Matrix out;
        try {
          out = run_unit(
              minima, unit, log, execute_name,
              [&] { return lamb::model::execute(alg, inst.externals); },
              [&](const Matrix&) { return alg.flops(); });
        } catch (const std::exception&) {
          ++result_.attempted;
          ++result_.failed;
          continue;
        }
        ++result_.attempted;
        if (a == 0) {
          reference = std::move(out);
          tol = inst.tolerance_scale *
                std::max(1.0, lamb::la::max_abs(reference.view()));
          if (first) {
            result_.mix(reference.data(), reference.bytes());
          }
          continue;
        }
        const bool same_shape = out.rows() == reference.rows() &&
                                out.cols() == reference.cols();
        if (!same_shape ||
            !(lamb::la::max_abs_diff(out.view(), reference.view()) <= tol)) {
          ++result_.failed;
        }
      }
    }
  }

  void untraced() {
    const PassPlan plan(options_.seconds, kPassSeconds, 3);
    UnitMinima minima(units_per_pass_);
    std::vector<double> setups;
    int passes = 0;
    while (plan.run(passes)) {
      const int p = passes++;
      setups.push_back(setup());
      pass(minima, nullptr, p == 0);
      release();
    }
    add_end_to_end(result_, minima, units_, setups);
    counts(passes);
  }

  void traced() {
    const PassPlan plan(options_.seconds, 3 * kPassSeconds, 1);
    UnitMinima plain(units_per_pass_);
    UnitMinima call(units_per_pass_);
    UnitMinima enumerate(instances_.size());
    std::vector<UnitMinima> steps;  // per unit, per step
    SpanLog log(16 * units_per_pass_);
    std::vector<double> externals_ms;
    int passes = 0;
    while (plan.run(passes)) {
      const int p = passes++;
      double ms = 0.0;
      setup(&ms, &enumerate);
      externals_ms.push_back(ms);
      // Alternate which of the pair runs first, so order effects cancel.
      if (p % 2 == 0) {
        pass(plain, nullptr, p == 0);
      }
      log.clear();
      pass(call, &log, false);
      step_pass(log, steps);
      if (p % 2 == 1) {
        pass(plain, nullptr, false);
      }
      release();
    }
    log.write_chrome_json(options_.trace_dir + "/blas-exec.json");
    kernel_metrics(call, steps);
    std::vector<double> enumerate_us;
    for (std::size_t i = 0; i < enumerate.size(); ++i) {
      enumerate_us.push_back(static_cast<double>(enumerate[i]) * 1e-3);
    }
    result_.metric("la.externals_ms", median(externals_ms), "ms");
    result_.metric("expr.enumerate_us", median(enumerate_us), "us");
    add_trace_overhead(result_, call, plain, units_);
    counts(passes);
  }

 private:
  /// Every unit once more through an ExecutionWorkspace, each run_step in
  /// its own span, minima kept per step.
  void step_pass(SpanLog& log, std::vector<UnitMinima>& steps) {
    const std::uint32_t step_name = log.intern("run_step");
    const bool first = steps.empty();
    std::size_t unit = 0;
    for (const Instance& inst : instances_) {
      for (const Algorithm& alg : inst.algorithms) {
        if (first) {
          steps.emplace_back(alg.steps().size());
        }
        lamb::model::ExecutionWorkspace ws(alg, inst.externals);
        const std::uint32_t request = log.open(SpanLog::kRequest, unit);
        for (std::size_t s = 0; s < alg.steps().size(); ++s) {
          const std::uint32_t span = log.open(step_name, unit, request);
          ws.run_step(s, {});
          log.close(span, static_cast<std::int64_t>(alg.steps()[s].call.kind));
          if (span != 0) {
            steps[unit].record(s, log.duration_ns(span));
          }
        }
        log.close(request);
        ++unit;
      }
    }
  }

  void kernel_metrics(const UnitMinima& execute,
                      const std::vector<UnitMinima>& steps) {
    constexpr int kKinds = 4;
    double ns[kKinds] = {};
    double work[kKinds] = {};  // FLOPs, or bytes for TriCopy
    std::vector<double> overhead_us;
    std::size_t unit = 0;
    double total_ns = 0.0;
    for (const Instance& inst : instances_) {
      for (const Algorithm& alg : inst.algorithms) {
        double sum = 0.0;
        for (std::size_t s = 0; s < alg.steps().size(); ++s) {
          const lamb::model::KernelCall& call = alg.steps()[s].call;
          const auto k = static_cast<int>(call.kind);
          const double t = static_cast<double>(steps[unit][s]);
          ns[k] += t;
          const long long done = call.kind == KernelKind::kTriCopy
                                     ? call.bytes_in() + call.bytes_out()
                                     : call.flops();
          work[k] += static_cast<double>(done);
          sum += t;
        }
        total_ns += sum;
        overhead_us.push_back((static_cast<double>(execute[unit]) - sum) *
                              1e-3);
        ++unit;
      }
    }
    const auto rate = [&](KernelKind k) {
      const auto i = static_cast<int>(k);
      return ns[i] > 0.0 ? work[i] / ns[i] : 0.0;  // per ns = G per s
    };
    const auto share = [&](KernelKind k) {
      return ns[static_cast<int>(k)] / total_ns;
    };
    result_.metric("blas.gemm_gflops", rate(KernelKind::kGemm), "GFLOP/s");
    result_.metric("blas.syrk_gflops", rate(KernelKind::kSyrk), "GFLOP/s");
    result_.metric("blas.symm_gflops", rate(KernelKind::kSymm), "GFLOP/s");
    result_.metric("blas.tricopy_gbps", rate(KernelKind::kTriCopy), "GB/s",
                   "computed bytes (bytes_in + bytes_out)");
    result_.metric("blas.gemm_share", share(KernelKind::kGemm), "ratio");
    result_.metric("blas.syrk_share", share(KernelKind::kSyrk), "ratio");
    result_.metric("blas.symm_share", share(KernelKind::kSymm), "ratio");
    result_.metric("blas.tricopy_share", share(KernelKind::kTriCopy), "ratio");
    result_.metric("model.execute_overhead_us", median(overhead_us), "us");
  }

  void counts(int passes) {
    double flops = 0.0;
    for (const Instance& inst : instances_) {
      for (const Algorithm& alg : inst.algorithms) {
        flops += static_cast<double>(alg.flops());
      }
    }
    result_.count("passes", passes);
    result_.count("instances", static_cast<double>(instances_.size()));
    result_.count("units_per_pass", static_cast<double>(units_per_pass_));
    result_.count("flops_per_pass", flops);
    result_.count("operand_bytes", operand_bytes_);
    result_.count("attempted", static_cast<double>(result_.attempted));
    result_.notes.push_back(lamb::support::strf(
        "blas-exec: %zu instances, %zu executions, %.4g FLOPs and %.4g MB of "
        "operands per pass, %d passes",
        instances_.size(), units_per_pass_, flops, operand_bytes_ * 1e-6,
        passes));
  }

  const Options& options_;
  Result& result_;
  std::map<std::string, std::unique_ptr<lamb::expr::ExpressionFamily>>
      families_;
  std::vector<Instance> instances_;
  std::size_t units_per_pass_ = 0;
  std::vector<std::uint32_t> units_;
  double operand_bytes_ = 0.0;
};

}  // namespace

void run_blas_exec(const Options& options, Result& result) {
  // Freed operands stay in the heap for the next pass, as they would in a
  // long-running process once glibc's adaptive thresholds settle: set-up
  // and execution then time lamb's code, not the kernel's page-fault path
  // for multi-MB matrices, whose cost on a shared VM swings with the other
  // tenants (it doubled setup_s in noisy periods).
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  BlasExec bench(options, result);
  bench.prepare();
  reset_peak_rss();
  if (options.trace) {
    bench.traced();
  } else {
    bench.untraced();
  }
}

}  // namespace lambbench

#include "model/measured_machine.hpp"

#include <functional>

#include "blas/blas.hpp"
#include "la/generators.hpp"
#include "la/triangle.hpp"
#include "model/executor.hpp"
#include "perf/machine_info.hpp"
#include "support/check.hpp"

namespace lamb::model {

MeasuredMachine::MeasuredMachine(MeasuredMachineConfig config)
    : config_(config), flusher_(config.flush_bytes), peak_(config.peak_flops),
      isolated_cache_(config.benchmark_cache_capacity) {}

std::string MeasuredMachine::name() const {
  return "measured";
}

double MeasuredMachine::peak_flops() const {
  if (peak_ <= 0.0) {
    peak_ = perf::estimate_peak_flops(config_.pool);
  }
  return peak_;
}

std::vector<int> MeasuredMachine::breakpoints() const {
  const blas::BlockSizes blocks;
  return {static_cast<int>(blas::kSmallKLimit),
          static_cast<int>(blas::kNaiveLimit), static_cast<int>(blocks.mc),
          static_cast<int>(blocks.kc)};
}

std::vector<double> MeasuredMachine::time_steps(const Algorithm& alg) {
  // Materialise random externals for this algorithm's shapes. The matrices
  // are dense and unstructured, so contents do not affect timing.
  support::Rng rng(config_.data_seed);
  std::vector<la::Matrix> externals;
  externals.reserve(static_cast<std::size_t>(alg.num_externals()));
  for (int id = 0; id < alg.num_externals(); ++id) {
    const Operand& op = alg.operands()[static_cast<std::size_t>(id)];
    externals.push_back(la::random_matrix(op.rows, op.cols, rng));
  }

  ExecutionWorkspace ws(alg, externals);
  blas::GemmOptions opts;
  opts.pool = config_.pool;

  std::vector<std::function<void()>> steps;
  steps.reserve(alg.steps().size());
  for (std::size_t i = 0; i < alg.steps().size(); ++i) {
    steps.emplace_back([&ws, i, &opts] { ws.run_step(i, opts); });
  }
  const perf::SteppedMeasurementResult r =
      perf::measure_steps(steps, config_.protocol, flusher_);
  return r.median_step_seconds;
}

double MeasuredMachine::run_isolated(const KernelCall& call) {
  support::Rng rng(config_.data_seed);
  blas::GemmOptions opts;
  opts.pool = config_.pool;

  std::function<void()> work;
  la::Matrix a, b, c;
  switch (call.kind) {
    case KernelKind::kGemm: {
      a = call.trans_a ? la::random_matrix(call.k, call.m, rng)
                       : la::random_matrix(call.m, call.k, rng);
      b = call.trans_b ? la::random_matrix(call.n, call.k, rng)
                       : la::random_matrix(call.k, call.n, rng);
      c = la::Matrix(call.m, call.n);
      work = [&] {
        blas::gemm(call.trans_a, call.trans_b, 1.0, a.view(), b.view(), 0.0,
                   c.view(), opts);
      };
      break;
    }
    case KernelKind::kSyrk: {
      a = la::random_matrix(call.m, call.k, rng);
      c = la::Matrix(call.m, call.m);
      work = [&] { blas::syrk(1.0, a.view(), 0.0, c.view(), opts); };
      break;
    }
    case KernelKind::kSymm: {
      a = la::random_symmetric(call.m, rng);
      b = la::random_matrix(call.m, call.n, rng);
      c = la::Matrix(call.m, call.n);
      work = [&] { blas::symm(1.0, a.view(), b.view(), 0.0, c.view(), opts); };
      break;
    }
    case KernelKind::kTriCopy: {
      a = la::random_matrix(call.m, call.m, rng);
      c = la::Matrix(call.m, call.m);
      work = [&] {
        for (la::index_t j = 0; j < a.cols(); ++j) {
          for (la::index_t i = j; i < a.rows(); ++i) {
            c(i, j) = a(i, j);
          }
        }
        la::symmetrize_from_lower(c.view());
      };
      break;
    }
  }
  LAMB_CHECK(static_cast<bool>(work), "unhandled kernel kind");
  return perf::measure(work, config_.protocol, flusher_).median_seconds;
}

double MeasuredMachine::time_call_isolated(const KernelCall& call) {
  if (const auto cached = isolated_cache_.get(call)) {
    return *cached;
  }
  const double t = run_isolated(call);
  isolated_cache_.put(call, t);
  return t;
}

void MeasuredMachine::clear_benchmark_cache() {
  isolated_cache_.clear();
}

}  // namespace lamb::model

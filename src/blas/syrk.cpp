#include "blas/syrk.hpp"

#include <cstdint>

#include "obs/trace.hpp"

namespace lamb::blas {

void syrk(double alpha, la::ConstMatrixView a, double beta, la::MatrixView c,
          const GemmOptions& opts) {
  const auto n = static_cast<std::uint64_t>(c.rows());
  const auto k = static_cast<std::uint64_t>(a.cols());
  // One kernel span per call, carrying the model's n(n+1)k FLOP count.
  const obs::SpanScope kernel_span(obs::Stage::kKernel, n * (n + 1) * k);
  LAMB_CHECK(c.cols() == c.rows(), "syrk: C must be square");
  LAMB_CHECK(a.rows() == c.rows(), "syrk: A rows mismatch");
  run_level3({ReadA::kPlain, /*trans_b=*/true, /*lower_c=*/true, alpha, a, a,
              beta, c},
             opts);
}

}  // namespace lamb::blas

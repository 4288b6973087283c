#include "blas/symm.hpp"

#include <cstdint>

#include "obs/trace.hpp"

namespace lamb::blas {

void symm(double alpha, la::ConstMatrixView a, la::ConstMatrixView b,
          double beta, la::MatrixView c, const GemmOptions& opts) {
  const auto m = static_cast<std::uint64_t>(c.rows());
  const auto n = static_cast<std::uint64_t>(c.cols());
  // One kernel span per call, carrying the model's 2m^2n FLOP count.
  const obs::SpanScope kernel_span(obs::Stage::kKernel, 2 * m * m * n);
  LAMB_CHECK(a.rows() == c.rows() && a.cols() == c.rows(),
             "symm: A must be m x m");
  LAMB_CHECK(b.rows() == c.rows() && b.cols() == c.cols(),
             "symm: B shape mismatch");
  run_level3({ReadA::kSymmetric, /*trans_b=*/false, /*lower_c=*/false,
              alpha, a, b, beta, c},
             opts);
}

}  // namespace lamb::blas

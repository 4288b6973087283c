// Generic algorithm executor: runs any model::Algorithm on real matrices
// through the lamb::blas substrate. Because algorithms carry explicit data
// flow, one executor serves every expression family; tests use it to verify
// that all mathematically-equivalent algorithms agree numerically, and the
// MeasuredMachine uses it to time algorithms end-to-end.
#pragma once

#include <functional>
#include <vector>

#include "blas/gemm.hpp"
#include "la/matrix.hpp"
#include "model/algorithm.hpp"

namespace lamb::model {

/// Workspace holding every operand of one algorithm instance. External slots
/// reference caller matrices; temporaries are owned.
class ExecutionWorkspace {
 public:
  ExecutionWorkspace(const Algorithm& alg,
                     const std::vector<la::Matrix>& externals);

  /// Run a single step (overwrites that step's output operand; a SYRK step
  /// only its lower triangle).
  void run_step(std::size_t step_index, const blas::GemmOptions& opts);

  /// Run all steps in order.
  void run_all(const blas::GemmOptions& opts);

  /// View of any operand (external or temp) after execution.
  la::ConstMatrixView operand_view(int id) const;

  /// The final result operand.
  la::ConstMatrixView result() const;

  /// The final result operand, moved out of a workspace that is done with.
  la::Matrix take_result() &&;

 private:
  const Algorithm& alg_;
  const std::vector<la::Matrix>& externals_;
  std::vector<la::Matrix> temps_;  ///< indexed by operand id; empty for externals
};

/// One-shot: execute `alg` on `externals` and return the result.
la::Matrix execute(const Algorithm& alg,
                   const std::vector<la::Matrix>& externals,
                   const blas::GemmOptions& opts = {});

}  // namespace lamb::model

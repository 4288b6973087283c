#include "model/executor.hpp"

#include <utility>

#include "blas/symm.hpp"
#include "blas/syrk.hpp"
#include "la/triangle.hpp"
#include "support/check.hpp"

namespace lamb::model {

ExecutionWorkspace::ExecutionWorkspace(const Algorithm& alg,
                                       const std::vector<la::Matrix>& externals)
    : alg_(alg), externals_(externals) {
  LAMB_CHECK(static_cast<int>(externals.size()) == alg.num_externals(),
             "external count mismatch");
  const auto& operands = alg.operands();
  for (int id = 0; id < alg.num_externals(); ++id) {
    const Operand& op = operands[static_cast<std::size_t>(id)];
    const la::Matrix& ext = externals[static_cast<std::size_t>(id)];
    LAMB_CHECK(ext.rows() == op.rows && ext.cols() == op.cols,
               "external operand shape mismatch: " + op.name);
  }
  // Temps start zeroed: the upper triangle of a SYRK output, which no step
  // writes, stays deterministic.
  temps_.resize(operands.size());
  for (std::size_t id = static_cast<std::size_t>(alg.num_externals());
       id < operands.size(); ++id) {
    temps_[id] = la::Matrix(operands[id].rows, operands[id].cols);
  }
}

la::ConstMatrixView ExecutionWorkspace::operand_view(int id) const {
  LAMB_CHECK(id >= 0 && id < static_cast<int>(alg_.operands().size()),
             "operand id out of range");
  if (id < alg_.num_externals()) {
    return externals_[static_cast<std::size_t>(id)].view();
  }
  return temps_[static_cast<std::size_t>(id)].view();
}

la::ConstMatrixView ExecutionWorkspace::result() const {
  return operand_view(alg_.result_id());
}

la::Matrix ExecutionWorkspace::take_result() && {
  // The result is always a step's output, so a temp.
  return std::move(temps_[static_cast<std::size_t>(alg_.result_id())]);
}

void ExecutionWorkspace::run_step(std::size_t step_index,
                                  const blas::GemmOptions& opts) {
  LAMB_CHECK(step_index < alg_.steps().size(), "step index out of range");
  const Step& s = alg_.steps()[step_index];
  la::Matrix& out = temps_[static_cast<std::size_t>(s.output)];
  switch (s.call.kind) {
    case KernelKind::kGemm: {
      const auto a = operand_view(s.inputs[0]);
      const auto b = operand_view(s.inputs[1]);
      blas::gemm(s.call.trans_a, s.call.trans_b, 1.0, a, b, 0.0, out.view(),
                 opts);
      break;
    }
    case KernelKind::kSyrk: {
      const auto a = operand_view(s.inputs[0]);
      blas::syrk(1.0, a, 0.0, out.view(), opts);
      break;
    }
    case KernelKind::kSymm: {
      const auto a = operand_view(s.inputs[0]);
      const auto b = operand_view(s.inputs[1]);
      blas::symm(1.0, a, b, 0.0, out.view(), opts);
      break;
    }
    case KernelKind::kTriCopy: {
      const auto src = operand_view(s.inputs[0]);
      // Copy the stored lower triangle and mirror it into the upper one.
      for (la::index_t j = 0; j < src.cols(); ++j) {
        for (la::index_t i = j; i < src.rows(); ++i) {
          out(i, j) = src(i, j);
        }
      }
      la::symmetrize_from_lower(out.view());
      break;
    }
  }
}

void ExecutionWorkspace::run_all(const blas::GemmOptions& opts) {
  for (std::size_t i = 0; i < alg_.steps().size(); ++i) {
    run_step(i, opts);
  }
}

la::Matrix execute(const Algorithm& alg,
                   const std::vector<la::Matrix>& externals,
                   const blas::GemmOptions& opts) {
  ExecutionWorkspace ws(alg, externals);
  ws.run_all(opts);
  return std::move(ws).take_result();
}

}  // namespace lamb::model

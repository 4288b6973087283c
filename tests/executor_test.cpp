// Generic executor: every enumerated algorithm of both expressions must
// produce the same numerical result, equal to a naive ground truth.
#include <gtest/gtest.h>

#include <cstring>

#include "chain/chain.hpp"
#include "blas/ref_blas.hpp"
#include "expr/aatb.hpp"
#include "expr/family.hpp"
#include "expr/registry.hpp"
#include "la/generators.hpp"
#include "la/norms.hpp"
#include "model/executor.hpp"
#include "support/rng.hpp"

namespace {

using namespace lamb;
using la::index_t;
using la::Matrix;

Matrix naive_chain(const std::vector<Matrix>& ms) {
  Matrix acc = ms.front();
  for (std::size_t i = 1; i < ms.size(); ++i) {
    Matrix next(acc.rows(), ms[i].cols());
    blas::ref_gemm(false, false, 1.0, acc.view(), ms[i].view(), 0.0,
                   next.view());
    acc = std::move(next);
  }
  return acc;
}

TEST(Executor, AllChainSchedulesAgreeWithNaive) {
  support::Rng rng(100);
  const chain::ChainDims dims = {14, 23, 9, 31, 17};
  expr::ChainFamily family(4);
  const auto externals =
      family.make_externals({14, 23, 9, 31, 17}, rng);
  const Matrix truth = naive_chain(externals);

  for (const model::Algorithm& alg : chain::enumerate_chain_schedules(dims)) {
    const Matrix result = model::execute(alg, externals);
    EXPECT_LE(la::max_abs_diff(result.view(), truth.view()),
              la::gemm_tolerance(31) * 100)
        << alg.signature();
  }
}

TEST(Executor, AllChainParenthesisationsAgree) {
  support::Rng rng(101);
  const chain::ChainDims dims = {8, 12, 20, 6, 15, 9};
  expr::ChainFamily family(5);
  const auto externals = family.make_externals({8, 12, 20, 6, 15, 9}, rng);
  const Matrix truth = naive_chain(externals);
  for (const model::Algorithm& alg :
       chain::enumerate_chain_parenthesisations(dims)) {
    const Matrix result = model::execute(alg, externals);
    EXPECT_LE(la::max_abs_diff(result.view(), truth.view()),
              la::gemm_tolerance(20) * 100)
        << alg.name();
  }
}

TEST(Executor, AllAatbAlgorithmsAgree) {
  support::Rng rng(102);
  expr::AatbFamily family;
  // Sizes chosen to cross kernel blocking thresholds.
  for (const auto& dims :
       {expr::Instance{20, 30, 40}, expr::Instance{130, 40, 80},
        expr::Instance{97, 150, 33}}) {
    const auto externals = family.make_externals(dims, rng);
    const Matrix& a = externals[0];
    const Matrix& b = externals[1];

    // Ground truth via reference kernels: X = (A A^T) B.
    Matrix aat(a.rows(), a.rows());
    blas::ref_gemm(false, true, 1.0, a.view(), a.view(), 0.0, aat.view());
    Matrix truth(a.rows(), b.cols());
    blas::ref_gemm(false, false, 1.0, aat.view(), b.view(), 0.0, truth.view());

    for (const model::Algorithm& alg : family.algorithms(dims)) {
      const Matrix result = model::execute(alg, externals);
      EXPECT_LE(la::max_abs_diff(result.view(), truth.view()),
                la::gemm_tolerance(a.cols() + a.rows()) * 50)
          << alg.name() << " dims (" << dims[0] << "," << dims[1] << ","
          << dims[2] << ")";
    }
  }
}

TEST(Executor, ChainDpAlgorithmExecutes) {
  support::Rng rng(103);
  const chain::ChainDims dims = {25, 3, 40, 7, 30};
  const auto dp = chain::chain_dp(dims);
  const model::Algorithm alg = dp.to_algorithm(dims);
  expr::ChainFamily family(4);
  const auto externals = family.make_externals({25, 3, 40, 7, 30}, rng);
  const Matrix truth = naive_chain(externals);
  const Matrix result = model::execute(alg, externals);
  EXPECT_LE(la::max_abs_diff(result.view(), truth.view()),
            la::gemm_tolerance(40) * 100);
}

TEST(Executor, ExternalShapeMismatchThrows) {
  expr::AatbFamily family;
  const auto algs = family.algorithms({10, 12, 14});
  std::vector<Matrix> wrong;
  wrong.emplace_back(10, 12);
  wrong.emplace_back(11, 14);  // wrong rows
  EXPECT_THROW(model::execute(algs[0], wrong), support::CheckError);
}

TEST(Executor, ExternalCountMismatchThrows) {
  expr::AatbFamily family;
  const auto algs = family.algorithms({10, 12, 14});
  std::vector<Matrix> wrong;
  wrong.emplace_back(10, 12);
  EXPECT_THROW(model::execute(algs[0], wrong), support::CheckError);
}

TEST(Executor, StepwiseExecutionMatchesRunAll) {
  support::Rng rng(104);
  expr::AatbFamily family;
  const expr::Instance dims = {40, 30, 20};
  const auto externals = family.make_externals(dims, rng);
  const auto algs = family.algorithms(dims);
  const model::Algorithm& alg2 = algs[1];  // SYRK + tricopy + GEMM

  model::ExecutionWorkspace ws(alg2, externals);
  for (std::size_t i = 0; i < alg2.steps().size(); ++i) {
    ws.run_step(i, {});
  }
  const Matrix stepwise = model::execute(alg2, externals);
  EXPECT_TRUE(la::approx_equal(ws.result(), stepwise.view(), 0.0));
}

TEST(Executor, WorkspaceResultViewHasExpectedShape) {
  support::Rng rng(105);
  expr::AatbFamily family;
  const expr::Instance dims = {21, 22, 23};
  const auto externals = family.make_externals(dims, rng);
  const auto algs = family.algorithms(dims);
  model::ExecutionWorkspace ws(algs[4], externals);
  ws.run_all({});
  EXPECT_EQ(ws.result().rows(), 21);
  EXPECT_EQ(ws.result().cols(), 23);
}

TEST(Executor, RerunningStepsIsIdempotent) {
  // beta = 0 semantics: re-running a step must not accumulate.
  support::Rng rng(106);
  expr::AatbFamily family;
  const expr::Instance dims = {30, 25, 35};
  const auto externals = family.make_externals(dims, rng);
  const auto algs = family.algorithms(dims);
  model::ExecutionWorkspace ws(algs[3], externals);
  ws.run_all({});
  Matrix first(ws.result().rows(), ws.result().cols());
  for (index_t j = 0; j < first.cols(); ++j) {
    for (index_t i = 0; i < first.rows(); ++i) {
      first(i, j) = ws.result()(i, j);
    }
  }
  ws.run_all({});  // second pass, e.g. another timing repetition
  EXPECT_TRUE(la::approx_equal(ws.result(), first.view(), 0.0));
}

/// Seeded instances of the families blas-exec runs.
struct FamilyCase {
  const char* family;
  expr::Instance dims;
};
const FamilyCase kFamilyCases[] = {
    {"aatb", {37, 29, 45}},
    {"chain4", {21, 34, 17, 40, 26}},
    {"gram", {53, 38}},
};

TEST(Executor, SyrkOutputKeepsAZeroUpperTriangleAcrossRuns) {
  support::Rng rng(107);
  int syrk_steps = 0;
  for (const FamilyCase& c : kFamilyCases) {
    const auto family = expr::make_family(c.family);
    const auto externals = family->make_externals(c.dims, rng);
    for (const model::Algorithm& alg : family->algorithms(c.dims)) {
      model::ExecutionWorkspace ws(alg, externals);
      ws.run_all({});
      ws.run_all({});  // a second timing repetition writes the same temps
      for (const model::Step& step : alg.steps()) {
        if (step.call.kind != model::KernelKind::kSyrk) {
          continue;
        }
        ++syrk_steps;
        const la::ConstMatrixView out = ws.operand_view(step.output);
        for (index_t j = 1; j < out.cols(); ++j) {
          for (index_t i = 0; i < j; ++i) {
            ASSERT_EQ(out(i, j), 0.0) << c.family << " " << alg.name()
                                      << " at (" << i << "," << j << ")";
          }
        }
      }
    }
  }
  EXPECT_GT(syrk_steps, 0);
}

TEST(Executor, ExecuteReturnsTheWorkspaceResultBitForBit) {
  support::Rng rng(108);
  for (const FamilyCase& c : kFamilyCases) {
    const auto family = expr::make_family(c.family);
    const auto externals = family->make_externals(c.dims, rng);
    for (const model::Algorithm& alg : family->algorithms(c.dims)) {
      model::ExecutionWorkspace ws(alg, externals);
      ws.run_all({});
      const la::ConstMatrixView expected = ws.result();
      const Matrix got = model::execute(alg, externals);
      ASSERT_EQ(got.rows(), expected.rows()) << c.family << " " << alg.name();
      ASSERT_EQ(got.cols(), expected.cols()) << c.family << " " << alg.name();
      for (index_t j = 0; j < got.cols(); ++j) {
        EXPECT_EQ(std::memcmp(&got(0, j), &expected(0, j),
                              static_cast<std::size_t>(got.rows()) *
                                  sizeof(double)),
                  0)
            << c.family << " " << alg.name() << " column " << j;
      }
    }
  }
}

}  // namespace

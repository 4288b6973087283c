// The expression DSL: flattening rewrites, generic schedule enumeration, the
// symmetric rank-k variant expansion, exact parity with the hand-rolled
// chain/aatb enumerations the DSL replaced, and a differential test of
// DslFamily's enumerate-once-and-bind path against fresh enumeration,
// including the allocation-free re-bind a scan makes per sample.
#include <gtest/gtest.h>

#include <cstdint>

#include "alloc_counter.hpp"
#include "chain/chain.hpp"
#include "expr/aatb.hpp"
#include "expr/expr.hpp"
#include "expr/family.hpp"
#include "expr/registry.hpp"
#include "scripted.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/str.hpp"

namespace {

using namespace lamb;
using expr::Expr;
using expr::ExprPtr;
using model::KernelKind;

TEST(ExprFlatten, ProductFlattensLeftToRight) {
  const ExprPtr a = Expr::operand("A", 0, 1);
  const ExprPtr b = Expr::operand("B", 1, 2);
  const ExprPtr c = Expr::operand("C", 2, 3);
  const auto flat = expr::flatten((a * b) * c);
  ASSERT_EQ(flat.factors.size(), 3u);
  ASSERT_EQ(flat.externals.size(), 3u);
  EXPECT_EQ(flat.externals[0].name, "A");
  EXPECT_EQ(flat.externals[2].name, "C");
  EXPECT_EQ(flat.dimension_count(), 4);
  for (const expr::Factor& f : flat.factors) {
    EXPECT_FALSE(f.trans);
  }
}

TEST(ExprFlatten, TransposeOfProductPushesDown) {
  // (A*B)' = B'*A'.
  const ExprPtr a = Expr::operand("A", 0, 1);
  const ExprPtr b = Expr::operand("B", 1, 2);
  const auto flat = expr::flatten(t(a * b));
  ASSERT_EQ(flat.factors.size(), 2u);
  EXPECT_EQ(flat.externals[static_cast<std::size_t>(flat.factors[0].external)]
                .name,
            "B");
  EXPECT_TRUE(flat.factors[0].trans);
  EXPECT_EQ(flat.externals[static_cast<std::size_t>(flat.factors[1].external)]
                .name,
            "A");
  EXPECT_TRUE(flat.factors[1].trans);
}

TEST(ExprFlatten, DoubleTransposeCancels) {
  const ExprPtr a = Expr::operand("A", 0, 1);
  const auto flat = expr::flatten(t(t(a)) * Expr::operand("B", 1, 2));
  EXPECT_FALSE(flat.factors[0].trans);
}

TEST(ExprFlatten, SyrkSugarExpandsToXXt) {
  const ExprPtr a = Expr::operand("A", 0, 1);
  const auto flat = expr::flatten(Expr::syrk(a));
  ASSERT_EQ(flat.factors.size(), 2u);
  ASSERT_EQ(flat.externals.size(), 1u);
  EXPECT_FALSE(flat.factors[0].trans);
  EXPECT_TRUE(flat.factors[1].trans);
  EXPECT_EQ(flat.factors[0].external, flat.factors[1].external);
}

TEST(ExprFlatten, RepeatedOperandSharesExternal) {
  const ExprPtr a = Expr::operand("A", 0, 1);
  const auto flat = expr::flatten(a * t(a) * Expr::operand("B", 0, 2));
  EXPECT_EQ(flat.externals.size(), 2u);
  EXPECT_EQ(flat.factors.size(), 3u);
}

TEST(ExprFlatten, InconsistentOperandShapesRejected) {
  const ExprPtr a1 = Expr::operand("A", 0, 1);
  const ExprPtr a2 = Expr::operand("A", 1, 2);
  EXPECT_THROW(expr::flatten(a1 * a2), support::CheckError);
}

TEST(ExprToString, RendersTransposesAndSyrk) {
  const ExprPtr a = Expr::operand("A", 0, 1);
  const ExprPtr b = Expr::operand("B", 0, 2);
  EXPECT_EQ((a * t(a) * b)->to_string(), "A*A'*B");
  EXPECT_EQ(Expr::syrk(a)->to_string(), "syrk(A)");
  EXPECT_EQ(t(a * b)->to_string(), "(A*B)'");
}

TEST(ExprEnumerate, ChainParityWithHandRolledSchedules) {
  // The DSL-backed ChainFamily must reproduce chain::enumerate_chain_
  // schedules exactly: same count, same FLOPs, same signatures, same order.
  for (int n = 2; n <= 5; ++n) {
    expr::ChainFamily family(n);
    expr::Instance dims(static_cast<std::size_t>(n) + 1);
    chain::ChainDims cdims(static_cast<std::size_t>(n) + 1);
    for (std::size_t i = 0; i < dims.size(); ++i) {
      dims[i] = static_cast<int>(7 + 3 * i);
      cdims[i] = static_cast<la::index_t>(dims[i]);
    }
    const auto dsl = family.algorithms(dims);
    const auto ref = chain::enumerate_chain_schedules(cdims);
    ASSERT_EQ(dsl.size(), ref.size()) << "n=" << n;
    for (std::size_t i = 0; i < dsl.size(); ++i) {
      EXPECT_EQ(dsl[i].flops(), ref[i].flops()) << "n=" << n << " alg " << i;
      EXPECT_EQ(dsl[i].signature(), ref[i].signature())
          << "n=" << n << " alg " << i;
    }
  }
}

TEST(ExprEnumerate, AatbParityWithPaperAlgorithms) {
  const auto algs = expr::enumerate_aatb_algorithms(9, 14, 23);
  ASSERT_EQ(algs.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(algs[static_cast<std::size_t>(i)].flops(),
              expr::aatb_flops(i + 1, 9, 14, 23))
        << "algorithm " << (i + 1);
  }
}

TEST(ExprEnumerate, SymmetricRewritesCanBeDisabled) {
  // Without the rewrite A*A'*B is a plain 3-chain: two GEMM-only schedules.
  const ExprPtr a = Expr::operand("A", 0, 1);
  const ExprPtr b = Expr::operand("B", 0, 2);
  expr::EnumerationOptions options;
  options.symmetric_rewrites = false;
  const auto algs =
      expr::enumerate_algorithms(a * t(a) * b, {8, 9, 10}, "plain-", options);
  ASSERT_EQ(algs.size(), 2u);
  for (const model::Algorithm& alg : algs) {
    for (const model::Step& s : alg.steps()) {
      EXPECT_EQ(s.call.kind, KernelKind::kGemm);
    }
  }
}

TEST(ExprEnumerate, FinalSymmetricProductGetsTwoVariants) {
  // X := A*A' with no consumer: SYRK+tricopy and plain GEMM.
  const ExprPtr a = Expr::operand("A", 0, 1);
  const auto algs =
      expr::enumerate_algorithms(Expr::syrk(a), {12, 5}, "gram-alg");
  ASSERT_EQ(algs.size(), 2u);
  EXPECT_EQ(algs[0].steps()[0].call.kind, KernelKind::kSyrk);
  EXPECT_EQ(algs[0].steps()[1].call.kind, KernelKind::kTriCopy);
  ASSERT_EQ(algs[1].steps().size(), 1u);
  EXPECT_EQ(algs[1].steps()[0].call.kind, KernelKind::kGemm);
  EXPECT_TRUE(algs[1].steps()[0].call.trans_b);
  for (const model::Algorithm& alg : algs) {
    const model::Operand& out =
        alg.operands()[static_cast<std::size_t>(alg.result_id())];
    EXPECT_EQ(out.rows, 12);
    EXPECT_EQ(out.cols, 12);
    EXPECT_FALSE(out.lower_only);
  }
}

TEST(ExprEnumerate, AlgorithmsAreNamedByPrefix) {
  const ExprPtr a = Expr::operand("A", 0, 1);
  const ExprPtr b = Expr::operand("B", 1, 2);
  const auto algs = expr::enumerate_algorithms(a * b, {3, 4, 5}, "f-alg");
  ASSERT_EQ(algs.size(), 1u);
  EXPECT_EQ(algs[0].name(), "f-alg1");
}

TEST(ExprEnumerate, NonConformingInstanceRejected) {
  const ExprPtr a = Expr::operand("A", 0, 1);
  const ExprPtr b = Expr::operand("B", 2, 0);  // needs dims[2] == dims[1]
  EXPECT_THROW(expr::enumerate_algorithms(a * b, {3, 4, 5}, "x"),
               support::CheckError);
  EXPECT_NO_THROW(expr::enumerate_algorithms(a * b, {3, 4, 4}, "x"));
}

TEST(ExprEnumerate, SingleFactorRejected) {
  const ExprPtr a = Expr::operand("A", 0, 1);
  EXPECT_THROW(expr::enumerate_algorithms(a, {3, 4}, "x"),
               support::CheckError);
}

/// Field-by-field equality of two algorithms, plus the signature hash.
void expect_same_algorithm(const model::Algorithm& bound,
                           const model::Algorithm& fresh,
                           const std::string& where) {
  EXPECT_EQ(bound.name(), fresh.name()) << where;
  EXPECT_EQ(bound.num_externals(), fresh.num_externals()) << where;
  ASSERT_EQ(bound.operands().size(), fresh.operands().size()) << where;
  for (std::size_t i = 0; i < bound.operands().size(); ++i) {
    const model::Operand& b = bound.operands()[i];
    const model::Operand& f = fresh.operands()[i];
    EXPECT_EQ(b.rows, f.rows) << where << " operand " << i;
    EXPECT_EQ(b.cols, f.cols) << where << " operand " << i;
    EXPECT_EQ(b.external, f.external) << where << " operand " << i;
    EXPECT_EQ(b.lower_only, f.lower_only) << where << " operand " << i;
    EXPECT_EQ(b.name, f.name) << where << " operand " << i;
  }
  ASSERT_EQ(bound.steps().size(), fresh.steps().size()) << where;
  for (std::size_t i = 0; i < bound.steps().size(); ++i) {
    const model::Step& b = bound.steps()[i];
    const model::Step& f = fresh.steps()[i];
    EXPECT_TRUE(b.call == f.call)
        << where << " step " << i << ": " << b.call.to_string() << " vs "
        << f.call.to_string();
    EXPECT_EQ(b.inputs, f.inputs) << where << " step " << i;
    EXPECT_EQ(b.output, f.output) << where << " step " << i;
  }
  EXPECT_EQ(bound.flops(), fresh.flops()) << where;
  EXPECT_EQ(bound.signature(), fresh.signature()) << where;
  EXPECT_EQ(bound.signature_hash(), support::hash_string(bound.signature()))
      << where;
  EXPECT_EQ(fresh.signature_hash(), support::hash_string(fresh.signature()))
      << where;
}

// A family's bound algorithm set must equal a fresh enumeration at the same
// instance, at sizes in [1, 48] where equal and unit dimensions occur.
TEST(DslFamily, BoundAlgorithmsMatchFreshEnumeration) {
  const std::vector<std::pair<std::string, int>> cases = {
      {"chain3", 50}, {"chain4", 50}, {"chain5", 50}, {"chain6", 50},
      {"chain7", 50}, {"chain8", 5},  {"aatb", 50},   {"gram", 50},
      {"aatbc", 50}};
  support::Rng rng(2022);
  for (const auto& [name, instances] : cases) {
    const auto owned = expr::make_family(name);
    const auto* family = dynamic_cast<const expr::DslFamily*>(owned.get());
    ASSERT_NE(family, nullptr) << name;
    for (int i = 0; i < instances; ++i) {
      expr::Instance dims(
          static_cast<std::size_t>(family->dimension_count()));
      for (int& d : dims) {
        d = rng.uniform_int(1, 48);
      }
      const auto bound = family->algorithms(dims);
      const auto fresh = expr::enumerate_algorithms(
          family->expression(), dims, family->name() + "-alg");
      ASSERT_EQ(bound.size(), fresh.size()) << name;
      for (std::size_t a = 0; a < bound.size(); ++a) {
        expect_same_algorithm(bound[a], fresh[a],
                              name + " instance " + std::to_string(i) +
                                  " alg " + std::to_string(a));
      }
    }
  }
}

// A scan binds every sample into one set: binding in place must give what a
// fresh set gives, and once the set exists it allocates nothing.
TEST(DslFamily, BindInPlaceMatchesAFreshSetWithoutAllocating) {
  support::Rng rng(2025);
  for (const char* name : {"aatb", "chain4", "gram", "aatbc", "chain8"}) {
    const auto family = expr::make_family(name);
    std::vector<model::Algorithm> algs;
    for (int i = 0; i < 20; ++i) {
      expr::Instance dims(
          static_cast<std::size_t>(family->dimension_count()));
      for (int& d : dims) {
        d = rng.uniform_int(1, 1200);
      }
      const std::uint64_t before = lamb::testing::thread_alloc_count();
      family->bind(dims, algs);
      if (i > 0) {
        EXPECT_EQ(lamb::testing::thread_alloc_count(), before) << name;
      }
      const auto fresh = family->algorithms(dims);
      ASSERT_EQ(algs.size(), fresh.size()) << name;
      for (std::size_t a = 0; a < algs.size(); ++a) {
        expect_same_algorithm(algs[a], fresh[a],
                              std::string(name) + " instance " +
                                  std::to_string(i) + " alg " +
                                  std::to_string(a));
      }
    }
  }
}

TEST(DslFamily, BindRejectsAnotherFamilysSet) {
  std::vector<model::Algorithm> algs;
  expr::make_family("chain4")->bind({10, 20, 30, 40, 50}, algs);
  const auto aatb = expr::make_family("aatb");
  EXPECT_THROW(aatb->bind({10, 20, 30}, algs), support::CheckError);
  // As many algorithms, other signatures.
  algs.clear();
  expr::make_family("chain3")->bind({10, 20, 30, 40}, algs);
  EXPECT_THROW(expr::make_family("gram")->bind({10, 20}, algs),
               support::CheckError);
  // The same expression under another name.
  algs.clear();
  const ExprPtr a = Expr::operand("A", 0, 1);
  const ExprPtr b = Expr::operand("B", 0, 2);
  expr::DslFamily("twin", a * t(a) * b).bind({10, 20, 30}, algs);
  EXPECT_THROW(aatb->bind({10, 20, 30}, algs), support::CheckError);
  algs.clear();
  aatb->bind({10, 20, 30}, algs);
  EXPECT_NO_THROW(aatb->bind({40, 50, 60}, algs));
}

TEST(Algorithm, SignatureHashOfHandBuiltAlgorithms) {
  for (int n = 2; n <= 6; ++n) {
    chain::ChainDims dims(static_cast<std::size_t>(n) + 1);
    for (std::size_t i = 0; i < dims.size(); ++i) {
      dims[i] = static_cast<la::index_t>(3 + i);
    }
    for (const model::Algorithm& alg :
         chain::enumerate_chain_schedules(dims)) {
      EXPECT_EQ(alg.signature_hash(), support::hash_string(alg.signature()))
          << alg.signature();
    }
  }
  const lamb::testing::ScriptedFamily scripted;
  for (const model::Algorithm& alg : scripted.algorithms({40})) {
    EXPECT_EQ(alg.signature_hash(), support::hash_string(alg.signature()))
        << alg.signature();
  }
  // No steps: the hash of the empty signature.
  EXPECT_EQ(model::Algorithm("empty").signature_hash(),
            support::hash_string(""));
}

TEST(Algorithm, RebindRejectsNonConformingShapes) {
  const ExprPtr a = Expr::operand("A", 0, 1);
  const ExprPtr b = Expr::operand("B", 1, 2);
  auto algs = expr::enumerate_algorithms(a * b, {3, 4, 5}, "x");
  ASSERT_EQ(algs.size(), 1u);
  const std::uint64_t hash = algs[0].signature_hash();
  const std::vector<model::Shape> conforming = {{6, 7}, {7, 8}};
  algs[0].rebind(conforming);
  EXPECT_EQ(algs[0].steps()[0].call, model::make_gemm(6, 8, 7));
  EXPECT_EQ(algs[0].signature_hash(), hash);
  const std::vector<model::Shape> mismatched = {{6, 7}, {9, 8}};
  EXPECT_THROW(algs[0].rebind(mismatched), support::CheckError);
  const std::vector<model::Shape> too_few = {{6, 7}};
  EXPECT_THROW(algs[0].rebind(too_few), support::CheckError);
}

/// Sizes d0, d1, ... of a hand-built algorithm.
using Dims = std::vector<la::index_t>;

/// Hand-built algorithms over the dims: between them every kind, both GEMM
/// transposes, SYRK -> tricopy -> GEMM and SYMM on a SYRK output.
model::Algorithm hand_built(int recipe, const Dims& d) {
  model::Algorithm alg("recipe" + std::to_string(recipe));
  switch (recipe) {
    case 0: {  // X := full(syrk(A)) * B^T, then Y := X^T * A
      const int a = alg.add_external(d[0], d[1], "A");
      const int b = alg.add_external(d[2], d[0], "B");
      const int m = alg.add_syrk(a);
      const int mf = alg.add_tricopy(m);
      const int x = alg.add_gemm(mf, b, false, true, "X");
      alg.add_gemm(x, a, true, false, "Y");
      break;
    }
    case 1: {  // X := symm(syrk(A) * B), then Y := X * C
      const int a = alg.add_external(d[0], d[1], "A");
      const int b = alg.add_external(d[0], d[2], "B");
      const int c = alg.add_external(d[2], d[3], "C");
      const int x = alg.add_symm(alg.add_syrk(a), b, "X");
      alg.add_gemm(x, c, false, false, "Y");
      break;
    }
    case 2: {  // M1 := A^T * B^T; M2 := M1 * C^T; X := D^T * M2
      const int a = alg.add_external(d[1], d[0], "A");
      const int b = alg.add_external(d[2], d[1], "B");
      const int c = alg.add_external(d[3], d[2], "C");
      const int dd = alg.add_external(d[0], d[4], "D");
      const int m1 = alg.add_gemm(a, b, true, true);
      const int m2 = alg.add_gemm(m1, c, false, true);
      alg.add_gemm(dd, m2, true, false, "X");
      break;
    }
    case 3: {  // X := symm(S * B) with an external symmetric S; Y := A * X
      const int s = alg.add_external(d[0], d[0], "S");
      const int b = alg.add_external(d[0], d[1], "B");
      const int a = alg.add_external(d[2], d[0], "A");
      alg.add_gemm(a, alg.add_symm(s, b), false, false, "Y");
      break;
    }
  }
  return alg;
}

constexpr int kRecipes = 4;
constexpr std::size_t kRecipeDims = 5;

std::vector<model::Shape> external_shapes(const model::Algorithm& alg) {
  std::vector<model::Shape> shapes;
  for (int i = 0; i < alg.num_externals(); ++i) {
    const model::Operand& o = alg.operands()[static_cast<std::size_t>(i)];
    shapes.push_back({o.rows, o.cols});
  }
  return shapes;
}

TEST(Algorithm, RebindEqualsAFreshBuild) {
  support::Rng rng(31);
  std::vector<Dims> instances = {Dims(kRecipeDims, 1), Dims(kRecipeDims, 7),
                                 {1, 9, 1, 9, 1}, {2, 3, 4, 5, 6}};
  for (int i = 0; i < 40; ++i) {
    Dims d(kRecipeDims);
    for (auto& x : d) {
      // Small sizes, so that many instances hold equal ones.
      x = rng.uniform_int(1, i < 20 ? 4 : 300);
    }
    instances.push_back(d);
  }
  for (int recipe = 0; recipe < kRecipes; ++recipe) {
    model::Algorithm alg = hand_built(recipe, {11, 12, 13, 14, 15});
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const model::Algorithm fresh = hand_built(recipe, instances[i]);
      alg.rebind(external_shapes(fresh));
      expect_same_algorithm(alg, fresh,
                            "recipe " + std::to_string(recipe) +
                                " instance " + std::to_string(i));
    }
  }
}

/// rebind() to `shapes` throws a CheckError that names `step` ("step N
/// (kind)"); a conforming rebind afterwards still equals a fresh build.
void expect_rejected(int recipe, const std::vector<model::Shape>& shapes,
                     const std::string& step) {
  model::Algorithm alg = hand_built(recipe, {2, 3, 4, 5, 6});
  try {
    alg.rebind(shapes);
    ADD_FAILURE() << "recipe " << recipe << ": non-conforming shapes bound";
  } catch (const support::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(step), std::string::npos)
        << e.what();
  }
  const model::Algorithm fresh = hand_built(recipe, {7, 8, 9, 10, 11});
  alg.rebind(external_shapes(fresh));
  expect_same_algorithm(alg, fresh, "after a rejected rebind");
}

TEST(Algorithm, RebindRejectsEachBrokenRuleAlone) {
  // GEMM inner sizes: recipe 2's A^T * B^T needs A rows == B cols.
  expect_rejected(2, {{3, 2}, {4, 5}, {5, 4}, {2, 6}}, "step 1 (gemm)");
  // ... and M1 * C^T needs B rows == C cols.
  expect_rejected(2, {{3, 2}, {4, 3}, {5, 9}, {2, 6}}, "step 2 (gemm)");
  // SYMM's A must be square: S is 3 x 4; B's rows match S's rows.
  expect_rejected(3, {{3, 4}, {3, 5}, {6, 3}}, "step 1 (symm)");
  // SYMM's B rows must match A's: S is 3 x 3, B has 4 rows.
  expect_rejected(3, {{3, 3}, {4, 5}, {6, 3}}, "step 1 (symm)");
  // SYMM on a SYRK output: B's rows must match A's rows.
  expect_rejected(1, {{3, 2}, {4, 5}, {5, 6}}, "step 2 (symm)");
  // A tricopy reads a SYRK output, square at every shape: its one rule
  // compares a size with itself, so the table keeps no pair for it (the
  // first slot holds two constant zeros), and only the builder can break
  // it.
  const model::Algorithm alg = hand_built(0, {2, 3, 4, 5, 6});
  const model::Step& tricopy = alg.steps()[1];
  ASSERT_EQ(tricopy.call.kind, KernelKind::kTriCopy);
  EXPECT_EQ(tricopy.equal_sizes[0][0], tricopy.equal_sizes[0][1]);
  model::Algorithm builder("t");
  EXPECT_THROW(builder.add_tricopy(builder.add_external(3, 4, "A")),
               support::CheckError);
}

TEST(DslFamily, FactorsConformingOnlyAtSomeInstancesRejected) {
  // A(d0 x d1) * B(d2 x d0) conforms only where d1 == d2.
  const ExprPtr a = Expr::operand("A", 0, 1);
  const ExprPtr b = Expr::operand("B", 2, 0);
  EXPECT_THROW(expr::DslFamily("partial", a * b), support::CheckError);
}

TEST(DslFamily, ArityIsBoundedAtConstruction) {
  // Serving keys hold an instance inline, expr::kMaxArity sizes at most: a
  // chain of n factors has n + 1 dimensions.
  const auto chain = [](int factors) {
    const std::vector<std::string> names = chain::chain_operand_names(factors);
    ExprPtr e = Expr::operand(names[0], 0, 1);
    for (int i = 1; i < factors; ++i) {
      e = e * Expr::operand(names[static_cast<std::size_t>(i)], i, i + 1);
    }
    return e;
  };
  EXPECT_THROW(expr::DslFamily("wide", chain(expr::kMaxArity)),
               support::CheckError);
  EXPECT_EQ(expr::DslFamily("narrow", chain(3)).dimension_count(), 4);
  EXPECT_EQ(expr::make_family("chain8")->dimension_count(), expr::kMaxArity);
}

TEST(DslFamily, OperandCountIsBoundedAtConstruction) {
  // One operand past the bound, all square over d0: rejected before its
  // 16! schedules would be enumerated.
  ExprPtr e = Expr::operand("A0", 0, 0);
  for (int i = 1; i <= expr::DslFamily::kMaxExternals; ++i) {
    e = e * Expr::operand(support::strf("A%d", i), 0, 0);
  }
  EXPECT_THROW(expr::DslFamily("long", e), support::CheckError);
}

TEST(DslFamily, DimensionCountDerivedFromExpression) {
  const ExprPtr a = Expr::operand("A", 0, 1);
  const ExprPtr b = Expr::operand("B", 0, 2);
  const ExprPtr c = Expr::operand("C", 2, 3);
  expr::DslFamily family("aatbc", a * t(a) * b * c);
  EXPECT_EQ(family.dimension_count(), 4);
  EXPECT_EQ(family.name(), "aatbc");
  EXPECT_EQ(family.expression()->to_string(), "A*A'*B*C");
}

TEST(DslFamily, ExternalsFollowFirstAppearanceOrder) {
  const ExprPtr a = Expr::operand("A", 0, 1);
  const ExprPtr b = Expr::operand("B", 0, 2);
  expr::DslFamily family("aatb2", a * t(a) * b);
  support::Rng rng(5);
  const auto ext = family.make_externals({8, 9, 10}, rng);
  ASSERT_EQ(ext.size(), 2u);
  EXPECT_EQ(ext[0].rows(), 8);
  EXPECT_EQ(ext[0].cols(), 9);
  EXPECT_EQ(ext[1].rows(), 8);
  EXPECT_EQ(ext[1].cols(), 10);
}

}  // namespace

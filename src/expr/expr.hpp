// Expression DSL: the small term language from which equivalent-algorithm
// sets are enumerated generically.
//
// An expression is a tree of three node kinds — operand leaves (named, with
// symbolic dimensions indexing into an Instance), transposes and products.
// Operand dimensions are *symbolic*: `rows_dim`/`cols_dim` index the family's
// instance tuple, so one expression describes the whole instance space.
//
// From an expression the enumerator derives the paper's algorithm sets:
//   * the product is flattened into a factor list (transposes are pushed down
//     to the leaves via (XY)' = Y'X' and X'' = X),
//   * every multiplication schedule over the factors is generated in
//     first-choice-major order — the ordering that reproduces the paper's
//     Algorithm 1..6 numbering for the 4-chain,
//   * a step multiplying X by X' is recognised as a symmetric rank-k product
//     and expanded into the paper's kernel variants (SYRK+SYMM,
//     SYRK+tricopy+GEMM, GEMM+SYMM, GEMM+GEMM — Sec. 3.2.2's five A*A'*B
//     algorithms fall out of this rewrite).
//
// The result is a vector of model::Algorithm built through the validating
// builder, so every enumerated algorithm is correct by construction and can
// be executed or timed generically.
//
// The enumeration never branches on a size: sizes enter only as operand
// shapes and the conformance check. DslFamily (expr/family.hpp) therefore
// enumerates once per family, at an instance where every dimension has a
// distinct size, and binds each instance's sizes into a copy of that set
// (model::Algorithm::rebind); factors that conform only at some instances
// are rejected when the family is built.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "model/algorithm.hpp"

namespace lamb::expr {

/// A point in a family's instance space, e.g. (d0, d1, d2, d3, d4).
using Instance = std::vector<int>;

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
 public:
  enum class Kind { kOperand, kTranspose, kProduct, kSyrk };

  /// Leaf: a named external operand of symbolic shape
  /// dims[rows_dim] x dims[cols_dim]. The same name may appear several times
  /// (e.g. A and A' in A*A'*B); all appearances must agree on the shape.
  static ExprPtr operand(std::string name, int rows_dim, int cols_dim);
  static ExprPtr transpose(ExprPtr inner);
  static ExprPtr product(ExprPtr lhs, ExprPtr rhs);
  /// Symmetric rank-k node: syrk(X) == X * X'. Pure sugar — it flattens to
  /// the two-factor product, which the enumerator then recognises and expands
  /// into the SYRK / SYMM kernel variants.
  static ExprPtr syrk(ExprPtr inner);

  Kind kind() const { return kind_; }

  // Operand accessors (kind() == kOperand only).
  const std::string& operand_name() const { return name_; }
  int rows_dim() const { return rows_dim_; }
  int cols_dim() const { return cols_dim_; }

  // Child accessors (kTranspose uses lhs only).
  const ExprPtr& lhs() const { return lhs_; }
  const ExprPtr& rhs() const { return rhs_; }

  /// Rendering for reports and registry listings, e.g. "A*A'*B".
  std::string to_string() const;

 private:
  Expr() = default;

  Kind kind_ = Kind::kOperand;
  std::string name_;
  int rows_dim_ = -1;
  int cols_dim_ = -1;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

/// Infix sugar: product and transpose.
ExprPtr operator*(const ExprPtr& lhs, const ExprPtr& rhs);
ExprPtr t(const ExprPtr& x);

/// One external operand of a flattened expression, in first-appearance order.
struct ExternalSpec {
  std::string name;
  int rows_dim = -1;
  int cols_dim = -1;
};

/// One factor of the flattened top-level product: an external (by index into
/// FlatProduct::externals), possibly transposed.
struct Factor {
  int external = -1;
  bool trans = false;
};

/// An expression flattened to externals + factor list, with transposes pushed
/// down to the leaves. Throws support::CheckError when two appearances of the
/// same operand name disagree on shape.
struct FlatProduct {
  std::vector<ExternalSpec> externals;
  std::vector<Factor> factors;

  /// Number of instance dimensions the expression references (max index + 1).
  int dimension_count() const;
};

FlatProduct flatten(const ExprPtr& root);

struct EnumerationOptions {
  /// Recognise X*X' steps as symmetric rank-k products and emit the SYRK /
  /// SYMM kernel variants alongside the plain GEMM lowering.
  bool symmetric_rewrites = true;
};

/// Enumerate every algorithm for `root` at the concrete instance `dims`.
/// Algorithms are named `<name_prefix><i>` (1-based) in enumeration order:
/// schedules in first-choice-major order, symmetric kernel variants expanded
/// innermost in the paper's (SYRK,SYMM), (SYRK,GEMM), (GEMM,SYMM),
/// (GEMM,GEMM) order.
std::vector<model::Algorithm> enumerate_algorithms(
    const ExprPtr& root, const Instance& dims, const std::string& name_prefix,
    const EnumerationOptions& options = {});

}  // namespace lamb::expr

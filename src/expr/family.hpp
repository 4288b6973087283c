// Expression families: the generic interface the anomaly experiments run
// against. A family maps an instance (a tuple of free dimension sizes) to
// its set of mathematically-equivalent algorithms and can materialise random
// external operands for real execution.
//
// Families are defined through the expression DSL (expr/expr.hpp): DslFamily
// enumerates the algorithm set generically from an expression, so a new
// family is one expression plus a registry entry (expr/registry.hpp) —
// ChainFamily and AatbFamily below are exactly that. The set is enumerated
// once per family and bound to each instance's sizes on request; a scan
// that classifies many sizes binds each one into the same set in place.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "expr/expr.hpp"
#include "la/matrix.hpp"
#include "model/algorithm.hpp"
#include "support/rng.hpp"

namespace lamb::expr {

/// Largest instance dimension a family accepts. A built-in family makes at
/// most 7 kernel calls of at most 2 * (2^19)^3 = 2^58 FLOPs each, so every
/// FLOP total stays below 2^61 and fits a long long.
inline constexpr int kMaxDimension = 1 << 19;

/// Most free dimensions a family may have; chain8, the longest built-in,
/// has 9. The serving layer holds an instance inline in its cache and slice
/// keys, sized by this bound.
inline constexpr int kMaxArity = 9;

class ExpressionFamily {
 public:
  virtual ~ExpressionFamily() = default;

  virtual std::string name() const = 0;

  /// Number of free dimensions of an instance.
  virtual int dimension_count() const = 0;

  /// Names for reports: "d0", "d1", ...
  std::vector<std::string> dimension_names() const;

  /// The set of algorithms for an instance, in the paper's canonical order
  /// (a fresh set, bound by bind()).
  std::vector<model::Algorithm> algorithms(const Instance& dims) const;

  /// Bind `dims` into `algs`: an empty `algs` receives the set for `dims`;
  /// a non-empty one must hold this family's set from an earlier bind and
  /// gets the new sizes. Throws support::CheckError on a bad instance.
  virtual void bind(const Instance& dims,
                    std::vector<model::Algorithm>& algs) const = 0;

  /// Random external operands matching the algorithms' external table.
  virtual std::vector<la::Matrix> make_externals(const Instance& dims,
                                                 support::Rng& rng) const = 0;

  /// Throws support::CheckError unless `dims` has dimension_count() sizes,
  /// at most kMaxArity, each in [1, kMaxDimension].
  void check_instance(const Instance& dims) const;
};

/// A family defined entirely by a DSL expression. The constructor enumerates
/// the algorithm set once (schedules + symmetric rank-k rewrites, via
/// enumerate_algorithms) at the instance (1, 2, ..., n), where every
/// dimension has a distinct size; bind() copies that set into an empty
/// vector and then binds the instance's sizes in (model::Algorithm::rebind),
/// which allocates nothing. The enumerator never branches on a size, so the
/// bound set equals a fresh enumeration at that instance. Factors that
/// conform only when two dimensions coincide, such as A(d0 x d1) *
/// B(d2 x d0), are rejected at construction, as are expressions with more
/// than kMaxArity dimensions or kMaxExternals operands. The externals follow
/// the expression's operand table.
class DslFamily : public ExpressionFamily {
 public:
  /// Most distinct operands an expression may have: their shapes are
  /// derived on the stack. A product of this many factors has 15!
  /// multiplication schedules, far more than any family can enumerate.
  static constexpr int kMaxExternals = 16;

  DslFamily(std::string name, ExprPtr expression,
            EnumerationOptions options = {});

  std::string name() const override { return name_; }
  int dimension_count() const override { return dimension_count_; }
  void bind(const Instance& dims,
            std::vector<model::Algorithm>& algs) const override;
  std::vector<la::Matrix> make_externals(const Instance& dims,
                                         support::Rng& rng) const override;

  const ExprPtr& expression() const { return expression_; }

 private:
  using ExternalShapes = std::array<model::Shape, kMaxExternals>;

  /// Shapes of the expression's externals at `dims`, in operand-table
  /// order, written to the front of `out`.
  std::span<const model::Shape> external_shapes(const Instance& dims,
                                                ExternalShapes& out) const;

  std::string name_;
  ExprPtr expression_;
  FlatProduct flat_;
  int dimension_count_ = 0;
  std::vector<model::Algorithm> compiled_;
};

/// X := A1 * ... * An, instance (d0, ..., dn); algorithms are all (n-1)!
/// multiplication schedules (paper Sec. 3.2.1 for n = 4).
class ChainFamily final : public DslFamily {
 public:
  /// Longest chain a family is built for. chain8 compiles 7! = 5,040
  /// schedules at construction; every further factor multiplies that.
  static constexpr int kMaxLength = 8;
  static_assert(kMaxLength + 1 <= kMaxArity);  // chainN has N + 1 dims

  /// Throws support::CheckError unless 2 <= length <= kMaxLength.
  explicit ChainFamily(int length = 4);

  int length() const { return length_; }

 private:
  int length_;
};

/// X := A * A^T * B, instance (d0, d1, d2); the five algorithms of
/// paper Sec. 3.2.2 fall out of the DSL's symmetric rank-k rewrite.
class AatbFamily final : public DslFamily {
 public:
  AatbFamily();
};

}  // namespace lamb::expr

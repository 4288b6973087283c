#include "expr/family.hpp"

#include <numeric>

#include "chain/chain.hpp"
#include "la/generators.hpp"
#include "support/check.hpp"
#include "support/str.hpp"

namespace lamb::expr {

std::vector<std::string> ExpressionFamily::dimension_names() const {
  std::vector<std::string> names;
  const int n = dimension_count();
  names.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    names.push_back(support::strf("d%d", i));
  }
  return names;
}

std::vector<model::Algorithm> ExpressionFamily::algorithms(
    const Instance& dims) const {
  std::vector<model::Algorithm> out;
  bind(dims, out);
  return out;
}

void ExpressionFamily::check_instance(const Instance& dims) const {
  LAMB_CHECK(static_cast<int>(dims.size()) == dimension_count(),
             "instance arity mismatch for family " + name());
  LAMB_CHECK(dims.size() <= static_cast<std::size_t>(kMaxArity),
             support::strf("instances have at most %d dimensions", kMaxArity));
  for (int d : dims) {
    LAMB_CHECK(d >= 1, "instance dimensions must be positive");
    LAMB_CHECK(d <= kMaxDimension,
               support::strf("instance dimensions must be at most %d",
                             kMaxDimension));
  }
}

DslFamily::DslFamily(std::string name, ExprPtr expression,
                     EnumerationOptions options)
    : name_(std::move(name)),
      expression_(std::move(expression)),
      flat_(flatten(expression_)),
      dimension_count_(flat_.dimension_count()) {
  LAMB_CHECK(!name_.empty(), "family needs a name");
  LAMB_CHECK(flat_.factors.size() >= 2,
             "family expression must be a product of at least two factors");
  LAMB_CHECK(dimension_count_ <= kMaxArity,
             support::strf("family '%s' has %d dimensions; at most %d are "
                           "supported",
                           name_.c_str(), dimension_count_, kMaxArity));
  LAMB_CHECK(flat_.externals.size() <= static_cast<std::size_t>(kMaxExternals),
             support::strf("family '%s' has %zu operands; at most %d are "
                           "supported",
                           name_.c_str(), flat_.externals.size(),
                           kMaxExternals));
  // Distinct sizes make two dimensions equal only where their indices are:
  // factors that conform here conform at every instance.
  Instance distinct(static_cast<std::size_t>(dimension_count_));
  std::iota(distinct.begin(), distinct.end(), 1);
  compiled_ = enumerate_algorithms(expression_, distinct, name_ + "-alg",
                                   options);
}

std::span<const model::Shape> DslFamily::external_shapes(
    const Instance& dims, ExternalShapes& out) const {
  check_instance(dims);
  for (std::size_t i = 0; i < flat_.externals.size(); ++i) {
    const ExternalSpec& e = flat_.externals[i];
    out[i] = {dims[static_cast<std::size_t>(e.rows_dim)],
              dims[static_cast<std::size_t>(e.cols_dim)]};
  }
  return {out.data(), flat_.externals.size()};
}

void DslFamily::bind(const Instance& dims,
                     std::vector<model::Algorithm>& algs) const {
  ExternalShapes buffer;
  const std::span<const model::Shape> shapes = external_shapes(dims, buffer);
  if (algs.empty()) {
    algs = compiled_;
  }
  LAMB_CHECK(algs.size() == compiled_.size(),
             "bind: the algorithms belong to another family");
  for (std::size_t i = 0; i < algs.size(); ++i) {
    LAMB_CHECK(algs[i].signature_hash() == compiled_[i].signature_hash() &&
                   algs[i].name() == compiled_[i].name(),
               "bind: the algorithms belong to another family");
    algs[i].rebind(shapes);
  }
}

std::vector<la::Matrix> DslFamily::make_externals(const Instance& dims,
                                                  support::Rng& rng) const {
  ExternalShapes buffer;
  const std::span<const model::Shape> shapes = external_shapes(dims, buffer);
  std::vector<la::Matrix> out;
  out.reserve(shapes.size());
  for (const model::Shape& s : shapes) {
    out.push_back(la::random_matrix(s.rows, s.cols, rng));
  }
  return out;
}

namespace {

ExprPtr chain_expression(int length) {
  LAMB_CHECK(length >= 2, "chain family needs at least two matrices");
  LAMB_CHECK(length <= ChainFamily::kMaxLength,
             support::strf("chain family supports at most %d matrices",
                           ChainFamily::kMaxLength));
  const std::vector<std::string> names = chain::chain_operand_names(length);
  ExprPtr expr = Expr::operand(names[0], 0, 1);
  for (int i = 1; i < length; ++i) {
    expr = expr * Expr::operand(names[static_cast<std::size_t>(i)], i, i + 1);
  }
  return expr;
}

ExprPtr aatb_expression() {
  const ExprPtr a = Expr::operand("A", 0, 1);
  const ExprPtr b = Expr::operand("B", 0, 2);
  return a * t(a) * b;
}

}  // namespace

ChainFamily::ChainFamily(int length)
    : DslFamily(support::strf("chain%d", length), chain_expression(length)),
      length_(length) {}

AatbFamily::AatbFamily() : DslFamily("aatb", aatb_expression()) {}

}  // namespace lamb::expr

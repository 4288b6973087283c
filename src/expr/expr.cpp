#include "expr/expr.hpp"

#include <algorithm>
#include <map>

#include "support/check.hpp"
#include "support/str.hpp"

namespace lamb::expr {

ExprPtr Expr::operand(std::string name, int rows_dim, int cols_dim) {
  LAMB_CHECK(!name.empty(), "operand needs a name");
  LAMB_CHECK(rows_dim >= 0 && cols_dim >= 0,
             "operand dimension indices must be non-negative");
  auto node = std::shared_ptr<Expr>(new Expr());
  node->kind_ = Kind::kOperand;
  node->name_ = std::move(name);
  node->rows_dim_ = rows_dim;
  node->cols_dim_ = cols_dim;
  return node;
}

ExprPtr Expr::transpose(ExprPtr inner) {
  LAMB_CHECK(inner != nullptr, "transpose of a null expression");
  auto node = std::shared_ptr<Expr>(new Expr());
  node->kind_ = Kind::kTranspose;
  node->lhs_ = std::move(inner);
  return node;
}

ExprPtr Expr::product(ExprPtr lhs, ExprPtr rhs) {
  LAMB_CHECK(lhs != nullptr && rhs != nullptr, "product of a null expression");
  auto node = std::shared_ptr<Expr>(new Expr());
  node->kind_ = Kind::kProduct;
  node->lhs_ = std::move(lhs);
  node->rhs_ = std::move(rhs);
  return node;
}

ExprPtr Expr::syrk(ExprPtr inner) {
  LAMB_CHECK(inner != nullptr, "syrk of a null expression");
  auto node = std::shared_ptr<Expr>(new Expr());
  node->kind_ = Kind::kSyrk;
  node->lhs_ = std::move(inner);
  return node;
}

std::string Expr::to_string() const {
  switch (kind_) {
    case Kind::kOperand:
      return name_;
    case Kind::kTranspose: {
      if (lhs_->kind() == Kind::kOperand) {
        return lhs_->to_string() + "'";
      }
      // Built by appends: GCC 12 raises a false -Wrestrict warning on
      // `"(" + std::string&&`.
      std::string out = "(";
      out += lhs_->to_string();
      out += ")'";
      return out;
    }
    case Kind::kProduct:
      return lhs_->to_string() + "*" + rhs_->to_string();
    case Kind::kSyrk:
      return "syrk(" + lhs_->to_string() + ")";
  }
  return {};
}

ExprPtr operator*(const ExprPtr& lhs, const ExprPtr& rhs) {
  return Expr::product(lhs, rhs);
}

ExprPtr t(const ExprPtr& x) {
  return Expr::transpose(x);
}

int FlatProduct::dimension_count() const {
  int max_dim = -1;
  for (const ExternalSpec& e : externals) {
    max_dim = std::max({max_dim, e.rows_dim, e.cols_dim});
  }
  return max_dim + 1;
}

namespace {

/// Push transposes down to the leaves: (XY)' -> Y'X', X'' -> X. Appends the
/// resulting factors left to right.
void flatten_into(const ExprPtr& node, bool transposed, FlatProduct& out,
                  std::map<std::string, int>& index_by_name) {
  switch (node->kind()) {
    case Expr::Kind::kOperand: {
      const auto it = index_by_name.find(node->operand_name());
      int index;
      if (it == index_by_name.end()) {
        index = static_cast<int>(out.externals.size());
        out.externals.push_back(ExternalSpec{node->operand_name(),
                                             node->rows_dim(),
                                             node->cols_dim()});
        index_by_name.emplace(node->operand_name(), index);
      } else {
        index = it->second;
        const ExternalSpec& seen = out.externals[static_cast<std::size_t>(index)];
        LAMB_CHECK(seen.rows_dim == node->rows_dim() &&
                       seen.cols_dim == node->cols_dim(),
                   "operand " + node->operand_name() +
                       " appears with inconsistent shapes");
      }
      out.factors.push_back(Factor{index, transposed});
      return;
    }
    case Expr::Kind::kTranspose:
      flatten_into(node->lhs(), !transposed, out, index_by_name);
      return;
    case Expr::Kind::kProduct:
      if (transposed) {
        // (XY)' = Y'X'.
        flatten_into(node->rhs(), true, out, index_by_name);
        flatten_into(node->lhs(), true, out, index_by_name);
        return;
      }
      flatten_into(node->lhs(), false, out, index_by_name);
      flatten_into(node->rhs(), false, out, index_by_name);
      return;
    case Expr::Kind::kSyrk:
      // syrk(X) = X*X' regardless of an outer transpose ((XX')' = XX').
      flatten_into(node->lhs(), false, out, index_by_name);
      flatten_into(node->lhs(), true, out, index_by_name);
      return;
  }
}

}  // namespace

FlatProduct flatten(const ExprPtr& root) {
  LAMB_CHECK(root != nullptr, "cannot flatten a null expression");
  FlatProduct out;
  std::map<std::string, int> index_by_name;
  flatten_into(root, false, out, index_by_name);
  return out;
}

namespace {

/// First-choice-major decision sequences, as in chain::enumerate_chain_
/// schedules: each decision is the index of the adjacent pair to multiply.
void gen_decisions(int remaining, std::vector<int>& prefix,
                   std::vector<std::vector<int>>& out) {
  if (remaining == 1) {
    out.push_back(prefix);
    return;
  }
  for (int p = 0; p + 1 < remaining; ++p) {
    prefix.push_back(p);
    gen_decisions(remaining - 1, prefix, out);
    prefix.pop_back();
  }
}

/// How a symmetric temporary is to be consumed by the next product.
enum class ConsumeMode {
  kFull,       ///< physically full matrix, consume via GEMM
  kSymmLower,  ///< symmetric, consume via SYMM (reads the lower triangle)
};

/// A live entry of the shrinking factor list during lowering.
struct Item {
  int op_id = -1;               ///< operand id in the Algorithm under build
  bool trans = false;           ///< pending leaf transpose (externals only)
  ConsumeMode mode = ConsumeMode::kFull;
};

struct Lowering {
  const Instance* dims = nullptr;
  bool symmetric_rewrites = true;
  std::vector<model::Algorithm>* out = nullptr;

  la::index_t dim(int index) const {
    return static_cast<la::index_t>((*dims)[static_cast<std::size_t>(index)]);
  }

  /// True when items p, p+1 are the same untouched external as X * X'.
  bool is_symmetric_pair(const model::Algorithm& alg,
                         const std::vector<Item>& items, int p) const {
    if (!symmetric_rewrites) {
      return false;
    }
    const Item& l = items[static_cast<std::size_t>(p)];
    const Item& r = items[static_cast<std::size_t>(p) + 1];
    return l.op_id == r.op_id && !l.trans && r.trans &&
           alg.operands()[static_cast<std::size_t>(l.op_id)].external;
  }

  /// Emit the product of items p, p+1 as a plain GEMM/SYMM step and replace
  /// the pair by its result; returns false, emitting nothing, when the
  /// branch's consumption mode cannot be expressed by the kernel set (the
  /// branch is pruned).
  bool emit_plain(model::Algorithm& alg, std::vector<Item>& items, int p) const {
    const Item l = items[static_cast<std::size_t>(p)];
    const Item r = items[static_cast<std::size_t>(p) + 1];
    int produced;
    if (l.mode == ConsumeMode::kSymmLower) {
      // SYMM computes C := A_sym * B with a plain, untransposed B.
      if (r.trans || r.mode == ConsumeMode::kSymmLower ||
          alg.operands()[static_cast<std::size_t>(r.op_id)].lower_only) {
        return false;
      }
      produced = alg.add_symm(l.op_id, r.op_id);
    } else if (r.mode == ConsumeMode::kSymmLower) {
      // A symmetric temporary on the right has no SYMM lowering here (the
      // kernel set only supports the left side); this branch is covered by
      // the GEMM-consumption variant instead.
      return false;
    } else {
      produced = alg.add_gemm(l.op_id, r.op_id, l.trans, r.trans);
    }
    items[static_cast<std::size_t>(p)] =
        Item{produced, false, ConsumeMode::kFull};
    items.erase(items.begin() + p + 1);
    return true;
  }

  /// Depth-first expansion: apply decisions[index...], branching over kernel
  /// variants at every symmetric rank-k step.
  void expand(const std::vector<int>& decisions, std::size_t index,
              model::Algorithm alg, std::vector<Item> items) const {
    if (index == decisions.size()) {
      out->push_back(std::move(alg));
      return;
    }
    const int p = decisions[index];
    LAMB_CHECK(p >= 0 && p + 1 < static_cast<int>(items.size()),
               "invalid schedule decision");
    if (!is_symmetric_pair(alg, items, p)) {
      if (emit_plain(alg, items, p)) {
        expand(decisions, index + 1, std::move(alg), std::move(items));
      }
      return;
    }

    const int a = items[static_cast<std::size_t>(p)].op_id;
    const bool is_final = index + 1 == decisions.size();
    const auto branch = [&](auto&& produce, ConsumeMode mode) {
      model::Algorithm alg_copy = alg;
      std::vector<Item> items_copy = items;
      const int produced = produce(alg_copy);
      items_copy[static_cast<std::size_t>(p)] = Item{produced, false, mode};
      items_copy.erase(items_copy.begin() + p + 1);
      expand(decisions, index + 1, std::move(alg_copy), std::move(items_copy));
    };

    if (is_final) {
      // No consumer: SYRK needs a triangle copy to materialise the full
      // result; GEMM produces it directly.
      branch([&](model::Algorithm& a_) { return a_.add_tricopy(a_.add_syrk(a)); },
             ConsumeMode::kFull);
      branch([&](model::Algorithm& a_) { return a_.add_gemm(a, a, false, true); },
             ConsumeMode::kFull);
      return;
    }
    // The paper's variant order (Sec. 3.2.2): (SYRK, SYMM),
    // (SYRK+tricopy, GEMM), (GEMM, SYMM), (GEMM, GEMM).
    branch([&](model::Algorithm& a_) { return a_.add_syrk(a); },
           ConsumeMode::kSymmLower);
    branch([&](model::Algorithm& a_) { return a_.add_tricopy(a_.add_syrk(a)); },
           ConsumeMode::kFull);
    branch([&](model::Algorithm& a_) { return a_.add_gemm(a, a, false, true); },
           ConsumeMode::kSymmLower);
    branch([&](model::Algorithm& a_) { return a_.add_gemm(a, a, false, true); },
           ConsumeMode::kFull);
  }
};

}  // namespace

std::vector<model::Algorithm> enumerate_algorithms(
    const ExprPtr& root, const Instance& dims, const std::string& name_prefix,
    const EnumerationOptions& options) {
  const FlatProduct flat = flatten(root);
  const int n = static_cast<int>(flat.factors.size());
  LAMB_CHECK(n >= 2, "expression must be a product of at least two factors");
  LAMB_CHECK(static_cast<int>(dims.size()) >= flat.dimension_count(),
             "instance has fewer dimensions than the expression references");
  for (int d : dims) {
    LAMB_CHECK(d >= 1, "instance dimensions must be positive");
  }

  Lowering lowering;
  lowering.dims = &dims;
  lowering.symmetric_rewrites = options.symmetric_rewrites;

  // Conformance of the factor chain at this instance.
  const auto factor_rows = [&](const Factor& f) {
    const ExternalSpec& e = flat.externals[static_cast<std::size_t>(f.external)];
    return lowering.dim(f.trans ? e.cols_dim : e.rows_dim);
  };
  const auto factor_cols = [&](const Factor& f) {
    const ExternalSpec& e = flat.externals[static_cast<std::size_t>(f.external)];
    return lowering.dim(f.trans ? e.rows_dim : e.cols_dim);
  };
  for (int i = 0; i + 1 < n; ++i) {
    LAMB_CHECK(factor_cols(flat.factors[static_cast<std::size_t>(i)]) ==
                   factor_rows(flat.factors[static_cast<std::size_t>(i) + 1]),
               "expression factors do not conform at this instance");
  }

  std::vector<std::vector<int>> decisions;
  std::vector<int> prefix;
  gen_decisions(n, prefix, decisions);

  std::vector<model::Algorithm> out;
  lowering.out = &out;

  // Template algorithm: externals registered once, in first-appearance order.
  model::Algorithm proto;
  std::vector<int> external_ids;
  external_ids.reserve(flat.externals.size());
  for (const ExternalSpec& e : flat.externals) {
    external_ids.push_back(proto.add_external(lowering.dim(e.rows_dim),
                                              lowering.dim(e.cols_dim),
                                              e.name));
  }
  std::vector<Item> items;
  items.reserve(static_cast<std::size_t>(n));
  for (const Factor& f : flat.factors) {
    items.push_back(Item{external_ids[static_cast<std::size_t>(f.external)],
                         f.trans, ConsumeMode::kFull});
  }

  for (const std::vector<int>& d : decisions) {
    lowering.expand(d, 0, proto, items);
  }
  LAMB_CHECK(!out.empty(), "enumeration produced no algorithms");
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].set_name(support::strf("%s%zu", name_prefix.c_str(), i + 1));
  }
  return out;
}

}  // namespace lamb::expr

#include "chain/chain.hpp"

#include <limits>
#include <memory>

#include "support/check.hpp"
#include "support/str.hpp"

namespace lamb::chain {

using model::Algorithm;

int chain_length(const ChainDims& dims) {
  LAMB_CHECK(dims.size() >= 2, "a chain needs at least one matrix");
  for (la::index_t d : dims) {
    LAMB_CHECK(d >= 1, "chain dimensions must be positive");
  }
  return static_cast<int>(dims.size()) - 1;
}

std::vector<std::string> chain_operand_names(int n) {
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (i < 26) {
      names.push_back(std::string(1, static_cast<char>('A' + i)));
    } else {
      names.push_back(support::strf("X%d", i + 1));
    }
  }
  return names;
}

namespace {

/// Generate every decision sequence: at each step, the index of the adjacent
/// pair to multiply. First-choice-major ordering reproduces the paper's
/// Algorithm 1..6 numbering for n = 4.
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

Algorithm build_from_decisions(const ChainDims& dims,
                               const std::vector<int>& decisions,
                               const std::string& name) {
  const int n = chain_length(dims);
  Algorithm alg(name);
  const std::vector<std::string> names = chain_operand_names(n);
  std::vector<int> items;  // operand ids of the current chain entries
  items.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    items.push_back(alg.add_external(dims[static_cast<std::size_t>(i)],
                                     dims[static_cast<std::size_t>(i) + 1],
                                     names[static_cast<std::size_t>(i)]));
  }
  for (int p : decisions) {
    LAMB_CHECK(p >= 0 && p + 1 < static_cast<int>(items.size()),
               "invalid decision");
    const int product =
        alg.add_gemm(items[static_cast<std::size_t>(p)],
                     items[static_cast<std::size_t>(p) + 1]);
    items[static_cast<std::size_t>(p)] = product;
    items.erase(items.begin() + p + 1);
  }
  return alg;
}

/// Binary bracketing tree over matrices [lo, hi].
struct TreeNode {
  int lo = 0;
  int hi = 0;
  int split = -1;  // product of [lo, split] and [split+1, hi]
  std::unique_ptr<TreeNode> left;
  std::unique_ptr<TreeNode> right;
};

std::unique_ptr<TreeNode> clone(const TreeNode& node) {
  auto copy = std::make_unique<TreeNode>();
  copy->lo = node.lo;
  copy->hi = node.hi;
  copy->split = node.split;
  if (node.left) {
    copy->left = clone(*node.left);
  }
  if (node.right) {
    copy->right = clone(*node.right);
  }
  return copy;
}

std::vector<std::unique_ptr<TreeNode>> build_trees(int lo, int hi) {
  std::vector<std::unique_ptr<TreeNode>> out;
  if (lo == hi) {
    auto leaf = std::make_unique<TreeNode>();
    leaf->lo = lo;
    leaf->hi = hi;
    out.push_back(std::move(leaf));
    return out;
  }
  for (int split = lo; split < hi; ++split) {
    auto lefts = build_trees(lo, split);
    auto rights = build_trees(split + 1, hi);
    for (const auto& l : lefts) {
      for (const auto& r : rights) {
        auto node = std::make_unique<TreeNode>();
        node->lo = lo;
        node->hi = hi;
        node->split = split;
        node->left = clone(*l);
        node->right = clone(*r);
        out.push_back(std::move(node));
      }
    }
  }
  return out;
}

int emit_tree(const TreeNode& node, Algorithm& alg,
              const std::vector<int>& external_ids) {
  if (node.lo == node.hi) {
    return external_ids[static_cast<std::size_t>(node.lo)];
  }
  const int left = emit_tree(*node.left, alg, external_ids);
  const int right = emit_tree(*node.right, alg, external_ids);
  return alg.add_gemm(left, right);
}

/// "(left*right)", built by appends: GCC 12 raises a false -Wrestrict
/// warning on `"(" + std::string&&`.
std::string product_string(const std::string& left, const std::string& right) {
  std::string out = "(";
  out += left;
  out += '*';
  out += right;
  out += ')';
  return out;
}

std::string tree_string(const TreeNode& node,
                        const std::vector<std::string>& names) {
  if (node.lo == node.hi) {
    return names[static_cast<std::size_t>(node.lo)];
  }
  return product_string(tree_string(*node.left, names),
                        tree_string(*node.right, names));
}

}  // namespace

std::vector<Algorithm> enumerate_chain_schedules(const ChainDims& dims) {
  const int n = chain_length(dims);
  std::vector<std::vector<int>> decisions;
  std::vector<int> prefix;
  gen_decisions(n, prefix, decisions);

  std::vector<Algorithm> out;
  out.reserve(decisions.size());
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    out.push_back(build_from_decisions(
        dims, decisions[i], support::strf("chain-alg%zu", i + 1)));
  }
  return out;
}

std::vector<Algorithm> enumerate_chain_parenthesisations(
    const ChainDims& dims) {
  const int n = chain_length(dims);
  const std::vector<std::string> names = chain_operand_names(n);
  const auto trees = build_trees(0, n - 1);

  std::vector<Algorithm> out;
  out.reserve(trees.size());
  for (const auto& tree : trees) {
    Algorithm alg(tree_string(*tree, names));
    std::vector<int> external_ids;
    external_ids.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      external_ids.push_back(
          alg.add_external(dims[static_cast<std::size_t>(i)],
                           dims[static_cast<std::size_t>(i) + 1],
                           names[static_cast<std::size_t>(i)]));
    }
    emit_tree(*tree, alg, external_ids);
    out.push_back(std::move(alg));
  }
  return out;
}

long long schedule_count(int n) {
  LAMB_CHECK(n >= 1, "chain needs at least one matrix");
  long long f = 1;
  for (int i = 2; i <= n - 1; ++i) {
    f *= i;
  }
  return f;
}

long long parenthesisation_count(int n) {
  LAMB_CHECK(n >= 1, "chain needs at least one matrix");
  // Catalan(n-1) = C(2(n-1), n-1) / n.
  const int m = n - 1;
  long long c = 1;
  for (int i = 0; i < m; ++i) {
    c = c * 2 * (2 * i + 1) / (i + 2);
  }
  return c;
}

ChainDpResult chain_dp(const ChainDims& dims) {
  const int n = chain_length(dims);
  const auto d = [&](int i) {
    return static_cast<long long>(dims[static_cast<std::size_t>(i)]);
  };

  std::vector<std::vector<long long>> cost(
      static_cast<std::size_t>(n),
      std::vector<long long>(static_cast<std::size_t>(n), 0));
  ChainDpResult result;
  result.split.assign(static_cast<std::size_t>(n),
                      std::vector<int>(static_cast<std::size_t>(n), -1));

  for (int len = 2; len <= n; ++len) {
    for (int i = 0; i + len - 1 < n; ++i) {
      const int j = i + len - 1;
      long long best = std::numeric_limits<long long>::max();
      int best_k = -1;
      for (int k = i; k < j; ++k) {
        const long long c =
            cost[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] +
            cost[static_cast<std::size_t>(k + 1)][static_cast<std::size_t>(j)] +
            2 * d(i) * d(k + 1) * d(j + 1);
        if (c < best) {
          best = c;
          best_k = k;
        }
      }
      cost[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = best;
      result.split[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          best_k;
    }
  }
  result.min_flops =
      cost[0][static_cast<std::size_t>(n - 1)];
  return result;
}

namespace {

int emit_dp(const ChainDpResult& dp, int i, int j, Algorithm& alg,
            const std::vector<int>& external_ids) {
  if (i == j) {
    return external_ids[static_cast<std::size_t>(i)];
  }
  const int k = dp.split[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  const int left = emit_dp(dp, i, k, alg, external_ids);
  const int right = emit_dp(dp, k + 1, j, alg, external_ids);
  return alg.add_gemm(left, right);
}

std::string dp_string(const ChainDpResult& dp, int i, int j,
                      const std::vector<std::string>& names) {
  if (i == j) {
    return names[static_cast<std::size_t>(i)];
  }
  const int k = dp.split[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  return product_string(dp_string(dp, i, k, names),
                        dp_string(dp, k + 1, j, names));
}

}  // namespace

model::Algorithm ChainDpResult::to_algorithm(const ChainDims& dims) const {
  const int n = chain_length(dims);
  const std::vector<std::string> names = chain_operand_names(n);
  Algorithm alg("chain-dp");
  std::vector<int> external_ids;
  external_ids.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    external_ids.push_back(
        alg.add_external(dims[static_cast<std::size_t>(i)],
                         dims[static_cast<std::size_t>(i) + 1],
                         names[static_cast<std::size_t>(i)]));
  }
  emit_dp(*this, 0, n - 1, alg, external_ids);
  return alg;
}

std::string ChainDpResult::parenthesisation(int n) const {
  return dp_string(*this, 0, n - 1, chain_operand_names(n));
}

}  // namespace lamb::chain

#include "expr/registry.hpp"

#include "chain/chain.hpp"
#include "support/check.hpp"
#include "support/str.hpp"

namespace lamb::expr {

void FamilyRegistry::add(const std::string& name,
                         const std::string& description, Factory factory) {
  LAMB_CHECK(!name.empty(), "family name must not be empty");
  LAMB_CHECK(name.size() <= kMaxFamilyName,
             support::strf("family name '%s' is longer than %zu bytes",
                           name.c_str(), kMaxFamilyName));
  LAMB_CHECK(factory != nullptr, "family factory must not be null");
  LAMB_CHECK(find(name) == nullptr,
             "family '" + name + "' is already registered");
  entries_.push_back(Entry{name, description, std::move(factory)});
}

const FamilyRegistry::Entry* FamilyRegistry::find(
    const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) {
      return &e;
    }
  }
  return nullptr;
}

bool FamilyRegistry::contains(const std::string& name) const {
  return find(name) != nullptr;
}

namespace {

/// Parse "chainN" -> N (or -1 when the name has another shape).
int parse_chain_length(const std::string& name) {
  constexpr std::string_view prefix = "chain";
  if (name.size() <= prefix.size() ||
      name.compare(0, prefix.size(), prefix) != 0) {
    return -1;
  }
  int length = 0;
  for (std::size_t i = prefix.size(); i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9' || length > 100) {
      return -1;
    }
    length = length * 10 + (name[i] - '0');
  }
  return length;
}

}  // namespace

std::unique_ptr<ExpressionFamily> FamilyRegistry::make(
    const std::string& name) const {
  if (const Entry* e = find(name)) {
    std::unique_ptr<ExpressionFamily> family = e->factory();
    LAMB_CHECK(family != nullptr,
               "factory for family '" + name + "' returned null");
    return family;
  }
  const int chain_length =
      name.size() <= kMaxFamilyName ? parse_chain_length(name) : -1;
  if (chain_length >= 2) {
    return std::make_unique<ChainFamily>(chain_length);
  }
  LAMB_CHECK(false, "unknown family '" + name + "'; registered: " +
                        support::join(names(), ", "));
  return nullptr;
}

std::vector<std::string> FamilyRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) {
    out.push_back(e.name);
  }
  return out;
}

const std::string& FamilyRegistry::description(const std::string& name) const {
  const Entry* e = find(name);
  LAMB_CHECK(e != nullptr, "unknown family '" + name + "'");
  return e->description;
}

std::string FamilyRegistry::to_string() const {
  std::vector<std::string> lines;
  lines.reserve(entries_.size());
  for (const Entry& e : entries_) {
    lines.push_back(support::strf("  %-8s %s", e.name.c_str(),
                                  e.description.c_str()));
  }
  return support::join(lines, "\n");
}

namespace {

void register_builtins(FamilyRegistry& reg) {
  for (int n = 3; n <= 6; ++n) {
    reg.add(support::strf("chain%d", n),
            support::strf("matrix chain of %d factors (%lld schedules)", n,
                          chain::schedule_count(n)),
            [n] { return std::make_unique<ChainFamily>(n); });
  }
  reg.add("aatb", "A*A'*B (paper Sec. 3.2.2, 5 algorithms)",
          [] { return std::make_unique<AatbFamily>(); });
  reg.add("gram", "A*A', the bare symmetric rank-k product", [] {
    const ExprPtr a = Expr::operand("A", 0, 1);
    return std::make_unique<DslFamily>("gram", Expr::syrk(a));
  });
  reg.add("aatbc", "A*A'*B*C, symmetric-headed 4-factor chain", [] {
    const ExprPtr a = Expr::operand("A", 0, 1);
    const ExprPtr b = Expr::operand("B", 0, 2);
    const ExprPtr c = Expr::operand("C", 2, 3);
    return std::make_unique<DslFamily>("aatbc", a * t(a) * b * c);
  });
}

}  // namespace

FamilyRegistry& registry() {
  static FamilyRegistry* instance = [] {
    auto* reg = new FamilyRegistry();
    register_builtins(*reg);
    return reg;
  }();
  return *instance;
}

std::unique_ptr<ExpressionFamily> make_family(const std::string& name) {
  return registry().make(name);
}

}  // namespace lamb::expr

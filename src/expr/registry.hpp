// Family registry: string-keyed factories for expression families, so
// benches, tests and CLI flags select families by name ("--family=aatb").
//
// Built-ins registered on first use:
//   chain3..chain6  — matrix chains (chain2, chain7 and chain8 are resolved
//                     dynamically by make(); longer chains are rejected)
//   aatb            — A*A'*B, the paper's Sec. 3.2.2 expression
//   gram            — A*A', the bare symmetric rank-k product
//   aatbc           — A*A'*B*C, a longer symmetric-headed chain
//
// Adding a family is one call:
//   registry().add("mine", "A'*(B*C)", [] {
//     return std::make_unique<DslFamily>("mine", <expression>);
//   });
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "expr/family.hpp"

namespace lamb::expr {

/// Longest family name a registry accepts, in bytes. The serving layer holds
/// the name inline in its cache and slice keys.
inline constexpr std::size_t kMaxFamilyName = 23;

class FamilyRegistry {
 public:
  using Factory = std::function<std::unique_ptr<ExpressionFamily>()>;

  /// Register a named factory; duplicate names, and names longer than
  /// kMaxFamilyName, are rejected.
  void add(const std::string& name, const std::string& description,
           Factory factory);

  bool contains(const std::string& name) const;

  /// Instantiate a registered family. Unregistered "chainN" names of at most
  /// kMaxFamilyName bytes are resolved to ChainFamily(N), which throws
  /// support::CheckError for N > ChainFamily::kMaxLength; any other unknown
  /// name throws support::CheckError listing the registered names.
  std::unique_ptr<ExpressionFamily> make(const std::string& name) const;

  /// Registered names in registration order.
  std::vector<std::string> names() const;

  const std::string& description(const std::string& name) const;

  /// One-line-per-family listing for --help style output.
  std::string to_string() const;

 private:
  struct Entry {
    std::string name;
    std::string description;
    Factory factory;
  };
  const Entry* find(const std::string& name) const;

  std::vector<Entry> entries_;
};

/// The process-wide registry, with the built-in families pre-registered.
FamilyRegistry& registry();

/// Convenience: registry().make(name).
std::unique_ptr<ExpressionFamily> make_family(const std::string& name);

}  // namespace lamb::expr

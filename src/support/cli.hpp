// Tiny command-line flag parser shared by the bench and example binaries.
// Supports --name=value, --name value, and boolean --name / --no-name.
//
// Flags are strict: the getters and has() record each name they read, and
// a main calls reject_unknown_flags() after the last getter of the path it
// takes. A misspelt flag, or one that path never reads, then stops the
// program before it runs a configuration nobody asked for. A value must
// parse whole: --seed=7abc and --seed=-1 are errors, not 7 and 2^64 - 1.
// Every such error prints one line naming the flag and exits with status
// 2, as getopt tools do.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace lamb::support {

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& default_value) const;
  long long get_int(const std::string& name, long long default_value) const;
  double get_double(const std::string& name, double default_value) const;
  bool get_bool(const std::string& name, bool default_value) const;
  std::uint64_t get_seed(const std::string& name,
                         std::uint64_t default_value) const;

  /// Exits 2 naming the first given flag that no getter or has() has
  /// read, and listing the flags that were read.
  void reject_unknown_flags() const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  /// Records `name` as read and returns its value, or nullptr when absent.
  const std::string* find(const std::string& name) const;
  /// The flag's whole value as a T (`what` names the type in the error),
  /// or `default_value` when the flag is absent.
  template <typename T>
  T number(const std::string& name, T default_value, const char* what) const;
  /// Prints "<program>: <message>" to stderr and exits 2.
  [[noreturn]] void fail(const std::string& message) const;

  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  /// Every name a getter or has() was asked for.
  mutable std::set<std::string> read_;
};

}  // namespace lamb::support

#include "support/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace lamb::support {

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) {
    program_ = argv[0];
  }
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    if (arg.rfind("no-", 0) == 0) {
      flags_[arg.substr(3)] = "false";
      continue;
    }
    // "--name value" when the next token is not itself a flag and parses as a
    // value; otherwise treat as boolean true.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "true";
    }
  }
}

const std::string* Cli::find(const std::string& name) const {
  read_.insert(name);
  const auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

template <typename T>
T Cli::number(const std::string& name, T default_value,
              const char* what) const {
  const std::string* value = find(name);
  if (value == nullptr) {
    return default_value;
  }
  T parsed{};
  const char* end = value->data() + value->size();
  const auto [stop, ec] = std::from_chars(value->data(), end, parsed);
  if (ec != std::errc() || stop != end) {
    fail("flag --" + name + " expects " + what + ", got '" + *value + "'");
  }
  return parsed;
}

bool Cli::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::string Cli::get_string(const std::string& name,
                            const std::string& default_value) const {
  const std::string* value = find(name);
  return value == nullptr ? default_value : *value;
}

long long Cli::get_int(const std::string& name, long long default_value) const {
  return number(name, default_value, "an integer");
}

double Cli::get_double(const std::string& name, double default_value) const {
  return number(name, default_value, "a number");
}

bool Cli::get_bool(const std::string& name, bool default_value) const {
  const std::string* value = find(name);
  if (value == nullptr) {
    return default_value;
  }
  const std::string& v = *value;
  if (v == "true" || v == "1" || v == "yes" || v == "on") {
    return true;
  }
  if (v == "false" || v == "0" || v == "no" || v == "off") {
    return false;
  }
  fail("flag --" + name + " expects a boolean, got '" + v + "'");
}

std::uint64_t Cli::get_seed(const std::string& name,
                            std::uint64_t default_value) const {
  return number(name, default_value, "an unsigned integer");
}

void Cli::reject_unknown_flags() const {
  for (const auto& [name, value] : flags_) {
    if (read_.count(name) > 0) {
      continue;
    }
    std::string known;
    for (const std::string& r : read_) {
      known += (known.empty() ? "--" : ", --") + r;
    }
    fail("unknown flag --" + name + "; " +
         (known.empty() ? "it takes no flags here"
                        : "the flags it reads here are " + known));
  }
}

void Cli::fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n", program_.c_str(), message.c_str());
  std::exit(2);
}

}  // namespace lamb::support

// SpeedLLM -- tiny command-line flag parser for tools/benches/examples.
//
// Supports --name=value and --name value forms plus boolean --flag.
// Unknown flags are an error so typos do not silently fall through.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace speedllm {

/// Parsed command line: flags plus positional arguments.
class CommandLine {
 public:
  /// Parses argv. `known_flags` lists every accepted flag name (without
  /// leading dashes); anything else yields InvalidArgument, as does a
  /// value outside a flag's entry in `choices` (the message lists them).
  static StatusOr<CommandLine> Parse(
      int argc, const char* const* argv,
      const std::vector<std::string>& known_flags,
      const std::map<std::string, std::vector<std::string>>& choices = {});

  bool HasFlag(const std::string& name) const;
  std::string GetString(const std::string& name, std::string default_value) const;
  /// The flag's value, or `default_value` when it is absent. A value that
  /// is not wholly a base-10 integer (a finite number for GetDouble), or
  /// that overflows, is InvalidArgument naming the flag.
  StatusOr<std::int64_t> GetInt(const std::string& name,
                                std::int64_t default_value) const;
  StatusOr<double> GetDouble(const std::string& name,
                             double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace speedllm

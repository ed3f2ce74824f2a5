#include "common/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace speedllm {

StatusOr<CommandLine> CommandLine::Parse(
    int argc, const char* const* argv,
    const std::vector<std::string>& known_flags,
    const std::map<std::string, std::vector<std::string>>& choices) {
  CommandLine cl;
  auto is_known = [&](const std::string& name) {
    return std::find(known_flags.begin(), known_flags.end(), name) !=
           known_flags.end();
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      cl.positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    std::string name, value;
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
    } else {
      name = body;
      // --name value form: consume the next token if it is not a flag.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";  // bare boolean flag
      }
    }
    if (!is_known(name)) {
      return InvalidArgument("unknown flag --" + name);
    }
    if (auto it = choices.find(name);
        it != choices.end() &&
        std::find(it->second.begin(), it->second.end(), value) ==
            it->second.end()) {
      std::string message = "unknown --";
      message.append(name).append(" '").append(value).append("' (want ");
      for (const std::string& choice : it->second) {
        if (&choice != &it->second.front()) message += '|';
        message += choice;
      }
      message += ')';
      return InvalidArgument(message);
    }
    cl.flags_[name] = value;
  }
  return cl;
}

bool CommandLine::HasFlag(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string CommandLine::GetString(const std::string& name,
                                   std::string default_value) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? default_value : it->second;
}

namespace {

/// The error for a value of `--name` that is not a `what`.
Status BadNumber(const std::string& name, const std::string& value,
                 const char* what) {
  std::string message = "--";
  message.append(name).append(": '").append(value).append("' is not ");
  return InvalidArgument(message.append(what));
}

/// Parses all of `value` with `parse` (strtoll or strtod): nothing may be
/// left over, leading space included, and the value must not overflow.
template <typename T, typename Parse>
StatusOr<T> ParseNumber(const std::string& name, const std::string& value,
                        const char* what, Parse parse) {
  if (value.empty() || std::isspace(static_cast<unsigned char>(value[0]))) {
    return BadNumber(name, value, what);
  }
  char* end = nullptr;
  errno = 0;
  const T parsed = parse(value.c_str(), &end);
  if (end != value.c_str() + value.size()) return BadNumber(name, value, what);
  if (errno == ERANGE) return BadNumber(name, value, "in range");
  return parsed;
}

}  // namespace

StatusOr<std::int64_t> CommandLine::GetInt(const std::string& name,
                                           std::int64_t default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  return ParseNumber<std::int64_t>(
      name, it->second, "an integer",
      [](const char* s, char** end) { return std::strtoll(s, end, 10); });
}

StatusOr<double> CommandLine::GetDouble(const std::string& name,
                                        double default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  StatusOr<double> parsed = ParseNumber<double>(
      name, it->second, "a number",
      [](const char* s, char** end) { return std::strtod(s, end); });
  if (parsed.ok() && !std::isfinite(*parsed)) {
    return BadNumber(name, it->second, "a finite number");
  }
  return parsed;
}

bool CommandLine::GetBool(const std::string& name, bool default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace speedllm

#include "common/cli.hpp"

#include <algorithm>
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

std::int64_t CommandLine::GetInt(const std::string& name,
                                 std::int64_t default_value) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? default_value
                            : std::strtoll(it->second.c_str(), nullptr, 10);
}

double CommandLine::GetDouble(const std::string& name,
                              double default_value) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? default_value
                            : std::strtod(it->second.c_str(), nullptr);
}

bool CommandLine::GetBool(const std::string& name, bool default_value) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace speedllm

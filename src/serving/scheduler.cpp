#include "serving/scheduler.hpp"

namespace speedllm::serving {

std::string_view BatchPolicyName(BatchPolicy policy) {
  switch (policy) {
    case BatchPolicy::kFcfs: return "fcfs";
    case BatchPolicy::kShortestPromptFirst: return "shortest-prompt";
    case BatchPolicy::kDecodePriority: return "decode-priority";
  }
  return "unknown";
}

std::string_view ShardRoleName(ShardRole role) {
  switch (role) {
    case ShardRole::kUnified: return "unified";
    case ShardRole::kPrefill: return "prefill";
    case ShardRole::kDecode: return "decode";
  }
  return "unknown";
}

}  // namespace speedllm::serving

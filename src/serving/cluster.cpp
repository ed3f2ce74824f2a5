#include "serving/cluster.hpp"

#include <algorithm>
#include <string>

namespace speedllm::serving {

std::string_view PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kRoundRobin: return "round-robin";
    case PlacementPolicy::kLeastOutstandingTokens: return "least-outstanding";
    case PlacementPolicy::kBestFitFreeKv: return "best-fit-kv";
    case PlacementPolicy::kPrefixAffinity: return "prefix-affinity";
  }
  return "unknown";
}

Status ValidateClusterRoles(const std::vector<ShardRole>& roles,
                            int num_cards) {
  if (roles.empty()) return Status::Ok();
  if (static_cast<int>(roles.size()) != num_cards) {
    return InvalidArgument(
        "shard_roles has " + std::to_string(roles.size()) +
        " entries for " + std::to_string(num_cards) + " cards");
  }
  int prefill_capable = 0;
  int prefill = 0;
  int decode = 0;
  for (ShardRole role : roles) {
    if (role != ShardRole::kDecode) ++prefill_capable;
    if (role == ShardRole::kPrefill) ++prefill;
    if (role == ShardRole::kDecode) ++decode;
  }
  if (prefill_capable == 0) {
    return InvalidArgument(
        "shard_roles needs at least one prefill-capable card "
        "(unified or prefill): decode shards never run first-pass prefill");
  }
  if (prefill > 0 && decode == 0) {
    return InvalidArgument(
        "prefill shards need at least one decode shard to ship KV to");
  }
  if (decode > 0 && prefill == 0) {
    return InvalidArgument(
        "decode shards need at least one prefill shard to feed them");
  }
  return Status::Ok();
}

double ClusterReport::imbalance() const {
  if (shard_reports.empty()) return 0.0;
  std::int64_t max_tokens = 0;
  std::int64_t sum_tokens = 0;
  for (const ServingReport& r : shard_reports) {
    max_tokens = std::max(max_tokens, r.total_tokens);
    sum_tokens += r.total_tokens;
  }
  if (sum_tokens == 0) return 0.0;
  const double mean = static_cast<double>(sum_tokens) /
                      static_cast<double>(shard_reports.size());
  return static_cast<double>(max_tokens) / mean;
}

double ClusterReport::mean_utilization() const {
  if (card_utilization.empty()) return 0.0;
  double sum = 0.0;
  for (double u : card_utilization) sum += u;
  return sum / static_cast<double>(card_utilization.size());
}

}  // namespace speedllm::serving

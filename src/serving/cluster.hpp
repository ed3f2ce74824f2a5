// SpeedLLM -- the value types of multi-card serving.
//
// api::Engine scales the single-card serving stack across N U280 cards,
// the way a vLLM-style deployment shards traffic across replicas: each
// card is a ShardScheduler (its own paged KvBlockPool carved from its own
// hw::HbmConfig plus the continuous-batching tick loop), and the engine
// places every arriving request on one card via a pluggable placement
// policy. All shards chain their ticks on ONE shared sim::Engine, so
// per-card steps interleave on a single simulated clock and cluster-wide
// metrics (aggregate tokens/s, per-card utilization and imbalance,
// TTFT/TPOT percentiles) fall out of one coherent timeline. This file
// holds the policies, the role check and the report the engine uses.
//
// Placement policies:
//  * round-robin            -- arrival order modulo card count;
//  * least-outstanding      -- card owing the fewest prefill+decode tokens;
//  * best-fit-free-KV       -- card with the most projected-free KV blocks
//                              (free blocks minus queued-but-unadmitted
//                              demand), i.e. the most capacity headroom;
//  * prefix-affinity        -- card holding the longest cached prefix.
//
// When a shard's pool runs dry (admission or decode blocked on KV
// capacity) the engine rebalances: queued requests that have not started
// prefill migrate to the card with the most projected-free blocks,
// newest-first, each at most once per other card so rebalancing always
// terminates. Token streams are seeded per request (global index), so
// generated tokens are byte-identical for any card count, placement
// policy, or preemption schedule.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "serving/request.hpp"
#include "serving/scheduler.hpp"

namespace speedllm::serving {

/// How the engine picks a card for each arriving request.
enum class PlacementPolicy {
  kRoundRobin,              ///< arrival order, ignores card state
  kLeastOutstandingTokens,  ///< min remaining prefill+decode tokens
  kBestFitFreeKv,           ///< max projected-free KV blocks
  /// Card whose KV pool holds the longest cached prefix of the prompt
  /// (multi-turn chats return to their history's card; shared system
  /// prompts pile onto one card's cache). Ties -- including "nobody has
  /// anything" -- fall back to the most projected-free blocks.
  kPrefixAffinity,
};

/// Human-readable policy name ("round_robin", ...) for tables and logs.
std::string_view PlacementPolicyName(PlacementPolicy policy);

/// Validates per-card disaggregation roles against a card count: `roles`
/// must be empty (every card kUnified) or one entry per card, at least
/// one card must be prefill-capable (kUnified or kPrefill), and prefill
/// and decode specialists must come in (at least) pairs -- a kPrefill
/// card needs somewhere to ship KV, and a kDecode card needs someone to
/// feed it.
Status ValidateClusterRoles(const std::vector<ShardRole>& roles,
                            int num_cards);

/// Merged + per-card results of one cluster timeline.
struct ClusterReport {
  /// Cluster-wide view: outcomes in original request order, aggregate
  /// tokens/s over the shared-clock makespan, summed tick/preemption/KV
  /// counters. Latency percentiles (ttft/tpot/latency) come from here.
  ServingReport merged;
  /// Per-card reports (outcomes of the requests that card served).
  std::vector<ServingReport> shard_reports;
  /// Card that served each request (after any rebalancing).
  std::vector<std::int32_t> shard_of_request;
  /// Per-card busy-time fraction of the cluster makespan.
  std::vector<double> card_utilization;
  /// Queued requests migrated between cards by the rebalancer.
  std::int64_t rebalanced_requests = 0;

  /// One admission-time remote-prefix arbitration, logged for BOTH
  /// branches so tests can assert the chosen branch against the
  /// estimates that drove it.
  struct PrefixFetchDecision {
    std::size_t stream_index = 0;      ///< request being admitted
    std::int32_t src_card = -1;        ///< remote holder considered
    std::int32_t dst_card = -1;        ///< card the request was placed on
    std::int64_t tokens = 0;           ///< extra prefix tokens on offer
    std::int64_t bytes = 0;            ///< KV bytes the fetch would move
    double fetch_seconds_estimate = 0.0;      ///< modeled transfer time
    double recompute_seconds_estimate = 0.0;  ///< modeled local prefill
    bool fetched = false;              ///< branch actually taken
  };

  /// Total bytes moved card-to-card over the interconnect (handoffs +
  /// prefix fetches).
  std::int64_t kv_transfer_bytes = 0;
  /// Prefill->decode KV handoffs (disaggregated mode only).
  std::int64_t kv_handoffs = 0;
  /// Remote prefix fetches actually performed at admission.
  std::int64_t remote_prefix_hits = 0;
  /// Prompt tokens satisfied by remote fetches instead of recompute.
  std::int64_t remote_prefix_hit_tokens = 0;
  /// Per-card bytes sent over outgoing interconnect links.
  std::vector<std::int64_t> card_transfer_out_bytes;
  /// Per-card bytes received over incoming interconnect links.
  std::vector<std::int64_t> card_transfer_in_bytes;
  /// Every remote-prefix arbitration, in admission order (both branches).
  std::vector<PrefixFetchDecision> prefix_fetch_log;

  /// Max-over-mean of per-card token counts: 1.0 is perfectly balanced,
  /// N means one card did everything.
  double imbalance() const;
  /// Average per-card busy-time fraction.
  double mean_utilization() const;
};

}  // namespace speedllm::serving

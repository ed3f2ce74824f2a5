// SpeedLLM -- continuous-batching scheduler configuration.
//
// The knobs of vLLM-style iteration-level scheduling on one simulated
// U280 card: admission policy, batch width and token budget, KV block
// size, dtype and pool budget, prefix caching, tiers and their SLO
// targets, admission control, and speculative decoding. Choices the
// design fixes (the aging window, decode-priority's prefill cap, the
// draft model's cost) are the named constants below.
// The tick loop that honours them is serving::ShardScheduler
// (serving/shard.hpp); requests reach it only through api::Engine, where
// a single card is a cluster of one.
//
// Timing model of a grouped step: every token forwarded this tick pays
// its executor-simulated cost, but the weight stream and kernel-launch
// overhead -- which a grouped launch issues exactly once for the whole
// batch, cf. the grouped-matmul formulation the paper's serving scenario
// implies -- is charged once per tick instead of once per token:
//
//   tick = max_i(shared_i) + sum_i (forward_i - shared_i)
//
// with shared_i clamped below forward_i. For a batch of one this reduces
// exactly to the sequential executor cost, so a width-1 scheduler
// (max_batch_seqs = max_batch_tokens = 1) is the one-token-at-a-time
// baseline.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "serving/kv_pool.hpp"
#include "serving/request.hpp"

namespace speedllm::serving {

/// Admission-ordering policy for waiting requests. Decode tokens always
/// schedule ahead of prefill within a tick; policies govern which waiting
/// request is admitted next and how much prefill a tick may carry.
enum class BatchPolicy {
  kFcfs,                 ///< arrival order, head-of-line blocking on capacity
  kShortestPromptFirst,  ///< shortest remaining prompt first, with aging
  kDecodePriority,       ///< FCFS admission, prefill capped per tick
};

/// Human-readable policy name ("fcfs" / "shortest-prompt" /
/// "decode-priority") for tables and logs.
std::string_view BatchPolicyName(BatchPolicy policy);

/// A waiting request older than this many ticks jumps the
/// shortest-prompt-first order (aging: no prompt starves).
inline constexpr std::int32_t kStarvationGraceTicks = 32;

/// Prefill tokens a kDecodePriority tick may carry (chunked prefill).
inline constexpr std::int32_t kDecodePriorityPrefillTokens = 8;

/// Role a shard plays in a disaggregated cluster. Unified shards (the
/// default) run the classic combined loop. Prefill shards admit new
/// requests and run chunked prefill only: when a sequence finishes its
/// prompt (first token sampled, TTFT stamped), its KV pages are shipped
/// to a decode shard as a costed interconnect transfer. Decode shards
/// never admit first-pass prefill; their only intake is adopted
/// handoffs, so their ticks carry pure decode batches. Token streams
/// are byte-identical across role assignments -- only timing moves.
enum class ShardRole : std::uint8_t {
  kUnified = 0,  ///< combined prefill + decode (classic shard)
  kPrefill = 1,  ///< prefill-only; ships finished KV to a decode shard
  kDecode = 2,   ///< decode-only; adopts handoffs, never prefills
};

/// Human-readable role name ("unified" / "prefill" / "decode").
std::string_view ShardRoleName(ShardRole role);

/// Cluster-level admission control (load shedding). On iff
/// `burst_tokens > 0` (the default 0 admits everything): every arriving
/// request draws `prompt + max_new_tokens` tokens from a
/// deterministic token bucket refilled at `rate_tokens_per_second` of
/// simulated time; a request whose tier's reserve floor (a fixed share
/// of `burst_tokens`: interactive 0, standard 0.2, best-effort 0.5)
/// cannot be met after its own draw is rejected before placement with
/// FinishReason::kShed (its on_finish callback fires, no tokens ever
/// stream). Because the bucket depends only on the arrival trace and
/// this config -- never on card count, placement, or scheduling -- the
/// shed set is identical across cluster sizes (locked by
/// tests/test_slo.cpp). A non-finite or negative rate or burst is a
/// setup error.
struct AdmissionConfig {
  /// Sustained token budget per second of simulated time.
  double rate_tokens_per_second = 0.0;
  /// Bucket capacity: the burst the cluster absorbs at full reserve;
  /// 0 turns admission control off.
  double burst_tokens = 0.0;
};

/// Per-tier TTFT/TPOT targets, indexed by TierIndex. Defaults are
/// all-unbounded (every finished request attains); benches and tests set
/// explicit targets. Goodput in ServingReport is computed against these.
using TierSloTargets = std::array<TierSlo, kNumTiers>;

/// Cost of one draft-model row as a fraction of a target-model row.
inline constexpr double kDraftCostRatio = 0.15;

/// Draft-and-verify speculative decoding. Each decode tick a cheap draft
/// model proposes up to `draft_tokens` tokens per sequence; the grouped
/// verify pass prices the pending token plus every draft as one packed
/// launch (see hw::GroupedKernelCostModel), the draft rows at
/// kDraftCostRatio each, and the accepted run commits in a single
/// tick's latency. Acceptance is a deterministic model: a fixed-seed
/// hash of (stream index, absolute token position) against
/// `acceptance_rate`, so the accepted-token schedule is
/// invariant across card count, placement, caching, dtype, and roles.
/// Committed tokens are always the target model's own greedy/sampled
/// tokens -- speculation moves latency, never content -- so streams
/// are byte-identical with speculation on or off (locked by
/// tests/test_speculative.cpp). Draft KV appends are rolled back through
/// KvBlockPool::RollbackSpeculation and never enter the prefix cache.
struct SpeculativeConfig {
  /// Draft proposals per sequence per decode tick (k); speculation is on
  /// iff k > 0. Clamped to [0, max_batch_tokens - 1] so a sequence's
  /// verify group (1 + k rows) fits the tick budget. 0 (the default)
  /// keeps the one-token-per-tick path.
  std::int32_t draft_tokens = 0;
  /// Probability a draft position is accepted, in [0, 1]. 0 rejects
  /// every draft (pure overhead), 1 accepts all k each tick.
  double acceptance_rate = 0.7;
};

/// Knobs of one card's continuous-batching scheduler (shared verbatim by
/// every cluster shard and api::EngineConfig).
struct SchedulerConfig {
  /// Admission-ordering policy; see BatchPolicy.
  BatchPolicy policy = BatchPolicy::kFcfs;
  /// Maximum resident sequences (the grouped-launch batch width the
  /// datapath was generated for).
  std::int32_t max_batch_seqs = 8;
  /// Per-tick token budget across decode + prefill.
  std::int32_t max_batch_tokens = 64;
  /// Paged KV block size in tokens.
  std::uint32_t block_size_tokens = 16;
  /// On-device KV-block storage format. kInt8 roughly halves
  /// bytes-per-token (plus small per-block group-scale metadata),
  /// so the same HBM budget holds ~2x the resident sequences; a
  /// deterministic per-block logit perturbation models the quantization
  /// error, so token streams stay reproducible (greedy streams are
  /// unchanged in practice -- locked in by tests). The prefix-cache hash
  /// seed is dtype-aware: fp16 and int8 blocks never alias.
  KvCacheDtype kv_cache_dtype = KvCacheDtype::kFp16;
  /// Content-address full KV blocks and share them across sequences with
  /// a common prefix (KvBlockPool prefix cache). Admission maps a new
  /// request's longest cached prefix onto shared blocks and prefill
  /// skips those tokens; token streams are byte-identical either way.
  bool enable_prefix_cache = true;
  /// KV pool budget override in bytes; 0 takes the whole budget. Either
  /// way a card's pool is capped by its HBM capacity minus the resident
  /// weight footprint and an activation reserve
  /// (ResidentHbmReserveBytes), so a card too small for its weights has
  /// no pool.
  std::uint64_t kv_pool_bytes = 0;
  /// Honor ServingRequest::tier in admission order, decode-budget
  /// allocation, and preemption-victim selection (higher tiers admit
  /// first, lower tiers preempt first, and a lower tier never evicts a
  /// higher one). Off treats every request as kStandard. Tiering only
  /// reorders scheduling -- token streams are byte-identical on or off
  /// at equal admission (locked by tests/test_slo.cpp).
  bool enable_tiers = false;
  /// Per-tier TTFT/TPOT SLO targets goodput is computed against.
  TierSloTargets tier_slo{};
  /// Cluster-level load shedding; see AdmissionConfig. Evaluated before
  /// placement by api::Engine (a one-card cluster sheds identically to
  /// an N-card one).
  AdmissionConfig admission;
  /// Draft-and-verify speculative decoding; see SpeculativeConfig.
  SpeculativeConfig speculative;
};

}  // namespace speedllm::serving

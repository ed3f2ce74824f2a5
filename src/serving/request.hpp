// SpeedLLM -- serving request / outcome / report types.
//
// Shared vocabulary of the serving stack (serving/scheduler.hpp,
// serving/cluster.hpp, api/engine.hpp). Latency accounting follows the
// llm-serving
// convention: TTFT is measured from arrival to the first sampled token,
// end-to-end latency from arrival to the last committed token.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace speedllm::serving {

/// Per-request priority tier. Tiers order scheduling decisions only --
/// admission, preemption-victim selection, decode-budget allocation, and
/// load shedding -- never token content: a request generates the same
/// bytes at any tier (locked by tests/test_slo.cpp). Lower numeric value
/// means higher priority.
enum class RequestTier : std::int8_t {
  kInteractive = 0,  ///< chat-latency traffic; tightest SLO, shed last
  kStandard = 1,     ///< default tier for API-style traffic
  kBestEffort = 2,   ///< batch/background traffic; shed first
};

/// Number of distinct tiers (size of per-tier config/report arrays).
inline constexpr int kNumTiers = 3;

/// Human-readable tier name ("interactive" / "standard" / "best-effort")
/// for tables, metric labels, and logs.
std::string_view RequestTierName(RequestTier tier);

/// Index of `tier` into a per-tier array (the numeric priority).
inline int TierIndex(RequestTier tier) { return static_cast<int>(tier); }

/// Latency targets one tier promises its requests. A request attains its
/// SLO when TTFT and mean TPOT both land at or under the targets;
/// non-positive targets mean "unbounded" and always attain. Goodput
/// (ServingReport::goodput_tokens_per_second) counts only the generated
/// tokens of SLO-attaining requests.
struct TierSlo {
  /// Time-to-first-token target in seconds (<= 0 disables the bound).
  double ttft_target_seconds = 0.0;
  /// Mean time-per-output-token target in seconds (<= 0 disables).
  double tpot_target_seconds = 0.0;
};

/// Optional per-request sampler knobs layered over the engine-wide
/// llama::SamplerConfig at submission. Unset fields inherit the engine
/// default; the per-request seed derivation (seed + stream * 7919) is
/// never overridden, so overridden streams stay independent of batch
/// composition and placement exactly like default ones.
struct SamplerOverride {
  /// Replaces SamplerConfig::temperature when `has_temperature` is set.
  /// Must be finite and non-negative (ValidateRequest rejects others).
  float temperature = 1.0f;
  /// True when `temperature` participates.
  bool has_temperature = false;
  /// Replaces SamplerConfig::top_p when `has_top_p` is set. Must not be
  /// NaN (ValidateRequest rejects it).
  float top_p = 1.0f;
  /// True when `top_p` participates.
  bool has_top_p = false;
  /// Replaces SamplerConfig::eos_token when `has_eos_token` is set
  /// (< 0 disables EOS for this request).
  std::int32_t eos_token = -1;
  /// True when `eos_token` participates.
  bool has_eos_token = false;

  /// True when no field participates (the override is a no-op).
  bool empty() const {
    return !has_temperature && !has_top_p && !has_eos_token;
  }
};

/// One inference request as submitted to the serving stack.
struct ServingRequest {
  /// Prompt token ids (must be non-empty; conventionally BOS-first).
  std::vector<std::int32_t> prompt;
  /// Decode-token budget; generation ends with FinishReason::kLength
  /// when it is exhausted.
  std::int32_t max_new_tokens = 16;
  /// Simulated arrival time in seconds.
  double arrival_seconds = 0.0;
  /// Sampling any of these ids ends generation early (FinishReason::kStop)
  /// without committing the stop token; SamplerConfig::eos_token is the
  /// model-wide equivalent.
  std::vector<std::int32_t> stop_tokens;
  /// Priority tier; orders scheduling and shedding, never token content.
  RequestTier tier = RequestTier::kStandard;
  /// Per-request sampler knobs layered over the engine default.
  SamplerOverride sampler{};
};

/// Why a request's generation ended.
enum class FinishReason {
  kNone = 0,   ///< still in flight
  kLength,     ///< generated max_new_tokens
  kStop,       ///< sampled a stop token / EOS before the budget ran out
  kCancelled,  ///< aborted mid-flight (api::Engine::Cancel)
  kShed,       ///< rejected by admission control before placement
};

/// Human-readable reason name ("none" / "length" / "stop" / "cancelled" /
/// "shed") for tables, event details, and logs.
std::string_view FinishReasonName(FinishReason reason);

/// True when sampling `token` must terminate `request` early: either the
/// per-request stop set or the sampler-wide EOS id (< 0 disables) hit.
bool IsStopToken(const ServingRequest& request, std::int32_t eos_token,
                 std::int32_t token);

/// Final per-request accounting, harvested into ServingReport::outcomes.
struct RequestOutcome {
  /// Tokens generated, in commit order (empty for shed requests).
  std::vector<std::int32_t> generated;
  /// Simulated arrival time, copied from the request.
  double arrival_seconds = 0.0;
  /// First tick this request was scheduled (0 if never admitted).
  double admission_seconds = 0.0;
  /// Absolute time of the first decoded token (0 if none).
  double first_token_seconds = 0.0;
  /// Absolute time of the last token (0 if none).
  double completion_seconds = 0.0;
  /// Prompt length in tokens.
  std::int32_t prompt_tokens = 0;
  /// Times this request was swapped out of the KV pool.
  std::int32_t preemptions = 0;
  /// 1 when this request's finished prefill KV was shipped from a
  /// prefill shard to a decode shard over the interconnect; 0 in unified
  /// mode (a request hands off at most once -- it then lives on the
  /// decode shard for good).
  std::int32_t handoffs = 0;
  /// Priority tier the request ran (or was shed) at.
  RequestTier tier = RequestTier::kStandard;
  /// Terminal state of the request.
  FinishReason finish_reason = FinishReason::kNone;

  /// Arrival to first sampled token, seconds.
  double time_to_first_token() const {
    return first_token_seconds - arrival_seconds;
  }
  /// Arrival to last committed token, seconds.
  double latency() const { return completion_seconds - arrival_seconds; }
  /// Arrival to first scheduling, seconds.
  double queueing_delay() const { return admission_seconds - arrival_seconds; }
  /// Mean decode time per generated token. `first_token_seconds` marks
  /// the *sampling* of the first token (end of prefill); each of the n
  /// generated tokens then commits one decode tick later, so the span
  /// covers exactly n inter-tick gaps and divides by n, not n-1.
  double time_per_output_token() const {
    if (generated.empty()) return 0.0;
    return (completion_seconds - first_token_seconds) /
           static_cast<double>(generated.size());
  }
  /// True when this outcome attains `slo`: it finished normally (kLength
  /// or kStop), produced output, and both TTFT and mean TPOT land at or
  /// under the (positive) targets. Shed and cancelled requests never
  /// attain.
  bool attains(const TierSlo& slo) const {
    if (finish_reason != FinishReason::kLength &&
        finish_reason != FinishReason::kStop) {
      return false;
    }
    if (generated.empty()) return false;
    if (slo.ttft_target_seconds > 0.0 &&
        time_to_first_token() > slo.ttft_target_seconds) {
      return false;
    }
    if (slo.tpot_target_seconds > 0.0 &&
        time_per_output_token() > slo.tpot_target_seconds) {
      return false;
    }
    return true;
  }
};

/// Per-tier slice of the goodput/SLO accounting (ServingReport::tiers).
/// All token rates are over the report's makespan, so per-tier goodput
/// values are directly comparable to the headline tokens/s.
struct TierReport {
  /// Requests that finished normally (kLength or kStop) at this tier.
  std::int64_t finished_requests = 0;
  /// Requests rejected by admission control at this tier.
  std::int64_t shed_requests = 0;
  /// Finished requests that attained the tier's SLO.
  std::int64_t slo_attained_requests = 0;
  /// Generated tokens of SLO-attaining requests.
  std::int64_t goodput_tokens = 0;
  /// Generated tokens of all finished requests at this tier.
  std::int64_t generated_tokens = 0;
  /// `goodput_tokens` over the report makespan, tokens/s.
  double goodput_tokens_per_second = 0.0;

  /// Fraction of finished requests that attained the SLO (1 when the
  /// tier finished nothing -- an empty tier is vacuously attaining).
  double slo_attainment() const {
    return finished_requests > 0
               ? static_cast<double>(slo_attained_requests) /
                     static_cast<double>(finished_requests)
               : 1.0;
  }
};

/// Aggregate result of one serving run (single card or merged cluster).
struct ServingReport {
  /// Per-request terminal accounting, in submission order.
  std::vector<RequestOutcome> outcomes;
  /// First arrival to last completion, seconds.
  double makespan_seconds = 0.0;
  /// Unique prompt + generated tokens processed.
  std::int64_t total_tokens = 0;
  /// `total_tokens` over the makespan.
  double device_tokens_per_second = 0.0;

  // Continuous-batching aggregates.
  /// Scheduler ticks executed.
  std::int64_t ticks = 0;
  /// Mean sequences per tick's grouped forward pass.
  double mean_batch_width = 0.0;
  /// Sequences swapped out of the KV pool.
  std::int64_t preemptions = 0;
  /// Swap-in recompute work, tokens.
  std::int64_t recomputed_tokens = 0;
  /// Executor forwards the host actually ran: exactly total_tokens +
  /// recomputed_tokens. Prefix hits, readmission restores, handoff
  /// adoption and remote fetches map K/V that already exists and add
  /// nothing.
  std::int64_t executor_forwards = 0;
  /// Executor forwards that ran the classifier: only rows whose logits
  /// are sampled. One per sampled token, so a run with no early stop
  /// has logit_forwards == total generated tokens; always <=
  /// executor_forwards.
  std::int64_t logit_forwards = 0;
  /// Requests that finished early on a stop token / EOS.
  std::int64_t stopped_requests = 0;
  /// Requests aborted mid-flight.
  std::int64_t cancelled_requests = 0;
  /// Requests rejected by admission control (FinishReason::kShed).
  std::int64_t shed_requests = 0;
  /// Budgeted decode tokens never generated because a stop token/EOS
  /// ended the request first (device work the early exit saved).
  std::int64_t stop_saved_tokens = 0;
  /// High-water KV pool occupancy, blocks.
  std::int64_t peak_kv_blocks = 0;
  /// Total KV blocks the pool was carved into.
  std::int64_t kv_block_capacity = 0;
  /// Bytes per block.
  std::uint64_t kv_block_bytes = 0;
  /// Pool budget, bytes.
  std::uint64_t kv_capacity_bytes = 0;

  // Prefix-cache aggregates (KvBlockPool; zero when caching is off).
  /// Admissions that probed the cache.
  std::int64_t prefix_cache_queries = 0;
  /// Admissions matching >= 1 block.
  std::int64_t prefix_cache_hits = 0;
  /// Prefill tokens served from cached blocks instead of device compute
  /// (includes recompute a swapped-in sequence skipped).
  std::int64_t prefix_cache_hit_tokens = 0;
  /// Tokens offered to the cache at lookup.
  std::int64_t prefix_cache_lookup_tokens = 0;
  /// Copy-on-write block copies.
  std::int64_t cow_copies = 0;
  /// Cold cached blocks reclaimed.
  std::int64_t cache_evictions = 0;

  // Simulated DMA traffic (PR 5): KV bytes actually moved by
  // copy-on-write copies, prefix-cache restores, and preemption
  // swap-outs. `dma_time_seconds` is the simulated time those moves
  // cost against the HBM bandwidth, so the prefix-cache speedup claims
  // stay honest about what a restore actually costs.
  /// KV bytes moved by COW copies, cache restores, and swap-outs.
  std::int64_t dma_bytes_moved = 0;
  /// Simulated time the moves cost.
  double dma_time_seconds = 0.0;

  // Speculative decoding aggregates (SchedulerConfig::speculative; all
  // zero with speculation off). Tokens committed by verify are counted
  // in total_tokens like any decode token -- these slice out how the
  // draft/verify pipeline spent its rows.
  /// Draft tokens proposed (k per sequence per decode tick, clipped by
  /// the request budget and pool capacity).
  std::int64_t spec_draft_tokens = 0;
  /// Extra tokens committed per tick beyond the baseline one -- the
  /// latency speculation collapsed.
  std::int64_t spec_accepted_tokens = 0;
  /// Verify rows launched but not committed (rejected tails, post-stop
  /// rows): work the packed launch still priced.
  std::int64_t spec_wasted_tokens = 0;

  // SLO / goodput accounting. api::Engine::Finish fills these from
  // `outcomes` with RequestOutcome::attains, the same verdict behind the
  // exported SLO counters, whether or not telemetry is on.
  /// Per-tier goodput/shed/SLO-attainment slices, indexed by TierIndex.
  std::array<TierReport, kNumTiers> tiers{};
  /// Generated tokens of SLO-attaining requests across tiers, over the
  /// makespan: the headline goodput next to device_tokens_per_second.
  double goodput_tokens_per_second = 0.0;

  /// Mean time-to-first-token over all outcomes, seconds.
  double mean_ttft() const;
  /// Mean end-to-end latency over all outcomes, seconds.
  double mean_latency() const;
  /// Interpolated TTFT percentile; `p` is a fraction in [0, 1].
  double ttft_percentile(double p) const;
  /// Interpolated end-to-end latency percentile; `p` in [0, 1].
  double latency_percentile(double p) const;
  /// Time-per-output-token percentile over multi-token generations.
  double tpot_percentile(double p) const;
  /// Interpolated TTFT percentile over one tier's finished outcomes
  /// (shed/cancelled excluded); 0 when the tier finished nothing.
  double tier_ttft_percentile(RequestTier tier, double p) const;
  /// Fraction of cache-eligible prefill tokens served from cached
  /// blocks. 0 when caching is off or nothing was eligible.
  double cache_hit_rate() const {
    return prefix_cache_lookup_tokens > 0
               ? static_cast<double>(prefix_cache_hit_tokens) /
                     static_cast<double>(prefix_cache_lookup_tokens)
               : 0.0;
  }
};

// ----- online emission hooks (shard -> api::Engine) -----
//
// Tokens are delivered at the simulated end of the tick that committed
// them; the finish hook fires once per request with the final outcome
// (still owned by the shard until its report is harvested).

/// Fires once per generated token at the simulated end of the tick that
/// committed it.
using TokenEmissionHook = std::function<void(
    std::size_t stream_index, std::int32_t token, double time_seconds)>;
/// Fires exactly once per request with the final outcome (still owned by
/// the shard until its report is harvested).
using FinishEmissionHook = std::function<void(
    std::size_t stream_index, FinishReason reason,
    const RequestOutcome& outcome, double time_seconds)>;

}  // namespace speedllm::serving

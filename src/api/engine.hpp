// SpeedLLM -- online streaming engine facade (the public serving API).
//
// speedllm::api::Engine turns the batch-offline serving stack into an
// online engine in the style of vLLM's LLMEngine: clients Submit()
// requests at any simulated time and get a RequestHandle back, tokens
// stream out through per-request callbacks as the shared clock advances,
// Cancel() aborts a request mid-flight (its KV blocks free immediately
// and its stream never emits again), and stop-token/EOS hits end
// generation early with FinishReason::kStop. The caller drives time
// explicitly -- StepUntil(t) for incremental/interactive loops,
// RunToCompletion() to drain -- which is what lets closed-loop clients
// issue their next request from inside an on_finish callback.
//
// The facade layers over serving::ClusterSession: one shared sim::Engine
// clock, N per-card ShardScheduler instances, pluggable placement and
// queued-request rebalancing. A single card is a cluster of one. This
// class is the only serving driver: offline serving is the same engine
// fed the whole trace up front (Submit each request, RunToCompletion,
// Finish), so offline and online paths share every line of scheduling
// logic and produce byte-identical token streams.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "accel/program.hpp"
#include "common/status.hpp"
#include "hw/cluster.hpp"
#include "llama/sampler.hpp"
#include "llama/weights.hpp"
#include "obs/telemetry.hpp"
#include "serving/cluster.hpp"
#include "serving/request.hpp"
#include "serving/scheduler.hpp"
#include "sim/trace.hpp"

/// Public serving API: the online streaming engine facade.
namespace speedllm::api {

/// Re-exported so callbacks can name reasons as api::FinishReason.
using serving::FinishReason;

/// Opaque ticket for one submitted request. Valid handles are never
/// reused within an Engine's lifetime.
struct RequestHandle {
  std::uint64_t id = 0;  ///< 1-based; 0 is the invalid handle

  /// True for handles returned by a successful Submit().
  bool valid() const { return id != 0; }
  /// Handles are equal iff they name the same submission.
  friend bool operator==(RequestHandle a, RequestHandle b) {
    return a.id == b.id;
  }
  /// Negation of operator==.
  friend bool operator!=(RequestHandle a, RequestHandle b) {
    return a.id != b.id;
  }
};

/// Per-request stream observers. Either may be empty. `on_token` fires
/// once per generated token at the simulated end of the tick that
/// committed it; `on_finish` fires exactly once, after the last token,
/// with the finish reason and the final outcome (valid for the duration
/// of the callback). Callbacks run under the simulated clock and may
/// reentrantly Submit() or Cancel() -- that is how closed-loop clients
/// chain their next request.
struct StreamCallbacks {
  /// Fires once per generated token, at the simulated end of the tick
  /// that committed it.
  std::function<void(RequestHandle handle, std::int32_t token,
                     double time_seconds)>
      on_token;
  /// Fires exactly once, after the last token, with the finish reason
  /// and final outcome (valid for the duration of the callback). A
  /// request rejected by admission control (SchedulerConfig::admission)
  /// fires this with FinishReason::kShed at its arrival time, having
  /// emitted no tokens.
  std::function<void(RequestHandle handle, FinishReason reason,
                     const serving::RequestOutcome& outcome)>
      on_finish;
};

/// Construction-time engine parameters (cards, scheduling, sampling).
struct EngineConfig {
  /// Cards to shard across (U280Config constructor only; the
  /// MultiCardConfig constructor derives it from the card list).
  int num_cards = 1;
  /// Per-card scheduler knobs, including the KV-cache storage dtype
  /// (serving::SchedulerConfig::kv_cache_dtype) and simulated DMA
  /// costing (charge_dma_cost).
  serving::SchedulerConfig scheduler;
  /// Which card each arriving request is routed to.
  serving::PlacementPolicy placement = serving::PlacementPolicy::kRoundRobin;
  /// Default sampling parameters; per-request streams are seeded from
  /// `sampler.seed` + submission index so they stay independent of batch
  /// composition, card count, and preemption schedule. A NaN, infinite
  /// or negative temperature, or a NaN top_p, is a setup error: every
  /// Submit then returns InvalidArgument.
  llama::SamplerConfig sampler;
  /// Optional per-card KV pool override in bytes (0 / missing entries
  /// fall back to `scheduler.kv_pool_bytes` / HBM derivation).
  std::vector<std::uint64_t> kv_pool_bytes_per_card;
  /// Migrate queued (never-prefilled) requests away from a dry shard.
  bool rebalance_queued = true;
  /// Serving-layer telemetry (per-request lifecycle tracing +
  /// tick-sampled metrics). Both halves default off and cost ~nothing
  /// while disabled; see docs/OBSERVABILITY.md.
  obs::TelemetryConfig telemetry;
  /// Per-card prefill/decode disaggregation roles (empty = every card
  /// unified; otherwise one entry per card, see
  /// serving::ValidateClusterRoles). Prefill shards ship finished KV to
  /// decode shards over the modeled interconnect; token streams stay
  /// byte-identical to unified mode.
  std::vector<serving::ShardRole> shard_roles;
  /// Remote-prefix arbitration at admission (fetch a remote card's
  /// cached prefix over the interconnect vs. recompute locally).
  serving::PrefixFetchPolicy prefix_fetch =
      serving::PrefixFetchPolicy::kAuto;
};

/// Online streaming serving engine (see the file comment): submit
/// requests at any simulated time, stream tokens through callbacks,
/// cancel mid-flight, drive the clock explicitly, harvest one report.
class Engine {
 public:
  /// `program` and `weights` must outlive the engine. This overload
  /// serves `config.num_cards` identical cards.
  Engine(const accel::Program& program, const llama::Weights& weights,
         const hw::U280Config& u280, EngineConfig config = {});
  /// Heterogeneous-card overload: `cards` may differ in HBM capacity and
  /// KV-cache dtype (hw::MultiCardConfig::kv_dtype_per_card) but must
  /// share one kernel clock.
  Engine(const accel::Program& program, const llama::Weights& weights,
         hw::MultiCardConfig cards, EngineConfig config = {});
  /// Destroys the session; unharvested outcomes are discarded.
  ~Engine();

  /// Non-copyable: the engine owns a live simulation timeline.
  Engine(const Engine&) = delete;
  /// Non-assignable: the engine owns a live simulation timeline.
  Engine& operator=(const Engine&) = delete;

  // ----- submission -----
  /// Validates and enqueues `request`; its arrival event fires at
  /// `request.arrival_seconds` (clamped up to the current simulated time,
  /// so callbacks can submit "now" with the default arrival of 0).
  /// Returns InvalidArgument for empty prompts, non-positive
  /// max_new_tokens, negative/non-finite arrivals, or a NaN, infinite or
  /// negative temperature / NaN top_p override; OutOfRange /
  /// ResourceExhausted when the request can never fit the model or the
  /// smallest card's KV pool; FailedPrecondition after Finish(). A valid
  /// handle does not guarantee service: under overload, admission
  /// control (SchedulerConfig::admission) may shed the request at its
  /// arrival event -- on_finish then fires with FinishReason::kShed.
  StatusOr<RequestHandle> Submit(serving::ServingRequest request,
                                 StreamCallbacks callbacks = {});

  /// Aborts an in-flight request: frees its KV blocks, guarantees no
  /// further on_token, and fires on_finish with
  /// FinishReason::kCancelled before returning. NotFound for unknown
  /// handles, FailedPrecondition when the request already finished.
  Status Cancel(RequestHandle handle);

  // ----- driving the clock -----
  /// Runs every event scheduled at or before `t_seconds` (arrivals,
  /// scheduler ticks, token deliveries). Time never moves backwards;
  /// repeated calls with increasing t interleave with Submit()/Cancel().
  void StepUntil(double t_seconds);
  /// Drains the event queue: every submitted request runs to its finish.
  void RunToCompletion();

  /// Current simulated time.
  double now_seconds() const;
  /// True when no simulation work is pending (all streams quiescent).
  bool idle() const;

  // ----- introspection -----
  /// Cards the engine shards across.
  int num_cards() const;
  /// Requests ever submitted (finished ones included).
  std::size_t submitted_requests() const { return entries_.size(); }
  /// Submitted and not yet finished (running, queued, or still arriving).
  std::size_t active_requests() const {
    return entries_.size() - finished_requests_;
  }
  /// True once `handle`'s on_finish has fired (or would have).
  bool finished(RequestHandle handle) const;
  /// KV blocks currently allocated on `card` (cancellation and
  /// stop-token tests observe block recycling through this). The four
  /// per-card queries return their empty defaults (0, the configured
  /// dtype, zeroed stats) for a card outside [0, num_cards()).
  std::int64_t kv_blocks_in_use(int card) const;
  /// Total KV blocks `card`'s pool was carved into. Blocks already
  /// reflect the card's dtype: an int8 card has ~2x the blocks of an
  /// fp16 card at equal HBM.
  std::int64_t kv_block_capacity(int card) const;
  /// KV-cache storage dtype `card`'s pool runs with (after per-card
  /// overrides).
  serving::KvCacheDtype kv_cache_dtype(int card) const;
  /// Live KV pool counters for `card`, including the prefix-cache
  /// hit/eviction/copy-on-write stats -- how multi-turn clients observe
  /// their conversation history being reused across turns.
  serving::KvPoolStats kv_pool_stats(int card) const;
  /// The session's card-to-card interconnect (per-link byte counters,
  /// local DMA totals). Null before construction succeeds.
  const serving::Interconnect* interconnect() const;
  /// Token-level snapshot of every card's cached prefix chains; feed it
  /// to a fresh engine's ImportPrefixDirectory to persist the
  /// cluster-wide prefix index across engine restarts.
  serving::PrefixDirectorySnapshot ExportPrefixDirectory() const;
  /// Warm-starts per-card KV caches (and thereby the cluster-wide
  /// prefix index) from a snapshot taken by ExportPrefixDirectory on a
  /// previous engine life. Zero simulated cost; call before Submit().
  void ImportPrefixDirectory(const serving::PrefixDirectorySnapshot& snapshot);

  // ----- telemetry export -----
  /// The session's telemetry (trace + metrics), or null when
  /// EngineConfig::telemetry is off.
  const obs::Telemetry* telemetry() const;
  /// Writes the serving trace as Chrome Trace Event JSON to `path`,
  /// optionally merged with a `kernel` instruction trace on the same
  /// simulated timebase (see docs/OBSERVABILITY.md for the Perfetto
  /// workflow). FailedPrecondition when tracing is disabled.
  Status WriteTrace(const std::string& path,
                    const sim::TraceRecorder* kernel = nullptr) const;
  /// Writes the metrics registry (series metadata, per-tick samples,
  /// histograms) as JSON to `path`. FailedPrecondition when metrics are
  /// disabled.
  Status WriteMetricsJson(const std::string& path) const;
  /// Writes the metrics registry in the Prometheus text exposition
  /// format to `path`. FailedPrecondition when metrics are disabled.
  Status WriteMetricsPrometheus(const std::string& path) const;

  // ----- harvest -----
  /// Finalizes the run and returns the merged + per-card report over the
  /// shared timeline. Requires an idle engine (RunToCompletion first);
  /// call once -- the engine only accepts introspection afterwards.
  StatusOr<serving::ClusterReport> Finish();

 private:
  struct Entry {
    StreamCallbacks callbacks;
    bool finished = false;
  };

  /// Card `card`'s KV pool, or null when there is no session or the
  /// card is out of range.
  const serving::KvBlockPool* pool(int card) const;

  const accel::Program& program_;
  const llama::Weights& weights_;
  hw::MultiCardConfig cards_;
  EngineConfig config_;
  Status setup_;  // card-list and config validation outcome
  std::unique_ptr<serving::ClusterSession> session_;
  // Deques: callbacks may reentrantly Submit(), so element addresses
  // must survive growth while a callback is still executing.
  std::deque<serving::ServingRequest> requests_;
  std::deque<Entry> entries_;
  std::size_t finished_requests_ = 0;
  bool harvested_ = false;
};

}  // namespace speedllm::api

// SpeedLLM -- online streaming engine (the public serving API).
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
// The engine is the cluster: it owns one sim::Engine clock, one
// accel::WeightImage every card's executor reads, N per-card
// serving::ShardScheduler instances chaining their ticks on that clock,
// the card-to-card interconnect and the telemetry. It places every
// arriving request on a card (serving::PlacementPolicy), sheds under
// admission control, migrates queued requests away from a dry card,
// ships prefill-to-decode KV handoffs, arbitrates remote prefix
// fetches, and harvests one report over the shared timeline. A single
// card is a cluster of one. This class is the only serving driver:
// offline serving is the same engine fed the whole trace up front
// (Submit each request, RunToCompletion, Finish), so offline and online
// paths share every line of scheduling logic and produce byte-identical
// token streams.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "accel/program.hpp"
#include "accel/weight_image.hpp"
#include "common/status.hpp"
#include "hw/cluster.hpp"
#include "llama/sampler.hpp"
#include "llama/weights.hpp"
#include "obs/telemetry.hpp"
#include "serving/cluster.hpp"
#include "serving/interconnect.hpp"
#include "serving/kv_pool.hpp"
#include "serving/request.hpp"
#include "serving/scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace speedllm::serving {
class ShardScheduler;
struct ForwardLane;
}  // namespace speedllm::serving

/// Public serving API: the online streaming engine.
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
  /// MultiCardConfig constructor derives it from the card list). Fewer
  /// than one is a setup error.
  int num_cards = 1;
  /// Per-card scheduler knobs, including the KV-cache storage dtype
  /// (serving::SchedulerConfig::kv_cache_dtype).
  serving::SchedulerConfig scheduler;
  /// Which card each arriving request is routed to.
  serving::PlacementPolicy placement = serving::PlacementPolicy::kRoundRobin;
  /// Default sampling parameters; per-request streams are seeded from
  /// `sampler.seed` + submission index so they stay independent of batch
  /// composition, card count, and preemption schedule. A NaN, infinite
  /// or negative temperature, or a NaN top_p, is a setup error: every
  /// Submit then returns InvalidArgument.
  llama::SamplerConfig sampler;
  /// Serving-layer telemetry (per-request lifecycle tracing +
  /// tick-sampled metrics). Both halves default off and cost ~nothing
  /// while disabled; see docs/OBSERVABILITY.md.
  obs::TelemetryConfig telemetry;
  /// Per-card prefill/decode disaggregation roles, the only source of a
  /// card's role (empty = every card unified; otherwise one entry per
  /// card, see serving::ValidateClusterRoles). Prefill shards ship
  /// finished KV to decode shards over the modeled interconnect; token
  /// streams stay byte-identical to unified mode.
  std::vector<serving::ShardRole> shard_roles;
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
  /// Heterogeneous-card overload: `cards` may differ in HBM capacity,
  /// which caps each card's KV pool, and in interconnect, but must share
  /// one kernel clock.
  Engine(const accel::Program& program, const llama::Weights& weights,
         hw::MultiCardConfig cards, EngineConfig config = {});
  /// Destroys the engine; unharvested outcomes are discarded.
  ~Engine();

  /// Non-copyable: the engine owns a live simulation timeline.
  Engine(const Engine&) = delete;
  /// Non-assignable: the engine owns a live simulation timeline.
  Engine& operator=(const Engine&) = delete;

  // ----- submission -----
  /// Validates and enqueues `request`; its arrival event fires at
  /// `request.arrival_seconds` rounded to the nearest kernel-clock cycle
  /// (clamped up to the current simulated time, so callbacks can submit
  /// "now" with the default arrival of 0). That cycle's time is the
  /// arrival the outcome and the trace's submit event report.
  /// Returns InvalidArgument for empty prompts, non-positive
  /// max_new_tokens, negative/non-finite arrivals, or a NaN, infinite or
  /// negative temperature / NaN top_p override; OutOfRange for an
  /// arrival past the simulated clock's cycle range; OutOfRange /
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
  /// scheduler ticks, token deliveries). Time never moves backwards: a
  /// NaN or a time before now_seconds() does nothing, and a time past
  /// the clock's cycle range (+inf included) drains like
  /// RunToCompletion(). Repeated calls with increasing t interleave with
  /// Submit()/Cancel().
  void StepUntil(double t_seconds);
  /// Drains the event queue: every submitted request runs to its finish.
  void RunToCompletion();

  /// Current simulated time.
  double now_seconds() const;
  /// True when no simulation work is pending (all streams quiescent).
  bool idle() const;

  // ----- introspection -----
  /// Cards the engine shards across (0 when setup failed).
  int num_cards() const;
  /// Requests ever submitted (finished ones included).
  std::size_t submitted_requests() const { return streams_.size(); }
  /// Submitted and not yet finished (running, queued, or still arriving).
  std::size_t active_requests() const {
    return streams_.size() - finished_requests_;
  }
  /// True once `handle`'s on_finish has fired (or would have).
  bool finished(RequestHandle handle) const;
  /// KV blocks currently allocated on `card` (cancellation and
  /// stop-token tests observe block recycling through this). The three
  /// per-card queries return their empty defaults (0, zeroed stats) for
  /// a card outside [0, num_cards()).
  std::int64_t kv_blocks_in_use(int card) const;
  /// Total KV blocks `card`'s pool was carved into. Blocks already
  /// reflect the KV dtype: int8 carves ~2x the blocks of fp16 at equal
  /// HBM.
  std::int64_t kv_block_capacity(int card) const;
  /// Live KV pool counters for `card`, including the prefix-cache
  /// hit/eviction/copy-on-write stats -- how multi-turn clients observe
  /// their conversation history being reused across turns.
  serving::KvPoolStats kv_pool_stats(int card) const;
  /// Host bytes of the fp32 K/V rows every card's pool keeps in the
  /// engine's shared serving::KvRowArena: the peak of live blocks plus
  /// at most serving::kHostCachedKvTokens of cached ones. 0 when setup
  /// failed.
  std::uint64_t host_kv_bytes() const;
  /// The card-to-card interconnect (per-link byte counters, local DMA
  /// totals). Null when setup failed.
  const serving::Interconnect* interconnect() const {
    return interconnect_.get();
  }
  /// The weight image every card's executor reads. Null when setup
  /// failed.
  const accel::WeightImage* weight_image() const {
    return image_ ? &*image_ : nullptr;
  }
  /// Card `card`'s shard, for `card` in [0, num_cards()) after a
  /// successful setup.
  const serving::ShardScheduler& shard(int card) const {
    return *shards_[static_cast<std::size_t>(card)];
  }

  // ----- telemetry export -----
  /// The engine's telemetry (trace + metrics), or null when
  /// EngineConfig::telemetry is off.
  const obs::Telemetry* telemetry() const { return telemetry_.get(); }
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
  /// One submission: the request, its callbacks, where it lives and how
  /// it ended.
  struct Stream {
    serving::ServingRequest request;
    StreamCallbacks callbacks;
    std::int32_t card = -1;       // owning card after any move
    std::int32_t migrations = 0;  // rebalancer moves consumed
    bool placed = false;          // handed to a shard
    bool finished = false;        // includes shed and cancelled
    bool cancelled = false;
  };

  /// Card `card`'s KV pool, or null when the card is out of range.
  const serving::KvBlockPool* pool(int card) const;

  /// Routes stream `index` to a card at its arrival event (after the
  /// admission-control gate; a shed request never reaches a shard).
  void Place(std::size_t index);
  std::size_t PickCard(const serving::ServingRequest& request);
  /// KV-pressure hook: migrates shard `donor`'s queued, never-prefilled
  /// requests to the card with the most projected-free blocks, newest
  /// first, each at most (num_cards - 1) times so rebalancing terminates.
  void Rebalance(std::size_t donor);
  /// Deterministic token-bucket admission check, evaluated at the
  /// arrival event before placement. Returns true when the request must
  /// be shed. Depends only on the arrival trace and AdmissionConfig --
  /// never on card count, placement, or scheduling -- so the shed set is
  /// identical across cluster sizes.
  bool ShouldShed(const serving::ServingRequest& request, double now_s);
  /// Marks stream `index` finished with `reason` and fires its on_finish
  /// with `outcome`, releasing the stream's closures and prompt storage.
  void FinishStream(std::size_t index, serving::FinishReason reason,
                    const serving::RequestOutcome& outcome);
  /// Finishes a stream no shard holds (shed, cancelled before placement,
  /// or cancelled mid-handoff) with `outcome`: files it for the report,
  /// records the terminal event on `card` (-1 for the router), bumps the
  /// per-tier shed metric for a shed, and finishes the stream.
  void FinishUnplaced(std::size_t index, serving::RequestOutcome outcome,
                      std::int32_t card, double now_s);
  /// Updates the per-tier SLO/goodput metric counters for one finished
  /// request (no-op when metrics are off or the finish is not terminal
  /// success).
  void ObserveSloMetrics(const serving::RequestOutcome& outcome,
                         serving::FinishReason reason);
  /// Receives a finished-prefill KV handoff from prefill shard `src`,
  /// picks the decode card owing the fewest tokens, charges the transfer
  /// on the interconnect, and schedules adoption at the transfer's end.
  void HandleHandoff(serving::KvHandoff handoff, sim::Cycles ready,
                     std::int32_t src);
  /// Admission-time remote-prefix arbitration for stream `index` placed
  /// on `dst`: probe every other card's pool and fetch the longest
  /// cached prefix (lowest card id on a tie) when it beats `dst`'s own
  /// and the estimated transfer time is at most the estimated local
  /// recompute time. Returns true when a fetch was chosen: the transfer
  /// is charged and the shard Submit is deferred to the transfer's end
  /// (the caller must not Submit). Logs the decision either way.
  bool MaybeFetchPrefix(std::size_t index, std::size_t dst);
  /// Records the send/recv kKvTransfer event pair and per-link metrics
  /// for one interconnect transfer window.
  void RecordTransfer(std::size_t index, std::int32_t src, std::int32_t dst,
                      std::int64_t bytes, sim::Cycles start, sim::Cycles end);

  const accel::Program& program_;
  hw::MultiCardConfig cards_;
  EngineConfig config_;  // scheduler normalized once setup passes
  Status setup_;  // card-list, config and weight validation outcome
  // The shared kernel clock (MultiCardConfig::Validate): its formulas
  // convert every simulated time.
  hw::U280Config clock_;
  std::int64_t min_pool_blocks_ = 0;

  sim::Engine engine_;
  // Declared before shards_: every shard's executor reads it.
  std::optional<accel::WeightImage> image_;
  std::unique_ptr<obs::Telemetry> telemetry_;
  // Declared before shards_: every card's pool keeps its rows here.
  std::unique_ptr<serving::KvRowArena> kv_arena_;
  // Declared before shards_: every card's forwards run on these lanes.
  std::vector<serving::ForwardLane> forward_lanes_;
  std::vector<std::unique_ptr<serving::ShardScheduler>> shards_;
  // Shared card-to-card link + HBM-channel model; every shard's local
  // DMA and every KV transfer queue on the same stations.
  std::unique_ptr<serving::Interconnect> interconnect_;
  // Cards that may receive placed arrivals (everything but kDecode).
  std::vector<std::size_t> placeable_;

  // Deque: callbacks may reentrantly Submit(), and shards hold pointers
  // to the requests, so element addresses must survive growth.
  std::deque<Stream> streams_;
  std::size_t finished_requests_ = 0;
  bool harvested_ = false;
  // Outcomes of requests no shard holds at their finish (FinishUnplaced).
  std::map<std::size_t, serving::RequestOutcome> unplaced_outcomes_;
  // Handoffs in transit on the interconnect, keyed by stream index;
  // Cancel intercepts them here before adoption.
  std::map<std::size_t, serving::KvHandoff> handoff_in_flight_;
  // Decode tokens still owed by in-flight handoffs, per destination card:
  // several handoffs dispatched at the same tick close must not all pick
  // the same "least loaded" card, so the destination choice counts work
  // that has been routed but not yet adopted.
  std::vector<std::int64_t> handoff_pending_tokens_;
  std::vector<serving::ClusterReport::PrefixFetchDecision> fetch_log_;
  std::int64_t handoff_transfers_ = 0;
  std::int64_t remote_hits_ = 0;
  std::int64_t remote_hit_tokens_ = 0;
  std::size_t rr_counter_ = 0;
  std::int64_t rebalanced_ = 0;
  // Admission-control token bucket (see AdmissionConfig): refilled by
  // simulated-time deltas at each arrival, drained by admitted requests.
  double bucket_tokens_ = 0.0;
  double bucket_refill_seconds_ = 0.0;
  // Per-tier SLO metric series (registered when metrics are on), by
  // TierIndex: goodput tokens, attained/missed finishes, sheds.
  using MetricIds =
      std::array<obs::MetricsRegistry::MetricId, serving::kNumTiers>;
  MetricIds goodput_ids_{};
  MetricIds slo_attained_ids_{};
  MetricIds slo_missed_ids_{};
  MetricIds shed_ids_{};
  bool slo_metrics_ = false;
  // Per-directed-link transfer byte counters (src*n+dst) plus the
  // remote-hit counter; registered only when metrics are on and n > 1.
  std::vector<obs::MetricsRegistry::MetricId> link_metric_ids_;
  obs::MetricsRegistry::MetricId remote_hit_metric_id_ = 0;
  bool transfer_metrics_ = false;
};

}  // namespace speedllm::api

// SpeedLLM -- multi-card cluster session over N serving shards.
//
// Scales the single-card serving stack across N U280 cards, the way a
// vLLM-style deployment shards traffic across replicas: each card is a
// ShardScheduler (its own paged KvBlockPool carved from its own
// hw::HbmConfig plus the continuous-batching tick loop), and a
// ClusterSession places every arriving request on one card via a
// pluggable placement policy. All shards chain their ticks on ONE shared
// sim::Engine, so per-card steps interleave on a single simulated clock
// and cluster-wide metrics (aggregate tokens/s, per-card utilization and
// imbalance, TTFT/TPOT percentiles) fall out of one coherent timeline.
// api::Engine is the public driver of a session; a single card is a
// cluster of one.
//
// Placement policies:
//  * round-robin            -- arrival order modulo card count;
//  * least-outstanding      -- card owing the fewest prefill+decode tokens;
//  * best-fit-free-KV       -- card with the most projected-free KV blocks
//                              (free blocks minus queued-but-unadmitted
//                              demand), i.e. the most capacity headroom.
//
// When a shard's pool runs dry (admission or decode blocked on KV
// capacity) the session rebalances: queued requests that have not started
// prefill migrate to the card with the most projected-free blocks,
// newest-first, each at most once per other card so rebalancing always
// terminates. Token streams are seeded per request (global index), so
// generated tokens are byte-identical for any card count, placement
// policy, or preemption schedule.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "accel/program.hpp"
#include "accel/weight_image.hpp"
#include "common/status.hpp"
#include "hw/cluster.hpp"
#include "llama/sampler.hpp"
#include "llama/weights.hpp"
#include "obs/telemetry.hpp"
#include "serving/interconnect.hpp"
#include "serving/request.hpp"
#include "serving/scheduler.hpp"
#include "sim/engine.hpp"

namespace speedllm::serving {

class ShardScheduler;

/// How the session picks a card for each arriving request.
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

/// Whether admission may fetch a prompt's cached prefix from a remote
/// card's pool over the interconnect instead of recomputing it locally.
/// Token streams are byte-identical under every policy -- fetching only
/// moves timing (transfer time instead of prefill compute).
enum class PrefixFetchPolicy {
  /// Fetch when the estimated transfer time (bytes over the link model,
  /// given current station occupancy) is at most the estimated local
  /// recompute time; otherwise recompute.
  kAuto,
  /// Fetch whenever any remote card holds a longer cached prefix than
  /// the placed card (arbitration seam: forces the fetch branch).
  kAlwaysFetch,
  /// Ignore the remote index at admission (forces the recompute branch).
  kNeverFetch,
};

/// Human-readable fetch-policy name ("auto" / "always" / "never").
std::string_view PrefixFetchPolicyName(PrefixFetchPolicy policy);

/// Cluster-level knobs: placement policy, per-card scheduler config,
/// optional per-card KV pool sizes, rebalancing, and telemetry.
struct ClusterConfig {
  /// Placement policy routing each arrival to a card.
  PlacementPolicy placement = PlacementPolicy::kRoundRobin;
  /// Per-card scheduler knobs (batch policy, budgets, block size, ...).
  SchedulerConfig shard;
  /// Optional per-card KV pool override in bytes; entry 0 (or an empty
  /// vector) falls back to `shard.kv_pool_bytes` / HBM derivation. Lets
  /// tests and heterogeneous deployments size each card's pool apart.
  std::vector<std::uint64_t> kv_pool_bytes_per_card;
  /// Migrate queued (never-prefilled) requests away from a dry shard.
  bool rebalance_queued = true;
  /// Serving-layer telemetry switches (lifecycle tracing + tick-sampled
  /// metrics). Off by default.
  obs::TelemetryConfig telemetry;
  /// Per-card shard roles for disaggregated prefill/decode serving.
  /// Empty means every card is ShardRole::kUnified; otherwise one entry
  /// per card (ValidateClusterRoles). Prefill shards ship finished KV to
  /// a decode shard over the interconnect as a costed transfer.
  std::vector<ShardRole> shard_roles;
  /// Remote-prefix arbitration at admission (see PrefixFetchPolicy).
  PrefixFetchPolicy prefix_fetch = PrefixFetchPolicy::kAuto;
};

/// Validates the cluster-level disaggregation knobs against a card
/// count: `shard_roles` must be empty or one entry per card, at least
/// one card must be prefill-capable (kUnified or kPrefill), and prefill
/// and decode specialists must come in (at least) pairs -- a kPrefill
/// card needs somewhere to ship KV, and a kDecode card needs someone to
/// feed it.
Status ValidateClusterRoles(const ClusterConfig& config, int num_cards);

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
  /// Count of card-to-card interconnect transfers.
  std::int64_t kv_transfers = 0;
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
  /// Per-card local DMA bytes queued through the shared HBM channel
  /// (COW/restore/swap traffic, now contending with transfers).
  std::vector<std::int64_t> card_local_dma_bytes;
  /// Every remote-prefix arbitration, in admission order (both branches).
  std::vector<PrefixFetchDecision> prefix_fetch_log;

  /// Max-over-mean of per-card token counts: 1.0 is perfectly balanced,
  /// N means one card did everything.
  double imbalance() const;
  /// Average per-card busy-time fraction.
  double mean_utilization() const;
};

/// One live cluster timeline: the shared sim::Engine, the per-card
/// shards, and the routing/rebalancing state. A session is *online*:
/// requests may be submitted at any simulated time, cancelled mid-flight,
/// and streamed out through emission hooks -- the substrate the
/// api::Engine facade drives incrementally. Offline serving is the same
/// session fed every arrival up front and drained.
class ClusterSession {
 public:
  /// Builds the session's one accel::WeightImage of `weights`, which
  /// every card's executor reads, then the shards. `program` and
  /// `weights` must outlive the session; `cards` must already be
  /// validated and `config.shard` normalized. Copies `cards`, `config`,
  /// and `sampler_config`. InvalidArgument when `weights` do not match
  /// `program` (accel::WeightImage::Build).
  static StatusOr<std::unique_ptr<ClusterSession>> Create(
      const accel::Program& program, const llama::Weights& weights,
      const hw::MultiCardConfig& cards, const ClusterConfig& config,
      const llama::SamplerConfig& sampler_config);
  /// Destroys the session; unharvested outcomes are discarded.
  ~ClusterSession();

  /// Non-copyable: the session owns a live simulation timeline.
  ClusterSession(const ClusterSession&) = delete;
  /// Non-assignable: the session owns a live simulation timeline.
  ClusterSession& operator=(const ClusterSession&) = delete;

  /// The shared clock every shard chains its ticks on. The caller drives
  /// Run()/RunUntil(); shards and arrivals inject events.
  sim::Engine& engine() { return engine_; }
  /// Current simulated time of the shared clock, seconds.
  double now_seconds() const;
  /// Converts simulated seconds to engine cycles at the kernel clock.
  sim::Cycles SecondsToCycles(double seconds) const;

  /// Number of cards (shards) in this session.
  int num_cards() const { return static_cast<int>(shards_.size()); }
  /// Card `card`'s shard (placement-policy queries, tests).
  const ShardScheduler& shard(int card) const { return *shards_[card]; }
  /// The weight image every shard's executor reads.
  const accel::WeightImage& weight_image() const { return image_; }

  /// Session telemetry (trace + metrics), or null when disabled. Owned
  /// by the session; alive until destruction.
  const obs::Telemetry* telemetry() const { return telemetry_.get(); }

  /// Model-limit + worst-case-pool admission check (a request must fit
  /// the smallest card: placement and rebalancing may use any card).
  Status Validate(const ServingRequest& request, const std::string& tag) const;

  /// Schedules placement of `*request` at `at` (engine cycles, >= now).
  /// `request` must stay alive and unmodified until harvest;
  /// `stream_index` values must be dense submission indices (0, 1, ...).
  void SubmitAt(const ServingRequest* request, std::size_t stream_index,
                sim::Cycles at);

  /// Cancels a stream wherever it lives: an unplaced arrival is
  /// suppressed, a live sequence is aborted on its owning shard (KV
  /// blocks freed immediately). The finish hook fires with
  /// FinishReason::kCancelled before this returns.
  Status Cancel(std::size_t stream_index);

  /// Streams tokens/finishes from every shard (stream_index keyed). The
  /// shard-side wrappers are installed at construction, so these may be
  /// (re)assigned at any time; shed rejections also fire `on_finish`
  /// (with FinishReason::kShed), from inside the arrival event.
  void set_emission_hooks(TokenEmissionHook on_token,
                          FinishEmissionHook on_finish);

  /// OK when every submitted stream finished (done, stopped, or
  /// cancelled). Call after the engine drains.
  Status Finalize() const;
  /// Merged + per-card reports over one coherent timeline. Call once.
  ClusterReport Harvest();

  /// The shared card-to-card interconnect (station occupancy, per-link
  /// byte counters). Alive for the session's lifetime.
  const Interconnect& interconnect() const { return *interconnect_; }
  /// Cluster-wide prefix index over every card's content-addressed KV
  /// pool. Alive for the session's lifetime.
  const PrefixDirectory& prefix_directory() const { return *directory_; }
  /// Snapshot of every card's live cached-prefix chains, suitable for
  /// ImportPrefixDirectory into a fresh session (index persistence
  /// across api::Engine restarts).
  PrefixDirectorySnapshot ExportPrefixDirectory() const;
  /// Re-seeds per-card KV caches from a snapshot taken by
  /// ExportPrefixDirectory. Cost-free (simulated t=0 warmup, no DMA):
  /// the blocks are assumed already resident from the previous life.
  /// Call before submitting any requests.
  void ImportPrefixDirectory(const PrefixDirectorySnapshot& snapshot);

 private:
  struct StreamRecord {
    const ServingRequest* request = nullptr;
    std::int32_t shard = -1;       // owning card after any rebalancing
    std::int32_t migrations = 0;   // rebalancer moves consumed
    bool placed = false;
    bool finished = false;   // includes cancelled
    bool cancelled = false;
  };

  void Place(std::size_t stream_index);
  std::size_t PickCard(const ServingRequest& request);
  void Rebalance(std::size_t donor);
  /// Deterministic token-bucket admission check, evaluated at the
  /// arrival event before placement. Returns true when the request must
  /// be shed. Depends only on the arrival trace and AdmissionConfig --
  /// never on card count, placement, or scheduling -- so the shed set is
  /// identical across cluster sizes.
  bool ShouldShed(const ServingRequest& request, double now_s);
  /// Finishes a stream no shard holds (shed, cancelled before placement,
  /// or cancelled mid-handoff) with `outcome`: files it for the report,
  /// records the terminal event on `card` (-1 for the router), bumps the
  /// per-tier shed metric for a shed, and fires the finish hook.
  void FinishUnplaced(std::size_t stream_index, RequestOutcome outcome,
                      std::int32_t card, double now_s);
  /// Updates the per-tier SLO/goodput metric counters for one finished
  /// request (no-op when metrics are off or the finish is not terminal
  /// success).
  void ObserveSloMetrics(const RequestOutcome& outcome, FinishReason reason);
  /// Receives a finished-prefill KV handoff from prefill shard `src`,
  /// picks the decode card with the most projected-free KV blocks,
  /// charges the transfer on the interconnect, and schedules adoption at
  /// the transfer's end.
  void HandleHandoff(KvHandoff handoff, sim::Cycles ready, std::int32_t src);
  /// Admission-time remote-prefix arbitration for `stream_index` placed
  /// on `dst`. Returns true when a fetch was chosen: the transfer is
  /// charged and Submit is deferred to the transfer's end (the caller
  /// must not Submit). Logs the decision either way.
  bool MaybeFetchPrefix(std::size_t stream_index, std::size_t dst);
  /// Records the send/recv kKvTransfer event pair and per-link metrics
  /// for one interconnect transfer window.
  void RecordTransfer(std::size_t stream_index, std::int32_t src,
                      std::int32_t dst, std::int64_t bytes, sim::Cycles start,
                      sim::Cycles end);

  ClusterSession(const accel::Program& program, accel::WeightImage image,
                 const hw::MultiCardConfig& cards, const ClusterConfig& config,
                 const llama::SamplerConfig& sampler_config);

  const accel::Program& program_;
  // Declared before shards_: every shard's executor reads it.
  accel::WeightImage image_;
  hw::MultiCardConfig cards_;
  ClusterConfig config_;
  llama::SamplerConfig sampler_config_;
  double clock_mhz_ = 0.0;
  std::int64_t min_pool_blocks_ = 0;

  sim::Engine engine_;
  std::unique_ptr<obs::Telemetry> telemetry_;
  std::vector<std::unique_ptr<ShardScheduler>> shards_;
  // Shared card-to-card link + HBM-channel model; every shard's local
  // DMA and every KV transfer queue on the same stations.
  std::unique_ptr<Interconnect> interconnect_;
  // Cluster-wide prefix index fed by per-pool cache listeners.
  std::unique_ptr<PrefixDirectory> directory_;
  // Cards that may receive placed arrivals (everything but kDecode).
  std::vector<std::size_t> placeable_;
  // Handoffs in transit on the interconnect, keyed by stream index;
  // Cancel intercepts them here before adoption.
  std::map<std::size_t, KvHandoff> handoff_in_flight_;
  // Decode tokens still owed by in-flight handoffs, per destination card:
  // several handoffs dispatched at the same tick close must not all pick
  // the same "least loaded" card, so the destination choice counts work
  // that has been routed but not yet adopted.
  std::vector<std::int64_t> handoff_pending_tokens_;
  std::vector<ClusterReport::PrefixFetchDecision> fetch_log_;
  std::int64_t handoff_transfers_ = 0;
  std::int64_t remote_hits_ = 0;
  std::int64_t remote_hit_tokens_ = 0;
  std::vector<StreamRecord> records_;
  /// Outcomes of requests no shard holds at their finish (see
  /// FinishUnplaced).
  std::map<std::size_t, RequestOutcome> unplaced_outcomes_;
  TokenEmissionHook on_token_;
  FinishEmissionHook on_finish_;
  std::size_t rr_counter_ = 0;
  std::int64_t rebalanced_ = 0;
  // Admission-control token bucket (see AdmissionConfig): refilled by
  // simulated-time deltas at each arrival, drained by admitted requests.
  double bucket_tokens_ = 0.0;
  double bucket_refill_seconds_ = 0.0;
  // Per-tier SLO metric series (registered when metrics are on), by
  // TierIndex: goodput tokens, attained/missed finishes, sheds.
  std::array<obs::MetricsRegistry::MetricId, kNumTiers> goodput_ids_{};
  std::array<obs::MetricsRegistry::MetricId, kNumTiers> slo_attained_ids_{};
  std::array<obs::MetricsRegistry::MetricId, kNumTiers> slo_missed_ids_{};
  std::array<obs::MetricsRegistry::MetricId, kNumTiers> shed_ids_{};
  bool slo_metrics_ = false;
  // Per-directed-link transfer byte counters (src*n+dst) plus the
  // remote-hit counter; registered only when metrics are on and n > 1.
  std::vector<obs::MetricsRegistry::MetricId> link_metric_ids_;
  obs::MetricsRegistry::MetricId remote_hit_metric_id_ = 0;
  bool transfer_metrics_ = false;
};

}  // namespace speedllm::serving

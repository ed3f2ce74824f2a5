// SpeedLLM -- one card's continuous-batching shard, externally driven.
//
// ShardScheduler is the per-card execution core: a paged KvBlockPool
// plus the tick loop that batches decode sequences and prefill chunks
// into grouped forward passes. The pool is the card's only K/V store: one
// executor runs every resident sequence's forwards against that
// sequence's pool pages, so a prefix-cache hit, a readmission, or an
// adopted handoff maps blocks that already hold their K/V and runs no
// forward for them. A shard schedules its ticks on an engine *provided by
// the caller*, so N shards interleave on one shared sim::Engine clock --
// the substrate api::Engine is built on. A single card is a cluster of
// one, so every request, on any card count, runs through the same
// scheduling logic.
//
// Requests enter via Submit() (typically from an arrival event or a
// cluster rebalance); the shard schedules its own tick chain from there.
// Sampler streams are seeded from the request's *global* stream index, so
// token streams are identical no matter which shard serves a request.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "accel/executor.hpp"
#include "accel/program.hpp"
#include "common/status.hpp"
#include "hw/grouped_cost.hpp"
#include "hw/u280_config.hpp"
#include "llama/sampler.hpp"
#include "obs/telemetry.hpp"
#include "serving/interconnect.hpp"
#include "serving/kv_pool.hpp"
#include "serving/request.hpp"
#include "serving/scheduler.hpp"
#include "sim/engine.hpp"

namespace speedllm::serving {

/// Clamps scheduler knobs to their sane minima (applied once by
/// api::Engine before its per-card fan-out).
SchedulerConfig NormalizeSchedulerConfig(SchedulerConfig config);

/// HBM bytes one card reserves before its KV pool: the resident weights
/// (2 bytes per parameter for int8 codes plus grouped scales, 4 for
/// fp32) plus a 256 MiB activation/staging reserve. A card's KV pool,
/// explicit SchedulerConfig::kv_pool_bytes or not, is capped by
/// `hbm.kv_budget_bytes(ResidentHbmReserveBytes(program))`.
std::uint64_t ResidentHbmReserveBytes(const accel::Program& program);

/// Amortized per-tick cost of a grouped launch on one card: the weight
/// stream crosses HBM once per tick regardless of batch width, and
/// launch/DMA-setup control runs once per kernel group.
double DeriveSharedStepSeconds(const accel::Program& program,
                               const hw::U280Config& u280);

/// Validates one request against model limits, the sampler values
/// llama::ValidateSamplerConfig accepts, and a pool of `pool_blocks`
/// blocks of `block_size` tokens. `tag` labels errors ("request 3").
Status ValidateRequest(const ServingRequest& req, const std::string& tag,
                       const llama::ModelConfig& model,
                       std::int64_t pool_blocks, std::int64_t block_size);

/// Deterministic int8 KV accuracy proxy: perturbs `logits` by at most
/// 1e-6, seeded only by `stream_index` and `fed_tokens / block_size_tokens`
/// (the tokens fed once the sampled row commits), so streams stay
/// reproducible under any batch composition, card count or preemption.
void PerturbLogitsForQuant(std::size_t stream_index, std::size_t fed_tokens,
                           std::uint32_t block_size_tokens,
                           std::span<float> logits);

/// Host scratch of one forward and its sample. A tick runs its segments
/// on up to one lane per ThreadPool::Global() thread at once (see
/// ShardScheduler); an api::Engine keeps one set of lanes for all of its
/// cards, since their ticks never overlap. Lanes grow on first use.
struct ForwardLane {
  /// The forward's activations.
  accel::ExecutorWorkspace activations;
  /// The sampler's copy of the logits.
  std::vector<float> logits;
};

/// One card's continuous-batching execution core (see the file comment).
///
/// A tick runs its problems in segments, in order. A segment steps each
/// member's next chunk (its rows up to and including the next one that
/// samples: KV append and price), one member after another; then runs
/// every member's forward and sample, fanned out over the lanes; then
/// commits every member's rows in order. A prefill chunk or a verify row
/// is a segment of one. Only the first member may allocate, copy, seal or
/// preempt; a later one must be a one-row decode problem for which
/// KvBlockPool::AppendIsLocal holds, an append that commutes with all an
/// earlier member's commit can do. So every stream, report and trace is
/// the one a member-by-member run gives.
class ShardScheduler {
 public:
  /// `program`, `image` (the weights, built for `program`), `engine`,
  /// `arena` and `lanes` must outlive the shard. `config` must already
  /// be normalized; `role` is this card's entry of
  /// EngineConfig::shard_roles (kUnified when that is empty). Ticks are
  /// scheduled on `engine`; the caller drives engine.Run() after
  /// attaching the interconnect (set_interconnect). The pool keeps its
  /// K/V rows in `arena`, and the forwards run on `lanes`; every card of
  /// the engine shares both.
  ShardScheduler(const accel::Program& program,
                 const accel::WeightImage& image, const hw::U280Config& u280,
                 const SchedulerConfig& config, ShardRole role,
                 sim::Engine& engine, KvRowArena& arena,
                 std::vector<ForwardLane>& lanes);
  /// Destroys the shard; unharvested outcomes are discarded.
  ~ShardScheduler();

  /// Non-copyable: the shard owns its executor and pool state.
  ShardScheduler(const ShardScheduler&) = delete;
  /// Non-assignable: the shard owns its executor and pool state.
  ShardScheduler& operator=(const ShardScheduler&) = delete;

  /// Enqueues `request` on this shard at the current engine time and
  /// schedules a tick if none is pending. `stream_index` is the request's
  /// global index: it seeds the per-request sampler stream
  /// (sampler_config.seed + stream_index * 7919) and keys the outcome in
  /// the harvested report. `request` must outlive the shard.
  void Submit(const ServingRequest& request, std::size_t stream_index,
              const llama::SamplerConfig& sampler_config);

  // ----- the cluster's callbacks (api::Engine) -----
  /// Fires when a prefill-role shard finishes a sequence's prompt with
  /// the handoff and the engine cycle its KV pages are extractable.
  using HandoffHook = std::function<void(KvHandoff handoff, sim::Cycles ready)>;
  /// Every callback the shard makes into its cluster. Any may be empty.
  struct Hooks {
    /// Streams tokens out of the tick loop. Tokens committed by a tick
    /// are delivered (in commit order) by an engine event at the tick's
    /// simulated end time, so hook code observes a settled shard and may
    /// Submit/Abort reentrantly. Emission buffering is active regardless
    /// so Abort can guarantee a cancelled stream never emits again.
    TokenEmissionHook on_token;
    /// Fires once per request with its final outcome.
    FinishEmissionHook on_finish;
    /// Invoked at the end of any tick in which admission or decode was
    /// blocked by KV-pool capacity (the cluster's rebalance trigger).
    /// Runs after the tick's own state is settled, so it may
    /// Steal/Submit.
    std::function<void()> on_kv_pressure;
    /// Owns routing a prefill-role shard's finished prompt to a decode
    /// shard: the handoff carries everything the decode shard needs, and
    /// the hook charges the transfer and calls AdoptHandoff on the
    /// destination. Without it a prefill-role shard falls back to
    /// unified behavior (it decodes its own sequences), so it never
    /// strands work.
    HandoffHook on_handoff;
  };
  /// Installs the cluster's callbacks. Must be called before the first
  /// tick runs.
  void set_hooks(Hooks hooks) { hooks_ = std::move(hooks); }

  /// Cancels the live sequence serving global stream `stream_index`:
  /// frees its KV blocks immediately, truncates its
  /// outcome to the tokens already delivered, scrubs undelivered
  /// emissions, and fires the finish hook with FinishReason::kCancelled
  /// before returning. A sequence that finished internally but whose
  /// finish emission is still undelivered cancels too -- the client has
  /// observed nothing final, so the cancel wins the race. NotFound when
  /// this shard has no live sequence for the stream; FailedPrecondition
  /// when the finish was already delivered. Must not be called from
  /// inside a tick (hook callbacks are safe).
  Status Abort(std::size_t stream_index);

  // ----- disaggregation (api::Engine wiring) -----
  /// Attaches the cluster's shared interconnect and this shard's card id.
  /// All COW/restore/swap DMA queues on `interconnect`'s per-card HBM
  /// stations, serializing with concurrent KV transfers. Required: must
  /// be set before the first tick runs.
  void set_interconnect(Interconnect* interconnect, std::int32_t card) {
    interconnect_ = interconnect;
    card_id_ = card;
  }

  /// Adopts a prefill-complete sequence shipped from a prefill shard
  /// (its KV pages have already arrived: call this at the transfer's end
  /// time). The sequence queues for admission and joins the decode set
  /// without re-running prefill -- the shipped K/V rows are copied into
  /// pool blocks at zero forward cost -- and its token stream continues
  /// byte-identically.
  void AdoptHandoff(KvHandoff handoff);

  /// Estimated seconds to recompute `tokens` prefill tokens locally:
  /// the fraction of amortized full-tick shared cost the tokens occupy.
  /// The fetch-vs-recompute admission arbiter compares this against the
  /// interconnect's transfer estimate.
  double EstimateRecomputeSeconds(std::int64_t tokens) const {
    return shared_seconds_ * static_cast<double>(tokens) /
           static_cast<double>(config_.max_batch_tokens);
  }

  /// Mutable pool access for cluster-level wiring (landing a remote
  /// prefix fetch's K/V). Scheduling state stays shard-owned.
  KvBlockPool& mutable_pool() { return pool_; }

  /// This shard's disaggregation role.
  ShardRole role() const { return role_; }

  // ----- telemetry -----
  /// Attaches the cluster's telemetry channel (lifecycle trace sink +
  /// per-card metric ids). Must be set before the first tick runs.
  void set_telemetry(obs::ShardChannel channel) {
    telemetry_ = std::move(channel);
  }

  // ----- placement-policy queries -----
  /// This shard's KV block pool (placement policies read its capacity
  /// and occupancy).
  const KvBlockPool& pool() const { return pool_; }
  /// This card's executor: its weight image and timing table. The shard
  /// runs only its Compute half, so its stats stay empty.
  const accel::Executor& executor() const { return *exec_; }
  /// KV pool capacity in bytes.
  std::uint64_t pool_bytes() const { return pool_.capacity_bytes(); }
  /// Free KV blocks minus the full eventual footprint (prompt + budget)
  /// of every queued, never-admitted request -- the headroom a placement
  /// policy should bid with, since queued demand is already committed.
  /// O(1): maintained incrementally at submit/admit/steal time.
  std::int64_t projected_free_kv_blocks() const {
    return pool_.free_blocks() - queued_demand_blocks_;
  }
  /// Tokens of work still owed: remaining prefill plus remaining decode
  /// budget across every live sequence (waiting or resident). O(1):
  /// maintained incrementally as tokens are submitted/processed.
  std::int64_t outstanding_tokens() const { return outstanding_tokens_; }
  /// Outstanding tokens owed to requests at priority `tier` or higher
  /// (numerically lower-or-equal). Tier-aware placement bids with this:
  /// work a new arrival would outrank does not count against a card.
  std::int64_t outstanding_tokens_at_or_above(RequestTier tier) const;
  /// Requests queued on this shard (arrived, not resident).
  std::int64_t num_waiting() const {
    return static_cast<std::int64_t>(waiting_.size());
  }
  /// Sequences currently resident in the batch.
  std::int64_t num_residents() const {
    return static_cast<std::int64_t>(residents_.size());
  }
  /// Blocks `request` will occupy at its maximum extent.
  std::int64_t BlocksForRequest(const ServingRequest& request) const;

  // ----- cluster rebalancing -----
  /// Filters rebalance candidates by global stream index (e.g. "has this
  /// request exhausted its migration budget?"). Null accepts everything.
  using StreamPredicate = std::function<bool(std::size_t stream_index)>;
  /// Newest queued request that has never been admitted (prefill not
  /// started) and satisfies `eligible`, or nullopt. Does not remove it.
  std::optional<std::pair<const ServingRequest*, std::size_t>>
  PeekNewestQueued(const StreamPredicate& eligible = nullptr) const;
  /// Removes the newest never-admitted, eligible queued request and
  /// returns it for resubmission elsewhere. The local sequence is marked
  /// migrated and excluded from this shard's report.
  std::optional<std::pair<const ServingRequest*, std::size_t>>
  StealNewestQueued(const StreamPredicate& eligible = nullptr);

  // ----- harvest (after the engine drains) -----
  /// OK when every submitted (non-migrated) request ran to completion.
  Status Finalize() const;
  /// Aggregate report for this shard. Outcomes are ordered by stream
  /// index; `stream_indices` receives the global index of each outcome.
  /// Call once, after Finalize().
  ServingReport TakeReport(std::vector<std::size_t>& stream_indices);

  /// Wall-clock end of the shard's last tick, cycles.
  sim::Cycles last_tick_end_cycles() const { return last_tick_end_cycles_; }
  /// Total simulated cycles this shard's ticks occupied, each tick its
  /// span on the clock (utilization numerator; the denominator is the
  /// cluster makespan).
  sim::Cycles busy_cycles() const { return busy_cycles_; }

 private:
  enum class SeqState {
    kWaiting,
    kPrefill,
    kDecode,
    kDone,
    kMigrated,
    kCancelled,
    kHandedOff,  // shipped to a decode shard; outcome travels with it
  };

  struct Sequence {
    const ServingRequest* request = nullptr;
    std::size_t stream_index = 0;
    llama::Sampler sampler;
    SeqState state = SeqState::kWaiting;

    // Committed tokens fed to the model: prompt followed by generated
    // tokens. `cursor` counts tokens fed since the last (re)admission;
    // `high_water` marks how much of `fed` has been processed at least
    // once, so swap-in recompute work is distinguishable from first-pass
    // prefill.
    std::vector<std::int32_t> fed;
    std::int32_t cursor = 0;
    std::int32_t high_water = 0;
    std::int32_t pending_token = -1;  // sampled but not yet committed
    std::int32_t delivered = 0;       // generated tokens already emitted
    std::int64_t admission_order = -1;
    std::int64_t wait_since_tick = 0;
    bool ever_admitted = false;
    // An adopted handoff not yet admitted here: its first local
    // admission lands the shipped pages (LandHandoff) instead of
    // prefilling and clears the flag; a later preemption recomputes
    // normally (the shipped pages are gone).
    bool adopted = false;
    RequestOutcome outcome;

    explicit Sequence(llama::Sampler s) : sampler(std::move(s)) {}

    std::int32_t remaining_prefill() const {
      return static_cast<std::int32_t>(fed.size()) - cursor;
    }
    /// Decode tokens the request may still generate.
    std::int64_t remaining_decode() const {
      return request->max_new_tokens -
             static_cast<std::int64_t>(outcome.generated.size());
    }
    /// True when the logits of the row `ahead` prefill rows past the
    /// next one reach SampleNext: feeding it (fed[cursor + ahead], or
    /// the pending token once caught up, which it commits) leaves the
    /// sequence caught up, with decode budget left and no pending token.
    bool next_row_samples(std::int32_t ahead = 0) const {
      const std::int32_t prefill = remaining_prefill() - ahead;
      if (prefill == 0) return remaining_decode() > 1;
      return prefill == 1 && remaining_decode() > 0 && pending_token < 0;
    }
  };

  /// One problem of a tick's grouped launch: a decode sequence's row (a
  /// verify group with speculation on) or a prefill chunk.
  struct Problem {
    std::size_t seq_id = 0;
    // The state the sequence must still be in when the problem runs; a
    // sequence preempted earlier in the tick is not, and is skipped.
    SeqState state = SeqState::kDecode;
    // Planned rows: the chunk length, or 1 for a decode row, which a
    // verify group's accepted drafts extend once the draft phase has run.
    std::int32_t rows = 1;
    std::int32_t fed = 0;  // rows actually executed
    // A verify group's draft rows and its newest forwarded row's cost,
    // priced when the group closes.
    std::int32_t drafted = 0;
    double last_row_seconds = 0.0;
  };

  /// One member of a segment: its problem's next chunk (phase one), its
  /// forward's outcome and sample (phase two).
  struct Chunk {
    Problem* problem = nullptr;
    std::int32_t pos = 0;      // the first row's position
    std::int32_t rows = 0;     // rows stepped
    bool caught_up = false;    // one row, feeding the pending token
    bool samples = false;      // the last row's logits are sampled
    accel::KvPages pages;
    std::int32_t sampled = -1;
    Status status;
  };

  /// Everything one tick plans, executes and closes over.
  struct TickWork {
    double start_s = 0.0;
    // Decode rows first, in plan order, then prefill chunks.
    std::vector<Problem> problems;
    std::vector<std::size_t> ttft_marks;  // first token sampled this tick
    std::vector<std::size_t> handoffs;    // prefill done, ship at close
    // Tokens mapped from the prefix cache or landed from an adopted
    // handoff's K/V: progress with no forward.
    std::int64_t restored_tokens = 0;
    std::int64_t spec_draft_at_open = 0;   // report_ counters at tick open
    std::int64_t spec_accept_at_open = 0;
  };

  /// One undelivered stream event: a committed token (`token` >= 0) or a
  /// finish marker (`token` < 0, `finish` set). Buffered per tick and
  /// delivered by an engine event at the tick's end time.
  struct Emission {
    std::size_t seq_id = 0;
    std::int32_t token = -1;
    FinishReason finish = FinishReason::kNone;
  };

  void ScheduleTick(sim::Cycles at);
  /// One tick: PlanDecode, AdmitAndPlanPrefill, then the problem list
  /// in order, segment by segment (RunSegment), and CloseTick. A hard
  /// error ends the tick chain.
  void RunTick();
  /// Runs the segment at problem `begin` (see the class comment) and
  /// returns the next problem to run: `begin` again for a verify group
  /// with accepted rows left, else past the segment. A closing verify
  /// group prices its wasted and draft rows. A member whose forward fails
  /// sets error_, and neither it nor a later member commits.
  std::size_t RunSegment(TickWork& work, std::size_t begin);
  /// Phase one of one member: appends the KV of `chunk.problem`'s next
  /// chunk row by row (a verify group drafts on its first row) and prices
  /// each row. A dry pool cuts the chunk short, possibly to no rows.
  void StepChunk(Chunk& chunk);
  /// Lane `t` of the shared lanes, grown to hold it.
  ForwardLane& Lane(std::size_t t);
  /// Plans the decode set's verify groups into `work`, in admission
  /// order while the token budget covers every decoding sequence. An
  /// over-budget set is funded by tier group (one group with tiers off):
  /// each group that fits decodes whole and the first that does not
  /// rotates its slots. Returns the budget left for prefill.
  std::int32_t PlanDecode(TickWork& work);
  /// Plans chunks for resident partial prefills, then admits waiting
  /// sequences per policy within the prefill share of `budget`. Cache
  /// restores and adopted handoffs land here with no forward.
  void AdmitAndPlanPrefill(TickWork& work, std::int32_t budget);
  /// Prices the tick's grouped launch, stamps commit, TTFT and finish
  /// times, ships handoffs, records telemetry, and schedules emission
  /// delivery and the next tick.
  void CloseTick(const TickWork& work);
  /// Records an instant telemetry event for `seq_id` at the current time.
  void TraceInstant(obs::RequestEventKind kind, std::size_t seq_id,
                    std::int64_t tokens, std::int64_t bytes = 0);
  /// Releases `seq_id`'s pool blocks and drops it from the residents; a
  /// failed release is a hard error.
  void ReleaseResident(std::size_t seq_id, bool preempted);
  /// Adjusts the total and per-tier outstanding-token counters together
  /// (every mutation site routes through here so they never diverge).
  void AddOutstanding(RequestTier tier, std::int64_t delta);
  std::vector<std::size_t> AdmissionCandidates() const;
  bool EnsureKvToken(std::size_t seq_id, std::int32_t token);
  /// Maps `seq`'s longest cached prefix onto shared pool blocks. The
  /// blocks hold the prefix's K/V, so no compute or weight traffic is
  /// owed for the restored tokens (on the device they are already
  /// resident in HBM); only the restore's DMA read is charged through
  /// ChargeDma. Rows the host lacks (cold blocks) are recomputed here
  /// (RecomputeRows). Returns the restored token count, or -1 on a hard
  /// error.
  std::int64_t RestoreCachedPrefix(std::size_t seq_id);
  /// Recomputes `seq_id`'s host K/V rows for positions [begin, end) with
  /// one host-only forward and reports them (KvBlockPool::MarkRecomputed):
  /// no logits, tick cost, report counter or telemetry, since the
  /// simulated device already holds them. Returns false on a hard error.
  bool RecomputeRows(std::size_t seq_id, std::int64_t begin,
                     std::int64_t end);
  /// Converts pool DMA bytes accrued since the last call (one COW copy,
  /// cache restore, or preemption swap-out per call site) into simulated
  /// time on the current tick: transfer latency + DMA setup + bytes over
  /// the HBM aggregate bandwidth. `cause` labels the move ("cow" /
  /// "restore" / "swap-out") and `seq_id` attributes it in the telemetry
  /// trace. Returns the bytes moved.
  std::int64_t ChargeDma(const char* cause, std::size_t seq_id);
  void Preempt(std::size_t victim);
  /// Ships `seq_id` (prefill complete, first token sampled and TTFT
  /// stamped) to the cluster's handoff hook: releases its blocks here,
  /// marks it kHandedOff, and hands the hook the handoff with the moved
  /// sampler so the decode shard's stream continues byte-identically.
  void ExtractHandoff(std::size_t seq_id, sim::Cycles ready);
  /// Lands an adopted handoff's shipped pages in pool blocks: blocks this
  /// card already caches map as shared (RestoreCachedPrefix), the rest
  /// append fresh (EnsureKvToken), and one RecomputeRows restores the
  /// appended rows' host K/V. No simulated compute is owed (the pages
  /// arrived over the interconnect; the transfer already paid). Returns
  /// false on a hard error or when the pool runs dry mid-landing.
  bool LandHandoff(std::size_t seq_id);
  /// Books one forwarded row of `problem`: commits the pending token
  /// when `caught_up`, advances the cursor, and, once the prefill is
  /// done, finishes on length, takes `sampled` (the token SampleToken
  /// drew from this row's logits, or -1 when the row samples none) as
  /// the next pending token, or switches a finished prefill to decode.
  /// Returns false when the problem ends at this row.
  bool CommitRow(TickWork& work, Problem& problem, bool caught_up,
                 std::int32_t sampled);
  /// Runs one decode sequence's draft phase: proposes up to the
  /// configured k draft tokens as a KvBlockPool speculation phase
  /// (rolled back before any verify commit, so draft content never
  /// reaches the prefix cache), charges any DMA the drafts moved, and
  /// evaluates the deterministic acceptance model. Returns the accepted
  /// run length; `drafted` receives the proposals actually made (the
  /// pool may cut a draft short when blocks run dry).
  std::int32_t DraftAndAccept(std::size_t seq_id, std::int32_t* drafted);
  /// Draws `seq`'s next token from `logits` (copied into `scratch`), as
  /// sampled once `fed_tokens` tokens are fed: the commit of a caught-up
  /// row feeds its pending token before the drawn one becomes pending.
  /// Touches nothing but `seq`'s sampler and `scratch`, so distinct
  /// sequences sample at once.
  std::int32_t SampleToken(Sequence& seq, std::span<const float> logits,
                           std::size_t fed_tokens,
                           std::vector<float>& scratch) const;
  bool ShouldStop(const Sequence& seq) const;
  void FinishSequence(std::size_t seq_id, FinishReason reason);
  void DeliverEmissions();

  const accel::Program& program_;
  const hw::U280Config& u280_;
  SchedulerConfig config_;
  ShardRole role_;
  double shared_seconds_ = 0.0;

  sim::Engine& engine_;
  KvBlockPool pool_;
  std::vector<Sequence> seqs_;          // one per submitted request
  // Global stream index -> the slot of seqs_ serving it here (never a
  // migrated or handed-off one): Abort's lookup.
  std::unordered_map<std::size_t, std::size_t> slot_of_stream_;
  std::deque<std::size_t> waiting_;     // arrived, not resident (local ids)
  std::vector<std::size_t> residents_;  // admission order (local ids)
  // Steps and timing only: activations live in lanes_, and K/V are read
  // and written through pool_.Pages().
  std::unique_ptr<accel::Executor> exec_;
  std::vector<ForwardLane>& lanes_;
  std::vector<Chunk> segment_;  // RunSegment's members
  Hooks hooks_;
  Interconnect* interconnect_ = nullptr;  // cluster-shared stations
  std::int32_t card_id_ = 0;
  sim::Cycles dma_charged_until_ = 0;  // end of the last time-charged DMA
  obs::ShardChannel telemetry_;
  std::vector<Emission> tick_emissions_;     // current tick, pre-timestamp
  std::deque<Emission> pending_emissions_;   // awaiting the delivery event

  bool tick_pending_ = false;
  bool kv_blocked_ = false;  // this tick hit pool exhaustion
  std::int64_t dma_bytes_seen_ = 0;  // pool DMA bytes already time-charged
  std::int64_t outstanding_tokens_ = 0;    // see outstanding_tokens()
  std::array<std::int64_t, kNumTiers> tier_outstanding_{};  // by TierIndex
  std::int64_t queued_demand_blocks_ = 0;  // never-admitted waiting demand
  std::int64_t tick_index_ = 0;
  std::int64_t next_admission_ = 0;
  std::size_t rr_offset_ = 0;  // PlanDecode's over-budget rotation cursor
  sim::Cycles last_tick_end_cycles_ = 0;
  sim::Cycles busy_cycles_ = 0;
  // Per-tick grouped-launch cost accumulator: every forward row, wasted
  // verify row, draft row, and serial DMA second of the current tick
  // lands here; the tick's length is tick_cost_.group_seconds().
  hw::GroupedKernelCostModel tick_cost_;
  std::int64_t width_sum_ = 0;  // decode rows + prefill chunks, all ticks
  Status error_;
  ServingReport report_;
};

}  // namespace speedllm::serving

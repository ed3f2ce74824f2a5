#include "serving/shard.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "accel/executor.hpp"
#include "common/threadpool.hpp"

namespace speedllm::serving {

namespace {

/// The amortized shared cost may never swallow a whole forward: even in a
/// perfectly grouped launch each sequence still owns its KV traffic and
/// compute tail.
constexpr double kSharedShareCap = 0.95;

/// Seed of the deterministic speculative-acceptance hash.
constexpr std::uint64_t kAcceptanceSeed = 0x5eedc0de;

/// Event skeleton for the telemetry trace; instants pass start == end.
obs::RequestEvent MakeEvent(obs::RequestEventKind kind, std::int64_t stream,
                            std::int64_t tick, double start_seconds,
                            double end_seconds) {
  obs::RequestEvent ev;
  ev.kind = kind;
  ev.stream = stream;
  ev.tick = tick;
  ev.start_seconds = start_seconds;
  ev.end_seconds = end_seconds;
  return ev;
}

/// `base` with a request's set override fields layered over it.
llama::SamplerConfig WithOverride(llama::SamplerConfig base,
                                  const SamplerOverride& over) {
  if (over.has_temperature) base.temperature = over.temperature;
  if (over.has_top_p) base.top_p = over.top_p;
  if (over.has_eos_token) base.eos_token = over.eos_token;
  return base;
}

/// KV pool budget for one card: HBM capacity minus the resident reserve,
/// or the explicit override when that is smaller.
std::uint64_t DeriveKvPoolBytes(const accel::Program& program,
                                const hw::U280Config& u280,
                                std::uint64_t override_bytes) {
  const std::uint64_t budget =
      u280.hbm.kv_budget_bytes(ResidentHbmReserveBytes(program));
  return override_bytes > 0 ? std::min(override_bytes, budget) : budget;
}

}  // namespace

std::uint64_t ResidentHbmReserveBytes(const accel::Program& program) {
  const std::uint64_t bytes_per_param = program.exec.int8_weights ? 2 : 4;
  return static_cast<std::uint64_t>(program.model.num_params()) *
             bytes_per_param +
         (256ull << 20);
}

SchedulerConfig NormalizeSchedulerConfig(SchedulerConfig config) {
  config.max_batch_seqs = std::max(1, config.max_batch_seqs);
  config.max_batch_tokens = std::max(1, config.max_batch_tokens);
  config.block_size_tokens = std::max(1u, config.block_size_tokens);
  // A sequence's verify group is 1 + draft_tokens rows; it must fit the
  // per-tick token budget or no sequence could ever be planned.
  config.speculative.draft_tokens =
      std::clamp(config.speculative.draft_tokens, 0,
                 config.max_batch_tokens - 1);
  config.speculative.acceptance_rate =
      std::clamp(config.speculative.acceptance_rate, 0.0, 1.0);
  return config;
}

double DeriveSharedStepSeconds(const accel::Program& program,
                               const hw::U280Config& u280) {
  const auto& st = program.stats;
  const auto& ex = program.exec;
  const auto& hbm = u280.hbm;
  const std::uint64_t bytes_per_cycle = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(hbm.num_channels) *
             hbm.bytes_per_cycle_per_channel);
  const sim::Cycles weight_cycles = st.weight_stream_bytes / bytes_per_cycle;
  const sim::Cycles launch_cycles =
      st.num_groups *
      (ex.kernel_launch_cycles + ex.dma_setup_cycles + hbm.latency_cycles);
  return u280.cycles_to_seconds(weight_cycles + launch_cycles);
}

Status ValidateRequest(const ServingRequest& req, const std::string& tag,
                       const llama::ModelConfig& model,
                       std::int64_t pool_blocks, std::int64_t block_size) {
  if (req.prompt.empty()) {
    return InvalidArgument(tag + " has an empty prompt");
  }
  if (req.max_new_tokens <= 0) {
    return InvalidArgument(tag + " must generate at least one token (got " +
                           std::to_string(req.max_new_tokens) + ")");
  }
  if (!(req.arrival_seconds >= 0.0) || !std::isfinite(req.arrival_seconds)) {
    return InvalidArgument(tag + " has a non-finite or negative arrival");
  }
  // Unset override fields keep SamplerConfig's (valid) defaults.
  SPEEDLLM_RETURN_IF_ERROR(llama::ValidateSamplerConfig(
      WithOverride(llama::SamplerConfig{}, req.sampler),
      tag + " sampler override"));
  const std::int64_t tokens =
      static_cast<std::int64_t>(req.prompt.size()) + req.max_new_tokens;
  if (tokens > model.seq_len) {
    return OutOfRange(tag + " exceeds seq_len");
  }
  if ((tokens + block_size - 1) / block_size > pool_blocks) {
    return ResourceExhausted(tag + " can never fit the KV pool (" +
                             std::to_string(pool_blocks) + " blocks of " +
                             std::to_string(block_size) + " tokens)");
  }
  return Status::Ok();
}

/// The amplitude sits far below typical logit gaps, so greedy argmax is
/// unchanged in practice (tests lock this in); temperature sampling may
/// legally diverge from fp16, exactly like a real quantized cache.
void PerturbLogitsForQuant(std::size_t stream_index, std::size_t fed_tokens,
                           std::uint32_t block_size_tokens,
                           std::span<float> logits) {
  constexpr float kAmplitude = 1e-6f;
  const std::uint64_t block_index = fed_tokens / block_size_tokens;
  std::uint64_t h = (static_cast<std::uint64_t>(stream_index) + 1) *
                    0x9e3779b97f4a7c15ull;
  h ^= (block_index + 1) * 0x100000001b3ull;
  for (float& v : logits) {
    h ^= h >> 12;  // xorshift64* per element
    h ^= h << 25;
    h ^= h >> 27;
    const std::uint64_t r = h * 0x2545f4914f6cdd1dull;
    // Top 53 bits over 2^52, recentered: uniform in [-1, 1).
    const float noise =
        static_cast<float>(static_cast<double>(r >> 11) /
                           4503599627370496.0) -
        1.0f;
    v += kAmplitude * noise;
  }
}

ShardScheduler::ShardScheduler(const accel::Program& program,
                               const accel::WeightImage& image,
                               const hw::U280Config& u280,
                               const SchedulerConfig& config,
                               ShardRole role, sim::Engine& engine,
                               KvRowArena& arena,
                               std::vector<ForwardLane>& lanes)
    : program_(program),
      u280_(u280),
      config_(config),
      role_(role),
      shared_seconds_(DeriveSharedStepSeconds(program, u280)),
      engine_(engine),
      pool_(MakeKvPoolConfig(
                program.model, config.kv_cache_dtype,
                DeriveKvPoolBytes(program, u280, config.kv_pool_bytes),
                config.block_size_tokens, config.enable_prefix_cache),
            &arena),
      exec_(std::make_unique<accel::Executor>(program, image, u280)),
      lanes_(lanes),
      tick_cost_(shared_seconds_, kSharedShareCap) {}

ShardScheduler::~ShardScheduler() = default;

void ShardScheduler::Submit(const ServingRequest& request,
                            std::size_t stream_index,
                            const llama::SamplerConfig& sampler_config) {
  if (!error_.ok()) return;
  // Per-request sampler overrides (PR 3 absorb) layer over the engine
  // default before the stream seed is derived: the seed offset is never
  // overridable, so overridden streams stay independent of batch
  // composition and placement exactly like default ones.
  llama::SamplerConfig sc = WithOverride(sampler_config, request.sampler);
  sc.seed = sampler_config.seed + stream_index * 7919;  // independent streams
  Sequence seq{llama::Sampler(sc)};
  seq.request = &request;
  seq.stream_index = stream_index;
  seq.fed = request.prompt;
  seq.outcome.arrival_seconds = request.arrival_seconds;
  seq.outcome.prompt_tokens = static_cast<std::int32_t>(request.prompt.size());
  seq.outcome.tier = request.tier;
  seq.wait_since_tick = tick_index_;
  AddOutstanding(request.tier,
                 static_cast<std::int64_t>(request.prompt.size()) +
                     request.max_new_tokens);
  queued_demand_blocks_ += BlocksForRequest(request);
  seqs_.push_back(std::move(seq));
  slot_of_stream_[stream_index] = seqs_.size() - 1;
  waiting_.push_back(seqs_.size() - 1);
  if (!tick_pending_) ScheduleTick(engine_.now());
}

void ShardScheduler::AddOutstanding(RequestTier tier, std::int64_t delta) {
  outstanding_tokens_ += delta;
  tier_outstanding_[static_cast<std::size_t>(TierIndex(tier))] += delta;
}

std::int64_t ShardScheduler::outstanding_tokens_at_or_above(
    RequestTier tier) const {
  std::int64_t sum = 0;
  for (int t = 0; t <= TierIndex(tier); ++t) {
    sum += tier_outstanding_[static_cast<std::size_t>(t)];
  }
  return sum;
}

std::int64_t ShardScheduler::BlocksForRequest(
    const ServingRequest& request) const {
  return pool_.BlocksForTokens(
      static_cast<std::int64_t>(request.prompt.size()) +
      request.max_new_tokens);
}

std::optional<std::pair<const ServingRequest*, std::size_t>>
ShardScheduler::PeekNewestQueued(const StreamPredicate& eligible) const {
  for (auto it = waiting_.rbegin(); it != waiting_.rend(); ++it) {
    const Sequence& seq = seqs_[*it];
    if (seq.ever_admitted) continue;
    if (eligible && !eligible(seq.stream_index)) continue;
    return std::pair{seq.request, seq.stream_index};
  }
  return std::nullopt;
}

std::optional<std::pair<const ServingRequest*, std::size_t>>
ShardScheduler::StealNewestQueued(const StreamPredicate& eligible) {
  for (auto it = waiting_.rbegin(); it != waiting_.rend(); ++it) {
    Sequence& seq = seqs_[*it];
    if (seq.ever_admitted) continue;
    if (eligible && !eligible(seq.stream_index)) continue;
    seq.state = SeqState::kMigrated;
    AddOutstanding(seq.request->tier,
                   -(static_cast<std::int64_t>(seq.request->prompt.size()) +
                     seq.request->max_new_tokens));
    queued_demand_blocks_ -= BlocksForRequest(*seq.request);
    waiting_.erase(std::next(it).base());
    slot_of_stream_.erase(seq.stream_index);
    return std::pair{seq.request, seq.stream_index};
  }
  return std::nullopt;
}

Status ShardScheduler::Finalize() const {
  if (!error_.ok()) return error_;
  for (const Sequence& seq : seqs_) {
    if (seq.state != SeqState::kDone && seq.state != SeqState::kMigrated &&
        seq.state != SeqState::kCancelled &&
        seq.state != SeqState::kHandedOff) {
      return Internal("scheduler stalled: request " +
                      std::to_string(seq.stream_index) + " never completed");
    }
  }
  return Status::Ok();
}

ServingReport ShardScheduler::TakeReport(
    std::vector<std::size_t>& stream_indices) {
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < seqs_.size(); ++i) {
    // Migrated and handed-off sequences report from their final shard
    // (the outcome travels with them), never from here.
    if (seqs_[i].state != SeqState::kMigrated &&
        seqs_[i].state != SeqState::kHandedOff) {
      order.push_back(i);
    }
  }
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return seqs_[a].stream_index < seqs_[b].stream_index;
  });
  report_.outcomes.clear();
  report_.outcomes.reserve(order.size());
  stream_indices.clear();
  for (std::size_t id : order) {
    stream_indices.push_back(seqs_[id].stream_index);
    report_.outcomes.push_back(std::move(seqs_[id].outcome));
  }
  report_.makespan_seconds = u280_.cycles_to_seconds(last_tick_end_cycles_);
  report_.device_tokens_per_second =
      report_.makespan_seconds > 0.0
          ? static_cast<double>(report_.total_tokens) /
                report_.makespan_seconds
          : 0.0;
  report_.mean_batch_width =
      report_.ticks > 0 ? static_cast<double>(width_sum_) /
                              static_cast<double>(report_.ticks)
                        : 0.0;
  report_.preemptions = pool_.stats().preemption_releases;
  report_.peak_kv_blocks = pool_.stats().peak_used_blocks;
  report_.kv_block_capacity = pool_.num_blocks();
  report_.kv_block_bytes = pool_.config().block_bytes();
  report_.kv_capacity_bytes = pool_.capacity_bytes();
  const KvPoolStats& ps = pool_.stats();
  report_.prefix_cache_queries = ps.prefix_queries;
  report_.prefix_cache_hits = ps.prefix_hits;
  report_.prefix_cache_hit_tokens = ps.prefix_hit_tokens;
  report_.prefix_cache_lookup_tokens = ps.prefix_lookup_tokens;
  report_.cow_copies = ps.cow_copies;
  report_.cache_evictions = ps.cache_evictions;
  report_.dma_bytes_moved = ps.dma_bytes_moved;
  return std::move(report_);
}

// ---------------------------------------------------------------- events

void ShardScheduler::ScheduleTick(sim::Cycles at) {
  tick_pending_ = true;
  engine_.ScheduleAt(at, [this] { RunTick(); });
}

// -------------------------------------------------------------- planning

/// Waiting-queue candidates in admission order for this tick. FCFS and
/// decode-priority only ever look at the head (head-of-line blocking is
/// part of the policy); shortest-prompt-first may skip over requests that
/// do not fit, and ages starved requests back to FCFS. With tiers
/// enabled the policy order is stably re-sorted by tier, so higher tiers
/// admit first and equal-tier requests keep the policy's order exactly
/// (a uniform-tier trace is scheduled identically to tiers-off).
std::vector<std::size_t> ShardScheduler::AdmissionCandidates() const {
  std::vector<std::size_t> order(waiting_.begin(), waiting_.end());
  if (config_.policy == BatchPolicy::kShortestPromptFirst) {
    std::vector<std::size_t> aged, fresh;
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      const Sequence& s = seqs_[order[pos]];
      if (tick_index_ - s.wait_since_tick >= kStarvationGraceTicks) {
        aged.push_back(order[pos]);
      } else {
        fresh.push_back(order[pos]);
      }
    }
    std::stable_sort(fresh.begin(), fresh.end(),
                     [this](std::size_t a, std::size_t b) {
                       return seqs_[a].fed.size() < seqs_[b].fed.size();
                     });
    aged.insert(aged.end(), fresh.begin(), fresh.end());
    order = std::move(aged);
  }
  if (config_.enable_tiers) {
    std::stable_sort(order.begin(), order.end(),
                     [this](std::size_t a, std::size_t b) {
                       return TierIndex(seqs_[a].request->tier) <
                              TierIndex(seqs_[b].request->tier);
                     });
  }
  return order;
}

// ------------------------------------------------------------- execution

/// Accounts one token of KV for `seq`, preempting the most recently
/// admitted resident (swap-by-recompute) until it fits. The requester
/// never preempts an older sequence on its own behalf: when it is itself
/// the newest resident it defers to a later tick instead. Preemption
/// only ever drops the victim's own references: blocks shared with a
/// co-owner stay resident, and the victim's cached blocks stay
/// restorable until the LRU list is actually evicted.
bool ShardScheduler::EnsureKvToken(std::size_t seq_id, std::int32_t token) {
  while (true) {
    Status st = pool_.Append(seq_id, token);
    if (st.ok()) {
      // A copy-on-write may have moved one block.
      const std::int64_t moved = ChargeDma("cow", seq_id);
      if (moved > 0) {
        TraceInstant(obs::RequestEventKind::kCowCopy, seq_id, 0, moved);
      }
      return true;
    }
    if (st.code() != StatusCode::kResourceExhausted) {
      error_ = st;
      return false;
    }
    kv_blocked_ = true;
    // Victim selection: with tiers enabled the lowest-priority resident
    // loses first (numerically-highest tier), newest admission breaking
    // ties within a tier; and a requester never evicts a strictly
    // higher-priority resident on its own behalf -- it defers instead.
    // With tiers off every resident ranks equal and this reduces to
    // "newest admission order" exactly as before.
    std::size_t victim = seqs_.size();
    int victim_tier = -1;
    std::int64_t newest = -1;
    for (std::size_t r : residents_) {
      const int tier =
          config_.enable_tiers ? TierIndex(seqs_[r].request->tier) : 0;
      if (tier > victim_tier ||
          (tier == victim_tier && seqs_[r].admission_order > newest)) {
        victim_tier = tier;
        newest = seqs_[r].admission_order;
        victim = r;
      }
    }
    if (victim == seqs_.size() || victim == seq_id) return false;
    const int my_tier =
        config_.enable_tiers ? TierIndex(seqs_[seq_id].request->tier) : 0;
    if (victim_tier < my_tier) return false;  // never evict a higher tier
    Preempt(victim);
  }
}

void ShardScheduler::Preempt(std::size_t victim) {
  Sequence& seq = seqs_[victim];
  // The event counts the fed work this preemption drops.
  TraceInstant(obs::RequestEventKind::kPreempt, victim, seq.cursor);
  ReleaseResident(victim, /*preempted=*/true);
  ChargeDma("swap-out", victim);  // the victim's private blocks write back
  seq.state = SeqState::kWaiting;
  // Fed work is owed again (recompute).
  AddOutstanding(seq.request->tier, seq.cursor);
  seq.cursor = 0;  // KV gone: recompute from scratch on readmission
  seq.wait_since_tick = tick_index_;
  // Preempted sequences re-queue at the front: they are the oldest work
  // and must not starve behind fresh arrivals.
  waiting_.push_front(victim);
  ++seq.outcome.preemptions;
}

bool ShardScheduler::RecomputeRows(std::size_t seq_id, std::int64_t begin,
                                   std::int64_t end) {
  // Bit-identical to the rows the simulated device holds, because a
  // position's K/V never depends on how the forwards were split. The
  // simulation sees nothing: no tick cost, report counter or event.
  const auto rows = exec_->Compute(
      Lane(0).activations,
      std::span<const std::int32_t>(seqs_[seq_id].fed)
          .subspan(static_cast<std::size_t>(begin),
                   static_cast<std::size_t>(end - begin)),
      static_cast<std::int32_t>(begin), pool_.Pages(seq_id),
      /*want_last_logits=*/false);
  Status st = rows.ok() ? pool_.MarkRecomputed(seq_id, begin, end)
                        : rows.status();
  if (!st.ok()) error_ = st;
  return st.ok();
}

std::int64_t ShardScheduler::RestoreCachedPrefix(std::size_t seq_id) {
  Sequence& seq = seqs_[seq_id];
  // The final fed token must still be processed for fresh logits, unless
  // a retained pending token (readmission after preemption) makes the
  // whole prefill a pure recompute -- then a full restore is legal.
  const std::int64_t cap = static_cast<std::int64_t>(seq.fed.size()) -
                           (seq.pending_token >= 0 ? 0 : 1);
  auto match_or = pool_.AcquireCachedPrefix(seq_id, seq.fed, cap);
  if (!match_or.ok()) {
    error_ = match_or.status();
    return -1;
  }
  const std::int64_t restored = match_or->matched_tokens;
  ChargeDma("restore", seq_id);  // the restore reads blocks through HBM
  if (restored == 0) return 0;
  TraceInstant(obs::RequestEventKind::kCacheHit, seq_id, restored);
  // The mapped blocks' rows hold the prefix's K/V, and the sequence
  // attends over them directly -- except the rows the host dropped to
  // bound its memory (kHostCachedKvTokens) or never received (a remote
  // fetch's install). Those are recomputed here.
  if (match_or->recompute_begin < match_or->recompute_end &&
      !RecomputeRows(seq_id, match_or->recompute_begin,
                     match_or->recompute_end)) {
    return -1;
  }
  seq.cursor = static_cast<std::int32_t>(restored);
  seq.high_water = std::max(seq.high_water, seq.cursor);
  AddOutstanding(seq.request->tier, -restored);
  return restored;
}

void ShardScheduler::ExtractHandoff(std::size_t seq_id, sim::Cycles ready) {
  Sequence& seq = seqs_[seq_id];
  KvHandoff handoff;
  handoff.request = seq.request;
  handoff.stream_index = seq.stream_index;
  handoff.sampler = std::move(seq.sampler);
  handoff.pending_token = seq.pending_token;
  // Whole blocks ship, at this pool's dtype-aware block_bytes (an int8
  // pool hands off roughly half the bytes an fp16 one does).
  handoff.kv_bytes =
      pool_.BlocksForTokens(static_cast<std::int64_t>(seq.fed.size())) *
      static_cast<std::int64_t>(pool_.config().block_bytes());
  // The decode budget is owed by the destination now.
  AddOutstanding(seq.request->tier, -seq.remaining_decode());
  ++seq.outcome.handoffs;
  handoff.outcome = std::move(seq.outcome);
  handoff.fed = std::move(seq.fed);
  // Release local references; sealed full blocks stay in this card's
  // prefix cache (remote fetches may still find them), and the
  // interconnect's source-read leg pays for extracting the pages.
  ReleaseResident(seq_id, /*preempted=*/false);
  seq.state = SeqState::kHandedOff;
  seq.pending_token = -1;
  slot_of_stream_.erase(seq.stream_index);
  hooks_.on_handoff(std::move(handoff), ready);
}

void ShardScheduler::AdoptHandoff(KvHandoff handoff) {
  if (!error_.ok()) return;
  Sequence seq{std::move(handoff.sampler)};
  seq.request = handoff.request;
  seq.stream_index = handoff.stream_index;
  seq.fed = std::move(handoff.fed);
  seq.pending_token = handoff.pending_token;
  seq.adopted = true;
  seq.outcome = std::move(handoff.outcome);
  seq.wait_since_tick = tick_index_;
  // Admitted on the prefill shard: TTFT is stamped, the rebalancer must
  // not steal it, and its first local admission lands the shipped K/V
  // instead of prefilling.
  seq.ever_admitted = true;
  // Every fed token was processed at least once (on the prefill shard):
  // if a later preemption forces recompute here, those tokens count as
  // recomputed work, never as fresh throughput.
  seq.high_water = static_cast<std::int32_t>(seq.fed.size());
  // Landing the K/V subtracts per token exactly like a restore/prefill
  // would, so fed tokens enter the backlog alongside the decode budget.
  AddOutstanding(seq.request->tier,
                 static_cast<std::int64_t>(seq.fed.size()) +
                     seq.remaining_decode());
  queued_demand_blocks_ += BlocksForRequest(*seq.request);
  seqs_.push_back(std::move(seq));
  slot_of_stream_[seqs_.back().stream_index] = seqs_.size() - 1;
  waiting_.push_back(seqs_.size() - 1);
  if (!tick_pending_) ScheduleTick(engine_.now());
}

bool ShardScheduler::LandHandoff(std::size_t seq_id) {
  Sequence& seq = seqs_[seq_id];
  seq.adopted = false;
  const std::int64_t restored = RestoreCachedPrefix(seq_id);
  if (restored < 0) return false;
  bool landed = true;
  while (seq.cursor < static_cast<std::int32_t>(seq.fed.size())) {
    const std::int32_t token = seq.fed[static_cast<std::size_t>(seq.cursor)];
    if (!EnsureKvToken(seq_id, token)) {
      landed = false;
      break;
    }
    ++seq.cursor;
    AddOutstanding(seq.request->tier, -1);
  }
  if (!error_.ok()) return false;
  // The appended pages arrived without host rows: recompute them, also
  // when a dry pool cut the landing short, since the tail then prefills
  // over them later.
  if (seq.cursor > restored && !RecomputeRows(seq_id, restored, seq.cursor)) {
    return false;
  }
  return landed;
}

namespace {

/// splitmix64-style avalanche; the acceptance model's mixing primitive.
std::uint64_t SpecMix(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

/// Deterministic acceptance: hash (seed, stream, absolute position of
/// the drafted token) to a uniform in [0, 1) and compare against the
/// configured rate. Depends on nothing the cluster layout can change,
/// so the accepted-token schedule -- hence every tick boundary the spec
/// path produces -- is invariant across card count, placement, caching,
/// dtype, and roles.
bool AcceptDraft(const SpeculativeConfig& spec, std::size_t stream,
                 std::int64_t position) {
  if (spec.acceptance_rate >= 1.0) return true;
  if (spec.acceptance_rate <= 0.0) return false;
  std::uint64_t h = SpecMix(kAcceptanceSeed ^
                            SpecMix(static_cast<std::uint64_t>(stream) +
                                    0x9e3779b97f4a7c15ull));
  h = SpecMix(h ^ (static_cast<std::uint64_t>(position) + 1));
  const double u =
      static_cast<double>(h >> 11) / 9007199254740992.0;  // [0, 1)
  return u < spec.acceptance_rate;
}

}  // namespace

std::int32_t ShardScheduler::DraftAndAccept(std::size_t seq_id,
                                            std::int32_t* drafted) {
  *drafted = 0;
  Sequence& seq = seqs_[seq_id];
  const SpeculativeConfig& spec = config_.speculative;
  // Drafting past the request's remaining budget is pure waste: the
  // verify could never commit those rows.
  const std::int32_t k = static_cast<std::int32_t>(std::min<std::int64_t>(
      spec.draft_tokens,
      std::max<std::int64_t>(0, seq.remaining_decode() - 1)));
  if (k <= 0) return 0;
  // The pending token's KV is already appended (EnsureKvToken ran), so
  // drafts land at positions fed.size()+1 ... fed.size()+k. Their pool
  // appends happen under a speculation phase: sealing into the prefix
  // cache is suppressed and the rollback below restores the sequence
  // byte-identically, so draft content never leaks refcounts or cache
  // entries. A dry pool just cuts the draft short -- drafts never
  // preempt anyone.
  Status st = pool_.BeginSpeculation(seq_id);
  assert(st.ok());
  if (!st.ok()) {
    error_ = st;
    return 0;
  }
  const std::int64_t base_pos = static_cast<std::int64_t>(seq.fed.size()) + 1;
  for (std::int32_t j = 0; j < k; ++j) {
    // The draft model's guess: an arbitrary deterministic pseudo-token.
    // Its value only passes through rolled-back pool accounting -- the
    // verify commits the target model's own samples, never this.
    const std::int32_t guess = static_cast<std::int32_t>(
        SpecMix(kAcceptanceSeed ^
                static_cast<std::uint64_t>(base_pos + j) * 0x100000001b3ull) %
        static_cast<std::uint64_t>(program_.model.vocab_size));
    Status ap = pool_.Append(seq_id, guess);
    if (!ap.ok()) {
      if (ap.code() == StatusCode::kResourceExhausted) break;
      error_ = ap;
      break;
    }
    ++*drafted;
  }
  ChargeDma("spec-draft", seq_id);
  st = pool_.RollbackSpeculation(seq_id);
  assert(st.ok());
  if (!st.ok()) error_ = st;
  if (!error_.ok()) return 0;
  report_.spec_draft_tokens += *drafted;
  if (*drafted > 0) {
    TraceInstant(obs::RequestEventKind::kDraftPropose, seq_id, *drafted);
  }
  std::int32_t accepted = 0;
  for (std::int32_t j = 0; j < *drafted; ++j) {
    if (!AcceptDraft(spec, seq.stream_index, base_pos + j)) break;
    ++accepted;
  }
  return accepted;
}

std::int64_t ShardScheduler::ChargeDma(const char* cause,
                                       std::size_t seq_id) {
  const std::int64_t moved = pool_.stats().dma_bytes_moved - dma_bytes_seen_;
  dma_bytes_seen_ = pool_.stats().dma_bytes_moved;
  if (moved <= 0) return 0;
  // The move queues on this card's shared HBM DMA stations, so it
  // serializes honestly behind concurrent traffic (earlier moves this
  // tick, cross-card KV transfers) instead of being charged additively.
  // The tick is billed only the window past what it already paid
  // (`dma_charged_until_`), which makes back-to-back uncontended moves
  // cost exactly the old per-move sum.
  const sim::Cycles base = std::max(engine_.now(), dma_charged_until_);
  const hw::TransferTiming window = interconnect_->LocalDma(
      engine_.now(), static_cast<std::uint64_t>(moved), card_id_);
  dma_charged_until_ = window.end;
  const double seconds = u280_.cycles_to_seconds(window.end - base);
  const double base_s = u280_.cycles_to_seconds(base);
  tick_cost_.AddSerialSeconds(seconds);
  report_.dma_time_seconds += seconds;
  if (telemetry_.tracing()) {
    obs::RequestEvent ev = MakeEvent(
        obs::RequestEventKind::kDmaTransfer,
        static_cast<std::int64_t>(seqs_[seq_id].stream_index), tick_index_,
        base_s, base_s + seconds);
    ev.bytes = moved;
    ev.detail = cause;
    telemetry_.Record(std::move(ev));
  }
  return moved;
}

std::int32_t ShardScheduler::SampleToken(Sequence& seq,
                                         std::span<const float> logits,
                                         std::size_t fed_tokens,
                                         std::vector<float>& scratch) const {
  scratch.assign(logits.begin(), logits.end());
  if (config_.kv_cache_dtype == KvCacheDtype::kInt8) {
    PerturbLogitsForQuant(seq.stream_index, fed_tokens,
                          config_.block_size_tokens, scratch);
  }
  return seq.sampler.Sample(scratch);
}

/// True when the freshly sampled pending token must end generation early:
/// the request's stop set or the sampler-wide EOS id hit.
bool ShardScheduler::ShouldStop(const Sequence& seq) const {
  return IsStopToken(*seq.request, seq.sampler.config().eos_token,
                     seq.pending_token);
}

void ShardScheduler::FinishSequence(std::size_t seq_id, FinishReason reason) {
  Sequence& seq = seqs_[seq_id];
  seq.state = SeqState::kDone;
  seq.pending_token = -1;
  seq.outcome.finish_reason = reason;
  if (reason == FinishReason::kStop) {
    // The unused decode budget is owed to no one anymore.
    const std::int64_t saved = seq.remaining_decode();
    AddOutstanding(seq.request->tier, -saved);
    report_.stop_saved_tokens += saved;
    ++report_.stopped_requests;
  }
  ReleaseResident(seq_id, /*preempted=*/false);
  tick_emissions_.push_back(Emission{seq_id, -1, reason});
}

Status ShardScheduler::Abort(std::size_t stream_index) {
  const auto slot = slot_of_stream_.find(stream_index);
  if (slot == slot_of_stream_.end()) {
    return NotFound("stream " + std::to_string(stream_index) +
                    " is not live on this shard");
  }
  const std::size_t seq_id = slot->second;
  Sequence& seq = seqs_[seq_id];
  if (seq.state == SeqState::kCancelled) {
    return FailedPrecondition("stream " + std::to_string(stream_index) +
                              " already finished");
  }
  if (seq.state == SeqState::kDone) {
    // Finished internally -- but if the finish emission has not been
    // delivered yet, the client has observed nothing final and the
    // cancel wins the race: go quiet as cancelled instead. Capacity was
    // already released by FinishSequence; only the bookkeeping reverts.
    const auto is_finish = [seq_id](const Emission& e) {
      return e.seq_id == seq_id && e.token < 0;
    };
    if (std::find_if(pending_emissions_.begin(), pending_emissions_.end(),
                     is_finish) == pending_emissions_.end()) {
      return FailedPrecondition("stream " + std::to_string(stream_index) +
                                " already finished");
    }
    if (seq.outcome.finish_reason == FinishReason::kStop) {
      report_.stop_saved_tokens -= seq.remaining_decode();
      --report_.stopped_requests;
    }
  } else {
    // Tokens still owed (remaining prefill/recompute plus unused decode
    // budget) leave the backlog; capacity frees immediately.
    AddOutstanding(seq.request->tier,
                   -(seq.remaining_prefill() + seq.remaining_decode()));
    if (seq.state == SeqState::kWaiting) {
      waiting_.erase(std::find(waiting_.begin(), waiting_.end(), seq_id));
      if (!seq.ever_admitted) {
        queued_demand_blocks_ -= BlocksForRequest(*seq.request);
      }
    } else {
      ReleaseResident(seq_id, /*preempted=*/false);
    }
  }

  // A cancelled stream must never emit again: drop everything committed
  // but not yet delivered, from both the outcome and the event queue.
  const auto scrub = [seq_id](const Emission& e) { return e.seq_id == seq_id; };
  tick_emissions_.erase(
      std::remove_if(tick_emissions_.begin(), tick_emissions_.end(), scrub),
      tick_emissions_.end());
  pending_emissions_.erase(std::remove_if(pending_emissions_.begin(),
                                          pending_emissions_.end(), scrub),
                           pending_emissions_.end());
  seq.outcome.generated.resize(static_cast<std::size_t>(seq.delivered));

  const double now_s = u280_.cycles_to_seconds(engine_.now());
  seq.state = SeqState::kCancelled;
  seq.pending_token = -1;
  seq.outcome.finish_reason = FinishReason::kCancelled;
  seq.outcome.completion_seconds = now_s;
  if (seq.outcome.first_token_seconds == 0.0) {
    seq.outcome.first_token_seconds = now_s;
  }
  if (!seq.ever_admitted) seq.outcome.admission_seconds = now_s;
  ++report_.cancelled_requests;
  TraceInstant(obs::RequestEventKind::kCancel, seq_id, seq.delivered);
  if (hooks_.on_finish) {
    // Copy: the hook may reentrantly Submit and grow seqs_.
    const RequestOutcome outcome = seq.outcome;
    hooks_.on_finish(stream_index, FinishReason::kCancelled, outcome, now_s);
  }
  return Status::Ok();
}

void ShardScheduler::DeliverEmissions() {
  // Pop one entry at a time: a hook may Abort another stream (scrubbing
  // its not-yet-delivered entries out from under us) or Submit (growing
  // seqs_, so no Sequence reference may be held across a hook call).
  const double t = u280_.cycles_to_seconds(engine_.now());
  while (!pending_emissions_.empty()) {
    const Emission e = pending_emissions_.front();
    pending_emissions_.pop_front();
    const std::size_t stream = seqs_[e.seq_id].stream_index;
    if (e.token >= 0) {
      ++seqs_[e.seq_id].delivered;
      if (hooks_.on_token) hooks_.on_token(stream, e.token, t);
    } else {
      // The finish's delivery time is the request's observable end;
      // telemetry records the terminal event and the latency samples
      // here so exactly one terminal event exists per stream (a cancel
      // that won the race scrubbed this emission and recorded kCancel).
      const RequestOutcome& oc = seqs_[e.seq_id].outcome;
      if (telemetry_.tracing()) {
        obs::RequestEvent ev =
            MakeEvent(obs::RequestEventKind::kFinish,
                      static_cast<std::int64_t>(stream), tick_index_, t, t);
        ev.tokens = static_cast<std::int64_t>(oc.generated.size());
        ev.detail = FinishReasonName(e.finish);
        telemetry_.Record(std::move(ev));
      }
      if (telemetry_.metrics()) {
        telemetry_.ObserveFinish(oc.time_to_first_token(),
                                 oc.time_per_output_token(),
                                 !oc.generated.empty());
      }
      if (hooks_.on_finish) {
        const RequestOutcome outcome = seqs_[e.seq_id].outcome;
        hooks_.on_finish(stream, e.finish, outcome, t);
      }
    }
  }
}

void ShardScheduler::TraceInstant(obs::RequestEventKind kind,
                                  std::size_t seq_id, std::int64_t tokens,
                                  std::int64_t bytes) {
  if (!telemetry_.tracing()) return;
  const double now_s = u280_.cycles_to_seconds(engine_.now());
  obs::RequestEvent ev =
      MakeEvent(kind, static_cast<std::int64_t>(seqs_[seq_id].stream_index),
                tick_index_, now_s, now_s);
  ev.tokens = tokens;
  ev.bytes = bytes;
  telemetry_.Record(std::move(ev));
}

void ShardScheduler::ReleaseResident(std::size_t seq_id, bool preempted) {
  if (Status st = pool_.Release(seq_id, preempted); !st.ok()) error_ = st;
  residents_.erase(std::find(residents_.begin(), residents_.end(), seq_id));
}

void ShardScheduler::RunTick() {
  tick_pending_ = false;
  if (!error_.ok()) return;
  ++tick_index_;
  kv_blocked_ = false;
  tick_cost_.BeginGroup();
  TickWork work;
  work.start_s = u280_.cycles_to_seconds(engine_.now());
  work.spec_draft_at_open = report_.spec_draft_tokens;
  work.spec_accept_at_open = report_.spec_accepted_tokens;
  AdmitAndPlanPrefill(work, PlanDecode(work));
  if (!error_.ok()) return;
  // Commit timestamps are applied once the tick length is known;
  // completions release capacity immediately so later problems in the
  // same tick may use it.
  for (std::size_t i = 0; i < work.problems.size();) {
    i = RunSegment(work, i);
    if (!error_.ok()) return;
  }
  CloseTick(work);
}

ForwardLane& ShardScheduler::Lane(std::size_t t) {
  if (lanes_.size() <= t) lanes_.resize(t + 1);
  return lanes_[t];
}

void ShardScheduler::StepChunk(Chunk& chunk) {
  Problem& problem = *chunk.problem;
  const std::size_t seq_id = problem.seq_id;
  Sequence& seq = seqs_[seq_id];
  // Prefill tokens are known ahead, so a prefill chunk is one forward; a
  // caught-up row feeds the pending token its predecessor sampled, so it
  // is a chunk of its own. (A decode sequence is always caught up:
  // cursor == fed.size().)
  chunk.caught_up = seq.remaining_prefill() == 0;
  chunk.pos = seq.cursor;
  const std::int32_t want =
      chunk.caught_up
          ? 1
          : std::min(problem.rows - problem.fed, seq.remaining_prefill());
  for (; chunk.rows < want; ++chunk.rows) {
    const std::int32_t pos = chunk.pos + chunk.rows;
    const std::int32_t token = chunk.caught_up
                                   ? seq.pending_token
                                   : seq.fed[static_cast<std::size_t>(pos)];
    // A dry pool with no victims cuts the chunk short: the rest runs on a
    // later tick.
    if (!EnsureKvToken(seq_id, token)) break;
    if (problem.fed + chunk.rows == 0 && chunk.caught_up &&
        config_.speculative.draft_tokens > 0) {
      // Draft phase: propose k tokens, roll their KV back, and let the
      // deterministic acceptance model decide how long a run this verify
      // group commits. Committed tokens are always the target model's own
      // sampled tokens -- speculation collapses latency, never changes
      // stream content -- so spec on/off streams are identical.
      problem.rows += DraftAndAccept(seq_id, &problem.drafted);
      if (!error_.ok()) return;
    }
    problem.last_row_seconds = exec_->TimingAt(pos).seconds;
    tick_cost_.AddProblem(problem.last_row_seconds);
  }
  if (chunk.rows == 0) return;
  // Only a row whose logits are sampled runs the classifier, and only a
  // chunk's last row can be one.
  chunk.samples = seq.next_row_samples(chunk.rows - 1);
  chunk.pages = pool_.Pages(seq_id);
}

std::size_t ShardScheduler::RunSegment(TickWork& work, std::size_t begin) {
  // Phase one, in problem order: each member's chunk, KV steps and price.
  // The first member runs after every earlier commit, exactly as a
  // member-by-member run would. A prefill chunk or a verify row runs
  // alone; a later decode row joins only while its append is local,
  // which commutes with every earlier member's commit.
  segment_.clear();
  Problem* alone = nullptr;
  std::size_t end = begin;
  for (; end < work.problems.size() && alone == nullptr; ++end) {
    Problem& problem = work.problems[end];
    if (seqs_[problem.seq_id].state != problem.state) continue;  // preempted
    const bool decode_row = problem.state == SeqState::kDecode &&
                            config_.speculative.draft_tokens == 0;
    if (!segment_.empty() &&
        (!decode_row || !pool_.AppendIsLocal(problem.seq_id))) {
      break;
    }
    if (!decode_row) alone = &problem;
    Chunk chunk;
    chunk.problem = &problem;
    StepChunk(chunk);
    if (!error_.ok()) return end;
    if (chunk.rows > 0) segment_.push_back(chunk);
  }
  const std::size_t n = segment_.size();

  // Phase two: the forwards and samples, lane t taking members t, t + T,
  // ... A forward whose matmuls already split over the pool keeps it
  // busy alone, so its segment runs on one lane, on this thread.
  const std::size_t lanes =
      n < 2 || exec_->pooled()
          ? 1
          : std::min<std::size_t>(n, ThreadPool::Global().num_threads());
  Lane(lanes - 1);
  const auto run_lane = [&](std::size_t t) {
    ForwardLane& lane = lanes_[t];
    for (std::size_t m = t; m < n; m += lanes) {
      Chunk& chunk = segment_[m];
      Sequence& seq = seqs_[chunk.problem->seq_id];
      const auto tokens =
          chunk.caught_up
              ? std::span<const std::int32_t>(&seq.pending_token, 1)
              : std::span<const std::int32_t>(seq.fed).subspan(
                    static_cast<std::size_t>(chunk.pos),
                    static_cast<std::size_t>(chunk.rows));
      const auto logits = exec_->Compute(lane.activations, tokens, chunk.pos,
                                         chunk.pages, chunk.samples);
      if (!logits.ok()) {
        chunk.status = logits.status();
        continue;
      }
      // A caught-up row's commit feeds its pending token before the drawn
      // one becomes pending.
      if (chunk.samples) {
        chunk.sampled = SampleToken(seq, *logits,
                                    seq.fed.size() + (chunk.caught_up ? 1 : 0),
                                    lane.logits);
      }
    }
  };
  if (lanes == 1) {
    run_lane(0);
  } else {
    ThreadPool::Global().ParallelRun(lanes, run_lane);
  }

  // Phase three, in problem order: the commits.
  bool open = false;  // the last commit left its problem open
  for (Chunk& chunk : segment_) {
    if (!chunk.status.ok()) {
      error_ = chunk.status;
      return end;
    }
    report_.executor_forwards += chunk.rows;
    if (chunk.samples) ++report_.logit_forwards;
    for (std::int32_t k = 0; k < chunk.rows; ++k) {
      open = CommitRow(work, *chunk.problem, chunk.caught_up,
                       k + 1 == chunk.rows ? chunk.sampled : -1);
      if (!open) break;
    }
  }
  if (alone == nullptr || alone->state != SeqState::kDecode) return end;
  // A verify group with accepted rows left re-enters as the next segment.
  if (open && alone->fed < alone->rows) return end - 1;
  if (alone->drafted == 0) return end;
  // The group closes. It launched 1 + drafted rows; rows past the
  // committed run are wasted work the packed launch still priced (each at
  // the last committed row's cost), and the draft model's own k rows ride
  // along at kDraftCostRatio.
  const std::int32_t wasted = 1 + alone->drafted - alone->fed;
  for (std::int32_t w = 0; w < wasted; ++w) {
    tick_cost_.AddProblem(alone->last_row_seconds);
  }
  tick_cost_.AddDraftRows(alone->drafted, alone->last_row_seconds,
                          kDraftCostRatio);
  report_.spec_wasted_tokens += wasted;
  report_.spec_accepted_tokens += alone->fed - 1;
  TraceInstant(obs::RequestEventKind::kVerifyAccept, alone->seq_id,
               alone->fed - 1);
  return end;
}

std::int32_t ShardScheduler::PlanDecode(TickWork& work) {
  // With speculation on, a verify group is 1 + k rows (the pending token
  // plus k drafts), so each planned sequence draws `width` budget units.
  // A uniform-tier batch is one group, so tiers on plan it exactly as
  // tiers off.
  const std::int32_t width = 1 + config_.speculative.draft_tokens;
  std::int32_t budget = config_.max_batch_tokens;
  std::vector<std::size_t> decoding;
  for (std::size_t r : residents_) {
    if (seqs_[r].state == SeqState::kDecode) decoding.push_back(r);
  }
  const auto group = [this](std::size_t id) {
    return config_.enable_tiers ? TierIndex(seqs_[id].request->tier) : 0;
  };
  if (static_cast<std::int64_t>(decoding.size()) * width > budget) {
    std::stable_sort(
        decoding.begin(), decoding.end(),
        [&group](std::size_t a, std::size_t b) { return group(a) < group(b); });
  }
  const auto plan = [&work](std::size_t seq_id) {
    work.problems.push_back(Problem{seq_id, SeqState::kDecode, 1, 0});
  };
  for (std::size_t begin = 0; begin < decoding.size() && budget > 0;) {
    std::size_t end = begin + 1;
    while (end < decoding.size() &&
           group(decoding[end]) == group(decoding[begin])) {
      ++end;
    }
    const std::size_t n = end - begin;
    if (static_cast<std::int64_t>(n) * width <= budget) {
      for (std::size_t k = begin; k < end; ++k) plan(decoding[k]);
      budget -= static_cast<std::int32_t>(n) * width;
      begin = end;
      continue;
    }
    const std::size_t slots = static_cast<std::size_t>(budget / width);
    const std::size_t start = rr_offset_ % n;
    for (std::size_t k = 0; k < slots; ++k) {
      plan(decoding[begin + (start + k) % n]);
    }
    rr_offset_ += slots;
    budget -= static_cast<std::int32_t>(slots) * width;
    break;
  }
  return budget;
}

void ShardScheduler::AdmitAndPlanPrefill(TickWork& work,
                                         std::int32_t budget) {
  std::int32_t prefill_budget =
      config_.policy == BatchPolicy::kDecodePriority
          ? std::min(budget, kDecodePriorityPrefillTokens)
          : budget;
  const auto plan = [&](std::size_t seq_id) {
    const std::int32_t chunk =
        std::min(seqs_[seq_id].remaining_prefill(), prefill_budget);
    work.problems.push_back(Problem{seq_id, SeqState::kPrefill, chunk, 0});
    prefill_budget -= chunk;
  };
  // Resident partial prefills continue first.
  for (std::size_t r : residents_) {
    if (prefill_budget <= 0) break;
    if (seqs_[r].state == SeqState::kPrefill &&
        seqs_[r].remaining_prefill() > 0) {
      plan(r);
    }
  }
  if (prefill_budget <= 0) return;
  // Admissions within one tick reserve against each other: a block the
  // first admission will consume is not offered to the second.
  std::int64_t planned_blocks = 0;
  for (std::size_t cand : AdmissionCandidates()) {
    if (prefill_budget <= 0) break;
    if (static_cast<std::int32_t>(residents_.size()) >=
        config_.max_batch_seqs) {
      break;
    }
    Sequence& seq = seqs_[cand];
    const std::int64_t need = static_cast<std::int64_t>(seq.fed.size()) + 1;
    // Cached blocks already held by a live resident cost no free
    // capacity to map, so prefix-heavy workloads admit more residents
    // than the raw block count suggests (the residency win). A match
    // that ends mid-block is the exception: the write into that shared
    // tail must copy it, so one block stays reserved for the
    // copy-on-write.
    const std::int64_t cache_cap = static_cast<std::int64_t>(seq.fed.size()) -
                                   (seq.pending_token >= 0 ? 0 : 1);
    const PrefixMatch match = pool_.MatchCachedPrefix(seq.fed, cache_cap);
    std::int64_t discount = match.live_shared_blocks;
    if (discount > 0 &&
        match.matched_tokens %
                static_cast<std::int64_t>(config_.block_size_tokens) !=
            0) {
      --discount;
    }
    const std::int64_t need_blocks = pool_.BlocksForTokens(need) - discount;
    if (need_blocks + planned_blocks > pool_.free_blocks()) {
      kv_blocked_ = true;
      // Head-of-line blocking for FCFS-family policies; SPF (which
      // reorders anyway) may skip past an oversized head.
      if (config_.policy != BatchPolicy::kShortestPromptFirst) break;
      continue;
    }
    planned_blocks += need_blocks;
    Status st = pool_.Register(cand);
    assert(st.ok());
    (void)st;
    waiting_.erase(std::find(waiting_.begin(), waiting_.end(), cand));
    seq.state = SeqState::kPrefill;
    seq.admission_order = next_admission_++;
    residents_.push_back(cand);
    if (!seq.ever_admitted) {
      seq.ever_admitted = true;
      seq.outcome.admission_seconds = work.start_s;
      // No longer queued demand: its blocks now come out of the pool.
      queued_demand_blocks_ -= BlocksForRequest(*seq.request);
      if (telemetry_.tracing()) {
        telemetry_.Record(MakeEvent(
            obs::RequestEventKind::kQueueWait,
            static_cast<std::int64_t>(seq.stream_index), tick_index_,
            seq.outcome.arrival_seconds, work.start_s));
      }
    }
    if (seq.adopted) {
      // First local admission of an adopted handoff: land the shipped
      // pages at zero simulated compute and join the decode set next
      // tick. A pool that runs dry mid-landing leaves the tail to
      // prefill as ordinary work later.
      queued_demand_blocks_ -= BlocksForRequest(*seq.request);
      const bool landed = LandHandoff(cand);
      if (!error_.ok()) return;
      work.restored_tokens += seq.cursor;
      if (landed) seq.state = SeqState::kDecode;
      continue;
    }
    const std::int64_t restored = RestoreCachedPrefix(cand);
    if (restored < 0) return;
    work.restored_tokens += restored;
    if (seq.remaining_prefill() == 0) {
      // Full cache restore (a readmission whose every fed token was
      // still cached): nothing left to prefill, so it joins the decode
      // set next tick and consumes no prefill budget now.
      seq.state = SeqState::kDecode;
      continue;
    }
    plan(cand);
  }
}

bool ShardScheduler::CommitRow(TickWork& work, Problem& problem,
                               bool caught_up, std::int32_t sampled) {
  const std::size_t seq_id = problem.seq_id;
  Sequence& seq = seqs_[seq_id];
  if (caught_up) {
    const std::int32_t token = seq.pending_token;
    seq.fed.push_back(token);
    seq.outcome.generated.push_back(token);
    tick_emissions_.push_back(Emission{seq_id, token, FinishReason::kNone});
    seq.pending_token = -1;
  }
  ++seq.cursor;
  AddOutstanding(seq.request->tier, -1);  // one less token owed
  // A commit always extends `fed`, so only prefill can recompute.
  if (seq.cursor <= seq.high_water) {
    ++report_.recomputed_tokens;  // swap-in recompute pass
  } else {
    seq.high_water = seq.cursor;
    ++report_.total_tokens;
  }
  ++problem.fed;
  if (seq.remaining_prefill() > 0) return true;
  if (seq.remaining_decode() == 0) {
    FinishSequence(seq_id, FinishReason::kLength);
    return false;
  }
  assert((sampled >= 0) == (seq.pending_token < 0));
  if (sampled >= 0) {
    // Fresh logits with nothing pending: the sampled token is pending
    // now, and the next row (or tick) commits it.
    seq.pending_token = sampled;
    if (seq.outcome.first_token_seconds == 0.0) {
      work.ttft_marks.push_back(seq_id);
    }
    if (ShouldStop(seq)) {
      // A stop right at the end of prefill finishes with an empty
      // generation, never entering decode.
      FinishSequence(seq_id, FinishReason::kStop);
      return false;
    }
  }
  if (seq.state == SeqState::kPrefill) {
    seq.state = SeqState::kDecode;
    if (role_ == ShardRole::kPrefill && hooks_.on_handoff) {
      // Prefill-role shard: ship the finished KV to a decode shard at
      // tick close (after TTFT is stamped). A mid-tick preemption
      // revokes the plan -- the KV is gone, so it recomputes and hands
      // off on a later tick.
      work.handoffs.push_back(seq_id);
    }
    return false;
  }
  return true;
}

void ShardScheduler::CloseTick(const TickWork& work) {
  std::int64_t executed_tokens = 0;
  std::int64_t decode_tokens = 0;
  std::int64_t width = 0;  // decode rows plus prefill sequences
  for (const Problem& p : work.problems) {
    executed_tokens += p.fed;
    if (p.state == SeqState::kDecode) {
      decode_tokens += p.fed;
      width += p.fed;
    } else if (p.fed > 0) {
      ++width;
    }
  }
  if (executed_tokens == 0 && work.restored_tokens == 0) {
    // Nothing runnable (e.g. every planned item was deferred). Progress
    // requires an external event; arrivals restart the tick chain.
    if (!residents_.empty() || !waiting_.empty()) {
      error_ = Internal("scheduler tick made no progress with " +
                        std::to_string(residents_.size()) + " residents and " +
                        std::to_string(waiting_.size()) + " waiting");
    }
    return;
  }

  const double tick_seconds = tick_cost_.group_seconds();
  const std::optional<sim::Cycles> tick_span =
      u280_.seconds_to_cycles(tick_seconds);
  if (!tick_span) {
    error_ = Internal("tick time is past the simulated clock's range");
    return;
  }
  const sim::Cycles tick_cycles = std::max<sim::Cycles>(1, *tick_span);
  const sim::Cycles end_cycles = engine_.now() + tick_cycles;
  const double end_s = u280_.cycles_to_seconds(end_cycles);
  last_tick_end_cycles_ = std::max(last_tick_end_cycles_, end_cycles);
  busy_cycles_ += tick_cycles;

  for (const Problem& p : work.problems) {
    if (p.state == SeqState::kDecode && p.fed > 0) {
      seqs_[p.seq_id].outcome.completion_seconds = end_s;
    }
  }
  for (std::size_t seq_id : work.ttft_marks) {
    if (seqs_[seq_id].outcome.first_token_seconds == 0.0) {
      seqs_[seq_id].outcome.first_token_seconds = end_s;
      if (telemetry_.tracing()) {
        telemetry_.Record(MakeEvent(
            obs::RequestEventKind::kFirstToken,
            static_cast<std::int64_t>(seqs_[seq_id].stream_index),
            tick_index_, end_s, end_s));
      }
    }
  }
  for (const Emission& e : tick_emissions_) {
    // A stop at the end of prefill finishes with no decode commit; its
    // completion is this tick's end like any other finisher's.
    if (e.token < 0 && seqs_[e.seq_id].outcome.completion_seconds == 0.0) {
      seqs_[e.seq_id].outcome.completion_seconds = end_s;
    }
  }
  // Ship prefill-complete sequences after their TTFT stamps are final;
  // the KV pages are extractable once the tick's work is done.
  for (std::size_t seq_id : work.handoffs) {
    if (seqs_[seq_id].state != SeqState::kDecode) continue;  // preempted
    ExtractHandoff(seq_id, end_cycles);
  }

  ++report_.ticks;
  width_sum_ += width;
  // The telemetry trace is the only tick history: the tick and its
  // per-sequence work.
  if (telemetry_.tracing()) {
    obs::RequestEvent tick_ev = MakeEvent(obs::RequestEventKind::kTick, -1,
                                          tick_index_, work.start_s, end_s);
    tick_ev.tokens = executed_tokens;
    telemetry_.Record(std::move(tick_ev));
    for (const Problem& p : work.problems) {
      const auto stream =
          static_cast<std::int64_t>(seqs_[p.seq_id].stream_index);
      if (p.state == SeqState::kPrefill && p.fed > 0) {
        obs::RequestEvent ev =
            MakeEvent(obs::RequestEventKind::kPrefillChunk, stream,
                      tick_index_, work.start_s, end_s);
        ev.tokens = p.fed;
        telemetry_.Record(std::move(ev));
      }
      for (std::int32_t i = 0; p.state == SeqState::kDecode && i < p.fed;
           ++i) {
        obs::RequestEvent ev =
            MakeEvent(obs::RequestEventKind::kDecodeToken, stream,
                      tick_index_, work.start_s, end_s);
        ev.tokens = 1;  // one event per committed row
        telemetry_.Record(std::move(ev));
      }
    }
  }
  if (telemetry_.metrics()) {
    obs::ShardTickSample sample;
    sample.end_seconds = end_s;
    sample.tick_seconds = tick_seconds;
    sample.decode_tokens = decode_tokens;
    sample.prefill_tokens = executed_tokens - decode_tokens;
    sample.queue_depth = num_waiting();
    sample.running_seqs = num_residents();
    sample.kv_blocks_in_use = pool_.used_blocks();
    sample.kv_blocks_evictable = pool_.evictable_blocks();
    const KvPoolStats& ps = pool_.stats();
    sample.cum_cache_hit_tokens = ps.prefix_hit_tokens;
    sample.cum_cache_lookup_tokens = ps.prefix_lookup_tokens;
    sample.cum_dma_bytes = ps.dma_bytes_moved;
    sample.cum_preemptions = ps.preemption_releases;
    sample.spec_draft_tokens =
        report_.spec_draft_tokens - work.spec_draft_at_open;
    sample.spec_accepted_tokens =
        report_.spec_accepted_tokens - work.spec_accept_at_open;
    // The tick event runs at its *start* cycles, so snapshotting the
    // registry here would interleave out of timestamp order with other
    // cards' overlapping ticks. Defer the snapshot to an event at the
    // tick's end: the event queue then serializes samples in time order.
    telemetry_.OnTickEnd(sample);
    engine_.ScheduleAt(end_cycles,
                       [this, end_s] { telemetry_.SampleNow(end_s); });
  }

  // Stream this tick's commits at its end time, ahead of the next tick
  // (the delivery event is scheduled first, so FIFO runs it first):
  // callbacks observe a settled shard and may Submit/Cancel reentrantly.
  if (!tick_emissions_.empty()) {
    pending_emissions_.insert(pending_emissions_.end(),
                              tick_emissions_.begin(), tick_emissions_.end());
    tick_emissions_.clear();
    engine_.ScheduleAt(end_cycles, [this] { DeliverEmissions(); });
  }

  if (!residents_.empty() || !waiting_.empty()) ScheduleTick(end_cycles);

  // The rebalance hook runs last, with this tick's state fully settled:
  // the cluster may steal queued requests from us or submit elsewhere.
  if (kv_blocked_ && hooks_.on_kv_pressure) hooks_.on_kv_pressure();
}

}  // namespace speedllm::serving

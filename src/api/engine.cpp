#include "api/engine.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "obs/export.hpp"
#include "serving/shard.hpp"

namespace speedllm::api {

namespace {

using serving::FinishReason;
using serving::KvHandoff;
using serving::PlacementPolicy;
using serving::RequestOutcome;
using serving::ServingRequest;
using serving::ShardRole;
using serving::ShardScheduler;

/// Share of AdmissionConfig::burst_tokens that must survive a request's
/// draw for its tier to be admitted, indexed by TierIndex. Interactive's
/// 0 floor sheds it only when the bucket is dry; best-effort's high floor
/// sheds it first as load approaches saturation.
constexpr std::array<double, serving::kNumTiers> kTierReserveFraction = {
    0.0, 0.2, 0.5};

/// Cluster-level event skeleton (card -1 = router; instants only).
obs::RequestEvent RouterEvent(obs::RequestEventKind kind, std::int64_t stream,
                              std::int32_t card, double t_seconds) {
  obs::RequestEvent ev;
  ev.kind = kind;
  ev.stream = stream;
  ev.card = card;
  ev.start_seconds = t_seconds;
  ev.end_seconds = t_seconds;
  return ev;
}

/// Outcome of a request no shard ever served, ending with `reason` at
/// `now_s`. The arrival is clamped to the end: a request cancelled
/// before its scheduled arrival would otherwise put a negative latency
/// into the merged percentiles.
RequestOutcome UnservedOutcome(const ServingRequest& request,
                               FinishReason reason, double now_s) {
  RequestOutcome outcome;
  outcome.arrival_seconds = std::min(request.arrival_seconds, now_s);
  outcome.prompt_tokens = static_cast<std::int32_t>(request.prompt.size());
  outcome.tier = request.tier;
  outcome.finish_reason = reason;
  outcome.admission_seconds = now_s;
  outcome.first_token_seconds = now_s;
  outcome.completion_seconds = now_s;
  return outcome;
}

/// Card-list and config checks that need no model state.
Status ValidateSetup(const hw::MultiCardConfig& cards,
                     const EngineConfig& config) {
  SPEEDLLM_RETURN_IF_ERROR(cards.Validate());
  SPEEDLLM_RETURN_IF_ERROR(
      serving::ValidateClusterRoles(config.shard_roles, cards.num_cards()));
  // Out-of-range knobs are clamped by NormalizeSchedulerConfig; only
  // non-finite values are unrecoverable. The admission bucket has no
  // clamp: a NaN rate would refill it to full at every arrival, a NaN or
  // infinite burst would admit everything, and a negative rate drains it.
  const serving::SpeculativeConfig& spec = config.scheduler.speculative;
  if (spec.draft_tokens > 0 && !std::isfinite(spec.acceptance_rate)) {
    return InvalidArgument("speculative acceptance_rate must be finite");
  }
  const serving::AdmissionConfig& adm = config.scheduler.admission;
  if (!(std::isfinite(adm.rate_tokens_per_second) &&
        adm.rate_tokens_per_second >= 0.0 &&
        std::isfinite(adm.burst_tokens) && adm.burst_tokens >= 0.0)) {
    return InvalidArgument(
        "admission rate_tokens_per_second and burst_tokens must be finite "
        "and non-negative");
  }
  return llama::ValidateSamplerConfig(config.sampler, "EngineConfig::sampler");
}

}  // namespace

Engine::Engine(const accel::Program& program, const llama::Weights& weights,
               const hw::U280Config& u280, EngineConfig config)
    : Engine(program, weights,
             hw::MultiCardConfig::Homogeneous(u280, config.num_cards),
             std::move(config)) {}

Engine::Engine(const accel::Program& program, const llama::Weights& weights,
               hw::MultiCardConfig cards, EngineConfig config)
    : program_(program),
      cards_(std::move(cards)),
      config_(std::move(config)) {
  setup_ = ValidateSetup(cards_, config_);
  if (!setup_.ok()) return;
  auto image = accel::WeightImage::Build(program_, weights);
  if (!image.ok()) {
    setup_ = image.status();
    return;
  }
  image_.emplace(std::move(image).value());
  config_.scheduler = serving::NormalizeSchedulerConfig(config_.scheduler);
  clock_ = cards_.cards.front();
  if (config_.telemetry.enabled()) {
    telemetry_ = std::make_unique<obs::Telemetry>(config_.telemetry);
  }
  // Every shard's local DMA and every cross-card KV move queue on one
  // shared station model.
  interconnect_ = std::make_unique<serving::Interconnect>(cards_);
  // One host row arena for every card's KV pool: its cache budget is
  // engine-wide.
  kv_arena_ = std::make_unique<serving::KvRowArena>(
      accel::KvBlockLayout{program_.model.n_layers, program_.model.kv_dim(),
                           config_.scheduler.block_size_tokens}
          .block_floats());
  const int n = cards_.num_cards();
  shards_.reserve(static_cast<std::size_t>(n));
  min_pool_blocks_ = std::numeric_limits<std::int64_t>::max();
  for (int c = 0; c < n; ++c) {
    const std::size_t ci = static_cast<std::size_t>(c);
    ShardRole role = ShardRole::kUnified;
    if (!config_.shard_roles.empty()) role = config_.shard_roles[ci];
    if (role != ShardRole::kDecode) placeable_.push_back(ci);
    shards_.push_back(std::make_unique<ShardScheduler>(
        program_, *image_, cards_.cards[ci], config_.scheduler, role, engine_,
        *kv_arena_, forward_lanes_));
    ShardScheduler& shard = *shards_.back();
    // Each card carves its pool from its own HBM capacity.
    min_pool_blocks_ = std::min(min_pool_blocks_, shard.pool().num_blocks());
    if (telemetry_ != nullptr) {
      shard.set_telemetry(telemetry_->MakeShardChannel(c));
    }
    shard.set_interconnect(interconnect_.get(), c);
    // The shard calls the engine directly: its tokens and finishes go to
    // the stream's callbacks, KV pressure triggers a rebalance, and a
    // prefill card's finished prompts ship as handoffs.
    shard.set_hooks(
        {[this](std::size_t index, std::int32_t token, double t) {
           const StreamCallbacks& callbacks = streams_[index].callbacks;
           if (callbacks.on_token) {
             callbacks.on_token(RequestHandle{index + 1}, token, t);
           }
         },
         [this](std::size_t index, FinishReason reason,
                const RequestOutcome& outcome, double) {
           ObserveSloMetrics(outcome, reason);
           FinishStream(index, reason, outcome);
         },
         [this, ci] { Rebalance(ci); },
         [this, c](KvHandoff handoff, sim::Cycles ready) {
           HandleHandoff(std::move(handoff), ready, c);
         }});
  }
  handoff_pending_tokens_.assign(shards_.size(), 0);
  // Admission control starts from a full bucket; the first refill delta
  // is measured from t = 0.
  bucket_tokens_ = config_.scheduler.admission.burst_tokens;
  if (telemetry_ == nullptr || telemetry_->metrics() == nullptr) return;
  slo_metrics_ = true;
  obs::MetricsRegistry& reg = *telemetry_->metrics();
  for (int t = 0; t < serving::kNumTiers; ++t) {
    const std::size_t ti = static_cast<std::size_t>(t);
    const std::string tier_name{
        serving::RequestTierName(static_cast<serving::RequestTier>(t))};
    goodput_ids_[ti] = reg.AddCounter(
        "speedllm_goodput_tokens_total",
        "Generated tokens of SLO-attaining finished requests", "tokens",
        {{"tier", tier_name}});
    slo_attained_ids_[ti] = reg.AddCounter(
        "speedllm_slo_requests_total", "Finished requests by SLO attainment",
        "requests", {{"tier", tier_name}, {"slo", "attained"}});
    slo_missed_ids_[ti] = reg.AddCounter(
        "speedllm_slo_requests_total", "Finished requests by SLO attainment",
        "requests", {{"tier", tier_name}, {"slo", "missed"}});
    shed_ids_[ti] = reg.AddCounter(
        "speedllm_shed_requests_total",
        "Requests rejected by admission control", "requests",
        {{"tier", tier_name}});
  }
  if (n < 2) return;
  transfer_metrics_ = true;
  const std::size_t nc = static_cast<std::size_t>(n);
  link_metric_ids_.assign(nc * nc, 0);
  for (int s = 0; s < n; ++s) {
    for (int d = 0; d < n; ++d) {
      if (s == d) continue;
      link_metric_ids_[static_cast<std::size_t>(s) * nc +
                       static_cast<std::size_t>(d)] =
          reg.AddCounter(
              "speedllm_kv_transfer_bytes_total",
              "KV bytes shipped card-to-card over the interconnect", "bytes",
              {{"src", std::to_string(s)}, {"dst", std::to_string(d)}});
    }
  }
  remote_hit_metric_id_ = reg.AddCounter(
      "speedllm_remote_prefix_hits_total",
      "Admissions served by fetching a remote card's cached prefix",
      "requests", {});
}

Engine::~Engine() = default;

// ------------------------------------------------------------ submission

StatusOr<RequestHandle> Engine::Submit(ServingRequest request,
                                       StreamCallbacks callbacks) {
  if (!setup_.ok()) return setup_;
  if (harvested_) {
    return FailedPrecondition("engine already finished: Submit after Finish");
  }
  const std::size_t index = streams_.size();
  const std::string tag = "request " + std::to_string(index);
  // A request must fit the smallest card: placement and rebalancing may
  // use any card.
  SPEEDLLM_RETURN_IF_ERROR(serving::ValidateRequest(
      request, tag, program_.model, min_pool_blocks_,
      config_.scheduler.block_size_tokens));
  const std::optional<sim::Cycles> arrival =
      clock_.seconds_to_cycles(request.arrival_seconds);
  if (!arrival) {
    return OutOfRange(tag + ": arrival_seconds " +
                      std::to_string(request.arrival_seconds) +
                      " is past the simulated clock's range");
  }
  // A request submitted "now" (or with a stale arrival) joins the
  // timeline at the current simulated time; future arrivals wait. The
  // stored arrival is the cycle the simulation acts on, so the trace's
  // submit event and the outcome's arrival_seconds agree exactly.
  const sim::Cycles when = std::max(*arrival, engine_.now());
  request.arrival_seconds = clock_.cycles_to_seconds(when);
  streams_.push_back(Stream{std::move(request), std::move(callbacks)});
  if (telemetry_ != nullptr && telemetry_->trace() != nullptr) {
    const ServingRequest& r = streams_.back().request;
    obs::RequestEvent ev =
        RouterEvent(obs::RequestEventKind::kSubmit,
                    static_cast<std::int64_t>(index), -1,
                    clock_.cycles_to_seconds(when));
    ev.tokens = static_cast<std::int64_t>(r.prompt.size());
    // The tier label lets a trace consumer slice lifecycles by tier.
    ev.detail = serving::RequestTierName(r.tier);
    telemetry_->trace()->Record(std::move(ev));
  }
  engine_.ScheduleAt(when, [this, index] { Place(index); });
  return RequestHandle{index + 1};
}

Status Engine::Cancel(RequestHandle handle) {
  if (!setup_.ok()) return setup_;
  if (!handle.valid() || handle.id > streams_.size()) {
    return NotFound("unknown request handle");
  }
  const std::size_t index = static_cast<std::size_t>(handle.id - 1);
  Stream& stream = streams_[index];
  if (stream.finished) {
    return FailedPrecondition("stream " + std::to_string(index) +
                              " already finished");
  }
  if (auto hit = handoff_in_flight_.find(index);
      hit != handoff_in_flight_.end()) {
    // Prefill finished and the KV pages are mid-transfer: the prefill
    // shard already released the sequence and the decode shard has not
    // adopted it. Drop the handoff and finish the stream here with the
    // outcome it carried (TTFT was stamped on the prefill shard; no
    // token was ever emitted).
    KvHandoff handoff = std::move(hit->second);
    handoff_in_flight_.erase(hit);
    handoff_pending_tokens_[static_cast<std::size_t>(stream.card)] -=
        handoff.request->max_new_tokens -
        static_cast<std::int64_t>(handoff.outcome.generated.size());
    const double now_s = now_seconds();
    RequestOutcome outcome = std::move(handoff.outcome);
    outcome.finish_reason = FinishReason::kCancelled;
    outcome.completion_seconds = now_s;
    FinishUnplaced(index, std::move(outcome), stream.card, now_s);
    return Status::Ok();
  }
  if (!stream.placed) {
    // The arrival event has not run yet (or a prefix fetch is still in
    // flight): suppress it and synthesize the outcome here (no shard
    // ever saw this request).
    const double now_s = now_seconds();
    FinishUnplaced(
        index, UnservedOutcome(stream.request, FinishReason::kCancelled, now_s),
        -1, now_s);
    return Status::Ok();
  }
  // The shard's Abort fires the finish hook before returning.
  return shards_[static_cast<std::size_t>(stream.card)]->Abort(index);
}

// ------------------------------------------------------ driving the clock

void Engine::StepUntil(double t_seconds) {
  if (std::isnan(t_seconds) || t_seconds < now_seconds()) return;
  if (const std::optional<sim::Cycles> limit =
          clock_.seconds_to_cycles(t_seconds)) {
    engine_.RunUntil(*limit);
  } else {
    engine_.Run();
  }
}

void Engine::RunToCompletion() { engine_.Run(); }

double Engine::now_seconds() const {
  return setup_.ok() ? clock_.cycles_to_seconds(engine_.now()) : 0.0;
}

bool Engine::idle() const { return engine_.Idle(); }

// -------------------------------------------------------------- routing

void Engine::Place(std::size_t index) {
  Stream& stream = streams_[index];
  if (stream.cancelled) return;  // cancelled before arrival
  const double now_s = now_seconds();
  if (ShouldShed(stream.request, now_s)) {
    FinishUnplaced(index,
                   UnservedOutcome(stream.request, FinishReason::kShed, now_s),
                   -1, now_s);
    return;
  }
  const std::size_t card = PickCard(stream.request);
  stream.card = static_cast<std::int32_t>(card);
  if (telemetry_ != nullptr && telemetry_->trace() != nullptr) {
    obs::RequestEvent ev = RouterEvent(
        obs::RequestEventKind::kPlace, static_cast<std::int64_t>(index),
        static_cast<std::int32_t>(card), now_s);
    ev.detail = serving::PlacementPolicyName(config_.placement);
    telemetry_->trace()->Record(std::move(ev));
  }
  // Remote-prefix arbitration may defer the shard Submit to the fetch
  // transfer's end; the stream stays unplaced while the fetch is in
  // flight so a cancel takes the unplaced path and the deferred Submit
  // is skipped.
  if (MaybeFetchPrefix(index, card)) return;
  stream.placed = true;
  shards_[card]->Submit(stream.request, index, config_.sampler);
}

std::size_t Engine::PickCard(const ServingRequest& request) {
  // Arrivals only land on prefill-capable cards (everything but
  // kDecode): decode specialists receive work exclusively as KV
  // handoffs. In unified mode `placeable_` is every card.
  const std::vector<std::size_t>& cards = placeable_;
  switch (config_.placement) {
    case PlacementPolicy::kRoundRobin:
      return cards[rr_counter_++ % cards.size()];
    case PlacementPolicy::kLeastOutstandingTokens: {
      // Tier-aware when tiers are enabled: a card is scored by the work
      // this request would actually wait behind -- tokens owed at its
      // own priority or higher. Lower-tier work does not count against
      // a card, because the new arrival outranks it in admission,
      // decode funding, and preemption. With tiers off every request is
      // equal and this is the plain outstanding-token count.
      const auto load = [&](std::size_t c) {
        return config_.scheduler.enable_tiers
                   ? shards_[c]->outstanding_tokens_at_or_above(request.tier)
                   : shards_[c]->outstanding_tokens();
      };
      std::size_t best = cards.front();
      std::int64_t best_tokens = load(best);
      for (std::size_t k = 1; k < cards.size(); ++k) {
        const std::int64_t t = load(cards[k]);
        if (t < best_tokens) {
          best = cards[k];
          best_tokens = t;
        }
      }
      return best;
    }
    case PlacementPolicy::kBestFitFreeKv: {
      // Most projected headroom among the cards that can cover the
      // request's full footprint outright; when no card can, fall back
      // to the most headroom overall (the shard's preemption machinery
      // absorbs the pressure). Ties break toward the lowest card id.
      std::size_t best = cards.front();
      std::int64_t best_free = shards_[best]->projected_free_kv_blocks();
      std::size_t covering = shards_.size();
      std::int64_t covering_free = 0;
      for (std::size_t c : cards) {
        const std::int64_t f = shards_[c]->projected_free_kv_blocks();
        if (f > best_free) {
          best = c;
          best_free = f;
        }
        const std::int64_t need = shards_[c]->BlocksForRequest(request);
        if (f >= need && (covering == shards_.size() || f > covering_free)) {
          covering = c;
          covering_free = f;
        }
      }
      return covering != shards_.size() ? covering : best;
    }
    case PlacementPolicy::kPrefixAffinity: {
      // Longest cached prefix wins: the owning card serves the request's
      // shared blocks without re-prefilling them. Ties (typically "no
      // card has anything cached") break toward the most projected-free
      // blocks, then the lowest card id.
      std::size_t best = cards.front();
      std::int64_t best_tokens = -1;
      std::int64_t best_free = 0;
      for (std::size_t c : cards) {
        const std::int64_t cached =
            shards_[c]
                ->pool()
                .MatchCachedPrefix(
                    request.prompt,
                    static_cast<std::int64_t>(request.prompt.size()))
                .matched_tokens;
        const std::int64_t f = shards_[c]->projected_free_kv_blocks();
        if (cached > best_tokens ||
            (cached == best_tokens && f > best_free)) {
          best = c;
          best_tokens = cached;
          best_free = f;
        }
      }
      return best;
    }
  }
  return 0;
}

void Engine::Rebalance(std::size_t donor) {
  if (shards_.size() < 2) return;
  // Requests that exhausted their migration budget stay put; older
  // eligible queued requests behind them are still considered.
  const ShardScheduler::StreamPredicate eligible = [this](std::size_t index) {
    return streams_[index].migrations <
           static_cast<std::int32_t>(shards_.size()) - 1;
  };
  while (true) {
    auto queued = shards_[donor]->PeekNewestQueued(eligible);
    if (!queued) return;
    const auto [request, index] = *queued;
    const std::int64_t need = shards_[donor]->BlocksForRequest(*request);
    std::size_t target = donor;
    std::int64_t target_free = shards_[donor]->projected_free_kv_blocks();
    // Only prefill-capable cards can take a queued (never-prefilled)
    // request; decode shards relieve pressure via handoff adoption only.
    for (std::size_t c : placeable_) {
      if (c == donor) continue;
      const std::int64_t f = shards_[c]->projected_free_kv_blocks();
      if (f > target_free) {
        target = c;
        target_free = f;
      }
    }
    // Move only when the target is strictly better off AND can cover
    // the whole request; otherwise shuffling would not help anyone.
    if (target == donor || target_free < need) return;
    shards_[donor]->StealNewestQueued(eligible);
    Stream& stream = streams_[index];
    ++stream.migrations;
    ++rebalanced_;
    stream.card = static_cast<std::int32_t>(target);
    if (telemetry_ != nullptr && telemetry_->trace() != nullptr) {
      obs::RequestEvent ev = RouterEvent(
          obs::RequestEventKind::kMigrate, static_cast<std::int64_t>(index),
          static_cast<std::int32_t>(target), now_seconds());
      ev.detail = "from card " + std::to_string(donor);
      telemetry_->trace()->Record(std::move(ev));
    }
    shards_[target]->Submit(*request, index, config_.sampler);
  }
}

bool Engine::ShouldShed(const ServingRequest& request, double now_s) {
  const serving::AdmissionConfig& adm = config_.scheduler.admission;
  if (adm.burst_tokens <= 0.0) return false;
  // Refill by the simulated time elapsed since the last arrival, then
  // draw this request's full eventual footprint. The tier's reserve
  // floor must survive the draw: best-effort requests bounce while the
  // bucket can still absorb an interactive burst.
  bucket_tokens_ = std::min(
      adm.burst_tokens,
      bucket_tokens_ +
          (now_s - bucket_refill_seconds_) * adm.rate_tokens_per_second);
  bucket_refill_seconds_ = now_s;
  const double cost = static_cast<double>(request.prompt.size()) +
                      static_cast<double>(request.max_new_tokens);
  const double reserve =
      kTierReserveFraction[static_cast<std::size_t>(
          serving::TierIndex(request.tier))] *
      adm.burst_tokens;
  if (bucket_tokens_ - cost < reserve) return true;
  bucket_tokens_ -= cost;
  return false;
}

// ------------------------------------------------------------ finishing

void Engine::FinishStream(std::size_t index, FinishReason reason,
                          const RequestOutcome& outcome) {
  Stream& stream = streams_[index];
  stream.finished = true;
  stream.cancelled = reason == FinishReason::kCancelled;
  ++finished_requests_;
  // Release the finished stream's footprint (closures + prompt storage):
  // a long-lived engine must not grow with every request it ever served.
  // The on_finish closure moves to a local so it survives its own
  // invocation. Cancelled finishes fire synchronously -- possibly from
  // inside this stream's own on_token frame -- so only a delivered
  // (asynchronous) finish may destroy the on_token closure.
  auto on_finish = std::move(stream.callbacks.on_finish);
  stream.callbacks.on_finish = nullptr;
  if (reason != FinishReason::kCancelled) {
    stream.callbacks.on_token = nullptr;
  }
  stream.request.prompt.clear();
  stream.request.prompt.shrink_to_fit();
  stream.request.stop_tokens.clear();
  stream.request.stop_tokens.shrink_to_fit();
  if (on_finish) on_finish(RequestHandle{index + 1}, reason, outcome);
}

void Engine::FinishUnplaced(std::size_t index, RequestOutcome outcome,
                            std::int32_t card, double now_s) {
  const FinishReason reason = outcome.finish_reason;
  const bool shed = reason == FinishReason::kShed;
  const serving::RequestTier tier = streams_[index].request.tier;
  const auto [it, inserted] =
      unplaced_outcomes_.emplace(index, std::move(outcome));
  (void)inserted;
  if (telemetry_ != nullptr && telemetry_->trace() != nullptr) {
    obs::RequestEvent ev = RouterEvent(
        shed ? obs::RequestEventKind::kShed : obs::RequestEventKind::kCancel,
        static_cast<std::int64_t>(index), card, now_s);
    if (shed) ev.detail = serving::RequestTierName(tier);
    telemetry_->trace()->Record(std::move(ev));
  }
  if (slo_metrics_ && shed) {
    telemetry_->metrics()->Add(
        shed_ids_[static_cast<std::size_t>(serving::TierIndex(tier))], 1.0);
  }
  FinishStream(index, reason, it->second);
}

void Engine::ObserveSloMetrics(const RequestOutcome& outcome,
                               FinishReason reason) {
  if (!slo_metrics_) return;
  if (reason != FinishReason::kLength && reason != FinishReason::kStop) {
    return;
  }
  const std::size_t t =
      static_cast<std::size_t>(serving::TierIndex(outcome.tier));
  if (outcome.attains(config_.scheduler.tier_slo[t])) {
    telemetry_->metrics()->Add(slo_attained_ids_[t], 1.0);
    telemetry_->metrics()->Add(
        goodput_ids_[t], static_cast<double>(outcome.generated.size()));
  } else {
    telemetry_->metrics()->Add(slo_missed_ids_[t], 1.0);
  }
}

// ------------------------------------------------- handoffs and fetches

void Engine::RecordTransfer(std::size_t index, std::int32_t src,
                            std::int32_t dst, std::int64_t bytes,
                            sim::Cycles start, sim::Cycles end) {
  if (transfer_metrics_) {
    telemetry_->metrics()->Add(
        link_metric_ids_[static_cast<std::size_t>(src) * shards_.size() +
                         static_cast<std::size_t>(dst)],
        static_cast<double>(bytes));
  }
  if (telemetry_ == nullptr || telemetry_->trace() == nullptr) return;
  // Paired send/recv events share one window and byte count so
  // cross-card traffic shows up on BOTH cards' timelines and the
  // pairing is checkable (tools/check_telemetry.py).
  obs::RequestEvent send;
  send.kind = obs::RequestEventKind::kKvTransfer;
  send.stream = static_cast<std::int64_t>(index);
  send.card = src;
  send.start_seconds = clock_.cycles_to_seconds(start);
  send.end_seconds = clock_.cycles_to_seconds(end);
  send.bytes = bytes;
  send.detail = "send";
  obs::RequestEvent recv = send;
  recv.card = dst;
  recv.detail = "recv";
  telemetry_->trace()->Record(std::move(send));
  telemetry_->trace()->Record(std::move(recv));
}

void Engine::HandleHandoff(KvHandoff handoff, sim::Cycles ready,
                           std::int32_t src) {
  // Destination: the decode card owing the fewest outstanding tokens
  // (lowest card id on ties) -- deterministic, and it balances remaining
  // decode work far better than KV headroom does when pools are large
  // relative to the working set.
  std::int32_t dst = -1;
  std::int64_t dst_owed = std::numeric_limits<std::int64_t>::max();
  for (std::size_t c = 0; c < shards_.size(); ++c) {
    if (shards_[c]->role() != ShardRole::kDecode) continue;
    const std::int64_t owed =
        shards_[c]->outstanding_tokens() + handoff_pending_tokens_[c];
    if (owed < dst_owed) {
      dst = static_cast<std::int32_t>(c);
      dst_owed = owed;
    }
  }
  assert(dst >= 0 && "a prefill card implies a decode card "
                     "(ValidateClusterRoles)");
  const std::size_t index = handoff.stream_index;
  const std::int64_t bytes = handoff.kv_bytes;
  const std::int64_t owed_tokens =
      handoff.request->max_new_tokens -
      static_cast<std::int64_t>(handoff.outcome.generated.size());
  handoff_pending_tokens_[static_cast<std::size_t>(dst)] += owed_tokens;
  const hw::TransferTiming window = interconnect_->Transfer(
      ready, static_cast<std::uint64_t>(bytes), src, dst);
  streams_[index].card = dst;
  RecordTransfer(index, src, dst, bytes, window.start, window.end);
  ++handoff_transfers_;
  handoff_in_flight_.emplace(index, std::move(handoff));
  engine_.ScheduleAt(window.end, [this, dst, index, owed_tokens] {
    auto it = handoff_in_flight_.find(index);
    if (it == handoff_in_flight_.end()) return;  // cancelled mid-flight
    KvHandoff arrived = std::move(it->second);
    handoff_in_flight_.erase(it);
    handoff_pending_tokens_[static_cast<std::size_t>(dst)] -= owed_tokens;
    shards_[static_cast<std::size_t>(dst)]->AdoptHandoff(std::move(arrived));
  });
}

bool Engine::MaybeFetchPrefix(std::size_t index, std::size_t dst) {
  if (shards_.size() < 2) return false;
  const ShardScheduler& shard = *shards_[dst];
  const serving::KvPoolConfig& pool_config = shard.pool().config();
  if (!pool_config.enable_prefix_cache) return false;
  const ServingRequest& request = streams_[index].request;
  // Same cap as local admission: at least the last prompt token always
  // prefills, so its forward pass has KV to attend to.
  const std::int64_t cap =
      static_cast<std::int64_t>(request.prompt.size()) - 1;
  if (cap <= 0) return false;
  const std::int64_t local_tokens =
      shard.pool().MatchCachedPrefix(request.prompt, cap).matched_tokens;
  // The source is the lowest card id among those holding the longest
  // cached prefix, decode cards included.
  std::int32_t src = -1;
  serving::PrefixMatch remote;
  for (std::size_t c = 0; c < shards_.size(); ++c) {
    if (c == dst) continue;
    const serving::PrefixMatch match =
        shards_[c]->pool().MatchCachedPrefix(request.prompt, cap);
    if (match.matched_tokens > remote.matched_tokens) {
      remote = match;
      src = static_cast<std::int32_t>(c);
    }
  }
  if (remote.matched_tokens <= local_tokens) return false;
  const std::int64_t delta_tokens = remote.matched_tokens - local_tokens;
  const std::int64_t local_blocks =
      local_tokens / pool_config.block_size_tokens;
  const std::int64_t bytes =
      (remote.matched_blocks - local_blocks) *
      static_cast<std::int64_t>(pool_config.block_bytes());
  const sim::Cycles now = engine_.now();
  const sim::Cycles fetch_end = interconnect_->EstimateTransferEnd(
      now, static_cast<std::uint64_t>(bytes), src,
      static_cast<std::int32_t>(dst));
  const double fetch_seconds = clock_.cycles_to_seconds(fetch_end - now);
  const double recompute_seconds =
      shard.EstimateRecomputeSeconds(delta_tokens);
  const bool fetched = fetch_seconds <= recompute_seconds;
  fetch_log_.push_back({index, src, static_cast<std::int32_t>(dst),
                        delta_tokens, bytes, fetch_seconds, recompute_seconds,
                        fetched});
  if (!fetched) return false;
  const hw::TransferTiming window = interconnect_->Transfer(
      now, static_cast<std::uint64_t>(bytes), src,
      static_cast<std::int32_t>(dst));
  RecordTransfer(index, src, static_cast<std::int32_t>(dst), bytes,
                 window.start, window.end);
  if (transfer_metrics_) {
    telemetry_->metrics()->Add(remote_hit_metric_id_, 1.0);
  }
  ++remote_hits_;
  remote_hit_tokens_ += delta_tokens;
  const std::int64_t fetch_tokens = remote.matched_tokens;
  engine_.ScheduleAt(window.end, [this, index, dst, fetch_tokens,
                                  delta_tokens] {
    Stream& stream = streams_[index];
    if (stream.cancelled) return;  // cancelled while the fetch flew
    // The fetched pages land as ownerless cached blocks (no local DMA:
    // the interconnect already charged the write leg), then the normal
    // admission path maps them as a local cache hit, which recomputes
    // their host rows.
    shards_[dst]->mutable_pool().InstallCachedPrefix(stream.request.prompt,
                                                     fetch_tokens);
    if (telemetry_ != nullptr && telemetry_->trace() != nullptr) {
      obs::RequestEvent ev = RouterEvent(
          obs::RequestEventKind::kRemoteHit, static_cast<std::int64_t>(index),
          static_cast<std::int32_t>(dst), now_seconds());
      ev.tokens = delta_tokens;
      telemetry_->trace()->Record(std::move(ev));
    }
    stream.placed = true;
    shards_[dst]->Submit(stream.request, index, config_.sampler);
  });
  return true;
}

// -------------------------------------------------------- introspection

int Engine::num_cards() const { return static_cast<int>(shards_.size()); }

bool Engine::finished(RequestHandle handle) const {
  if (!handle.valid() || handle.id > streams_.size()) return false;
  return streams_[static_cast<std::size_t>(handle.id - 1)].finished;
}

const serving::KvBlockPool* Engine::pool(int card) const {
  if (card < 0 || static_cast<std::size_t>(card) >= shards_.size()) {
    return nullptr;
  }
  return &shards_[static_cast<std::size_t>(card)]->pool();
}

std::int64_t Engine::kv_blocks_in_use(int card) const {
  const serving::KvBlockPool* p = pool(card);
  return p == nullptr ? 0 : p->used_blocks();
}

std::int64_t Engine::kv_block_capacity(int card) const {
  const serving::KvBlockPool* p = pool(card);
  return p == nullptr ? 0 : p->num_blocks();
}

serving::KvPoolStats Engine::kv_pool_stats(int card) const {
  const serving::KvBlockPool* p = pool(card);
  return p == nullptr ? serving::KvPoolStats{} : p->stats();
}

std::uint64_t Engine::host_kv_bytes() const {
  return kv_arena_ == nullptr ? 0 : kv_arena_->bytes();
}

// ------------------------------------------------------ telemetry export

Status Engine::WriteTrace(const std::string& path,
                          const sim::TraceRecorder* kernel) const {
  if (telemetry_ == nullptr || telemetry_->trace() == nullptr) {
    return FailedPrecondition(
        "tracing disabled: set EngineConfig::telemetry.enable_tracing");
  }
  return obs::WriteChromeTrace(*telemetry_->trace(), path, kernel,
                               clock_.clock_mhz);
}

Status Engine::WriteMetricsJson(const std::string& path) const {
  if (telemetry_ == nullptr || telemetry_->metrics() == nullptr) {
    return FailedPrecondition(
        "metrics disabled: set EngineConfig::telemetry.enable_metrics");
  }
  return obs::WriteMetricsJson(*telemetry_->metrics(), path);
}

Status Engine::WriteMetricsPrometheus(const std::string& path) const {
  if (telemetry_ == nullptr || telemetry_->metrics() == nullptr) {
    return FailedPrecondition(
        "metrics disabled: set EngineConfig::telemetry.enable_metrics");
  }
  return obs::WritePrometheusText(*telemetry_->metrics(), path);
}

// -------------------------------------------------------------- harvest

StatusOr<serving::ClusterReport> Engine::Finish() {
  if (!setup_.ok()) return setup_;
  if (harvested_) {
    return FailedPrecondition("Finish() may only be called once");
  }
  if (!engine_.Idle()) {
    return FailedPrecondition(
        "engine still has pending work: RunToCompletion() before Finish()");
  }
  for (const auto& shard : shards_) {
    SPEEDLLM_RETURN_IF_ERROR(shard->Finalize());
  }
  harvested_ = true;

  serving::ClusterReport report;
  report.shard_of_request.reserve(streams_.size());
  for (const Stream& stream : streams_) {
    report.shard_of_request.push_back(stream.card);
  }
  report.rebalanced_requests = rebalanced_;
  report.kv_transfer_bytes = interconnect_->total_transfer_bytes();
  report.kv_handoffs = handoff_transfers_;
  report.remote_prefix_hits = remote_hits_;
  report.remote_prefix_hit_tokens = remote_hit_tokens_;
  for (std::size_t c = 0; c < shards_.size(); ++c) {
    const std::int32_t card = static_cast<std::int32_t>(c);
    report.card_transfer_out_bytes.push_back(
        interconnect_->transfer_out_bytes(card));
    report.card_transfer_in_bytes.push_back(
        interconnect_->transfer_in_bytes(card));
  }
  report.prefix_fetch_log = std::move(fetch_log_);
  serving::ServingReport& m = report.merged;
  m.outcomes.resize(streams_.size());
  std::vector<double> busy(shards_.size(), 0.0);
  std::vector<std::size_t> stream_indices;
  for (std::size_t c = 0; c < shards_.size(); ++c) {
    busy[c] = clock_.cycles_to_seconds(shards_[c]->busy_cycles());
    serving::ServingReport shard = shards_[c]->TakeReport(stream_indices);
    for (std::size_t k = 0; k < stream_indices.size(); ++k) {
      m.outcomes[stream_indices[k]] = shard.outcomes[k];
    }
    m.total_tokens += shard.total_tokens;
    m.recomputed_tokens += shard.recomputed_tokens;
    m.executor_forwards += shard.executor_forwards;
    m.logit_forwards += shard.logit_forwards;
    m.preemptions += shard.preemptions;
    m.stopped_requests += shard.stopped_requests;
    m.cancelled_requests += shard.cancelled_requests;
    m.stop_saved_tokens += shard.stop_saved_tokens;
    m.prefix_cache_queries += shard.prefix_cache_queries;
    m.prefix_cache_hits += shard.prefix_cache_hits;
    m.prefix_cache_hit_tokens += shard.prefix_cache_hit_tokens;
    m.prefix_cache_lookup_tokens += shard.prefix_cache_lookup_tokens;
    m.cow_copies += shard.cow_copies;
    m.cache_evictions += shard.cache_evictions;
    m.dma_bytes_moved += shard.dma_bytes_moved;
    m.dma_time_seconds += shard.dma_time_seconds;
    m.spec_draft_tokens += shard.spec_draft_tokens;
    m.spec_accepted_tokens += shard.spec_accepted_tokens;
    m.spec_wasted_tokens += shard.spec_wasted_tokens;
    m.peak_kv_blocks += shard.peak_kv_blocks;
    m.kv_block_capacity += shard.kv_block_capacity;
    m.kv_capacity_bytes += shard.kv_capacity_bytes;
    m.kv_block_bytes = shard.kv_block_bytes;  // uniform block geometry
    m.mean_batch_width +=
        shard.mean_batch_width * static_cast<double>(shard.ticks);
    m.ticks += shard.ticks;
    m.makespan_seconds = std::max(m.makespan_seconds, shard.makespan_seconds);
    report.shard_reports.push_back(std::move(shard));
  }
  // Requests that never reached a shard: cancelled before placement, or
  // rejected by admission control at the arrival event.
  for (auto& [index, outcome] : unplaced_outcomes_) {
    if (outcome.finish_reason == FinishReason::kShed) {
      ++m.shed_requests;
    } else {
      ++m.cancelled_requests;
    }
    m.outcomes[index] = std::move(outcome);
  }
  if (m.ticks > 0) m.mean_batch_width /= static_cast<double>(m.ticks);
  m.device_tokens_per_second =
      m.makespan_seconds > 0.0
          ? static_cast<double>(m.total_tokens) / m.makespan_seconds
          : 0.0;
  // Per-tier SLO attainment and goodput from the outcomes, with the same
  // RequestOutcome::attains verdict the exported SLO counters use.
  for (const RequestOutcome& outcome : m.outcomes) {
    const std::size_t t =
        static_cast<std::size_t>(serving::TierIndex(outcome.tier));
    serving::TierReport& tier = m.tiers[t];
    const auto n = static_cast<std::int64_t>(outcome.generated.size());
    if (outcome.finish_reason == FinishReason::kShed) {
      ++tier.shed_requests;
    } else if (outcome.finish_reason == FinishReason::kLength ||
               outcome.finish_reason == FinishReason::kStop) {
      ++tier.finished_requests;
      tier.generated_tokens += n;
      if (outcome.attains(config_.scheduler.tier_slo[t])) {
        ++tier.slo_attained_requests;
        tier.goodput_tokens += n;
      }
    }
  }
  double goodput_tokens = 0.0;
  for (serving::TierReport& tier : m.tiers) {
    tier.goodput_tokens_per_second =
        m.makespan_seconds > 0.0
            ? static_cast<double>(tier.goodput_tokens) / m.makespan_seconds
            : 0.0;
    goodput_tokens += static_cast<double>(tier.goodput_tokens);
  }
  m.goodput_tokens_per_second =
      m.makespan_seconds > 0.0 ? goodput_tokens / m.makespan_seconds : 0.0;
  report.card_utilization.resize(shards_.size(), 0.0);
  for (std::size_t c = 0; c < shards_.size(); ++c) {
    report.card_utilization[c] =
        m.makespan_seconds > 0.0 ? busy[c] / m.makespan_seconds : 0.0;
  }
  return report;
}

}  // namespace speedllm::api

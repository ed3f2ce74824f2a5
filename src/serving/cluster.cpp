#include "serving/cluster.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "obs/slo.hpp"
#include "serving/shard.hpp"

namespace speedllm::serving {

namespace {

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

}  // namespace

std::string_view PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kRoundRobin: return "round-robin";
    case PlacementPolicy::kLeastOutstandingTokens: return "least-outstanding";
    case PlacementPolicy::kBestFitFreeKv: return "best-fit-kv";
    case PlacementPolicy::kPrefixAffinity: return "prefix-affinity";
  }
  return "unknown";
}

std::string_view PrefixFetchPolicyName(PrefixFetchPolicy policy) {
  switch (policy) {
    case PrefixFetchPolicy::kAuto: return "auto";
    case PrefixFetchPolicy::kAlwaysFetch: return "always";
    case PrefixFetchPolicy::kNeverFetch: return "never";
  }
  return "unknown";
}

Status ValidateClusterRoles(const ClusterConfig& config, int num_cards) {
  if (config.shard_roles.empty()) return Status::Ok();
  if (static_cast<int>(config.shard_roles.size()) != num_cards) {
    return InvalidArgument(
        "shard_roles has " + std::to_string(config.shard_roles.size()) +
        " entries for " + std::to_string(num_cards) + " cards");
  }
  int prefill_capable = 0;
  int prefill = 0;
  int decode = 0;
  for (ShardRole role : config.shard_roles) {
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

// ------------------------------------------------------- ClusterSession

StatusOr<std::unique_ptr<ClusterSession>> ClusterSession::Create(
    const accel::Program& program, const llama::Weights& weights,
    const hw::MultiCardConfig& cards, const ClusterConfig& config,
    const llama::SamplerConfig& sampler_config) {
  SPEEDLLM_ASSIGN_OR_RETURN(accel::WeightImage image,
                            accel::WeightImage::Build(program, weights));
  return std::unique_ptr<ClusterSession>(new ClusterSession(
      program, std::move(image), cards, config, sampler_config));
}

ClusterSession::ClusterSession(const accel::Program& program,
                               accel::WeightImage image,
                               const hw::MultiCardConfig& cards,
                               const ClusterConfig& config,
                               const llama::SamplerConfig& sampler_config)
    : program_(program),
      image_(std::move(image)),
      cards_(cards),
      config_(config),
      sampler_config_(sampler_config),
      clock_mhz_(cards.cards.front().clock_mhz) {
  config_.shard = NormalizeSchedulerConfig(config_.shard);
  if (config_.telemetry.enabled()) {
    telemetry_ = std::make_unique<obs::Telemetry>(config_.telemetry);
  }
  const int n = cards_.num_cards();
  shards_.reserve(static_cast<std::size_t>(n));
  min_pool_blocks_ = std::numeric_limits<std::int64_t>::max();
  for (int c = 0; c < n; ++c) {
    const std::size_t ci = static_cast<std::size_t>(c);
    SchedulerConfig shard_config = config_.shard;
    if (ci < cards_.kv_dtype_per_card.size()) {
      // Heterogeneous KV dtypes: each card's pool geometry (and hence
      // its block count) follows its own storage format.
      shard_config.kv_cache_dtype = cards_.kv_dtype_per_card[ci];
    }
    if (ci < config_.kv_pool_bytes_per_card.size() &&
        config_.kv_pool_bytes_per_card[ci] > 0) {
      shard_config.kv_pool_bytes = config_.kv_pool_bytes_per_card[ci];
    }
    if (!config_.shard_roles.empty()) {
      shard_config.role = config_.shard_roles[ci];
    }
    if (shard_config.role != ShardRole::kDecode) {
      placeable_.push_back(ci);
    }
    shard_config.kv_pool_bytes =
        DeriveKvPoolBytes(program, cards_.cards[ci], shard_config.kv_pool_bytes);
    const std::uint64_t block_bytes =
        MakeKvPoolConfig(program.model, shard_config.kv_cache_dtype,
                         shard_config.kv_pool_bytes,
                         shard_config.block_size_tokens,
                         shard_config.enable_prefix_cache)
            .block_bytes();
    min_pool_blocks_ = std::min(
        min_pool_blocks_,
        block_bytes == 0 ? std::int64_t{0}
                         : static_cast<std::int64_t>(shard_config.kv_pool_bytes /
                                                     block_bytes));
    shards_.push_back(std::make_unique<ShardScheduler>(
        program, image_, cards_.cards[ci], shard_config, engine_));
    if (telemetry_ != nullptr) {
      shards_.back()->set_telemetry(telemetry_->MakeShardChannel(c));
    }
    shards_.back()->set_kv_pressure_hook(
        [this, c] { Rebalance(static_cast<std::size_t>(c)); });
    // Shard-side emission wrappers are installed up front (before any
    // tick can run): they keep the per-stream records and the SLO
    // metrics current whether or not the caller ever registers hooks.
    shards_.back()->set_emission_hooks(
        [this](std::size_t stream, std::int32_t token, double t) {
          if (on_token_) on_token_(stream, token, t);
        },
        [this](std::size_t stream, FinishReason reason,
               const RequestOutcome& outcome, double t) {
          records_[stream].finished = true;
          if (reason == FinishReason::kCancelled) {
            records_[stream].cancelled = true;
          }
          ObserveSloMetrics(outcome, reason);
          if (on_finish_) on_finish_(stream, reason, outcome, t);
        });
  }
  // Every shard's local DMA and every cross-card KV move queue on one
  // shared station model; the directory mirrors each pool's index.
  interconnect_ = std::make_unique<Interconnect>(cards_);
  directory_ = std::make_unique<PrefixDirectory>();
  handoff_pending_tokens_.assign(shards_.size(), 0);
  for (int c = 0; c < n; ++c) {
    const std::size_t ci = static_cast<std::size_t>(c);
    shards_[ci]->set_interconnect(interconnect_.get(), c);
    if (c < 64) directory_->Attach(c, &shards_[ci]->mutable_pool());
    if (shards_[ci]->role() == ShardRole::kPrefill) {
      shards_[ci]->set_handoff_hook(
          [this, c](KvHandoff handoff, sim::Cycles ready) {
            HandleHandoff(std::move(handoff), ready, c);
          });
    }
  }
  // Admission control starts from a full bucket; the first refill delta
  // is measured from t = 0.
  bucket_tokens_ = config_.shard.admission.burst_tokens;
  bucket_refill_seconds_ = 0.0;
  if (telemetry_ != nullptr && telemetry_->metrics() != nullptr) {
    slo_metrics_ = true;
    obs::MetricsRegistry& reg = *telemetry_->metrics();
    for (int t = 0; t < kNumTiers; ++t) {
      const std::string tier_name{
          RequestTierName(static_cast<RequestTier>(t))};
      goodput_ids_[static_cast<std::size_t>(t)] = reg.AddCounter(
          "speedllm_goodput_tokens_total",
          "Generated tokens of SLO-attaining finished requests", "tokens",
          {{"tier", tier_name}});
      slo_attained_ids_[static_cast<std::size_t>(t)] = reg.AddCounter(
          "speedllm_slo_requests_total",
          "Finished requests by SLO attainment", "requests",
          {{"tier", tier_name}, {"slo", "attained"}});
      slo_missed_ids_[static_cast<std::size_t>(t)] = reg.AddCounter(
          "speedllm_slo_requests_total",
          "Finished requests by SLO attainment", "requests",
          {{"tier", tier_name}, {"slo", "missed"}});
      shed_ids_[static_cast<std::size_t>(t)] = reg.AddCounter(
          "speedllm_shed_requests_total",
          "Requests rejected by admission control", "requests",
          {{"tier", tier_name}});
    }
    if (n > 1) {
      transfer_metrics_ = true;
      link_metric_ids_.assign(
          static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0);
      for (int s = 0; s < n; ++s) {
        for (int d = 0; d < n; ++d) {
          if (s == d) continue;
          link_metric_ids_[static_cast<std::size_t>(s) *
                               static_cast<std::size_t>(n) +
                           static_cast<std::size_t>(d)] =
              reg.AddCounter(
                  "speedllm_kv_transfer_bytes_total",
                  "KV bytes shipped card-to-card over the interconnect",
                  "bytes",
                  {{"src", std::to_string(s)}, {"dst", std::to_string(d)}});
        }
      }
      remote_hit_metric_id_ = reg.AddCounter(
          "speedllm_remote_prefix_hits_total",
          "Admissions served by fetching a remote card's cached prefix",
          "requests", {});
    }
  }
}

bool ClusterSession::ShouldShed(const ServingRequest& request, double now_s) {
  const AdmissionConfig& adm = config_.shard.admission;
  if (!adm.enable || adm.burst_tokens <= 0.0) return false;
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
      adm.tier_reserve_fraction[static_cast<std::size_t>(
          TierIndex(request.tier))] *
      adm.burst_tokens;
  if (bucket_tokens_ - cost < reserve) return true;
  bucket_tokens_ -= cost;
  return false;
}

void ClusterSession::FinishUnplaced(std::size_t stream_index,
                                    RequestOutcome outcome, std::int32_t card,
                                    double now_s) {
  StreamRecord& rec = records_[stream_index];
  const FinishReason reason = outcome.finish_reason;
  const bool shed = reason == FinishReason::kShed;
  rec.finished = true;
  rec.cancelled = reason == FinishReason::kCancelled;
  const auto [it, inserted] =
      unplaced_outcomes_.emplace(stream_index, std::move(outcome));
  (void)inserted;
  if (telemetry_ != nullptr && telemetry_->trace() != nullptr) {
    obs::RequestEvent ev = RouterEvent(
        shed ? obs::RequestEventKind::kShed : obs::RequestEventKind::kCancel,
        static_cast<std::int64_t>(stream_index), card, now_s);
    if (shed) ev.detail = RequestTierName(rec.request->tier);
    telemetry_->trace()->Record(std::move(ev));
  }
  if (slo_metrics_ && shed) {
    telemetry_->metrics()->Add(
        shed_ids_[static_cast<std::size_t>(TierIndex(rec.request->tier))],
        1.0);
  }
  if (on_finish_) on_finish_(stream_index, reason, it->second, now_s);
}

void ClusterSession::ObserveSloMetrics(const RequestOutcome& outcome,
                                       FinishReason reason) {
  if (!slo_metrics_) return;
  if (reason != FinishReason::kLength && reason != FinishReason::kStop) {
    return;
  }
  const std::size_t t = static_cast<std::size_t>(TierIndex(outcome.tier));
  if (outcome.attains(config_.shard.tier_slo[t])) {
    telemetry_->metrics()->Add(slo_attained_ids_[t], 1.0);
    telemetry_->metrics()->Add(
        goodput_ids_[t], static_cast<double>(outcome.generated.size()));
  } else {
    telemetry_->metrics()->Add(slo_missed_ids_[t], 1.0);
  }
}

ClusterSession::~ClusterSession() = default;

double ClusterSession::now_seconds() const {
  return static_cast<double>(engine_.now()) / (clock_mhz_ * 1e6);
}

sim::Cycles ClusterSession::SecondsToCycles(double seconds) const {
  // Every card shares one kernel clock (MultiCardConfig::Validate), so
  // any shard's conversion works; card 0 stands in for the cluster.
  return static_cast<sim::Cycles>(std::llround(seconds * clock_mhz_ * 1e6));
}

Status ClusterSession::Validate(const ServingRequest& request,
                                const std::string& tag) const {
  return ValidateRequest(request, tag, program_.model, min_pool_blocks_,
                         config_.shard.block_size_tokens);
}

void ClusterSession::set_emission_hooks(TokenEmissionHook on_token,
                                        FinishEmissionHook on_finish) {
  // The shard-side wrappers were installed at construction and read
  // these members at call time, so assigning here is all there is to it.
  on_token_ = std::move(on_token);
  on_finish_ = std::move(on_finish);
}

void ClusterSession::SubmitAt(const ServingRequest* request,
                              std::size_t stream_index, sim::Cycles at) {
  if (records_.size() <= stream_index) {
    records_.resize(stream_index + 1);
  }
  records_[stream_index].request = request;
  const sim::Cycles when = std::max(at, engine_.now());
  if (telemetry_ != nullptr && telemetry_->trace() != nullptr) {
    obs::RequestEvent ev = RouterEvent(
        obs::RequestEventKind::kSubmit,
        static_cast<std::int64_t>(stream_index), -1,
        static_cast<double>(when) / (clock_mhz_ * 1e6));
    ev.tokens = static_cast<std::int64_t>(request->prompt.size());
    // The tier label rides on the submit event so SLO/goodput accounting
    // (obs::ComputeGoodput) needs nothing outside the event stream.
    ev.detail = RequestTierName(request->tier);
    telemetry_->trace()->Record(std::move(ev));
  }
  engine_.ScheduleAt(when, [this, stream_index] { Place(stream_index); });
}

Status ClusterSession::Cancel(std::size_t stream_index) {
  if (stream_index >= records_.size() ||
      records_[stream_index].request == nullptr) {
    return NotFound("stream " + std::to_string(stream_index) +
                    " was never submitted");
  }
  StreamRecord& rec = records_[stream_index];
  if (rec.finished) {
    return FailedPrecondition("stream " + std::to_string(stream_index) +
                              " already finished");
  }
  if (auto hit = handoff_in_flight_.find(stream_index);
      hit != handoff_in_flight_.end()) {
    // Prefill finished and the KV pages are mid-transfer: the prefill
    // shard already released the sequence and the decode shard has not
    // adopted it. Drop the handoff and finish the stream here with the
    // outcome it carried (TTFT was stamped on the prefill shard; no
    // token was ever emitted).
    KvHandoff handoff = std::move(hit->second);
    handoff_in_flight_.erase(hit);
    handoff_pending_tokens_[static_cast<std::size_t>(rec.shard)] -=
        handoff.request->max_new_tokens -
        static_cast<std::int64_t>(handoff.outcome.generated.size());
    const double now_s = now_seconds();
    RequestOutcome outcome = std::move(handoff.outcome);
    outcome.finish_reason = FinishReason::kCancelled;
    outcome.completion_seconds = now_s;
    FinishUnplaced(stream_index, std::move(outcome), rec.shard, now_s);
    return Status::Ok();
  }
  if (!rec.placed) {
    // The arrival event has not run yet: suppress it and synthesize the
    // outcome here (no shard ever saw this request).
    const double now_s = now_seconds();
    FinishUnplaced(stream_index,
                   UnservedOutcome(*rec.request, FinishReason::kCancelled,
                                   now_s),
                   -1, now_s);
    return Status::Ok();
  }
  // The shard's Abort marks the record finished through the wrapped
  // finish hook before returning.
  return shards_[static_cast<std::size_t>(rec.shard)]->Abort(stream_index);
}

/// Routes request `stream_index` to a card at its arrival event (after
/// the admission-control gate; a shed request never reaches a shard).
void ClusterSession::Place(std::size_t stream_index) {
  StreamRecord& rec = records_[stream_index];
  if (rec.cancelled) return;  // cancelled before arrival
  const double now_s = now_seconds();
  if (ShouldShed(*rec.request, now_s)) {
    FinishUnplaced(stream_index,
                   UnservedOutcome(*rec.request, FinishReason::kShed, now_s),
                   -1, now_s);
    return;
  }
  const std::size_t card = PickCard(*rec.request);
  rec.shard = static_cast<std::int32_t>(card);
  if (telemetry_ != nullptr && telemetry_->trace() != nullptr) {
    obs::RequestEvent ev = RouterEvent(
        obs::RequestEventKind::kPlace,
        static_cast<std::int64_t>(stream_index),
        static_cast<std::int32_t>(card), now_seconds());
    ev.detail = PlacementPolicyName(config_.placement);
    telemetry_->trace()->Record(std::move(ev));
  }
  // Remote-prefix arbitration may defer Submit to the fetch transfer's
  // end; the record stays unplaced while the fetch is in flight so a
  // cancel takes the unplaced path and the deferred Submit is skipped.
  if (MaybeFetchPrefix(stream_index, card)) return;
  rec.placed = true;
  shards_[card]->Submit(*rec.request, stream_index, sampler_config_);
}

std::size_t ClusterSession::PickCard(const ServingRequest& request) {
  // Arrivals only land on prefill-capable cards (everything but
  // kDecode): decode specialists receive work exclusively as KV
  // handoffs. In unified mode `placeable_` is every card, so the
  // policies below behave exactly as before.
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
        return config_.shard.enable_tiers
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

/// KV-pressure hook: shard `donor` could not admit (or decode) for want
/// of blocks. Migrate its queued, never-prefilled requests to the card
/// with the most projected-free blocks, newest first. Each request
/// migrates at most (num_cards - 1) times, so rebalancing terminates
/// even when every pool is tight.
void ClusterSession::Rebalance(std::size_t donor) {
  if (!config_.rebalance_queued || shards_.size() < 2) return;
  // Requests that exhausted their migration budget stay put; older
  // eligible queued requests behind them are still considered.
  const ShardScheduler::StreamPredicate eligible =
      [this](std::size_t stream) {
        return records_[stream].migrations <
               static_cast<std::int32_t>(shards_.size()) - 1;
      };
  while (true) {
    auto queued = shards_[donor]->PeekNewestQueued(eligible);
    if (!queued) return;
    const auto [request, stream] = *queued;
    const std::int64_t need = shards_[donor]->BlocksForRequest(*request);
    const std::int64_t donor_free =
        shards_[donor]->projected_free_kv_blocks();
    std::size_t target = donor;
    std::int64_t target_free = donor_free;
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
    ++records_[stream].migrations;
    ++rebalanced_;
    records_[stream].shard = static_cast<std::int32_t>(target);
    if (telemetry_ != nullptr && telemetry_->trace() != nullptr) {
      obs::RequestEvent ev = RouterEvent(
          obs::RequestEventKind::kMigrate, static_cast<std::int64_t>(stream),
          static_cast<std::int32_t>(target), now_seconds());
      ev.detail = "from card " + std::to_string(donor);
      telemetry_->trace()->Record(std::move(ev));
    }
    shards_[target]->Submit(*request, stream, sampler_config_);
  }
}

void ClusterSession::RecordTransfer(std::size_t stream_index,
                                    std::int32_t src, std::int32_t dst,
                                    std::int64_t bytes, sim::Cycles start,
                                    sim::Cycles end) {
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
  send.stream = static_cast<std::int64_t>(stream_index);
  send.card = src;
  send.start_seconds = static_cast<double>(start) / (clock_mhz_ * 1e6);
  send.end_seconds = static_cast<double>(end) / (clock_mhz_ * 1e6);
  send.bytes = bytes;
  send.detail = "send";
  obs::RequestEvent recv = send;
  recv.card = dst;
  recv.detail = "recv";
  telemetry_->trace()->Record(std::move(send));
  telemetry_->trace()->Record(std::move(recv));
}

void ClusterSession::HandleHandoff(KvHandoff handoff, sim::Cycles ready,
                                   std::int32_t src) {
  // Destination: the decode card owing the fewest outstanding tokens
  // (lowest card id on ties) -- deterministic, and it balances remaining
  // decode work far better than KV headroom does when pools are large
  // relative to the working set.
  std::int32_t dst = -1;
  std::int64_t dst_owed = std::numeric_limits<std::int64_t>::max();
  for (std::size_t c = 0; c < shards_.size(); ++c) {
    if (shards_[c]->role() != ShardRole::kDecode) continue;
    const std::int64_t owed = shards_[c]->outstanding_tokens() +
                              handoff_pending_tokens_[c];
    if (owed < dst_owed) {
      dst = static_cast<std::int32_t>(c);
      dst_owed = owed;
    }
  }
  assert(dst >= 0 && "handoff hooks are only installed when a decode "
                     "card exists (ValidateClusterRoles)");
  const std::size_t stream = handoff.stream_index;
  const std::int64_t bytes = handoff.kv_bytes;
  const std::int64_t owed_tokens =
      handoff.request->max_new_tokens -
      static_cast<std::int64_t>(handoff.outcome.generated.size());
  handoff_pending_tokens_[static_cast<std::size_t>(dst)] += owed_tokens;
  const hw::TransferTiming window = interconnect_->Transfer(
      ready, static_cast<std::uint64_t>(bytes), src, dst);
  records_[stream].shard = dst;
  RecordTransfer(stream, src, dst, bytes, window.start, window.end);
  ++handoff_transfers_;
  handoff_in_flight_.emplace(stream, std::move(handoff));
  engine_.ScheduleAt(window.end, [this, dst, stream, owed_tokens] {
    auto it = handoff_in_flight_.find(stream);
    if (it == handoff_in_flight_.end()) return;  // cancelled mid-flight
    KvHandoff arrived = std::move(it->second);
    handoff_in_flight_.erase(it);
    handoff_pending_tokens_[static_cast<std::size_t>(dst)] -= owed_tokens;
    shards_[static_cast<std::size_t>(dst)]->AdoptHandoff(std::move(arrived));
  });
}

bool ClusterSession::MaybeFetchPrefix(std::size_t stream_index,
                                      std::size_t dst) {
  if (config_.prefix_fetch == PrefixFetchPolicy::kNeverFetch) return false;
  if (shards_.size() < 2 || dst >= 64) return false;
  const ShardScheduler& shard = *shards_[dst];
  const KvPoolConfig& pool_config = shard.pool().config();
  if (!pool_config.enable_prefix_cache) return false;
  const ServingRequest& request = *records_[stream_index].request;
  // Same cap as local admission: at least the last prompt token always
  // prefills, so its forward pass has KV to attend to.
  const std::int64_t cap =
      static_cast<std::int64_t>(request.prompt.size()) - 1;
  if (cap <= 0) return false;
  const std::int64_t local_tokens =
      shard.pool().MatchCachedPrefix(request.prompt, cap).matched_tokens;
  const PrefixDirectory::Location loc = directory_->Locate(
      request.prompt, cap, KvChainSeed(pool_config.dtype),
      pool_config.block_size_tokens, std::uint64_t{1} << dst);
  if (loc.matched_tokens <= local_tokens) return false;
  const std::int32_t src = std::countr_zero(loc.card_mask);
  const std::int64_t delta_tokens = loc.matched_tokens - local_tokens;
  const std::int64_t local_blocks =
      local_tokens / pool_config.block_size_tokens;
  const std::int64_t bytes =
      (loc.matched_blocks - local_blocks) *
      static_cast<std::int64_t>(pool_config.block_bytes());
  const sim::Cycles now = engine_.now();
  const sim::Cycles fetch_end = interconnect_->EstimateTransferEnd(
      now, static_cast<std::uint64_t>(bytes), src,
      static_cast<std::int32_t>(dst));
  const double fetch_seconds =
      static_cast<double>(fetch_end - now) / (clock_mhz_ * 1e6);
  const double recompute_seconds =
      shard.EstimateRecomputeSeconds(delta_tokens);
  const bool fetched =
      config_.prefix_fetch == PrefixFetchPolicy::kAlwaysFetch ||
      fetch_seconds <= recompute_seconds;
  fetch_log_.push_back({stream_index, src, static_cast<std::int32_t>(dst),
                        delta_tokens, bytes, fetch_seconds,
                        recompute_seconds, fetched});
  if (!fetched) return false;
  const hw::TransferTiming window = interconnect_->Transfer(
      now, static_cast<std::uint64_t>(bytes), src,
      static_cast<std::int32_t>(dst));
  RecordTransfer(stream_index, src, static_cast<std::int32_t>(dst), bytes,
                 window.start, window.end);
  if (transfer_metrics_) {
    telemetry_->metrics()->Add(remote_hit_metric_id_, 1.0);
  }
  ++remote_hits_;
  remote_hit_tokens_ += delta_tokens;
  const std::int64_t fetch_tokens = loc.matched_tokens;
  // The pages leave the source now: snapshot their K/V, since the source
  // may evict the blocks before the transfer lands.
  std::vector<float> rows =
      shards_[static_cast<std::size_t>(src)]->pool().CachedPrefixRows(
          request.prompt, fetch_tokens);
  engine_.ScheduleAt(
      window.end, [this, stream_index, dst, fetch_tokens, delta_tokens,
                   rows = std::move(rows)] {
        StreamRecord& rec = records_[stream_index];
        if (rec.cancelled) return;  // cancelled while the fetch flew
        // The fetched pages land as ownerless cached blocks (no local
        // DMA: the interconnect already charged the write leg), then
        // the normal admission path maps them as a local cache hit.
        shards_[dst]->mutable_pool().InstallCachedPrefix(
            rec.request->prompt, fetch_tokens, rows);
        if (telemetry_ != nullptr && telemetry_->trace() != nullptr) {
          obs::RequestEvent ev = RouterEvent(
              obs::RequestEventKind::kRemoteHit,
              static_cast<std::int64_t>(stream_index),
              static_cast<std::int32_t>(dst), now_seconds());
          ev.tokens = delta_tokens;
          telemetry_->trace()->Record(std::move(ev));
        }
        rec.placed = true;
        shards_[dst]->Submit(*rec.request, stream_index, sampler_config_);
      });
  return true;
}

PrefixDirectorySnapshot ClusterSession::ExportPrefixDirectory() const {
  return directory_->Export();
}

void ClusterSession::ImportPrefixDirectory(
    const PrefixDirectorySnapshot& snapshot) {
  for (const PrefixDirectorySnapshot::Chain& chain : snapshot.chains) {
    const std::size_t card = static_cast<std::size_t>(chain.card);
    if (chain.card < 0 || card >= shards_.size()) continue;
    shards_[card]->WarmStartPrefix(
        chain.tokens, static_cast<std::int64_t>(chain.tokens.size()));
  }
}

Status ClusterSession::Finalize() const {
  for (const auto& shard : shards_) {
    SPEEDLLM_RETURN_IF_ERROR(shard->Finalize());
  }
  return Status::Ok();
}

ClusterReport ClusterSession::Harvest() {
  ClusterReport report;
  report.shard_of_request.reserve(records_.size());
  for (const StreamRecord& rec : records_) {
    report.shard_of_request.push_back(rec.shard);
  }
  report.rebalanced_requests = rebalanced_;
  report.kv_transfer_bytes = interconnect_->total_transfer_bytes();
  report.kv_transfers = interconnect_->num_transfers();
  report.kv_handoffs = handoff_transfers_;
  report.remote_prefix_hits = remote_hits_;
  report.remote_prefix_hit_tokens = remote_hit_tokens_;
  for (std::size_t c = 0; c < shards_.size(); ++c) {
    const std::int32_t card = static_cast<std::int32_t>(c);
    report.card_transfer_out_bytes.push_back(
        interconnect_->transfer_out_bytes(card));
    report.card_transfer_in_bytes.push_back(
        interconnect_->transfer_in_bytes(card));
    report.card_local_dma_bytes.push_back(
        interconnect_->local_dma_bytes(card));
  }
  report.prefix_fetch_log = std::move(fetch_log_);
  report.merged.outcomes.resize(records_.size());
  report.card_utilization.resize(shards_.size(), 0.0);

  std::vector<double> busy(shards_.size(), 0.0);
  std::vector<std::size_t> stream_indices;
  for (std::size_t c = 0; c < shards_.size(); ++c) {
    busy[c] = shards_[c]->busy_seconds();
    ServingReport shard = shards_[c]->TakeReport(stream_indices);
    for (std::size_t k = 0; k < stream_indices.size(); ++k) {
      report.merged.outcomes[stream_indices[k]] = shard.outcomes[k];
    }
    ServingReport& m = report.merged;
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
    m.mean_batch_width += shard.mean_batch_width *
                          static_cast<double>(shard.ticks);
    m.ticks += shard.ticks;
    m.makespan_seconds = std::max(m.makespan_seconds,
                                  shard.makespan_seconds);
    report.shard_reports.push_back(std::move(shard));
  }
  ServingReport& m = report.merged;
  // Requests that never reached a shard: cancelled before placement, or
  // rejected by admission control at the arrival event.
  for (auto& [stream, outcome] : unplaced_outcomes_) {
    if (outcome.finish_reason == FinishReason::kShed) {
      ++m.shed_requests;
    } else {
      ++m.cancelled_requests;
    }
    m.outcomes[stream] = std::move(outcome);
  }
  if (m.ticks > 0) m.mean_batch_width /= static_cast<double>(m.ticks);
  m.device_tokens_per_second =
      m.makespan_seconds > 0.0
          ? static_cast<double>(m.total_tokens) / m.makespan_seconds
          : 0.0;
  // Goodput and per-tier SLO attainment come from the telemetry event
  // stream (obs::ComputeGoodput), not from a second bookkeeping path:
  // with tracing off the tier slices stay zero.
  if (telemetry_ != nullptr && telemetry_->trace() != nullptr) {
    obs::GoodputAccounting acc =
        obs::ComputeGoodput(telemetry_->trace()->events(),
                            config_.shard.tier_slo, m.makespan_seconds);
    m.tiers = acc.tiers;
    m.goodput_tokens_per_second = acc.goodput_tokens_per_second;
  }
  for (std::size_t c = 0; c < shards_.size(); ++c) {
    report.card_utilization[c] =
        m.makespan_seconds > 0.0 ? busy[c] / m.makespan_seconds : 0.0;
  }
  return report;
}

}  // namespace speedllm::serving

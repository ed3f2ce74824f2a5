#include "api/engine.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "obs/export.hpp"
#include "serving/shard.hpp"

namespace speedllm::api {

namespace {

serving::ClusterConfig ToClusterConfig(const EngineConfig& config) {
  serving::ClusterConfig cluster;
  cluster.placement = config.placement;
  cluster.shard = config.scheduler;
  cluster.kv_pool_bytes_per_card = config.kv_pool_bytes_per_card;
  cluster.rebalance_queued = config.rebalance_queued;
  cluster.telemetry = config.telemetry;
  cluster.shard_roles = config.shard_roles;
  cluster.prefix_fetch = config.prefix_fetch;
  return cluster;
}

}  // namespace

Engine::Engine(const accel::Program& program, const llama::Weights& weights,
               const hw::U280Config& u280, EngineConfig config)
    : Engine(program, weights,
             hw::MultiCardConfig::Homogeneous(u280,
                                              std::max(1, config.num_cards)),
             std::move(config)) {}

Engine::Engine(const accel::Program& program, const llama::Weights& weights,
               hw::MultiCardConfig cards, EngineConfig config)
    : program_(program),
      weights_(weights),
      cards_(std::move(cards)),
      config_(std::move(config)) {
  setup_ = cards_.Validate();
  if (setup_.ok()) {
    setup_ = serving::ValidateClusterRoles(ToClusterConfig(config_),
                                           cards_.num_cards());
  }
  if (setup_.ok()) {
    // Out-of-range knobs are clamped by NormalizeSchedulerConfig; only
    // non-finite values are unrecoverable.
    const serving::SpeculativeConfig& spec = config_.scheduler.speculative;
    if (spec.enable && (!std::isfinite(spec.acceptance_rate) ||
                        !std::isfinite(spec.draft_cost_ratio))) {
      setup_ = InvalidArgument(
          "speculative acceptance_rate / draft_cost_ratio must be finite");
    }
  }
  if (setup_.ok()) {
    setup_ = llama::ValidateSamplerConfig(config_.sampler,
                                          "EngineConfig::sampler");
  }
  if (!setup_.ok()) return;
  auto session = serving::ClusterSession::Create(
      program_, weights_, cards_, ToClusterConfig(config_), config_.sampler);
  if (!session.ok()) {
    setup_ = session.status();
    return;
  }
  session_ = std::move(session).value();
  session_->set_emission_hooks(
      [this](std::size_t stream, std::int32_t token, double t) {
        const Entry& entry = entries_[stream];
        if (entry.callbacks.on_token) {
          entry.callbacks.on_token(RequestHandle{stream + 1}, token, t);
        }
      },
      [this](std::size_t stream, FinishReason reason,
             const serving::RequestOutcome& outcome, double t) {
        (void)t;
        Entry& entry = entries_[stream];
        entry.finished = true;
        ++finished_requests_;
        // Release the finished stream's footprint (closures + prompt
        // storage): a long-lived engine must not grow with every request
        // it ever served. The on_finish closure moves to a local so it
        // survives its own invocation. Cancelled finishes fire
        // synchronously -- possibly from inside this stream's own
        // on_token frame -- so only a delivered (asynchronous) finish
        // may destroy the on_token closure.
        auto on_finish = std::move(entry.callbacks.on_finish);
        entry.callbacks.on_finish = nullptr;
        if (reason != FinishReason::kCancelled) {
          entry.callbacks.on_token = nullptr;
        }
        serving::ServingRequest& request = requests_[stream];
        request.prompt.clear();
        request.prompt.shrink_to_fit();
        request.stop_tokens.clear();
        request.stop_tokens.shrink_to_fit();
        if (on_finish) {
          on_finish(RequestHandle{stream + 1}, reason, outcome);
        }
      });
}

Engine::~Engine() = default;

StatusOr<RequestHandle> Engine::Submit(serving::ServingRequest request,
                                       StreamCallbacks callbacks) {
  if (!setup_.ok()) return setup_;
  if (harvested_) {
    return FailedPrecondition("engine already finished: Submit after Finish");
  }
  const std::size_t stream = entries_.size();
  SPEEDLLM_RETURN_IF_ERROR(session_->Validate(
      request, "request " + std::to_string(stream)));
  // A request submitted "now" (or with a stale arrival) joins the
  // timeline at the current simulated time; future arrivals wait.
  request.arrival_seconds =
      std::max(request.arrival_seconds, session_->now_seconds());
  requests_.push_back(std::move(request));
  entries_.push_back(Entry{std::move(callbacks), false});
  session_->SubmitAt(
      &requests_.back(), stream,
      session_->SecondsToCycles(requests_.back().arrival_seconds));
  return RequestHandle{stream + 1};
}

Status Engine::Cancel(RequestHandle handle) {
  if (!setup_.ok()) return setup_;
  if (!handle.valid() || handle.id > entries_.size()) {
    return NotFound("unknown request handle");
  }
  return session_->Cancel(static_cast<std::size_t>(handle.id - 1));
}

void Engine::StepUntil(double t_seconds) {
  if (session_ == nullptr) return;
  session_->engine().RunUntil(session_->SecondsToCycles(t_seconds));
}

void Engine::RunToCompletion() {
  if (session_ == nullptr) return;
  session_->engine().Run();
}

double Engine::now_seconds() const {
  return session_ == nullptr ? 0.0 : session_->now_seconds();
}

bool Engine::idle() const {
  return session_ == nullptr || session_->engine().Idle();
}

int Engine::num_cards() const { return cards_.num_cards(); }

bool Engine::finished(RequestHandle handle) const {
  if (!handle.valid() || handle.id > entries_.size()) return false;
  return entries_[static_cast<std::size_t>(handle.id - 1)].finished;
}

const serving::KvBlockPool* Engine::pool(int card) const {
  if (session_ == nullptr || card < 0 || card >= session_->num_cards()) {
    return nullptr;
  }
  return &session_->shard(card).pool();
}

std::int64_t Engine::kv_blocks_in_use(int card) const {
  const serving::KvBlockPool* p = pool(card);
  return p == nullptr ? 0 : p->used_blocks();
}

std::int64_t Engine::kv_block_capacity(int card) const {
  const serving::KvBlockPool* p = pool(card);
  return p == nullptr ? 0 : p->num_blocks();
}

serving::KvCacheDtype Engine::kv_cache_dtype(int card) const {
  const serving::KvBlockPool* p = pool(card);
  return p == nullptr ? config_.scheduler.kv_cache_dtype : p->config().dtype;
}

serving::KvPoolStats Engine::kv_pool_stats(int card) const {
  const serving::KvBlockPool* p = pool(card);
  return p == nullptr ? serving::KvPoolStats{} : p->stats();
}

const serving::Interconnect* Engine::interconnect() const {
  return session_ == nullptr ? nullptr : &session_->interconnect();
}

serving::PrefixDirectorySnapshot Engine::ExportPrefixDirectory() const {
  return session_ == nullptr ? serving::PrefixDirectorySnapshot{}
                             : session_->ExportPrefixDirectory();
}

void Engine::ImportPrefixDirectory(
    const serving::PrefixDirectorySnapshot& snapshot) {
  if (session_ != nullptr) session_->ImportPrefixDirectory(snapshot);
}

const obs::Telemetry* Engine::telemetry() const {
  return session_ == nullptr ? nullptr : session_->telemetry();
}

Status Engine::WriteTrace(const std::string& path,
                          const sim::TraceRecorder* kernel) const {
  const obs::Telemetry* t = telemetry();
  if (t == nullptr || t->trace() == nullptr) {
    return FailedPrecondition(
        "tracing disabled: set EngineConfig::telemetry.enable_tracing");
  }
  return obs::WriteChromeTrace(*t->trace(), path, kernel,
                               cards_.cards.front().clock_mhz);
}

Status Engine::WriteMetricsJson(const std::string& path) const {
  const obs::Telemetry* t = telemetry();
  if (t == nullptr || t->metrics() == nullptr) {
    return FailedPrecondition(
        "metrics disabled: set EngineConfig::telemetry.enable_metrics");
  }
  return obs::WriteMetricsJson(*t->metrics(), path);
}

Status Engine::WriteMetricsPrometheus(const std::string& path) const {
  const obs::Telemetry* t = telemetry();
  if (t == nullptr || t->metrics() == nullptr) {
    return FailedPrecondition(
        "metrics disabled: set EngineConfig::telemetry.enable_metrics");
  }
  return obs::WritePrometheusText(*t->metrics(), path);
}

StatusOr<serving::ClusterReport> Engine::Finish() {
  if (!setup_.ok()) return setup_;
  if (harvested_) {
    return FailedPrecondition("Finish() may only be called once");
  }
  if (!session_->engine().Idle()) {
    return FailedPrecondition(
        "engine still has pending work: RunToCompletion() before Finish()");
  }
  SPEEDLLM_RETURN_IF_ERROR(session_->Finalize());
  harvested_ = true;
  return session_->Harvest();
}

}  // namespace speedllm::api

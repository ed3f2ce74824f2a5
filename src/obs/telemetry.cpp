#include "obs/telemetry.hpp"

#include <cassert>

namespace speedllm::obs {

std::string_view RequestEventKindName(RequestEventKind kind) {
  switch (kind) {
    case RequestEventKind::kSubmit: return "submit";
    case RequestEventKind::kPlace: return "place";
    case RequestEventKind::kMigrate: return "migrate";
    case RequestEventKind::kQueueWait: return "queue_wait";
    case RequestEventKind::kPrefillChunk: return "prefill_chunk";
    case RequestEventKind::kDecodeToken: return "decode_token";
    case RequestEventKind::kFirstToken: return "first_token";
    case RequestEventKind::kPreempt: return "preempt";
    case RequestEventKind::kCacheHit: return "cache_hit";
    case RequestEventKind::kCowCopy: return "cow_copy";
    case RequestEventKind::kDmaTransfer: return "dma_transfer";
    case RequestEventKind::kKvTransfer: return "kv_transfer";
    case RequestEventKind::kRemoteHit: return "remote_hit";
    case RequestEventKind::kCancel: return "cancel";
    case RequestEventKind::kShed: return "shed";
    case RequestEventKind::kFinish: return "finish";
    case RequestEventKind::kTick: return "tick";
    case RequestEventKind::kDraftPropose: return "draft_propose";
    case RequestEventKind::kVerifyAccept: return "verify_accept";
  }
  return "unknown";
}

std::string_view MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "unknown";
}

// ------------------------------------------------------ MetricsRegistry

MetricsRegistry::MetricId MetricsRegistry::AddSeries(MetricSeries series) {
  const MetricId id = series_.size();
  if (series.type != MetricType::kHistogram) scalar_ids_.push_back(id);
  series_.push_back(std::move(series));
  return id;
}

MetricsRegistry::MetricId MetricsRegistry::AddCounter(
    std::string name, std::string help, std::string unit,
    std::vector<std::pair<std::string, std::string>> labels) {
  MetricSeries s;
  s.name = std::move(name);
  s.help = std::move(help);
  s.unit = std::move(unit);
  s.labels = std::move(labels);
  s.type = MetricType::kCounter;
  return AddSeries(std::move(s));
}

MetricsRegistry::MetricId MetricsRegistry::AddGauge(
    std::string name, std::string help, std::string unit,
    std::vector<std::pair<std::string, std::string>> labels) {
  MetricSeries s;
  s.name = std::move(name);
  s.help = std::move(help);
  s.unit = std::move(unit);
  s.labels = std::move(labels);
  s.type = MetricType::kGauge;
  return AddSeries(std::move(s));
}

MetricsRegistry::MetricId MetricsRegistry::AddHistogram(
    std::string name, std::string help, std::string unit,
    std::vector<std::pair<std::string, std::string>> labels,
    std::vector<double> bucket_bounds) {
  MetricSeries s;
  s.name = std::move(name);
  s.help = std::move(help);
  s.unit = std::move(unit);
  s.labels = std::move(labels);
  s.type = MetricType::kHistogram;
  s.bucket_bounds = std::move(bucket_bounds);
  s.bucket_counts.assign(s.bucket_bounds.size() + 1, 0);
  return AddSeries(std::move(s));
}

void MetricsRegistry::Add(MetricId id, double delta) {
  assert(series_[id].type != MetricType::kHistogram);
  series_[id].value += delta;
}

void MetricsRegistry::Set(MetricId id, double value) {
  assert(series_[id].type != MetricType::kHistogram);
  series_[id].value = value;
}

void MetricsRegistry::Observe(MetricId id, double value) {
  MetricSeries& s = series_[id];
  assert(s.type == MetricType::kHistogram);
  std::size_t bucket = s.bucket_bounds.size();  // +Inf overflow bucket
  for (std::size_t b = 0; b < s.bucket_bounds.size(); ++b) {
    if (value <= s.bucket_bounds[b]) {
      bucket = b;
      break;
    }
  }
  ++s.bucket_counts[bucket];
  ++s.observations;
  s.sum += value;
}

void MetricsRegistry::SampleAt(double t_seconds) {
  MetricsSample sample;
  sample.t_seconds = t_seconds;
  sample.values.reserve(scalar_ids_.size());
  for (MetricId id : scalar_ids_) sample.values.push_back(series_[id].value);
  samples_.push_back(std::move(sample));
}

// --------------------------------------------------------- ShardChannel

ShardChannel::ShardChannel(RequestTraceRecorder* trace,
                           MetricsRegistry* registry, std::int32_t card,
                           ShardMetricIds ids,
                           MetricsRegistry::MetricId ttft_hist,
                           MetricsRegistry::MetricId tpot_hist)
    : trace_(trace),
      registry_(registry),
      card_(card),
      ids_(ids),
      ttft_hist_(ttft_hist),
      tpot_hist_(tpot_hist) {}

void ShardChannel::Record(RequestEvent event) {
  if (trace_ == nullptr) return;
  if (event.card < 0) event.card = card_;
  trace_->Record(std::move(event));
}

void ShardChannel::OnTickEnd(const ShardTickSample& sample) {
  if (registry_ == nullptr) return;
  registry_->Set(ids_.queue_depth, static_cast<double>(sample.queue_depth));
  registry_->Set(ids_.running_seqs, static_cast<double>(sample.running_seqs));
  registry_->Set(ids_.kv_blocks_in_use,
                 static_cast<double>(sample.kv_blocks_in_use));
  registry_->Set(ids_.kv_blocks_evictable,
                 static_cast<double>(sample.kv_blocks_evictable));
  const std::int64_t tokens = sample.decode_tokens + sample.prefill_tokens;
  registry_->Set(ids_.tokens_per_second,
                 sample.tick_seconds > 0.0
                     ? static_cast<double>(tokens) / sample.tick_seconds
                     : 0.0);
  registry_->Add(ids_.decode_tokens_total,
                 static_cast<double>(sample.decode_tokens));
  registry_->Add(ids_.prefill_tokens_total,
                 static_cast<double>(sample.prefill_tokens));
  // Pool stats are already cumulative, so counters are Set, not Add.
  registry_->Set(ids_.cache_hit_tokens_total,
                 static_cast<double>(sample.cum_cache_hit_tokens));
  registry_->Set(ids_.cache_lookup_tokens_total,
                 static_cast<double>(sample.cum_cache_lookup_tokens));
  registry_->Set(ids_.dma_bytes_total,
                 static_cast<double>(sample.cum_dma_bytes));
  registry_->Set(ids_.preemptions_total,
                 static_cast<double>(sample.cum_preemptions));
  registry_->Add(ids_.spec_draft_tokens_total,
                 static_cast<double>(sample.spec_draft_tokens));
  registry_->Add(ids_.spec_accepted_tokens_total,
                 static_cast<double>(sample.spec_accepted_tokens));
}

void ShardChannel::SampleNow(double t_seconds) {
  if (registry_ == nullptr) return;
  registry_->SampleAt(t_seconds);
}

void ShardChannel::ObserveFinish(double ttft_seconds, double tpot_seconds,
                                 bool has_tokens) {
  if (registry_ == nullptr) return;
  registry_->Observe(ttft_hist_, ttft_seconds);
  if (has_tokens) registry_->Observe(tpot_hist_, tpot_seconds);
}

// ------------------------------------------------------------ Telemetry

namespace {

// Latency bucket bounds in seconds: ~exponential from 100 µs to 30 s,
// chosen to straddle the simulated TTFT range of the bundled presets.
std::vector<double> LatencyBuckets() {
  return {1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0};
}

}  // namespace

Telemetry::Telemetry(const TelemetryConfig& config) : config_(config) {
  if (config_.enable_tracing) trace_ = std::make_unique<RequestTraceRecorder>();
  if (config_.enable_metrics) {
    metrics_ = std::make_unique<MetricsRegistry>();
    ttft_hist_ = metrics_->AddHistogram(
        "speedllm_request_ttft_seconds",
        "Time to first token per finished request", "seconds", {},
        LatencyBuckets());
    tpot_hist_ = metrics_->AddHistogram(
        "speedllm_request_tpot_seconds",
        "Mean time per output token per finished request", "seconds", {},
        LatencyBuckets());
  }
}

ShardChannel Telemetry::MakeShardChannel(std::int32_t card) {
  ShardMetricIds ids;
  if (metrics_ != nullptr) {
    const std::vector<std::pair<std::string, std::string>> labels = {
        {"card", std::to_string(card)}};
    ids.queue_depth = metrics_->AddGauge(
        "speedllm_queue_depth", "Requests waiting for admission", "requests",
        labels);
    ids.running_seqs = metrics_->AddGauge(
        "speedllm_running_seqs", "Sequences resident in the batch",
        "sequences", labels);
    ids.kv_blocks_in_use = metrics_->AddGauge(
        "speedllm_kv_blocks_in_use", "KV pool blocks owned by sequences",
        "blocks", labels);
    ids.kv_blocks_evictable = metrics_->AddGauge(
        "speedllm_kv_blocks_evictable",
        "KV pool blocks cached and evictable (LRU)", "blocks", labels);
    ids.tokens_per_second = metrics_->AddGauge(
        "speedllm_tokens_per_second",
        "Simulated token throughput of the last tick", "tokens/s", labels);
    ids.decode_tokens_total = metrics_->AddCounter(
        "speedllm_decode_tokens_total", "Decode tokens committed", "tokens",
        labels);
    ids.prefill_tokens_total = metrics_->AddCounter(
        "speedllm_prefill_tokens_total", "Prefill tokens processed", "tokens",
        labels);
    ids.cache_hit_tokens_total = metrics_->AddCounter(
        "speedllm_cache_hit_tokens_total",
        "Prompt tokens served from the prefix cache", "tokens", labels);
    ids.cache_lookup_tokens_total = metrics_->AddCounter(
        "speedllm_cache_lookup_tokens_total",
        "Prompt tokens eligible for prefix-cache lookup", "tokens", labels);
    ids.dma_bytes_total = metrics_->AddCounter(
        "speedllm_dma_bytes_total",
        "KV bytes moved over DMA (COW + restore + swap)", "bytes", labels);
    ids.preemptions_total = metrics_->AddCounter(
        "speedllm_preemptions_total", "Sequences preempted (swapped out)",
        "preemptions", labels);
    ids.spec_draft_tokens_total = metrics_->AddCounter(
        "speedllm_spec_draft_tokens_total",
        "Speculative draft tokens proposed", "tokens", labels);
    ids.spec_accepted_tokens_total = metrics_->AddCounter(
        "speedllm_spec_accepted_tokens_total",
        "Speculative draft tokens accepted and committed by verify",
        "tokens", labels);
  }
  return ShardChannel(trace_.get(), metrics_.get(), card, ids, ttft_hist_,
                      tpot_hist_);
}

}  // namespace speedllm::obs

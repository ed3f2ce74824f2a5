// SpeedLLM -- serving-layer telemetry: per-request lifecycle tracing
// and a tick-sampled metrics registry.
//
// The kernel simulator can already trace a single token's instruction
// schedule (sim::TraceRecorder); this module is the same idea one layer
// up, for the serving stack. A RequestTraceRecorder collects timestamped
// lifecycle events on the shared sim clock -- submit, placement,
// queue-wait, prefill chunks, decode commits, preemption swap-outs,
// prefix-cache hits, copy-on-write copies, DMA transfers, cancels, and
// finishes -- emitted by ShardScheduler and api::Engine hooks. A MetricsRegistry holds named counters, gauges, and histograms
// (queue depth, KV blocks in use, DMA bytes, tokens/s, TTFT/TPOT, ...)
// and snapshots every scalar series once per scheduler tick into a time
// series. obs/export.hpp renders both: the trace as Chrome Trace Event
// JSON (mergeable with the kernel trace on one timebase) and the metrics
// as a JSON time series plus a Prometheus-style text exposition.
//
// Everything is off by default and near-zero cost when disabled: the
// per-shard channel is a pair of nullable pointers, so a disabled shard
// pays one branch per would-be event. Recording is append-only and
// deterministic -- the same (workload, seed, config) always produces a
// byte-identical exported trace.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// Serving-layer observability: request lifecycle tracing, the
/// tick-sampled metrics registry, and their JSON/Prometheus exporters.
namespace speedllm::obs {

// ---------------------------------------------------------------- trace

/// What one RequestEvent describes. Span kinds carry distinct start/end
/// times; instant kinds have start == end.
enum class RequestEventKind {
  kSubmit,       ///< request entered the cluster (instant, at arrival)
  kPlace,        ///< placement policy routed it to a card (instant)
  kMigrate,      ///< rebalancer moved a queued request between cards
  kQueueWait,    ///< span from arrival to first admission on a card
  kPrefillChunk, ///< span: one tick's prefill chunk (`tokens` processed)
  kDecodeToken,  ///< span: one decode token committed by a tick
  kFirstToken,   ///< instant: first token sampled (end of prefill; TTFT)
  kPreempt,      ///< instant: swapped out of the KV pool (`tokens` dropped)
  kCacheHit,     ///< instant: prefix-cache restore mapped `tokens` tokens
  kCowCopy,      ///< instant: copy-on-write copied `bytes` of KV
  kDmaTransfer,  ///< span: one charged DMA move (`detail` names the cause)
  kKvTransfer,   ///< span: card-to-card KV move; paired send/recv events
  kRemoteHit,    ///< instant: admission served by a remote prefix fetch
  kCancel,       ///< instant: stream aborted mid-flight
  kShed,         ///< instant: rejected by admission control (terminal)
  kFinish,       ///< instant: finish delivered (`detail` names the reason)
  kTick,         ///< span: one scheduler tick on a card (shard-level)
  kDraftPropose, ///< instant: speculative draft proposed `tokens` tokens
  kVerifyAccept, ///< instant: verify committed `tokens` accepted drafts
};

/// Stable lower-snake name for `kind` ("decode_token", "tick", ...) --
/// the vocabulary the exported trace and docs/OBSERVABILITY.md share.
std::string_view RequestEventKindName(RequestEventKind kind);

/// One timestamped lifecycle event on the shared simulated clock.
struct RequestEvent {
  /// What happened; see RequestEventKind.
  RequestEventKind kind = RequestEventKind::kSubmit;
  /// Global request stream index, or -1 for shard-level events (kTick).
  std::int64_t stream = -1;
  /// Card the event happened on; -1 for cluster-level events (kSubmit,
  /// and kCancel before placement).
  std::int32_t card = -1;
  /// 1-based per-card tick ordinal for events emitted inside a tick
  /// (kTick and its children); -1 when not tied to a tick.
  std::int64_t tick = -1;
  /// Event start, simulated seconds on the shared clock.
  double start_seconds = 0.0;
  /// Event end, simulated seconds; equals `start_seconds` for instants.
  double end_seconds = 0.0;
  /// Kind-specific token count (chunk size, restored tokens, ...).
  std::int64_t tokens = 0;
  /// Kind-specific byte count (DMA moves, COW copies).
  std::int64_t bytes = 0;
  /// Kind-specific label: finish reason, DMA cause, placement policy.
  std::string detail;
};

/// Append-only recorder for RequestEvents. Events are kept in recording
/// order, which the deterministic sim engine makes reproducible: the
/// same run always appends the same events in the same order.
class RequestTraceRecorder {
 public:
  /// Appends one event.
  void Record(RequestEvent event) { events_.push_back(std::move(event)); }
  /// Every event recorded so far, in recording order.
  const std::vector<RequestEvent>& events() const { return events_; }
  /// Number of events recorded so far.
  std::size_t size() const { return events_.size(); }

 private:
  std::vector<RequestEvent> events_;
};

// -------------------------------------------------------------- metrics

/// How a metric series accumulates; mirrors the Prometheus model.
enum class MetricType {
  kCounter,    ///< monotonically non-decreasing total
  kGauge,      ///< point-in-time level, may move both ways
  kHistogram,  ///< cumulative bucket counts over observations
};

/// Stable lower-case name for `type` ("counter" / "gauge" / "histogram").
std::string_view MetricTypeName(MetricType type);

/// One registered metric series: identity (name + labels), type, unit,
/// and its current value or bucket state. Histograms are exported with
/// their final buckets only; scalar series are additionally snapshotted
/// per tick into MetricsRegistry::samples().
struct MetricSeries {
  /// Metric name, Prometheus-style ("speedllm_kv_blocks_in_use").
  std::string name;
  /// One-line human description (HELP line).
  std::string help;
  /// Unit of the value ("tokens", "blocks", "bytes", "seconds", ...).
  std::string unit;
  /// Label key/value pairs, e.g. {{"card", "0"}}; may be empty.
  std::vector<std::pair<std::string, std::string>> labels;
  /// Accumulation model; see MetricType.
  MetricType type = MetricType::kGauge;
  /// Current value (counters and gauges).
  double value = 0.0;
  /// Upper bucket bounds (histograms), ascending; an implicit +Inf
  /// bucket follows the last bound.
  std::vector<double> bucket_bounds;
  /// Observations per bucket, bucket_bounds.size() + 1 entries (the
  /// last is the +Inf overflow bucket).
  std::vector<std::int64_t> bucket_counts;
  /// Total observations (histograms).
  std::int64_t observations = 0;
  /// Sum of observed values (histograms).
  double sum = 0.0;
};

/// One per-tick snapshot of every scalar (counter/gauge) series.
struct MetricsSample {
  /// Simulated time of the snapshot (tick end), seconds.
  double t_seconds = 0.0;
  /// Scalar series values, indexed by registration order (histograms
  /// are skipped; their index is simply absent from this vector's
  /// mapping -- see MetricsRegistry::scalar_ids()).
  std::vector<double> values;
};

/// Registry of named metric series with tick-driven sampling. All
/// mutation is O(1) per call; SampleAt copies the scalar values. Ids are
/// dense indices into series() and stay valid for the registry's
/// lifetime.
class MetricsRegistry {
 public:
  /// Dense series handle returned by the Add* registrars.
  using MetricId = std::size_t;

  /// Registers a counter; returns its id.
  MetricId AddCounter(std::string name, std::string help, std::string unit,
                      std::vector<std::pair<std::string, std::string>> labels);
  /// Registers a gauge; returns its id.
  MetricId AddGauge(std::string name, std::string help, std::string unit,
                    std::vector<std::pair<std::string, std::string>> labels);
  /// Registers a histogram over ascending `bucket_bounds`; returns its id.
  MetricId AddHistogram(std::string name, std::string help, std::string unit,
                        std::vector<std::pair<std::string, std::string>> labels,
                        std::vector<double> bucket_bounds);

  /// Adds `delta` to a counter or gauge.
  void Add(MetricId id, double delta);
  /// Sets a counter or gauge to `value` (counters are Set from
  /// already-cumulative sources like KvPoolStats).
  void Set(MetricId id, double value);
  /// Records one observation into a histogram.
  void Observe(MetricId id, double value);
  /// Current value of a scalar series.
  double value(MetricId id) const { return series_[id].value; }

  /// Appends one snapshot of every scalar series at simulated time `t`.
  void SampleAt(double t_seconds);

  /// Every registered series, in registration order.
  const std::vector<MetricSeries>& series() const { return series_; }
  /// Every tick snapshot, in time order.
  const std::vector<MetricsSample>& samples() const { return samples_; }
  /// Ids of the scalar (counter/gauge) series, in registration order --
  /// the mapping from MetricsSample::values positions back to series().
  const std::vector<MetricId>& scalar_ids() const { return scalar_ids_; }

 private:
  MetricId AddSeries(MetricSeries series);

  std::vector<MetricSeries> series_;
  std::vector<MetricId> scalar_ids_;
  std::vector<MetricsSample> samples_;
};

// ------------------------------------------------------------ telemetry

/// Telemetry switches, surfaced through api::EngineConfig. Both halves
/// default off; a disabled half
/// costs one pointer test per would-be event.
struct TelemetryConfig {
  /// Record per-request lifecycle events (RequestTraceRecorder).
  bool enable_tracing = false;
  /// Register and tick-sample the serving metrics (MetricsRegistry).
  bool enable_metrics = false;

  /// True when either half is on.
  bool enabled() const { return enable_tracing || enable_metrics; }
};

/// Ids of the per-card series a ShardChannel updates each tick.
struct ShardMetricIds {
  MetricsRegistry::MetricId queue_depth = 0;       ///< waiting requests
  MetricsRegistry::MetricId running_seqs = 0;      ///< resident sequences
  MetricsRegistry::MetricId kv_blocks_in_use = 0;  ///< owned KV blocks
  MetricsRegistry::MetricId kv_blocks_evictable = 0;  ///< LRU-cached blocks
  MetricsRegistry::MetricId tokens_per_second = 0;  ///< this tick's rate
  MetricsRegistry::MetricId decode_tokens_total = 0;   ///< decode commits
  MetricsRegistry::MetricId prefill_tokens_total = 0;  ///< prefill tokens
  MetricsRegistry::MetricId cache_hit_tokens_total = 0;  ///< cache-served
  MetricsRegistry::MetricId cache_lookup_tokens_total = 0;  ///< eligible
  MetricsRegistry::MetricId dma_bytes_total = 0;     ///< KV bytes moved
  MetricsRegistry::MetricId preemptions_total = 0;   ///< swap-outs
  MetricsRegistry::MetricId spec_draft_tokens_total = 0;  ///< drafts proposed
  MetricsRegistry::MetricId spec_accepted_tokens_total = 0;  ///< drafts kept
};

/// Everything a ShardScheduler reports at the end of one tick; the
/// channel fans it out into the per-card series.
struct ShardTickSample {
  double end_seconds = 0.0;      ///< simulated tick end
  double tick_seconds = 0.0;     ///< simulated tick duration
  std::int64_t decode_tokens = 0;   ///< decode commits this tick
  std::int64_t prefill_tokens = 0;  ///< prefill tokens this tick
  std::int64_t queue_depth = 0;     ///< waiting requests after the tick
  std::int64_t running_seqs = 0;    ///< residents after the tick
  std::int64_t kv_blocks_in_use = 0;    ///< owned blocks after the tick
  std::int64_t kv_blocks_evictable = 0; ///< LRU blocks after the tick
  std::int64_t cum_cache_hit_tokens = 0;  ///< pool stat, cumulative
  std::int64_t cum_cache_lookup_tokens = 0;  ///< pool stat, cumulative
  std::int64_t cum_dma_bytes = 0;     ///< pool stat, cumulative
  std::int64_t cum_preemptions = 0;   ///< pool stat, cumulative
  std::int64_t spec_draft_tokens = 0;     ///< drafts proposed this tick
  std::int64_t spec_accepted_tokens = 0;  ///< drafts committed this tick
};

/// A shard's cheap handle into the telemetry sinks: a trace recorder
/// pointer, a metrics registry pointer (either may be null = disabled),
/// the card id stamped onto every event, and the per-card metric ids.
/// Copyable by design -- the default-constructed channel is "telemetry
/// off" and every hot-path test is a single pointer comparison.
class ShardChannel {
 public:
  /// Disabled channel: tracing() and metrics() are false.
  ShardChannel() = default;
  /// Channel writing to `trace` / `registry` (either may be null) as
  /// card `card`, with pre-registered per-card ids and the cluster-wide
  /// TTFT/TPOT histogram ids.
  ShardChannel(RequestTraceRecorder* trace, MetricsRegistry* registry,
               std::int32_t card, ShardMetricIds ids,
               MetricsRegistry::MetricId ttft_hist,
               MetricsRegistry::MetricId tpot_hist);

  /// True when lifecycle events should be recorded.
  bool tracing() const { return trace_ != nullptr; }
  /// True when per-tick metrics should be updated.
  bool metrics() const { return registry_ != nullptr; }

  /// Records `event` with this card's id stamped in. No-op when
  /// tracing is off.
  void Record(RequestEvent event);

  /// Fans one tick's sample into the per-card series. Every tick is
  /// sampled: the shard then schedules SampleNow at the tick's simulated
  /// end time, so sample rows from overlapping ticks on different cards
  /// land in timestamp order. No-op when metrics are off.
  void OnTickEnd(const ShardTickSample& sample);

  /// Snapshots the registry's current values at sim time `t_seconds`.
  /// Called from an event the shard schedules at the tick's end cycles
  /// (see OnTickEnd). No-op when metrics are off.
  void SampleNow(double t_seconds);

  /// Observes a finished request's TTFT (always) and TPOT (only when
  /// `has_tokens`: TPOT is undefined for empty generations) into the
  /// cluster-wide histograms. No-op when metrics are off.
  void ObserveFinish(double ttft_seconds, double tpot_seconds,
                     bool has_tokens);

 private:
  RequestTraceRecorder* trace_ = nullptr;
  MetricsRegistry* registry_ = nullptr;
  std::int32_t card_ = 0;
  ShardMetricIds ids_;
  MetricsRegistry::MetricId ttft_hist_ = 0;
  MetricsRegistry::MetricId tpot_hist_ = 0;
};

/// Owns one serving timeline's telemetry state: the trace recorder, the
/// metrics registry, and the cluster-wide latency histograms. Created by
/// api::Engine when telemetry is enabled; api::Engine::telemetry()
/// exposes it for export.
class Telemetry {
 public:
  /// Builds the enabled halves per `config` and registers the
  /// cluster-wide TTFT/TPOT histograms when metrics are on.
  explicit Telemetry(const TelemetryConfig& config);

  /// The switches this instance was built with.
  const TelemetryConfig& config() const { return config_; }
  /// Trace recorder, or null when tracing is disabled.
  RequestTraceRecorder* trace() { return trace_.get(); }
  /// Trace recorder, or null when tracing is disabled.
  const RequestTraceRecorder* trace() const { return trace_.get(); }
  /// Metrics registry, or null when metrics are disabled.
  MetricsRegistry* metrics() { return metrics_.get(); }
  /// Metrics registry, or null when metrics are disabled.
  const MetricsRegistry* metrics() const { return metrics_.get(); }

  /// Builds card `card`'s channel, registering its per-card series
  /// (labelled {card="N"}) when metrics are on.
  ShardChannel MakeShardChannel(std::int32_t card);

 private:
  TelemetryConfig config_;
  std::unique_ptr<RequestTraceRecorder> trace_;
  std::unique_ptr<MetricsRegistry> metrics_;
  MetricsRegistry::MetricId ttft_hist_ = 0;
  MetricsRegistry::MetricId tpot_hist_ = 0;
};

}  // namespace speedllm::obs

namespace speedllm::serving {
/// Serving-layer alias: the lifecycle recorder lives in obs but is part
/// of the serving vocabulary (shards and the engine emit into it).
using RequestTraceRecorder = obs::RequestTraceRecorder;
}  // namespace speedllm::serving

// Unit tests for the serving-layer telemetry subsystem (src/obs/):
// metrics-registry semantics, trace determinism (byte-identical exports
// across runs; per-stream lifecycles invariant across placement policy,
// prefix caching, and KV dtype), lifecycle completeness (exactly one
// terminal event per stream), one arrival time shared by a request's
// submit event and its outcome, zero simulation perturbation from
// enabling telemetry, and event-vs-report accounting (preemptions, DMA
// bytes and time) under forced KV pressure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "compiler/compiler.hpp"
#include "llama/tokenizer.hpp"
#include "obs/export.hpp"
#include "serving/cluster.hpp"
#include "serving/workload.hpp"
#include "test_util.hpp"

namespace speedllm::obs {
namespace {

using testutil::MakeRequest;
using testutil::Greedy;

struct Fixture {
  llama::ModelConfig config = llama::ModelConfig::Tiny();
  llama::Weights weights = llama::GenerateSyntheticWeights(config, 808);
  hw::U280Config u280 = hw::U280Config::Default();

  accel::Program Compile() {
    auto r =
        compiler::Compile(config, compiler::CompilerOptions::SpeedLLM(), u280);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value().program;
  }
};

std::vector<serving::ServingRequest> MixedTrace(
    const llama::ModelConfig& config, int n) {
  Rng rng(4242);
  serving::WorkloadConfig wc;
  wc.num_requests = n;
  wc.rate_rps = 3000.0;
  wc.min_prompt_tokens = 3;
  wc.max_prompt_tokens = 10;
  wc.min_new_tokens = 4;
  wc.max_new_tokens = 10;
  wc.vocab_size = config.vocab_size;
  return serving::PoissonTrace(rng, wc);
}

/// Runs `requests` through an api::Engine built with `config`; the
/// engine stays alive so the caller can inspect telemetry().
struct EngineRun {
  std::unique_ptr<api::Engine> engine;
  serving::ClusterReport report;
};

EngineRun RunEngine(const Fixture& f, const accel::Program& prog,
                    const std::vector<serving::ServingRequest>& requests,
                    api::EngineConfig config) {
  EngineRun run;
  run.engine =
      std::make_unique<api::Engine>(prog, f.weights, f.u280, config);
  auto report = testutil::ServeTrace(*run.engine, requests);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  run.report = std::move(report).value();
  return run;
}

api::EngineConfig FullTelemetry(int cards) {
  api::EngineConfig config;
  config.num_cards = cards;
  config.telemetry.enable_tracing = true;
  config.telemetry.enable_metrics = true;
  config.sampler = Greedy();
  return config;
}

// ---------------- metrics registry ----------------

TEST(MetricsRegistryTest, CountersGaugesAndTickSamples) {
  MetricsRegistry reg;
  const auto c = reg.AddCounter("c_total", "a counter", "tokens", {});
  const auto g = reg.AddGauge("g", "a gauge", "requests", {{"card", "0"}});
  const auto h = reg.AddHistogram("h_seconds", "a histogram", "seconds", {},
                                  {0.1, 1.0});
  reg.Add(c, 3.0);
  reg.Add(c, 2.0);
  reg.Set(g, 7.0);
  reg.SampleAt(1.0);
  reg.Set(g, 4.0);
  reg.Observe(h, 0.5);
  reg.SampleAt(2.0);

  EXPECT_EQ(reg.value(c), 5.0);
  EXPECT_EQ(reg.value(g), 4.0);
  // Histograms are excluded from the scalar snapshots.
  ASSERT_EQ(reg.scalar_ids().size(), 2u);
  ASSERT_EQ(reg.samples().size(), 2u);
  EXPECT_EQ(reg.samples()[0].t_seconds, 1.0);
  EXPECT_EQ(reg.samples()[0].values, (std::vector<double>{5.0, 7.0}));
  EXPECT_EQ(reg.samples()[1].values, (std::vector<double>{5.0, 4.0}));
  (void)h;
}

TEST(MetricsRegistryTest, HistogramBucketPlacement) {
  MetricsRegistry reg;
  const auto h = reg.AddHistogram("h", "latency", "seconds", {}, {0.1, 1.0});
  reg.Observe(h, 0.05);   // bucket 0 (<= 0.1)
  reg.Observe(h, 0.1);    // bucket 0 (boundary is inclusive)
  reg.Observe(h, 0.5);    // bucket 1 (<= 1.0)
  reg.Observe(h, 100.0);  // +Inf overflow bucket
  const MetricSeries& s = reg.series()[h];
  EXPECT_EQ(s.bucket_counts, (std::vector<std::int64_t>{2, 1, 1}));
  EXPECT_EQ(s.observations, 4);
  EXPECT_DOUBLE_EQ(s.sum, 100.65);
}

// ---------------- off by default ----------------

TEST(TelemetryTest, DisabledByDefaultAndWritersRefuse) {
  Fixture f;
  auto prog = f.Compile();
  api::EngineConfig config;
  config.sampler = Greedy();
  auto run = RunEngine(f, prog, MixedTrace(f.config, 3), config);
  EXPECT_EQ(run.engine->telemetry(), nullptr);
  EXPECT_EQ(run.engine->WriteTrace("/tmp/unused.json").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(run.engine->WriteMetricsJson("/tmp/unused.json").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(run.engine->WriteMetricsPrometheus("/tmp/unused.json").code(),
            StatusCode::kFailedPrecondition);
}

// ---------------- determinism ----------------

TEST(TelemetryTest, ExportsByteIdenticalAcrossRuns) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 8);
  auto a = RunEngine(f, prog, reqs, FullTelemetry(2));
  auto b = RunEngine(f, prog, reqs, FullTelemetry(2));
  ASSERT_NE(a.engine->telemetry(), nullptr);
  ASSERT_NE(b.engine->telemetry(), nullptr);
  EXPECT_EQ(ToChromeTraceJson(*a.engine->telemetry()->trace()),
            ToChromeTraceJson(*b.engine->telemetry()->trace()));
  EXPECT_EQ(ToMetricsJson(*a.engine->telemetry()->metrics()),
            ToMetricsJson(*b.engine->telemetry()->metrics()));
  EXPECT_EQ(ToPrometheusText(*a.engine->telemetry()->metrics()),
            ToPrometheusText(*b.engine->telemetry()->metrics()));
}

/// Canonical per-stream lifecycle summary: everything that must be
/// invariant across card count, placement policy, caching, and KV dtype
/// (token streams are seeded per stream). Timing and card ids are NOT
/// invariant and stay out.
struct StreamSummary {
  std::int64_t decode_events = 0;
  std::int64_t submits = 0;
  std::int64_t places = 0;
  std::int64_t first_tokens = 0;
  std::int64_t finishes = 0;
  std::int64_t finish_tokens = -1;
  std::string finish_detail;

  friend bool operator==(const StreamSummary& a, const StreamSummary& b) {
    return a.decode_events == b.decode_events && a.submits == b.submits &&
           a.places == b.places && a.first_tokens == b.first_tokens &&
           a.finishes == b.finishes && a.finish_tokens == b.finish_tokens &&
           a.finish_detail == b.finish_detail;
  }
};

std::map<std::int64_t, StreamSummary> Summarize(
    const RequestTraceRecorder& trace) {
  std::map<std::int64_t, StreamSummary> out;
  for (const RequestEvent& e : trace.events()) {
    if (e.stream < 0) continue;
    StreamSummary& s = out[e.stream];
    switch (e.kind) {
      case RequestEventKind::kSubmit: ++s.submits; break;
      case RequestEventKind::kPlace: ++s.places; break;
      case RequestEventKind::kDecodeToken: ++s.decode_events; break;
      case RequestEventKind::kFirstToken: ++s.first_tokens; break;
      case RequestEventKind::kFinish:
        ++s.finishes;
        s.finish_tokens = e.tokens;
        s.finish_detail = e.detail;
        break;
      default: break;
    }
  }
  return out;
}

TEST(TelemetryTest, LifecycleCompleteAndConsistentWithReport) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 9);
  auto run = RunEngine(f, prog, reqs, FullTelemetry(3));
  ASSERT_NE(run.engine->telemetry(), nullptr);
  const auto summaries = Summarize(*run.engine->telemetry()->trace());

  ASSERT_EQ(summaries.size(), reqs.size());
  std::int64_t decode_total = 0;
  for (const auto& [stream, s] : summaries) {
    EXPECT_EQ(s.submits, 1) << "stream " << stream;
    EXPECT_EQ(s.places, 1) << "stream " << stream;
    EXPECT_EQ(s.first_tokens, 1) << "stream " << stream;
    EXPECT_EQ(s.finishes, 1) << "stream " << stream;
    const auto& outcome =
        run.report.merged.outcomes[static_cast<std::size_t>(stream)];
    EXPECT_EQ(s.finish_tokens,
              static_cast<std::int64_t>(outcome.generated.size()));
    EXPECT_EQ(s.finish_detail,
              std::string(serving::FinishReasonName(outcome.finish_reason)));
    decode_total += s.decode_events;
  }
  // Every generated token was committed by exactly one decode event.
  std::int64_t generated_total = 0;
  for (const auto& outcome : run.report.merged.outcomes) {
    generated_total += static_cast<std::int64_t>(outcome.generated.size());
  }
  EXPECT_EQ(decode_total, generated_total);
}

TEST(TelemetryTest, SubmitEventsAndOutcomesShareOneArrival) {
  // Poisson arrivals fall between kernel-clock cycles. The simulation
  // acts on the rounded cycle, and the trace and the report must both
  // say so: a TTFT read from the trace equals the report's.
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 24);
  const double cycles_per_second = f.u280.clock_mhz * 1e6;
  int off_cycle = 0;
  for (const auto& r : reqs) {
    const double cycles = r.arrival_seconds * cycles_per_second;
    off_cycle += static_cast<double>(std::llround(cycles)) != cycles;
  }
  ASSERT_GT(off_cycle, 0);
  auto run = RunEngine(f, prog, reqs, FullTelemetry(2));
  ASSERT_NE(run.engine->telemetry(), nullptr);
  int submits = 0;
  for (const RequestEvent& e : run.engine->telemetry()->trace()->events()) {
    if (e.kind != RequestEventKind::kSubmit) continue;
    ++submits;
    const auto& outcome =
        run.report.merged.outcomes[static_cast<std::size_t>(e.stream)];
    EXPECT_EQ(e.start_seconds, outcome.arrival_seconds)
        << "stream " << e.stream;
  }
  EXPECT_EQ(submits, static_cast<int>(reqs.size()));
}

TEST(TelemetryTest, StreamLifecyclesInvariantAcrossServingConfigs) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 9);

  auto baseline = RunEngine(f, prog, reqs, FullTelemetry(1));
  ASSERT_NE(baseline.engine->telemetry(), nullptr);
  const auto expect = Summarize(*baseline.engine->telemetry()->trace());

  constexpr serving::PlacementPolicy kAllPlacements[] = {
      serving::PlacementPolicy::kRoundRobin,
      serving::PlacementPolicy::kLeastOutstandingTokens,
      serving::PlacementPolicy::kBestFitFreeKv,
      serving::PlacementPolicy::kPrefixAffinity};
  for (serving::PlacementPolicy placement : kAllPlacements) {
    for (bool cache : {true, false}) {
      api::EngineConfig config = FullTelemetry(3);
      config.placement = placement;
      config.scheduler.enable_prefix_cache = cache;
      auto run = RunEngine(f, prog, reqs, config);
      ASSERT_NE(run.engine->telemetry(), nullptr);
      EXPECT_EQ(Summarize(*run.engine->telemetry()->trace()), expect)
          << serving::PlacementPolicyName(placement) << " cache=" << cache;
    }
  }
  // KV dtype changes the pool geometry but not any stream's lifecycle.
  api::EngineConfig int8_config = FullTelemetry(2);
  int8_config.scheduler.kv_cache_dtype = serving::KvCacheDtype::kInt8;
  auto int8_run = RunEngine(f, prog, reqs, int8_config);
  ASSERT_NE(int8_run.engine->telemetry(), nullptr);
  EXPECT_EQ(Summarize(*int8_run.engine->telemetry()->trace()), expect);
}

// ---------------- zero perturbation ----------------

TEST(TelemetryTest, EnablingTelemetryDoesNotPerturbTheSimulation) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 8);
  api::EngineConfig off;
  off.num_cards = 2;
  off.sampler = Greedy();
  auto plain = RunEngine(f, prog, reqs, off);
  auto traced = RunEngine(f, prog, reqs, FullTelemetry(2));

  const serving::ServingReport& a = plain.report.merged;
  const serving::ServingReport& b = traced.report.merged;
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].generated, b.outcomes[i].generated);
    EXPECT_EQ(a.outcomes[i].first_token_seconds,
              b.outcomes[i].first_token_seconds);
    EXPECT_EQ(a.outcomes[i].completion_seconds,
              b.outcomes[i].completion_seconds);
  }
  EXPECT_EQ(a.total_tokens, b.total_tokens);
  EXPECT_EQ(a.makespan_seconds, b.makespan_seconds);
  EXPECT_EQ(a.preemptions, b.preemptions);
  EXPECT_EQ(a.dma_bytes_moved, b.dma_bytes_moved);
  EXPECT_EQ(a.dma_time_seconds, b.dma_time_seconds);
}

// ---------------- event/report accounting under KV pressure ----------------

TEST(TelemetryTest, PreemptionAndDmaEventsMatchReportCounters) {
  Fixture f;
  auto prog = f.Compile();
  const std::uint32_t bytes_per_token = serving::KvBytesPerToken(f.config);
  api::EngineConfig config = FullTelemetry(1);
  config.scheduler.block_size_tokens = 4;
  // 8 blocks: three 16-token sequences cannot all stay resident.
  config.scheduler.kv_pool_bytes = 8ull * 4 * bytes_per_token;
  config.scheduler.max_batch_seqs = 4;
  config.scheduler.max_batch_tokens = 32;
  std::vector<serving::ServingRequest> reqs = {MakeRequest(4, 12, 0.0, 0),
                                               MakeRequest(4, 12, 0.0, 1),
                                               MakeRequest(4, 12, 0.0, 2)};
  auto run = RunEngine(f, prog, reqs, config);
  ASSERT_NE(run.engine->telemetry(), nullptr);
  ASSERT_GT(run.report.merged.preemptions, 0);

  std::int64_t preempt_events = 0;
  std::int64_t dma_bytes = 0;
  double dma_seconds = 0.0;
  for (const RequestEvent& e : run.engine->telemetry()->trace()->events()) {
    if (e.kind == RequestEventKind::kPreempt) ++preempt_events;
    if (e.kind == RequestEventKind::kDmaTransfer) {
      dma_bytes += e.bytes;
      dma_seconds += e.end_seconds - e.start_seconds;
    }
  }
  EXPECT_EQ(preempt_events, run.report.merged.preemptions);
  EXPECT_EQ(dma_bytes, run.report.merged.dma_bytes_moved);
  EXPECT_NEAR(dma_seconds, run.report.merged.dma_time_seconds,
              1e-12 + 1e-9 * run.report.merged.dma_time_seconds);
}

// ---------------- cancellation ----------------

TEST(TelemetryTest, CancelledStreamHasExactlyOneTerminalEvent) {
  Fixture f;
  auto prog = f.Compile();
  api::Engine engine(prog, f.weights, f.u280, FullTelemetry(1));
  // The victim cancels itself from inside its own first on_token callback
  // -- the reentrant mid-flight cancel the API contract allows.
  bool cancelled = false;
  api::StreamCallbacks callbacks;
  callbacks.on_token = [&](api::RequestHandle handle, std::int32_t, double) {
    if (!cancelled) {
      cancelled = true;
      ASSERT_TRUE(engine.Cancel(handle).ok());
    }
  };
  auto victim = engine.Submit(MakeRequest(4, 30, 0.0, 0), callbacks);
  auto other = engine.Submit(MakeRequest(4, 6, 0.0, 1));
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(other.ok());
  engine.RunToCompletion();
  ASSERT_TRUE(cancelled);
  auto report = engine.Finish();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  std::int64_t cancels = 0;
  std::int64_t finishes = 0;
  for (const RequestEvent& e : engine.telemetry()->trace()->events()) {
    if (e.stream != 0) continue;
    if (e.kind == RequestEventKind::kCancel) ++cancels;
    if (e.kind == RequestEventKind::kFinish) ++finishes;
  }
  EXPECT_EQ(cancels, 1);
  EXPECT_EQ(finishes, 0);
}

// ---------------- one clock, one TPOT ----------------

TEST(TelemetryTest, TpotHistogramSumsTheOutcomesTimePerOutputToken) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 6);
  reqs[0].max_new_tokens = 1;  // a one-token answer still has a TPOT
  reqs[1].max_new_tokens = 2;
  auto run = RunEngine(f, prog, reqs, FullTelemetry(2));
  const MetricSeries* tpot = nullptr;
  for (const MetricSeries& s : run.engine->telemetry()->metrics()->series()) {
    if (s.name == "speedllm_request_tpot_seconds") tpot = &s;
  }
  ASSERT_NE(tpot, nullptr);
  const serving::RequestOutcome& one = run.report.merged.outcomes[0];
  ASSERT_EQ(one.generated.size(), 1u);
  EXPECT_GT(one.time_per_output_token(), 0.0);
  double want = 0.0;
  std::int64_t answered = 0;
  for (const serving::RequestOutcome& o : run.report.merged.outcomes) {
    if (o.generated.empty()) continue;
    want += o.time_per_output_token();
    ++answered;
  }
  EXPECT_EQ(tpot->observations, answered);
  // Only the summation order may differ.
  EXPECT_NEAR(tpot->sum, want, 1e-12 * want);
}

TEST(TelemetryTest, BusyCyclesAreTheSumOfTheTraceTickSpans) {
  Fixture f;
  auto prog = f.Compile();
  auto run = RunEngine(f, prog, MixedTrace(f.config, 8), FullTelemetry(2));
  std::vector<std::uint64_t> spans(2, 0);
  for (const RequestEvent& e : run.engine->telemetry()->trace()->events()) {
    if (e.kind != RequestEventKind::kTick) continue;
    const auto start = f.u280.seconds_to_cycles(e.start_seconds);
    const auto end = f.u280.seconds_to_cycles(e.end_seconds);
    ASSERT_TRUE(start && end);
    spans[static_cast<std::size_t>(e.card)] += *end - *start;
  }
  for (int card = 0; card < 2; ++card) {
    EXPECT_GT(spans[static_cast<std::size_t>(card)], 0u) << "card " << card;
    EXPECT_EQ(run.engine->shard(card).busy_cycles(),
              spans[static_cast<std::size_t>(card)])
        << "card " << card;
  }
}

// ---------------- export shapes ----------------

TEST(TelemetryTest, ChromeTraceAndPrometheusShapes) {
  Fixture f;
  auto prog = f.Compile();
  auto run = RunEngine(f, prog, MixedTrace(f.config, 6), FullTelemetry(2));
  ASSERT_NE(run.engine->telemetry(), nullptr);

  const std::string trace =
      ToChromeTraceJson(*run.engine->telemetry()->trace());
  EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(trace.find("\"card0 sched\""), std::string::npos);
  EXPECT_NE(trace.find("\"card1 sched\""), std::string::npos);
  EXPECT_NE(trace.find("\"card0 dma\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"tick\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"queue\",\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"decode\",\"ph\":\"b\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"s\",\"cat\":\"request-flow\""),
            std::string::npos);

  const std::string prom =
      ToPrometheusText(*run.engine->telemetry()->metrics());
  EXPECT_NE(prom.find("# TYPE speedllm_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE speedllm_decode_tokens_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE speedllm_request_ttft_seconds histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("speedllm_request_ttft_seconds_bucket{le=\"+Inf\"} 6"),
            std::string::npos);
  EXPECT_NE(prom.find("{card=\"1\"}"), std::string::npos);

  // Kernel merge: spans land under the kernel process on the same
  // microsecond timebase.
  sim::TraceRecorder kernel;
  kernel.set_enabled(true);
  kernel.Record(sim::TraceSpan{1, "mpe", 300, 600, 0, 42, "matvec"});
  const std::string merged = ToChromeTraceJson(
      *run.engine->telemetry()->trace(), &kernel, f.u280.clock_mhz);
  EXPECT_NE(merged.find("\"name\":\"kernel\""), std::string::npos);
  EXPECT_NE(merged.find("\"name\":\"matvec\""), std::string::npos);
}

TEST(TelemetryTest, EngineWritersProduceNonEmptyFiles) {
  Fixture f;
  auto prog = f.Compile();
  auto run = RunEngine(f, prog, MixedTrace(f.config, 4), FullTelemetry(1));

  auto file_size = [](const std::string& path) -> long {
    std::FILE* fp = std::fopen(path.c_str(), "rb");
    if (fp == nullptr) return -1;
    std::fseek(fp, 0, SEEK_END);
    const long size = std::ftell(fp);
    std::fclose(fp);
    return size;
  };
  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "telemetry_trace.json";
  const std::string metrics_path = dir + "telemetry_metrics.json";
  const std::string prom_path = dir + "telemetry_metrics.prom";
  ASSERT_TRUE(run.engine->WriteTrace(trace_path).ok());
  ASSERT_TRUE(run.engine->WriteMetricsJson(metrics_path).ok());
  ASSERT_TRUE(run.engine->WriteMetricsPrometheus(prom_path).ok());
  EXPECT_GT(file_size(trace_path), 0);
  EXPECT_GT(file_size(metrics_path), 0);
  EXPECT_GT(file_size(prom_path), 0);
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
  std::remove(prom_path.c_str());
}

}  // namespace
}  // namespace speedllm::obs

// SpeedLLM bench: continuous batching vs one-token-per-tick serving.
//
// Sweeps offered load (as a fraction of the card's single-stream decode
// saturation rate) x batch policy, then KV block size under a deliberately
// tight pool, and reports aggregate tokens/s, TTFT/latency percentiles,
// batch width and preemption counts. The headline check: at >= 4
// concurrent requests the grouped-step scheduler must beat the width-1
// baseline (one token per tick, no prefix sharing -- the sequential
// server a grouped launch replaces) on aggregate tokens/s while keeping
// p99 TTFT bounded, without the KV pool ever outgrowing its HBM budget.
// Every run is one api::Engine; the JSON reports the width-1 baseline as
// width1_tokens_per_second.
//
//   ./bench/bench_serving_batching [--preset tiny] [--requests 24]
//                                  [--seed 7] [--gen 12] [--json out.json]
//                                  [--trace-out trace.json]
//                                  [--metrics-out metrics.json]
//
// --json writes {"bench": "serving_batching", "metrics": {...}} for the
// CI artifact upload and the tools/check_bench.py regression gate.
// --trace-out dumps the closed-loop run's lifecycle trace (merged with a
// one-token kernel trace excerpt) as Chrome Trace Event JSON for
// ui.perfetto.dev; --metrics-out dumps the tick-sampled metrics JSON
// plus a Prometheus text sibling (same path + ".prom"). Both imply a
// telemetry-instrumented closed-loop rerun, which the bench times
// against the uninstrumented run anyway to report
// telemetry_overhead_ratio (host wall-clock on / off).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "accel/executor.hpp"
#include "api/engine.hpp"
#include "bench_util.hpp"
#include "compiler/compiler.hpp"
#include "serving/workload.hpp"

using namespace speedllm;

namespace {

struct RunResult {
  std::string label;
  serving::ServingReport report;
};

/// The baseline scheduler: one sequence, one token per tick, no prefix
/// sharing -- every token pays a full sequential forward.
serving::SchedulerConfig Width1() {
  serving::SchedulerConfig config;
  config.max_batch_seqs = 1;
  config.max_batch_tokens = 1;
  config.enable_prefix_cache = false;
  return config;
}

StatusOr<serving::ServingReport> RunOnce(
    const accel::Program& program, const llama::Weights& weights,
    const hw::U280Config& u280, const std::vector<serving::ServingRequest>& reqs,
    serving::SchedulerConfig config = {}) {
  api::EngineConfig engine_config;
  engine_config.scheduler = std::move(config);
  // Greedy: identical streams across schedulers.
  engine_config.sampler.temperature = 0.0f;
  SPEEDLLM_ASSIGN_OR_RETURN(
      serving::ClusterReport report,
      bench::ServeTrace(program, weights, u280, std::move(engine_config),
                        reqs));
  return std::move(report.merged);
}

void AddRow(Table& table, const std::string& rate_label,
            const RunResult& run) {
  const auto& r = run.report;
  table.AddRow();
  table.Cell(rate_label);
  table.Cell(run.label);
  table.Cell(r.device_tokens_per_second, 1);
  table.Cell(r.mean_ttft() * 1e3, 2);
  table.Cell(r.ttft_percentile(0.99) * 1e3, 2);
  table.Cell(r.latency_percentile(0.99) * 1e3, 2);
  table.Cell(r.mean_batch_width, 2);
  table.Cell(r.preemptions);
}

}  // namespace

int main(int argc, char** argv) {
  auto cl_or = CommandLine::Parse(
      argc, argv,
      {"preset", "requests", "seed", "gen", "json", "trace-out",
       "metrics-out"});
  if (!cl_or.ok()) {
    std::fprintf(stderr, "%s\n", cl_or.status().ToString().c_str());
    return 1;
  }
  const CommandLine& cl = cl_or.value();
  auto preset = bench::PresetFromFlag(cl.GetString("preset", "tiny"));
  if (!preset.ok()) {
    std::fprintf(stderr, "%s\n", preset.status().ToString().c_str());
    return 1;
  }
  llama::ModelConfig config = *preset;
  const int n_requests = static_cast<int>(cl.GetInt("requests", 24));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(cl.GetInt("seed", 7));
  const int gen = static_cast<int>(cl.GetInt("gen", 12));

  llama::Weights weights =
      llama::GenerateSyntheticWeights(config, bench::kWeightSeed);
  auto u280 = hw::U280Config::Default();
  auto compiled = compiler::Compile(
      config, runtime::OptionsFor(runtime::Variant::kSpeedLLM), u280);
  if (!compiled.ok()) {
    std::fprintf(stderr, "%s\n", compiled.status().ToString().c_str());
    return 1;
  }
  const accel::Program& program = compiled->program;

  // Probe the single-stream rate so offered load is model-independent.
  std::vector<serving::ServingRequest> probe = {serving::ServingRequest{
      bench::MakePrompt(config, 8), gen, 0.0, {}}};
  auto probe_report = RunOnce(program, weights, u280, probe, Width1());
  if (!probe_report.ok()) {
    std::fprintf(stderr, "%s\n", probe_report.status().ToString().c_str());
    return 1;
  }
  const double tokens_per_req = 8.0 + gen;
  const double saturation_rps =
      probe_report->device_tokens_per_second / tokens_per_req;

  std::printf("== continuous batching vs width-1: %d requests, %s ==\n",
              n_requests, config.ToString().c_str());
  std::printf("single-stream saturation: %.1f req/s\n\n", saturation_rps);

  serving::WorkloadConfig wc;
  wc.num_requests = n_requests;
  wc.min_prompt_tokens = 4;
  wc.max_prompt_tokens = 12;
  wc.min_new_tokens = gen / 2;
  wc.max_new_tokens = gen;
  wc.vocab_size = config.vocab_size;

  Table table({"load", "scheduler", "tok_per_s", "mean_ttft_ms",
               "p99_ttft_ms", "p99_latency_ms", "mean_width", "preempt"});
  double best_speedup = 0.0;
  double best_batched_tps = 0.0;
  double best_width1_tps = 0.0;
  for (double load_factor : {0.5, 1.0, 2.0, 4.0}) {
    wc.rate_rps = saturation_rps * load_factor;
    Rng rng(seed);
    auto reqs = serving::PoissonTrace(rng, wc);
    char rate_label[32];
    std::snprintf(rate_label, sizeof(rate_label), "%.1fx", load_factor);

    std::vector<RunResult> runs;
    auto width1 = RunOnce(program, weights, u280, reqs, Width1());
    if (!width1.ok()) {
      std::fprintf(stderr, "%s\n", width1.status().ToString().c_str());
      return 1;
    }
    runs.push_back({"width-1", std::move(width1).value()});
    for (serving::BatchPolicy policy :
         {serving::BatchPolicy::kFcfs,
          serving::BatchPolicy::kShortestPromptFirst,
          serving::BatchPolicy::kDecodePriority}) {
      serving::SchedulerConfig sc;
      sc.policy = policy;
      auto report = RunOnce(program, weights, u280, reqs, sc);
      if (!report.ok()) {
        std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
        return 1;
      }
      runs.push_back({std::string(serving::BatchPolicyName(policy)),
                      std::move(report).value()});
    }
    for (const RunResult& run : runs) AddRow(table, rate_label, run);
    const double speedup = runs[1].report.device_tokens_per_second /
                           runs[0].report.device_tokens_per_second;
    best_speedup = std::max(best_speedup, speedup);
    best_width1_tps =
        std::max(best_width1_tps, runs[0].report.device_tokens_per_second);
    for (std::size_t r = 1; r < runs.size(); ++r) {
      best_batched_tps = std::max(best_batched_tps,
                                  runs[r].report.device_tokens_per_second);
    }
  }
  table.Print();

  // ---- block-size sweep under a deliberately tight KV pool.
  std::printf("\n== KV block size under memory pressure ==\n\n");
  wc.rate_rps = saturation_rps * 4.0;
  Rng rng(seed);
  auto reqs = serving::PoissonTrace(rng, wc);
  Table blocks({"block_tokens", "pool_blocks", "tok_per_s", "p99_latency_ms",
                "peak_blocks", "preempt", "recomputed"});
  const std::uint32_t bytes_per_token = serving::KvBytesPerToken(config);
  // Room for ~1.5 full-length sequences: sequences admit on their prompt
  // footprint, grow past it, and collide -- exactly the regime where
  // block granularity matters.
  const std::uint64_t pool_bytes =
      3ull * static_cast<std::uint64_t>(wc.max_prompt_tokens + gen) *
      bytes_per_token / 2;
  const std::uint64_t max_request_tokens =
      static_cast<std::uint64_t>(wc.max_prompt_tokens) +
      static_cast<std::uint64_t>(gen);
  for (std::uint32_t block_tokens : {2u, 8u, 32u}) {
    serving::SchedulerConfig sc;
    sc.block_size_tokens = block_tokens;
    // Keep the pool tight, but never below the blocks the largest
    // possible request needs outright (at --gen 8 the 1.5-sequence pool
    // is 30 tokens, which would round down to zero 32-token blocks and
    // make every request unservable).
    const std::uint64_t need_blocks =
        (max_request_tokens + block_tokens - 1) / block_tokens;
    sc.kv_pool_bytes = std::max(
        pool_bytes, need_blocks * block_tokens * bytes_per_token);
    auto report = RunOnce(program, weights, u280, reqs, sc);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    blocks.AddRow();
    blocks.Cell(static_cast<std::int64_t>(block_tokens));
    blocks.Cell(report->kv_block_capacity);
    blocks.Cell(report->device_tokens_per_second, 1);
    blocks.Cell(report->latency_percentile(0.99) * 1e3, 2);
    blocks.Cell(report->peak_kv_blocks);
    blocks.Cell(report->preemptions);
    blocks.Cell(report->recomputed_tokens);
    if (static_cast<std::uint64_t>(report->peak_kv_blocks) *
            report->kv_block_bytes >
        report->kv_capacity_bytes) {
      std::fprintf(stderr, "KV pool exceeded its HBM budget!\n");
      return 1;
    }
  }
  blocks.Print();

  std::printf(
      "\nGrouped decode streams the weights once per step instead of once "
      "per sequence: continuous batching peaks at %.2fx the width-1 "
      "throughput on this trace. Small blocks waste less capacity (fewer "
      "preemptions under pressure); large blocks shorten block tables.\n",
      best_speedup);

  // ---- open-loop vs closed-loop tail latency (api::Engine streaming).
  //
  // The Poisson sweeps above are open-loop: arrivals ignore completions,
  // so past saturation the queue -- and tail latency -- grows without
  // bound. Real users are closed-loop: each waits for its answer plus a
  // think-time gap before asking again, so offered load self-throttles.
  // Same request mix, same card, drastically different p99.
  std::printf("\n== open-loop vs closed-loop at matched demand ==\n\n");
  const std::int32_t cl_users = 8;
  const std::int32_t cl_turns = std::max(1, n_requests / cl_users);
  serving::ClosedLoopConfig loop;
  loop.num_users = cl_users;
  loop.requests_per_user = cl_turns;
  // Users think for ~2 mean service times between turns.
  loop.mean_think_seconds = 2.0 * tokens_per_req /
                            probe_report->device_tokens_per_second;
  loop.min_prompt_tokens = wc.min_prompt_tokens;
  loop.max_prompt_tokens = wc.max_prompt_tokens;
  loop.min_new_tokens = wc.min_new_tokens;
  loop.max_new_tokens = wc.max_new_tokens;
  loop.vocab_size = wc.vocab_size;

  // One closed-loop run, parameterized by the telemetry switches. The
  // engine is returned alive so the instrumented run can export its
  // trace/metrics after the report is harvested.
  struct ClosedRun {
    std::unique_ptr<api::Engine> engine;
    serving::ServingReport report;
    double wall_seconds = 0.0;
  };
  auto run_closed = [&](const obs::TelemetryConfig& telemetry) -> ClosedRun {
    const auto wall_start = std::chrono::steady_clock::now();
    api::EngineConfig engine_config;
    engine_config.sampler.temperature = 0.0f;
    engine_config.telemetry = telemetry;
    ClosedRun run;
    run.engine =
        std::make_unique<api::Engine>(program, weights, u280, engine_config);
    api::Engine& engine = *run.engine;
    serving::ClosedLoopClientPool pool(seed, loop);
    std::function<void(std::int32_t, serving::ServingRequest)> issue =
        [&](std::int32_t user, serving::ServingRequest request) {
          api::StreamCallbacks callbacks;
          callbacks.on_finish = [&, user](api::RequestHandle,
                                          api::FinishReason,
                                          const serving::RequestOutcome&) {
            if (auto next = pool.OnFinish(user, engine.now_seconds())) {
              issue(user, std::move(*next));
            }
          };
          auto handle =
              engine.Submit(std::move(request), std::move(callbacks));
          if (!handle.ok()) {
            std::fprintf(stderr, "%s\n", handle.status().ToString().c_str());
            std::exit(1);
          }
        };
    for (std::int32_t u = 0; u < cl_users; ++u) {
      if (auto first = pool.StartUser(u)) issue(u, std::move(*first));
    }
    engine.RunToCompletion();
    auto closed_or = engine.Finish();
    if (!closed_or.ok()) {
      std::fprintf(stderr, "%s\n", closed_or.status().ToString().c_str());
      std::exit(1);
    }
    run.report = std::move(closed_or->merged);
    run.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - wall_start)
                           .count();
    return run;
  };

  // Host-cost measurement: min wall-clock of a few reps each way (min is
  // the noise-robust statistic for "how fast can this go"). Telemetry
  // must never perturb the simulation itself -- hard-fail if the
  // simulated reports disagree.
  constexpr int kOverheadReps = 3;
  obs::TelemetryConfig telemetry_on;
  telemetry_on.enable_tracing = true;
  telemetry_on.enable_metrics = true;
  ClosedRun plain = run_closed({});
  ClosedRun traced = run_closed(telemetry_on);
  double wall_off = plain.wall_seconds;
  double wall_on = traced.wall_seconds;
  for (int rep = 1; rep < kOverheadReps; ++rep) {
    wall_off = std::min(wall_off, run_closed({}).wall_seconds);
    ClosedRun r = run_closed(telemetry_on);
    wall_on = std::min(wall_on, r.wall_seconds);
    traced = std::move(r);  // keep a live instrumented engine for export
  }
  if (plain.report.makespan_seconds != traced.report.makespan_seconds ||
      plain.report.total_tokens != traced.report.total_tokens ||
      plain.report.ttft_percentile(0.99) !=
          traced.report.ttft_percentile(0.99)) {
    std::fprintf(stderr, "telemetry perturbed the simulated timeline!\n");
    return 1;
  }
  const double telemetry_overhead_ratio =
      wall_off > 0.0 ? wall_on / wall_off : 1.0;
  const serving::ServingReport& closed = plain.report;

  // The open-loop comparison offers the same number of requests at the
  // closed-loop run's realized rate -- without the feedback loop.
  serving::WorkloadConfig open_wc = wc;
  open_wc.num_requests = cl_users * cl_turns;
  open_wc.rate_rps = closed.makespan_seconds > 0.0
                         ? static_cast<double>(closed.outcomes.size()) /
                               closed.makespan_seconds
                         : saturation_rps;
  Rng open_rng(seed);
  auto open_reqs = serving::PoissonTrace(open_rng, open_wc);
  auto open = RunOnce(program, weights, u280, open_reqs);
  if (!open.ok()) {
    std::fprintf(stderr, "%s\n", open.status().ToString().c_str());
    return 1;
  }

  Table closed_table({"workload", "requests", "tok_per_s", "p99_ttft_ms",
                      "p99_latency_ms", "mean_width"});
  const auto add_loop_row = [&](const char* label,
                                const serving::ServingReport& r) {
    closed_table.AddRow();
    closed_table.Cell(label);
    closed_table.Cell(static_cast<std::int64_t>(r.outcomes.size()));
    closed_table.Cell(r.device_tokens_per_second, 1);
    closed_table.Cell(r.ttft_percentile(0.99) * 1e3, 2);
    closed_table.Cell(r.latency_percentile(0.99) * 1e3, 2);
    closed_table.Cell(r.mean_batch_width, 2);
  };
  add_loop_row("open-loop", *open);
  add_loop_row("closed-loop", closed);
  closed_table.Print();

  const double closed_tps = closed.device_tokens_per_second;
  const double closed_p99_ms = closed.latency_percentile(0.99) * 1e3;
  std::printf(
      "\nClosed-loop users (%d x %d turns, think ~%.2f ms) cap their own "
      "concurrency, so p99 latency stays bounded where the open-loop "
      "trace queues.\n",
      cl_users, cl_turns, loop.mean_think_seconds * 1e3);
  std::printf(
      "telemetry host overhead: %.2fx wall-clock with tracing+metrics on "
      "(%.1f ms vs %.1f ms, min of %d reps)\n",
      telemetry_overhead_ratio, wall_on * 1e3, wall_off * 1e3,
      kOverheadReps);

  // ---- telemetry export from the instrumented closed-loop run.
  const std::string trace_out = cl.GetString("trace-out", "");
  if (!trace_out.empty()) {
    // A one-token kernel trace excerpt rides along under its own
    // process so the serving timeline and the instruction schedule can
    // be eyeballed on one Perfetto timebase.
    accel::Executor kernel_exec(program, weights, u280);
    kernel_exec.EnableTrace(true);
    if (auto fwd = kernel_exec.Forward(5, 0); !fwd.ok()) {
      std::fprintf(stderr, "%s\n", fwd.status().ToString().c_str());
      return 1;
    }
    if (auto st = traced.engine->WriteTrace(trace_out, &kernel_exec.trace());
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote serving trace (+1-token kernel excerpt) to %s\n",
                trace_out.c_str());
  }
  const std::string metrics_out = cl.GetString("metrics-out", "");
  if (!metrics_out.empty()) {
    if (auto st = traced.engine->WriteMetricsJson(metrics_out); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    const std::string prom_out = metrics_out + ".prom";
    if (auto st = traced.engine->WriteMetricsPrometheus(prom_out);
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote metrics to %s (+ %s)\n", metrics_out.c_str(),
                prom_out.c_str());
  }

  const std::string json_path = cl.GetString("json", "");
  if (!json_path.empty() &&
      !bench::WriteBenchJson(
          json_path, "serving_batching",
          {{"batching_tokens_per_second", best_batched_tps},
           {"width1_tokens_per_second", best_width1_tps},
           {"batching_speedup", best_speedup},
           {"closed_loop_tokens_per_second", closed_tps},
           {"closed_loop_p99_latency_ms", closed_p99_ms},
           {"closed_loop_ttft_p50_ms", closed.ttft_percentile(0.50) * 1e3},
           {"closed_loop_ttft_p99_ms", closed.ttft_percentile(0.99) * 1e3},
           {"telemetry_overhead_ratio", telemetry_overhead_ratio}})) {
    return 1;
  }
  return best_speedup > 1.0 ? 0 : 1;
}

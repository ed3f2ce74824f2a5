// SpeedLLM example: open-loop load generator for the serving scheduler.
//
// Drives the continuous-batching api::Engine with a synthetic traffic
// scenario -- steady Poisson arrivals, bursty clumps, or a "rush hour"
// ramp -- and prints per-request percentiles plus scheduler internals
// (batch width, KV pool pressure, preemptions). This is the knob-turning
// companion to bench_serving's serving_batching experiment: one
// scenario, full detail.
//
//   ./examples/load_generator [--scenario steady|burst|rush]
//                             [--requests 24] [--load 2.0]
//                             [--policy fcfs|spf|decode] [--preset tiny]
//                             [--seed 11] [--kv-mib 0]
#include <cstdio>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "compiler/compiler.hpp"
#include "llama/tokenizer.hpp"
#include "serving/workload.hpp"

using namespace speedllm;

int main(int argc, char** argv) {
  auto cl_or = CommandLine::Parse(
      argc, argv,
      {"scenario", "requests", "load", "policy", "preset", "seed", "kv-mib"},
      {{"scenario", {"steady", "burst", "rush"}},
       {"policy", {"fcfs", "spf", "decode"}}});
  if (!cl_or.ok()) {
    std::fprintf(stderr, "%s\n", cl_or.status().ToString().c_str());
    return 1;
  }
  const CommandLine& cl = cl_or.value();
  const std::string scenario = cl.GetString("scenario", "burst");
  const int n_requests = static_cast<int>(cl.GetInt("requests", 24));
  const double load_factor = cl.GetDouble("load", 2.0);
  const std::string policy_name = cl.GetString("policy", "fcfs");
  const std::uint64_t seed = static_cast<std::uint64_t>(cl.GetInt("seed", 11));

  auto preset = llama::ModelConfig::FromName(cl.GetString("preset", "tiny"));
  if (!preset.ok()) {
    std::fprintf(stderr, "%s\n", preset.status().ToString().c_str());
    return 1;
  }
  llama::ModelConfig config = *preset;
  llama::Weights weights = llama::GenerateSyntheticWeights(config, 42);
  auto u280 = hw::U280Config::Default();
  auto compiled =
      compiler::Compile(config, compiler::CompilerOptions::SpeedLLM(), u280);
  if (!compiled.ok()) {
    std::fprintf(stderr, "%s\n", compiled.status().ToString().c_str());
    return 1;
  }

  // Offline serving: submit the whole trace up front, drain the clock,
  // harvest the report.
  const auto serve = [&](const serving::SchedulerConfig& scheduler,
                         const std::vector<serving::ServingRequest>& trace)
      -> StatusOr<serving::ClusterReport> {
    api::EngineConfig engine_config;
    engine_config.scheduler = scheduler;
    engine_config.sampler.temperature = 0.8f;
    engine_config.sampler.seed = 99;
    api::Engine engine(compiled->program, weights, u280, engine_config);
    for (const serving::ServingRequest& request : trace) {
      SPEEDLLM_ASSIGN_OR_RETURN(api::RequestHandle handle,
                                engine.Submit(request));
      (void)handle;
    }
    engine.RunToCompletion();
    return engine.Finish();
  };

  serving::SchedulerConfig sched_config;
  if (policy_name == "spf") {
    sched_config.policy = serving::BatchPolicy::kShortestPromptFirst;
  } else if (policy_name == "decode") {
    sched_config.policy = serving::BatchPolicy::kDecodePriority;
  }
  const std::uint64_t kv_mib =
      static_cast<std::uint64_t>(cl.GetInt("kv-mib", 0));
  if (kv_mib > 0) sched_config.kv_pool_bytes = kv_mib << 20;

  // Calibrate offered load against the single-stream decode rate: one
  // request on a width-1 scheduler (one token per tick).
  serving::SchedulerConfig width1;
  width1.max_batch_seqs = 1;
  width1.max_batch_tokens = 1;
  width1.enable_prefix_cache = false;
  std::vector<serving::ServingRequest> probe = {
      serving::ServingRequest{{llama::kBosToken, 300, 301, 302}, 12, 0.0, {}}};
  auto probe_report = serve(width1, probe);
  if (!probe_report.ok()) {
    std::fprintf(stderr, "%s\n", probe_report.status().ToString().c_str());
    return 1;
  }
  const double saturation_rps =
      probe_report->merged.device_tokens_per_second / 16.0;

  serving::WorkloadConfig wc;
  wc.num_requests = n_requests;
  wc.rate_rps = saturation_rps * load_factor;
  wc.min_prompt_tokens = 4;
  wc.max_prompt_tokens = 16;
  wc.min_new_tokens = 6;
  wc.max_new_tokens = 16;
  wc.vocab_size = config.vocab_size;

  Rng rng(seed);
  std::vector<serving::ServingRequest> reqs;
  if (scenario == "steady") {
    reqs = serving::PoissonTrace(rng, wc);
  } else if (scenario == "rush") {
    // Ramp: three Poisson segments at 0.5x / 2x / 4x the base load.
    double offset = 0.0;
    for (double mult : {0.5, 2.0, 4.0}) {
      serving::WorkloadConfig segment = wc;
      segment.num_requests = n_requests / 3;
      segment.rate_rps = wc.rate_rps * mult;
      auto part = serving::PoissonTrace(rng, segment);
      double last = offset;
      for (auto& r : part) {
        r.arrival_seconds += offset;
        last = r.arrival_seconds;
        reqs.push_back(std::move(r));
      }
      offset = last;
    }
  } else {
    wc.burst_size = 6;
    reqs = serving::BurstyTrace(rng, wc);
  }

  auto served = serve(sched_config, reqs);
  if (!served.ok()) {
    std::fprintf(stderr, "%s\n", served.status().ToString().c_str());
    return 1;
  }
  const serving::ServingReport* report = &served->merged;

  std::printf("== %s traffic, %zu requests at %.1fx saturation, policy %s ==\n\n",
              scenario.c_str(), reqs.size(), load_factor,
              std::string(serving::BatchPolicyName(sched_config.policy)).c_str());
  Table latency({"metric", "mean_ms", "p50_ms", "p95_ms", "p99_ms"});
  latency.AddRow();
  latency.Cell("ttft");
  latency.Cell(report->mean_ttft() * 1e3, 2);
  latency.Cell(report->ttft_percentile(0.50) * 1e3, 2);
  latency.Cell(report->ttft_percentile(0.95) * 1e3, 2);
  latency.Cell(report->ttft_percentile(0.99) * 1e3, 2);
  latency.AddRow();
  latency.Cell("latency");
  latency.Cell(report->mean_latency() * 1e3, 2);
  latency.Cell(report->latency_percentile(0.50) * 1e3, 2);
  latency.Cell(report->latency_percentile(0.95) * 1e3, 2);
  latency.Cell(report->latency_percentile(0.99) * 1e3, 2);
  latency.Print();

  std::printf("\nthroughput : %.1f tok/s over %s makespan\n",
              report->device_tokens_per_second,
              FormatSeconds(report->makespan_seconds).c_str());
  std::printf("scheduler  : %lld ticks, mean batch width %.2f\n",
              static_cast<long long>(report->ticks),
              report->mean_batch_width);
  std::printf("kv pool    : peak %lld / %lld blocks (%s budget), "
              "%lld preemptions, %lld recomputed tokens\n",
              static_cast<long long>(report->peak_kv_blocks),
              static_cast<long long>(report->kv_block_capacity),
              FormatBytes(report->kv_capacity_bytes).c_str(),
              static_cast<long long>(report->preemptions),
              static_cast<long long>(report->recomputed_tokens));
  return 0;
}

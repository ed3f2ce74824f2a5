// SpeedLLM example: multi-card cluster serving walkthrough.
//
// Serves one bursty request trace on an N-card api::Engine and prints
// the full per-card picture: which card served which request, per-card
// tokens/utilization/preemptions, rebalancer activity, and cluster-wide
// TTFT/TPOT/latency percentiles. The knob-turning companion to
// bench_serving's cluster_scaling experiment: one scenario, full detail.
//
//   ./examples/cluster_serving [--cards 4]
//                              [--placement rr|least|bestfit]
//                              [--policy fcfs|spf|decode]
//                              [--requests 32] [--load 6.0]
//                              [--preset tiny] [--seed 11] [--kv-mib 0]
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
  auto cl_or = CommandLine::Parse(argc, argv,
                                  {"cards", "placement", "policy", "requests",
                                   "load", "preset", "seed", "kv-mib"},
                                  {{"placement", {"rr", "least", "bestfit"}},
                                   {"policy", {"fcfs", "spf", "decode"}}});
  if (!cl_or.ok()) {
    std::fprintf(stderr, "%s\n", cl_or.status().ToString().c_str());
    return 1;
  }
  const CommandLine& cl = cl_or.value();
  const int cards = static_cast<int>(cl.GetInt("cards", 4));
  const int n_requests = static_cast<int>(cl.GetInt("requests", 32));
  const double load_factor = cl.GetDouble("load", 6.0);
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

  api::EngineConfig engine_config;
  const std::string placement = cl.GetString("placement", "rr");
  if (placement == "least") {
    engine_config.placement = serving::PlacementPolicy::kLeastOutstandingTokens;
  } else if (placement == "bestfit") {
    engine_config.placement = serving::PlacementPolicy::kBestFitFreeKv;
  }
  const std::string policy = cl.GetString("policy", "fcfs");
  if (policy == "spf") {
    engine_config.scheduler.policy =
        serving::BatchPolicy::kShortestPromptFirst;
  } else if (policy == "decode") {
    engine_config.scheduler.policy = serving::BatchPolicy::kDecodePriority;
  }
  const std::uint64_t kv_mib =
      static_cast<std::uint64_t>(cl.GetInt("kv-mib", 0));
  if (kv_mib > 0) engine_config.scheduler.kv_pool_bytes = kv_mib << 20;

  // Calibrate offered load against one card's batched saturation rate.
  std::vector<serving::ServingRequest> probe;
  for (int i = 0; i < 8; ++i) {
    probe.push_back(serving::ServingRequest{
        {llama::kBosToken, 300, 301, 302, 303, 304, 305, 306}, 12, 0.0, {}});
  }
  engine_config.sampler.temperature = 0.8f;
  engine_config.sampler.seed = 99;
  // Offline serving: submit the whole trace up front, drain the clock,
  // harvest the merged + per-card report.
  const auto serve = [&](int num_cards,
                         const std::vector<serving::ServingRequest>& trace)
      -> StatusOr<serving::ClusterReport> {
    engine_config.num_cards = num_cards;
    api::Engine engine(compiled->program, weights, u280, engine_config);
    for (const serving::ServingRequest& request : trace) {
      SPEEDLLM_ASSIGN_OR_RETURN(api::RequestHandle handle,
                                engine.Submit(request));
      (void)handle;
    }
    engine.RunToCompletion();
    return engine.Finish();
  };
  auto probe_report = serve(1, probe);
  if (!probe_report.ok()) {
    std::fprintf(stderr, "%s\n", probe_report.status().ToString().c_str());
    return 1;
  }
  const double saturation_rps =
      probe_report->merged.device_tokens_per_second / 20.0;

  serving::WorkloadConfig wc;
  wc.num_requests = n_requests;
  wc.rate_rps = saturation_rps * load_factor;
  wc.min_prompt_tokens = 4;
  wc.max_prompt_tokens = 12;
  wc.min_new_tokens = 6;
  wc.max_new_tokens = 14;
  wc.vocab_size = config.vocab_size;
  Rng rng(seed);
  auto reqs = serving::BurstyTrace(rng, wc);

  auto report_or = serve(cards, reqs);
  if (!report_or.ok()) {
    std::fprintf(stderr, "%s\n", report_or.status().ToString().c_str());
    return 1;
  }
  const serving::ClusterReport& report = *report_or;

  std::printf("== %d-card cluster, %s placement, %s batching: %d bursty "
              "requests at %.1fx one-card saturation ==\n\n",
              cards,
              std::string(serving::PlacementPolicyName(
                  engine_config.placement)).c_str(),
              std::string(serving::BatchPolicyName(
                  engine_config.scheduler.policy)).c_str(),
              n_requests, load_factor);

  Table per_card({"card", "requests", "tokens", "tok_per_s", "util",
                  "mean_width", "preempt", "peak_kv_blocks"});
  for (std::size_t c = 0; c < report.shard_reports.size(); ++c) {
    const serving::ServingReport& shard = report.shard_reports[c];
    std::int64_t served = 0;
    for (std::int32_t s : report.shard_of_request) {
      if (s == static_cast<std::int32_t>(c)) ++served;
    }
    per_card.AddRow();
    per_card.Cell(static_cast<std::int64_t>(c));
    per_card.Cell(served);
    per_card.Cell(shard.total_tokens);
    per_card.Cell(shard.device_tokens_per_second, 1);
    per_card.Cell(report.card_utilization[c], 2);
    per_card.Cell(shard.mean_batch_width, 2);
    per_card.Cell(shard.preemptions);
    per_card.Cell(shard.peak_kv_blocks);
  }
  per_card.Print();

  const serving::ServingReport& m = report.merged;
  std::printf("\ncluster: %.1f tok/s aggregate over %.3f s makespan, "
              "imbalance %.2f, mean utilization %.2f, %lld rebalanced, "
              "%lld preemptions\n",
              m.device_tokens_per_second, m.makespan_seconds,
              report.imbalance(), report.mean_utilization(),
              static_cast<long long>(report.rebalanced_requests),
              static_cast<long long>(m.preemptions));
  std::printf("latency: ttft p50/p95/p99 = %.2f/%.2f/%.2f ms, "
              "tpot p50/p99 = %.3f/%.3f ms, e2e p99 = %.2f ms\n",
              m.ttft_percentile(0.50) * 1e3, m.ttft_percentile(0.95) * 1e3,
              m.ttft_percentile(0.99) * 1e3, m.tpot_percentile(0.50) * 1e3,
              m.tpot_percentile(0.99) * 1e3,
              m.latency_percentile(0.99) * 1e3);
  return 0;
}

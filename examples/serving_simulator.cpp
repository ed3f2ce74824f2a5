// SpeedLLM example: multi-request edge serving.
//
// The paper motivates SpeedLLM with edge servers handling real-time
// interaction. This example simulates one U280 card serving a burst of
// concurrent chat requests and compares the full SpeedLLM variant
// against the unoptimized accelerator on time-to-first-token and
// request latency. Each variant serves the burst offline through
// api::Engine (continuous batching, paged KV pool): submit every request
// up front, drain the clock, harvest the report.
//
//   ./examples/serving_simulator [--requests 4] [--gen 12] [--preset tiny]
#include <cstdio>

#include "api/engine.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "compiler/compiler.hpp"
#include "llama/tokenizer.hpp"

using namespace speedllm;

int main(int argc, char** argv) {
  auto cl_or = CommandLine::Parse(argc, argv, {"requests", "gen", "preset"});
  if (!cl_or.ok()) {
    std::fprintf(stderr, "%s\n", cl_or.status().ToString().c_str());
    return 1;
  }
  const CommandLine& cl = cl_or.value();
  const int n_requests = static_cast<int>(cl.GetInt("requests", 4));
  const int gen = static_cast<int>(cl.GetInt("gen", 12));
  auto preset =
      llama::ModelConfig::FromName(cl.GetString("preset", "stories15m"));
  if (!preset.ok()) {
    std::fprintf(stderr, "%s\n", preset.status().ToString().c_str());
    return 1;
  }
  llama::ModelConfig config = *preset;
  llama::Weights weights = llama::GenerateSyntheticWeights(config, 42);
  auto u280 = hw::U280Config::Default();

  // A burst: requests arrive 2 ms apart with small varied prompts.
  std::vector<serving::ServingRequest> requests;
  Rng rng(11);
  for (int i = 0; i < n_requests; ++i) {
    serving::ServingRequest req;
    req.prompt.push_back(llama::kBosToken);
    const int prompt_len = 4 + static_cast<int>(rng.NextBounded(8));
    for (int t = 1; t < prompt_len; ++t) {
      req.prompt.push_back(static_cast<std::int32_t>(
          259 + rng.NextBounded(static_cast<std::uint64_t>(
                    config.vocab_size - 259))));
    }
    req.max_new_tokens = gen;
    req.arrival_seconds = i * 2e-3;
    requests.push_back(std::move(req));
  }

  std::printf("== edge serving: %d concurrent requests, %d tokens each ==\n\n",
              n_requests, gen);
  Table table({"variant", "makespan_ms", "device_tok_per_s", "mean_ttft_ms",
               "mean_latency_ms", "worst_latency_ms"});
  for (const compiler::CompilerOptions& v :
       {compiler::CompilerOptions::Unoptimized(),
        compiler::CompilerOptions::SpeedLLM()}) {
    auto cr = compiler::Compile(config, v, u280);
    if (!cr.ok()) {
      std::fprintf(stderr, "%s\n", cr.status().ToString().c_str());
      return 1;
    }
    api::EngineConfig engine_config;
    engine_config.sampler.temperature = 0.8f;
    engine_config.sampler.seed = 99;
    api::Engine engine(cr->program, weights, u280, engine_config);
    for (const serving::ServingRequest& request : requests) {
      if (auto handle = engine.Submit(request); !handle.ok()) {
        std::fprintf(stderr, "%s\n", handle.status().ToString().c_str());
        return 1;
      }
    }
    engine.RunToCompletion();
    auto cluster = engine.Finish();
    if (!cluster.ok()) {
      std::fprintf(stderr, "%s\n", cluster.status().ToString().c_str());
      return 1;
    }
    const serving::ServingReport* report = &cluster->merged;
    table.AddRow();
    table.Cell(v.name);
    table.Cell(report->makespan_seconds * 1e3, 2);
    table.Cell(report->device_tokens_per_second, 1);
    table.Cell(report->mean_ttft() * 1e3, 2);
    table.Cell(report->mean_latency() * 1e3, 2);
    table.Cell(report->latency_percentile(0.99) * 1e3, 2);
  }
  table.Print();
  std::printf(
      "\nUnder concurrency every per-token cycle saved compounds: the "
      "SpeedLLM variant improves tail latency by roughly its single-stream "
      "speedup.\n");
  return 0;
}

// SpeedLLM -- shared helpers for the benchmark harnesses.
//
// The bench binaries reproduce the paper's figures (bench_paper), the
// serving experiments (bench_serving), a long-run soak (bench_sim_scale)
// and kernel microbenchmarks (bench_kernels), indexed in
// docs/BENCHMARKS.md. The helpers here write the JSON result, build
// synthetic prompts for the synthetic weights (see docs/ARCHITECTURE.md
// "Substitutions"), and serve a request trace through api::Engine.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "llama/sampler.hpp"
#include "llama/tokenizer.hpp"
#include "llama/weights.hpp"

namespace speedllm::bench {

inline constexpr std::uint64_t kWeightSeed = 20240517;

/// Machine-readable bench result: named scalar metrics written as JSON
/// for CI artifacts and the tools/check_bench.py perf-regression gate.
/// The schema is {"bench": <name>, "metrics": {<key>: <value>, ...}}.
/// Returns false (after printing to stderr) when the file cannot be
/// written, so benches can fail the job instead of silently skipping the
/// gate.
inline bool WriteBenchJson(
    const std::string& path, const std::string& bench_name,
    const std::vector<std::pair<std::string, double>>& metrics) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write bench JSON to %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"metrics\": {",
               bench_name.c_str());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": %.6f", i == 0 ? "" : ",",
                 metrics[i].first.c_str(), metrics[i].second);
  }
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);
  return true;
}

/// Deterministic prompt token ids (synthetic "story opening").
inline std::vector<std::int32_t> MakePrompt(const llama::ModelConfig& config,
                                            std::int32_t length) {
  std::vector<std::int32_t> prompt;
  prompt.reserve(length);
  prompt.push_back(llama::kBosToken);
  Rng rng(977);
  for (std::int32_t i = 1; i < length; ++i) {
    prompt.push_back(static_cast<std::int32_t>(
        259 + rng.NextBounded(static_cast<std::uint64_t>(
                  config.vocab_size - 259))));
  }
  return prompt;
}

/// Serves `requests` through one api::Engine over `cards` (a
/// hw::U280Config or hw::MultiCardConfig) built from `config`: submits
/// the whole trace up front, drains the clock, and returns the harvested
/// report. The first rejected Submit's status is returned as is.
template <typename Cards>
StatusOr<serving::ClusterReport> ServeTrace(
    const accel::Program& program, const llama::Weights& weights,
    const Cards& cards, api::EngineConfig config,
    const std::vector<serving::ServingRequest>& requests) {
  api::Engine engine(program, weights, cards, std::move(config));
  for (const serving::ServingRequest& request : requests) {
    SPEEDLLM_ASSIGN_OR_RETURN(api::RequestHandle handle,
                              engine.Submit(request));
    (void)handle;
  }
  engine.RunToCompletion();
  return engine.Finish();
}

/// Device tokens/s of one default-configured card serving eight
/// simultaneous requests (8-token prompt, `gen` new tokens each): the
/// batched saturation rate benches scale their offered load against.
inline StatusOr<double> ProbeCardTokensPerSecond(
    const accel::Program& program, const llama::Weights& weights,
    const hw::U280Config& u280, const llama::SamplerConfig& sampler,
    std::int32_t gen) {
  std::vector<serving::ServingRequest> probe;
  for (int i = 0; i < 8; ++i) {
    probe.push_back(serving::ServingRequest{MakePrompt(weights.config, 8),
                                            gen, 0.0, {}});
  }
  api::EngineConfig config;
  config.sampler = sampler;
  SPEEDLLM_ASSIGN_OR_RETURN(serving::ClusterReport report,
                            ServeTrace(program, weights, u280, config, probe));
  return report.merged.device_tokens_per_second;
}

}  // namespace speedllm::bench

// SpeedLLM bench: multi-card cluster scaling curves.
//
// Drives one saturating request trace through api::Engine at
// 1/2/4/8 cards for every placement policy and reports aggregate
// tokens/s, speedup over one card, per-card imbalance and utilization,
// and rebalancer activity. The headline check: at saturating load the
// 4-card cluster must deliver >= 3x the single-card aggregate tokens/s
// (the router and shared clock may not eat the scale-out win), and token
// streams must be identical at every card count.
//
//   ./bench/bench_cluster_scaling [--preset tiny] [--requests 96]
//                                 [--seed 7] [--gen 12] [--load 16.0]
//                                 [--json out.json]
//
// --json writes {"bench": "cluster_scaling", "metrics": {...}} for the
// CI artifact upload and the tools/check_bench.py regression gate.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "compiler/compiler.hpp"
#include "serving/cluster.hpp"
#include "serving/workload.hpp"

using namespace speedllm;

int main(int argc, char** argv) {
  auto cl_or = CommandLine::Parse(
      argc, argv, {"preset", "requests", "seed", "gen", "load", "json"});
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
  const int n_requests = static_cast<int>(cl.GetInt("requests", 96));
  const std::uint64_t seed = static_cast<std::uint64_t>(cl.GetInt("seed", 7));
  const int gen = static_cast<int>(cl.GetInt("gen", 12));
  const double load_factor = cl.GetDouble("load", 16.0);

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

  llama::SamplerConfig sampler;
  sampler.temperature = 0.0f;  // greedy: identical streams at any width

  // Probe the single-card batched saturation rate so the offered load is
  // model-independent and genuinely saturating at `load_factor` cards.
  auto card_tps =
      bench::ProbeCardTokensPerSecond(program, weights, u280, sampler, gen);
  if (!card_tps.ok()) {
    std::fprintf(stderr, "%s\n", card_tps.status().ToString().c_str());
    return 1;
  }
  const double tokens_per_req = 8.0 + gen;
  const double card_saturation_rps = *card_tps / tokens_per_req;

  serving::WorkloadConfig wc;
  wc.num_requests = n_requests;
  wc.rate_rps = card_saturation_rps * load_factor;
  wc.min_prompt_tokens = 4;
  wc.max_prompt_tokens = 12;
  wc.min_new_tokens = gen / 2;
  wc.max_new_tokens = gen;
  wc.vocab_size = config.vocab_size;
  Rng rng(seed);
  const auto reqs = serving::PoissonTrace(rng, wc);

  std::printf(
      "== cluster scaling: %d requests at %.1fx single-card saturation, "
      "%s ==\n\n",
      n_requests, load_factor, config.ToString().c_str());

  Table table({"policy", "cards", "tok_per_s", "speedup", "p99_ttft_ms",
               "p99_tpot_ms", "imbalance", "util", "rebal", "preempt"});
  double best_4card_speedup = 0.0;
  double best_4card_tps = 0.0;
  double baseline_tps = 0.0;
  std::vector<std::vector<std::int32_t>> reference_streams;

  for (serving::PlacementPolicy policy :
       {serving::PlacementPolicy::kRoundRobin,
        serving::PlacementPolicy::kLeastOutstandingTokens,
        serving::PlacementPolicy::kBestFitFreeKv}) {
    double one_card_tps = 0.0;
    for (int cards : {1, 2, 4, 8}) {
      api::EngineConfig cluster_config;
      cluster_config.placement = policy;
      cluster_config.num_cards = cards;
      cluster_config.sampler = sampler;
      auto report =
          bench::ServeTrace(program, weights, u280, cluster_config, reqs);
      if (!report.ok()) {
        std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
        return 1;
      }

      // Token streams must be identical at every (policy, card count).
      if (reference_streams.empty()) {
        for (const auto& outcome : report->merged.outcomes) {
          reference_streams.push_back(outcome.generated);
        }
      } else {
        for (std::size_t i = 0; i < reference_streams.size(); ++i) {
          if (report->merged.outcomes[i].generated != reference_streams[i]) {
            std::fprintf(stderr,
                         "token stream diverged: policy %s, %d cards, "
                         "request %zu\n",
                         std::string(serving::PlacementPolicyName(policy))
                             .c_str(),
                         cards, i);
            return 1;
          }
        }
      }

      const double tps = report->merged.device_tokens_per_second;
      if (cards == 1) {
        one_card_tps = tps;
        baseline_tps = std::max(baseline_tps, tps);
      }
      const double speedup = one_card_tps > 0.0 ? tps / one_card_tps : 0.0;
      if (cards == 4) {
        best_4card_speedup = std::max(best_4card_speedup, speedup);
        best_4card_tps = std::max(best_4card_tps, tps);
      }
      table.AddRow();
      table.Cell(std::string(serving::PlacementPolicyName(policy)));
      table.Cell(static_cast<std::int64_t>(cards));
      table.Cell(tps, 1);
      table.Cell(speedup, 2);
      table.Cell(report->merged.ttft_percentile(0.99) * 1e3, 2);
      table.Cell(report->merged.tpot_percentile(0.99) * 1e3, 3);
      table.Cell(report->imbalance(), 2);
      table.Cell(report->mean_utilization(), 2);
      table.Cell(report->rebalanced_requests);
      table.Cell(report->merged.preemptions);
    }
  }
  table.Print();

  std::printf(
      "\nN cards run N independent KV pools and grouped-step pipelines off "
      "one shared clock; at saturating load the router keeps every card "
      "busy, so aggregate tokens/s scales with card count until the trace "
      "runs out of concurrent work. Best 4-card speedup: %.2fx.\n",
      best_4card_speedup);

  const std::string json_path = cl.GetString("json", "");
  if (!json_path.empty() &&
      !bench::WriteBenchJson(
          json_path, "cluster_scaling",
          {{"one_card_tokens_per_second", baseline_tps},
           {"four_card_tokens_per_second", best_4card_tps},
           {"four_card_speedup", best_4card_speedup}})) {
    return 1;
  }
  if (best_4card_speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL: 4-card speedup %.2fx is below the 3x scaling bar\n",
                 best_4card_speedup);
    return 1;
  }
  return 0;
}

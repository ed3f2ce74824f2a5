// SpeedLLM bench: prefix caching on a shared-prefix serving workload.
//
// Serves one Poisson trace where most prompts open with a shared system
// prompt (the chat-frontend / agent-tooling traffic shape) twice -- with
// the KvBlockPool prefix cache off, then on -- and reports the TTFT and
// served-tokens/s win, the cache hit rate, and copy-on-write / eviction
// activity. A 2-card comparison shows kPrefixAffinity concentrating each
// prefix's blocks on one card versus round-robin splitting them.
//
// The headline check (CI-gated here and via --json + check_bench.py):
// at an 80%-shared-prefix workload the cache must cut p99 TTFT by >= 2x
// with a nonzero hit rate, while every run's token streams stay
// byte-identical to the cache-off baseline.
//
//   ./bench/bench_prefix_caching [--preset tiny] [--requests 32]
//                                [--seed 7] [--shared 0.8] [--prefix 48]
//                                [--load 8.0] [--json out.json]
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "compiler/compiler.hpp"
#include "serving/cluster.hpp"
#include "serving/scheduler.hpp"
#include "serving/workload.hpp"

using namespace speedllm;

namespace {

/// Tokens the clients actually received: prompt + generated per request.
/// (ServingReport::total_tokens counts *device-processed* tokens, which
/// caching deliberately shrinks; the clients' token count must not.)
std::int64_t ServedTokens(const serving::ServingReport& report) {
  std::int64_t tokens = 0;
  for (const auto& outcome : report.outcomes) {
    tokens += outcome.prompt_tokens +
              static_cast<std::int64_t>(outcome.generated.size());
  }
  return tokens;
}

}  // namespace

int main(int argc, char** argv) {
  auto cl_or = CommandLine::Parse(
      argc, argv,
      {"preset", "requests", "seed", "shared", "prefix", "load", "json"});
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
  const int n_requests = static_cast<int>(cl.GetInt("requests", 32));
  const std::uint64_t seed = static_cast<std::uint64_t>(cl.GetInt("seed", 7));
  const double shared_fraction = cl.GetDouble("shared", 0.8);
  const std::int32_t prefix_tokens =
      static_cast<std::int32_t>(cl.GetInt("prefix", 48));
  const double load_factor = cl.GetDouble("load", 8.0);

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
  sampler.temperature = 0.8f;  // stochastic: the strictest identity check
  sampler.seed = 4;

  // Probe the single-card batched saturation rate so the offered load is
  // model-independent and genuinely queues at `load_factor`.
  auto card_tps =
      bench::ProbeCardTokensPerSecond(program, weights, u280, sampler, 8);
  if (!card_tps.ok()) {
    std::fprintf(stderr, "%s\n", card_tps.status().ToString().c_str());
    return 1;
  }

  serving::SharedPrefixConfig spc;
  spc.num_requests = n_requests;
  spc.shared_fraction = shared_fraction;
  spc.num_prefixes = 2;
  spc.prefix_tokens = prefix_tokens;
  spc.min_suffix_tokens = 1;
  spc.max_suffix_tokens = 4;
  spc.min_new_tokens = 4;
  spc.max_new_tokens = 6;
  spc.vocab_size = config.vocab_size;
  const double tokens_per_req =
      prefix_tokens + 2.5 + 5.0;  // mean prompt + mean generation
  spc.rate_rps = *card_tps / tokens_per_req * load_factor;
  Rng rng(seed);
  const auto reqs = serving::SharedPrefixTrace(rng, spc);

  std::printf(
      "== prefix caching: %d requests, %.0f%% sharing %d-token prefixes, "
      "%.1fx saturation, %s ==\n\n",
      n_requests, shared_fraction * 100.0, prefix_tokens, load_factor,
      config.ToString().c_str());

  struct Row {
    std::string label;
    serving::ClusterReport report;
  };
  std::vector<Row> rows;
  auto run = [&](const std::string& label, int cards, bool cache,
                 serving::PlacementPolicy placement) -> bool {
    api::EngineConfig cluster;
    cluster.placement = placement;
    cluster.scheduler.block_size_tokens = 8;
    cluster.scheduler.enable_prefix_cache = cache;
    cluster.num_cards = cards;
    cluster.sampler = sampler;
    auto report = bench::ServeTrace(program, weights, u280, cluster, reqs);
    if (!report.ok()) {
      std::fprintf(stderr, "%s: %s\n", label.c_str(),
                   report.status().ToString().c_str());
      return false;
    }
    rows.push_back(Row{label, std::move(*report)});
    return true;
  };

  if (!run("1-card cache-off", 1, false, serving::PlacementPolicy::kRoundRobin) ||
      !run("1-card cache-on", 1, true, serving::PlacementPolicy::kRoundRobin) ||
      !run("2-card round-robin", 2, true,
           serving::PlacementPolicy::kRoundRobin) ||
      !run("2-card prefix-affinity", 2, true,
           serving::PlacementPolicy::kPrefixAffinity)) {
    return 1;
  }

  // Byte-identity: every configuration generates exactly the baseline's
  // streams -- caching and placement change time, never tokens.
  const auto& baseline = rows.front().report.merged.outcomes;
  for (const Row& row : rows) {
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      if (row.report.merged.outcomes[i].generated != baseline[i].generated) {
        std::fprintf(stderr, "FAIL: token stream diverged: %s, request %zu\n",
                     row.label.c_str(), i);
        return 1;
      }
    }
  }

  Table table({"config", "ttft_p99_ms", "e2e_p99_ms", "served_tok_s",
               "hit_rate", "hit_tok", "cow", "evict", "preempt"});
  for (const Row& row : rows) {
    const serving::ServingReport& m = row.report.merged;
    table.AddRow();
    table.Cell(row.label);
    table.Cell(m.ttft_percentile(0.99) * 1e3, 3);
    table.Cell(m.latency_percentile(0.99) * 1e3, 3);
    table.Cell(m.makespan_seconds > 0.0
                   ? static_cast<double>(ServedTokens(m)) / m.makespan_seconds
                   : 0.0,
               1);
    table.Cell(m.cache_hit_rate(), 2);
    table.Cell(m.prefix_cache_hit_tokens);
    table.Cell(m.cow_copies);
    table.Cell(m.cache_evictions);
    table.Cell(m.preemptions);
  }
  table.Print();

  const serving::ServingReport& off = rows[0].report.merged;
  const serving::ServingReport& on = rows[1].report.merged;
  const double ttft_off_ms = off.ttft_percentile(0.99) * 1e3;
  const double ttft_on_ms = on.ttft_percentile(0.99) * 1e3;
  const double ttft_speedup = ttft_on_ms > 0.0 ? ttft_off_ms / ttft_on_ms : 0.0;
  const double served_off = off.makespan_seconds > 0.0
                                ? ServedTokens(off) / off.makespan_seconds
                                : 0.0;
  const double served_on = on.makespan_seconds > 0.0
                               ? ServedTokens(on) / on.makespan_seconds
                               : 0.0;
  const double tokens_speedup = served_off > 0.0 ? served_on / served_off : 0.0;

  std::printf(
      "\nre-prefilling a shared %d-token prefix burns the exact compute "
      "the cache keeps resident: p99 TTFT %.3f -> %.3f ms (%.2fx), served "
      "tokens/s %.1f -> %.1f (%.2fx), %.0f%% of eligible prefill tokens "
      "from cache; streams byte-identical in every configuration.\n",
      prefix_tokens, ttft_off_ms, ttft_on_ms, ttft_speedup, served_off,
      served_on, tokens_speedup, on.cache_hit_rate() * 100.0);

  const std::string json_path = cl.GetString("json", "");
  if (!json_path.empty() &&
      !bench::WriteBenchJson(
          json_path, "prefix_caching",
          {{"cache_hit_rate", on.cache_hit_rate()},
           {"baseline_ttft_p99_ms", ttft_off_ms},
           {"shared_prefix_ttft_p99_ms", ttft_on_ms},
           {"ttft_p99_speedup", ttft_speedup},
           {"served_tokens_speedup", tokens_speedup},
           {"affinity_hit_rate",
            rows[3].report.merged.cache_hit_rate()}})) {
    return 1;
  }
  if (ttft_speedup < 2.0 || on.cache_hit_rate() <= 0.0) {
    std::fprintf(stderr,
                 "FAIL: ttft speedup %.2fx (need >= 2x) at hit rate %.2f\n",
                 ttft_speedup, on.cache_hit_rate());
    return 1;
  }
  return 0;
}

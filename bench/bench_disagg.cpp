// SpeedLLM bench: disaggregated prefill/decode shards vs unified cards.
//
// Serves one bursty, saturating, prefill-heavy trace twice on the same
// 4-card cluster: all-unified, then disaggregated (2 prefill shards
// feeding 2 decode shards over the modeled interconnect). Under bursty
// load, unified cards interleave large prefill chunks into every decode
// tick, so resident streams see long inter-token gaps exactly when a
// burst lands; decode specialists never run first-pass prefill, so
// their ticks stay short and TPOT stays flat. The interconnect charge
// (KV pages shipped prefill -> decode, queued on the same HBM stations
// as COW/restore/swap DMA) is what disaggregation pays for that
// isolation.
//
// The headline check (CI-gated here and via --json + check_bench.py):
// disaggregation must beat unified on p99 TPOT without losing aggregate
// tokens/s, and every configuration's token streams must stay
// byte-identical to a single unified card's.
//
//   ./bench/bench_disagg [--preset disagg] [--requests 64] [--seed 11]
//                        [--load 3.2] [--burst 9] [--json out.json]
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "compiler/compiler.hpp"
#include "serving/cluster.hpp"
#include "serving/scheduler.hpp"
#include "serving/workload.hpp"

using namespace speedllm;

int main(int argc, char** argv) {
  auto cl_or = CommandLine::Parse(
      argc, argv, {"preset", "requests", "seed", "load", "burst", "json", "debug"});
  if (!cl_or.ok()) {
    std::fprintf(stderr, "%s\n", cl_or.status().ToString().c_str());
    return 1;
  }
  const CommandLine& cl = cl_or.value();
  // Default model: a compute-heavy derivative of Tiny (dim 192, 4
  // layers, seq_len 256). Disaggregation only has something to isolate
  // when a token's marginal forward cost is a real fraction of the
  // amortized weight-streaming step: on this config the marginal is
  // ~0.4x the shared step (vs ~0.05x for Tiny, where ticks cost the
  // same almost regardless of what they carry), so a burst of prefill
  // chunks genuinely stretches a unified card's decode ticks. Still
  // small enough to serve thousands of tokens in seconds of host time.
  llama::ModelConfig config;
  const std::string preset = cl.GetString("preset", "disagg");
  if (preset == "disagg") {
    config = llama::ModelConfig::Tiny();
    config.dim = 192;
    config.hidden_dim = 512;
    config.n_layers = 4;
    config.n_heads = 6;
    config.n_kv_heads = 6;
    config.vocab_size = 2048;
    config.seq_len = 256;
  } else {
    auto named = bench::PresetFromFlag(preset);
    if (!named.ok()) {
      std::fprintf(stderr, "%s\n", named.status().ToString().c_str());
      return 1;
    }
    config = *named;
  }
  const int n_requests = static_cast<int>(cl.GetInt("requests", 64));
  const std::uint64_t seed = static_cast<std::uint64_t>(cl.GetInt("seed", 11));
  const double load_factor = cl.GetDouble("load", 3.2);
  const std::int32_t burst = static_cast<std::int32_t>(cl.GetInt("burst", 9));

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
  sampler.seed = 3;

  // Probe single-card saturation so the offered load genuinely queues at
  // `load_factor` on the 4-card cluster regardless of model preset.
  auto card_tps =
      bench::ProbeCardTokensPerSecond(program, weights, u280, sampler, 8);
  if (!card_tps.ok()) {
    std::fprintf(stderr, "%s\n", card_tps.status().ToString().c_str());
    return 1;
  }

  // Prefill-heavy bursts with real decode tails: big prompts are what
  // unified cards interleave into decode ticks, long-ish generations are
  // where the resulting TPOT jitter shows.
  serving::WorkloadConfig wc;
  wc.num_requests = n_requests;
  wc.min_prompt_tokens = 18;
  wc.max_prompt_tokens = 26;
  wc.min_new_tokens = 56;
  wc.max_new_tokens = 72;
  wc.vocab_size = config.vocab_size;
  wc.burst_size = burst;
  const double tokens_per_req = 22.0 + 64.0;  // mean prompt + mean gen
  wc.rate_rps = *card_tps / tokens_per_req * load_factor;
  Rng rng(seed);
  const auto reqs = serving::BurstyTrace(rng, wc);

  std::printf(
      "== disaggregation: %d requests, bursts of %d, %.1fx single-card "
      "saturation, 4 cards, %s ==\n\n",
      n_requests, burst, load_factor, config.ToString().c_str());

  struct Row {
    std::string label;
    serving::ClusterReport report;
  };
  std::vector<Row> rows;
  auto run = [&](const std::string& label,
                 std::vector<serving::ShardRole> roles) -> bool {
    api::EngineConfig cluster;
    cluster.placement = serving::PlacementPolicy::kLeastOutstandingTokens;
    // Wide residency (applied to BOTH modes): decode specialists must be
    // able to hold every adopted stream resident -- with the default
    // 8-slot cap, adopted streams queue behind the cap and that wait
    // lands inside TPOT (first token is stamped at prefill completion).
    cluster.scheduler.max_batch_seqs = 32;
    cluster.shard_roles = std::move(roles);
    cluster.num_cards = 4;
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

  if (!run("4-card unified", {}) ||
      !run("1p + 3d disagg",
           {serving::ShardRole::kPrefill, serving::ShardRole::kDecode,
            serving::ShardRole::kDecode, serving::ShardRole::kDecode})) {
    return 1;
  }

  // Byte-identity: disaggregation moves timing, never tokens.
  api::EngineConfig baseline_config;
  baseline_config.sampler = sampler;
  auto baseline =
      bench::ServeTrace(program, weights, u280, baseline_config, reqs);
  if (!baseline.ok()) {
    std::fprintf(stderr, "%s\n", baseline.status().ToString().c_str());
    return 1;
  }
  bool identical = true;
  for (const Row& row : rows) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (row.report.merged.outcomes[i].generated !=
          baseline->merged.outcomes[i].generated) {
        std::fprintf(stderr, "FAIL: token stream diverged: %s, request %zu\n",
                     row.label.c_str(), i);
        identical = false;
      }
    }
  }
  if (!identical) return 1;

  Table table({"config", "tpot_p99_ms", "tpot_p50_ms", "ttft_p99_ms",
               "tok_s", "handoffs", "xfer_MB", "preempt"});
  for (const Row& row : rows) {
    const serving::ServingReport& m = row.report.merged;
    table.AddRow();
    table.Cell(row.label);
    table.Cell(m.tpot_percentile(0.99) * 1e3, 3);
    table.Cell(m.tpot_percentile(0.50) * 1e3, 3);
    table.Cell(m.ttft_percentile(0.99) * 1e3, 3);
    table.Cell(m.device_tokens_per_second, 1);
    table.Cell(row.report.kv_handoffs);
    table.Cell(static_cast<double>(row.report.kv_transfer_bytes) / 1e6, 2);
    table.Cell(m.preemptions);
  }
  table.Print();

  if (cl.GetInt("debug", 0) != 0) {
    for (const Row& row : rows) {
      std::printf("%s:\n", row.label.c_str());
      for (std::size_t c = 0; c < row.report.shard_reports.size(); ++c) {
        const serving::ServingReport& s = row.report.shard_reports[c];
        std::printf(
            "  card %zu: ticks=%lld width=%.2f tokens=%lld util=%.2f "
            "makespan=%.4f\n",
            c, static_cast<long long>(s.ticks), s.mean_batch_width,
            static_cast<long long>(s.total_tokens),
            row.report.card_utilization[c], s.makespan_seconds);
      }
    }
  }

  const serving::ServingReport& unified = rows[0].report.merged;
  const serving::ServingReport& disagg = rows[1].report.merged;
  const double tpot_unified_ms = unified.tpot_percentile(0.99) * 1e3;
  const double tpot_disagg_ms = disagg.tpot_percentile(0.99) * 1e3;
  const double tpot_speedup =
      tpot_disagg_ms > 0.0 ? tpot_unified_ms / tpot_disagg_ms : 0.0;
  const double tokens_ratio =
      unified.device_tokens_per_second > 0.0
          ? disagg.device_tokens_per_second / unified.device_tokens_per_second
          : 0.0;

  std::printf(
      "\nisolating decode from bursty prefill: p99 TPOT %.3f -> %.3f ms "
      "(%.2fx) at %.2fx the unified aggregate tokens/s; %lld KV handoffs "
      "shipped %.2f MB over the interconnect; streams byte-identical.\n",
      tpot_unified_ms, tpot_disagg_ms, tpot_speedup, tokens_ratio,
      static_cast<long long>(rows[1].report.kv_handoffs),
      static_cast<double>(rows[1].report.kv_transfer_bytes) / 1e6);

  const std::string json_path = cl.GetString("json", "");
  if (!json_path.empty() &&
      !bench::WriteBenchJson(
          json_path, "disagg",
          {{"unified_tpot_p99_ms", tpot_unified_ms},
           {"disagg_tpot_p99_ms", tpot_disagg_ms},
           {"tpot_p99_speedup", tpot_speedup},
           {"tokens_per_second_ratio", tokens_ratio},
           {"kv_handoffs", static_cast<double>(rows[1].report.kv_handoffs)},
           {"kv_transfer_mb",
            static_cast<double>(rows[1].report.kv_transfer_bytes) / 1e6},
           {"streams_identical", identical ? 1.0 : 0.0}})) {
    return 1;
  }
  if (tpot_speedup <= 1.0 || tokens_ratio < 0.95) {
    std::fprintf(stderr,
                 "FAIL: tpot p99 speedup %.2fx (need > 1x) at tokens ratio "
                 "%.2f (need >= 0.95)\n",
                 tpot_speedup, tokens_ratio);
    return 1;
  }
  return 0;
}

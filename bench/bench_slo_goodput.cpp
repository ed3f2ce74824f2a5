// SpeedLLM bench: SLO tiers, admission control, and goodput under
// overload.
//
// Offers a mixed-tier Poisson workload at `--load`x the card's batched
// saturation rate (default 2x) and serves it twice: FIFO (tiers off, no
// admission control -- every request queues and the interactive tail
// collapses with everyone else's), then tiered with token-bucket
// admission control and per-tier SLO targets. The tiered run must hold
// the interactive tier's p99 TTFT inside its SLO by shedding best-effort
// traffic at the door, and the goodput numbers it reports are derived
// from the telemetry event stream (obs::ComputeGoodput), not a parallel
// bookkeeping path.
//
// The headline check (CI-gated here and via --json + check_bench.py):
// under 2x overload, interactive p99 TTFT meets its SLO target while the
// best-effort tier sheds (> 0 requests) and the interactive tier sheds
// nothing.
//
//   ./bench/bench_slo_goodput [--preset tiny] [--requests 60] [--seed 11]
//                             [--load 2.0] [--json out.json]
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "compiler/compiler.hpp"
#include "obs/slo.hpp"
#include "serving/cluster.hpp"
#include "serving/scheduler.hpp"
#include "serving/workload.hpp"

using namespace speedllm;

int main(int argc, char** argv) {
  auto cl_or = CommandLine::Parse(
      argc, argv, {"preset", "requests", "seed", "load", "json"});
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
  const int n_requests = static_cast<int>(cl.GetInt("requests", 60));
  const std::uint64_t seed = static_cast<std::uint64_t>(cl.GetInt("seed", 11));
  const double load_factor = cl.GetDouble("load", 2.0);

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
  sampler.temperature = 0.8f;
  sampler.seed = 4;

  // Probe the single-card batched saturation rate so the offered load
  // is model-independent and genuinely overloads at `load_factor`.
  auto card_tps =
      bench::ProbeCardTokensPerSecond(program, weights, u280, sampler, 8);
  if (!card_tps.ok()) {
    std::fprintf(stderr, "%s\n", card_tps.status().ToString().c_str());
    return 1;
  }
  const double capacity_tok_s = *card_tps;

  // Mixed-tier open-loop workload; mean prompt 16 + mean generation 16.
  serving::WorkloadConfig wc;
  wc.num_requests = n_requests;
  wc.min_prompt_tokens = 8;
  wc.max_prompt_tokens = 24;
  wc.min_new_tokens = 8;
  wc.max_new_tokens = 24;
  wc.vocab_size = config.vocab_size;
  const double tokens_per_req = 32.0;
  const serving::TierMix mix{0.25, 0.45, 0.30};

  // Reference run at 80% saturation calibrates the interactive SLO: the
  // tier must stay within 4x its uncontended p99 TTFT even when the
  // cluster is offered 2x what it can serve.
  wc.rate_rps = capacity_tok_s / tokens_per_req * 0.8;
  Rng ref_rng(seed);
  auto ref_reqs = serving::PoissonTrace(ref_rng, wc);
  serving::ApplyTierMix(ref_rng, mix, ref_reqs);
  double ref_ttft_p99 = 0.0;
  {
    api::EngineConfig ref_config;
    ref_config.sampler = sampler;
    auto report =
        bench::ServeTrace(program, weights, u280, ref_config, ref_reqs);
    if (!report.ok()) {
      std::fprintf(stderr, "reference: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    ref_ttft_p99 = report->merged.ttft_percentile(0.99);
  }

  serving::TierSloTargets slo{};
  slo[serving::TierIndex(serving::RequestTier::kInteractive)]
      .ttft_target_seconds = 4.0 * ref_ttft_p99;
  slo[serving::TierIndex(serving::RequestTier::kStandard)]
      .ttft_target_seconds = 12.0 * ref_ttft_p99;
  // Best-effort is unbounded: it attains whenever it finishes at all.

  // The overload trace: same shape, `load_factor`x the saturation rate.
  wc.rate_rps = capacity_tok_s / tokens_per_req * load_factor;
  Rng rng(seed + 1);
  auto reqs = serving::PoissonTrace(rng, wc);
  serving::ApplyTierMix(rng, mix, reqs);

  std::printf(
      "== slo goodput: %d requests at %.1fx saturation (%.0f tok/s), "
      "interactive TTFT SLO %.3f ms, %s ==\n\n",
      n_requests, load_factor, capacity_tok_s, slo[0].ttft_target_seconds * 1e3,
      config.ToString().c_str());

  auto run = [&](bool tiered) -> StatusOr<serving::ClusterReport> {
    api::EngineConfig cluster;
    cluster.telemetry.enable_tracing = true;  // goodput's only source
    cluster.telemetry.enable_metrics = true;
    cluster.scheduler.tier_slo = slo;
    if (tiered) {
      cluster.scheduler.enable_tiers = true;
      cluster.scheduler.admission.enable = true;
      // Refill at exactly the card's serving rate, with a burst of ~10
      // mean requests: at 2x offered load the bucket drains past the
      // best-effort reserve within a few arrivals and stays pinned
      // there, so the shed pressure lands on the lowest tier.
      cluster.scheduler.admission.rate_tokens_per_second = capacity_tok_s;
      cluster.scheduler.admission.burst_tokens = tokens_per_req * 10.0;
    }
    cluster.num_cards = 1;
    cluster.sampler = sampler;
    return bench::ServeTrace(program, weights, u280, cluster, reqs);
  };

  auto fifo = run(false);
  auto tiered = run(true);
  if (!fifo.ok() || !tiered.ok()) {
    std::fprintf(stderr, "%s\n",
                 (!fifo.ok() ? fifo.status() : tiered.status())
                     .ToString()
                     .c_str());
    return 1;
  }

  Table table({"config", "tier", "finished", "shed", "ttft_p99_ms",
               "slo_att", "goodput_tok_s"});
  auto rows = [&](const char* label, const serving::ServingReport& m) {
    for (int t = 0; t < serving::kNumTiers; ++t) {
      const auto tier = static_cast<serving::RequestTier>(t);
      const serving::TierReport& tr = m.tiers[static_cast<std::size_t>(t)];
      table.AddRow();
      table.Cell(label);
      table.Cell(std::string(serving::RequestTierName(tier)));
      table.Cell(tr.finished_requests);
      table.Cell(tr.shed_requests);
      table.Cell(m.tier_ttft_percentile(tier, 0.99) * 1e3, 3);
      table.Cell(tr.slo_attainment(), 2);
      table.Cell(tr.goodput_tokens_per_second, 1);
    }
  };
  rows("fifo", fifo->merged);
  rows("tiered+admission", tiered->merged);
  table.Print();

  const serving::ServingReport& base = fifo->merged;
  const serving::ServingReport& slom = tiered->merged;
  const int kInter = serving::TierIndex(serving::RequestTier::kInteractive);
  const int kBest = serving::TierIndex(serving::RequestTier::kBestEffort);
  const double fifo_inter_ttft_ms =
      base.tier_ttft_percentile(serving::RequestTier::kInteractive, 0.99) * 1e3;
  const double inter_ttft_ms =
      slom.tier_ttft_percentile(serving::RequestTier::kInteractive, 0.99) * 1e3;
  const double slo_ms = slo[0].ttft_target_seconds * 1e3;

  std::printf(
      "\nunder %.1fx overload FIFO drags every tier down together "
      "(interactive p99 TTFT %.3f ms, goodput %.1f of %.1f tok/s); "
      "shedding %lld best-effort requests at the door holds interactive "
      "p99 TTFT at %.3f ms (SLO %.3f ms) and lifts goodput to %.1f "
      "tok/s.\n",
      load_factor, fifo_inter_ttft_ms, base.goodput_tokens_per_second,
      base.device_tokens_per_second,
      static_cast<long long>(
          slom.tiers[static_cast<std::size_t>(kBest)].shed_requests),
      inter_ttft_ms, slo_ms, slom.goodput_tokens_per_second);

  const std::string json_path = cl.GetString("json", "");
  if (!json_path.empty() &&
      !bench::WriteBenchJson(
          json_path, "slo_goodput",
          {{"interactive_ttft_p99_ms", inter_ttft_ms},
           {"interactive_ttft_slo_ms", slo_ms},
           {"interactive_slo_attainment",
            slom.tiers[static_cast<std::size_t>(kInter)].slo_attainment()},
           {"interactive_shed_requests",
            static_cast<double>(
                slom.tiers[static_cast<std::size_t>(kInter)].shed_requests)},
           {"best_effort_shed_requests",
            static_cast<double>(
                slom.tiers[static_cast<std::size_t>(kBest)].shed_requests)},
           {"shed_requests", static_cast<double>(slom.shed_requests)},
           {"goodput_tokens_per_second", slom.goodput_tokens_per_second},
           {"fifo_interactive_ttft_p99_ms", fifo_inter_ttft_ms},
           {"fifo_goodput_tokens_per_second",
            base.goodput_tokens_per_second}})) {
    return 1;
  }

  if (inter_ttft_ms > slo_ms) {
    std::fprintf(stderr,
                 "FAIL: interactive p99 TTFT %.3f ms misses its SLO %.3f ms\n",
                 inter_ttft_ms, slo_ms);
    return 1;
  }
  if (slom.tiers[static_cast<std::size_t>(kBest)].shed_requests <= 0) {
    std::fprintf(stderr,
                 "FAIL: best-effort shed nothing at %.1fx overload\n",
                 load_factor);
    return 1;
  }
  if (slom.tiers[static_cast<std::size_t>(kInter)].shed_requests != 0) {
    std::fprintf(stderr, "FAIL: admission control shed interactive traffic\n");
    return 1;
  }
  if (slom.goodput_tokens_per_second <= 0.0) {
    std::fprintf(stderr, "FAIL: zero goodput\n");
    return 1;
  }
  return 0;
}

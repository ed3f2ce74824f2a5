// SpeedLLM bench: int8-quantized KV blocks vs fp16 at saturating load.
//
// Two experiments on one card:
//
//  1. Residency: carve the same HBM byte budget as an fp16 pool and as
//     an int8 pool and count how many fixed-size sequences each admits.
//     Int8 halves bytes-per-token (plus small per-block group-scale
//     metadata), so the ratio lands near 2x -- CI gates >= 1.5x.
//  2. Serving: a preemption-heavy Poisson trace (tight KV budget, load
//     above saturation) served with an fp16 pool and with an int8 pool
//     of the same byte size. The int8 run preempts less and sustains at
//     least the fp16 tokens/s; the fp16 run's copy-on-write, cache
//     restores, and swap-outs move a nonzero number of simulated DMA
//     bytes (CI gates both). Every run's greedy token streams must be
//     byte-identical across dtype and across DMA costing on/off --
//     quantization perturbs logits deterministically below greedy argmax
//     gaps, and DMA costing moves time, never tokens.
//
//   ./bench/bench_kv_quant [--preset tiny] [--requests 40] [--seed 9]
//                          [--pool-kib 0] [--load 6.0] [--json out.json]
//
// --pool-kib 0 derives a tight default: ~30% of the fp16 bytes the whole
// trace would need at once (floored at twice the largest request).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "compiler/compiler.hpp"
#include "serving/kv_pool.hpp"
#include "serving/scheduler.hpp"
#include "serving/workload.hpp"

using namespace speedllm;

namespace {

/// Sequences of `seq_tokens` tokens a `dtype` pool carved from
/// `hbm_bytes` admits before running dry (caching off: full private
/// footprints, the conservative capacity number).
std::int64_t ResidentCapacity(const llama::ModelConfig& model,
                              serving::KvCacheDtype dtype,
                              std::uint64_t hbm_bytes,
                              std::int64_t seq_tokens) {
  serving::KvBlockPool pool(serving::MakeKvPoolConfig(
      model, dtype, hbm_bytes, /*block_size_tokens=*/16,
      /*enable_prefix_cache=*/false));
  std::int64_t residents = 0;
  for (std::uint64_t seq = 0; pool.CanReserve(seq_tokens); ++seq) {
    if (!pool.Register(seq).ok()) break;
    for (std::int64_t t = 0; t < seq_tokens; ++t) {
      if (!pool.Append(seq, static_cast<std::int32_t>(t % 97)).ok()) {
        return residents;
      }
    }
    ++residents;
  }
  return residents;
}

}  // namespace

int main(int argc, char** argv) {
  auto cl_or = CommandLine::Parse(
      argc, argv, {"preset", "requests", "seed", "pool-kib", "load", "json"});
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
  const int n_requests = static_cast<int>(cl.GetInt("requests", 40));
  const std::uint64_t seed = static_cast<std::uint64_t>(cl.GetInt("seed", 9));
  const std::uint64_t pool_kib =
      static_cast<std::uint64_t>(cl.GetInt("pool-kib", 0));
  const double load_factor = cl.GetDouble("load", 6.0);

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

  // ---- 1. pool-level resident capacity at equal HBM bytes.
  const std::uint64_t capacity_probe_bytes = 1ull << 20;  // 1 MiB
  const std::int64_t probe_seq_tokens = 48;
  const std::int64_t fp16_residents = ResidentCapacity(
      config, serving::KvCacheDtype::kFp16, capacity_probe_bytes,
      probe_seq_tokens);
  const std::int64_t int8_residents = ResidentCapacity(
      config, serving::KvCacheDtype::kInt8, capacity_probe_bytes,
      probe_seq_tokens);
  const double capacity_ratio =
      fp16_residents > 0 ? static_cast<double>(int8_residents) /
                               static_cast<double>(fp16_residents)
                         : 0.0;

  // ---- 2. preemption-heavy serving comparison.
  // Decode-heavy: admission reserves a prompt-sized footprint, then
  // decode growth (2-4x the prompt) exhausts the pool mid-flight --
  // the preemption trigger, not head-of-line admission blocking.
  serving::WorkloadConfig wc;
  wc.num_requests = n_requests;
  wc.min_prompt_tokens = 8;
  wc.max_prompt_tokens = 16;
  wc.min_new_tokens = 16;
  wc.max_new_tokens = 32;
  wc.vocab_size = config.vocab_size;

  // Probe the batched saturation rate so the offered load genuinely
  // queues at `load_factor` regardless of the preset.
  llama::SamplerConfig sampler;
  sampler.temperature = 0.0f;  // greedy: the strictest identity check
  auto card_tps =
      bench::ProbeCardTokensPerSecond(program, weights, u280, sampler, 8);
  if (!card_tps.ok()) {
    std::fprintf(stderr, "%s\n", card_tps.status().ToString().c_str());
    return 1;
  }
  const double tokens_per_req =
      0.5 * (wc.min_prompt_tokens + wc.max_prompt_tokens) +
      0.5 * (wc.min_new_tokens + wc.max_new_tokens);
  wc.rate_rps = *card_tps / tokens_per_req * load_factor;
  Rng rng(seed);
  const auto reqs = serving::PoissonTrace(rng, wc);

  // Tight budget in *fp16* bytes, so fp16 preempts hard and int8 shows
  // its residency headroom on identical hardware.
  std::int64_t worst_tokens = 0;
  std::int64_t trace_tokens = 0;
  for (const auto& r : reqs) {
    const std::int64_t t =
        static_cast<std::int64_t>(r.prompt.size()) + r.max_new_tokens;
    worst_tokens = std::max(worst_tokens, t);
    trace_tokens += t;
  }
  const std::uint64_t fp16_bpt =
      serving::KvBytesPerToken(config, serving::KvCacheDtype::kFp16);
  std::uint64_t pool_bytes = pool_kib > 0
                                 ? pool_kib << 10
                                 : static_cast<std::uint64_t>(
                                       0.3 * static_cast<double>(
                                                 trace_tokens * fp16_bpt));
  // Never so tight that the largest request can't ever fit.
  pool_bytes = std::max(
      pool_bytes, static_cast<std::uint64_t>(2 * worst_tokens) * fp16_bpt);

  std::printf(
      "== kv quant: %d requests at %.1fx saturation, %llu KiB KV budget, "
      "%s ==\n\n",
      n_requests, load_factor,
      static_cast<unsigned long long>(pool_bytes >> 10),
      config.ToString().c_str());

  struct Row {
    std::string label;
    serving::ServingReport report;
  };
  std::vector<Row> rows;
  auto run = [&](const std::string& label, serving::KvCacheDtype dtype,
                 bool charge_dma) -> bool {
    api::EngineConfig ec;
    ec.scheduler.block_size_tokens = 8;
    ec.scheduler.kv_pool_bytes = pool_bytes;
    ec.scheduler.kv_cache_dtype = dtype;
    ec.scheduler.charge_dma_cost = charge_dma;
    ec.scheduler.max_batch_seqs = 16;
    ec.sampler = sampler;
    auto report = bench::ServeTrace(program, weights, u280, ec, reqs);
    if (!report.ok()) {
      std::fprintf(stderr, "%s: %s\n", label.c_str(),
                   report.status().ToString().c_str());
      return false;
    }
    rows.push_back(Row{label, std::move(report->merged)});
    return true;
  };

  if (!run("fp16 dma-free", serving::KvCacheDtype::kFp16, false) ||
      !run("fp16", serving::KvCacheDtype::kFp16, true) ||
      !run("int8", serving::KvCacheDtype::kInt8, true)) {
    return 1;
  }

  // Greedy identity: dtype and DMA costing shift timing, never tokens.
  const auto& baseline = rows.front().report.outcomes;
  for (const Row& row : rows) {
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      if (row.report.outcomes[i].generated != baseline[i].generated) {
        std::fprintf(stderr, "FAIL: token stream diverged: %s, request %zu\n",
                     row.label.c_str(), i);
        return 1;
      }
    }
  }

  Table table({"config", "blocks", "peak", "preempt", "tok_s", "dma_KiB",
               "dma_ms", "e2e_p99_ms"});
  for (const Row& row : rows) {
    const serving::ServingReport& m = row.report;
    table.AddRow();
    table.Cell(row.label);
    table.Cell(m.kv_block_capacity);
    table.Cell(m.peak_kv_blocks);
    table.Cell(m.preemptions);
    table.Cell(m.device_tokens_per_second, 1);
    table.Cell(static_cast<double>(m.dma_bytes_moved) / 1024.0, 1);
    table.Cell(m.dma_time_seconds * 1e3, 4);
    table.Cell(m.latency_percentile(0.99) * 1e3, 3);
  }
  table.Print();

  const serving::ServingReport& fp16 = rows[1].report;
  const serving::ServingReport& int8 = rows[2].report;
  std::printf(
      "\nhalving bytes-per-token doubles what the same HBM holds: "
      "%lld -> %lld residents at equal bytes (%.2fx), preemptions "
      "%lld -> %lld, %.1f KiB of COW/restore/swap DMA now costed at "
      "%.4f ms; greedy streams byte-identical across dtype and DMA "
      "costing.\n",
      static_cast<long long>(fp16_residents),
      static_cast<long long>(int8_residents), capacity_ratio,
      static_cast<long long>(fp16.preemptions),
      static_cast<long long>(int8.preemptions),
      static_cast<double>(fp16.dma_bytes_moved) / 1024.0,
      fp16.dma_time_seconds * 1e3);

  const std::string json_path = cl.GetString("json", "");
  if (!json_path.empty() &&
      !bench::WriteBenchJson(
          json_path, "kv_quant",
          {{"resident_capacity_ratio", capacity_ratio},
           {"fp16_residents", static_cast<double>(fp16_residents)},
           {"int8_residents", static_cast<double>(int8_residents)},
           {"fp16_tokens_per_second", fp16.device_tokens_per_second},
           {"int8_tokens_per_second", int8.device_tokens_per_second},
           {"fp16_preemptions", static_cast<double>(fp16.preemptions)},
           {"int8_preemptions", static_cast<double>(int8.preemptions)},
           {"dma_bytes_moved", static_cast<double>(fp16.dma_bytes_moved)},
           {"dma_time_ms", fp16.dma_time_seconds * 1e3}})) {
    return 1;
  }
  if (capacity_ratio < 1.5 || fp16.preemptions <= 0 ||
      fp16.dma_bytes_moved <= 0) {
    std::fprintf(stderr,
                 "FAIL: capacity ratio %.2fx (need >= 1.5x), %lld "
                 "preemptions, %lld DMA bytes (need > 0)\n",
                 capacity_ratio, static_cast<long long>(fp16.preemptions),
                 static_cast<long long>(fp16.dma_bytes_moved));
    return 1;
  }
  return 0;
}

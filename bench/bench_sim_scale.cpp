// SpeedLLM bench: parallel tick driver soak + wall-clock scaling.
//
// Long-horizon stress for sim::Engine::RunParallel over a
// serving::ClusterSession: drives a ~100k-request Poisson trace through 8
// cards in segments, once with the serial driver and once with parallel
// ticking, and gates on four properties every run:
//
//  1. identity (hard): token streams, completion times, makespan, and
//     request->shard assignment are byte-identical serial vs parallel in
//     every segment -- the determinism contract under real load;
//  2. wall-clock speedup: parallel total wall time must be >= --min-speedup
//     (default 2.0) over serial, gated only when the host has >= 4
//     hardware threads (the parallel driver degrades to inline dispatch
//     below that and the comparison is meaningless);
//  3. memory stability: RSS sampled after every parallel segment; the
//     final sample must stay within --rss-slack-mb (default 96) of the
//     first, catching leaks in the per-phase staging machinery
//     (TelemetryStage maps, lane queues, engine heap churn);
//  4. long-session memory: the same segment traces then run back to back
//     through ONE api::Engine. Its KV pools keep the fp32 payload of every
//     block they have handed out (a cached block is evicted only once the
//     pool has used every id), so RSS may grow by exactly that payload;
//     growth beyond it must stay within --rss-slack-mb.
//
//   ./bench/bench_sim_scale [--preset tiny] [--requests 100000]
//                           [--segments 8] [--cards 8] [--seed 11]
//                           [--gen 8] [--min-speedup 2.0]
//                           [--rss-slack-mb 96] [--json out.json]
//
// --json writes {"bench": "sim_scale", "metrics": {...}} for the CI
// artifact upload and the tools/check_bench.py regression gate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "accel/kv_pages.hpp"
#include "api/engine.hpp"
#include "bench_util.hpp"
#include "common/threadpool.hpp"
#include "compiler/compiler.hpp"
#include "serving/cluster.hpp"
#include "serving/workload.hpp"

using namespace speedllm;

namespace {

/// Current resident set size in MiB (VmRSS from /proc/self/status);
/// 0.0 when the proc filesystem is unavailable.
double RssMib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

int main(int argc, char** argv) {
  auto cl_or = CommandLine::Parse(
      argc, argv, {"preset", "requests", "segments", "cards", "seed", "gen",
                   "min-speedup", "rss-slack-mb", "json"});
  if (!cl_or.ok()) {
    std::fprintf(stderr, "%s\n", cl_or.status().ToString().c_str());
    return 1;
  }
  const CommandLine& cl = cl_or.value();
  llama::ModelConfig config =
      bench::PresetFromFlag(cl.GetString("preset", "tiny"));
  const int n_requests = static_cast<int>(cl.GetInt("requests", 100000));
  const int n_segments = static_cast<int>(cl.GetInt("segments", 8));
  const int n_cards = static_cast<int>(cl.GetInt("cards", 8));
  const std::uint64_t seed = static_cast<std::uint64_t>(cl.GetInt("seed", 11));
  const int gen = static_cast<int>(cl.GetInt("gen", 8));
  const double min_speedup = cl.GetDouble("min-speedup", 2.0);
  const double rss_slack_mb = cl.GetDouble("rss-slack-mb", 96.0);
  const unsigned hw_threads = std::thread::hardware_concurrency();

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
  const auto cards = hw::MultiCardConfig::Homogeneous(u280, n_cards);

  llama::SamplerConfig sampler;
  sampler.temperature = 0.9f;
  sampler.seed = 5;

  // The pure-parallel configuration: no rebalancing and no user hooks,
  // so (almost) every tick is lane-safe and phases stay wide. This is
  // the deployment shape the speedup claim is about; the conservative
  // fallbacks are covered by test_parallel_tick.
  serving::ClusterConfig cluster_config;
  cluster_config.placement = serving::PlacementPolicy::kRoundRobin;
  cluster_config.rebalance_queued = false;
  // One phase: a ClusterSession fed the whole segment up front, drained
  // serially with Run() or lane-parallel with RunParallel(). No emission
  // hooks are installed, so delivery events never force a barrier.
  const auto serve = [&](const std::vector<serving::ServingRequest>& reqs,
                         bool parallel) -> StatusOr<serving::ClusterReport> {
    serving::ClusterConfig phase_config = cluster_config;
    phase_config.parallel_ticking = parallel;
    serving::ClusterSession session(program, weights, cards, phase_config,
                                    sampler);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      SPEEDLLM_RETURN_IF_ERROR(
          session.Validate(reqs[i], "request " + std::to_string(i)));
      session.SubmitAt(&reqs[i], i,
                       session.SecondsToCycles(reqs[i].arrival_seconds));
    }
    if (parallel) {
      session.engine().RunParallel(ThreadPool::Global());
    } else {
      session.engine().Run();
    }
    SPEEDLLM_RETURN_IF_ERROR(session.Finalize());
    return session.Harvest();
  };

  const int per_segment = n_requests / n_segments;
  std::printf(
      "== sim scale soak: %d requests (%d segments x %d), %d cards, "
      "%u hw threads, %s ==\n\n",
      per_segment * n_segments, n_segments, per_segment, n_cards, hw_threads,
      config.ToString().c_str());

  Table table({"segment", "requests", "serial_s", "parallel_s", "speedup",
               "sim_tok_per_s", "rss_mib"});
  double serial_total_s = 0.0;
  double parallel_total_s = 0.0;
  double rss_first_mb = 0.0;
  double rss_last_mb = 0.0;
  std::int64_t total_tokens = 0;

  const auto segment_trace = [&](int s) {
    serving::WorkloadConfig wc;
    wc.num_requests = per_segment;
    wc.rate_rps = 3000.0;  // saturating: keeps all lanes busy
    wc.min_prompt_tokens = 3;
    wc.max_prompt_tokens = 10;
    wc.min_new_tokens = gen / 2;
    wc.max_new_tokens = gen;
    wc.vocab_size = config.vocab_size;
    Rng rng(seed + static_cast<std::uint64_t>(s));
    return serving::PoissonTrace(rng, wc);
  };

  for (int s = 0; s < n_segments; ++s) {
    const auto reqs = segment_trace(s);

    auto t0 = std::chrono::steady_clock::now();
    auto serial = serve(reqs, /*parallel=*/false);
    auto t1 = std::chrono::steady_clock::now();
    auto par = serve(reqs, /*parallel=*/true);
    auto t2 = std::chrono::steady_clock::now();
    if (!serial.ok() || !par.ok()) {
      std::fprintf(stderr, "segment %d failed: %s\n", s,
                   (!serial.ok() ? serial.status() : par.status())
                       .ToString()
                       .c_str());
      return 1;
    }

    // Identity gate: the parallel run must reproduce the serial timeline
    // byte for byte.
    if (par->merged.outcomes.size() != serial->merged.outcomes.size() ||
        par->merged.makespan_seconds != serial->merged.makespan_seconds ||
        par->merged.total_tokens != serial->merged.total_tokens ||
        par->shard_of_request != serial->shard_of_request) {
      std::fprintf(stderr, "FAIL: segment %d report diverged\n", s);
      return 1;
    }
    for (std::size_t i = 0; i < serial->merged.outcomes.size(); ++i) {
      const auto& a = serial->merged.outcomes[i];
      const auto& b = par->merged.outcomes[i];
      if (a.generated != b.generated ||
          a.first_token_seconds != b.first_token_seconds ||
          a.completion_seconds != b.completion_seconds) {
        std::fprintf(stderr,
                     "FAIL: segment %d request %zu stream diverged\n", s, i);
        return 1;
      }
    }

    const double serial_s = Seconds(t0, t1);
    const double parallel_s = Seconds(t1, t2);
    serial_total_s += serial_s;
    parallel_total_s += parallel_s;
    total_tokens += serial->merged.total_tokens;
    const double rss = RssMib();
    // Baseline at the second segment: the first includes allocator and
    // thread-pool warm-up, which is growth but not a leak.
    if (s == std::min(1, n_segments - 1)) rss_first_mb = rss;
    rss_last_mb = rss;

    table.AddRow();
    table.Cell(static_cast<std::int64_t>(s));
    table.Cell(static_cast<std::int64_t>(per_segment));
    table.Cell(serial_s, 2);
    table.Cell(parallel_s, 2);
    table.Cell(parallel_s > 0.0 ? serial_s / parallel_s : 0.0, 2);
    table.Cell(serial->merged.device_tokens_per_second, 0);
    table.Cell(rss, 1);
  }
  table.Print();

  const double speedup =
      parallel_total_s > 0.0 ? serial_total_s / parallel_total_s : 0.0;
  const double rss_growth_mb = rss_last_mb - rss_first_mb;
  std::printf(
      "\n%lld simulated tokens; serial %.2fs vs parallel %.2fs wall "
      "(%.2fx); RSS %.1f -> %.1f MiB across %d parallel segments.\n",
      static_cast<long long>(total_tokens), serial_total_s, parallel_total_s,
      speedup, rss_first_mb, rss_last_mb, n_segments);

  // Long-session phase: every segment's trace, back to back, through one
  // engine that lives for the whole run.
  api::EngineConfig session_config;
  session_config.placement = cluster_config.placement;
  session_config.rebalance_queued = cluster_config.rebalance_queued;
  session_config.sampler = sampler;
  api::Engine session(program, weights, cards, session_config);
  const double block_payload_mib =
      static_cast<double>(
          accel::KvBlockLayout{config.n_layers, config.kv_dim(),
                               session_config.scheduler.block_size_tokens}
              .block_floats() *
          static_cast<std::int64_t>(sizeof(float))) /
      (1024.0 * 1024.0);
  const auto payload_mib = [&] {
    std::int64_t blocks = 0;
    for (int c = 0; c < session.num_cards(); ++c) {
      blocks += session.kv_pool_stats(c).materialized_blocks;
    }
    return static_cast<double>(blocks) * block_payload_mib;
  };
  Table session_table({"segment", "requests", "wall_s", "payload_mib",
                       "rss_mib"});
  double session_rss_first_mb = 0.0;
  double session_rss_last_mb = 0.0;
  double session_payload_first_mib = 0.0;
  double session_payload_last_mib = 0.0;
  for (int s = 0; s < n_segments; ++s) {
    const double offset = session.now_seconds();
    const auto t0 = std::chrono::steady_clock::now();
    for (serving::ServingRequest req : segment_trace(s)) {
      req.arrival_seconds += offset;
      auto handle = session.Submit(std::move(req));
      if (!handle.ok()) {
        std::fprintf(stderr, "session segment %d: %s\n", s,
                     handle.status().ToString().c_str());
        return 1;
      }
    }
    session.RunToCompletion();
    const double wall_s = Seconds(t0, std::chrono::steady_clock::now());
    const double rss = RssMib();
    const double payload = payload_mib();
    if (s == std::min(1, n_segments - 1)) {
      session_rss_first_mb = rss;
      session_payload_first_mib = payload;
    }
    session_rss_last_mb = rss;
    session_payload_last_mib = payload;
    session_table.AddRow();
    session_table.Cell(static_cast<std::int64_t>(s));
    session_table.Cell(static_cast<std::int64_t>(per_segment));
    session_table.Cell(wall_s, 2);
    session_table.Cell(payload, 1);
    session_table.Cell(rss, 1);
  }
  std::printf("\n== one long session (api::Engine) ==\n\n");
  session_table.Print();
  const double session_rss_growth_mb =
      session_rss_last_mb - session_rss_first_mb;
  const double session_payload_growth_mib =
      session_payload_last_mib - session_payload_first_mib;
  const double session_excess_mb =
      session_rss_growth_mb - session_payload_growth_mib;
  std::printf(
      "\nsession RSS %.1f -> %.1f MiB; KV payload %.1f -> %.1f MiB; growth "
      "beyond the payload %.1f MiB.\n",
      session_rss_first_mb, session_rss_last_mb, session_payload_first_mib,
      session_payload_last_mib, session_excess_mb);

  const std::string json_path = cl.GetString("json", "");
  if (!json_path.empty() &&
      !bench::WriteBenchJson(
          json_path, "sim_scale",
          {{"identity", 1.0},
           {"simulated_tokens", static_cast<double>(total_tokens)},
           {"wall_speedup", speedup},
           {"serial_wall_seconds", serial_total_s},
           {"parallel_wall_seconds", parallel_total_s},
           {"rss_growth_mib", rss_growth_mb},
           {"session_rss_growth_mib", session_rss_growth_mb},
           {"session_payload_mib", session_payload_last_mib},
           {"session_excess_rss_mib", session_excess_mb}})) {
    return 1;
  }
  if (session_rss_first_mb > 0.0 && session_excess_mb > rss_slack_mb) {
    std::fprintf(stderr,
                 "FAIL: one-session RSS grew %.1f MiB beyond its KV payload "
                 "(slack %.1f)\n",
                 session_excess_mb, rss_slack_mb);
    return 1;
  }

  if (rss_first_mb > 0.0 && rss_growth_mb > rss_slack_mb) {
    std::fprintf(stderr,
                 "FAIL: RSS grew %.1f MiB across segments (slack %.1f)\n",
                 rss_growth_mb, rss_slack_mb);
    return 1;
  }
  if (hw_threads >= 4 && n_cards >= 8 && speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: parallel wall-clock speedup %.2fx is below the "
                 "%.2fx bar at %d cards on %u hardware threads\n",
                 speedup, min_speedup, n_cards, hw_threads);
    return 1;
  }
  if (hw_threads < 4) {
    std::printf(
        "note: speedup gate skipped (%u hardware threads < 4; parallel "
        "dispatch is inline on this host).\n",
        hw_threads);
  }
  return 0;
}

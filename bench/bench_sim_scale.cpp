// SpeedLLM bench: serial simulation soak + host throughput.
//
// Long-horizon stress for the event engine under api::Engine: drives a
// ~100k-request Poisson trace through 8 cards in segments, one fresh
// engine per segment, and reports the host's simulated tokens per
// wall-second. Two gates run every time:
//
//  1. memory stability: RSS sampled after every segment; the final
//     sample must stay within --rss-slack-mb (default 96) of the second
//     (the first includes allocator warm-up);
//  2. long-session memory: the same segment traces then run back to back
//     through ONE api::Engine. Its cards' KV pools keep their fp32 rows in
//     the engine's row arena: the live blocks plus at most
//     serving::kHostCachedKvTokens of cached ones, whose cold rest drops
//     its rows. So the payload (Engine::host_kv_bytes) plateaus once the
//     cache budget is full, RSS may grow by that payload, and growth
//     beyond it must stay within --rss-slack-mb.
//
//   ./bench/bench_sim_scale [--preset tiny] [--requests 100000]
//                           [--segments 8] [--cards 8] [--seed 11]
//                           [--gen 8] [--rss-slack-mb 96] [--json out.json]
//
// --json writes {"bench": "sim_scale", "metrics": {...}} for the CI
// artifact upload and the tools/check_bench.py regression gate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "bench_util.hpp"
#include "compiler/compiler.hpp"
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
                   "rss-slack-mb", "json"});
  if (!cl_or.ok()) {
    std::fprintf(stderr, "%s\n", cl_or.status().ToString().c_str());
    return 1;
  }
  const CommandLine& cl = cl_or.value();
  auto preset = llama::ModelConfig::FromName(cl.GetString("preset", "tiny"));
  if (!preset.ok()) {
    std::fprintf(stderr, "%s\n", preset.status().ToString().c_str());
    return 1;
  }
  llama::ModelConfig config = *preset;
  const StatusOr<std::int64_t> requests = cl.GetInt("requests", 100000);
  const StatusOr<std::int64_t> segments = cl.GetInt("segments", 8);
  const StatusOr<std::int64_t> cards_flag = cl.GetInt("cards", 8);
  const StatusOr<std::int64_t> seed_flag = cl.GetInt("seed", 11);
  const StatusOr<std::int64_t> gen_flag = cl.GetInt("gen", 8);
  const StatusOr<double> rss_slack = cl.GetDouble("rss-slack-mb", 96.0);
  for (const Status& st :
       {requests.status(), segments.status(), cards_flag.status(),
        seed_flag.status(), gen_flag.status(), rss_slack.status()}) {
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  const int n_requests = static_cast<int>(*requests);
  const int n_segments = static_cast<int>(*segments);
  const int n_cards = static_cast<int>(*cards_flag);
  const auto seed = static_cast<std::uint64_t>(*seed_flag);
  const int gen = static_cast<int>(*gen_flag);
  const double rss_slack_mb = *rss_slack;

  llama::Weights weights =
      llama::GenerateSyntheticWeights(config, bench::kWeightSeed);
  auto u280 = hw::U280Config::Default();
  auto compiled =
      compiler::Compile(config, compiler::CompilerOptions::SpeedLLM(), u280);
  if (!compiled.ok()) {
    std::fprintf(stderr, "%s\n", compiled.status().ToString().c_str());
    return 1;
  }
  const accel::Program& program = compiled->program;
  const auto cards = hw::MultiCardConfig::Homogeneous(u280, n_cards);

  llama::SamplerConfig sampler;
  sampler.temperature = 0.9f;
  sampler.seed = 5;

  api::EngineConfig engine_config;
  engine_config.placement = serving::PlacementPolicy::kRoundRobin;
  engine_config.sampler = sampler;

  const int per_segment = n_requests / n_segments;
  std::printf(
      "== sim scale soak: %d requests (%d segments x %d), %d cards, %s ==\n\n",
      per_segment * n_segments, n_segments, per_segment, n_cards,
      config.ToString().c_str());

  Table table({"segment", "requests", "wall_s", "sim_tok_per_s", "rss_mib"});
  double wall_total_s = 0.0;
  double rss_first_mb = 0.0;
  double rss_last_mb = 0.0;
  std::int64_t total_tokens = 0;

  const auto segment_trace = [&](int s) {
    serving::WorkloadConfig wc;
    wc.num_requests = per_segment;
    wc.rate_rps = 3000.0;  // saturating: keeps all cards busy
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

    const auto t0 = std::chrono::steady_clock::now();
    // One segment: a fresh engine fed the whole trace up front, drained.
    auto report =
        bench::ServeTrace(program, weights, cards, engine_config, reqs);
    const double wall_s = Seconds(t0, std::chrono::steady_clock::now());
    if (!report.ok()) {
      std::fprintf(stderr, "segment %d failed: %s\n", s,
                   report.status().ToString().c_str());
      return 1;
    }

    wall_total_s += wall_s;
    total_tokens += report->merged.total_tokens;
    const double rss = RssMib();
    // Baseline at the second segment: the first includes allocator
    // warm-up, which is growth but not a leak.
    if (s == std::min(1, n_segments - 1)) rss_first_mb = rss;
    rss_last_mb = rss;

    table.AddRow();
    table.Cell(static_cast<std::int64_t>(s));
    table.Cell(static_cast<std::int64_t>(per_segment));
    table.Cell(wall_s, 2);
    table.Cell(report->merged.device_tokens_per_second, 0);
    table.Cell(rss, 1);
  }
  table.Print();

  const double sim_tokens_per_wall_s =
      wall_total_s > 0.0 ? static_cast<double>(total_tokens) / wall_total_s
                         : 0.0;
  const double rss_growth_mb = rss_last_mb - rss_first_mb;
  std::printf(
      "\n%lld simulated tokens in %.2fs wall (%.0f simulated tokens per "
      "wall-second); RSS %.1f -> %.1f MiB across %d segments.\n",
      static_cast<long long>(total_tokens), wall_total_s,
      sim_tokens_per_wall_s, rss_first_mb, rss_last_mb, n_segments);

  // Long-session phase: every segment's trace, back to back, through one
  // engine that lives for the whole run.
  api::Engine session(program, weights, cards, engine_config);
  const auto payload_mib = [&] {
    return static_cast<double>(session.host_kv_bytes()) / (1024.0 * 1024.0);
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
          {{"simulated_tokens", static_cast<double>(total_tokens)},
           {"wall_seconds", wall_total_s},
           {"sim_tokens_per_wall_second", sim_tokens_per_wall_s},
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
  return 0;
}

// Parallel-vs-serial identity for the concurrent shard-tick driver
// (ClusterConfig::parallel_ticking + sim::Engine::RunParallel): reports,
// token streams, and telemetry exports must be byte-identical to the
// single-threaded run at 8+ cards, across placement policies, prefix
// caching on/off, per-card KV dtypes, disaggregated role splits, and the
// rebalancer's conservative fallback.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/threadpool.hpp"
#include "compiler/compiler.hpp"
#include "llama/tokenizer.hpp"
#include "obs/export.hpp"
#include "runtime/variants.hpp"
#include "serving/cluster.hpp"
#include "serving/workload.hpp"
#include "test_util.hpp"

namespace speedllm::serving {
namespace {

using testutil::MakeRequest;

struct Fixture {
  llama::ModelConfig config = llama::ModelConfig::Tiny();
  llama::Weights weights = llama::GenerateSyntheticWeights(config, 808);
  hw::U280Config u280 = hw::U280Config::Default();

  accel::Program Compile() {
    auto r = compiler::Compile(config,
                               runtime::OptionsFor(runtime::Variant::kSpeedLLM),
                               u280);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value().program;
  }
};

std::vector<ServingRequest> MixedTrace(const llama::ModelConfig& config,
                                       int n, std::uint64_t seed = 4242) {
  Rng rng(seed);
  WorkloadConfig wc;
  wc.num_requests = n;
  wc.rate_rps = 3000.0;
  wc.min_prompt_tokens = 3;
  wc.max_prompt_tokens = 10;
  wc.min_new_tokens = 4;
  wc.max_new_tokens = 10;
  wc.vocab_size = config.vocab_size;
  return PoissonTrace(rng, wc);
}

/// Everything one timeline produces that must be byte-identical between
/// the serial and parallel drivers.
struct RunResult {
  ClusterReport report;
  std::string chrome_trace;
  std::string metrics_json;
  std::string prometheus;
};

RunResult RunOnce(const accel::Program& prog, const Fixture& f,
                  const hw::MultiCardConfig& cards, ClusterConfig config,
                  const std::vector<ServingRequest>& reqs,
                  const llama::SamplerConfig& sc, bool parallel,
                  bool traced = true) {
  config.parallel_ticking = parallel;
  config.telemetry.enable_tracing = traced;
  config.telemetry.enable_metrics = traced;
  ClusterSession session(prog, f.weights, cards, config, sc);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    session.SubmitAt(&reqs[i], i,
                     session.SecondsToCycles(reqs[i].arrival_seconds));
  }
  if (parallel) {
    // A forced 4-thread pool (not ThreadPool::Global) so lanes really run
    // on distinct threads even when the host has few cores.
    ThreadPool pool(4);
    session.engine().RunParallel(pool);
  } else {
    session.engine().Run();
  }
  EXPECT_TRUE(session.Finalize().ok()) << session.Finalize().ToString();
  RunResult result;
  if (traced) {
    result.chrome_trace =
        obs::ToChromeTraceJson(*session.telemetry()->trace());
    result.metrics_json = obs::ToMetricsJson(*session.telemetry()->metrics());
    result.prometheus = obs::ToPrometheusText(*session.telemetry()->metrics());
  }
  result.report = session.Harvest();
  return result;
}

void ExpectIdentical(const RunResult& serial, const RunResult& par,
                     const std::string& tag) {
  // Token streams: the strictest stream test is byte equality per
  // request under stochastic sampling.
  ASSERT_EQ(par.report.merged.outcomes.size(),
            serial.report.merged.outcomes.size())
      << tag;
  for (std::size_t i = 0; i < serial.report.merged.outcomes.size(); ++i) {
    EXPECT_EQ(par.report.merged.outcomes[i].generated,
              serial.report.merged.outcomes[i].generated)
        << tag << " request " << i;
    EXPECT_EQ(par.report.merged.outcomes[i].completion_seconds,
              serial.report.merged.outcomes[i].completion_seconds)
        << tag << " request " << i;
    EXPECT_EQ(par.report.merged.outcomes[i].first_token_seconds,
              serial.report.merged.outcomes[i].first_token_seconds)
        << tag << " request " << i;
  }
  // Timeline aggregates.
  EXPECT_EQ(par.report.merged.makespan_seconds,
            serial.report.merged.makespan_seconds)
      << tag;
  EXPECT_EQ(par.report.merged.total_tokens, serial.report.merged.total_tokens)
      << tag;
  EXPECT_EQ(par.report.shard_of_request, serial.report.shard_of_request) << tag;
  EXPECT_EQ(par.report.card_utilization, serial.report.card_utilization) << tag;
  EXPECT_EQ(par.report.rebalanced_requests, serial.report.rebalanced_requests)
      << tag;
  EXPECT_EQ(par.report.kv_transfer_bytes, serial.report.kv_transfer_bytes)
      << tag;
  EXPECT_EQ(par.report.kv_handoffs, serial.report.kv_handoffs) << tag;
  EXPECT_EQ(par.report.card_local_dma_bytes, serial.report.card_local_dma_bytes)
      << tag;
  // Telemetry: the merged trace and metric series capture every event's
  // order and timestamps -- byte equality of the exports is the whole
  // determinism contract in one comparison.
  EXPECT_EQ(par.chrome_trace, serial.chrome_trace) << tag;
  EXPECT_EQ(par.metrics_json, serial.metrics_json) << tag;
  EXPECT_EQ(par.prometheus, serial.prometheus) << tag;
}

constexpr PlacementPolicy kAllPlacements[] = {
    PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastOutstandingTokens,
    PlacementPolicy::kBestFitFreeKv, PlacementPolicy::kPrefixAffinity};

TEST(ParallelTickTest, EveryPlacementPolicyByteIdenticalAtEightCards) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 20);
  llama::SamplerConfig sc;
  sc.temperature = 0.9f;
  sc.seed = 13;
  const auto cards = hw::MultiCardConfig::Homogeneous(f.u280, 8);
  for (PlacementPolicy placement : kAllPlacements) {
    ClusterConfig config;
    config.placement = placement;
    // Pure-parallel matrix leg: no rebalancing, so every tick is
    // lane-safe and the run actually exercises concurrent phases.
    config.rebalance_queued = false;
    const std::string tag{PlacementPolicyName(placement)};
    ExpectIdentical(RunOnce(prog, f, cards, config, reqs, sc, false),
                    RunOnce(prog, f, cards, config, reqs, sc, true), tag);
  }
}

TEST(ParallelTickTest, PrefixCachingOnAndOffByteIdentical) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 16, 99);
  llama::SamplerConfig sc;
  sc.temperature = 0.8f;
  sc.seed = 7;
  const auto cards = hw::MultiCardConfig::Homogeneous(f.u280, 8);
  for (bool caching : {false, true}) {
    ClusterConfig config;
    config.placement = PlacementPolicy::kPrefixAffinity;
    config.rebalance_queued = false;
    config.shard.enable_prefix_cache = caching;
    config.shard.block_size_tokens = 8;
    const std::string tag = caching ? "cache-on" : "cache-off";
    ExpectIdentical(RunOnce(prog, f, cards, config, reqs, sc, false),
                    RunOnce(prog, f, cards, config, reqs, sc, true), tag);
  }
}

TEST(ParallelTickTest, HeterogeneousKvDtypesByteIdentical) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 16, 321);
  llama::SamplerConfig sc;
  sc.temperature = 0.9f;
  sc.seed = 29;
  auto cards = hw::MultiCardConfig::Homogeneous(f.u280, 8);
  cards.kv_dtype_per_card = {KvCacheDtype::kFp16, KvCacheDtype::kInt8,
                             KvCacheDtype::kFp16, KvCacheDtype::kInt8,
                             KvCacheDtype::kInt8, KvCacheDtype::kFp16,
                             KvCacheDtype::kInt8, KvCacheDtype::kFp16};
  ClusterConfig config;
  config.placement = PlacementPolicy::kRoundRobin;
  config.rebalance_queued = false;
  ExpectIdentical(RunOnce(prog, f, cards, config, reqs, sc, false),
                  RunOnce(prog, f, cards, config, reqs, sc, true),
                  "kv-dtype-mix");
}

TEST(ParallelTickTest, DisaggregatedRoleSplitByteIdentical) {
  // Prefill-role shards decline tick concurrency (handoffs reach across
  // shards), decode shards still tick in parallel: the mixed timeline
  // must stay byte-identical.
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 14, 77);
  llama::SamplerConfig sc;
  sc.temperature = 0.9f;
  sc.seed = 41;
  const auto cards = hw::MultiCardConfig::Homogeneous(f.u280, 8);
  ClusterConfig config;
  config.placement = PlacementPolicy::kRoundRobin;
  config.rebalance_queued = false;
  config.shard_roles = {ShardRole::kPrefill, ShardRole::kPrefill,
                        ShardRole::kDecode,  ShardRole::kDecode,
                        ShardRole::kDecode,  ShardRole::kUnified,
                        ShardRole::kUnified, ShardRole::kDecode};
  ExpectIdentical(RunOnce(prog, f, cards, config, reqs, sc, false),
                  RunOnce(prog, f, cards, config, reqs, sc, true),
                  "role-split");
}

TEST(ParallelTickTest, RebalanceArmedFallsBackConservativelyAndMatches) {
  // With rebalancing armed and tiny pools, ticks with queued
  // never-admitted work run as barriers; the rebalancer itself runs
  // serial. Streams and reports must still match the serial run exactly.
  Fixture f;
  auto prog = f.Compile();
  const std::uint32_t bytes_per_token = KvBytesPerToken(f.config);
  llama::SamplerConfig sc;
  sc.temperature = 0.7f;
  sc.seed = 17;
  // Round-robin pins part of the burst on starved card 0, whose queue
  // must drain to the roomy cards once its pool runs dry.
  std::vector<ServingRequest> reqs;
  for (int i = 0; i < 16; ++i) reqs.push_back(MakeRequest(4, 4, 0.0, i));
  const auto cards = hw::MultiCardConfig::Homogeneous(f.u280, 8);
  ClusterConfig config;
  config.placement = PlacementPolicy::kRoundRobin;
  config.rebalance_queued = true;
  config.shard.block_size_tokens = 4;
  config.kv_pool_bytes_per_card = {
      2ull * 4 * bytes_per_token,  32ull * 4 * bytes_per_token,
      32ull * 4 * bytes_per_token, 32ull * 4 * bytes_per_token,
      32ull * 4 * bytes_per_token, 32ull * 4 * bytes_per_token,
      32ull * 4 * bytes_per_token, 32ull * 4 * bytes_per_token};
  RunResult serial = RunOnce(prog, f, cards, config, reqs, sc, false);
  EXPECT_GT(serial.report.rebalanced_requests, 0);
  ExpectIdentical(serial, RunOnce(prog, f, cards, config, reqs, sc, true),
                  "rebalance-armed");
}

TEST(ParallelTickTest, UntracedRunMatchesSerial) {
  // Telemetry off, the way bench_sim_scale drives the session: the
  // parallel_ticking flag alone must not change a byte of the report.
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 20, 555);
  llama::SamplerConfig sc;
  sc.temperature = 0.9f;
  sc.seed = 3;
  const auto cards = hw::MultiCardConfig::Homogeneous(f.u280, 8);
  ClusterConfig config;
  config.placement = PlacementPolicy::kLeastOutstandingTokens;
  config.rebalance_queued = false;
  ExpectIdentical(RunOnce(prog, f, cards, config, reqs, sc, false, false),
                  RunOnce(prog, f, cards, config, reqs, sc, true, false),
                  "untraced");
}

}  // namespace
}  // namespace speedllm::serving

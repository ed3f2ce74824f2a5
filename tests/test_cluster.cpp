// Unit tests for multi-card serving (serving/cluster.hpp via api::Engine):
// the shared-clock determinism invariant (byte-identical token streams
// for 1 vs N cards under every placement policy, including under forced
// preemption), placement-policy routing, queued-request rebalancing,
// per-card accounting, the one weight image every card reads, and the
// scale-out throughput win.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "accel/executor.hpp"
#include "common/threadpool.hpp"
#include "compiler/compiler.hpp"
#include "llama/kernels.hpp"
#include "llama/tokenizer.hpp"
#include "serving/cluster.hpp"
#include "serving/shard.hpp"
#include "serving/workload.hpp"
#include "test_util.hpp"

namespace speedllm::serving {
namespace {

using testutil::MakeRequest;
using testutil::SharedTrace;

struct Fixture {
  llama::ModelConfig config = llama::ModelConfig::Tiny();
  llama::Weights weights = llama::GenerateSyntheticWeights(config, 808);
  hw::U280Config u280 = hw::U280Config::Default();

  accel::Program Compile() {
    auto r =
        compiler::Compile(config, compiler::CompilerOptions::SpeedLLM(), u280);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value().program;
  }
};

std::vector<ServingRequest> MixedTrace(const llama::ModelConfig& config,
                                       int n) {
  Rng rng(4242);
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

/// Serves `reqs` through one api::Engine over `cards`.
StatusOr<ClusterReport> Serve(const accel::Program& prog, const Fixture& f,
                              hw::MultiCardConfig cards,
                              api::EngineConfig config,
                              const std::vector<ServingRequest>& reqs,
                              const llama::SamplerConfig& sc) {
  config.sampler = sc;
  api::Engine engine(prog, f.weights, std::move(cards), std::move(config));
  return testutil::ServeTrace(engine, reqs);
}

/// Serves `reqs` through one api::Engine over `cards` identical cards.
StatusOr<ClusterReport> Serve(const accel::Program& prog, const Fixture& f,
                              int cards, api::EngineConfig config,
                              const std::vector<ServingRequest>& reqs,
                              const llama::SamplerConfig& sc) {
  return Serve(prog, f, hw::MultiCardConfig::Homogeneous(f.u280, cards),
               std::move(config), reqs, sc);
}

constexpr PlacementPolicy kAllPlacements[] = {
    PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastOutstandingTokens,
    PlacementPolicy::kBestFitFreeKv, PlacementPolicy::kPrefixAffinity};

// ---------------- determinism: 1 vs N cards ----------------

TEST(ClusterTest, TokenStreamsIdenticalForOneVsNCardsUnderEveryPolicy) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 9);
  llama::SamplerConfig sc;
  sc.temperature = 0.9f;  // stochastic sampling: the strictest stream test
  sc.seed = 13;

  auto baseline = Serve(prog, f, 1, {}, reqs, sc);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (PlacementPolicy placement : kAllPlacements) {
    for (int cards : {1, 2, 3, 4}) {
      api::EngineConfig config;
      config.placement = placement;
      auto report = Serve(prog, f, cards, config, reqs, sc);
      ASSERT_TRUE(report.ok())
          << PlacementPolicyName(placement) << " x" << cards << ": "
          << report.status().ToString();
      ASSERT_EQ(report->merged.outcomes.size(), reqs.size());
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(report->merged.outcomes[i].generated,
                  baseline->merged.outcomes[i].generated)
            << PlacementPolicyName(placement) << " x" << cards
            << " request " << i;
      }
    }
  }
}

TEST(ClusterTest, DeterministicAcrossRuns) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 8);
  llama::SamplerConfig sc;
  sc.temperature = 0.8f;
  sc.seed = 21;
  api::EngineConfig config;
  config.placement = PlacementPolicy::kLeastOutstandingTokens;

  auto a = Serve(prog, f, 3, config, reqs, sc);
  auto b = Serve(prog, f, 3, config, reqs, sc);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->shard_of_request, b->shard_of_request);
  EXPECT_EQ(a->rebalanced_requests, b->rebalanced_requests);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(a->merged.outcomes[i].generated,
              b->merged.outcomes[i].generated);
    EXPECT_DOUBLE_EQ(a->merged.outcomes[i].completion_seconds,
                     b->merged.outcomes[i].completion_seconds);
  }
}

TEST(ClusterTest, StreamsSurviveForcedPreemptionOnEveryPolicy) {
  Fixture f;
  auto prog = f.Compile();
  const std::uint32_t bytes_per_token = KvBytesPerToken(f.config);
  // 8 blocks of 4 tokens per card: three 16-token sequences cannot all be
  // resident on one card, so decode pressure forces swap-by-recompute.
  std::vector<ServingRequest> reqs;
  for (int i = 0; i < 6; ++i) reqs.push_back(MakeRequest(4, 12, 0.0, i));
  llama::SamplerConfig sc;
  sc.temperature = 0.85f;
  sc.seed = 5;

  auto baseline = Serve(prog, f, 1, {}, reqs, sc);
  ASSERT_TRUE(baseline.ok());

  for (PlacementPolicy placement : kAllPlacements) {
    api::EngineConfig config;
    config.placement = placement;
    config.scheduler.block_size_tokens = 4;
    config.scheduler.kv_pool_bytes = 8ull * 4 * bytes_per_token;
    config.scheduler.max_batch_tokens = 32;
    auto report = Serve(prog, f, 2, config, reqs, sc);
    ASSERT_TRUE(report.ok())
        << PlacementPolicyName(placement) << ": "
        << report.status().ToString();
    EXPECT_GT(report->merged.preemptions, 0)
        << PlacementPolicyName(placement);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      EXPECT_EQ(report->merged.outcomes[i].generated,
                baseline->merged.outcomes[i].generated)
          << PlacementPolicyName(placement) << " request " << i;
    }
  }
}

// ---------------- prefix caching: the byte-identity property ----------

TEST(ClusterTest, PrefixCachingOnVsOffStreamsIdenticalEverywhere) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = SharedTrace(f.config, 10);
  llama::SamplerConfig sc;
  sc.temperature = 0.9f;  // stochastic sampling: the strictest stream test
  sc.seed = 29;

  api::EngineConfig off;
  off.scheduler.block_size_tokens = 8;
  off.scheduler.enable_prefix_cache = false;
  auto baseline = Serve(prog, f, 1, off, reqs, sc);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(baseline->merged.prefix_cache_hit_tokens, 0);

  std::int64_t hit_tokens_seen = 0;
  for (PlacementPolicy placement : kAllPlacements) {
    for (int cards : {1, 4}) {
      api::EngineConfig on = off;
      on.placement = placement;
      on.scheduler.enable_prefix_cache = true;
      auto report = Serve(prog, f, cards, on, reqs, sc);
      ASSERT_TRUE(report.ok())
          << PlacementPolicyName(placement) << " x" << cards << ": "
          << report.status().ToString();
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(report->merged.outcomes[i].generated,
                  baseline->merged.outcomes[i].generated)
            << PlacementPolicyName(placement) << " x" << cards
            << " request " << i;
      }
      hit_tokens_seen =
          std::max(hit_tokens_seen, report->merged.prefix_cache_hit_tokens);
      // Cached prefill comes off the device's books but never off the
      // clients': makespan may only shrink.
      EXPECT_LE(report->merged.total_tokens, baseline->merged.total_tokens)
          << PlacementPolicyName(placement) << " x" << cards;
    }
  }
  // The property test is vacuous unless the cache genuinely engaged.
  EXPECT_GT(hit_tokens_seen, 0);
}

TEST(ClusterTest, PrefixCachingSurvivesForcedPreemptionWithIdenticalStreams) {
  Fixture f;
  auto prog = f.Compile();
  const std::uint32_t bytes_per_token = KvBytesPerToken(f.config);
  auto reqs = SharedTrace(f.config, 8);
  // A simultaneous burst: every request contends for residency at once,
  // so the tight pools below must preempt.
  for (ServingRequest& req : reqs) req.arrival_seconds = 0.0;
  llama::SamplerConfig sc;
  sc.temperature = 0.85f;
  sc.seed = 31;

  auto baseline = Serve(prog, f, 1, {}, reqs, sc);
  ASSERT_TRUE(baseline.ok());

  // 8 blocks of 8 tokens: co-residents admit on their prompt footprint
  // and then outgrow the pool during decode, forcing swap-by-recompute
  // with caching both on and off. Shared blocks are never swapped out
  // from under a co-owner -- the refcount keeps them resident for the
  // survivor -- and a swapped-in sequence may restore its own still-
  // cached blocks instead of recomputing.
  for (bool cache : {false, true}) {
    api::EngineConfig config;
    config.scheduler.block_size_tokens = 8;
    config.scheduler.enable_prefix_cache = cache;
    config.scheduler.kv_pool_bytes = 8ull * 8 * bytes_per_token;
    config.scheduler.max_batch_tokens = 64;
    // One card: no rebalance valve, so the burst must fight for one pool.
    auto report = Serve(prog, f, 1, config, reqs, sc);
    ASSERT_TRUE(report.ok()) << "cache=" << cache << ": "
                             << report.status().ToString();
    EXPECT_GT(report->merged.preemptions, 0) << "cache=" << cache;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      EXPECT_EQ(report->merged.outcomes[i].generated,
                baseline->merged.outcomes[i].generated)
          << "cache=" << cache << " request " << i;
    }
  }
}

TEST(ClusterTest, PrefixAffinityRoutesRepeatPromptsToTheirCard) {
  Fixture f;
  auto prog = f.Compile();
  // Three requests sharing a 24-token prefix, spaced out so each arrives
  // after the previous finished: load-blind policies would alternate
  // cards, but affinity must chase the cached prefix to card 0.
  ServingRequest first = MakeRequest(24, 4, 0.0, 7);
  ServingRequest second = first;
  second.arrival_seconds = 0.05;
  second.prompt.push_back(301);
  ServingRequest third = first;
  third.arrival_seconds = 0.1;
  third.prompt.push_back(302);
  std::vector<ServingRequest> reqs = {first, second, third};
  llama::SamplerConfig sc;
  sc.temperature = 0.0f;

  api::EngineConfig config;
  config.placement = PlacementPolicy::kPrefixAffinity;
  config.scheduler.block_size_tokens = 8;
  auto report = Serve(prog, f, 2, config, reqs, sc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->shard_of_request,
            (std::vector<std::int32_t>{0, 0, 0}));
  // Each follow-up re-served the shared blocks instead of re-prefilling.
  EXPECT_GE(report->merged.prefix_cache_hit_tokens, 2 * 16);
  EXPECT_EQ(report->shard_reports[1].total_tokens, 0);
}

// ---------------- placement policies ----------------

TEST(ClusterTest, RoundRobinAlternatesCards) {
  Fixture f;
  auto prog = f.Compile();
  std::vector<ServingRequest> reqs;
  for (int i = 0; i < 6; ++i) reqs.push_back(MakeRequest(4, 3, 0.0, i));
  llama::SamplerConfig sc;
  sc.temperature = 0.0f;

  auto report = Serve(prog, f, 3, {}, reqs, sc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->shard_of_request,
            (std::vector<std::int32_t>{0, 1, 2, 0, 1, 2}));
  EXPECT_EQ(report->rebalanced_requests, 0);
}

TEST(ClusterTest, LeastOutstandingRoutesAwayFromBusyCard) {
  Fixture f;
  auto prog = f.Compile();
  // One heavy request arrives first; the next three arrive while it is
  // still running and must spread to the idler cards.
  std::vector<ServingRequest> reqs = {MakeRequest(10, 24, 0.0, 0),
                                      MakeRequest(4, 4, 0.0001, 1),
                                      MakeRequest(4, 4, 0.0001, 2),
                                      MakeRequest(4, 4, 0.0001, 3)};
  llama::SamplerConfig sc;
  sc.temperature = 0.0f;
  api::EngineConfig config;
  config.placement = PlacementPolicy::kLeastOutstandingTokens;
  auto report = Serve(prog, f, 2, config, reqs, sc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->shard_of_request[0], 0);
  // The heavy request owes 34 tokens; every light request (8 tokens) must
  // land on card 1 until card 1's backlog catches up.
  EXPECT_EQ(report->shard_of_request[1], 1);
  EXPECT_EQ(report->shard_of_request[2], 1);
}

TEST(ClusterTest, BestFitRoutesToCardWithMostFreeKv) {
  Fixture f;
  auto prog = f.Compile();
  const std::uint32_t bytes_per_token = KvBytesPerToken(f.config);
  std::vector<ServingRequest> reqs = {MakeRequest(4, 4, 0.0, 0),
                                      MakeRequest(4, 4, 0.0, 1)};
  llama::SamplerConfig sc;
  sc.temperature = 0.0f;
  api::EngineConfig config;
  config.placement = PlacementPolicy::kBestFitFreeKv;
  config.scheduler.block_size_tokens = 4;
  // Card 1's HBM leaves twice card 0's pool: the first request
  // ties (16 vs 32 blocks -> card 1 wins outright), and with queued
  // demand projected the second must also prefer card 1's larger
  // headroom.
  config.scheduler.kv_pool_bytes = 32ull * 4 * bytes_per_token;
  const hw::MultiCardConfig cards = testutil::CardsWithHbm(
      f.u280, prog,
      {16ull * 4 * bytes_per_token, 32ull * 4 * bytes_per_token});
  auto report = Serve(prog, f, cards, config, reqs, sc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->shard_of_request[0], 1);  // most headroom
  // After projecting request 0's footprint (2 blocks) card 1 still has
  // 30 > 16 free, so request 1 follows.
  EXPECT_EQ(report->shard_of_request[1], 1);
}

// ---------------- rebalancing ----------------

TEST(ClusterTest, QueuedRequestsMigrateOffDryCard) {
  Fixture f;
  auto prog = f.Compile();
  const std::uint32_t bytes_per_token = KvBytesPerToken(f.config);
  // Card 0's HBM leaves room for one 8-token sequence (2 blocks); card
  // 1's for sixteen. Round-robin pins half the burst on the starved card 0, whose
  // queue must drain to card 1 when its pool runs dry.
  llama::SamplerConfig sc;
  sc.temperature = 0.7f;
  sc.seed = 3;
  std::vector<ServingRequest> reqs;
  for (int i = 0; i < 8; ++i) reqs.push_back(MakeRequest(4, 4, 0.0, i));

  api::EngineConfig config;
  config.placement = PlacementPolicy::kRoundRobin;
  config.scheduler.block_size_tokens = 4;
  config.scheduler.kv_pool_bytes = 32ull * 4 * bytes_per_token;
  const hw::MultiCardConfig cards = testutil::CardsWithHbm(
      f.u280, prog,
      {2ull * 4 * bytes_per_token, 32ull * 4 * bytes_per_token});
  auto report = Serve(prog, f, cards, config, reqs, sc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->rebalanced_requests, 0);
  // Migrated requests are served by card 1 and complete with the same
  // streams as an unconstrained single card.
  auto baseline = Serve(prog, f, 1, {}, reqs, sc);
  ASSERT_TRUE(baseline.ok());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(report->merged.outcomes[i].generated,
              baseline->merged.outcomes[i].generated)
        << "request " << i;
    EXPECT_EQ(report->merged.outcomes[i].generated.size(), 4u);
  }
}

// ---------------- accounting ----------------

TEST(ClusterTest, PerCardAccountingIsConsistent) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 10);
  llama::SamplerConfig sc;
  sc.temperature = 0.0f;
  auto report = Serve(prog, f, 4, {}, reqs, sc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  std::int64_t shard_tokens = 0;
  std::size_t shard_outcomes = 0;
  double max_shard_makespan = 0.0;
  for (const ServingReport& shard : report->shard_reports) {
    shard_tokens += shard.total_tokens;
    shard_outcomes += shard.outcomes.size();
    max_shard_makespan = std::max(max_shard_makespan, shard.makespan_seconds);
  }
  EXPECT_EQ(shard_tokens, report->merged.total_tokens);
  EXPECT_EQ(shard_outcomes, reqs.size());
  EXPECT_DOUBLE_EQ(max_shard_makespan, report->merged.makespan_seconds);
  ASSERT_EQ(report->card_utilization.size(), 4u);
  for (double u : report->card_utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
  EXPECT_GE(report->imbalance(), 1.0);
  for (std::int32_t s : report->shard_of_request) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 4);
  }
}

TEST(ClusterTest, EveryCardReadsTheEnginesOneWeightImage) {
  Fixture f;
  for (bool int8 : {false, true}) {
    SCOPED_TRACE(::testing::Message() << "int8 " << int8);
    compiler::CompilerOptions options =
        compiler::CompilerOptions::SpeedLLM();
    options.int8_weights = int8;
    auto cr = compiler::Compile(f.config, options, f.u280);
    ASSERT_TRUE(cr.ok()) << cr.status().ToString();
    const accel::Program& prog = cr->program;
    api::EngineConfig config;
    config.num_cards = 4;
    api::Engine engine(prog, f.weights, f.u280, config);
    const accel::WeightImage* image = engine.weight_image();
    ASSERT_NE(image, nullptr);
    ASSERT_EQ(engine.num_cards(), 4);
    for (int c = 0; c < 4; ++c) {
      EXPECT_EQ(engine.shard(c).executor().weight_image(), image) << c;
    }

    // One packed or quantized copy per distinct matrix, not per card.
    std::set<graph::ValueId> matrices;
    std::int64_t packed_floats = 0;
    for (const auto& op : prog.dg.graph.ops()) {
      if (op.kind != graph::OpKind::kMatMul) continue;
      if (matrices.insert(op.inputs[0]).second &&
          op.m * op.k * 4 < kPoolSplitBytes) {
        packed_floats += llama::PackedMatMulFloats(op.m, op.k);
      }
    }
    ASSERT_GT(packed_floats, 0);
    EXPECT_EQ(image->quantized_matrices(), int8 ? matrices.size() : 0u);
    EXPECT_EQ(image->packed_bytes(),
              int8 ? 0u : static_cast<std::size_t>(packed_floats) * 4);
  }
}

TEST(ClusterTest, ValidatesCardsAndRequests) {
  Fixture f;
  auto prog = f.Compile();
  llama::SamplerConfig sc;
  sc.temperature = 0.0f;

  // Heterogeneous clocks are rejected: one shared cycle clock.
  hw::MultiCardConfig skewed = hw::MultiCardConfig::Homogeneous(f.u280, 2);
  skewed.cards[1].clock_mhz = 450.0;
  api::Engine bad_clock(prog, f.weights, skewed);
  EXPECT_EQ(bad_clock.Submit(MakeRequest(4, 4, 0.0)).status().code(),
            StatusCode::kInvalidArgument);

  api::Engine empty_cluster(prog, f.weights, hw::MultiCardConfig{});
  EXPECT_EQ(empty_cluster.Submit(MakeRequest(4, 4, 0.0)).status().code(),
            StatusCode::kInvalidArgument);

  // A request that cannot fit the smallest card's pool is rejected up
  // front: placement and rebalancing must be free to use any card.
  api::EngineConfig tight;
  tight.scheduler.block_size_tokens = 4;
  tight.scheduler.kv_pool_bytes = 32ull * 4 * KvBytesPerToken(f.config);
  tight.sampler = sc;
  const hw::MultiCardConfig cards = testutil::CardsWithHbm(
      f.u280, prog,
      {32ull * 4 * KvBytesPerToken(f.config),
       2ull * 4 * KvBytesPerToken(f.config)});  // 8 tokens on card 1
  api::Engine engine(prog, f.weights, cards, tight);
  EXPECT_EQ(engine.Submit(MakeRequest(6, 6, 0.0)).status().code(),
            StatusCode::kResourceExhausted);

  // Empty workload is trivially fine.
  engine.RunToCompletion();
  EXPECT_TRUE(engine.Finish().ok());
}

TEST(ClusterTest, CardWithoutRoomForItsWeightsServesNothing) {
  // The resident weights and staging reserve come out of HBM before the
  // KV pool, explicit pool size or not: a card one byte short of that
  // reserve has no pool, so no request can ever fit the cluster.
  Fixture f;
  auto prog = f.Compile();
  api::EngineConfig config;
  config.scheduler.block_size_tokens = 4;
  config.scheduler.kv_pool_bytes = 32ull * 4 * KvBytesPerToken(f.config);
  hw::MultiCardConfig cards = hw::MultiCardConfig::Homogeneous(f.u280, 2);
  cards.cards[1].hbm.capacity_bytes = ResidentHbmReserveBytes(prog) - 1;
  api::Engine engine(prog, f.weights, cards, config);
  EXPECT_EQ(engine.kv_block_capacity(0), 32);
  EXPECT_EQ(engine.kv_block_capacity(1), 0);
  EXPECT_EQ(engine.Submit(MakeRequest(4, 4, 0.0)).status().code(),
            StatusCode::kResourceExhausted);
}

// ---------------- the scale-out win ----------------

TEST(ClusterTest, FourCardsBeatOneCardAtSaturatingLoad) {
  Fixture f;
  auto prog = f.Compile();
  std::vector<ServingRequest> reqs;
  for (int i = 0; i < 32; ++i) reqs.push_back(MakeRequest(6, 8, 0.0, i));
  llama::SamplerConfig sc;
  sc.temperature = 0.0f;

  auto one_report = Serve(prog, f, 1, {}, reqs, sc);
  ASSERT_TRUE(one_report.ok());

  auto four_report = Serve(prog, f, 4, {}, reqs, sc);
  ASSERT_TRUE(four_report.ok());

  EXPECT_GT(four_report->merged.device_tokens_per_second,
            2.0 * one_report->merged.device_tokens_per_second);
  EXPECT_LT(four_report->merged.makespan_seconds,
            one_report->merged.makespan_seconds);
  EXPECT_LE(four_report->imbalance(), 2.0);  // round-robin spreads a
                                             // uniform burst evenly
}

}  // namespace
}  // namespace speedllm::serving

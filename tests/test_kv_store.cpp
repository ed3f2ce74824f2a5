// One KV store: the KvBlockPool holds every card's functional K/V, so the
// host runs exactly the forwards the simulated device computes. Prefix
// hits, readmission restores, handoff adoption and remote fetches map
// K/V that already exists; ServingReport::executor_forwards must equal
// total_tokens + recomputed_tokens however much of that traffic a run
// has, and ServingReport::logit_forwards (the forwards that ran the
// classifier) the tokens sampled. The one host-only forward is the
// recompute of rows the host dropped past kHostCachedKvTokens, which no
// simulated counter sees.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "api/engine.hpp"
#include "compiler/compiler.hpp"
#include "serving/cluster.hpp"
#include "serving/workload.hpp"
#include "test_util.hpp"

namespace speedllm::serving {
namespace {

using testutil::SharedTrace;

struct Fixture {
  llama::ModelConfig config = llama::ModelConfig::Tiny();
  llama::Weights weights = llama::GenerateSyntheticWeights(config, 808);
  hw::U280Config u280 = hw::U280Config::Default();
  accel::Program program = Compile();

  accel::Program Compile() const {
    auto r =
        compiler::Compile(config, compiler::CompilerOptions::SpeedLLM(), u280);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value().program;
  }
};

void ExpectForwardsMatchDeviceWork(const ServingReport& merged) {
  EXPECT_GT(merged.total_tokens, 0);
  EXPECT_EQ(merged.executor_forwards,
            merged.total_tokens + merged.recomputed_tokens);
}

StatusOr<ClusterReport> RunCluster(const Fixture& f, int cards,
                                   api::EngineConfig config,
                                   const std::vector<ServingRequest>& reqs) {
  config.num_cards = cards;
  config.sampler.seed = 21;
  api::Engine engine(f.program, f.weights, f.u280, std::move(config));
  return testutil::ServeTrace(engine, reqs);
}

TEST(KvStoreTest, MultiTurnPrefixHitsRunNoForwards) {
  Fixture f;
  api::EngineConfig config;
  config.num_cards = 2;
  config.placement = PlacementPolicy::kPrefixAffinity;
  config.scheduler.block_size_tokens = 8;
  config.sampler.temperature = 0.0f;
  api::Engine engine(f.program, f.weights, f.u280, config);

  MultiTurnConfig chat;
  chat.num_users = 3;
  chat.turns_per_user = 4;
  chat.mean_think_seconds = 0.0005;
  chat.system_prompt_tokens = 12;
  chat.max_user_tokens = 4;
  chat.min_new_tokens = 3;
  chat.max_new_tokens = 5;
  chat.vocab_size = f.config.vocab_size;
  MultiTurnChatPool pool(91, chat);
  std::function<void(std::int32_t, ServingRequest)> issue =
      [&](std::int32_t user, ServingRequest request) {
        api::StreamCallbacks callbacks;
        callbacks.on_finish = [&, user](api::RequestHandle, FinishReason,
                                        const RequestOutcome& out) {
          if (auto next =
                  pool.OnFinish(user, engine.now_seconds(), out.generated)) {
            issue(user, std::move(*next));
          }
        };
        ASSERT_TRUE(engine.Submit(std::move(request), std::move(callbacks)).ok());
      };
  for (std::int32_t u = 0; u < chat.num_users; ++u) {
    if (auto first = pool.StartUser(u)) issue(u, std::move(*first));
  }
  engine.RunToCompletion();
  ASSERT_TRUE(pool.AllDone());
  auto report = engine.Finish();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->merged.prefix_cache_hit_tokens, 0);
  ExpectForwardsMatchDeviceWork(report->merged);
}

TEST(KvStoreTest, ReadmissionRestoresRunNoForwards) {
  // Six requests share an 8-token prefix in a 10-block pool of 4-token
  // blocks: decode growth preempts, and every readmission restores the
  // prefix its co-residents keep cached instead of recomputing it.
  Fixture f;
  api::EngineConfig config;
  config.scheduler.block_size_tokens = 4;
  config.scheduler.kv_pool_bytes = 10ull * 4 * KvBytesPerToken(f.config);
  config.scheduler.max_batch_seqs = 6;
  config.scheduler.max_batch_tokens = 48;
  std::vector<ServingRequest> reqs(6);
  for (std::int32_t i = 0; i < 6; ++i) {
    for (std::int32_t t = 0; t < 8; ++t) reqs[i].prompt.push_back(3 + t);
    reqs[i].prompt.push_back(100 + i);
    reqs[i].prompt.push_back(200 + i);
    reqs[i].max_new_tokens = 10;
  }
  auto report = RunCluster(f, 1, config, reqs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->merged.preemptions, 0);
  EXPECT_GT(report->merged.recomputed_tokens, 0);
  EXPECT_GT(report->merged.prefix_cache_hit_tokens, 0);
  ExpectForwardsMatchDeviceWork(report->merged);
}

TEST(KvStoreTest, HandoffAdoptionRunsNoForwards) {
  Fixture f;
  api::EngineConfig config;
  config.scheduler.block_size_tokens = 8;
  config.shard_roles = {ShardRole::kPrefill, ShardRole::kDecode};
  auto report = RunCluster(f, 2, config, SharedTrace(f.config, 12));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->kv_handoffs, 0);
  ExpectForwardsMatchDeviceWork(report->merged);
}

TEST(KvStoreTest, RemoteFetchRunsNoForwards) {
  Fixture f;
  api::EngineConfig config;
  config.scheduler.block_size_tokens = 8;
  config.placement = PlacementPolicy::kRoundRobin;  // splits prefixes
  config.sampler.seed = 21;
  // A fast link makes every remote prefix worth fetching.
  api::Engine engine(f.program, f.weights, testutil::FastLinkCards(f.u280, 2),
                     config);
  auto report = testutil::ServeTrace(engine, SharedTrace(f.config, 14));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->remote_prefix_hits, 0);
  ExpectForwardsMatchDeviceWork(report->merged);
}

// ---------------- Classifier forwards ----------------
//
// Only a row whose logits are sampled runs the classifier, and every
// sampled token of a run with no early stop is committed, so
// logit_forwards equals the generated tokens however much prefill,
// recompute or restore the run did.

std::int64_t GeneratedTokens(const ServingReport& merged) {
  std::int64_t generated = 0;
  for (const RequestOutcome& o : merged.outcomes) {
    generated += static_cast<std::int64_t>(o.generated.size());
  }
  return generated;
}

void ExpectOneLogitForwardPerGeneratedToken(const ServingReport& merged) {
  const std::int64_t generated = GeneratedTokens(merged);
  EXPECT_GT(generated, 0);
  EXPECT_EQ(merged.stopped_requests, 0);
  EXPECT_EQ(merged.logit_forwards, generated);
  EXPECT_LE(merged.logit_forwards, merged.executor_forwards);
}

TEST(KvStoreTest, GreedyRunRunsTheClassifierOncePerGeneratedToken) {
  Fixture f;
  api::EngineConfig config;
  config.scheduler.enable_prefix_cache = false;
  config.sampler.temperature = 0.0f;
  auto report = RunCluster(f, 1, config, SharedTrace(f.config, 10));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->merged.prefix_cache_hit_tokens, 0);
  ExpectOneLogitForwardPerGeneratedToken(report->merged);
  // Prompt rows but each request's last, and each request's final
  // token, skip the classifier.
  EXPECT_LT(report->merged.logit_forwards, report->merged.executor_forwards);
}

TEST(KvStoreTest, PreemptedRecomputeRunsNoClassifier) {
  // The readmission pool above: a preempted sequence keeps its pending
  // token, so its recompute rows sample nothing.
  Fixture f;
  api::EngineConfig config;
  config.scheduler.block_size_tokens = 4;
  config.scheduler.kv_pool_bytes = 10ull * 4 * KvBytesPerToken(f.config);
  config.scheduler.max_batch_seqs = 6;
  config.scheduler.max_batch_tokens = 48;
  std::vector<ServingRequest> reqs(6);
  for (std::int32_t i = 0; i < 6; ++i) {
    for (std::int32_t t = 0; t < 8; ++t) reqs[i].prompt.push_back(3 + t);
    reqs[i].prompt.push_back(100 + i);
    reqs[i].prompt.push_back(200 + i);
    reqs[i].max_new_tokens = 10;
  }
  auto report = RunCluster(f, 1, config, reqs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->merged.preemptions, 0);
  EXPECT_GT(report->merged.recomputed_tokens, 0);
  ExpectOneLogitForwardPerGeneratedToken(report->merged);
}

TEST(KvStoreTest, PrefixHitsRunNoClassifier) {
  Fixture f;
  api::EngineConfig config;
  config.scheduler.block_size_tokens = 8;
  auto report = RunCluster(f, 1, config, SharedTrace(f.config, 12));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->merged.prefix_cache_hit_tokens, 0);
  ExpectOneLogitForwardPerGeneratedToken(report->merged);
}

TEST(KvStoreTest, StopTokensRunTheClassifierButAreNeverCommitted) {
  Fixture f;
  api::EngineConfig config;
  config.sampler.temperature = 0.0f;
  const std::vector<ServingRequest> reqs = SharedTrace(f.config, 10);
  auto free_run = RunCluster(f, 1, config, reqs);
  ASSERT_TRUE(free_run.ok()) << free_run.status().ToString();
  ASSERT_FALSE(free_run->merged.outcomes[0].generated.empty());
  // Greedy replays the free run, so request 0 at least stops on it.
  config.sampler.eos_token = free_run->merged.outcomes[0].generated.back();
  auto report = RunCluster(f, 1, config, reqs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ServingReport& merged = report->merged;
  EXPECT_GT(merged.stopped_requests, 0);
  EXPECT_EQ(merged.logit_forwards,
            GeneratedTokens(merged) + merged.stopped_requests);
  EXPECT_LE(merged.logit_forwards, merged.executor_forwards);
}

TEST(KvStoreTest, HandoffAndSpeculationRunTheClassifierOncePerToken) {
  Fixture f;
  api::EngineConfig handoff;
  handoff.scheduler.block_size_tokens = 8;
  handoff.shard_roles = {ShardRole::kPrefill, ShardRole::kDecode};
  api::EngineConfig spec;
  spec.scheduler.speculative.draft_tokens = 4;
  for (const auto& [cards, config] :
       {std::pair{2, handoff}, std::pair{1, spec}}) {
    auto report = RunCluster(f, cards, config, SharedTrace(f.config, 12));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ExpectOneLogitForwardPerGeneratedToken(report->merged);
  }
}


// ---------------- Prefill chunks ----------------

TEST(KvStoreTest, PrefillChunkPreemptionMatchesTheRowByRowRun) {
  // A 10-block pool of 4-token blocks with tiers on. The interactive
  // 15-token prompt is admitted into the blocks it needs; decode rows
  // earlier in the same tick then take one, so the third row of its
  // prefill chunk finds the pool dry and preempts the best-effort
  // resident. The chunk's rows append, preempt and are priced in row
  // order before its one forward, so every stream, tick end and
  // counter is the one the row-by-row feed step produced.
  Fixture f;
  api::EngineConfig config;
  config.scheduler.block_size_tokens = 4;
  config.scheduler.kv_pool_bytes = 10ull * 4 * KvBytesPerToken(f.config);
  config.scheduler.max_batch_seqs = 6;
  config.scheduler.max_batch_tokens = 12;
  config.scheduler.enable_tiers = true;
  config.sampler.seed = 21;
  config.telemetry.enable_tracing = true;
  const auto request = [](std::vector<std::int32_t> prompt, std::int64_t gen,
                          double arrival, RequestTier tier) {
    ServingRequest r;
    r.prompt = std::move(prompt);
    r.max_new_tokens = gen;
    r.arrival_seconds = arrival;
    r.tier = tier;
    return r;
  };
  const std::vector<ServingRequest> reqs = {
      request({257, 383, 100, 82, 389}, 2, 0.0, RequestTier::kStandard),
      request({310, 121, 270, 218, 121, 116, 358, 220, 190, 151, 351}, 4, 0.0,
              RequestTier::kBestEffort),
      request({385, 11, 129, 192, 319, 84, 59, 167, 51, 12, 319}, 3, 40e-6,
              RequestTier::kStandard),
      request({15, 273, 13, 365, 378, 78, 73, 189, 338, 80, 118, 91, 152, 102,
               5},
              4, 60e-6, RequestTier::kInteractive),
      request({40, 95, 299, 15, 192, 162, 190, 18, 149, 100, 283, 25, 246, 127},
              4, 100e-6, RequestTier::kInteractive),
  };
  api::Engine engine(f.program, f.weights, f.u280, config);
  auto report = testutil::ServeTrace(engine, reqs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ServingReport& merged = report->merged;
  std::vector<double> tick_ends;
  for (const obs::RequestEvent& e : engine.telemetry()->trace()->events()) {
    if (e.kind == obs::RequestEventKind::kTick) {
      tick_ends.push_back(e.end_seconds);
    }
  }
  // Pinned from the row-by-row feed step (one forward per row).
  const std::vector<std::vector<std::int32_t>> streams = {
      {94, 343},
      {92, 239, 160, 54},
      {407, 258, 5},
      {466, 206, 317, 22},
      {194, 119, 236, 464}};
  ASSERT_EQ(merged.outcomes.size(), streams.size());
  for (std::size_t i = 0; i < streams.size(); ++i) {
    EXPECT_EQ(merged.outcomes[i].generated, streams[i]) << "request " << i;
  }
  const std::vector<double> pinned_tick_ends = {
      0x1.1b6527e99aaa8p-15, 0x1.f6d02b7c04b34p-15, 0x1.891aa9b2cfaeep-14,
      0x1.0b669ed3ce821p-13, 0x1.47730631f3423p-13, 0x1.777235b5d2c39p-13,
      0x1.a7716539b245p-13,  0x1.ee4aaf3418efap-13, 0x1.116e1fd18fe37p-12,
      0x1.34dac4cec338cp-12, 0x1.4f238d0646a46p-12, 0x1.672324c836652p-12,
      0x1.7dfe244f5c505p-12};
  EXPECT_EQ(tick_ends, pinned_tick_ends);
  EXPECT_EQ(merged.preemptions, 1);
  // Both counters count rows, not forward calls.
  EXPECT_EQ(merged.executor_forwards, 87);
  EXPECT_EQ(merged.logit_forwards, 17);
  EXPECT_EQ(merged.recomputed_tokens, 14);
  ExpectForwardsMatchDeviceWork(merged);
}

// ---------------- Host row budget ----------------
//
// Past kHostCachedKvTokens cached tokens the engine's row arena drops the
// coldest cached rows; a later hit recomputes them on the host before the
// sequence attends over them. Streams cannot tell.

/// `n` distinct 48-token prompts arriving together (3 sealed blocks of 16
/// each), then the prompts 1, 3, 5, ... again, `resubmits` of them, one
/// second later, when their rows are among the first dropped.
std::vector<ServingRequest> OverflowTrace(int n, int resubmits) {
  std::vector<ServingRequest> reqs;
  for (int i = 0; i < n; ++i) {
    reqs.push_back(testutil::MakeRequest(48, 4, 0.0, i));
  }
  for (int m = 0; m < resubmits; ++m) {
    reqs.push_back(reqs[static_cast<std::size_t>(2 * m + 1)]);
    reqs.back().arrival_seconds = 1.0;
  }
  return reqs;
}

TEST(KvStoreTest, DroppedRowsAreRecomputedBitIdentically) {
  Fixture f;
  // 360 requests cache 360 * 48 = 17,280 tokens, past the budget.
  const std::vector<ServingRequest> reqs = OverflowTrace(360, 8);
  for (std::uint64_t seed : {21ull, 4242ull}) {
    SPEEDLLM_SEED_TRACE("kv_store/host_row_budget", seed);
    api::EngineConfig off;
    off.scheduler.enable_prefix_cache = false;
    off.sampler.seed = seed;
    api::Engine fresh(f.program, f.weights, f.u280, off);
    auto want = testutil::ServeTrace(fresh, reqs);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    // Round-robin on 2 fast-linked cards: the even resubmits land on card
    // 0 and fetch their cold prefix from card 1, the odd ones hit it on
    // card 1.
    for (int cards : {1, 2}) {
      SCOPED_TRACE(::testing::Message() << cards << " cards");
      api::EngineConfig config;
      config.placement = PlacementPolicy::kRoundRobin;
      config.sampler.seed = seed;
      api::Engine engine(f.program, f.weights,
                         testutil::FastLinkCards(f.u280, cards), config);
      auto report = testutil::ServeTrace(engine, reqs);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      ASSERT_EQ(report->merged.outcomes.size(), reqs.size());
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(report->merged.outcomes[i].generated,
                  want->merged.outcomes[i].generated)
            << "request " << i;
      }
      EXPECT_GT(report->merged.prefix_cache_hit_tokens, 0);
      ExpectForwardsMatchDeviceWork(report->merged);
      std::int64_t dropped = 0;
      std::int64_t materialized = 0;
      for (int c = 0; c < cards; ++c) {
        const KvPoolStats stats = engine.kv_pool_stats(c);
        dropped += stats.host_dropped_blocks;
        materialized += stats.materialized_blocks;
        EXPECT_GT(stats.host_recomputed_rows, 0) << "card " << c;
      }
      EXPECT_GT(dropped, 0);
      if (cards == 2) {
        EXPECT_GT(report->remote_prefix_hits, 0);
        EXPECT_GT(engine.kv_pool_stats(0).remote_install_blocks, 0);
      }
      // The rows kept are bounded by the budget, not by the blocks cached.
      const std::uint64_t block_bytes =
          static_cast<std::uint64_t>(
              accel::KvBlockLayout{f.config.n_layers, f.config.kv_dim(),
                                   config.scheduler.block_size_tokens}
                  .block_floats()) *
          sizeof(float);
      EXPECT_LT(engine.host_kv_bytes(),
                static_cast<std::uint64_t>(materialized) * block_bytes);
    }
  }
}

}  // namespace
}  // namespace speedllm::serving

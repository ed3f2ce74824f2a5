// Unit tests for the disaggregation layer (serving/interconnect.hpp):
// the shared-station interconnect cost model, prefill/decode shard
// roles with KV handoffs, and remote-fetch arbitration over the
// per-card prefix caches. The headline invariant everywhere: token
// streams are byte-identical to unified mode -- roles, fetch-or-recompute
// decisions, and interconnect contention move timing, never tokens.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "compiler/compiler.hpp"
#include "serving/cluster.hpp"
#include "serving/interconnect.hpp"
#include "serving/workload.hpp"
#include "test_util.hpp"

namespace speedllm::serving {
namespace {

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

std::vector<ShardRole> Roles(int cards) {
  // Half prefill, half decode (2 -> p,d; 4 -> p,p,d,d).
  std::vector<ShardRole> roles(static_cast<std::size_t>(cards),
                               ShardRole::kPrefill);
  for (int c = cards / 2; c < cards; ++c) {
    roles[static_cast<std::size_t>(c)] = ShardRole::kDecode;
  }
  return roles;
}

// ---------------- interconnect cost model ----------------

TEST(InterconnectTest, UncontendedLocalDmaMatchesAdditiveCost) {
  hw::U280Config u280 = hw::U280Config::Default();
  hw::MultiCardConfig cards = hw::MultiCardConfig::Homogeneous(u280, 1);
  Interconnect ic(cards);
  const hw::HbmConfig& hbm = u280.hbm;
  const std::uint64_t bytes = 1 << 20;
  const std::uint64_t agg =
      static_cast<std::uint64_t>(hbm.num_channels) *
      hbm.bytes_per_cycle_per_channel;
  const sim::Cycles expect = hbm.dma_setup_cycles + hbm.latency_cycles +
                             (bytes + agg - 1) / agg;
  const hw::TransferTiming t = ic.LocalDma(1000, bytes, 0);
  EXPECT_EQ(t.start, 1000u);
  EXPECT_EQ(t.end, 1000 + expect);
  EXPECT_EQ(ic.local_dma_bytes(0), static_cast<std::int64_t>(bytes));
}

TEST(InterconnectTest, ConcurrentLocalDmaSerializesOnTheSharedChannel) {
  hw::U280Config u280 = hw::U280Config::Default();
  hw::MultiCardConfig cards = hw::MultiCardConfig::Homogeneous(u280, 1);
  Interconnect ic(cards);
  const std::uint64_t bytes = 1 << 18;
  const hw::TransferTiming a = ic.LocalDma(0, bytes, 0);
  const sim::Cycles single = a.end;
  // Issued at the same ready time, the second move queues behind the
  // first: together they take exactly twice one move's cost, not the
  // additive-per-tick overlap of the old model.
  const hw::TransferTiming b = ic.LocalDma(0, bytes, 0);
  EXPECT_EQ(b.end, 2 * single);
}

TEST(InterconnectTest, CrossCardTransferCrossesReadLinkWrite) {
  hw::U280Config u280 = hw::U280Config::Default();
  hw::MultiCardConfig cards = hw::MultiCardConfig::Homogeneous(u280, 2);
  Interconnect ic(cards);
  const std::uint64_t bytes = 1 << 16;
  const sim::Cycles estimate = ic.EstimateTransferEnd(0, bytes, 0, 1);
  const hw::TransferTiming t = ic.Transfer(0, bytes, 0, 1);
  EXPECT_EQ(t.end, estimate);  // uncontended estimate is exact
  // Strictly more than a local move (link latency + second HBM leg).
  Interconnect fresh(cards);
  EXPECT_GT(t.end, fresh.LocalDma(0, bytes, 0).end);
  EXPECT_EQ(ic.link_bytes(0, 1), static_cast<std::int64_t>(bytes));
  EXPECT_EQ(ic.transfer_out_bytes(0), static_cast<std::int64_t>(bytes));
  EXPECT_EQ(ic.transfer_in_bytes(1), static_cast<std::int64_t>(bytes));
  EXPECT_EQ(ic.num_transfers(), 1);
}

// ---------------- role validation ----------------

TEST(DisaggTest, ValidateClusterRolesRejectsBadAssignments) {
  std::vector<ShardRole> roles;
  EXPECT_TRUE(ValidateClusterRoles(roles, 3).ok());  // empty = unified
  roles = {ShardRole::kPrefill, ShardRole::kDecode};
  EXPECT_TRUE(ValidateClusterRoles(roles, 2).ok());
  EXPECT_FALSE(ValidateClusterRoles(roles, 3).ok());  // size mismatch
  roles = {ShardRole::kDecode, ShardRole::kDecode};
  EXPECT_FALSE(ValidateClusterRoles(roles, 2).ok());  // nobody prefills
  roles = {ShardRole::kPrefill, ShardRole::kUnified};
  EXPECT_FALSE(ValidateClusterRoles(roles, 2).ok());  // no decode target
  roles = {ShardRole::kUnified, ShardRole::kDecode};
  EXPECT_FALSE(ValidateClusterRoles(roles, 2).ok());  // no prefill feeder
  roles = {ShardRole::kUnified, ShardRole::kUnified};
  EXPECT_TRUE(ValidateClusterRoles(roles, 2).ok());
}

TEST(DisaggTest, EngineRejectsBadRolesWithoutServing) {
  // A card's role comes only from EngineConfig::shard_roles, so every
  // assignment the engine runs has passed ValidateClusterRoles.
  Fixture f;
  auto prog = f.Compile();
  for (const std::vector<ShardRole>& roles :
       {std::vector<ShardRole>{ShardRole::kDecode, ShardRole::kDecode},
        std::vector<ShardRole>{ShardRole::kPrefill, ShardRole::kUnified}}) {
    api::EngineConfig config;
    config.num_cards = 2;
    config.shard_roles = roles;
    api::Engine engine(prog, f.weights, f.u280, config);
    auto handle =
        engine.Submit(ServingRequest{{llama::kBosToken, 5, 9}, 4, 0.0, {}});
    EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument);
    engine.RunToCompletion();
    EXPECT_EQ(engine.Finish().status().code(), StatusCode::kInvalidArgument);
  }
}

// ---------------- byte-identity property tests ----------------

TEST(DisaggTest, TokenStreamsIdenticalToUnifiedAcrossRolesDtypesCaching) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 10);
  llama::SamplerConfig sc;
  sc.temperature = 0.9f;  // stochastic sampling: the strictest check
  sc.seed = 13;

  auto baseline = Serve(prog, f, 1, {}, reqs, sc);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (KvCacheDtype dtype : {KvCacheDtype::kFp16, KvCacheDtype::kInt8}) {
    for (bool cache : {false, true}) {
      for (int cards : {1, 2, 4}) {
        api::EngineConfig config;
        config.scheduler.kv_cache_dtype = dtype;
        config.scheduler.enable_prefix_cache = cache;
        if (cards > 1) config.shard_roles = Roles(cards);
        auto report = Serve(prog, f, cards, config, reqs, sc);
        ASSERT_TRUE(report.ok())
            << cards << " cards dtype " << static_cast<int>(dtype)
            << " cache " << cache << ": " << report.status().ToString();
        ASSERT_EQ(report->merged.outcomes.size(), reqs.size());
        for (std::size_t i = 0; i < reqs.size(); ++i) {
          EXPECT_EQ(report->merged.outcomes[i].generated,
                    baseline->merged.outcomes[i].generated)
              << cards << " cards dtype " << static_cast<int>(dtype)
              << " cache " << cache << " request " << i;
        }
        if (cards > 1) {
          // Disaggregated mode genuinely hands off: every completed
          // request crossed the interconnect exactly once.
          EXPECT_GT(report->kv_handoffs, 0);
          EXPECT_GT(report->kv_transfer_bytes, 0);
          for (const RequestOutcome& outcome : report->merged.outcomes) {
            EXPECT_EQ(outcome.handoffs, 1);
          }
          // Decode specialists never run first-pass prefill, yet serve
          // every request's decode: all completions land on them.
          for (std::int32_t card : report->shard_of_request) {
            EXPECT_GE(card, cards / 2);
          }
        }
      }
    }
  }
}

TEST(DisaggTest, StreamsIdenticalWhetherPrefixesAreFetchedOrRecomputed) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = SharedTrace(f.config, 14);
  llama::SamplerConfig sc;
  sc.temperature = 0.8f;
  sc.seed = 21;

  auto baseline = Serve(prog, f, 1, {}, reqs, sc);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // The default link, one that makes every fetch worth it, and one that
  // makes none worth it.
  const std::pair<const char*, hw::MultiCardConfig> links[] = {
      {"default", hw::MultiCardConfig::Homogeneous(f.u280, 2)},
      {"fast", testutil::FastLinkCards(f.u280, 2)},
      {"slow", testutil::SlowLinkCards(f.u280, 2)}};
  for (const auto& [name, cards] : links) {
    api::EngineConfig config;
    config.scheduler.block_size_tokens = 8;
    auto report = Serve(prog, f, cards, config, reqs, sc);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      EXPECT_EQ(report->merged.outcomes[i].generated,
                baseline->merged.outcomes[i].generated)
          << name << " link, request " << i;
    }
  }
}

TEST(DisaggTest, DecodeCardRecomputesTheHandedOffRowsItDoesNotCache) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = SharedTrace(f.config, 14);
  llama::SamplerConfig sc;
  sc.temperature = 0.8f;
  sc.seed = 21;
  auto reference =
      testutil::ReferenceStreams(prog, f.weights, f.u280, reqs, sc);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  api::EngineConfig config;
  config.num_cards = 2;
  config.shard_roles = Roles(2);
  config.scheduler.block_size_tokens = 8;
  config.sampler = sc;
  api::Engine engine(prog, f.weights, f.u280, config);
  auto report = testutil::ServeTrace(engine, reqs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  std::int64_t handed_off_tokens = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const RequestOutcome& outcome = report->merged.outcomes[i];
    EXPECT_EQ(outcome.generated, (*reference)[i]) << "request " << i;
    if (outcome.handoffs > 0) {
      handed_off_tokens += static_cast<std::int64_t>(reqs[i].prompt.size());
    }
  }
  EXPECT_GT(report->kv_handoffs, 0);

  // No host rows ship: the decode card recomputes every handed-off row
  // that its own prefix cache does not already hold. The identity is
  // exact while nothing else owes rows there (no preemption, no dropped
  // or remotely installed cached block).
  const KvPoolStats decode = engine.kv_pool_stats(1);
  ASSERT_EQ(report->merged.preemptions, 0);
  ASSERT_EQ(decode.host_dropped_blocks, 0);
  ASSERT_EQ(decode.remote_install_blocks, 0);
  EXPECT_GT(decode.prefix_hit_tokens, 0);
  EXPECT_GT(decode.host_recomputed_rows, 0);
  EXPECT_EQ(decode.host_recomputed_rows,
            handed_off_tokens - decode.prefix_hit_tokens);
}

// ---------------- remote-fetch arbitration ----------------

TEST(DisaggTest, LinkSpeedForcesEachArbitrationBranch) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = SharedTrace(f.config, 14);
  llama::SamplerConfig sc;
  sc.seed = 21;

  auto run = [&](hw::MultiCardConfig cards) {
    api::EngineConfig config;
    config.scheduler.block_size_tokens = 8;
    config.placement = PlacementPolicy::kRoundRobin;  // splits prefixes
    auto report = Serve(prog, f, std::move(cards), config, reqs, sc);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    ClusterReport r = std::move(*report);
    for (const auto& d : r.prefix_fetch_log) {
      EXPECT_GT(d.tokens, 0);
      EXPECT_GT(d.bytes, 0);
      EXPECT_NE(d.src_card, d.dst_card);
      // The arbitration invariant: a chosen fetch never costs more than
      // the recompute it replaced (by the model's own estimates).
      if (d.fetched) {
        EXPECT_LE(d.fetch_seconds_estimate, d.recompute_seconds_estimate)
            << "stream " << d.stream_index;
      }
    }
    return r;
  };

  const ClusterReport slow = run(testutil::SlowLinkCards(f.u280, 2));
  EXPECT_EQ(slow.remote_prefix_hits, 0);
  EXPECT_FALSE(slow.prefix_fetch_log.empty());
  for (const auto& d : slow.prefix_fetch_log) {
    EXPECT_FALSE(d.fetched) << "stream " << d.stream_index;
  }

  const ClusterReport fast = run(testutil::FastLinkCards(f.u280, 2));
  EXPECT_GT(fast.remote_prefix_hits, 0);
  EXPECT_GT(fast.remote_prefix_hit_tokens, 0);
  EXPECT_GT(fast.kv_transfer_bytes, 0);
  bool saw_fetch = false;
  for (const auto& d : fast.prefix_fetch_log) saw_fetch |= d.fetched;
  EXPECT_TRUE(saw_fetch);
}

// ---------------- DMA reconciliation ----------------

TEST(DisaggTest, InterconnectLocalDmaReconcilesWithPoolStats) {
  Fixture f;
  auto prog = f.Compile();
  // A tight pool forces preemption/restore and COW traffic.
  auto reqs = SharedTrace(f.config, 16);
  llama::SamplerConfig sc;
  sc.seed = 5;
  api::EngineConfig config;
  config.scheduler.block_size_tokens = 8;
  config.scheduler.kv_pool_bytes = 10ull * 8 * KvBytesPerToken(f.config);
  config.num_cards = 2;
  config.sampler = sc;
  api::Engine engine(prog, f.weights, f.u280, config);
  auto report = testutil::ServeTrace(engine, reqs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Every COW/restore/swap byte the pools report was queued through the
  // interconnect's shared channel stations -- nothing is double-charged
  // and nothing bypasses the queue.
  const std::int64_t queued = engine.interconnect()->local_dma_bytes(0) +
                              engine.interconnect()->local_dma_bytes(1);
  EXPECT_GT(report->merged.dma_bytes_moved, 0);
  EXPECT_EQ(queued, report->merged.dma_bytes_moved);
}

// ---------------- remote-fetch source choice ----------------

using FetchDecision = ClusterReport::PrefixFetchDecision;

/// The fetch decision logged for stream `index`, or null.
const FetchDecision* DecisionFor(const ClusterReport& report,
                                 std::size_t index) {
  for (const FetchDecision& d : report.prefix_fetch_log) {
    if (d.stream_index == index) return &d;
  }
  return nullptr;
}

TEST(DisaggTest, FetchSourceIsTheLowestCardHoldingTheLongestPrefix) {
  // Round-robin over three cards: card 0 caches an unrelated prompt,
  // cards 1 and 2 each cache a prompt, and a later copy of the shared
  // two-block prompt lands on card 0, which must fetch it.
  Fixture f;
  auto prog = f.Compile();
  api::EngineConfig ec;
  ec.placement = PlacementPolicy::kRoundRobin;
  ec.scheduler.block_size_tokens = 8;
  const ServingRequest shared = testutil::MakeRequest(17, 2, 0.0, 100);
  // The shared prompt's first block, then a different second block.
  ServingRequest one_block = testutil::MakeRequest(17, 2, 0.0, 200);
  std::copy(shared.prompt.begin(), shared.prompt.begin() + 8,
            one_block.prompt.begin());
  ServingRequest copy = shared;
  copy.arrival_seconds = 0.5;

  auto fetch = [&](const ServingRequest& on_card1) {
    api::Engine engine(prog, f.weights, testutil::FastLinkCards(f.u280, 3),
                       ec);
    const std::uint64_t block_bytes =
        engine.shard(0).pool().config().block_bytes();
    auto report = testutil::ServeTrace(
        engine,
        {testutil::MakeRequest(17, 2, 0.0, 300), on_card1, shared, copy});
    const FetchDecision* d =
        report.ok() ? DecisionFor(*report, 3) : nullptr;
    if (d == nullptr) {
      ADD_FAILURE() << "no fetch decision for the copy: "
                    << report.status().ToString();
      return FetchDecision{};
    }
    EXPECT_EQ(d->dst_card, 0);
    EXPECT_TRUE(d->fetched);
    EXPECT_EQ(d->tokens, 16);  // two blocks, capped at the prompt minus one
    EXPECT_EQ(d->bytes, static_cast<std::int64_t>(2 * block_bytes));
    return *d;
  };
  // Card 1 holds one block of the prompt, card 2 both: card 2 wins.
  EXPECT_EQ(fetch(one_block).src_card, 2);
  // Both hold both blocks: the lower card id wins the tie.
  EXPECT_EQ(fetch(shared).src_card, 1);
}

TEST(DisaggTest, CardsPastSixtyFourServeAsFetchSources) {
  // Sixty-four distinct prompts fill cards 0-63 round-robin, a shared
  // two-block prompt lands on card 64, and a later copy of it lands on
  // card 0, which fetches it from card 64.
  Fixture f;
  auto prog = f.Compile();
  constexpr int kCards = 65;
  api::EngineConfig ec;
  ec.placement = PlacementPolicy::kRoundRobin;
  ec.scheduler.block_size_tokens = 8;
  ec.scheduler.kv_pool_bytes = 64 * 1024;
  std::vector<ServingRequest> reqs;
  for (int i = 0; i < kCards - 1; ++i) {
    reqs.push_back(testutil::MakeRequest(9, 2, 0.0, i));
  }
  const ServingRequest shared = testutil::MakeRequest(17, 2, 0.0, 100);
  reqs.push_back(shared);
  reqs.push_back(shared);
  reqs.back().arrival_seconds = 0.5;
  api::Engine engine(prog, f.weights,
                     testutil::FastLinkCards(f.u280, kCards), ec);
  auto report = testutil::ServeTrace(engine, reqs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->shard_of_request[kCards - 1], kCards - 1);
  EXPECT_EQ(report->shard_of_request[kCards], 0);
  const FetchDecision* d = DecisionFor(*report, kCards);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->src_card, kCards - 1);
  EXPECT_EQ(d->dst_card, 0);
  EXPECT_TRUE(d->fetched);
  EXPECT_EQ(report->remote_prefix_hits, 1);
}

}  // namespace
}  // namespace speedllm::serving

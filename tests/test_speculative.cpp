// Draft-and-verify speculative decoding: the invariant under test is
// that speculation NEVER changes a token stream -- committed tokens are
// always the target model's own samples; acceptance only decides how
// many of them land in one tick -- while the grouped verify launch
// strictly collapses latency when drafts are accepted.
//
// Covered here:
//  * pool-level draft phases: BeginSpeculation / RollbackSpeculation
//    restore the sequence byte-identically (token count, block table,
//    chain hash / cache state), draft blocks never enter the prefix
//    cache and never leak refcounts, mid-phase Release is legal;
//  * stream identity spec-on vs spec-off across card count, placement
//    policy, prefix caching, and disaggregated roles;
//  * edge acceptance models: k=0 (byte-identical reports including
//    timing), always-reject (identical streams, waste accounted, slower)
//    and always-accept (identical streams, strictly faster);
//  * a mid-verify Cancel through api::Engine frees every draft and
//    committed KV block;
//  * spec telemetry: draft_propose / verify_accept events and the
//    speedllm_spec_*_tokens_total counters.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "compiler/compiler.hpp"
#include "llama/tokenizer.hpp"
#include "obs/export.hpp"
#include "serving/cluster.hpp"
#include "serving/workload.hpp"
#include "test_util.hpp"

namespace speedllm::serving {
namespace {

using testutil::MakeRequest;

// ---------------------------------------------------------------- pool

/// 16 blocks of 4 tokens x 64 bytes.
KvPoolConfig SmallPool(bool enable_prefix_cache = true) {
  KvPoolConfig config;
  config.bytes_per_token = 64;
  config.block_size_tokens = 4;
  config.pool_bytes = 16 * 4 * 64;
  config.enable_prefix_cache = enable_prefix_cache;
  return config;
}

TEST(KvPoolSpeculationTest, RollbackRestoresByteIdenticalState) {
  KvBlockPool pool(SmallPool());
  ASSERT_TRUE(pool.Register(1).ok());
  for (std::int32_t t = 0; t < 6; ++t) {  // one sealed block + 2-token tail
    ASSERT_TRUE(pool.Append(1, 100 + t).ok());
  }
  const std::int64_t tokens_before = pool.SequenceTokens(1);
  const std::vector<std::int32_t> table_before = pool.BlockTable(1);
  const std::int64_t used_before = pool.used_blocks();
  const std::int64_t cached_before = pool.cached_blocks();
  const std::int64_t inserts_before = pool.stats().cache_insertions;

  ASSERT_TRUE(pool.BeginSpeculation(1).ok());
  EXPECT_TRUE(pool.InSpeculation(1));
  for (std::int32_t t = 0; t < 7; ++t) {  // crosses two block boundaries
    ASSERT_TRUE(pool.Append(1, 900 + t).ok());
  }
  EXPECT_EQ(pool.SequenceTokens(1), tokens_before + 7);
  EXPECT_GT(pool.used_blocks(), used_before);
  // Draft-filled blocks are never content-addressed and never shared.
  EXPECT_EQ(pool.cached_blocks(), cached_before);
  EXPECT_EQ(pool.stats().cache_insertions, inserts_before);
  for (std::size_t b = table_before.size(); b < pool.BlockTable(1).size();
       ++b) {
    const std::int32_t block = pool.BlockTable(1)[b];
    EXPECT_EQ(pool.BlockRefCount(block), 1) << "draft block " << block;
    EXPECT_FALSE(pool.BlockIsCached(block)) << "draft block " << block;
  }

  ASSERT_TRUE(pool.RollbackSpeculation(1).ok());
  EXPECT_FALSE(pool.InSpeculation(1));
  EXPECT_EQ(pool.SequenceTokens(1), tokens_before);
  EXPECT_EQ(pool.BlockTable(1), table_before);
  EXPECT_EQ(pool.used_blocks(), used_before);
  EXPECT_EQ(pool.cached_blocks(), cached_before);
  EXPECT_GE(pool.stats().spec_phases, 1);
  EXPECT_EQ(pool.stats().spec_draft_tokens, 7);
  EXPECT_GT(pool.stats().spec_rollback_blocks, 0);
  // The drafted content was never cached: a probe for it misses.
  const std::vector<std::int32_t> draft{900, 901, 902, 903};
  EXPECT_EQ(pool.MatchCachedPrefix(draft, 4).matched_tokens, 0);

  // Chain-hash identity after rollback: committing the same stream a
  // never-speculating pool commits must produce the same cache state.
  KvBlockPool twin(SmallPool());
  ASSERT_TRUE(twin.Register(1).ok());
  for (std::int32_t t = 0; t < 6; ++t) ASSERT_TRUE(twin.Append(1, 100 + t).ok());
  for (std::int32_t t = 6; t < 12; ++t) {
    ASSERT_TRUE(pool.Append(1, 100 + t).ok());
    ASSERT_TRUE(twin.Append(1, 100 + t).ok());
  }
  std::vector<std::int32_t> stream(12);
  for (std::int32_t t = 0; t < 12; ++t) stream[t] = 100 + t;
  EXPECT_EQ(pool.MatchCachedPrefix(stream, 12).matched_tokens,
            twin.MatchCachedPrefix(stream, 12).matched_tokens);
  EXPECT_EQ(pool.stats().cache_insertions, twin.stats().cache_insertions);
}

TEST(KvPoolSpeculationTest, PhaseErrorsAndMidPhaseRelease) {
  KvBlockPool pool(SmallPool());
  EXPECT_EQ(pool.BeginSpeculation(9).code(), StatusCode::kNotFound);
  EXPECT_EQ(pool.RollbackSpeculation(9).code(), StatusCode::kNotFound);
  ASSERT_TRUE(pool.Register(1).ok());
  EXPECT_EQ(pool.RollbackSpeculation(1).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(pool.BeginSpeculation(1).ok());
  EXPECT_EQ(pool.BeginSpeculation(1).code(), StatusCode::kFailedPrecondition);
  // A Cancel can land mid-verify: releasing with the phase open must
  // free draft blocks with the rest and leave no refcount behind.
  for (std::int32_t t = 0; t < 9; ++t) ASSERT_TRUE(pool.Append(1, t).ok());
  ASSERT_TRUE(pool.Release(1).ok());
  EXPECT_EQ(pool.used_blocks(), 0);
  for (std::int32_t b = 0; b < pool.num_blocks(); ++b) {
    EXPECT_EQ(pool.BlockRefCount(b), 0) << "block " << b;
  }
}

TEST(KvPoolSpeculationTest, SharedTailCopyOnWriteSurvivesRollback) {
  // A draft write into a cache-immutable tail copies first; the private
  // copy holding the committed prefix survives rollback -- exactly the
  // after-COW state a non-speculative append would have produced.
  KvBlockPool pool(SmallPool());
  ASSERT_TRUE(pool.Register(1).ok());
  for (std::int32_t t = 0; t < 4; ++t) ASSERT_TRUE(pool.Append(1, t).ok());
  // Sequence 2 shares the sealed block via the prefix cache, with the
  // token cap biting mid-block so its tail is a partially-consumed
  // shared block -- the one shape a draft append must copy first.
  ASSERT_TRUE(pool.Register(2).ok());
  std::vector<std::int32_t> prefix{0, 1, 2, 3};
  auto match = pool.AcquireCachedPrefix(2, prefix, 3);
  ASSERT_TRUE(match.ok());
  ASSERT_EQ(match->matched_tokens, 3);
  const std::int64_t cows_before = pool.stats().cow_copies;
  ASSERT_TRUE(pool.BeginSpeculation(2).ok());
  ASSERT_TRUE(pool.Append(2, 77).ok());  // writes into the shared block: COW
  EXPECT_GT(pool.stats().cow_copies, cows_before);
  ASSERT_TRUE(pool.RollbackSpeculation(2).ok());
  EXPECT_EQ(pool.SequenceTokens(2), 3);
  // Both owners still hold a consistent view and release cleanly.
  ASSERT_TRUE(pool.Release(1).ok());
  ASSERT_TRUE(pool.Release(2).ok());
  EXPECT_EQ(pool.used_blocks(), 0);
}

// ------------------------------------------------------- cluster matrix

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
                                       int n, std::uint64_t seed = 4242) {
  Rng rng(seed);
  WorkloadConfig wc;
  wc.num_requests = n;
  wc.rate_rps = 3000.0;
  wc.min_prompt_tokens = 3;
  wc.max_prompt_tokens = 10;
  wc.min_new_tokens = 4;
  wc.max_new_tokens = 12;
  wc.vocab_size = config.vocab_size;
  return PoissonTrace(rng, wc);
}

struct RunResult {
  ClusterReport report;
  std::string chrome_trace;
  std::string metrics_json;
  std::string prometheus;
};

RunResult RunOnce(const accel::Program& prog, const Fixture& f,
                  const hw::MultiCardConfig& cards, api::EngineConfig config,
                  const std::vector<ServingRequest>& reqs,
                  const llama::SamplerConfig& sc) {
  config.sampler = sc;
  config.telemetry.enable_tracing = true;
  config.telemetry.enable_metrics = true;
  api::Engine engine(prog, f.weights, cards, config);
  auto report = testutil::ServeTrace(engine, reqs);
  if (!report.ok()) {
    ADD_FAILURE() << report.status().ToString();
    return {};
  }
  RunResult result;
  result.chrome_trace = obs::ToChromeTraceJson(*engine.telemetry()->trace());
  result.metrics_json = obs::ToMetricsJson(*engine.telemetry()->metrics());
  result.prometheus = obs::ToPrometheusText(*engine.telemetry()->metrics());
  result.report = std::move(report).value();
  return result;
}

/// The speculation contract: identical token streams and finish
/// reasons. Timing is NOT compared -- collapsing it is the whole point.
void ExpectSameStreams(const RunResult& off, const RunResult& on,
                       const std::string& tag) {
  ASSERT_EQ(on.report.merged.outcomes.size(),
            off.report.merged.outcomes.size())
      << tag;
  for (std::size_t i = 0; i < off.report.merged.outcomes.size(); ++i) {
    EXPECT_EQ(on.report.merged.outcomes[i].generated,
              off.report.merged.outcomes[i].generated)
        << tag << " request " << i;
    EXPECT_EQ(on.report.merged.outcomes[i].finish_reason,
              off.report.merged.outcomes[i].finish_reason)
        << tag << " request " << i;
  }
  EXPECT_EQ(on.report.merged.total_tokens, off.report.merged.total_tokens)
      << tag;
}

SpeculativeConfig DefaultSpec() {
  SpeculativeConfig spec;
  spec.draft_tokens = 4;
  spec.acceptance_rate = 0.7;
  return spec;
}

constexpr PlacementPolicy kAllPlacements[] = {
    PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastOutstandingTokens,
    PlacementPolicy::kBestFitFreeKv, PlacementPolicy::kPrefixAffinity};

TEST(SpeculativeTest, StreamsIdenticalAcrossPlacementsAndCardCounts) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 14);
  llama::SamplerConfig sc;
  sc.temperature = 0.9f;  // stochastic sampling: the strictest identity
  sc.seed = 13;
  for (int num_cards : {1, 4, 8}) {
    const auto cards = hw::MultiCardConfig::Homogeneous(f.u280, num_cards);
    for (PlacementPolicy placement : kAllPlacements) {
      api::EngineConfig off;
      off.placement = placement;
      api::EngineConfig on = off;
      on.scheduler.speculative = DefaultSpec();
      const std::string tag = std::to_string(num_cards) + "-cards/" +
                              std::string(PlacementPolicyName(placement));
      RunResult off_r = RunOnce(prog, f, cards, off, reqs, sc);
      RunResult on_r = RunOnce(prog, f, cards, on, reqs, sc);
      ExpectSameStreams(off_r, on_r, tag);
      EXPECT_GT(on_r.report.merged.spec_draft_tokens, 0) << tag;
      if (num_cards == 1) break;  // placement is moot on one card
    }
  }
}

TEST(SpeculativeTest, StreamsIdenticalWithCachingOffAndSplitRoles) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 14, 99);
  llama::SamplerConfig sc;
  sc.temperature = 0.8f;
  sc.seed = 7;
  const auto cards = hw::MultiCardConfig::Homogeneous(f.u280, 8);
  // Leg 1: prefix caching off (draft phases with no cache to protect).
  {
    api::EngineConfig off;
    off.placement = PlacementPolicy::kPrefixAffinity;
    off.scheduler.enable_prefix_cache = false;
    off.scheduler.block_size_tokens = 8;
    api::EngineConfig on = off;
    on.scheduler.speculative = DefaultSpec();
    ExpectSameStreams(RunOnce(prog, f, cards, off, reqs, sc),
                      RunOnce(prog, f, cards, on, reqs, sc), "cache-off");
  }
  // Leg 2: disaggregated roles -- speculation only runs on the decode
  // side; handed-off sequences draft like home-grown ones.
  {
    api::EngineConfig off;
    off.placement = PlacementPolicy::kRoundRobin;
    off.shard_roles = {ShardRole::kPrefill, ShardRole::kPrefill,
                       ShardRole::kDecode,  ShardRole::kDecode,
                       ShardRole::kDecode,  ShardRole::kUnified,
                       ShardRole::kUnified, ShardRole::kDecode};
    api::EngineConfig on = off;
    on.scheduler.speculative = DefaultSpec();
    ExpectSameStreams(RunOnce(prog, f, cards, off, reqs, sc),
                      RunOnce(prog, f, cards, on, reqs, sc), "role-split");
  }
}

TEST(SpeculativeTest, KZeroIsByteIdenticalIncludingTiming) {
  // A negative draft_tokens clamps to 0 and must be indistinguishable
  // from the default (speculation off), down to the telemetry exports.
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 12, 55);
  llama::SamplerConfig sc;
  sc.temperature = 0.9f;
  sc.seed = 3;
  const auto cards = hw::MultiCardConfig::Homogeneous(f.u280, 4);
  api::EngineConfig off;
  off.placement = PlacementPolicy::kRoundRobin;
  api::EngineConfig on = off;
  on.scheduler.speculative.draft_tokens = -3;
  RunResult off_r = RunOnce(prog, f, cards, off, reqs, sc);
  RunResult on_r = RunOnce(prog, f, cards, on, reqs, sc);
  ExpectSameStreams(off_r, on_r, "k=0");
  EXPECT_EQ(on_r.report.merged.makespan_seconds,
            off_r.report.merged.makespan_seconds);
  EXPECT_EQ(on_r.report.merged.spec_draft_tokens, 0);
  EXPECT_EQ(on_r.chrome_trace, off_r.chrome_trace);
  EXPECT_EQ(on_r.metrics_json, off_r.metrics_json);
  EXPECT_EQ(on_r.prometheus, off_r.prometheus);
}

TEST(SpeculativeTest, NaNAcceptanceIsRejectedOnlyWhileSpeculating) {
  // The acceptance rate is only read with drafts on: k = 4 turns a NaN
  // into a setup error on every Submit, while k = 0 ignores it and serves.
  Fixture f;
  auto prog = f.Compile();
  for (const std::int32_t k : {4, 0}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    api::EngineConfig config;
    config.scheduler.speculative.draft_tokens = k;
    config.scheduler.speculative.acceptance_rate =
        std::numeric_limits<double>::quiet_NaN();
    api::Engine engine(prog, f.weights, f.u280, config);
    auto handle = engine.Submit(MakeRequest(4, 6, 0.0));
    if (k > 0) {
      EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(engine.submitted_requests(), 0u);
      continue;
    }
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    engine.RunToCompletion();
    auto report = engine.Finish();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->merged.outcomes.size(), 1u);
    EXPECT_EQ(report->merged.outcomes[0].generated.size(), 6u);
    EXPECT_EQ(report->merged.spec_draft_tokens, 0);
  }
}

TEST(SpeculativeTest, AlwaysRejectKeepsStreamsAndAccountsWaste) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 12, 77);
  llama::SamplerConfig sc;
  sc.temperature = 0.9f;
  sc.seed = 41;
  const auto cards = hw::MultiCardConfig::Homogeneous(f.u280, 4);
  api::EngineConfig off;
  off.placement = PlacementPolicy::kRoundRobin;
  api::EngineConfig on = off;
  on.scheduler.speculative = DefaultSpec();
  on.scheduler.speculative.acceptance_rate = 0.0;
  RunResult off_r = RunOnce(prog, f, cards, off, reqs, sc);
  RunResult on_r = RunOnce(prog, f, cards, on, reqs, sc);
  ExpectSameStreams(off_r, on_r, "always-reject");
  EXPECT_GT(on_r.report.merged.spec_draft_tokens, 0);
  EXPECT_EQ(on_r.report.merged.spec_accepted_tokens, 0);
  EXPECT_GT(on_r.report.merged.spec_wasted_tokens, 0);
  // Pure waste: the packed verify still prices the rejected rows.
  EXPECT_GT(on_r.report.merged.makespan_seconds,
            off_r.report.merged.makespan_seconds);
}

TEST(SpeculativeTest, AlwaysAcceptCommitsRunsAndIsStrictlyFaster) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 12, 88);
  llama::SamplerConfig sc;
  sc.temperature = 0.9f;
  sc.seed = 17;
  const auto cards = hw::MultiCardConfig::Homogeneous(f.u280, 4);
  api::EngineConfig off;
  off.placement = PlacementPolicy::kRoundRobin;
  api::EngineConfig on = off;
  on.scheduler.speculative = DefaultSpec();
  on.scheduler.speculative.acceptance_rate = 1.0;
  RunResult off_r = RunOnce(prog, f, cards, off, reqs, sc);
  RunResult on_r = RunOnce(prog, f, cards, on, reqs, sc);
  ExpectSameStreams(off_r, on_r, "always-accept");
  EXPECT_GT(on_r.report.merged.spec_accepted_tokens, 0);
  EXPECT_EQ(on_r.report.merged.spec_wasted_tokens, 0);
  // Accepted runs collapse shared launch overhead: strictly faster.
  EXPECT_LT(on_r.report.merged.makespan_seconds,
            off_r.report.merged.makespan_seconds);
  // Spec telemetry reached the exports.
  EXPECT_NE(on_r.prometheus.find("speedllm_spec_draft_tokens_total"),
            std::string::npos);
  EXPECT_NE(on_r.prometheus.find("speedllm_spec_accepted_tokens_total"),
            std::string::npos);
  EXPECT_NE(on_r.chrome_trace.find("draft_propose"), std::string::npos);
  EXPECT_NE(on_r.chrome_trace.find("verify_accept"), std::string::npos);
}

// --------------------------------------------------- mid-verify cancel

TEST(SpeculativeTest, CancelMidVerifyFreesDraftAndCommittedKv) {
  // Cancel fires from inside the victim's own token stream while
  // speculation commits multi-token runs: every block -- draft phase
  // residue included -- must return to the pool.
  Fixture f;
  auto prog = f.Compile();
  llama::SamplerConfig sc;
  sc.temperature = 0.7f;
  sc.seed = 9;
  api::EngineConfig config;
  config.sampler = sc;
  config.scheduler.speculative = DefaultSpec();
  config.scheduler.speculative.acceptance_rate = 1.0;  // long verify runs
  api::Engine engine(prog, f.weights, f.u280, config);

  std::optional<api::RequestHandle> victim;
  std::size_t victim_tokens = 0;
  api::StreamCallbacks callbacks;
  callbacks.on_token = [&](api::RequestHandle h, std::int32_t, double) {
    ++victim_tokens;
    if (victim_tokens == 3) {  // mid-run: the tick commits 1+k tokens
      EXPECT_GT(engine.kv_blocks_in_use(0), 0);
      Status st = engine.Cancel(h);
      EXPECT_TRUE(st.ok()) << st.ToString();
      victim = h;
    }
  };
  auto cancelled = engine.Submit(MakeRequest(8, 48, 0.0, 1), callbacks);
  ASSERT_TRUE(cancelled.ok());
  std::size_t bystander_tokens = 0;
  api::StreamCallbacks bystander_cb;
  bystander_cb.on_token = [&](api::RequestHandle, std::int32_t, double) {
    ++bystander_tokens;
  };
  auto bystander = engine.Submit(MakeRequest(6, 6, 0.0, 2), bystander_cb);
  ASSERT_TRUE(bystander.ok());
  engine.RunToCompletion();

  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim_tokens, 3u);  // not one token after Cancel returned
  EXPECT_TRUE(engine.finished(*victim));
  EXPECT_EQ(bystander_tokens, 6u);
  EXPECT_EQ(engine.kv_blocks_in_use(0), 0);
  const serving::KvPoolStats stats = engine.kv_pool_stats(0);
  EXPECT_GT(stats.spec_phases, 0);
  auto report = engine.Finish();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->merged.cancelled_requests, 1);
}

}  // namespace
}  // namespace speedllm::serving

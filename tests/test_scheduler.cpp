// Unit tests for the continuous-batching scheduler (serving/scheduler.hpp):
// deterministic batch composition, policy ordering, aging/no-starvation,
// KV exhaustion preemption, over-budget decode rotation, a stop on the
// first token, and the batching win over a width-1 (one token per tick)
// configuration. Every run goes through api::Engine.
#include <gtest/gtest.h>

#include <algorithm>

#include "compiler/compiler.hpp"
#include "llama/tokenizer.hpp"
#include "serving/scheduler.hpp"
#include "serving/workload.hpp"
#include "test_util.hpp"

namespace speedllm::serving {
namespace {

using testutil::MakeRequest;
using testutil::Greedy;

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

/// One scheduler tick's batch composition (stream indices in the order
/// the tick processed them).
struct Tick {
  double end_seconds = 0.0;
  std::vector<std::size_t> decode_seqs;
  std::vector<std::size_t> prefill_seqs;
  std::int32_t prefill_tokens = 0;
};

/// Serves `reqs` on one card running `config`. With `ticks` set the run
/// is traced, and `*ticks` is rebuilt from the telemetry events.
StatusOr<ServingReport> Serve(const accel::Program& prog, const Fixture& f,
                              const SchedulerConfig& config,
                              const std::vector<ServingRequest>& reqs,
                              const llama::SamplerConfig& sc = Greedy(),
                              std::vector<Tick>* ticks = nullptr) {
  api::EngineConfig ec = testutil::MakeEngineConfig(config, sc);
  ec.telemetry.enable_tracing = ticks != nullptr;
  api::Engine engine(prog, f.weights, f.u280, ec);
  SPEEDLLM_ASSIGN_OR_RETURN(ClusterReport report,
                            testutil::ServeTrace(engine, reqs));
  if (ticks == nullptr) return std::move(report.merged);
  for (const obs::RequestEvent& e : engine.telemetry()->trace()->events()) {
    const auto stream = static_cast<std::size_t>(e.stream);
    if (e.kind == obs::RequestEventKind::kTick) {
      ticks->push_back(Tick{e.end_seconds, {}, {}, 0});
    } else if (e.kind == obs::RequestEventKind::kDecodeToken) {
      ticks->back().decode_seqs.push_back(stream);
    } else if (e.kind == obs::RequestEventKind::kPrefillChunk) {
      ticks->back().prefill_seqs.push_back(stream);
      ticks->back().prefill_tokens += static_cast<std::int32_t>(e.tokens);
    }
  }
  return std::move(report.merged);
}

// ---------------- batch composition ----------------

TEST(SchedulerTest, ExactBatchCompositionFcfs) {
  Fixture f;
  auto prog = f.Compile();
  SchedulerConfig config;
  config.policy = BatchPolicy::kFcfs;
  config.max_batch_tokens = 8;
  config.max_batch_seqs = 4;
  std::vector<ServingRequest> reqs = {MakeRequest(3, 2, 0.0, 0),
                                      MakeRequest(3, 2, 0.0, 1)};
  std::vector<Tick> ticks;
  auto report = Serve(prog, f, config, reqs, Greedy(), &ticks);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_EQ(report->ticks, 3);
  ASSERT_EQ(ticks.size(), 3u);
  // Tick 0: both prompts prefill together inside the 8-token budget.
  EXPECT_TRUE(ticks[0].decode_seqs.empty());
  EXPECT_EQ(ticks[0].prefill_seqs, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(ticks[0].prefill_tokens, 6);
  // Ticks 1-2: pure grouped decode over both sequences.
  for (std::size_t t = 1; t <= 2; ++t) {
    EXPECT_EQ(ticks[t].decode_seqs, (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(ticks[t].prefill_tokens, 0);
  }
  // Both TTFTs land at the end of the shared prefill tick.
  EXPECT_DOUBLE_EQ(report->outcomes[0].first_token_seconds,
                   ticks[0].end_seconds);
  EXPECT_DOUBLE_EQ(report->outcomes[1].first_token_seconds,
                   ticks[0].end_seconds);
  EXPECT_EQ(report->total_tokens, 2 * (3 + 2));
  EXPECT_DOUBLE_EQ(report->mean_batch_width, 2.0);
}

TEST(SchedulerTest, ShortestPromptFirstReordersAdmission) {
  Fixture f;
  auto prog = f.Compile();
  SchedulerConfig config;
  config.max_batch_tokens = 4;
  config.max_batch_seqs = 4;
  std::vector<ServingRequest> reqs = {MakeRequest(8, 1, 0.0, 0),
                                      MakeRequest(2, 1, 0.0, 1)};

  config.policy = BatchPolicy::kFcfs;
  std::vector<Tick> fcfs_ticks;
  auto fcfs = Serve(prog, f, config, reqs, Greedy(), &fcfs_ticks);
  ASSERT_TRUE(fcfs.ok());
  ASSERT_FALSE(fcfs_ticks.empty());
  // FCFS: the long head request monopolizes the first tick's budget.
  EXPECT_EQ(fcfs_ticks[0].prefill_seqs, (std::vector<std::size_t>{0}));

  config.policy = BatchPolicy::kShortestPromptFirst;
  std::vector<Tick> spf_ticks;
  auto spf = Serve(prog, f, config, reqs, Greedy(), &spf_ticks);
  ASSERT_TRUE(spf.ok());
  ASSERT_FALSE(spf_ticks.empty());
  // SPF: the short prompt jumps the queue and both fit the first tick.
  EXPECT_EQ(spf_ticks[0].prefill_seqs, (std::vector<std::size_t>{1, 0}));
  EXPECT_LT(spf->outcomes[1].time_to_first_token(),
            fcfs->outcomes[1].time_to_first_token());
}

TEST(SchedulerTest, DecodePriorityCapsPrefillPerTick) {
  Fixture f;
  auto prog = f.Compile();
  SchedulerConfig config;
  config.policy = BatchPolicy::kDecodePriority;
  config.max_batch_tokens = 32;
  // The 20-token prompt needs several capped ticks, while request 0
  // decodes beside it.
  std::vector<ServingRequest> reqs = {MakeRequest(2, 10, 0.0, 0),
                                      MakeRequest(20, 2, 0.0, 1)};
  std::vector<Tick> ticks;
  auto report = Serve(prog, f, config, reqs, Greedy(), &ticks);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  bool mixed_tick = false;
  for (const Tick& tick : ticks) {
    // Chunked prefill honors the cap.
    EXPECT_LE(tick.prefill_tokens, kDecodePriorityPrefillTokens);
    if (!tick.decode_seqs.empty() && tick.prefill_tokens > 0) {
      mixed_tick = true;
    }
  }
  EXPECT_TRUE(mixed_tick);  // decode and prefill genuinely coexist

  // FCFS has no such cap: both prompts prefill in one gulp.
  config.policy = BatchPolicy::kFcfs;
  std::vector<Tick> fcfs_ticks;
  ASSERT_TRUE(Serve(prog, f, config, reqs, Greedy(), &fcfs_ticks).ok());
  std::int32_t max_prefill = 0;
  for (const Tick& tick : fcfs_ticks) {
    max_prefill = std::max(max_prefill, tick.prefill_tokens);
  }
  EXPECT_GT(max_prefill, kDecodePriorityPrefillTokens);
}

// ---------------- aging / starvation ----------------

TEST(SchedulerTest, AgingPreventsShortestPromptStarvation) {
  Fixture f;
  auto prog = f.Compile();
  SchedulerConfig config;
  config.policy = BatchPolicy::kShortestPromptFirst;
  config.max_batch_seqs = 1;  // serialize admissions
  config.max_batch_tokens = 16;
  // A long prompt arriving first, then `shorts` short ones.
  const auto trace = [](int shorts) {
    std::vector<ServingRequest> reqs;
    reqs.push_back(MakeRequest(8, 1, 0.0, 0));
    for (int i = 1; i <= shorts; ++i) {
      reqs.push_back(MakeRequest(2, 1, 0.0, i));
    }
    return reqs;
  };
  auto rank_of_long = [](const ServingReport& report) {
    int rank = 0;
    for (std::size_t i = 1; i < report.outcomes.size(); ++i) {
      if (report.outcomes[i].admission_seconds <
          report.outcomes[0].admission_seconds) {
        ++rank;
      }
    }
    return rank;  // shorts admitted before the long request
  };
  // The shorts drain within the grace window: pure SPF admits every
  // short prompt first.
  constexpr int kFew = 8;
  static_assert(kFew < kStarvationGraceTicks);
  auto few = Serve(prog, f, config, trace(kFew));
  ASSERT_TRUE(few.ok()) << few.status().ToString();
  EXPECT_EQ(rank_of_long(*few), kFew);
  // The shorts outlast the window: the long request ages past it and
  // jumps back in line before the last short, though no earlier than
  // the kFew shorts that drain within the window.
  constexpr int kMany = kStarvationGraceTicks + 8;
  auto many = Serve(prog, f, config, trace(kMany));
  ASSERT_TRUE(many.ok()) << many.status().ToString();
  EXPECT_LT(rank_of_long(*many), kMany);
  EXPECT_GE(rank_of_long(*many), kFew);
}

// ---------------- KV exhaustion & preemption ----------------

TEST(SchedulerTest, PreemptionBySwapIsTransparent) {
  Fixture f;
  auto prog = f.Compile();
  const std::uint32_t bytes_per_token = KvBytesPerToken(f.config);
  SchedulerConfig tight;
  tight.block_size_tokens = 4;
  // 8 blocks: three 16-token sequences (4 blocks each) cannot all be
  // resident, so the newest gets swapped out under decode pressure.
  tight.kv_pool_bytes = 8ull * 4 * bytes_per_token;
  tight.max_batch_seqs = 4;
  tight.max_batch_tokens = 32;
  std::vector<ServingRequest> reqs = {MakeRequest(4, 12, 0.0, 0),
                                      MakeRequest(4, 12, 0.0, 1),
                                      MakeRequest(4, 12, 0.0, 2)};

  auto tight_report = Serve(prog, f, tight, reqs);
  ASSERT_TRUE(tight_report.ok()) << tight_report.status().ToString();
  SchedulerConfig roomy = tight;
  roomy.kv_pool_bytes = 0;  // derive from full HBM: effectively unbounded
  auto roomy_report = Serve(prog, f, roomy, reqs);
  ASSERT_TRUE(roomy_report.ok());

  EXPECT_GT(tight_report->preemptions, 0);
  EXPECT_GT(tight_report->recomputed_tokens, 0);
  EXPECT_EQ(roomy_report->preemptions, 0);
  // Swap-by-recompute never changes what gets generated.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(tight_report->outcomes[i].generated,
              roomy_report->outcomes[i].generated)
        << "request " << i;
    EXPECT_EQ(tight_report->outcomes[i].generated.size(), 12u);
  }
  // The pool invariant held throughout: peak usage within budget.
  EXPECT_EQ(tight_report->kv_block_capacity, 8);
  EXPECT_LE(tight_report->peak_kv_blocks, tight_report->kv_block_capacity);
  EXPECT_LE(static_cast<std::uint64_t>(tight_report->peak_kv_blocks) *
                tight_report->kv_block_bytes,
            tight_report->kv_capacity_bytes);
  // Memory pressure costs time, it never costs liveness.
  EXPECT_GT(tight_report->makespan_seconds, roomy_report->makespan_seconds);
}

TEST(SchedulerTest, CachedPrefixSkipsPrefillAndCutsTtft) {
  Fixture f;
  auto prog = f.Compile();
  // Two requests with an identical 32-token prompt (two full blocks of
  // 16), the second arriving well after the first finished. With prefix
  // caching the repeat maps the cached blocks, re-processes only the
  // final prompt token (a copy-on-write into the shared tail), and its
  // TTFT collapses.
  std::vector<ServingRequest> reqs = {MakeRequest(32, 8, 0.0, 5),
                                      MakeRequest(32, 8, 0.05, 5)};
  SchedulerConfig off;
  off.enable_prefix_cache = false;
  auto report_off = Serve(prog, f, off, reqs);
  ASSERT_TRUE(report_off.ok()) << report_off.status().ToString();
  SchedulerConfig on;
  on.enable_prefix_cache = true;
  auto report_on = Serve(prog, f, on, reqs);
  ASSERT_TRUE(report_on.ok()) << report_on.status().ToString();

  // Byte-identical streams, with and without the cache.
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(report_on->outcomes[i].generated,
              report_off->outcomes[i].generated)
        << "request " << i;
  }
  // The repeat's 31 cacheable tokens came off the device's books: only
  // the final prompt token was processed, via copy-on-write.
  EXPECT_EQ(report_off->prefix_cache_hit_tokens, 0);
  EXPECT_EQ(report_on->prefix_cache_hit_tokens, 31);
  EXPECT_GE(report_on->cow_copies, 1);
  EXPECT_EQ(report_on->total_tokens, report_off->total_tokens - 31);
  EXPECT_LT(report_on->outcomes[1].time_to_first_token(),
            0.5 * report_off->outcomes[1].time_to_first_token());
  EXPECT_LT(report_on->makespan_seconds, report_off->makespan_seconds);
}

TEST(SchedulerTest, RequestLargerThanPoolIsRejected) {
  Fixture f;
  auto prog = f.Compile();
  SchedulerConfig config;
  config.block_size_tokens = 4;
  config.kv_pool_bytes = 2ull * 4 * KvBytesPerToken(f.config);  // 8 tokens
  auto report = Serve(prog, f, config, {MakeRequest(6, 6, 0.0)});
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
}

// ---------------- validation ----------------

TEST(SchedulerTest, ValidatesRequests) {
  Fixture f;
  auto prog = f.Compile();
  const SchedulerConfig config;

  std::vector<ServingRequest> empty_prompt(1);
  EXPECT_EQ(Serve(prog, f, config, empty_prompt).status().code(),
            StatusCode::kInvalidArgument);

  auto zero_gen = MakeRequest(3, 1, 0.0);
  zero_gen.max_new_tokens = 0;
  EXPECT_EQ(Serve(prog, f, config, {zero_gen}).status().code(),
            StatusCode::kInvalidArgument);

  auto negative_arrival = MakeRequest(3, 2, -1.0);
  EXPECT_EQ(Serve(prog, f, config, {negative_arrival}).status().code(),
            StatusCode::kInvalidArgument);

  auto too_long = MakeRequest(3, f.config.seq_len, 0.0);
  EXPECT_EQ(Serve(prog, f, config, {too_long}).status().code(),
            StatusCode::kOutOfRange);

  EXPECT_TRUE(Serve(prog, f, config, {}).ok());
}

// ---------------- determinism & functional equivalence ----------------

TEST(SchedulerTest, DeterministicAcrossRuns) {
  Fixture f;
  auto prog = f.Compile();
  Rng rng(2024);
  WorkloadConfig wc;
  wc.num_requests = 6;
  wc.rate_rps = 2000.0;
  wc.max_prompt_tokens = 10;
  wc.min_new_tokens = 4;
  wc.max_new_tokens = 10;
  wc.vocab_size = f.config.vocab_size;
  auto reqs = PoissonTrace(rng, wc);
  llama::SamplerConfig sc;
  sc.temperature = 0.8f;
  sc.seed = 9;
  SchedulerConfig config;
  auto a = Serve(prog, f, config, reqs, sc);
  auto b = Serve(prog, f, config, reqs, sc);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(a->outcomes[i].generated, b->outcomes[i].generated);
    EXPECT_DOUBLE_EQ(a->outcomes[i].completion_seconds,
                     b->outcomes[i].completion_seconds);
  }
}

TEST(SchedulerTest, TokenStreamsInvariantToPolicyAndBatching) {
  Fixture f;
  auto prog = f.Compile();
  Rng rng(7);
  WorkloadConfig wc;
  wc.num_requests = 5;
  wc.rate_rps = 5000.0;
  wc.max_prompt_tokens = 8;
  wc.min_new_tokens = 3;
  wc.max_new_tokens = 8;
  wc.vocab_size = f.config.vocab_size;
  auto reqs = PoissonTrace(rng, wc);
  llama::SamplerConfig sc;
  sc.temperature = 0.9f;
  sc.seed = 13;

  auto baseline =
      testutil::ReferenceStreams(prog, f.weights, f.u280, reqs, sc);
  ASSERT_TRUE(baseline.ok());
  for (BatchPolicy policy :
       {BatchPolicy::kFcfs, BatchPolicy::kShortestPromptFirst,
        BatchPolicy::kDecodePriority}) {
    SchedulerConfig config;
    config.policy = policy;
    auto report = Serve(prog, f, config, reqs, sc);
    ASSERT_TRUE(report.ok()) << BatchPolicyName(policy);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      EXPECT_EQ(report->outcomes[i].generated, (*baseline)[i])
          << BatchPolicyName(policy) << " request " << i;
    }
  }
}

// ---------------- over-budget decode rotation ----------------

/// Six greedy requests arriving together, tiers cycling best-effort,
/// interactive, standard so priority order differs from arrival order.
std::vector<ServingRequest> RotationTrace() {
  constexpr RequestTier kTiers[] = {RequestTier::kBestEffort,
                                    RequestTier::kInteractive,
                                    RequestTier::kStandard};
  std::vector<ServingRequest> reqs;
  for (int i = 0; i < 6; ++i) {
    reqs.push_back(MakeRequest(i % 3 == 2 ? 2 : 1, 3 + i % 3, 0.0, 40 + i));
    reqs.back().tier = kTiers[i % 3];
  }
  return reqs;
}

/// Distinct streams that decoded in each tick, sorted.
std::vector<std::vector<std::size_t>> DecodeSets(
    const std::vector<Tick>& ticks) {
  std::vector<std::vector<std::size_t>> sets;
  for (const Tick& tick : ticks) {
    std::vector<std::size_t> s = tick.decode_seqs;
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    sets.push_back(std::move(s));
  }
  return sets;
}

TEST(SchedulerTest, OverBudgetDecodeRotatesWithinTierOrder) {
  Fixture f;
  auto prog = f.Compile();
  const std::vector<ServingRequest> reqs = RotationTrace();
  auto reference =
      testutil::ReferenceStreams(prog, f.weights, f.u280, reqs, Greedy());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  // Per-tick decode sets of the speculative runs (tiers off, then on),
  // pinned so the rotation order itself cannot drift.
  using Sets = std::vector<std::vector<std::size_t>>;
  const Sets kSpecSets[2] = {
      {{}, {0}, {1}, {0}, {1}, {0}, {}, {2}, {2}, {2}, {},
       {3}, {4}, {3}, {4}, {4}, {}, {5}, {5}, {5}},
      {{}, {1}, {4}, {1}, {4}, {4}, {}, {2}, {2}, {2}, {},
       {5}, {5}, {5}, {}, {3}, {0}, {3}, {0}, {0}}};

  for (const bool tiers : {false, true}) {
    for (const bool spec : {false, true}) {
      SCOPED_TRACE(std::string("tiers=") + (tiers ? "on" : "off") +
                   " spec=" + (spec ? "on" : "off"));
      SchedulerConfig config;
      config.max_batch_seqs = 6;
      config.max_batch_tokens = 2;
      config.enable_tiers = tiers;
      config.speculative.draft_tokens = spec ? 4 : 0;
      std::vector<Tick> ticks;
      auto report = Serve(prog, f, config, reqs, Greedy(), &ticks);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_EQ(report->preemptions, 0);
      for (std::size_t i = 0; i < reqs.size(); ++i) {
        EXPECT_EQ(report->outcomes[i].generated, (*reference)[i])
            << "request " << i;
      }

      // A stream is in the decode set from the tick after its last
      // prefill chunk through the tick of its last commit.
      const auto sets = DecodeSets(ticks);
      std::vector<std::size_t> first_decode(reqs.size(), ticks.size());
      std::vector<std::size_t> last_decode(reqs.size(), 0);
      for (std::size_t t = 0; t < ticks.size(); ++t) {
        for (std::size_t s : ticks[t].prefill_seqs) first_decode[s] = t + 1;
        for (std::size_t s : sets[t]) last_decode[s] = t;
      }
      // Budget 2 clamps the draft to k = 1: a verify group is two rows.
      const std::size_t slots = spec ? 1 : 2;
      bool rotated = false;
      for (std::size_t t = 0; t < ticks.size(); ++t) {
        EXPECT_LE(sets[t].size(), slots) << "tick " << t;
        std::vector<std::size_t> live;
        for (std::size_t s = 0; s < reqs.size(); ++s) {
          if (first_decode[s] <= t && t <= last_decode[s]) live.push_back(s);
        }
        if (live.size() > slots) rotated = true;
        if (!tiers) continue;
        for (std::size_t d : sets[t]) {
          for (std::size_t h : live) {
            if (TierIndex(reqs[h].tier) >= TierIndex(reqs[d].tier)) continue;
            EXPECT_TRUE(std::binary_search(sets[t].begin(), sets[t].end(), h))
                << "tick " << t << ": stream " << d << " decoded while "
                << "higher-tier stream " << h << " waited";
          }
        }
      }
      // Without drafts two budget units never let a third stream finish
      // prefill while two decode, so only the speculative runs rotate.
      if (spec) {
        EXPECT_TRUE(rotated);
        EXPECT_EQ(sets, kSpecSets[tiers ? 1 : 0]);
      }
    }
  }
}

TEST(SchedulerTest, StopOnTheFirstTokenFinishesWithAnEmptyGeneration) {
  Fixture f;
  auto prog = f.Compile();
  std::vector<ServingRequest> reqs = {MakeRequest(5, 6, 0.0, 7),
                                      MakeRequest(4, 3, 0.0, 8)};
  auto reference =
      testutil::ReferenceStreams(prog, f.weights, f.u280, reqs, Greedy());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_FALSE((*reference)[0].empty());
  reqs[0].stop_tokens = {(*reference)[0][0]};

  auto report = Serve(prog, f, SchedulerConfig{}, reqs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const RequestOutcome& stopped = report->outcomes[0];
  EXPECT_EQ(stopped.finish_reason, FinishReason::kStop);
  EXPECT_TRUE(stopped.generated.empty());
  EXPECT_GT(stopped.first_token_seconds, 0.0);
  EXPECT_DOUBLE_EQ(stopped.completion_seconds, stopped.first_token_seconds);
  EXPECT_EQ(report->outcomes[1].generated, (*reference)[1]);
  EXPECT_EQ(report->stopped_requests, 1);
  EXPECT_EQ(report->stop_saved_tokens, reqs[0].max_new_tokens);
}

// ---------------- the batching win ----------------

TEST(SchedulerTest, ContinuousBatchingBeatsLegacyAtFourConcurrent) {
  Fixture f;
  auto prog = f.Compile();
  std::vector<ServingRequest> reqs;
  for (int i = 0; i < 4; ++i) reqs.push_back(MakeRequest(6, 8, 0.0, i));

  // The one-token-per-tick baseline: width 1, no prefix sharing.
  SchedulerConfig width1;
  width1.max_batch_seqs = 1;
  width1.max_batch_tokens = 1;
  width1.enable_prefix_cache = false;
  auto legacy_report = Serve(prog, f, width1, reqs);
  ASSERT_TRUE(legacy_report.ok());

  auto batched_report = Serve(prog, f, SchedulerConfig{}, reqs);
  ASSERT_TRUE(batched_report.ok());

  // Aggregate throughput: the grouped step amortizes the weight stream.
  EXPECT_GT(batched_report->device_tokens_per_second,
            1.2 * legacy_report->device_tokens_per_second);
  EXPECT_LT(batched_report->makespan_seconds,
            legacy_report->makespan_seconds);
  // Tail TTFT stays bounded: batched prefill is no worse than the
  // round-robin interleave.
  EXPECT_LE(batched_report->ttft_percentile(0.99),
            legacy_report->ttft_percentile(0.99));
  EXPECT_GT(batched_report->mean_batch_width, 1.0);
}

}  // namespace
}  // namespace speedllm::serving

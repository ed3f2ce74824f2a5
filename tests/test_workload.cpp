// Unit tests for the synthetic workload generators
// (serving/workload.hpp): deterministic Poisson/bursty traces under a
// fixed seed, empirical-rate sanity bounds, request shape invariants,
// the refusal of a negative request count, the closed-loop client pool's
// one-request-in-flight-per-user contract, and the scenario zoo's shapes
// and pinned trace digests.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "llama/tokenizer.hpp"
#include "serving/workload.hpp"

namespace speedllm::serving {
namespace {

WorkloadConfig BigConfig() {
  WorkloadConfig wc;
  wc.num_requests = 4000;
  wc.rate_rps = 250.0;
  wc.min_prompt_tokens = 3;
  wc.max_prompt_tokens = 17;
  wc.min_new_tokens = 5;
  wc.max_new_tokens = 29;
  wc.vocab_size = 32000;
  return wc;
}

void CheckShape(const std::vector<ServingRequest>& trace,
                const WorkloadConfig& wc) {
  double prev = 0.0;
  for (const ServingRequest& req : trace) {
    EXPECT_GE(req.arrival_seconds, prev);  // monotone arrivals
    prev = req.arrival_seconds;
    EXPECT_EQ(req.prompt.front(), llama::kBosToken);
    EXPECT_GE(static_cast<std::int32_t>(req.prompt.size()),
              wc.min_prompt_tokens);
    EXPECT_LE(static_cast<std::int32_t>(req.prompt.size()),
              wc.max_prompt_tokens);
    EXPECT_GE(req.max_new_tokens, wc.min_new_tokens);
    EXPECT_LE(req.max_new_tokens, wc.max_new_tokens);
    for (std::int32_t token : req.prompt) {
      EXPECT_GE(token, 0);
      EXPECT_LT(token, wc.vocab_size);
    }
  }
}

// ---------------- open-loop traces ----------------

TEST(WorkloadTest, PoissonTraceIsDeterministicUnderFixedSeed) {
  const WorkloadConfig wc = BigConfig();
  Rng a(31), b(31), c(32);
  auto trace_a = PoissonTrace(a, wc);
  auto trace_b = PoissonTrace(b, wc);
  auto trace_c = PoissonTrace(c, wc);
  ASSERT_EQ(trace_a.size(), trace_b.size());
  for (std::size_t i = 0; i < trace_a.size(); ++i) {
    EXPECT_EQ(trace_a[i].prompt, trace_b[i].prompt);
    EXPECT_EQ(trace_a[i].max_new_tokens, trace_b[i].max_new_tokens);
    EXPECT_DOUBLE_EQ(trace_a[i].arrival_seconds, trace_b[i].arrival_seconds);
  }
  // A different seed moves at least the arrival process.
  bool differs = false;
  for (std::size_t i = 0; i < trace_a.size() && !differs; ++i) {
    differs = trace_a[i].arrival_seconds != trace_c[i].arrival_seconds ||
              trace_a[i].prompt != trace_c[i].prompt;
  }
  EXPECT_TRUE(differs);
}

TEST(WorkloadTest, PoissonEmpiricalRateMatchesConfiguredRate) {
  const WorkloadConfig wc = BigConfig();
  Rng rng(7);
  auto trace = PoissonTrace(rng, wc);
  ASSERT_EQ(trace.size(), 4000u);
  CheckShape(trace, wc);
  // 4000 exponential gaps at 250 req/s: the realized rate concentrates
  // hard around the nominal one (stddev of the mean gap is ~1.6%).
  const double realized =
      static_cast<double>(trace.size()) / trace.back().arrival_seconds;
  EXPECT_GT(realized, wc.rate_rps * 0.9);
  EXPECT_LT(realized, wc.rate_rps * 1.1);
}

TEST(WorkloadTest, BurstyTraceClumpsWithoutChangingTheMarginalRate) {
  WorkloadConfig wc = BigConfig();
  wc.burst_size = 8;
  Rng rng(7);
  auto trace = BurstyTrace(rng, wc);
  ASSERT_EQ(trace.size(), 4000u);
  CheckShape(trace, wc);
  // Same long-run request rate as the Poisson trace...
  const double realized =
      static_cast<double>(trace.size()) / trace.back().arrival_seconds;
  EXPECT_GT(realized, wc.rate_rps * 0.85);
  EXPECT_LT(realized, wc.rate_rps * 1.15);
  // ...but arrivals come in same-instant clumps of burst_size.
  std::int64_t coarrivals = 0;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    if (trace[i].arrival_seconds == trace[i - 1].arrival_seconds) {
      ++coarrivals;
    }
  }
  EXPECT_EQ(coarrivals, 4000 / 8 * 7);

  Rng again(7);
  auto repeat = BurstyTrace(again, wc);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].prompt, repeat[i].prompt);
    EXPECT_DOUBLE_EQ(trace[i].arrival_seconds, repeat[i].arrival_seconds);
  }
}

// ---------------- closed-loop client pool ----------------

ClosedLoopConfig LoopConfig() {
  ClosedLoopConfig loop;
  loop.num_users = 3;
  loop.requests_per_user = 4;
  loop.mean_think_seconds = 0.02;
  loop.min_prompt_tokens = 3;
  loop.max_prompt_tokens = 9;
  loop.min_new_tokens = 2;
  loop.max_new_tokens = 7;
  loop.vocab_size = 512;
  return loop;
}

TEST(WorkloadTest, NegativeRequestCountIsRefusedNotAborted) {
  WorkloadConfig wc = BigConfig();
  EXPECT_TRUE(ValidateWorkloadConfig(wc).ok());
  wc.num_requests = -3;
  EXPECT_EQ(ValidateWorkloadConfig(wc).code(), StatusCode::kInvalidArgument);
  // The generators draw nothing for it instead of aborting.
  Rng rng(5);
  EXPECT_TRUE(PoissonTrace(rng, wc).empty());
  EXPECT_TRUE(BurstyTrace(rng, wc).empty());
}

TEST(WorkloadTest, ClosedLoopUserNeverHasTwoRequestsInFlight) {
  ClosedLoopClientPool pool(11, LoopConfig());
  ASSERT_EQ(pool.num_users(), 3);
  for (std::int32_t u = 0; u < 3; ++u) {
    EXPECT_FALSE(pool.in_flight(u));
    auto first = pool.StartUser(u);
    ASSERT_TRUE(first.has_value());
    EXPECT_GT(first->arrival_seconds, 0.0);  // think gap before turn one
    EXPECT_TRUE(pool.in_flight(u));  // exactly one outstanding from here on
  }
  // Finish the users round-robin; between OnFinish and the returned next
  // request there is never a second one outstanding for the same user.
  double now = 0.05;
  std::int32_t drained = 0;
  std::vector<bool> active(3, true);
  while (drained < 3) {
    for (std::int32_t u = 0; u < 3; ++u) {
      if (!active[u]) continue;
      ASSERT_TRUE(pool.in_flight(u));
      auto next = pool.OnFinish(u, now);
      if (next.has_value()) {
        EXPECT_TRUE(pool.in_flight(u));
        EXPECT_GT(next->arrival_seconds, now);  // now + think gap
        EXPECT_FALSE(next->prompt.empty());
      } else {
        EXPECT_FALSE(pool.in_flight(u));
        EXPECT_EQ(pool.issued(u), 4);
        active[u] = false;
        ++drained;
      }
      now += 0.01;
    }
  }
  EXPECT_TRUE(pool.AllDone());
  EXPECT_EQ(pool.total_issued(), 12);
}

TEST(WorkloadTest, ClosedLoopStreamsArePerUserDeterministic) {
  // Two pools with the same seed, driven with *different* completion
  // interleavings: each user's request contents must match anyway,
  // because every user draws from a private stream.
  ClosedLoopClientPool fifo(23, LoopConfig());
  ClosedLoopClientPool lifo(23, LoopConfig());
  std::vector<std::vector<ServingRequest>> fifo_reqs(3), lifo_reqs(3);
  for (std::int32_t u = 0; u < 3; ++u) {
    fifo_reqs[u].push_back(*fifo.StartUser(u));
  }
  for (std::int32_t u = 2; u >= 0; --u) {
    lifo_reqs[u].push_back(*lifo.StartUser(u));
  }
  double now = 0.0;
  for (std::int32_t round = 0; round < 3; ++round) {
    now += 0.01;
    for (std::int32_t u = 0; u < 3; ++u) {
      fifo_reqs[u].push_back(*fifo.OnFinish(u, now));
    }
    for (std::int32_t u = 2; u >= 0; --u) {
      // Different "now" too: only the arrival offset may differ.
      lifo_reqs[u].push_back(*lifo.OnFinish(u, now + 1.0));
    }
  }
  for (std::int32_t u = 0; u < 3; ++u) {
    ASSERT_EQ(fifo_reqs[u].size(), 4u);
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_EQ(fifo_reqs[u][k].prompt, lifo_reqs[u][k].prompt)
          << "user " << u << " turn " << k;
      EXPECT_EQ(fifo_reqs[u][k].max_new_tokens,
                lifo_reqs[u][k].max_new_tokens);
    }
  }
}

// ---------------- scenario zoo ----------------

/// Equality over everything a scheduler can observe about a request.
void ExpectSameTrace(const std::vector<ServingRequest>& a,
                     const std::vector<ServingRequest>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].prompt, b[i].prompt) << "request " << i;
    EXPECT_EQ(a[i].max_new_tokens, b[i].max_new_tokens) << "request " << i;
    EXPECT_DOUBLE_EQ(a[i].arrival_seconds, b[i].arrival_seconds)
        << "request " << i;
    EXPECT_EQ(a[i].tier, b[i].tier) << "request " << i;
    EXPECT_EQ(a[i].sampler.has_temperature, b[i].sampler.has_temperature);
    if (a[i].sampler.has_temperature) {
      EXPECT_EQ(a[i].sampler.temperature, b[i].sampler.temperature);
    }
  }
}

TEST(WorkloadTest, ScenarioTracesAreDeterministicAndNamed) {
  for (Scenario s : {Scenario::kRag, Scenario::kAgentic,
                     Scenario::kParallelSampling, Scenario::kLongContext}) {
    Rng a(99), b(99);
    auto trace_a = ScenarioTrace(a, s);
    auto trace_b = ScenarioTrace(b, s);
    ASSERT_FALSE(trace_a.empty()) << ScenarioName(s);
    ExpectSameTrace(trace_a, trace_b);
    // Name round-trip: every scenario is reachable from its CLI flag.
    Scenario parsed;
    ASSERT_TRUE(ScenarioFromName(ScenarioName(s), &parsed));
    EXPECT_EQ(parsed, s);
  }
  Scenario ignored;
  EXPECT_FALSE(ScenarioFromName("no-such-scenario", &ignored));
}

/// FNV-1a over everything ExpectSameTrace compares, in trace order.
std::uint64_t TraceDigest(const std::vector<ServingRequest>& trace) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const ServingRequest& req : trace) {
    mix(std::bit_cast<std::uint64_t>(req.arrival_seconds));
    mix(req.prompt.size());
    for (const std::int32_t token : req.prompt) {
      mix(static_cast<std::uint32_t>(token));
    }
    mix(static_cast<std::uint32_t>(req.max_new_tokens));
    mix(static_cast<std::uint64_t>(TierIndex(req.tier)));
    mix(req.sampler.has_temperature ? 1u : 0u);
    if (req.sampler.has_temperature) {
      mix(std::bit_cast<std::uint32_t>(req.sampler.temperature));
    }
  }
  return h;
}

TEST(WorkloadTest, ScenarioTracesMatchPinnedDigests) {
  // A change to any scenario's draws, shapes, tiers or overrides moves
  // its digest.
  const std::pair<Scenario, std::uint64_t> kPinned[] = {
      {Scenario::kRag, 0x98f2c682bcc0573aull},
      {Scenario::kAgentic, 0xa3007e6b7000a979ull},
      {Scenario::kParallelSampling, 0xadf30dd961871285ull},
      {Scenario::kLongContext, 0xba31c04037c9fc0eull},
  };
  for (const auto& [scenario, digest] : kPinned) {
    Rng rng(99);
    const std::uint64_t actual = TraceDigest(ScenarioTrace(rng, scenario));
    EXPECT_EQ(actual, digest)
        << ScenarioName(scenario) << " digest 0x" << std::hex << actual;
  }
}

TEST(WorkloadTest, RagTraceSharesDocumentPrefixes) {
  constexpr std::int32_t kDocuments = 3;
  constexpr std::int32_t kDocumentTokens = 24;
  Rng rng(5);
  auto trace = ScenarioTrace(rng, Scenario::kRag);
  ASSERT_EQ(trace.size(), 24u);
  // Every prompt opens with one of the shared contexts, so a
  // prefix-caching pool sees heavy block reuse: the distinct
  // document-length prefixes are at most kDocuments.
  std::set<std::vector<std::int32_t>> prefixes;
  for (const ServingRequest& req : trace) {
    ASSERT_GT(static_cast<std::int32_t>(req.prompt.size()), kDocumentTokens);
    prefixes.insert({req.prompt.begin(),
                     req.prompt.begin() + kDocumentTokens});
    EXPECT_GE(req.max_new_tokens, 2);
    EXPECT_LE(req.max_new_tokens, 6);
  }
  EXPECT_LE(prefixes.size(), static_cast<std::size_t>(kDocuments));
  EXPECT_GT(prefixes.size(), 1u);  // more than one document gets cited
}

TEST(WorkloadTest, AgenticBurstsShareAScaffoldAndGrowTranscripts) {
  constexpr std::int32_t kScaffoldTokens = 10;
  Rng rng(5);
  auto trace = ScenarioTrace(rng, Scenario::kAgentic);
  ASSERT_EQ(trace.size(), 6u * 4u);  // agents x steps per agent
  const std::vector<std::int32_t> scaffold(
      trace[0].prompt.begin(), trace[0].prompt.begin() + kScaffoldTokens);
  double prev = 0.0;
  for (const ServingRequest& req : trace) {
    EXPECT_GE(req.arrival_seconds, prev);  // merged timeline stays sorted
    prev = req.arrival_seconds;
    ASSERT_GE(static_cast<std::int32_t>(req.prompt.size()), kScaffoldTokens);
    // Every step of every agent reuses the shared system scaffold.
    const std::vector<std::int32_t> head(
        req.prompt.begin(), req.prompt.begin() + kScaffoldTokens);
    EXPECT_EQ(head, scaffold);
  }
}

TEST(WorkloadTest, ParallelSamplingGroupsDifferOnlyInTemperature) {
  constexpr std::int32_t kGroups = 8;
  constexpr std::int32_t kSamplesPerPrompt = 4;
  Rng rng(5);
  auto trace = ScenarioTrace(rng, Scenario::kParallelSampling);
  ASSERT_EQ(trace.size(),
            static_cast<std::size_t>(kGroups * kSamplesPerPrompt));
  for (std::int32_t g = 0; g < kGroups; ++g) {
    const std::size_t base = static_cast<std::size_t>(g * kSamplesPerPrompt);
    const ServingRequest& head = trace[base];
    for (std::int32_t k = 1; k < kSamplesPerPrompt; ++k) {
      const ServingRequest& req = trace[base + k];
      const ServingRequest& prev = trace[base + k - 1];
      // n samples of one prompt: identical everything but the sampler.
      EXPECT_EQ(req.prompt, head.prompt);
      EXPECT_EQ(req.max_new_tokens, head.max_new_tokens);
      EXPECT_DOUBLE_EQ(req.arrival_seconds, head.arrival_seconds);
      EXPECT_EQ(req.tier, head.tier);
      ASSERT_TRUE(req.sampler.has_temperature);
      EXPECT_GT(req.sampler.temperature, prev.sampler.temperature);
    }
  }
}

TEST(WorkloadTest, LongContextDocumentsAreLongAndUnique) {
  Rng rng(5);
  auto trace = ScenarioTrace(rng, Scenario::kLongContext);
  ASSERT_EQ(trace.size(), 8u);
  std::set<std::vector<std::int32_t>> prompts;
  double prev = 0.0;
  for (const ServingRequest& req : trace) {
    EXPECT_GE(req.arrival_seconds, prev);  // Poisson arrivals
    prev = req.arrival_seconds;
    EXPECT_EQ(req.prompt.front(), llama::kBosToken);
    EXPECT_GE(req.prompt.size(), 32u);
    EXPECT_LE(req.prompt.size(), 48u);
    EXPECT_GE(req.max_new_tokens, 8);
    EXPECT_LE(req.max_new_tokens, 14);
    EXPECT_FALSE(req.sampler.has_temperature);
    prompts.insert(req.prompt);
  }
  // Fully unique documents: nothing for the prefix cache to share.
  EXPECT_EQ(prompts.size(), trace.size());
}

TEST(WorkloadTest, TierMixFrequenciesTrackTheWeights) {
  Rng rng(17);
  const TierMix mix{0.2, 0.5, 0.3};
  std::array<int, kNumTiers> counts{};
  constexpr int kDraws = 4000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<std::size_t>(TierIndex(DrawTier(rng, mix)))];
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(kDraws), 0.2, 0.03);
  EXPECT_NEAR(counts[1] / static_cast<double>(kDraws), 0.5, 0.03);
  EXPECT_NEAR(counts[2] / static_cast<double>(kDraws), 0.3, 0.03);

  // Degenerate mix: everything collapses to the standard tier.
  const TierMix zero{0.0, 0.0, 0.0};
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(DrawTier(rng, zero), RequestTier::kStandard);
  }
}

}  // namespace
}  // namespace speedllm::serving

// Unit tests for the SLO-tier / admission-control / goodput surface:
// tiers-on vs tiers-off byte-identity at equal admission, shed-set
// determinism across card counts, the tier report against a
// recomputation from the outcomes and against the exported SLO counters
// (with tracing on or off), preemption ordering (a lower tier never
// evicts a higher one), FinishReason::kShed surfacing through
// api::Engine callbacks, admission-bucket validation, and per-request
// sampler overrides.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "compiler/compiler.hpp"
#include "llama/tokenizer.hpp"
#include "serving/cluster.hpp"
#include "serving/kv_pool.hpp"
#include "serving/workload.hpp"
#include "test_util.hpp"

namespace speedllm::serving {
namespace {

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

ServingRequest MakeRequest(std::int32_t prompt_len, std::int32_t gen,
                           double arrival, std::int32_t salt = 0,
                           RequestTier tier = RequestTier::kStandard) {
  ServingRequest req;
  req.prompt.push_back(llama::kBosToken);
  for (std::int32_t t = 1; t < prompt_len; ++t) {
    req.prompt.push_back(3 + (salt * 31 + t * 7) % 500);
  }
  req.max_new_tokens = gen;
  req.arrival_seconds = arrival;
  req.tier = tier;
  return req;
}

/// Mixed-tier open-loop trace; deterministic in (seed, n, rate).
std::vector<ServingRequest> MixedTierTrace(const llama::ModelConfig& config,
                                           int n, double rate_rps) {
  Rng rng(4242);
  WorkloadConfig wc;
  wc.num_requests = n;
  wc.rate_rps = rate_rps;
  wc.min_prompt_tokens = 3;
  wc.max_prompt_tokens = 8;
  wc.min_new_tokens = 4;
  wc.max_new_tokens = 8;
  wc.vocab_size = config.vocab_size;
  auto trace = PoissonTrace(rng, wc);
  ApplyTierMix(rng, TierMix{0.3, 0.4, 0.3}, trace);
  return trace;
}

llama::SamplerConfig Stochastic() {
  llama::SamplerConfig sc;
  sc.temperature = 0.8f;  // stochastic: the strictest identity check
  sc.seed = 4;
  return sc;
}

ClusterReport MustRun(const Fixture& f, const accel::Program& prog,
                      const std::vector<ServingRequest>& reqs,
                      api::EngineConfig config, int cards,
                      const llama::SamplerConfig& sampler) {
  config.num_cards = cards;
  config.sampler = sampler;
  api::Engine engine(prog, f.weights, f.u280, std::move(config));
  auto report = testutil::ServeTrace(engine, reqs);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return std::move(report).value();
}

/// Stream indices that finished with FinishReason::kShed.
std::set<std::size_t> ShedSet(const ServingReport& report) {
  std::set<std::size_t> shed;
  for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
    if (report.outcomes[i].finish_reason == FinishReason::kShed) {
      shed.insert(i);
    }
  }
  return shed;
}

// ---------------- byte-identity: tiers reorder, never rewrite ---------

TEST(SloTest, TiersOnOffByteIdenticalAtEqualAdmission) {
  Fixture f;
  auto prog = f.Compile();
  const auto reqs = MixedTierTrace(f.config, 24, 4000.0);

  // Admission control on in both runs: the token bucket depends only on
  // the arrival trace, so the shed set matches, and the survivors'
  // streams must be byte-identical because tier logic only *reorders*
  // scheduling -- per-request sampler seeding pins the tokens.
  api::EngineConfig base;
  base.scheduler.admission.rate_tokens_per_second = 20000.0;
  base.scheduler.admission.burst_tokens = 60.0;
  api::EngineConfig tiered = base;
  tiered.scheduler.enable_tiers = true;

  for (int cards : {1, 2}) {
    auto off = MustRun(f, prog, reqs, base, cards, Stochastic());
    auto on = MustRun(f, prog, reqs, tiered, cards, Stochastic());
    EXPECT_EQ(ShedSet(off.merged), ShedSet(on.merged)) << cards << " cards";
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      EXPECT_EQ(off.merged.outcomes[i].generated,
                on.merged.outcomes[i].generated)
          << "request " << i << ", " << cards << " cards";
    }
  }
}

// ---------------- shed determinism across cluster sizes ---------------

TEST(SloTest, ShedSetIsIdenticalAcrossCardCounts) {
  Fixture f;
  auto prog = f.Compile();
  // Overloaded: the bucket admits roughly half the offered tokens.
  const auto reqs = MixedTierTrace(f.config, 40, 8000.0);

  api::EngineConfig config;
  config.scheduler.enable_tiers = true;
  config.scheduler.admission.rate_tokens_per_second = 30000.0;
  config.scheduler.admission.burst_tokens = 60.0;

  auto one = MustRun(f, prog, reqs, config, 1, Stochastic());
  auto two = MustRun(f, prog, reqs, config, 2, Stochastic());
  auto four = MustRun(f, prog, reqs, config, 4, Stochastic());

  const auto shed = ShedSet(one.merged);
  EXPECT_FALSE(shed.empty());
  EXPECT_LT(shed.size(), reqs.size());  // some traffic was served
  EXPECT_EQ(shed, ShedSet(two.merged));
  EXPECT_EQ(shed, ShedSet(four.merged));
  EXPECT_EQ(one.merged.shed_requests,
            static_cast<std::int64_t>(shed.size()));
  // Shed requests never reach a shard, emit nothing, and are labeled.
  for (std::size_t i : shed) {
    EXPECT_TRUE(one.merged.outcomes[i].generated.empty());
    EXPECT_EQ(one.merged.outcomes[i].tier, reqs[i].tier);
  }
}

// ---------------- goodput reconciliation ------------------------------

/// The tier report recomputed from `m.outcomes` with
/// RequestOutcome::attains against `slo`.
std::array<TierReport, kNumTiers> TiersFromOutcomes(
    const ServingReport& m, const TierSloTargets& slo) {
  std::array<TierReport, kNumTiers> expect{};
  for (const RequestOutcome& out : m.outcomes) {
    const std::size_t t = static_cast<std::size_t>(TierIndex(out.tier));
    TierReport& tier = expect[t];
    if (out.finish_reason == FinishReason::kShed) {
      ++tier.shed_requests;
      continue;
    }
    if (out.finish_reason != FinishReason::kLength &&
        out.finish_reason != FinishReason::kStop) {
      continue;
    }
    ++tier.finished_requests;
    tier.generated_tokens += static_cast<std::int64_t>(out.generated.size());
    if (out.attains(slo[t])) {
      ++tier.slo_attained_requests;
      tier.goodput_tokens += static_cast<std::int64_t>(out.generated.size());
    }
  }
  return expect;
}

/// Asserts that `m`'s tier report holds exactly the counts in `want`, and
/// that its rates divide those counts by the makespan.
void ExpectTiers(const ServingReport& m,
                 const std::array<TierReport, kNumTiers>& want) {
  std::int64_t total_goodput = 0;
  for (int t = 0; t < kNumTiers; ++t) {
    const TierReport& got = m.tiers[static_cast<std::size_t>(t)];
    const TierReport& w = want[static_cast<std::size_t>(t)];
    EXPECT_EQ(got.finished_requests, w.finished_requests) << "tier " << t;
    EXPECT_EQ(got.shed_requests, w.shed_requests) << "tier " << t;
    EXPECT_EQ(got.slo_attained_requests, w.slo_attained_requests)
        << "tier " << t;
    EXPECT_EQ(got.generated_tokens, w.generated_tokens) << "tier " << t;
    EXPECT_EQ(got.goodput_tokens, w.goodput_tokens) << "tier " << t;
    EXPECT_NEAR(got.goodput_tokens_per_second,
                m.makespan_seconds > 0.0
                    ? static_cast<double>(w.goodput_tokens) /
                          m.makespan_seconds
                    : 0.0,
                1e-6)
        << "tier " << t;
    total_goodput += w.goodput_tokens;
  }
  EXPECT_NEAR(m.goodput_tokens_per_second,
              m.makespan_seconds > 0.0
                  ? static_cast<double>(total_goodput) / m.makespan_seconds
                  : 0.0,
              1e-6);
}

/// Final value of the counter `name` whose labels include every pair in
/// `labels`; -1 when no such series is registered.
double CounterValue(
    const obs::MetricsRegistry& reg, const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& labels) {
  for (const obs::MetricSeries& s : reg.series()) {
    if (s.name != name) continue;
    bool match = true;
    for (const auto& label : labels) {
      match = match && std::find(s.labels.begin(), s.labels.end(), label) !=
                           s.labels.end();
    }
    if (match) return s.value;
  }
  return -1.0;
}

TEST(SloTest, TierReportMatchesOutcomesWithTracingOnOrOff) {
  Fixture f;
  auto prog = f.Compile();
  const auto reqs = MixedTierTrace(f.config, 32, 6000.0);

  api::EngineConfig config;
  config.telemetry.enable_tracing = true;
  config.scheduler.enable_tiers = true;
  config.scheduler.admission.rate_tokens_per_second = 30000.0;
  config.scheduler.admission.burst_tokens = 80.0;
  // Interactive attains freely, standard (1 ps TTFT) can never attain,
  // best-effort is unbounded.
  config.scheduler.tier_slo[TierIndex(RequestTier::kInteractive)]
      .ttft_target_seconds = 10.0;
  config.scheduler.tier_slo[TierIndex(RequestTier::kStandard)]
      .ttft_target_seconds = 1e-12;

  auto report = MustRun(f, prog, reqs, config, 2, Stochastic());
  const ServingReport& m = report.merged;
  ExpectTiers(m, TiersFromOutcomes(m, config.scheduler.tier_slo));
  // The shape is non-degenerate: something attained, something did not.
  EXPECT_GT(m.tiers[0].slo_attained_requests +
                m.tiers[2].slo_attained_requests,
            0);
  EXPECT_EQ(m.tiers[1].slo_attained_requests, 0);  // 1 ps TTFT target
  EXPECT_GT(m.tiers[1].finished_requests, 0);
  EXPECT_GT(m.shed_requests, 0);

  // Tracing does not feed the tier report: with it off, every slice and
  // the headline goodput are the same.
  api::EngineConfig untraced = config;
  untraced.telemetry.enable_tracing = false;
  auto dark = MustRun(f, prog, reqs, untraced, 2, Stochastic());
  ExpectTiers(dark.merged, m.tiers);
  EXPECT_EQ(dark.merged.makespan_seconds, m.makespan_seconds);
  EXPECT_EQ(dark.merged.goodput_tokens_per_second,
            m.goodput_tokens_per_second);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(dark.merged.outcomes[i].generated, m.outcomes[i].generated);
  }
}

TEST(SloTest, TtftTargetAtAnOutcomesOwnTtftAttainsEverywhere) {
  Fixture f;
  auto prog = f.Compile();
  // Standard tier only, so one target decides every verdict.
  Rng rng(4242);
  WorkloadConfig wc;
  wc.num_requests = 32;
  wc.rate_rps = 6000.0;
  wc.min_prompt_tokens = 3;
  wc.max_prompt_tokens = 8;
  wc.min_new_tokens = 4;
  wc.max_new_tokens = 8;
  wc.vocab_size = f.config.vocab_size;
  const auto reqs = PoissonTrace(rng, wc);

  api::EngineConfig config;
  config.sampler = Stochastic();
  config.telemetry.enable_tracing = true;
  config.telemetry.enable_metrics = true;
  auto probe = MustRun(f, prog, reqs, config, 1, Stochastic());

  // A request whose arrival lies past its nearest kernel-clock cycle:
  // the engine schedules it at that earlier cycle and its outcome's
  // arrival is that cycle, so a target equal to the outcome's TTFT sits
  // exactly on the attainment boundary.
  const double cycles_per_second = f.u280.clock_mhz * 1e6;
  std::size_t pick = reqs.size();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const double cycles = reqs[i].arrival_seconds * cycles_per_second;
    if (static_cast<double>(std::llround(cycles)) < cycles &&
        probe.merged.outcomes[i].finish_reason == FinishReason::kLength) {
      pick = i;
      break;
    }
  }
  ASSERT_LT(pick, reqs.size());
  const auto standard =
      static_cast<std::size_t>(TierIndex(RequestTier::kStandard));
  config.scheduler.tier_slo[standard].ttft_target_seconds =
      probe.merged.outcomes[pick].time_to_first_token();

  api::Engine engine(prog, f.weights, f.u280, config);
  auto report = testutil::ServeTrace(engine, reqs);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ServingReport& m = report->merged;
  ASSERT_TRUE(m.outcomes[pick].attains(config.scheduler.tier_slo[standard]));
  const auto want = TiersFromOutcomes(m, config.scheduler.tier_slo);
  ExpectTiers(m, want);

  // The exported counters give the same verdicts.
  const obs::MetricsRegistry& reg = *engine.telemetry()->metrics();
  const TierReport& tier = m.tiers[standard];
  EXPECT_EQ(CounterValue(reg, "speedllm_slo_requests_total",
                         {{"tier", "standard"}, {"slo", "attained"}}),
            static_cast<double>(tier.slo_attained_requests));
  EXPECT_EQ(CounterValue(reg, "speedllm_slo_requests_total",
                         {{"tier", "standard"}, {"slo", "missed"}}),
            static_cast<double>(tier.finished_requests -
                                tier.slo_attained_requests));
  EXPECT_EQ(CounterValue(reg, "speedllm_goodput_tokens_total",
                         {{"tier", "standard"}}),
            static_cast<double>(tier.goodput_tokens));
  EXPECT_EQ(CounterValue(reg, "speedllm_shed_requests_total",
                         {{"tier", "standard"}}),
            static_cast<double>(tier.shed_requests));
  // Non-degenerate: the target splits the finished requests.
  EXPECT_GT(tier.slo_attained_requests, 0);
  EXPECT_LT(tier.slo_attained_requests, tier.finished_requests);
}

// ---------------- preemption ordering ---------------------------------

TEST(SloTest, PreemptionNeverEvictsAHigherTier) {
  Fixture f;
  auto prog = f.Compile();
  const std::uint32_t bytes_per_token = KvBytesPerToken(f.config);

  // 8 blocks of 4 tokens: three 16-token sequences cannot all stay
  // resident, so somebody gets swapped under decode pressure. The
  // interactive request must never be the victim of the best-effort
  // ones.
  api::EngineConfig config;
  config.scheduler.enable_tiers = true;
  config.scheduler.block_size_tokens = 4;
  config.scheduler.kv_pool_bytes = 8ull * 4 * bytes_per_token;
  config.scheduler.max_batch_seqs = 4;
  config.scheduler.max_batch_tokens = 32;

  std::vector<ServingRequest> reqs = {
      MakeRequest(4, 12, 0.0, 0, RequestTier::kBestEffort),
      MakeRequest(4, 12, 0.0, 1, RequestTier::kBestEffort),
      MakeRequest(4, 12, 0.0, 2, RequestTier::kInteractive),
  };

  auto report = MustRun(f, prog, reqs, config, 1, Stochastic());
  EXPECT_GT(report.merged.preemptions, 0);
  EXPECT_EQ(report.merged.outcomes[2].preemptions, 0)
      << "a best-effort sequence evicted the interactive one";
  // Every stream still finishes with its full budget served.
  for (const RequestOutcome& out : report.merged.outcomes) {
    EXPECT_EQ(out.finish_reason, FinishReason::kLength);
    EXPECT_EQ(out.generated.size(), 12u);
  }

  // Identity against a roomy pool: preemption ordering changes time,
  // never tokens.
  api::EngineConfig roomy = config;
  roomy.scheduler.kv_pool_bytes = 0;  // derive from HBM: effectively unbounded
  auto roomy_report = MustRun(f, prog, reqs, roomy, 1, Stochastic());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(report.merged.outcomes[i].generated,
              roomy_report.merged.outcomes[i].generated);
  }
}

// ---------------- kShed through the api::Engine facade ----------------

TEST(SloTest, ShedRejectionsSurfaceThroughEngineCallbacks) {
  Fixture f;
  auto prog = f.Compile();

  api::EngineConfig config;
  config.sampler = Stochastic();
  config.scheduler.enable_tiers = true;
  // Bucket of 20 tokens and no refill: the first interactive request
  // (cost 4 + 8 = 12) is admitted, the rest of the burst bounces.
  config.scheduler.admission.rate_tokens_per_second = 0.0;
  config.scheduler.admission.burst_tokens = 20.0;

  api::Engine engine(prog, f.weights, f.u280, config);
  std::vector<serving::FinishReason> reasons(3, FinishReason::kNone);
  std::vector<std::int32_t> token_counts(3, 0);
  for (int i = 0; i < 3; ++i) {
    api::StreamCallbacks cb;
    cb.on_token = [&token_counts, i](api::RequestHandle, std::int32_t,
                                     double) { ++token_counts[i]; };
    cb.on_finish = [&reasons, i](api::RequestHandle, FinishReason reason,
                                 const RequestOutcome& outcome) {
      reasons[i] = reason;
      if (reason == FinishReason::kShed) {
        EXPECT_TRUE(outcome.generated.empty());
        EXPECT_EQ(outcome.finish_reason, FinishReason::kShed);
      }
    };
    auto h = engine.Submit(
        MakeRequest(4, 8, 0.0, i, RequestTier::kInteractive), cb);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
  }
  engine.RunToCompletion();

  EXPECT_EQ(reasons[0], FinishReason::kLength);
  EXPECT_GT(token_counts[0], 0);
  for (int i = 1; i < 3; ++i) {
    EXPECT_EQ(reasons[i], FinishReason::kShed) << "request " << i;
    EXPECT_EQ(token_counts[i], 0) << "request " << i;
  }

  auto report = engine.Finish();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->merged.shed_requests, 2);
  EXPECT_EQ(report->merged.outcomes[1].finish_reason, FinishReason::kShed);
}

TEST(SloTest, NonFiniteOrNegativeAdmissionBucketIsASetupError) {
  Fixture f;
  auto prog = f.Compile();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // {rate, burst}: a NaN rate would refill the bucket to full at every
  // arrival, an infinite burst would admit everything, and a negative
  // rate would drain the bucket over time.
  const std::pair<double, double> bad[] = {
      {nan, 20.0}, {1000.0, inf}, {-1000.0, 20.0}};
  for (const auto& [rate, burst] : bad) {
    SCOPED_TRACE(::testing::Message() << "rate " << rate << " burst " << burst);
    api::EngineConfig config;
    config.scheduler.admission.rate_tokens_per_second = rate;
    config.scheduler.admission.burst_tokens = burst;
    api::Engine engine(prog, f.weights, f.u280, config);
    EXPECT_EQ(engine.Submit(MakeRequest(4, 4, 0.0)).status().code(),
              StatusCode::kInvalidArgument);
  }
}

// ---------------- per-request sampler overrides -----------------------

TEST(SloTest, SamplerOverrideLayersOverEngineDefault) {
  Fixture f;
  auto prog = f.Compile();

  // One request carrying a greedy override inside a stochastic engine
  // must generate exactly what a greedy engine generates for the same
  // stream -- and the no-override sibling must not be perturbed.
  std::vector<ServingRequest> reqs = {MakeRequest(6, 10, 0.0, 0),
                                      MakeRequest(6, 10, 0.0, 1)};
  EXPECT_TRUE(reqs[0].sampler.empty());
  reqs[0].sampler.temperature = 0.0f;
  reqs[0].sampler.has_temperature = true;
  EXPECT_FALSE(reqs[0].sampler.empty());

  api::EngineConfig config;
  auto mixed = MustRun(f, prog, reqs, config, 1, Stochastic());

  llama::SamplerConfig greedy = Stochastic();
  greedy.temperature = 0.0f;
  std::vector<ServingRequest> plain = {MakeRequest(6, 10, 0.0, 0),
                                       MakeRequest(6, 10, 0.0, 1)};
  auto all_greedy = MustRun(f, prog, plain, config, 1, greedy);
  auto all_stochastic = MustRun(f, prog, plain, config, 1, Stochastic());

  EXPECT_EQ(mixed.merged.outcomes[0].generated,
            all_greedy.merged.outcomes[0].generated);
  EXPECT_EQ(mixed.merged.outcomes[1].generated,
            all_stochastic.merged.outcomes[1].generated);
  // Sanity: the override actually changed something.
  EXPECT_NE(mixed.merged.outcomes[0].generated,
            all_stochastic.merged.outcomes[0].generated);
}

TEST(SloTest, EosOverrideStopsOneStreamOnly) {
  Fixture f;
  auto prog = f.Compile();

  std::vector<ServingRequest> plain = {MakeRequest(5, 12, 0.0, 0),
                                       MakeRequest(5, 12, 0.0, 1)};
  api::EngineConfig config;
  auto base = MustRun(f, prog, plain, config, 1, Stochastic());
  ASSERT_EQ(base.merged.outcomes[0].generated.size(), 12u);

  // Declare stream 0's third token its EOS: it must stop after two
  // tokens (kStop, EOS not committed) while stream 1 is untouched.
  std::vector<ServingRequest> eos = {MakeRequest(5, 12, 0.0, 0),
                                     MakeRequest(5, 12, 0.0, 1)};
  eos[0].sampler.eos_token = base.merged.outcomes[0].generated[2];
  eos[0].sampler.has_eos_token = true;
  auto stopped = MustRun(f, prog, eos, config, 1, Stochastic());

  EXPECT_EQ(stopped.merged.outcomes[0].finish_reason, FinishReason::kStop);
  ASSERT_EQ(stopped.merged.outcomes[0].generated.size(), 2u);
  EXPECT_EQ(stopped.merged.outcomes[0].generated[0],
            base.merged.outcomes[0].generated[0]);
  EXPECT_EQ(stopped.merged.outcomes[1].generated,
            base.merged.outcomes[1].generated);
}

}  // namespace
}  // namespace speedllm::serving

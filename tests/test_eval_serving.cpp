// Unit tests for the quality evaluation and serving simulation modules.
#include <gtest/gtest.h>

#include "compiler/compiler.hpp"
#include "runtime/eval.hpp"
#include "test_util.hpp"

namespace speedllm::runtime {
namespace {

using compiler::CompilerOptions;
using serving::ServingReport;
using serving::ServingRequest;

struct Fixture {
  llama::ModelConfig config = llama::ModelConfig::Tiny();
  llama::Weights weights = llama::GenerateSyntheticWeights(config, 808);
  hw::U280Config u280 = hw::U280Config::Default();
};

// ---------------- EvaluateAgainstReference ----------------

TEST(EvalTest, Fp32PathIsExact) {
  Fixture f;
  auto dev = AcceleratorDevice::Create(f.weights, CompilerOptions::SpeedLLM(),
                                       f.u280);
  ASSERT_TRUE(dev.ok());
  auto stream = SyntheticEvalStream(f.config, 24, 3);
  auto report = EvaluateAgainstReference(f.weights, *dev, stream);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->positions, 23);
  EXPECT_EQ(report->top1_agreement, 1.0);
  EXPECT_EQ(report->max_logit_err, 0.0f);
  EXPECT_DOUBLE_EQ(report->ref_avg_nll, report->test_avg_nll);
  EXPECT_GT(report->ref_perplexity(), 1.0);
}

TEST(EvalTest, Int8PathCloseButNotExact) {
  Fixture f;
  auto opt = CompilerOptions::SpeedLLM();
  opt.int8_weights = true;
  auto dev = AcceleratorDevice::Create(f.weights, opt, f.u280);
  ASSERT_TRUE(dev.ok());
  auto stream = SyntheticEvalStream(f.config, 24, 3);
  auto report = EvaluateAgainstReference(f.weights, *dev, stream);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->max_logit_err, 0.0f);      // quantization is lossy...
  EXPECT_LT(report->max_logit_err, 0.5f);      // ...but bounded
  // Perplexities within a few percent of each other.
  EXPECT_NEAR(report->test_avg_nll, report->ref_avg_nll,
              0.05 * report->ref_avg_nll);
  EXPECT_GT(report->top1_agreement, 0.8);
}

TEST(EvalTest, RejectsDegenerateStreams) {
  Fixture f;
  auto dev = AcceleratorDevice::Create(f.weights, CompilerOptions::SpeedLLM(),
                                       f.u280);
  ASSERT_TRUE(dev.ok());
  EXPECT_FALSE(EvaluateAgainstReference(f.weights, *dev, {1}).ok());
  std::vector<std::int32_t> too_long(f.config.seq_len + 1, 1);
  EXPECT_FALSE(EvaluateAgainstReference(f.weights, *dev, too_long).ok());
}

TEST(EvalTest, SyntheticStreamShape) {
  auto stream = SyntheticEvalStream(llama::ModelConfig::Tiny(), 16, 7);
  EXPECT_EQ(stream.size(), 16u);
  EXPECT_EQ(stream[0], llama::kBosToken);
  for (auto t : stream) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, llama::ModelConfig::Tiny().vocab_size);
  }
  EXPECT_EQ(SyntheticEvalStream(llama::ModelConfig::Tiny(), 16, 7), stream);
}

// ---------------- serving through api::Engine ----------------

std::vector<ServingRequest> MakeRequests(int n, int gen, double spacing) {
  std::vector<ServingRequest> reqs;
  for (int i = 0; i < n; ++i) {
    ServingRequest r;
    r.prompt = {llama::kBosToken, static_cast<std::int32_t>(10 + i),
                static_cast<std::int32_t>(20 + i)};
    r.max_new_tokens = gen;
    r.arrival_seconds = i * spacing;
    reqs.push_back(std::move(r));
  }
  return reqs;
}

accel::Program CompileVariant(const Fixture& f, const CompilerOptions& v) {
  auto r = compiler::Compile(f.config, v, f.u280);
  EXPECT_TRUE(r.ok());
  return std::move(r).value().program;
}

/// Serves `reqs` on one default-configured card.
StatusOr<ServingReport> Serve(const accel::Program& prog, const Fixture& f,
                              const std::vector<ServingRequest>& reqs,
                              const llama::SamplerConfig& sc) {
  api::Engine engine(prog, f.weights, f.u280,
                     testutil::MakeEngineConfig({}, sc));
  SPEEDLLM_ASSIGN_OR_RETURN(serving::ClusterReport report,
                            testutil::ServeTrace(engine, reqs));
  return std::move(report.merged);
}

TEST(ServingTest, CompletesAllRequests) {
  Fixture f;
  auto prog = CompileVariant(f, CompilerOptions::SpeedLLM());
  llama::SamplerConfig sc;
  sc.temperature = 0.0f;
  auto report = Serve(prog, f, MakeRequests(3, 5, 1e-4), sc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->outcomes.size(), 3u);
  for (const auto& o : report->outcomes) {
    EXPECT_EQ(o.generated.size(), 5u);
    EXPECT_GE(o.time_to_first_token(), 0.0);
    EXPECT_GE(o.latency(), o.time_to_first_token());
  }
  EXPECT_EQ(report->total_tokens, 3 * (3 + 5));
  EXPECT_GT(report->device_tokens_per_second, 0.0);
  EXPECT_GT(report->makespan_seconds, 0.0);
}

TEST(ServingTest, DeterministicAcrossRuns) {
  Fixture f;
  auto prog = CompileVariant(f, CompilerOptions::SpeedLLM());
  llama::SamplerConfig sc;
  sc.temperature = 0.7f;
  sc.seed = 5;
  auto a = Serve(prog, f, MakeRequests(3, 6, 1e-4), sc);
  auto b = Serve(prog, f, MakeRequests(3, 6, 1e-4), sc);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (std::size_t i = 0; i < a->outcomes.size(); ++i) {
    EXPECT_EQ(a->outcomes[i].generated, b->outcomes[i].generated);
    EXPECT_DOUBLE_EQ(a->outcomes[i].completion_seconds,
                     b->outcomes[i].completion_seconds);
  }
}

TEST(ServingTest, RequestsAreIndependentStreams) {
  Fixture f;
  auto prog = CompileVariant(f, CompilerOptions::SpeedLLM());
  llama::SamplerConfig sc;
  sc.temperature = 0.9f;
  sc.seed = 5;
  // Two identical prompts should usually diverge (different seeds).
  std::vector<ServingRequest> reqs = MakeRequests(2, 8, 0.0);
  reqs[1].prompt = reqs[0].prompt;
  auto report = Serve(prog, f, reqs, sc);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->outcomes[0].generated, report->outcomes[1].generated);
}

TEST(ServingTest, LateArrivalWaits) {
  Fixture f;
  auto prog = CompileVariant(f, CompilerOptions::SpeedLLM());
  llama::SamplerConfig sc;
  sc.temperature = 0.0f;
  auto reqs = MakeRequests(2, 2, 0.0);
  reqs[1].arrival_seconds = 10.0;  // long after the first finishes
  auto report = Serve(prog, f, reqs, sc);
  ASSERT_TRUE(report.ok());
  EXPECT_LT(report->outcomes[0].completion_seconds, 1.0);
  EXPECT_GE(report->outcomes[1].first_token_seconds, 10.0);
  EXPECT_GE(report->makespan_seconds, 10.0);
}

TEST(ServingTest, FasterVariantImprovesLatency) {
  Fixture f;
  auto fast = CompileVariant(f, CompilerOptions::SpeedLLM());
  auto slow = CompileVariant(f, CompilerOptions::Unoptimized());
  llama::SamplerConfig sc;
  sc.temperature = 0.0f;
  auto a = Serve(fast, f, MakeRequests(4, 6, 0.0), sc);
  auto b = Serve(slow, f, MakeRequests(4, 6, 0.0), sc);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(a->mean_latency(), b->mean_latency());
  EXPECT_LT(a->mean_ttft(), b->mean_ttft());
  EXPECT_LT(a->latency_percentile(0.99), b->latency_percentile(0.99));
}

TEST(ServingTest, RejectsBadRequests) {
  Fixture f;
  auto prog = CompileVariant(f, CompilerOptions::SpeedLLM());
  api::Engine engine(prog, f.weights, f.u280);
  EXPECT_FALSE(engine.Submit(ServingRequest{}).ok());  // empty prompt
  ServingRequest too_long;
  too_long.prompt = {llama::kBosToken};
  too_long.max_new_tokens = f.config.seq_len + 5;
  EXPECT_FALSE(engine.Submit(too_long).ok());
  EXPECT_EQ(engine.submitted_requests(), 0u);
  engine.RunToCompletion();
  auto ok = engine.Finish();
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->merged.outcomes.empty());
}

TEST(ServingTest, RejectsNonPositiveMaxNewTokens) {
  Fixture f;
  auto prog = CompileVariant(f, CompilerOptions::SpeedLLM());
  api::Engine engine(prog, f.weights, f.u280);
  ServingRequest req;
  req.prompt = {llama::kBosToken};
  for (std::int32_t max_new_tokens : {0, -1}) {
    req.max_new_tokens = max_new_tokens;
    auto handle = engine.Submit(req);
    ASSERT_FALSE(handle.ok());
    EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ServingTest, LegacyAndBatchedModesAgreeOnTokens) {
  Fixture f;
  auto prog = CompileVariant(f, CompilerOptions::SpeedLLM());
  llama::SamplerConfig sc;
  sc.temperature = 0.7f;
  sc.seed = 21;
  auto reqs = MakeRequests(3, 6, 1e-4);
  auto a = testutil::ReferenceStreams(prog, f.weights, f.u280, reqs, sc);
  auto b = Serve(prog, f, reqs, sc);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::int64_t reference_tokens = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ((*a)[i], b->outcomes[i].generated);
    reference_tokens += static_cast<std::int64_t>(reqs[i].prompt.size() +
                                                  (*a)[i].size());
  }
  EXPECT_EQ(reference_tokens, b->total_tokens);
}

}  // namespace
}  // namespace speedllm::runtime

// Unit tests for the online streaming engine facade (api/engine.hpp):
// callback token streams byte-identical to an up-front submitted
// offline run (1 card and 4 cards), cancellation freeing KV blocks with
// no further emissions, a cancel before arrival keeping the request's
// tier, stop-token/EOS early termination, submit-time validation
// (sampler values included), out-of-range card queries, incremental
// StepUntil driving (NaN, past and out-of-range times included), the
// card-count limit, and closed-loop clients running deterministically on
// the shared clock.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "api/engine.hpp"
#include "compiler/compiler.hpp"
#include "llama/tokenizer.hpp"
#include "serving/workload.hpp"
#include "test_util.hpp"

namespace speedllm::api {
namespace {

using testutil::MakeRequest;

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

std::vector<serving::ServingRequest> MixedTrace(
    const llama::ModelConfig& config, int n) {
  Rng rng(4242);
  serving::WorkloadConfig wc;
  wc.num_requests = n;
  wc.rate_rps = 3000.0;
  wc.min_prompt_tokens = 3;
  wc.max_prompt_tokens = 10;
  wc.min_new_tokens = 4;
  wc.max_new_tokens = 10;
  wc.vocab_size = config.vocab_size;
  return serving::PoissonTrace(rng, wc);
}

/// Collects every callback a request's stream fires.
struct StreamLog {
  std::vector<std::int32_t> tokens;
  std::vector<double> token_times;
  FinishReason finish = FinishReason::kNone;
  serving::RequestOutcome outcome;
  int finishes = 0;
};

StreamCallbacks Record(std::map<std::uint64_t, StreamLog>& logs) {
  StreamCallbacks callbacks;
  callbacks.on_token = [&logs](RequestHandle h, std::int32_t token, double t) {
    logs[h.id].tokens.push_back(token);
    logs[h.id].token_times.push_back(t);
  };
  callbacks.on_finish = [&logs](RequestHandle h, FinishReason reason,
                                const serving::RequestOutcome& outcome) {
    logs[h.id].finish = reason;
    logs[h.id].outcome = outcome;
    ++logs[h.id].finishes;
  };
  return callbacks;
}

/// The offline report: `reqs` submitted up front on a fresh engine and
/// drained.
StatusOr<serving::ClusterReport> Offline(
    const accel::Program& prog, const Fixture& f,
    const std::vector<serving::ServingRequest>& reqs,
    const llama::SamplerConfig& sc, int cards = 1) {
  Engine engine(prog, f.weights, f.u280,
                testutil::MakeEngineConfig({}, sc, cards));
  return testutil::ServeTrace(engine, reqs);
}

// ---------------- callback streams == offline report ----------------

TEST(ApiEngineTest, CallbackStreamsMatchOfflineRunOnOneAndFourCards) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 10);
  llama::SamplerConfig sc;
  sc.temperature = 0.9f;  // stochastic sampling: the strictest stream test
  sc.seed = 13;

  for (int cards : {1, 4}) {
    auto offline_report = Offline(prog, f, reqs, sc, cards);
    ASSERT_TRUE(offline_report.ok()) << offline_report.status().ToString();

    EngineConfig config;
    config.num_cards = cards;
    config.sampler = sc;
    Engine engine(prog, f.weights, f.u280, config);
    std::map<std::uint64_t, StreamLog> logs;
    std::vector<RequestHandle> handles;
    for (const auto& req : reqs) {
      auto handle = engine.Submit(req, Record(logs));
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      handles.push_back(*handle);
    }
    EXPECT_EQ(engine.active_requests(), reqs.size());
    engine.RunToCompletion();
    EXPECT_EQ(engine.active_requests(), 0u);
    auto report = engine.Finish();
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const StreamLog& log = logs[handles[i].id];
      // Streamed tokens are byte-identical to the offline outcome...
      EXPECT_EQ(log.tokens, offline_report->merged.outcomes[i].generated)
          << cards << " cards, request " << i;
      // ...and to this engine's own harvested outcome.
      EXPECT_EQ(log.tokens, report->merged.outcomes[i].generated);
      EXPECT_EQ(log.finish, FinishReason::kLength);
      EXPECT_EQ(log.finishes, 1);
      EXPECT_EQ(log.outcome.generated, log.tokens);
      // The last token is delivered at the request's completion time.
      ASSERT_FALSE(log.token_times.empty());
      EXPECT_DOUBLE_EQ(log.token_times.back(),
                       offline_report->merged.outcomes[i].completion_seconds);
    }
  }
}

TEST(ApiEngineTest, IncrementalSubmissionMatchesUpFrontSubmission) {
  Fixture f;
  auto prog = f.Compile();
  auto reqs = MixedTrace(f.config, 8);
  llama::SamplerConfig sc;
  sc.temperature = 0.8f;
  sc.seed = 21;

  auto offline_report = Offline(prog, f, reqs, sc);
  ASSERT_TRUE(offline_report.ok());

  // Drive the clock past each arrival before submitting the next
  // request: the engine must accept work at any simulated time.
  EngineConfig config;
  config.sampler = sc;
  Engine engine(prog, f.weights, f.u280, config);
  std::map<std::uint64_t, StreamLog> logs;
  std::vector<RequestHandle> handles;
  for (const auto& req : reqs) {
    EXPECT_LE(engine.now_seconds(), req.arrival_seconds);
    auto handle = engine.Submit(req, Record(logs));
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handles.push_back(*handle);
    engine.StepUntil(req.arrival_seconds);
    // Within half a clock cycle: arrivals quantize to whole cycles.
    EXPECT_LE(engine.now_seconds(), req.arrival_seconds + 1e-8);
  }
  engine.RunToCompletion();
  EXPECT_TRUE(engine.idle());
  auto report = engine.Finish();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(logs[handles[i].id].tokens,
              offline_report->merged.outcomes[i].generated)
        << "request " << i;
    EXPECT_DOUBLE_EQ(report->merged.outcomes[i].completion_seconds,
                     offline_report->merged.outcomes[i].completion_seconds);
  }
}

TEST(ApiEngineTest, StepUntilNeverDeliversTokensFromTheFuture) {
  Fixture f;
  auto prog = f.Compile();
  llama::SamplerConfig sc;
  sc.temperature = 0.0f;
  EngineConfig config;
  config.sampler = sc;
  Engine engine(prog, f.weights, f.u280, config);
  std::map<std::uint64_t, StreamLog> logs;
  auto handle = engine.Submit(MakeRequest(6, 12, 0.0), Record(logs));
  ASSERT_TRUE(handle.ok());

  double last_allowed = 0.0;
  std::size_t seen = 0;
  while (!engine.idle()) {
    last_allowed += 2e-5;
    engine.StepUntil(last_allowed);
    const StreamLog& log = logs[handle->id];
    for (double t : log.token_times) EXPECT_LE(t, last_allowed + 1e-12);
    EXPECT_GE(log.tokens.size(), seen);  // progress is monotone
    seen = log.tokens.size();
  }
  EXPECT_EQ(logs[handle->id].tokens.size(), 12u);
  EXPECT_EQ(logs[handle->id].finish, FinishReason::kLength);
}

TEST(ApiEngineTest, ARequestAdmittedAtItsArrivalCycleWaitsExactlyZero) {
  Fixture f;
  auto prog = f.Compile();
  EngineConfig config;
  config.sampler = testutil::Greedy();
  Engine engine(prog, f.weights, f.u280, config);
  // Arrival cycles where dividing by the clock rate and multiplying by
  // its reciprocal round apart, each far past the previous request's
  // end, so the idle engine admits every request on its arrival cycle.
  const double clock_hz = f.u280.clock_mhz * 1e6;
  std::vector<std::uint64_t> cycles;
  for (std::uint64_t c = 1'000'000; cycles.size() < 8; ++c) {
    if (static_cast<double>(c) / clock_hz != f.u280.cycles_to_seconds(c)) {
      cycles.push_back(c);
      c += 10'000'000;
    }
  }
  std::map<std::uint64_t, StreamLog> logs;
  for (std::uint64_t c : cycles) {
    const double arrival = f.u280.cycles_to_seconds(c);
    ASSERT_TRUE(engine.Submit(MakeRequest(4, 3, arrival), Record(logs)).ok());
  }
  engine.RunToCompletion();
  ASSERT_EQ(logs.size(), cycles.size());
  for (const auto& [id, log] : logs) {
    EXPECT_EQ(log.outcome.admission_seconds, log.outcome.arrival_seconds)
        << "request " << id;
    EXPECT_EQ(log.outcome.queueing_delay(), 0.0) << "request " << id;
  }
}

TEST(ApiEngineTest, StepUntilIgnoresNaNAndPastTimes) {
  Fixture f;
  auto prog = f.Compile();
  const double kNaNTime = std::numeric_limits<double>::quiet_NaN();
  for (double t : {-1.0, kNaNTime}) {
    SCOPED_TRACE(::testing::Message() << "t " << t);
    Engine engine(prog, f.weights, f.u280);
    std::map<std::uint64_t, StreamLog> logs;
    ASSERT_TRUE(engine.Submit(MakeRequest(4, 8, 1e-3), Record(logs)).ok());
    engine.StepUntil(t);
    EXPECT_EQ(engine.now_seconds(), 0.0);
    EXPECT_TRUE(logs.empty());
    EXPECT_FALSE(engine.idle());
    // Time never moves backwards: a step to before now does nothing.
    engine.StepUntil(5e-4);
    engine.StepUntil(1e-4);
    EXPECT_EQ(engine.now_seconds(), 5e-4);
    engine.RunToCompletion();
    EXPECT_EQ(logs[1].tokens.size(), 8u);
    EXPECT_TRUE(engine.Finish().ok());
  }
}

TEST(ApiEngineTest, StepUntilPastTheClockRangeDrains) {
  Fixture f;
  auto prog = f.Compile();
  Engine reference(prog, f.weights, f.u280);
  ASSERT_TRUE(reference.Submit(MakeRequest(4, 8, 1e-3)).ok());
  reference.RunToCompletion();
  const double drained_at = reference.now_seconds();
  ASSERT_GT(drained_at, 1e-3);
  for (double t : {std::numeric_limits<double>::infinity(), 1e30}) {
    SCOPED_TRACE(::testing::Message() << "t " << t);
    Engine engine(prog, f.weights, f.u280);
    std::map<std::uint64_t, StreamLog> logs;
    ASSERT_TRUE(engine.Submit(MakeRequest(4, 8, 1e-3), Record(logs)).ok());
    engine.StepUntil(t);
    EXPECT_TRUE(engine.idle());
    EXPECT_EQ(logs[1].tokens.size(), 8u);
    EXPECT_EQ(logs[1].finishes, 1);
    EXPECT_EQ(engine.now_seconds(), drained_at);
    EXPECT_TRUE(engine.Finish().ok());
  }
}

// ---------------- cancellation ----------------

TEST(ApiEngineTest, CancelFreesKvBlocksAndNeverEmitsAgain) {
  Fixture f;
  auto prog = f.Compile();
  llama::SamplerConfig sc;
  sc.temperature = 0.7f;
  sc.seed = 9;
  EngineConfig config;
  config.sampler = sc;
  Engine engine(prog, f.weights, f.u280, config);

  std::map<std::uint64_t, StreamLog> logs;
  StreamCallbacks callbacks = Record(logs);
  std::optional<RequestHandle> victim;
  std::size_t tokens_at_cancel = 0;
  // Cancel the long request from inside its own token stream, mid-flight.
  callbacks.on_token = [&](RequestHandle h, std::int32_t token, double t) {
    logs[h.id].tokens.push_back(token);
    logs[h.id].token_times.push_back(t);
    if (logs[h.id].tokens.size() == 3) {
      tokens_at_cancel = logs[h.id].tokens.size();
      EXPECT_GT(engine.kv_blocks_in_use(0), 0);
      Status st = engine.Cancel(h);
      EXPECT_TRUE(st.ok()) << st.ToString();
      victim = h;
    }
  };
  auto cancelled = engine.Submit(MakeRequest(8, 48, 0.0, 1), callbacks);
  ASSERT_TRUE(cancelled.ok());
  auto bystander = engine.Submit(MakeRequest(6, 6, 0.0, 2), Record(logs));
  ASSERT_TRUE(bystander.ok());
  engine.RunToCompletion();

  ASSERT_TRUE(victim.has_value());
  const StreamLog& log = logs[victim->id];
  // Not one more token after Cancel returned, and exactly one finish.
  EXPECT_EQ(log.tokens.size(), tokens_at_cancel);
  EXPECT_EQ(log.finish, FinishReason::kCancelled);
  EXPECT_EQ(log.finishes, 1);
  EXPECT_TRUE(engine.finished(*victim));
  // Every KV block -- the cancelled request's included -- is back in the
  // pool once the bystander drains.
  EXPECT_EQ(engine.kv_blocks_in_use(0), 0);
  EXPECT_GT(engine.kv_block_capacity(0), 0);
  // The bystander ran to its full budget, unperturbed.
  EXPECT_EQ(logs[bystander->id].tokens.size(), 6u);
  EXPECT_EQ(logs[bystander->id].finish, FinishReason::kLength);

  auto report = engine.Finish();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->merged.cancelled_requests, 1);
  EXPECT_EQ(report->merged.outcomes[0].finish_reason,
            FinishReason::kCancelled);
  EXPECT_EQ(report->merged.outcomes[0].generated, log.tokens);

  // Cancelling again (or a finished/unknown handle) fails cleanly.
  EXPECT_EQ(engine.Cancel(*victim).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Cancel(*bystander).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Cancel(RequestHandle{999}).code(), StatusCode::kNotFound);
}

TEST(ApiEngineTest, CancelWinsTheRaceAgainstAnUndeliveredFinish) {
  // Cancelling from the stream's own final on_token: internally the
  // sequence already finished this tick (kLength), but the client has
  // not observed the finish -- the cancel must win and the stream must
  // report kCancelled, exactly once.
  Fixture f;
  auto prog = f.Compile();
  EngineConfig config;
  config.sampler.temperature = 0.0f;
  Engine engine(prog, f.weights, f.u280, config);

  std::map<std::uint64_t, StreamLog> logs;
  StreamCallbacks callbacks = Record(logs);
  callbacks.on_token = [&](RequestHandle h, std::int32_t token, double) {
    logs[h.id].tokens.push_back(token);
    if (logs[h.id].tokens.size() == 4) {  // the budget's last token
      Status st = engine.Cancel(h);
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
  };
  auto handle = engine.Submit(MakeRequest(4, 4, 0.0), callbacks);
  ASSERT_TRUE(handle.ok());
  engine.RunToCompletion();

  const StreamLog& log = logs[handle->id];
  EXPECT_EQ(log.tokens.size(), 4u);
  EXPECT_EQ(log.finish, FinishReason::kCancelled);
  EXPECT_EQ(log.finishes, 1);
  EXPECT_EQ(engine.kv_blocks_in_use(0), 0);
  auto report = engine.Finish();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->merged.cancelled_requests, 1);
  EXPECT_EQ(report->merged.stopped_requests, 0);
  EXPECT_EQ(report->merged.outcomes[0].finish_reason,
            FinishReason::kCancelled);
}

TEST(ApiEngineTest, CancelBeforeArrivalSuppressesTheRequestEntirely) {
  Fixture f;
  auto prog = f.Compile();
  EngineConfig config;
  config.sampler.temperature = 0.0f;
  Engine engine(prog, f.weights, f.u280, config);
  std::map<std::uint64_t, StreamLog> logs;
  auto early = engine.Submit(MakeRequest(4, 4, 0.0), Record(logs));
  auto late = engine.Submit(MakeRequest(4, 4, 5.0), Record(logs));
  ASSERT_TRUE(early.ok());
  ASSERT_TRUE(late.ok());
  ASSERT_TRUE(engine.Cancel(*late).ok());  // never placed anywhere
  EXPECT_TRUE(engine.finished(*late));
  engine.RunToCompletion();
  EXPECT_TRUE(logs[late->id].tokens.empty());
  EXPECT_EQ(logs[late->id].finish, FinishReason::kCancelled);
  EXPECT_EQ(logs[early->id].tokens.size(), 4u);
  auto report = engine.Finish();
  ASSERT_TRUE(report.ok());
  // No device work ever ran for the suppressed arrival at t=5.
  EXPECT_LT(report->merged.makespan_seconds, 5.0);
  EXPECT_EQ(report->merged.cancelled_requests, 1);
}

TEST(ApiEngineTest, CancelBeforeArrivalKeepsTheRequestTier) {
  Fixture f;
  auto prog = f.Compile();
  EngineConfig config;
  config.sampler.temperature = 0.0f;
  Engine engine(prog, f.weights, f.u280, config);
  std::map<std::uint64_t, StreamLog> logs;
  serving::ServingRequest req = MakeRequest(4, 4, 5.0);
  req.tier = serving::RequestTier::kInteractive;
  auto handle = engine.Submit(req, Record(logs));
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(engine.Cancel(*handle).ok());
  engine.RunToCompletion();
  EXPECT_EQ(logs[handle->id].finish, FinishReason::kCancelled);
  EXPECT_EQ(logs[handle->id].outcome.tier, serving::RequestTier::kInteractive);
  auto report = engine.Finish();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->merged.outcomes.size(), 1u);
  EXPECT_EQ(report->merged.outcomes[0].tier,
            serving::RequestTier::kInteractive);
}

// ---------------- stop tokens / EOS ----------------

TEST(ApiEngineTest, StopTokenEndsGenerationEarlyAndCountsSavedTokens) {
  Fixture f;
  auto prog = f.Compile();
  llama::SamplerConfig sc;
  sc.temperature = 0.6f;
  sc.seed = 33;
  serving::ServingRequest req = MakeRequest(6, 16, 0.0, 3);

  // Baseline: the unconstrained stream.
  auto baseline = Offline(prog, f, {req}, sc);
  ASSERT_TRUE(baseline.ok());
  const std::vector<std::int32_t>& full =
      baseline->merged.outcomes[0].generated;
  ASSERT_EQ(full.size(), 16u);

  // Declare the 6th generated token a stop token: the stream must be the
  // first five tokens, finish kStop, and the report must count the 11
  // decode tokens the early exit saved.
  req.stop_tokens = {full[5]};
  EngineConfig config;
  config.sampler = sc;
  Engine engine(prog, f.weights, f.u280, config);
  std::map<std::uint64_t, StreamLog> logs;
  auto handle = engine.Submit(req, Record(logs));
  ASSERT_TRUE(handle.ok());
  engine.RunToCompletion();
  auto report = engine.Finish();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  const StreamLog& log = logs[handle->id];
  EXPECT_EQ(log.finish, FinishReason::kStop);
  ASSERT_EQ(log.tokens.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(log.tokens[i], full[i]);
  EXPECT_EQ(report->merged.outcomes[0].finish_reason, FinishReason::kStop);
  EXPECT_EQ(report->merged.stopped_requests, 1);
  EXPECT_EQ(report->merged.stop_saved_tokens, 16 - 5);
  EXPECT_EQ(engine.kv_blocks_in_use(0), 0);  // early finisher released KV
}

TEST(ApiEngineTest, SamplerEosBehavesLikeARequestStopToken) {
  Fixture f;
  auto prog = f.Compile();
  llama::SamplerConfig sc;
  sc.temperature = 0.6f;
  sc.seed = 33;
  const serving::ServingRequest req = MakeRequest(6, 16, 0.0, 3);

  auto baseline = Offline(prog, f, {req}, sc);
  ASSERT_TRUE(baseline.ok());
  const std::vector<std::int32_t>& full =
      baseline->merged.outcomes[0].generated;

  // The same early exit through the model-wide EOS id, on the engine
  // and on the independent one-request-at-a-time reference.
  llama::SamplerConfig eos_sc = sc;
  eos_sc.eos_token = full[5];
  auto report = Offline(prog, f, {req}, eos_sc);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->merged.outcomes[0].generated.size(), 5u);
  EXPECT_EQ(report->merged.outcomes[0].finish_reason, FinishReason::kStop);
  EXPECT_EQ(report->merged.stopped_requests, 1);
  EXPECT_EQ(report->merged.stop_saved_tokens, 16 - 5);
  auto reference =
      testutil::ReferenceStreams(prog, f.weights, f.u280, {req}, eos_sc);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ((*reference)[0], report->merged.outcomes[0].generated);
}

// ---------------- validation ----------------

TEST(ApiEngineTest, SubmitValidatesRequestsUpFront) {
  Fixture f;
  auto prog = f.Compile();
  Engine engine(prog, f.weights, f.u280);

  serving::ServingRequest empty_prompt;
  empty_prompt.max_new_tokens = 4;
  EXPECT_EQ(engine.Submit(empty_prompt).status().code(),
            StatusCode::kInvalidArgument);

  serving::ServingRequest negative_arrival = MakeRequest(4, 4, -1.0);
  EXPECT_EQ(engine.Submit(negative_arrival).status().code(),
            StatusCode::kInvalidArgument);

  // Past the simulated clock's cycle range.
  serving::ServingRequest far_arrival = MakeRequest(4, 4, 1e30);
  EXPECT_EQ(engine.Submit(far_arrival).status().code(),
            StatusCode::kOutOfRange);

  serving::ServingRequest no_budget = MakeRequest(4, 4, 0.0);
  no_budget.max_new_tokens = 0;
  EXPECT_EQ(engine.Submit(no_budget).status().code(),
            StatusCode::kInvalidArgument);

  serving::ServingRequest too_long = MakeRequest(4, 4, 0.0);
  too_long.max_new_tokens = f.config.seq_len + 1;
  EXPECT_EQ(engine.Submit(too_long).status().code(), StatusCode::kOutOfRange);

  // Nothing bad was admitted; the engine is still empty and usable.
  EXPECT_EQ(engine.submitted_requests(), 0u);
  ASSERT_TRUE(engine.Submit(MakeRequest(4, 4, 0.0)).ok());
  engine.RunToCompletion();
  ASSERT_TRUE(engine.Finish().ok());
  // After harvest the engine is closed to new work.
  EXPECT_EQ(engine.Submit(MakeRequest(4, 4, 0.0)).status().code(),
            StatusCode::kFailedPrecondition);
}

// A request overriding the sampler with (temperature, top_p), and an
// engine whose default sampler holds them, are both rejected by name.
void ExpectSamplerRejected(float temperature, float top_p) {
  Fixture f;
  auto prog = f.Compile();
  Engine engine(prog, f.weights, f.u280);
  serving::ServingRequest request = MakeRequest(4, 4, 0.0);
  request.sampler.temperature = temperature;
  request.sampler.has_temperature = true;
  request.sampler.top_p = top_p;
  request.sampler.has_top_p = true;
  const Status status = engine.Submit(request).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("request 0"), std::string::npos)
      << status.message();
  EXPECT_EQ(engine.submitted_requests(), 0u);

  EngineConfig config;
  config.sampler.temperature = temperature;
  config.sampler.top_p = top_p;
  Engine rejected(prog, f.weights, f.u280, config);
  const Status setup = rejected.Submit(MakeRequest(4, 4, 0.0)).status();
  EXPECT_EQ(setup.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(setup.message().find("EngineConfig::sampler"), std::string::npos)
      << setup.message();
}

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

TEST(ApiEngineTest, RejectsNaNTemperature) {
  ExpectSamplerRejected(kNaN, 0.9f);
}

TEST(ApiEngineTest, RejectsInfiniteTemperature) {
  ExpectSamplerRejected(kInf, 0.9f);
}

TEST(ApiEngineTest, RejectsNegativeInfiniteTemperature) {
  ExpectSamplerRejected(-kInf, 0.9f);
}

TEST(ApiEngineTest, RejectsNegativeTemperature) {
  ExpectSamplerRejected(-0.5f, 0.9f);
}

TEST(ApiEngineTest, RejectsNaNTopP) {
  ExpectSamplerRejected(1.0f, kNaN);
}

TEST(ApiEngineTest, RejectsWeightsThatDoNotMatchTheProgram) {
  Fixture f;
  auto prog = f.Compile();
  // Same Tiny model but a wider FFN: every w1/w2/w3 is the wrong size.
  llama::ModelConfig wide = f.config;
  wide.hidden_dim = f.config.hidden_dim * 2;
  const llama::Weights wrong = llama::GenerateSyntheticWeights(wide, 808);
  for (int cards : {1, 3}) {
    EngineConfig config;
    config.num_cards = cards;
    Engine engine(prog, wrong, f.u280, config);
    const Status status = engine.Submit(MakeRequest(4, 4, 0.0)).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << cards;
    EXPECT_NE(status.message().find("w1"), std::string::npos)
        << status.message();
    EXPECT_EQ(engine.submitted_requests(), 0u);
    EXPECT_EQ(engine.Finish().status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ApiEngineTest, OutOfRangeCardCountIsASetupError) {
  Fixture f;
  auto prog = f.Compile();
  // A cluster needs at least one card: zero or a negative count is not
  // quietly served on one card. Past hw::kMaxCards the count is refused
  // before any per-card state is built.
  const std::pair<int, const char*> cases[] = {
      {0, "at least one card"},
      {-1, "at least one card"},
      {hw::kMaxCards + 1, "more than kMaxCards"},
  };
  for (const auto& [cards, message] : cases) {
    SCOPED_TRACE(::testing::Message() << "cards " << cards);
    EngineConfig config;
    config.num_cards = cards;
    Engine engine(prog, f.weights, f.u280, config);
    const Status status = engine.Submit(MakeRequest(4, 4, 0.0)).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find(message), std::string::npos)
        << status.message();
    EXPECT_EQ(engine.num_cards(), 0);
    engine.RunToCompletion();
    EXPECT_EQ(engine.Finish().status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ApiEngineTest, OutOfRangeCardQueriesReturnDefaults) {
  Fixture f;
  auto prog = f.Compile();
  EngineConfig config;
  config.num_cards = 2;
  Engine engine(prog, f.weights, f.u280, config);
  ASSERT_TRUE(engine.Submit(MakeRequest(4, 4, 0.0)).ok());
  engine.RunToCompletion();
  EXPECT_GT(engine.kv_block_capacity(0), 0);
  for (int card : {-1, engine.num_cards()}) {
    EXPECT_EQ(engine.kv_blocks_in_use(card), 0) << card;
    EXPECT_EQ(engine.kv_block_capacity(card), 0) << card;
    const serving::KvPoolStats stats = engine.kv_pool_stats(card);
    EXPECT_EQ(stats.peak_used_blocks, 0) << card;
    EXPECT_EQ(stats.prefix_queries, 0) << card;
  }
}

TEST(ApiEngineTest, FinishRequiresDrainedEngineAndRunsOnce) {
  Fixture f;
  auto prog = f.Compile();
  Engine engine(prog, f.weights, f.u280);
  ASSERT_TRUE(engine.Submit(MakeRequest(4, 4, 0.0)).ok());
  EXPECT_EQ(engine.Finish().status().code(), StatusCode::kFailedPrecondition);
  engine.RunToCompletion();
  ASSERT_TRUE(engine.Finish().ok());
  EXPECT_EQ(engine.Finish().status().code(), StatusCode::kFailedPrecondition);
}

// ---------------- closed-loop clients ----------------

struct ClosedLoopRun {
  std::vector<std::vector<std::int32_t>> streams;  // one per submission
  std::vector<double> finish_times;
  std::int64_t max_in_flight_per_user = 0;
  serving::ClusterReport report;
};

/// Wires a ClosedLoopClientPool to an engine and drains it, recording
/// every stream in submission order.
ClosedLoopRun DriveClosedLoop(const accel::Program& prog, Fixture& f,
                              int cards, std::uint64_t seed) {
  EngineConfig config;
  config.num_cards = cards;
  config.sampler.temperature = 0.85f;
  config.sampler.seed = 7;
  Engine engine(prog, f.weights, f.u280, config);

  serving::ClosedLoopConfig loop;
  loop.num_users = 4;
  loop.requests_per_user = 3;
  loop.mean_think_seconds = 2e-4;
  loop.min_prompt_tokens = 3;
  loop.max_prompt_tokens = 8;
  loop.min_new_tokens = 3;
  loop.max_new_tokens = 8;
  loop.vocab_size = f.config.vocab_size;
  serving::ClosedLoopClientPool pool(seed, loop);

  ClosedLoopRun run;
  std::vector<std::int64_t> in_flight(4, 0);
  std::function<void(std::int32_t, serving::ServingRequest)> issue =
      [&](std::int32_t user, serving::ServingRequest request) {
        const std::size_t slot = run.streams.size();
        run.streams.emplace_back();
        run.finish_times.push_back(0.0);
        ++in_flight[static_cast<std::size_t>(user)];
        run.max_in_flight_per_user =
            std::max(run.max_in_flight_per_user,
                     in_flight[static_cast<std::size_t>(user)]);
        StreamCallbacks callbacks;
        callbacks.on_token = [&run, slot](RequestHandle, std::int32_t token,
                                          double) {
          run.streams[slot].push_back(token);
        };
        callbacks.on_finish = [&, user, slot](RequestHandle, FinishReason,
                                              const serving::RequestOutcome&) {
          --in_flight[static_cast<std::size_t>(user)];
          run.finish_times[slot] = engine.now_seconds();
          if (auto next = pool.OnFinish(user, engine.now_seconds())) {
            issue(user, std::move(*next));
          }
        };
        auto handle = engine.Submit(std::move(request), std::move(callbacks));
        EXPECT_TRUE(handle.ok()) << handle.status().ToString();
      };
  for (std::int32_t u = 0; u < pool.num_users(); ++u) {
    auto first = pool.StartUser(u);
    EXPECT_TRUE(first.has_value()) << "user " << u;
    if (first) issue(u, std::move(*first));
  }
  engine.RunToCompletion();
  EXPECT_TRUE(pool.AllDone());
  EXPECT_EQ(pool.total_issued(), 12);
  auto report = engine.Finish();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) run.report = std::move(*report);
  return run;
}

TEST(ApiEngineTest, ClosedLoopClientsRunDeterministicallyOnTheSharedClock) {
  Fixture f;
  auto prog = f.Compile();
  for (int cards : {1, 2}) {
    ClosedLoopRun a = DriveClosedLoop(prog, f, cards, 55);
    ClosedLoopRun b = DriveClosedLoop(prog, f, cards, 55);
    ASSERT_EQ(a.streams.size(), 12u) << cards << " cards";
    // The per-user concurrency-of-one invariant held throughout.
    EXPECT_EQ(a.max_in_flight_per_user, 1);
    // Same seed => identical streams AND identical simulated timing.
    ASSERT_EQ(a.streams.size(), b.streams.size());
    for (std::size_t i = 0; i < a.streams.size(); ++i) {
      EXPECT_EQ(a.streams[i], b.streams[i]) << "submission " << i;
      EXPECT_DOUBLE_EQ(a.finish_times[i], b.finish_times[i]);
    }
    EXPECT_DOUBLE_EQ(a.report.merged.makespan_seconds,
                     b.report.merged.makespan_seconds);
    EXPECT_EQ(a.report.shard_of_request, b.report.shard_of_request);
  }
}

// ---------------- multi-turn conversations & prefix caching ----------

/// Drives a MultiTurnChatPool to completion on one engine: every turn's
/// prompt replays the whole conversation (history + generated answers)
/// plus a fresh user message, chained from on_finish. Greedy sampling,
/// so the conversations are identical under any cache configuration,
/// placement, or card count.
struct MultiTurnRun {
  /// Per (user, turn) generated streams, in turn order per user.
  std::vector<std::vector<std::vector<std::int32_t>>> turns;
  serving::ClusterReport report;
  serving::KvPoolStats pool_stats;  // summed over cards
};

MultiTurnRun DriveMultiTurn(const accel::Program& prog, Fixture& f, int cards,
                            bool enable_prefix_cache, std::uint64_t seed) {
  EngineConfig config;
  config.num_cards = cards;
  config.placement = serving::PlacementPolicy::kPrefixAffinity;
  config.scheduler.block_size_tokens = 8;
  config.scheduler.enable_prefix_cache = enable_prefix_cache;
  config.sampler.temperature = 0.0f;  // greedy: interleaving-proof turns
  Engine engine(prog, f.weights, f.u280, config);

  serving::MultiTurnConfig chat;
  chat.num_users = 3;
  chat.turns_per_user = 3;
  chat.mean_think_seconds = 0.0005;
  chat.system_prompt_tokens = 12;
  chat.min_user_tokens = 2;
  chat.max_user_tokens = 4;
  chat.min_new_tokens = 3;
  chat.max_new_tokens = 5;
  chat.vocab_size = f.config.vocab_size;
  serving::MultiTurnChatPool pool(seed, chat);

  MultiTurnRun run;
  run.turns.resize(static_cast<std::size_t>(chat.num_users));
  std::function<void(std::int32_t, serving::ServingRequest)> issue =
      [&](std::int32_t user, serving::ServingRequest request) {
        StreamCallbacks callbacks;
        callbacks.on_finish = [&, user](RequestHandle, FinishReason reason,
                                        const serving::RequestOutcome& out) {
          EXPECT_EQ(reason, FinishReason::kLength);
          run.turns[static_cast<std::size_t>(user)].push_back(out.generated);
          if (auto next =
                  pool.OnFinish(user, engine.now_seconds(), out.generated)) {
            issue(user, std::move(*next));
          }
        };
        auto handle = engine.Submit(std::move(request), std::move(callbacks));
        EXPECT_TRUE(handle.ok()) << handle.status().ToString();
      };
  for (std::int32_t u = 0; u < chat.num_users; ++u) {
    if (auto first = pool.StartUser(u)) issue(u, std::move(*first));
  }
  engine.RunToCompletion();
  EXPECT_TRUE(pool.AllDone());
  for (int c = 0; c < cards; ++c) {
    const serving::KvPoolStats s = engine.kv_pool_stats(c);
    run.pool_stats.prefix_queries += s.prefix_queries;
    run.pool_stats.prefix_hits += s.prefix_hits;
    run.pool_stats.prefix_hit_tokens += s.prefix_hit_tokens;
    run.pool_stats.cow_copies += s.cow_copies;
    run.pool_stats.cache_evictions += s.cache_evictions;
  }
  auto report = engine.Finish();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (report.ok()) run.report = std::move(*report);
  return run;
}

TEST(ApiEngineTest, MultiTurnContinuationReusesHistoryBlocksAcrossTurns) {
  Fixture f;
  auto prog = f.Compile();
  MultiTurnRun cached = DriveMultiTurn(prog, f, 1, true, 91);

  // 3 users x 3 turns all ran, and every follow-up turn found its
  // conversation history (and the shared system prompt) in the cache.
  ASSERT_EQ(cached.report.merged.outcomes.size(), 9u);
  for (const auto& user_turns : cached.turns) {
    EXPECT_EQ(user_turns.size(), 3u);
  }
  EXPECT_GT(cached.pool_stats.prefix_hits, 0);
  EXPECT_GT(cached.pool_stats.prefix_hit_tokens, 0);
  // Turn 2 and 3 of each user replay a growing history: at least the 8
  // first tokens (one full block) come from cache each time.
  EXPECT_GE(cached.pool_stats.prefix_hits, 6);
  EXPECT_EQ(cached.report.merged.prefix_cache_hit_tokens,
            cached.pool_stats.prefix_hit_tokens);
}

TEST(ApiEngineTest, MultiTurnConversationsAreByteIdenticalWithCachingOnOrOff) {
  Fixture f;
  auto prog = f.Compile();
  MultiTurnRun off = DriveMultiTurn(prog, f, 1, false, 91);
  EXPECT_EQ(off.pool_stats.prefix_hit_tokens, 0);
  for (int cards : {1, 2}) {
    MultiTurnRun on = DriveMultiTurn(prog, f, cards, true, 91);
    ASSERT_EQ(on.turns.size(), off.turns.size());
    for (std::size_t u = 0; u < off.turns.size(); ++u) {
      EXPECT_EQ(on.turns[u], off.turns[u]) << "user " << u << " on "
                                           << cards << " card(s)";
    }
    // Caching removes device prefill work without changing a byte.
    EXPECT_LE(on.report.merged.total_tokens, off.report.merged.total_tokens);
  }
}

}  // namespace
}  // namespace speedllm::api

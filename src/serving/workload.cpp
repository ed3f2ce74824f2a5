#include "serving/workload.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "llama/config.hpp"
#include "llama/tokenizer.hpp"

namespace speedllm::serving {

namespace {

/// Exponential inter-arrival gap with mean 1/rate.
double ExpGap(Rng& rng, double rate) {
  double u = rng.NextDouble();
  if (u < 1e-12) u = 1e-12;
  return -std::log(u) / rate;
}

std::int32_t UniformInclusive(Rng& rng, std::int32_t lo, std::int32_t hi) {
  if (hi <= lo) return lo;
  return lo + static_cast<std::int32_t>(
                  rng.NextBounded(static_cast<std::uint64_t>(hi - lo + 1)));
}

/// Random non-control token id: skips the ids at the bottom of the
/// vocab when there is room (the llama2.c tokenizer reserves ~259 ids
/// for specials + raw bytes).
std::int32_t DrawToken(Rng& rng, std::int32_t vocab_size) {
  const std::int32_t lo = vocab_size > 300 ? 259 : 3;
  return lo + static_cast<std::int32_t>(
                  rng.NextBounded(static_cast<std::uint64_t>(vocab_size - lo)));
}

}  // namespace

std::vector<std::int32_t> DrawPrompt(Rng& rng, std::int32_t len,
                                     std::int32_t vocab_size) {
  std::vector<std::int32_t> prompt;
  const std::int32_t n = std::max<std::int32_t>(1, len);
  prompt.reserve(static_cast<std::size_t>(n));
  prompt.push_back(llama::kBosToken);
  for (std::int32_t t = 1; t < n; ++t) {
    prompt.push_back(DrawToken(rng, vocab_size));
  }
  return prompt;
}

namespace {

ServingRequest DrawRequest(Rng& rng, std::int32_t min_prompt,
                           std::int32_t max_prompt, std::int32_t min_new,
                           std::int32_t max_new, std::int32_t vocab_size,
                           double arrival) {
  ServingRequest req;
  req.prompt = DrawPrompt(rng, UniformInclusive(rng, min_prompt, max_prompt),
                          vocab_size);
  req.max_new_tokens =
      std::max<std::int32_t>(1, UniformInclusive(rng, min_new, max_new));
  req.arrival_seconds = arrival;
  return req;
}

ServingRequest MakeRequest(Rng& rng, const WorkloadConfig& config,
                           double arrival) {
  return DrawRequest(rng, config.min_prompt_tokens, config.max_prompt_tokens,
                     config.min_new_tokens, config.max_new_tokens,
                     config.vocab_size, arrival);
}

}  // namespace

Status ValidateWorkloadConfig(const WorkloadConfig& config) {
  if (config.num_requests < 0) {
    return InvalidArgument("a trace needs a non-negative request count (got " +
                           std::to_string(config.num_requests) + ")");
  }
  return Status::Ok();
}

std::vector<ServingRequest> PoissonTrace(Rng& rng,
                                         const WorkloadConfig& config) {
  std::vector<ServingRequest> trace;
  trace.reserve(static_cast<std::size_t>(std::max(0, config.num_requests)));
  double now = 0.0;
  for (std::int32_t i = 0; i < config.num_requests; ++i) {
    now += ExpGap(rng, config.rate_rps);
    trace.push_back(MakeRequest(rng, config, now));
  }
  return trace;
}

ClosedLoopClientPool::ClosedLoopClientPool(std::uint64_t seed,
                                           const ClosedLoopConfig& config)
    : config_(config) {
  const std::int32_t n = std::max<std::int32_t>(0, config.num_users);
  users_.reserve(static_cast<std::size_t>(n));
  for (std::int32_t u = 0; u < n; ++u) {
    // Independent per-user streams, in the style of the per-request
    // sampler seeds: a user's trace depends only on its own draws.
    users_.emplace_back(seed + static_cast<std::uint64_t>(u + 1) * 7919);
  }
}

ServingRequest ClosedLoopClientPool::NextRequest(User& user,
                                                 double arrival_seconds) {
  ServingRequest req = DrawRequest(
      user.rng, config_.min_prompt_tokens, config_.max_prompt_tokens,
      config_.min_new_tokens, config_.max_new_tokens, config_.vocab_size,
      arrival_seconds);
  user.in_flight = true;
  ++user.issued;
  ++total_issued_;
  return req;
}

std::optional<ServingRequest> ClosedLoopClientPool::StartUser(
    std::int32_t user_id) {
  User& user = users_[static_cast<std::size_t>(user_id)];
  assert(user.issued == 0 && !user.in_flight &&
         "StartUser must run once, before any OnFinish");
  if (config_.requests_per_user <= 0) return std::nullopt;
  const double gap =
      ExpGap(user.rng, 1.0 / std::max(1e-12, config_.mean_think_seconds));
  return NextRequest(user, gap);
}

std::optional<ServingRequest> ClosedLoopClientPool::OnFinish(
    std::int32_t user_id, double now_seconds) {
  User& user = users_[static_cast<std::size_t>(user_id)];
  assert(user.in_flight &&
         "closed-loop invariant: OnFinish without a request in flight");
  user.in_flight = false;
  if (user.issued >= config_.requests_per_user) return std::nullopt;
  const double gap =
      ExpGap(user.rng, 1.0 / std::max(1e-12, config_.mean_think_seconds));
  return NextRequest(user, now_seconds + gap);
}

bool ClosedLoopClientPool::AllDone() const {
  for (const User& user : users_) {
    if (user.in_flight || user.issued < config_.requests_per_user) {
      return false;
    }
  }
  return true;
}

std::vector<ServingRequest> SharedPrefixTrace(
    Rng& rng, const SharedPrefixConfig& config) {
  // Materialize the shared system prompts first so the trace's prefixes
  // depend only on (seed, config), not on the arrival draws.
  const std::int32_t n_prefixes = std::max<std::int32_t>(1, config.num_prefixes);
  const std::int32_t prefix_len = std::max<std::int32_t>(2, config.prefix_tokens);
  std::vector<std::vector<std::int32_t>> prefixes(
      static_cast<std::size_t>(n_prefixes));
  for (auto& prefix : prefixes) {
    prefix = DrawPrompt(rng, prefix_len, config.vocab_size);
  }

  std::vector<ServingRequest> trace;
  trace.reserve(static_cast<std::size_t>(std::max(0, config.num_requests)));
  double now = 0.0;
  for (std::int32_t i = 0; i < config.num_requests; ++i) {
    now += ExpGap(rng, config.rate_rps);
    ServingRequest req;
    req.arrival_seconds = now;
    req.max_new_tokens = std::max<std::int32_t>(
        1, UniformInclusive(rng, config.min_new_tokens, config.max_new_tokens));
    const std::int32_t suffix = std::max<std::int32_t>(
        1, UniformInclusive(rng, config.min_suffix_tokens,
                            config.max_suffix_tokens));
    if (rng.NextDouble() < config.shared_fraction) {
      // Shared system prompt + unique user suffix.
      req.prompt = prefixes[static_cast<std::size_t>(
          rng.NextBounded(static_cast<std::uint64_t>(n_prefixes)))];
      for (std::int32_t t = 0; t < suffix; ++t) {
        req.prompt.push_back(DrawToken(rng, config.vocab_size));
      }
    } else {
      // Fully unique prompt of comparable length: cache-neutral traffic.
      req.prompt = DrawPrompt(rng, prefix_len + suffix, config.vocab_size);
    }
    trace.push_back(std::move(req));
  }
  return trace;
}

MultiTurnChatPool::MultiTurnChatPool(std::uint64_t seed,
                                     const MultiTurnConfig& config)
    : config_(config) {
  // The system prompt comes from its own stream so every user's first
  // turn opens identically (and prefix-shares across users).
  Rng system_rng(seed ^ 0x5e41f0ull);
  system_prompt_ = DrawPrompt(system_rng, config_.system_prompt_tokens,
                              config_.vocab_size);
  const std::int32_t n = std::max<std::int32_t>(0, config_.num_users);
  users_.reserve(static_cast<std::size_t>(n));
  for (std::int32_t u = 0; u < n; ++u) {
    users_.emplace_back(seed + static_cast<std::uint64_t>(u + 1) * 7919);
  }
}

ServingRequest MultiTurnChatPool::NextTurn(User& user,
                                           double arrival_seconds) {
  const std::int32_t msg = std::max<std::int32_t>(
      1, UniformInclusive(user.rng, config_.min_user_tokens,
                          config_.max_user_tokens));
  for (std::int32_t t = 0; t < msg; ++t) {
    user.history.push_back(DrawToken(user.rng, config_.vocab_size));
  }
  ServingRequest req;
  req.prompt = user.history;  // the whole conversation so far
  req.max_new_tokens = std::max<std::int32_t>(
      1, UniformInclusive(user.rng, config_.min_new_tokens,
                          config_.max_new_tokens));
  req.arrival_seconds = arrival_seconds;
  user.in_flight = true;
  ++user.turns;
  return req;
}

std::optional<ServingRequest> MultiTurnChatPool::StartUser(
    std::int32_t user_id) {
  User& user = users_[static_cast<std::size_t>(user_id)];
  assert(user.turns == 0 && !user.in_flight &&
         "StartUser must run once, before any OnFinish");
  if (config_.turns_per_user <= 0) return std::nullopt;
  user.history = system_prompt_;
  const double gap =
      ExpGap(user.rng, 1.0 / std::max(1e-12, config_.mean_think_seconds));
  return NextTurn(user, gap);
}

std::optional<ServingRequest> MultiTurnChatPool::OnFinish(
    std::int32_t user_id, double now_seconds,
    std::span<const std::int32_t> generated) {
  User& user = users_[static_cast<std::size_t>(user_id)];
  assert(user.in_flight &&
         "multi-turn invariant: OnFinish without a turn in flight");
  user.in_flight = false;
  // The assistant's (possibly hang-up-truncated) answer becomes part of
  // the conversation the next prompt replays.
  user.history.insert(user.history.end(), generated.begin(), generated.end());
  if (user.turns >= config_.turns_per_user) return std::nullopt;
  const double gap =
      ExpGap(user.rng, 1.0 / std::max(1e-12, config_.mean_think_seconds));
  return NextTurn(user, now_seconds + gap);
}

bool MultiTurnChatPool::AllDone() const {
  for (const User& user : users_) {
    if (user.in_flight || user.turns < config_.turns_per_user) return false;
  }
  return true;
}

// ------------------------------ scenario zoo --------------------------

RequestTier DrawTier(Rng& rng, const TierMix& mix) {
  const double w[kNumTiers] = {std::max(0.0, mix.interactive),
                               std::max(0.0, mix.standard),
                               std::max(0.0, mix.best_effort)};
  const double total = w[0] + w[1] + w[2];
  if (total <= 0.0) return RequestTier::kStandard;
  double u = rng.NextDouble() * total;
  for (int t = 0; t < kNumTiers; ++t) {
    if (u < w[t]) return static_cast<RequestTier>(t);
    u -= w[t];
  }
  return RequestTier::kBestEffort;  // float round-off on the last edge
}

void ApplyTierMix(Rng& rng, const TierMix& mix,
                  std::vector<ServingRequest>& trace) {
  for (ServingRequest& req : trace) req.tier = DrawTier(rng, mix);
}

namespace {

// The zoo's fixed shapes; Scenario's enumerators document each one.

/// Token ids of every zoo trace are drawn below Tiny's vocab.
constexpr std::int32_t kZooVocab = 512;

std::vector<ServingRequest> RagTrace(Rng& rng) {
  constexpr std::int32_t kRequests = 24;
  constexpr std::int32_t kDocuments = 3;
  constexpr std::int32_t kDocumentTokens = 24;
  // Materialize the retrieved contexts first so the shared documents
  // depend only on the seed, not on the arrival draws.
  std::vector<std::vector<std::int32_t>> documents(kDocuments);
  for (auto& doc : documents) {
    doc = DrawPrompt(rng, kDocumentTokens, kZooVocab);
  }

  std::vector<ServingRequest> trace;
  trace.reserve(kRequests);
  double now = 0.0;
  for (std::int32_t i = 0; i < kRequests; ++i) {
    now += ExpGap(rng, 100.0);
    ServingRequest req;
    req.arrival_seconds = now;
    req.prompt = documents[static_cast<std::size_t>(
        rng.NextBounded(static_cast<std::uint64_t>(kDocuments)))];
    const std::int32_t question = UniformInclusive(rng, 4, 8);
    for (std::int32_t t = 0; t < question; ++t) {
      req.prompt.push_back(DrawToken(rng, kZooVocab));
    }
    req.max_new_tokens = UniformInclusive(rng, 2, 6);
    req.tier = DrawTier(rng, TierMix{0.3, 0.6, 0.1});
    trace.push_back(std::move(req));
  }
  return trace;
}

std::vector<ServingRequest> AgenticBurstTrace(Rng& rng) {
  constexpr std::int32_t kAgents = 6;
  constexpr std::int32_t kStepsPerAgent = 4;
  // One shared scaffold opens every chain, so agents prefix-share it.
  const std::vector<std::int32_t> scaffold = DrawPrompt(rng, 10, kZooVocab);

  std::vector<ServingRequest> trace;
  trace.reserve(kAgents * kStepsPerAgent);
  double epoch = 0.0;
  for (std::int32_t a = 0; a < kAgents; ++a) {
    epoch += ExpGap(rng, 1.0 / 0.005);
    std::vector<std::int32_t> transcript = scaffold;
    for (std::int32_t s = 0; s < kStepsPerAgent; ++s) {
      // The tool result lands in the transcript before the step runs;
      // each step replays the whole chain so far (prefix-cache food).
      const std::int32_t tool = UniformInclusive(rng, 3, 7);
      for (std::int32_t t = 0; t < tool; ++t) {
        transcript.push_back(DrawToken(rng, kZooVocab));
      }
      ServingRequest req;
      req.prompt = transcript;
      req.max_new_tokens = UniformInclusive(rng, 4, 10);
      req.arrival_seconds = epoch + static_cast<double>(s) * 1e-3;
      req.tier = DrawTier(rng, TierMix{0.6, 0.3, 0.1});
      trace.push_back(std::move(req));
    }
  }
  // Chains overlap when an agent wakes before the previous burst's last
  // step; callers submit in arrival order.
  std::stable_sort(trace.begin(), trace.end(),
                   [](const ServingRequest& a, const ServingRequest& b) {
                     return a.arrival_seconds < b.arrival_seconds;
                   });
  return trace;
}

std::vector<ServingRequest> ParallelSamplingTrace(Rng& rng) {
  constexpr std::int32_t kGroups = 8;
  constexpr std::int32_t kSamplesPerPrompt = 4;
  std::vector<ServingRequest> trace;
  trace.reserve(kGroups * kSamplesPerPrompt);
  double now = 0.0;
  for (std::int32_t g = 0; g < kGroups; ++g) {
    now += ExpGap(rng, 50.0);
    const std::vector<std::int32_t> prompt =
        DrawPrompt(rng, UniformInclusive(rng, 12, 24), kZooVocab);
    const std::int32_t budget = UniformInclusive(rng, 8, 16);
    const RequestTier tier = DrawTier(rng, TierMix{0.2, 0.6, 0.2});
    for (std::int32_t k = 0; k < kSamplesPerPrompt; ++k) {
      ServingRequest req;
      req.prompt = prompt;  // identical content: the pool COW-forks it
      req.max_new_tokens = budget;
      req.arrival_seconds = now;
      req.tier = tier;
      req.sampler.temperature = 0.7f + static_cast<float>(k) * 0.15f;
      req.sampler.has_temperature = true;
      trace.push_back(std::move(req));
    }
  }
  return trace;
}

std::vector<ServingRequest> LongContextTrace(Rng& rng) {
  constexpr std::int32_t kRequests = 8;
  std::vector<ServingRequest> trace;
  trace.reserve(kRequests);
  double now = 0.0;
  for (std::int32_t i = 0; i < kRequests; ++i) {
    now += ExpGap(rng, 20.0);
    ServingRequest req;
    req.arrival_seconds = now;
    req.prompt = DrawPrompt(rng, UniformInclusive(rng, 32, 48), kZooVocab);
    req.max_new_tokens = UniformInclusive(rng, 8, 14);
    req.tier = DrawTier(rng, TierMix{0.05, 0.25, 0.7});
    trace.push_back(std::move(req));
  }
  return trace;
}

}  // namespace

std::string_view ScenarioName(Scenario scenario) {
  switch (scenario) {
    case Scenario::kRag: return "rag";
    case Scenario::kAgentic: return "agentic";
    case Scenario::kParallelSampling: return "parallel_sampling";
    case Scenario::kLongContext: return "long_context";
  }
  return "unknown";
}

bool ScenarioFromName(std::string_view name, Scenario* out) {
  for (Scenario s : {Scenario::kRag, Scenario::kAgentic,
                     Scenario::kParallelSampling, Scenario::kLongContext}) {
    if (name == ScenarioName(s)) {
      *out = s;
      return true;
    }
  }
  return false;
}

std::vector<ServingRequest> ScenarioTrace(Rng& rng, Scenario scenario) {
  switch (scenario) {
    case Scenario::kRag: return RagTrace(rng);
    case Scenario::kAgentic: return AgenticBurstTrace(rng);
    case Scenario::kParallelSampling: return ParallelSamplingTrace(rng);
    case Scenario::kLongContext: return LongContextTrace(rng);
  }
  return {};
}

std::vector<ServingRequest> BurstyTrace(Rng& rng,
                                        const WorkloadConfig& config) {
  std::vector<ServingRequest> trace;
  trace.reserve(static_cast<std::size_t>(std::max(0, config.num_requests)));
  const std::int32_t burst = std::max<std::int32_t>(1, config.burst_size);
  const double epoch_rate = config.rate_rps / static_cast<double>(burst);
  double epoch = 0.0;
  while (static_cast<std::int32_t>(trace.size()) < config.num_requests) {
    epoch += ExpGap(rng, epoch_rate);
    for (std::int32_t b = 0;
         b < burst &&
         static_cast<std::int32_t>(trace.size()) < config.num_requests;
         ++b) {
      trace.push_back(MakeRequest(rng, config, epoch));
    }
  }
  return trace;
}

}  // namespace speedllm::serving

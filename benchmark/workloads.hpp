// SpeedLLM benchmark -- the four frozen workloads and their trace
// generators.
//
// Traces come from this file alone, drawn with the benchmark's own
// SplitMix64 stream, so a change to the library's workload generators
// (src/serving/workload.cpp) cannot move the load. Lengths and
// inter-arrival gaps are stratified: every seed draws the same multiset
// (evenly spaced quantiles of the stated distribution) and the seed only
// sets their order and the token content. That keeps the simulated-clock
// metrics of two seeds within a few percent of each other while every
// seed still serves different requests. See README.md for why each
// workload exists and which layer it stresses.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "llama/config.hpp"
#include "llama/tokenizer.hpp"
#include "serving/cluster.hpp"
#include "serving/request.hpp"

namespace speedllm::benchmark {

/// SplitMix64, kept here rather than borrowed from common/rng.hpp so the
/// traces cannot shift with the library.
class TraceRng {
 public:
  explicit TraceRng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi] (inclusive).
  std::int32_t Between(std::int32_t lo, std::int32_t hi) {
    return lo + static_cast<std::int32_t>(
                    Next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[Next() % i]);
    }
  }

 private:
  std::uint64_t state_;
};

/// FNV-1a over everything a generator drew: two runs with equal digests
/// served identical inputs.
class Digest {
 public:
  void Add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001B3ull;
    }
  }
  template <typename T>
  void Add(const T& value) {
    Add(&value, sizeof(value));
  }
  void Add(const std::vector<std::int32_t>& tokens) {
    Add(tokens.size());
    Add(tokens.data(), tokens.size() * sizeof(std::int32_t));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// How requests arrive.
enum class Arrivals {
  kPoisson,         ///< open loop, exponential gaps at `rate_rps`
  kBurstTrain,      ///< open loop, `burst` requests every burst/rate_rps
  kClosedLoopChat,  ///< users submit their next turn from on_finish
};

/// One frozen workload: platform, sampler, load shape and SLO limits.
struct WorkloadSpec {
  std::string_view name;
  llama::ModelConfig model;
  int cards = 1;
  serving::PlacementPolicy placement = serving::PlacementPolicy::kRoundRobin;
  /// Per-card KV pool budget; 0 derives it from the card's free HBM.
  std::uint64_t kv_pool_bytes = 0;
  float temperature = 0.0f;
  float top_p = 0.9f;
  /// Per-request SLO: TTFT and mean TPOT limits, simulated seconds.
  double slo_ttft_s = 0.0;
  double slo_tpot_s = 0.0;

  Arrivals arrivals = Arrivals::kPoisson;
  // Open loop.
  std::int32_t requests = 0;
  double rate_rps = 0.0;
  std::int32_t burst = 1;
  std::int32_t min_prompt = 0;  ///< prompt lengths include the BOS token
  std::int32_t max_prompt = 0;
  std::int32_t min_gen = 0;
  std::int32_t max_gen = 0;
  // Closed loop: generation budgets reuse min_gen/max_gen.
  std::int32_t users = 0;
  std::int32_t turns = 0;
  std::int32_t system_tokens = 0;
  std::int32_t min_message = 0;
  std::int32_t max_message = 0;
  double mean_think_s = 0.0;

  /// Requests one run submits.
  std::int32_t total_requests() const {
    return arrivals == Arrivals::kClosedLoopChat ? users * turns : requests;
  }
  /// Highest of p99/p95/p90/p75 with at least ten samples beyond it.
  double tail_quantile() const {
    for (double q : {0.99, 0.95, 0.90, 0.75}) {
      if (static_cast<double>(total_requests()) * (1.0 - q) >= 10.0) return q;
    }
    return 0.5;
  }
};

// "Saturation" below is the request rate the same trace achieves when
// every request arrives at t=0, measured when this benchmark was added.
// Sizes keep one repetition to a few host seconds so a run repeats it;
// SLO limits put attainment at that time between 0.85 and 0.98.
// README.md records the calibration.
inline std::vector<WorkloadSpec> Workloads() {
  std::vector<WorkloadSpec> all;

  // Per-token host path: executor timing model and top-p sampling, many
  // narrow ticks. 0.68x of saturation (52.8k req/s); at 0.8x the p99
  // TTFT swung by half between seeds.
  WorkloadSpec decode;
  decode.name = "decode_sampled";
  decode.model = llama::ModelConfig::Tiny();
  decode.cards = 8;
  decode.temperature = 0.9f;
  decode.top_p = 0.9f;
  decode.slo_ttft_s = 61e-6;
  decode.slo_tpot_s = 28.8e-6;
  decode.arrivals = Arrivals::kPoisson;
  decode.requests = 1500;
  decode.rate_rps = 36000.0;
  decode.min_prompt = 4;
  decode.max_prompt = 12;
  decode.min_gen = 24;
  decode.max_gen = 48;
  all.push_back(decode);

  // The paper's model, greedy, mostly prompt tokens: llama::MatMul
  // dominates host time. Light load (0.04x of 476 req/s) so TTFT is each
  // prompt's own prefill rather than queueing among only 40 requests.
  WorkloadSpec prefill;
  prefill.name = "prefill_greedy_15m";
  prefill.model = llama::ModelConfig::Stories15M();
  prefill.cards = 1;
  prefill.temperature = 0.0f;
  prefill.slo_ttft_s = 2.2e-3;
  prefill.slo_tpot_s = 0.6e-3;
  prefill.arrivals = Arrivals::kPoisson;
  prefill.requests = 40;
  prefill.rate_rps = 20.0;
  prefill.min_prompt = 4;
  prefill.max_prompt = 12;
  prefill.min_gen = 2;
  prefill.max_gen = 4;
  all.push_back(prefill);

  // KV read side: every turn replays a shared system prompt plus the
  // whole history, so most prompt tokens are prefix-cache hits. Think
  // gaps are short enough that users outpace the card prefix affinity
  // piles them onto, so the closed loop runs saturated.
  WorkloadSpec chat;
  chat.name = "multiturn_chat";
  chat.model = llama::ModelConfig::Tiny();
  chat.model.seq_len = 256;
  chat.cards = 4;
  chat.placement = serving::PlacementPolicy::kPrefixAffinity;
  chat.temperature = 0.8f;
  chat.slo_ttft_s = 2.7e-3;
  chat.slo_tpot_s = 46e-6;
  chat.arrivals = Arrivals::kClosedLoopChat;
  chat.users = 64;
  chat.turns = 8;
  chat.system_tokens = 48;
  chat.min_message = 4;
  chat.max_message = 8;
  chat.min_gen = 6;
  chat.max_gen = 12;
  chat.mean_think_s = 0.5e-3;
  all.push_back(chat);

  // KV write side: each burst of 8 oversubscribes the two ~10-block
  // pools, so sequences are preempted, recomputed and evicted. Bursts
  // arrive at 1.3x saturation (10k req/s), so the backlog and the TTFT
  // tail grow over the run. Periodic bursts keep that growth the same
  // for every seed; Poisson bursts made the TTFT tail swing by 25%.
  WorkloadSpec pressure;
  pressure.name = "kv_pressure";
  pressure.model = llama::ModelConfig::Tiny();
  pressure.cards = 2;
  pressure.kv_pool_bytes = 32 * 1024;
  pressure.temperature = 0.9f;
  pressure.slo_ttft_s = 19e-3;
  pressure.slo_tpot_s = 60e-6;
  pressure.arrivals = Arrivals::kBurstTrain;
  pressure.requests = 904;
  pressure.rate_rps = 13000.0;
  pressure.burst = 8;
  pressure.min_prompt = 16;
  pressure.max_prompt = 32;
  pressure.min_gen = 16;
  pressure.max_gen = 28;
  all.push_back(pressure);

  return all;
}

/// `n` integers spread evenly over [lo, hi], in seed order.
inline std::vector<std::int32_t> StratifiedInts(TraceRng& rng, std::int32_t n,
                                                std::int32_t lo,
                                                std::int32_t hi) {
  std::vector<std::int32_t> v(static_cast<std::size_t>(n));
  const double span = static_cast<double>(hi - lo + 1);
  for (std::int32_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] =
        lo + static_cast<std::int32_t>((i + 0.5) * span / n);
  }
  rng.Shuffle(v);
  return v;
}

/// `n` exponential gaps of mean `mean_s` at evenly spaced quantiles, in
/// seed order.
inline std::vector<double> StratifiedExpGaps(TraceRng& rng, std::int32_t n,
                                             double mean_s) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = -mean_s * std::log1p(-(i + 0.5) / n);
  }
  rng.Shuffle(v);
  return v;
}

/// A prompt of `length` tokens: BOS then uniform ids that share no
/// prefix with other prompts beyond chance.
inline std::vector<std::int32_t> RandomTokens(TraceRng& rng,
                                              std::int32_t length,
                                              std::int32_t vocab,
                                              bool bos) {
  std::vector<std::int32_t> tokens;
  tokens.reserve(static_cast<std::size_t>(length));
  if (bos) tokens.push_back(llama::kBosToken);
  while (static_cast<std::int32_t>(tokens.size()) < length) {
    tokens.push_back(rng.Between(3, vocab - 1));
  }
  return tokens;
}

/// Open-loop trace, sorted by arrival. Poisson traces stratify lengths
/// and gaps over the whole trace; burst trains stratify lengths within
/// each burst, so every burst asks for the same KV footprint.
inline std::vector<serving::ServingRequest> OpenLoopTrace(
    const WorkloadSpec& spec, std::uint64_t seed, Digest* digest) {
  TraceRng rng(seed * 0x9E3779B97F4A7C15ull + 0x51ED);
  const std::int32_t n = spec.requests;
  std::vector<std::int32_t> prompts;
  std::vector<std::int32_t> gens;
  std::vector<double> arrivals;
  if (spec.arrivals == Arrivals::kPoisson) {
    prompts = StratifiedInts(rng, n, spec.min_prompt, spec.max_prompt);
    gens = StratifiedInts(rng, n, spec.min_gen, spec.max_gen);
    double t = 0.0;
    for (double gap : StratifiedExpGaps(rng, n, 1.0 / spec.rate_rps)) {
      arrivals.push_back(t += gap);
    }
  } else {
    for (std::int32_t first = 0; first < n; first += spec.burst) {
      const std::int32_t size = std::min(spec.burst, n - first);
      const auto p =
          StratifiedInts(rng, size, spec.min_prompt, spec.max_prompt);
      const auto g = StratifiedInts(rng, size, spec.min_gen, spec.max_gen);
      prompts.insert(prompts.end(), p.begin(), p.end());
      gens.insert(gens.end(), g.begin(), g.end());
      arrivals.insert(arrivals.end(), static_cast<std::size_t>(size),
                      (first + spec.burst) / spec.rate_rps);
    }
  }
  std::vector<serving::ServingRequest> trace;
  trace.reserve(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    serving::ServingRequest r;
    r.prompt = RandomTokens(rng, prompts[i], spec.model.vocab_size, true);
    r.max_new_tokens = gens[i];
    r.arrival_seconds = arrivals[i];
    digest->Add(r.arrival_seconds);
    digest->Add(r.max_new_tokens);
    digest->Add(r.prompt);
    trace.push_back(std::move(r));
  }
  return trace;
}

/// One user's scripted conversation: what they type each turn, how many
/// tokens they let the model answer, and how long they think first.
/// Answers come from the engine at run time; everything else is frozen.
struct ChatUser {
  struct Turn {
    std::vector<std::int32_t> message;
    std::int32_t max_new_tokens = 0;
    double think_s = 0.0;
  };
  std::vector<Turn> turns;
  /// The conversation so far: the latest prompt, then its answer once
  /// the caller appends it.
  std::vector<std::int32_t> history;
  std::int32_t next_turn = 0;
};

/// Scripts for every user of a kClosedLoopChat workload. Every user's
/// first prompt opens with the same system prompt.
inline std::vector<ChatUser> ChatScripts(const WorkloadSpec& spec,
                                         std::uint64_t seed, Digest* digest) {
  TraceRng rng(seed * 0x9E3779B97F4A7C15ull + 0xC4A7);
  const std::int32_t n = spec.users * spec.turns;
  const auto messages =
      StratifiedInts(rng, n, spec.min_message, spec.max_message);
  const auto gens = StratifiedInts(rng, n, spec.min_gen, spec.max_gen);
  const auto thinks = StratifiedExpGaps(rng, n, spec.mean_think_s);
  const std::vector<std::int32_t> system =
      RandomTokens(rng, spec.system_tokens, spec.model.vocab_size, true);
  digest->Add(system);
  std::vector<ChatUser> users(static_cast<std::size_t>(spec.users));
  std::size_t k = 0;
  for (ChatUser& user : users) {
    user.history = system;
    for (std::int32_t t = 0; t < spec.turns; ++t, ++k) {
      ChatUser::Turn turn;
      turn.message =
          RandomTokens(rng, messages[k], spec.model.vocab_size, false);
      turn.max_new_tokens = gens[k];
      turn.think_s = thinks[k];
      digest->Add(turn.message);
      digest->Add(turn.max_new_tokens);
      digest->Add(turn.think_s);
      user.turns.push_back(std::move(turn));
    }
  }
  return users;
}

/// The user's next request: history + the new message, arriving one
/// think gap after `now_s`. The prompt becomes the new history; the
/// caller appends the answer when the turn finishes. Call only while
/// turns remain.
inline serving::ServingRequest NextChatTurn(ChatUser& user, double now_s) {
  const ChatUser::Turn& turn =
      user.turns[static_cast<std::size_t>(user.next_turn++)];
  user.history.insert(user.history.end(), turn.message.begin(),
                      turn.message.end());
  serving::ServingRequest r;
  r.prompt = user.history;
  r.max_new_tokens = turn.max_new_tokens;
  r.arrival_seconds = now_s + turn.think_s;
  return r;
}

}  // namespace speedllm::benchmark

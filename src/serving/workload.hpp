// SpeedLLM -- synthetic serving workload generators.
//
// Builds deterministic request traces for the scheduler benches and the
// chat_clients example: Poisson arrivals (open-loop, memoryless) and a
// bursty variant where requests arrive in clumps, which is what stresses
// admission control and preemption. The closed-loop client pool models
// the other regime -- each simulated user has at most one request in
// flight and issues the next one only after the previous finishes plus a
// think-time gap, which is how real chat traffic self-throttles (drive it
// from an api::Engine on_finish callback). All randomness flows through
// explicit common/rng.hpp streams, so a (seed, config) pair always yields
// the same trace regardless of completion order.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "serving/request.hpp"

namespace speedllm::serving {

/// Shape of an open-loop synthetic trace: arrival rate plus i.i.d.
/// prompt / generation length ranges (all ranges inclusive).
struct WorkloadConfig {
  /// Number of requests in the trace.
  std::int32_t num_requests = 16;
  /// Mean arrival rate, requests per second.
  double rate_rps = 50.0;

  /// Minimum prompt length, tokens (BOS included).
  std::int32_t min_prompt_tokens = 4;
  /// Maximum prompt length, tokens (inclusive).
  std::int32_t max_prompt_tokens = 24;
  /// Minimum generation budget, tokens.
  std::int32_t min_new_tokens = 8;
  /// Maximum generation budget, tokens (inclusive).
  std::int32_t max_new_tokens = 24;
  /// Token ids are drawn from [3, vocab_size).
  std::int32_t vocab_size = 32000;

  /// Bursty shaping: requests arrive in clumps of `burst_size` whose
  /// burst epochs are Poisson at rate_rps / burst_size (so the long-run
  /// request rate matches the Poisson trace at the same rate_rps).
  std::int32_t burst_size = 4;
};

/// BOS-first prompt of `len` tokens (at least the BOS): the rest are
/// random non-control ids, drawn from 259 up when `vocab_size` > 300
/// (the llama2.c tokenizer reserves the ids below for specials and raw
/// bytes), else from 3 up. Every BOS-first prompt the generators here
/// build is drawn this way.
std::vector<std::int32_t> DrawPrompt(Rng& rng, std::int32_t len,
                                     std::int32_t vocab_size);

/// InvalidArgument when `config` asks for a negative number of requests;
/// OK otherwise. PoissonTrace and BurstyTrace draw no request for such a
/// config, so callers that take the count from input check it here.
Status ValidateWorkloadConfig(const WorkloadConfig& config);

/// Open-loop Poisson arrivals with i.i.d. prompt / generation lengths.
std::vector<ServingRequest> PoissonTrace(Rng& rng,
                                         const WorkloadConfig& config);

/// Clumped arrivals: same marginal rate, much worse instantaneous load.
std::vector<ServingRequest> BurstyTrace(Rng& rng, const WorkloadConfig& config);

// ------------------------------ shared-prefix workloads ---------------

/// Shape of a shared-prefix trace (the traffic prefix caching exists
/// for); see SharedPrefixTrace.
struct SharedPrefixConfig {
  /// Number of requests in the trace.
  std::int32_t num_requests = 32;
  /// Mean arrival rate, requests per second.
  double rate_rps = 200.0;

  /// Probability a request opens with one of the shared system prompts.
  double shared_fraction = 0.8;
  /// Distinct shared system prompts.
  std::int32_t num_prefixes = 2;
  /// Length of each shared prefix, tokens.
  std::int32_t prefix_tokens = 40;
  /// Minimum unique user tokens appended after the shared prefix.
  std::int32_t min_suffix_tokens = 2;
  /// Maximum unique user tokens appended (inclusive).
  std::int32_t max_suffix_tokens = 8;
  /// Minimum generation budget, tokens.
  std::int32_t min_new_tokens = 8;
  /// Maximum generation budget, tokens (inclusive).
  std::int32_t max_new_tokens = 16;
  /// Token ids are drawn from [3, vocab_size).
  std::int32_t vocab_size = 32000;
};

/// Poisson arrivals where `shared_fraction` of the requests start with
/// one of `num_prefixes` fixed system prompts followed by a short unique
/// suffix -- the traffic shape prefix caching exists for (chat frontends
/// pin a system prompt; agents replay tool instructions). The remaining
/// requests draw fully unique prompts of comparable length, so a cache
/// can neither help nor hurt them.
std::vector<ServingRequest> SharedPrefixTrace(Rng& rng,
                                              const SharedPrefixConfig& config);

// ------------------------------ multi-turn chat conversations ---------

/// Shape of the multi-turn chat workload; see MultiTurnChatPool.
struct MultiTurnConfig {
  /// Concurrent simulated users (one growing conversation each).
  std::int32_t num_users = 4;
  /// Turns each user's conversation runs for.
  std::int32_t turns_per_user = 3;
  /// Mean exponential think gap between a turn finishing and the user's
  /// next turn arriving (also before the first turn).
  double mean_think_seconds = 0.01;
  /// Tokens of the system prompt every conversation opens with. Shared
  /// across users, so even first turns prefix-share with each other.
  std::int32_t system_prompt_tokens = 16;
  /// Minimum fresh user-message tokens appended each turn.
  std::int32_t min_user_tokens = 2;
  /// Maximum fresh user-message tokens appended (inclusive).
  std::int32_t max_user_tokens = 6;
  /// Minimum generation budget per turn, tokens.
  std::int32_t min_new_tokens = 4;
  /// Maximum generation budget per turn, tokens (inclusive).
  std::int32_t max_new_tokens = 10;
  /// Token ids are drawn from [3, vocab_size).
  std::int32_t vocab_size = 32000;
};

/// Grows one conversation per user the way a chat client does: every
/// turn's prompt is the full history -- system prompt, then each prior
/// turn's prompt and *generated* answer -- plus a fresh user message, so
/// a prefix-caching pool re-serves the history blocks instead of
/// re-prefilling them and turn latency stays flat as conversations grow.
/// Per-user RNG streams (seeded by user id) draw think gaps, message
/// lengths, and token values, so with a deterministic sampler the traced
/// conversations are byte-identical under any completion interleaving,
/// card count, or cache configuration.
class MultiTurnChatPool {
 public:
  /// Builds `config.num_users` conversations; randomness derives from
  /// (`seed`, user id) only.
  MultiTurnChatPool(std::uint64_t seed, const MultiTurnConfig& config);

  /// Number of simulated users.
  std::int32_t num_users() const {
    return static_cast<std::int32_t>(users_.size());
  }

  /// First turn of `user` (arrival = think gap from time zero): system
  /// prompt + first user message. Must run once per user, before any
  /// OnFinish for that user.
  std::optional<ServingRequest> StartUser(std::int32_t user);

  /// Reports that `user`'s turn finished at `now_seconds` with
  /// `generated` tokens (possibly truncated by a hang-up) and returns
  /// the next turn -- history + generated + new user message, arriving
  /// one think gap later -- or nullopt when the conversation is over.
  std::optional<ServingRequest> OnFinish(
      std::int32_t user, double now_seconds,
      std::span<const std::int32_t> generated);

  /// True while `user` has a turn submitted but not yet finished.
  bool in_flight(std::int32_t user) const {
    return users_[static_cast<std::size_t>(user)].in_flight;
  }
  /// The conversation so far (the most recent turn's full prompt).
  const std::vector<std::int32_t>& history(std::int32_t user) const {
    return users_[static_cast<std::size_t>(user)].history;
  }
  /// True once every user's conversation has run out of turns.
  bool AllDone() const;

 private:
  struct User {
    Rng rng;
    std::vector<std::int32_t> history;
    std::int32_t turns = 0;
    bool in_flight = false;

    explicit User(std::uint64_t seed) : rng(seed) {}
  };

  ServingRequest NextTurn(User& user, double arrival_seconds);

  MultiTurnConfig config_;
  std::vector<std::int32_t> system_prompt_;
  std::vector<User> users_;
};

// ------------------------------ scenario zoo --------------------------
//
// Four named, deterministic workload shapes with realistic tier mixes --
// the traces the SLO/goodput benches and docs/SCENARIOS.md reason about.
// Each trace draws everything from the caller's Rng stream, so a seed
// always yields the same trace. The shapes are fixed and sized to fit
// llama::ModelConfig::Tiny (vocab 512, seq_len 64): prompt plus
// generation budget never exceeds the context window, so every zoo
// trace runs against every preset out of the box.

/// Probability weights of the three request tiers. Weights need not sum
/// to one (they are normalized at draw time); all-zero weights collapse
/// to kStandard. The draw order is tier-index order, so a trace's tier
/// assignment depends only on (seed, mix).
struct TierMix {
  /// Weight of RequestTier::kInteractive.
  double interactive = 0.0;
  /// Weight of RequestTier::kStandard.
  double standard = 1.0;
  /// Weight of RequestTier::kBestEffort.
  double best_effort = 0.0;
};

/// Draws one tier from `mix` (weights normalized; all-zero -> kStandard).
RequestTier DrawTier(Rng& rng, const TierMix& mix);

/// Assigns an i.i.d. tier drawn from `mix` to every request in `trace`,
/// in place -- retrofits a tier mix onto any generator's output.
void ApplyTierMix(Rng& rng, const TierMix& mix,
                  std::vector<ServingRequest>& trace);

/// The named scenarios of the zoo. Token ids are drawn from the
/// non-control ids below 512; tier mixes read interactive / standard /
/// best-effort.
enum class Scenario {
  /// Retrieval-augmented generation: 24 Poisson arrivals at 100 req/s,
  /// each one of 3 shared 24-token context documents plus a unique 4-8
  /// token question, with a tiny 2-6 token answer -- prefill-dominated
  /// traffic where prefix caching and COW sharing carry the run. Tiers
  /// 0.3 / 0.6 / 0.1.
  kRag,
  /// Agentic tool-call bursts: 6 agents wake at exponential gaps of mean
  /// 5 ms and each runs a 4-step chain, 1 ms apart, replaying a shared
  /// 10-token scaffold plus its growing transcript (3-7 tool-result
  /// tokens per step, 4-10 token budgets) -- the bursty, prefix-heavy
  /// shape that stresses admission control, preemption and the prefix
  /// cache at once. Sorted by arrival. Tiers 0.6 / 0.3 / 0.1.
  kAgentic,
  /// Parallel sampling (best-of-n): 8 prompts of 12-24 tokens arrive at
  /// 50 groups/s, each 4 times at the same instant with identical
  /// content, one 8-16 token budget and one tier, so the pool
  /// prefix-shares the prompt blocks and forks them copy-on-write.
  /// Sample k carries a SamplerOverride temperature of 0.7 + 0.15 k, the
  /// queued-override path under load. Tiers 0.2 / 0.6 / 0.2 per group.
  kParallelSampling,
  /// Long-context summarization: 8 Poisson arrivals at 20 req/s of fully
  /// unique 32-48 token documents with 8-14 token summaries --
  /// KV-capacity-bound traffic that hogs pool blocks, triggers
  /// preemption, and (being mostly best-effort) is what admission
  /// control sheds first. Tiers 0.05 / 0.25 / 0.7.
  kLongContext,
};

/// Scenario name ("rag" / "agentic" / "parallel_sampling" /
/// "long_context") for CLI flags, tables, and logs.
std::string_view ScenarioName(Scenario scenario);

/// Parses a ScenarioName back to its Scenario. Returns false (and
/// leaves `*out` untouched) for unknown names.
bool ScenarioFromName(std::string_view name, Scenario* out);

/// Builds `scenario`'s trace from `rng`.
std::vector<ServingRequest> ScenarioTrace(Rng& rng, Scenario scenario);

// ------------------------------ closed-loop (per-user) workloads ------

/// Shape of the closed-loop workload; see ClosedLoopClientPool.
struct ClosedLoopConfig {
  /// Concurrent simulated users.
  std::int32_t num_users = 8;
  /// Requests each user issues before retiring.
  std::int32_t requests_per_user = 4;
  /// Mean of the exponential think-time gap a user waits between its
  /// previous request finishing and the next one arriving (also the gap
  /// before the user's first request).
  double mean_think_seconds = 0.01;

  /// Minimum prompt length, tokens (BOS included).
  std::int32_t min_prompt_tokens = 4;
  /// Maximum prompt length, tokens (inclusive).
  std::int32_t max_prompt_tokens = 24;
  /// Minimum generation budget, tokens.
  std::int32_t min_new_tokens = 8;
  /// Maximum generation budget, tokens (inclusive).
  std::int32_t max_new_tokens = 24;
  /// Token ids are drawn from [3, vocab_size).
  std::int32_t vocab_size = 32000;
};

/// Generates each user's request sequence on demand with per-user
/// concurrency of exactly one: StartUser() yields the user's first
/// request, and OnFinish() -- called when that request completes --
/// yields the next (arriving one think-time gap after `now_seconds`) or
/// nullopt once the user's budget is spent. Every user owns a private
/// RNG stream keyed by (seed, user), so request contents and think gaps
/// depend only on the user's own history: traces are byte-identical no
/// matter how the engine interleaves completions across users or cards.
class ClosedLoopClientPool {
 public:
  /// Builds `config.num_users` users; randomness derives from
  /// (`seed`, user id) only.
  ClosedLoopClientPool(std::uint64_t seed, const ClosedLoopConfig& config);

  /// Number of simulated users.
  std::int32_t num_users() const {
    return static_cast<std::int32_t>(users_.size());
  }

  /// First request of `user` (arrival = think gap from time zero).
  /// Returns nullopt when the per-user budget is zero. Must be called
  /// once per user, before any OnFinish for that user.
  std::optional<ServingRequest> StartUser(std::int32_t user);

  /// Reports that `user`'s in-flight request finished at `now_seconds`
  /// and returns the next one (arrival = now + think gap), or nullopt
  /// when the user is done. Calling this for a user with no request in
  /// flight violates the closed-loop invariant and asserts.
  std::optional<ServingRequest> OnFinish(std::int32_t user,
                                         double now_seconds);

  /// True while `user` has a request submitted but not yet finished --
  /// by construction never more than one.
  bool in_flight(std::int32_t user) const {
    return users_[static_cast<std::size_t>(user)].in_flight;
  }
  /// Requests `user` has issued so far (in flight included).
  std::int32_t issued(std::int32_t user) const {
    return users_[static_cast<std::size_t>(user)].issued;
  }
  /// Requests issued across all users.
  std::int32_t total_issued() const { return total_issued_; }
  /// True once every user's budget is spent and nothing is in flight.
  bool AllDone() const;

 private:
  struct User {
    Rng rng;
    std::int32_t issued = 0;
    bool in_flight = false;

    explicit User(std::uint64_t seed) : rng(seed) {}
  };

  ServingRequest NextRequest(User& user, double arrival_seconds);

  ClosedLoopConfig config_;
  std::vector<User> users_;
  std::int32_t total_issued_ = 0;
};

}  // namespace speedllm::serving

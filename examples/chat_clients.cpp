// SpeedLLM example: every form of serving traffic on the online API.
//
// The paper motivates SpeedLLM with edge servers handling real-time
// interaction. Each --scenario below is one such traffic, driven through
// one speedllm::api::Engine built from one setup (preset -> synthetic
// weights -> the SpeedLLM program compiled for the U280). Everything
// runs on the shared simulated clock, so the same flags always print the
// same output.
//
//   ./examples/chat_clients [--scenario chat|rag|agentic|parallel_sampling|
//                                       long_context|steady|burst|rush|
//                                       cluster|edge]
//                           [--preset tiny] [--cards 2] [--seed 17]
//                           [--policy fcfs|spf|decode]
//                           [--placement rr|least|bestfit] [--kv-mib 0]
//                           [--no-cache 0] [--roles p,d,...]
//                           [--trace-out trace.json]
//                           [--tier-mix 0.3,0.5,0.2]
//                           [--users 6] [--turns 3] [--think-ms 30]
//                           [--cancel-every 5] [--system-tokens 24]
//                           [--requests 24] [--load 2.0] [--gen 12]
//
// chat (the default): N simulated users hold growing conversations --
// every turn's prompt replays the whole history (system prompt, prior
// turns, prior answers) plus a fresh user message -- watch their tokens
// stream out of per-request callbacks, think for a while after each
// answer, then ask again. The prefix-caching KV pool recognizes each
// conversation's history blocks (and the system prompt shared by every
// user), so follow-up turns skip re-prefilling them; chat always routes
// by prefix affinity, sending a user's next turn back to the card
// holding their history. Every --cancel-every-th turn hangs up
// mid-stream (Cancel after three tokens), exercising the abort path --
// the truncated answer still joins the history, like a real chat log.
// --users, --turns, --think-ms, --cancel-every and --system-tokens shape
// the chat.
//
// rag|agentic|parallel_sampling|long_context: one scenario-zoo trace
// (docs/SCENARIOS.md) streamed with SLO tiers on, reporting per-tier
// finishes, sheds, and goodput. --tier-mix overrides the scenario's
// interactive,standard,best-effort weights; in chat it tags each turn.
//
// steady|burst|rush: open-loop Poisson arrivals, clumps of six, or a
// rush-hour ramp of three Poisson segments at 0.5x / 2x / 4x the base
// rate, offered at --load times the single-stream saturation rate, with
// per-request percentiles and scheduler internals (batch width, KV pool
// pressure, preemptions).
//
// cluster: a bursty trace offered at --load times one card's batched
// saturation rate, with the per-card picture (requests, tokens,
// utilization, preemptions) and cluster-wide percentiles.
//
// edge: a burst of --requests requests 2 ms apart, --gen tokens each,
// served by the unoptimized accelerator and by SpeedLLM, compared on
// time-to-first-token and request latency.
//
// Every traffic honors --cards, --policy, --kv-mib (a per-card KV budget
// in MiB; 0 derives it from HBM), --no-cache and --roles; every one but
// chat honors --placement. --roles splits the cluster into
// prefill/decode specialists (one letter per card: p, d, or u for
// unified) -- prefill shards run first passes and ship the finished KV
// to decode shards over the modeled interconnect. Streams stay
// byte-identical to unified mode; chat and the zoo print a per-role
// table of who did what and what the interconnect carried.
//
// --trace-out enables serving-layer telemetry and dumps the session --
// per-card tick tracks, per-request lanes with cache-hit and hang-up
// marks, DMA spans -- as Chrome Trace Event JSON for ui.perfetto.dev,
// plus tick-sampled metrics JSON next to it (same path +
// ".metrics.json"). edge keeps its SpeedLLM run's.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "compiler/compiler.hpp"
#include "llama/tokenizer.hpp"
#include "serving/scheduler.hpp"
#include "serving/workload.hpp"

using namespace speedllm;

namespace {

// --policy and --placement values in enum order; the first is the
// default.
const std::vector<std::string> kPolicies = {"fcfs", "spf", "decode"};
const std::vector<std::string> kPlacements = {"rr", "least", "bestfit"};

// What every traffic shares: the flags and one compiled model.
struct Setup {
  explicit Setup(const CommandLine& flags) : cl(flags) {}

  const CommandLine& cl;
  std::string scenario;
  std::uint64_t seed = 0;
  std::int32_t requests = 0;
  double load = 0.0;
  bool have_mix = false;
  serving::TierMix mix;
  std::string trace_out;
  llama::ModelConfig model;
  llama::Weights weights;
  hw::U280Config u280;
  accel::Program program;
  // The flags' engine: cards, placement, policy, KV budget, prefix
  // cache, roles, sampler and telemetry.
  api::EngineConfig engine;
};

struct UserStats {
  std::int64_t requests = 0;
  std::int64_t tokens = 0;
  std::int64_t cancelled = 0;
  std::int64_t stopped = 0;
  std::int64_t history_tokens = 0;
  double last_finish_seconds = 0.0;
};

// Parses "--tier-mix i,s,b" (non-negative weights, any scale).
bool ParseTierMix(const std::string& text, serving::TierMix* mix) {
  serving::TierMix parsed;
  if (std::sscanf(text.c_str(), "%lf,%lf,%lf", &parsed.interactive,
                  &parsed.standard, &parsed.best_effort) != 3 ||
      parsed.interactive < 0.0 || parsed.standard < 0.0 ||
      parsed.best_effort < 0.0) {
    return false;
  }
  *mix = parsed;
  return true;
}

// Parses "--roles p,d,..." (one letter per card: p = prefill, d =
// decode, u = unified) into EngineConfig::shard_roles.
bool ParseRoles(const std::string& text,
                std::vector<serving::ShardRole>* roles) {
  roles->clear();
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = text.find(',', start);
    const std::string item =
        comma == std::string::npos ? text.substr(start)
                                   : text.substr(start, comma - start);
    if (item == "p") {
      roles->push_back(serving::ShardRole::kPrefill);
    } else if (item == "d") {
      roles->push_back(serving::ShardRole::kDecode);
    } else if (item == "u") {
      roles->push_back(serving::ShardRole::kUnified);
    } else {
      return false;
    }
    if (comma == std::string::npos) return true;
    start = comma + 1;
  }
}

// The enumerator whose name (in `names`, enum order) `flag` holds.
template <typename Enum>
Enum Choice(const CommandLine& cl, const char* flag,
            const std::vector<std::string>& names) {
  const std::string value = cl.GetString(flag, names.front());
  return static_cast<Enum>(std::find(names.begin(), names.end(), value) -
                           names.begin());
}

// Writes the telemetry trace and its metrics JSON when --trace-out asks.
Status WriteTelemetry(const api::Engine& engine,
                      const std::string& trace_out) {
  if (trace_out.empty()) return Status::Ok();
  SPEEDLLM_RETURN_IF_ERROR(engine.WriteTrace(trace_out));
  return engine.WriteMetricsJson(trace_out + ".metrics.json");
}

// Offline serving: submits the whole trace up front, drains the clock,
// and harvests the merged and per-card report.
StatusOr<serving::ClusterReport> Serve(
    const Setup& s, const accel::Program& program,
    const api::EngineConfig& config,
    const std::vector<serving::ServingRequest>& trace) {
  api::Engine engine(program, s.weights, s.u280, config);
  for (const serving::ServingRequest& request : trace) {
    SPEEDLLM_ASSIGN_OR_RETURN(api::RequestHandle handle,
                              engine.Submit(request));
    (void)handle;
  }
  engine.RunToCompletion();
  SPEEDLLM_ASSIGN_OR_RETURN(serving::ClusterReport report, engine.Finish());
  if (config.telemetry.enabled()) {
    SPEEDLLM_RETURN_IF_ERROR(WriteTelemetry(engine, s.trace_out));
  }
  return report;
}

// Offered-load calibration: the request rate at which `copies`
// simultaneous `prompt_tokens`-token requests of 12 new tokens each
// saturate `config`.
StatusOr<double> SaturationRps(const Setup& s, const api::EngineConfig& config,
                               std::size_t copies, std::int32_t prompt_tokens) {
  serving::ServingRequest probe{{llama::kBosToken}, 12, 0.0, {}};
  for (std::int32_t t = 1; t < prompt_tokens; ++t) {
    probe.prompt.push_back(299 + t);
  }
  const std::vector<serving::ServingRequest> trace(copies, probe);
  SPEEDLLM_ASSIGN_OR_RETURN(serving::ClusterReport report,
                            Serve(s, s.program, config, trace));
  return report.merged.device_tokens_per_second /
         static_cast<double>(prompt_tokens + probe.max_new_tokens);
}

// Per-card/per-role rollup of a disaggregated run: which side of the
// split served which requests, how busy each card stayed, and what the
// interconnect carried on its behalf.
void PrintRoleTable(const std::vector<serving::ShardRole>& roles,
                    const serving::ClusterReport& report) {
  std::printf("\n");
  Table table({"card", "role", "requests", "ticks", "tokens", "util",
               "sent_KB", "recv_KB"});
  for (std::size_t c = 0; c < report.shard_reports.size(); ++c) {
    const serving::ServingReport& s = report.shard_reports[c];
    table.AddRow();
    table.Cell(static_cast<std::int64_t>(c));
    table.Cell(std::string(serving::ShardRoleName(
        c < roles.size() ? roles[c] : serving::ShardRole::kUnified)));
    table.Cell(static_cast<std::int64_t>(s.outcomes.size()));
    table.Cell(s.ticks);
    table.Cell(s.total_tokens);
    table.Cell(report.card_utilization[c], 2);
    table.Cell(static_cast<double>(report.card_transfer_out_bytes[c]) / 1e3,
               1);
    table.Cell(static_cast<double>(report.card_transfer_in_bytes[c]) / 1e3,
               1);
  }
  table.Print();
  std::printf(
      "interconnect: %lld KV handoffs and %lld remote prefix hits "
      "(%lld tokens fetched instead of recomputed), %.2f MB shipped "
      "card-to-card; a request's answer counts for the decode card that "
      "finished it, so prefill shards show requests=0 by design.\n",
      static_cast<long long>(report.kv_handoffs),
      static_cast<long long>(report.remote_prefix_hits),
      static_cast<long long>(report.remote_prefix_hit_tokens),
      static_cast<double>(report.kv_transfer_bytes) / 1e6);
}

// chat: closed-loop multi-turn users chained through stream callbacks.
Status RunChat(const Setup& s) {
  const CommandLine& cl = s.cl;
  SPEEDLLM_ASSIGN_OR_RETURN(const std::int64_t users_flag,
                            cl.GetInt("users", 6));
  SPEEDLLM_ASSIGN_OR_RETURN(const std::int64_t turns_flag,
                            cl.GetInt("turns", 3));
  SPEEDLLM_ASSIGN_OR_RETURN(const double think_ms,
                            cl.GetDouble("think-ms", 30.0));
  // Every cancel_every-th submission hangs up after its third token
  // (0 disables cancellations).
  SPEEDLLM_ASSIGN_OR_RETURN(const std::int64_t cancel_every,
                            cl.GetInt("cancel-every", 5));
  SPEEDLLM_ASSIGN_OR_RETURN(const std::int64_t system_flag,
                            cl.GetInt("system-tokens", 24));
  const auto users = static_cast<std::int32_t>(users_flag);
  const auto turns = static_cast<std::int32_t>(turns_flag);
  const auto system_tokens = static_cast<std::int32_t>(system_flag);

  api::EngineConfig engine_config = s.engine;
  // Follow-up turns chase their conversation's cached history blocks.
  engine_config.placement = serving::PlacementPolicy::kPrefixAffinity;
  // Tagged turns only reorder scheduling under pressure; the transcript
  // stays byte-identical (tiers never change sampling).
  engine_config.scheduler.enable_tiers = s.have_mix;
  api::Engine engine(s.program, s.weights, s.u280, engine_config);
  Rng tier_rng(s.seed + 1);

  serving::MultiTurnConfig chat;
  chat.num_users = users;
  chat.turns_per_user = turns;
  chat.mean_think_seconds = think_ms * 1e-3;
  chat.system_prompt_tokens = system_tokens;
  chat.min_user_tokens = 2;
  chat.max_user_tokens = 5;
  chat.min_new_tokens = 4;
  chat.max_new_tokens = 8;
  chat.vocab_size = s.model.vocab_size;
  serving::MultiTurnChatPool pool(s.seed, chat);

  std::vector<UserStats> stats(static_cast<std::size_t>(users));
  std::int64_t submissions = 0;
  Status rejected;  // the first turn the engine refused, if any

  // Issues one turn for `user`, wiring callbacks that stream its tokens,
  // optionally hang up mid-stream, and chain the user's next turn (the
  // full history plus a fresh message) from on_finish.
  std::function<void(std::int32_t, serving::ServingRequest)> issue =
      [&](std::int32_t user, serving::ServingRequest request) {
        ++submissions;
        if (s.have_mix) request.tier = serving::DrawTier(tier_rng, s.mix);
        const bool hang_up =
            cancel_every > 0 && submissions % cancel_every == 0;
        const auto streamed =
            std::make_shared<std::int32_t>(0);  // tokens seen so far
        api::StreamCallbacks callbacks;
        callbacks.on_token = [&, user, hang_up, streamed](
                                 api::RequestHandle handle, std::int32_t token,
                                 double t) {
          (void)token;
          ++*streamed;
          ++stats[static_cast<std::size_t>(user)].tokens;
          if (hang_up && *streamed == 3) {
            std::printf("[%8.3f ms] user %d hangs up after %d tokens\n",
                        t * 1e3, user, *streamed);
            Status st = engine.Cancel(handle);
            if (!st.ok()) {
              std::fprintf(stderr, "cancel: %s\n", st.ToString().c_str());
            }
          }
        };
        callbacks.on_finish = [&, user](api::RequestHandle,
                                        api::FinishReason reason,
                                        const serving::RequestOutcome& out) {
          UserStats& u = stats[static_cast<std::size_t>(user)];
          ++u.requests;
          u.last_finish_seconds = out.completion_seconds;
          if (reason == api::FinishReason::kCancelled) ++u.cancelled;
          if (reason == api::FinishReason::kStop) ++u.stopped;
          std::printf(
              "[%8.3f ms] user %d turn done: %d history + %zu new tokens, %s "
              "(ttft %.3f ms, e2e %.3f ms)\n",
              out.completion_seconds * 1e3, user, out.prompt_tokens,
              out.generated.size(),
              std::string(serving::FinishReasonName(reason)).c_str(),
              out.time_to_first_token() * 1e3, out.latency() * 1e3);
          // Even a hang-up-truncated answer joins the conversation log;
          // the next turn replays it and rides the cached blocks.
          if (auto next = pool.OnFinish(user, engine.now_seconds(),
                                        out.generated)) {
            issue(user, std::move(*next));
          } else {
            u.history_tokens =
                static_cast<std::int64_t>(pool.history(user).size());
          }
        };
        auto handle = engine.Submit(std::move(request), std::move(callbacks));
        if (!handle.ok() && rejected.ok()) rejected = handle.status();
      };

  std::printf(
      "== %d chat users x %d turns on %d card(s), %d-token shared system "
      "prompt, think ~%.0f ms, prefix cache %s ==\n\n",
      users, turns, s.engine.num_cards, system_tokens, think_ms,
      s.engine.scheduler.enable_prefix_cache ? "ON" : "OFF");
  for (std::int32_t u = 0; u < users; ++u) {
    if (auto first = pool.StartUser(u)) issue(u, std::move(*first));
  }
  engine.RunToCompletion();
  SPEEDLLM_RETURN_IF_ERROR(rejected);
  SPEEDLLM_ASSIGN_OR_RETURN(serving::ClusterReport report, engine.Finish());
  const serving::ServingReport& m = report.merged;

  std::printf("\n");
  Table table({"user", "turns", "tokens", "cancelled", "stopped",
               "history_tok", "last_finish_ms"});
  for (std::int32_t u = 0; u < users; ++u) {
    const UserStats& us = stats[static_cast<std::size_t>(u)];
    table.AddRow();
    table.Cell(static_cast<std::int64_t>(u));
    table.Cell(us.requests);
    table.Cell(us.tokens);
    table.Cell(us.cancelled);
    table.Cell(us.stopped);
    table.Cell(us.history_tokens);
    table.Cell(us.last_finish_seconds * 1e3, 3);
  }
  table.Print();

  std::printf(
      "\nengine: %lld requests (%lld cancelled), %.1f tok/s aggregate "
      "over %.3f s makespan, ttft p99 %.3f ms, e2e p99 %.3f ms\n",
      static_cast<long long>(m.outcomes.size()),
      static_cast<long long>(m.cancelled_requests),
      m.device_tokens_per_second, m.makespan_seconds,
      m.ttft_percentile(0.99) * 1e3, m.latency_percentile(0.99) * 1e3);
  std::printf(
      "prefix cache: %lld/%lld admissions hit, %lld tokens served from "
      "cache (%.0f%% of eligible), %lld COW copies, %lld evictions\n",
      static_cast<long long>(m.prefix_cache_hits),
      static_cast<long long>(m.prefix_cache_queries),
      static_cast<long long>(m.prefix_cache_hit_tokens),
      m.cache_hit_rate() * 100.0,
      static_cast<long long>(m.cow_copies),
      static_cast<long long>(m.cache_evictions));
  std::printf(
      "every turn resubmits the whole conversation, but only the new "
      "user message and answer pay prefill: the history blocks are "
      "already resident, and prefix-affinity placement keeps each "
      "conversation pinned to the card that holds them.\n");
  if (!s.engine.shard_roles.empty()) {
    PrintRoleTable(s.engine.shard_roles, report);
  }
  return WriteTelemetry(engine, s.trace_out);
}

// rag|agentic|parallel_sampling|long_context: a scenario-zoo trace with
// SLO tiers on, reported per tier.
Status RunZoo(const Setup& s) {
  serving::Scenario scenario = serving::Scenario::kRag;
  serving::ScenarioFromName(s.scenario, &scenario);  // a --scenario choice
  Rng rng(s.seed);
  auto trace = serving::ScenarioTrace(rng, scenario);
  if (s.have_mix) serving::ApplyTierMix(rng, s.mix, trace);
  api::EngineConfig engine_config = s.engine;
  engine_config.scheduler.enable_tiers = true;

  std::printf("== scenario %s: %zu requests on %d card(s), tiers on ==\n\n",
              s.scenario.c_str(), trace.size(), s.engine.num_cards);
  SPEEDLLM_ASSIGN_OR_RETURN(serving::ClusterReport report,
                            Serve(s, s.program, engine_config, trace));
  const serving::ServingReport& m = report.merged;

  Table table({"tier", "finished", "shed", "ttft_p99_ms", "goodput_tok_s"});
  for (int t = 0; t < serving::kNumTiers; ++t) {
    const auto tier = static_cast<serving::RequestTier>(t);
    const serving::TierReport& tr = m.tiers[static_cast<std::size_t>(t)];
    table.AddRow();
    table.Cell(std::string(serving::RequestTierName(tier)));
    table.Cell(tr.finished_requests);
    table.Cell(tr.shed_requests);
    table.Cell(m.tier_ttft_percentile(tier, 0.99) * 1e3, 3);
    table.Cell(tr.goodput_tokens_per_second, 1);
  }
  table.Print();
  std::printf(
      "\n%zu requests, %.1f tok/s aggregate (%.1f tok/s goodput) over "
      "%.3f s makespan, cache hit rate %.0f%%\n",
      m.outcomes.size(), m.device_tokens_per_second,
      m.goodput_tokens_per_second, m.makespan_seconds,
      m.cache_hit_rate() * 100.0);
  if (!s.engine.shard_roles.empty()) {
    PrintRoleTable(s.engine.shard_roles, report);
  }
  return Status::Ok();
}

// steady|burst|rush: an open-loop trace offered against the
// single-stream saturation rate, with percentiles and scheduler
// internals.
Status RunLoad(const Setup& s) {
  serving::WorkloadConfig wc;
  wc.num_requests = s.requests;
  wc.min_prompt_tokens = 4;
  wc.max_prompt_tokens = 16;
  wc.min_new_tokens = 6;
  wc.max_new_tokens = 16;
  wc.vocab_size = s.model.vocab_size;
  SPEEDLLM_RETURN_IF_ERROR(serving::ValidateWorkloadConfig(wc));

  // One request on a width-1 scheduler (one token per tick).
  api::EngineConfig width1;
  width1.sampler = s.engine.sampler;
  width1.scheduler.max_batch_seqs = 1;
  width1.scheduler.max_batch_tokens = 1;
  width1.scheduler.enable_prefix_cache = false;
  SPEEDLLM_ASSIGN_OR_RETURN(const double saturation_rps,
                            SaturationRps(s, width1, 1, 4));
  wc.rate_rps = saturation_rps * s.load;

  Rng rng(s.seed);
  std::vector<serving::ServingRequest> reqs;
  if (s.scenario == "steady") {
    reqs = serving::PoissonTrace(rng, wc);
  } else if (s.scenario == "rush") {
    // Three Poisson segments at 0.5x / 2x / 4x the base load, each
    // starting where the last one's arrivals ended; the last segment
    // takes the remainder of --requests.
    const double mults[] = {0.5, 2.0, 4.0};
    double offset = 0.0;
    for (int k = 0; k < 3; ++k) {
      serving::WorkloadConfig segment = wc;
      segment.num_requests =
          k < 2 ? s.requests / 3 : s.requests - 2 * (s.requests / 3);
      segment.rate_rps = wc.rate_rps * mults[k];
      for (serving::ServingRequest& r : serving::PoissonTrace(rng, segment)) {
        r.arrival_seconds += offset;
        reqs.push_back(std::move(r));
      }
      if (segment.num_requests > 0) offset = reqs.back().arrival_seconds;
    }
  } else {
    wc.burst_size = 6;
    reqs = serving::BurstyTrace(rng, wc);
  }
  SPEEDLLM_ASSIGN_OR_RETURN(serving::ClusterReport served,
                            Serve(s, s.program, s.engine, reqs));
  const serving::ServingReport& report = served.merged;

  const std::string policy(serving::BatchPolicyName(s.engine.scheduler.policy));
  std::printf(
      "== %s traffic, %zu requests at %.1fx saturation, policy %s ==\n\n",
      s.scenario.c_str(), reqs.size(), s.load, policy.c_str());
  Table latency({"metric", "mean_ms", "p50_ms", "p95_ms", "p99_ms"});
  latency.AddRow();
  latency.Cell("ttft");
  latency.Cell(report.mean_ttft() * 1e3, 2);
  latency.Cell(report.ttft_percentile(0.50) * 1e3, 2);
  latency.Cell(report.ttft_percentile(0.95) * 1e3, 2);
  latency.Cell(report.ttft_percentile(0.99) * 1e3, 2);
  latency.AddRow();
  latency.Cell("latency");
  latency.Cell(report.mean_latency() * 1e3, 2);
  latency.Cell(report.latency_percentile(0.50) * 1e3, 2);
  latency.Cell(report.latency_percentile(0.95) * 1e3, 2);
  latency.Cell(report.latency_percentile(0.99) * 1e3, 2);
  latency.Print();

  std::printf("\nthroughput : %.1f tok/s over %s makespan\n",
              report.device_tokens_per_second,
              FormatSeconds(report.makespan_seconds).c_str());
  std::printf("scheduler  : %lld ticks, mean batch width %.2f\n",
              static_cast<long long>(report.ticks), report.mean_batch_width);
  std::printf(
      "kv pool    : peak %lld / %lld blocks (%s budget), "
      "%lld preemptions, %lld recomputed tokens\n",
      static_cast<long long>(report.peak_kv_blocks),
      static_cast<long long>(report.kv_block_capacity),
      FormatBytes(report.kv_capacity_bytes).c_str(),
      static_cast<long long>(report.preemptions),
      static_cast<long long>(report.recomputed_tokens));
  return Status::Ok();
}

// cluster: a bursty trace offered against one card's batched saturation
// rate, with the per-card picture.
Status RunCluster(const Setup& s) {
  serving::WorkloadConfig wc;
  wc.num_requests = s.requests;
  wc.min_prompt_tokens = 4;
  wc.max_prompt_tokens = 12;
  wc.min_new_tokens = 6;
  wc.max_new_tokens = 14;
  wc.vocab_size = s.model.vocab_size;
  SPEEDLLM_RETURN_IF_ERROR(serving::ValidateWorkloadConfig(wc));

  api::EngineConfig one_card = s.engine;
  one_card.num_cards = 1;
  one_card.shard_roles.clear();
  one_card.telemetry = {};
  SPEEDLLM_ASSIGN_OR_RETURN(const double saturation_rps,
                            SaturationRps(s, one_card, 8, 8));
  wc.rate_rps = saturation_rps * s.load;
  Rng rng(s.seed);
  const auto trace = serving::BurstyTrace(rng, wc);
  SPEEDLLM_ASSIGN_OR_RETURN(serving::ClusterReport report,
                            Serve(s, s.program, s.engine, trace));

  const std::string placement(serving::PlacementPolicyName(s.engine.placement));
  const std::string policy(serving::BatchPolicyName(s.engine.scheduler.policy));
  std::printf(
      "== %d-card cluster, %s placement, %s batching: %d bursty "
      "requests at %.1fx one-card saturation ==\n\n",
      s.engine.num_cards, placement.c_str(), policy.c_str(), s.requests,
      s.load);

  Table per_card({"card", "requests", "tokens", "tok_per_s", "util",
                  "mean_width", "preempt", "peak_kv_blocks"});
  for (std::size_t c = 0; c < report.shard_reports.size(); ++c) {
    const serving::ServingReport& shard = report.shard_reports[c];
    std::int64_t served = 0;
    for (std::int32_t owner : report.shard_of_request) {
      if (owner == static_cast<std::int32_t>(c)) ++served;
    }
    per_card.AddRow();
    per_card.Cell(static_cast<std::int64_t>(c));
    per_card.Cell(served);
    per_card.Cell(shard.total_tokens);
    per_card.Cell(shard.device_tokens_per_second, 1);
    per_card.Cell(report.card_utilization[c], 2);
    per_card.Cell(shard.mean_batch_width, 2);
    per_card.Cell(shard.preemptions);
    per_card.Cell(shard.peak_kv_blocks);
  }
  per_card.Print();

  const serving::ServingReport& m = report.merged;
  std::printf(
      "\ncluster: %.1f tok/s aggregate over %.3f s makespan, "
      "imbalance %.2f, mean utilization %.2f, %lld rebalanced, "
      "%lld preemptions\n",
      m.device_tokens_per_second, m.makespan_seconds, report.imbalance(),
      report.mean_utilization(),
      static_cast<long long>(report.rebalanced_requests),
      static_cast<long long>(m.preemptions));
  std::printf(
      "latency: ttft p50/p95/p99 = %.2f/%.2f/%.2f ms, "
      "tpot p50/p99 = %.3f/%.3f ms, e2e p99 = %.2f ms\n",
      m.ttft_percentile(0.50) * 1e3, m.ttft_percentile(0.95) * 1e3,
      m.ttft_percentile(0.99) * 1e3, m.tpot_percentile(0.50) * 1e3,
      m.tpot_percentile(0.99) * 1e3, m.latency_percentile(0.99) * 1e3);
  return Status::Ok();
}

// edge: one burst served by the unoptimized accelerator and by
// SpeedLLM.
Status RunEdge(const Setup& s) {
  SPEEDLLM_ASSIGN_OR_RETURN(const std::int64_t gen_flag,
                            s.cl.GetInt("gen", 12));
  const auto gen = static_cast<std::int32_t>(gen_flag);
  // Requests arrive 2 ms apart with small varied prompts.
  Rng rng(s.seed);
  std::vector<serving::ServingRequest> burst;
  for (std::int32_t i = 0; i < s.requests; ++i) {
    const auto len = 4 + static_cast<std::int32_t>(rng.NextBounded(8));
    serving::ServingRequest req;
    req.prompt = serving::DrawPrompt(rng, len, s.model.vocab_size);
    req.max_new_tokens = gen;
    req.arrival_seconds = i * 2e-3;
    burst.push_back(std::move(req));
  }

  std::printf("== edge serving: %d concurrent requests, %d tokens each ==\n\n",
              s.requests, gen);
  Table table({"variant", "makespan_ms", "device_tok_per_s", "mean_ttft_ms",
               "mean_latency_ms", "worst_latency_ms"});
  for (const compiler::CompilerOptions& v :
       {compiler::CompilerOptions::Unoptimized(),
        compiler::CompilerOptions::SpeedLLM()}) {
    SPEEDLLM_ASSIGN_OR_RETURN(compiler::CompileResult compiled,
                              compiler::Compile(s.model, v, s.u280));
    SPEEDLLM_ASSIGN_OR_RETURN(serving::ClusterReport cluster,
                              Serve(s, compiled.program, s.engine, burst));
    const serving::ServingReport& report = cluster.merged;
    table.AddRow();
    table.Cell(v.name);
    table.Cell(report.makespan_seconds * 1e3, 2);
    table.Cell(report.device_tokens_per_second, 1);
    table.Cell(report.mean_ttft() * 1e3, 2);
    table.Cell(report.mean_latency() * 1e3, 2);
    table.Cell(report.latency_percentile(0.99) * 1e3, 2);
  }
  table.Print();
  std::printf(
      "\nUnder concurrency every per-token cycle saved compounds: the "
      "SpeedLLM variant improves tail latency by roughly its single-stream "
      "speedup.\n");
  return Status::Ok();
}

struct Traffic {
  const char* name;
  Status (*run)(const Setup&);
};

// --scenario values; the first is the default.
constexpr Traffic kTraffics[] = {
    {"chat", RunChat},        {"rag", RunZoo},
    {"agentic", RunZoo},      {"parallel_sampling", RunZoo},
    {"long_context", RunZoo}, {"steady", RunLoad},
    {"burst", RunLoad},       {"rush", RunLoad},
    {"cluster", RunCluster},  {"edge", RunEdge}};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> scenarios;
  for (const Traffic& t : kTraffics) scenarios.push_back(t.name);
  auto cl_or = CommandLine::Parse(
      argc, argv,
      {"scenario", "preset", "cards", "seed", "policy", "placement", "kv-mib",
       "no-cache", "roles", "trace-out", "tier-mix", "users", "turns",
       "think-ms", "cancel-every", "system-tokens", "requests", "load",
       "gen"},
      {{"scenario", scenarios}, {"policy", kPolicies},
       {"placement", kPlacements}});
  if (!cl_or.ok()) {
    std::fprintf(stderr, "%s\n", cl_or.status().ToString().c_str());
    return 1;
  }
  const CommandLine& cl = cl_or.value();
  Setup s(cl);
  s.scenario = cl.GetString("scenario", scenarios.front());
  const StatusOr<std::int64_t> cards = cl.GetInt("cards", 2);
  const StatusOr<std::int64_t> seed = cl.GetInt("seed", 17);
  const StatusOr<std::int64_t> requests = cl.GetInt("requests", 24);
  const StatusOr<double> load = cl.GetDouble("load", 2.0);
  const StatusOr<std::int64_t> kv_mib = cl.GetInt("kv-mib", 0);
  const StatusOr<std::int64_t> no_cache = cl.GetInt("no-cache", 0);
  for (const Status& st : {cards.status(), seed.status(), requests.status(),
                           load.status(), kv_mib.status(),
                           no_cache.status()}) {
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  s.engine.num_cards = static_cast<int>(*cards);
  s.seed = static_cast<std::uint64_t>(*seed);
  s.requests = static_cast<std::int32_t>(*requests);
  s.load = *load;
  s.trace_out = cl.GetString("trace-out", "");
  const std::string tier_mix = cl.GetString("tier-mix", "");
  s.have_mix = !tier_mix.empty();
  if (s.have_mix && !ParseTierMix(tier_mix, &s.mix)) {
    std::fprintf(stderr,
                 "bad --tier-mix %s (want three non-negative weights, "
                 "e.g. 0.3,0.5,0.2)\n",
                 tier_mix.c_str());
    return 1;
  }
  const std::string roles = cl.GetString("roles", "");
  if (!roles.empty()) {
    if (!ParseRoles(roles, &s.engine.shard_roles)) {
      std::fprintf(stderr,
                   "bad --roles %s (want one letter per card: p = prefill, "
                   "d = decode, u = unified, e.g. p,d)\n",
                   roles.c_str());
      return 1;
    }
    const std::size_t named = s.engine.shard_roles.size();
    if (named != static_cast<std::size_t>(s.engine.num_cards)) {
      std::fprintf(stderr, "--roles names %zu card(s) but --cards is %d\n",
                   named, s.engine.num_cards);
      return 1;
    }
  }

  auto preset = llama::ModelConfig::FromName(cl.GetString("preset", "tiny"));
  if (!preset.ok()) {
    std::fprintf(stderr, "%s\n", preset.status().ToString().c_str());
    return 1;
  }
  s.model = *preset;
  s.weights = llama::GenerateSyntheticWeights(s.model, 42);
  s.u280 = hw::U280Config::Default();
  auto compiled =
      compiler::Compile(s.model, compiler::CompilerOptions::SpeedLLM(), s.u280);
  if (!compiled.ok()) {
    std::fprintf(stderr, "%s\n", compiled.status().ToString().c_str());
    return 1;
  }
  s.program = std::move(compiled->program);

  s.engine.placement =
      Choice<serving::PlacementPolicy>(cl, "placement", kPlacements);
  s.engine.scheduler.policy =
      Choice<serving::BatchPolicy>(cl, "policy", kPolicies);
  s.engine.scheduler.kv_pool_bytes = static_cast<std::uint64_t>(*kv_mib) << 20;
  s.engine.scheduler.enable_prefix_cache = *no_cache == 0;
  s.engine.sampler.temperature = 0.8f;
  s.engine.sampler.seed = 99;
  s.engine.telemetry.enable_tracing = !s.trace_out.empty();
  s.engine.telemetry.enable_metrics = !s.trace_out.empty();

  for (const Traffic& t : kTraffics) {
    if (s.scenario != t.name) continue;
    if (Status st = t.run(s); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  if (!s.trace_out.empty()) {
    std::printf(
        "\nwrote lifecycle trace to %s (open in ui.perfetto.dev) and "
        "metrics to %s.metrics.json\n",
        s.trace_out.c_str(), s.trace_out.c_str());
  }
  return 0;
}

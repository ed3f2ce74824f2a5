// SpeedLLM example: multi-turn streaming chat clients on the online API.
//
// Drives speedllm::api::Engine the way a chat frontend would: N simulated
// users hold growing conversations -- every turn's prompt replays the
// whole history (system prompt, prior turns, prior answers) plus a fresh
// user message -- watch their tokens stream out of per-request callbacks,
// think for a while after each answer, then ask again. The prefix-caching
// KV pool recognizes each conversation's history blocks (and the system
// prompt shared by every user), so follow-up turns skip re-prefilling
// them; kPrefixAffinity placement routes a user's next turn back to the
// card holding their history. A configurable fraction of turns hang up
// mid-stream (Cancel after a few tokens), exercising the abort path --
// the truncated answer still joins the history, like a real chat log.
// Everything runs on the shared simulated clock, so the same flags always
// print the same transcript.
//
//   ./examples/chat_clients [--users 6] [--turns 3] [--cards 2]
//                           [--think-ms 30] [--cancel-every 5]
//                           [--system-tokens 24] [--no-cache 0]
//                           [--preset tiny] [--seed 17]
//                           [--trace-out trace.json]
//                           [--scenario rag|agentic|parallel_sampling|
//                                       long_context]
//                           [--tier-mix 0.3,0.5,0.2]
//                           [--roles p,d,...]
//
// --trace-out enables serving-layer telemetry and dumps the whole
// session -- per-card tick tracks, per-request lanes with cache-hit and
// hang-up marks, DMA spans -- as Chrome Trace Event JSON for
// ui.perfetto.dev, plus tick-sampled metrics JSON next to it
// (same path + ".metrics.json").
//
// --scenario swaps the multi-turn chat pool for one of the scenario-zoo
// traces (docs/SCENARIOS.md) and streams it through the same engine with
// SLO tiers enabled, reporting per-tier finishes, sheds, and goodput.
// --tier-mix overrides the scenario's default interactive,standard,
// best-effort weights (it also works in chat mode, tagging each turn).
//
// --roles splits the cluster into prefill/decode specialists (one
// letter per card: p, d, or u for unified) -- prefill shards run first
// passes and ship the finished KV to decode shards over the modeled
// interconnect. Transcripts stay byte-identical to unified mode; the
// per-role table at the end shows who did what and what the
// interconnect carried.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "compiler/compiler.hpp"
#include "serving/scheduler.hpp"
#include "serving/workload.hpp"

using namespace speedllm;

namespace {

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

// --scenario mode: streams a scenario-zoo trace through the online
// engine with SLO tiers on and prints the per-tier outcome.
int RunScenario(const accel::Program& program, const llama::Weights& weights,
                const hw::U280Config& u280, int cards, const std::string& name,
                bool have_mix, const serving::TierMix& mix,
                const std::vector<serving::ShardRole>& roles,
                std::uint64_t seed, const std::string& trace_out) {
  serving::Scenario scenario;
  if (!serving::ScenarioFromName(name, &scenario)) {
    std::fprintf(stderr,
                 "unknown --scenario %s (want rag, agentic, "
                 "parallel_sampling, or long_context)\n",
                 name.c_str());
    return 1;
  }
  Rng rng(seed);
  auto trace = serving::ScenarioTrace(rng, scenario);
  if (have_mix) serving::ApplyTierMix(rng, mix, trace);

  api::EngineConfig engine_config;
  engine_config.num_cards = cards;
  engine_config.scheduler.enable_prefix_cache = true;  // zoo traces share
  engine_config.scheduler.enable_tiers = true;
  engine_config.sampler.temperature = 0.8f;
  engine_config.sampler.seed = 99;
  engine_config.shard_roles = roles;
  if (!trace_out.empty()) {
    engine_config.telemetry.enable_tracing = true;
    engine_config.telemetry.enable_metrics = true;
  }
  api::Engine engine(program, weights, u280, engine_config);

  std::printf("== scenario %s: %zu requests on %d card(s), tiers on ==\n\n",
              name.c_str(), trace.size(), cards);
  for (serving::ServingRequest& request : trace) {
    api::StreamCallbacks callbacks;
    auto handle = engine.Submit(std::move(request), std::move(callbacks));
    if (!handle.ok()) {
      std::fprintf(stderr, "submit: %s\n", handle.status().ToString().c_str());
    }
  }
  engine.RunToCompletion();
  auto report_or = engine.Finish();
  if (!report_or.ok()) {
    std::fprintf(stderr, "%s\n", report_or.status().ToString().c_str());
    return 1;
  }
  const serving::ServingReport& m = report_or->merged;

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
  if (!roles.empty()) PrintRoleTable(roles, *report_or);

  if (!trace_out.empty()) {
    if (Status st = engine.WriteTrace(trace_out); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    const std::string metrics_out = trace_out + ".metrics.json";
    if (Status st = engine.WriteMetricsJson(metrics_out); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote trace to %s and metrics to %s\n", trace_out.c_str(),
                metrics_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto cl_or = CommandLine::Parse(
      argc, argv,
      {"users", "turns", "cards", "think-ms", "cancel-every", "system-tokens",
       "no-cache", "preset", "seed", "trace-out", "scenario", "tier-mix",
       "roles"});
  if (!cl_or.ok()) {
    std::fprintf(stderr, "%s\n", cl_or.status().ToString().c_str());
    return 1;
  }
  const CommandLine& cl = cl_or.value();
  const std::int32_t users = static_cast<std::int32_t>(cl.GetInt("users", 6));
  const std::int32_t turns = static_cast<std::int32_t>(cl.GetInt("turns", 3));
  const int cards = static_cast<int>(cl.GetInt("cards", 2));
  const double think_ms = cl.GetDouble("think-ms", 30.0);
  // Every cancel_every-th submission hangs up after its third token
  // (0 disables cancellations).
  const std::int64_t cancel_every = cl.GetInt("cancel-every", 5);
  const std::int32_t system_tokens =
      static_cast<std::int32_t>(cl.GetInt("system-tokens", 24));
  const bool no_cache = cl.GetInt("no-cache", 0) != 0;
  const std::uint64_t seed = static_cast<std::uint64_t>(cl.GetInt("seed", 17));
  const std::string trace_out = cl.GetString("trace-out", "");
  const std::string scenario = cl.GetString("scenario", "");
  const std::string tier_mix_flag = cl.GetString("tier-mix", "");
  serving::TierMix tier_mix;
  if (!tier_mix_flag.empty() && !ParseTierMix(tier_mix_flag, &tier_mix)) {
    std::fprintf(stderr,
                 "bad --tier-mix %s (want three non-negative weights, "
                 "e.g. 0.3,0.5,0.2)\n",
                 tier_mix_flag.c_str());
    return 1;
  }
  const std::string roles_flag = cl.GetString("roles", "");
  std::vector<serving::ShardRole> roles;
  if (!roles_flag.empty()) {
    if (!ParseRoles(roles_flag, &roles)) {
      std::fprintf(stderr,
                   "bad --roles %s (want one letter per card: p = prefill, "
                   "d = decode, u = unified, e.g. p,d)\n",
                   roles_flag.c_str());
      return 1;
    }
    if (roles.size() != static_cast<std::size_t>(cards)) {
      std::fprintf(stderr,
                   "--roles names %zu card(s) but --cards is %d\n",
                   roles.size(), cards);
      return 1;
    }
  }

  auto preset = llama::ModelConfig::FromName(cl.GetString("preset", "tiny"));
  if (!preset.ok()) {
    std::fprintf(stderr, "%s\n", preset.status().ToString().c_str());
    return 1;
  }
  llama::ModelConfig model = *preset;
  llama::Weights weights = llama::GenerateSyntheticWeights(model, 42);
  auto u280 = hw::U280Config::Default();
  auto compiled =
      compiler::Compile(model, compiler::CompilerOptions::SpeedLLM(), u280);
  if (!compiled.ok()) {
    std::fprintf(stderr, "%s\n", compiled.status().ToString().c_str());
    return 1;
  }

  if (!scenario.empty()) {
    return RunScenario(compiled->program, weights, u280, cards, scenario,
                       !tier_mix_flag.empty(), tier_mix, roles, seed,
                       trace_out);
  }

  api::EngineConfig engine_config;
  engine_config.num_cards = cards;
  // Follow-up turns chase their conversation's cached history blocks.
  engine_config.placement = serving::PlacementPolicy::kPrefixAffinity;
  engine_config.scheduler.enable_prefix_cache = !no_cache;
  engine_config.shard_roles = roles;
  engine_config.sampler.temperature = 0.8f;
  engine_config.sampler.seed = 99;
  // Tagged turns only reorder scheduling under pressure; the transcript
  // stays byte-identical (tiers never change sampling).
  if (!tier_mix_flag.empty()) engine_config.scheduler.enable_tiers = true;
  if (!trace_out.empty()) {
    engine_config.telemetry.enable_tracing = true;
    engine_config.telemetry.enable_metrics = true;
  }
  api::Engine engine(compiled->program, weights, u280, engine_config);
  Rng tier_rng(seed + 1);

  serving::MultiTurnConfig chat;
  chat.num_users = users;
  chat.turns_per_user = turns;
  chat.mean_think_seconds = think_ms * 1e-3;
  chat.system_prompt_tokens = system_tokens;
  chat.min_user_tokens = 2;
  chat.max_user_tokens = 5;
  chat.min_new_tokens = 4;
  chat.max_new_tokens = 8;
  chat.vocab_size = model.vocab_size;
  serving::MultiTurnChatPool pool(seed, chat);

  std::vector<UserStats> stats(static_cast<std::size_t>(users));
  std::int64_t submissions = 0;

  // Issues one turn for `user`, wiring callbacks that stream its tokens,
  // optionally hang up mid-stream, and chain the user's next turn (the
  // full history plus a fresh message) from on_finish.
  std::function<void(std::int32_t, serving::ServingRequest)> issue =
      [&](std::int32_t user, serving::ServingRequest request) {
        ++submissions;
        if (!tier_mix_flag.empty()) {
          request.tier = serving::DrawTier(tier_rng, tier_mix);
        }
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
        if (!handle.ok()) {
          std::fprintf(stderr, "submit: %s\n",
                       handle.status().ToString().c_str());
        }
      };

  std::printf(
      "== %d chat users x %d turns on %d card(s), %d-token shared system "
      "prompt, think ~%.0f ms, prefix cache %s ==\n\n",
      users, turns, cards, system_tokens, think_ms, no_cache ? "OFF" : "ON");
  for (std::int32_t u = 0; u < users; ++u) {
    if (auto first = pool.StartUser(u)) issue(u, std::move(*first));
  }
  engine.RunToCompletion();

  auto report_or = engine.Finish();
  if (!report_or.ok()) {
    std::fprintf(stderr, "%s\n", report_or.status().ToString().c_str());
    return 1;
  }
  const serving::ClusterReport& report = *report_or;
  const serving::ServingReport& m = report.merged;

  std::printf("\n");
  Table table({"user", "turns", "tokens", "cancelled", "stopped",
               "history_tok", "last_finish_ms"});
  for (std::int32_t u = 0; u < users; ++u) {
    const UserStats& s = stats[static_cast<std::size_t>(u)];
    table.AddRow();
    table.Cell(static_cast<std::int64_t>(u));
    table.Cell(s.requests);
    table.Cell(s.tokens);
    table.Cell(s.cancelled);
    table.Cell(s.stopped);
    table.Cell(s.history_tokens);
    table.Cell(s.last_finish_seconds * 1e3, 3);
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
  if (!roles.empty()) PrintRoleTable(roles, report);

  if (!trace_out.empty()) {
    if (Status st = engine.WriteTrace(trace_out); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    const std::string metrics_out = trace_out + ".metrics.json";
    if (Status st = engine.WriteMetricsJson(metrics_out); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf(
        "\nwrote lifecycle trace to %s (open in ui.perfetto.dev) and "
        "metrics to %s\n",
        trace_out.c_str(), metrics_out.c_str());
  }
  return 0;
}

// Shared test helpers: the seeded-harness replay banner, the
// request/trace builders the serving tests share, offline serving
// through api::Engine, an independent per-request stream oracle that
// shares no scheduling or KV-pool code with the serving stack, K/V row
// copies in and out of a sequence's pages, and the gtest printer for
// CompilerOptions parameters.
//
// The one rule every seeded suite follows: a failure must print the RNG
// seed that produced it, so the exact failing run can be replayed by
// pasting the seed back into the harness. SPEEDLLM_SEED_TRACE is a
// SCOPED_TRACE wrapper -- any gtest assertion that fires inside the
// enclosing scope automatically carries the harness name and seed in its
// failure message, with zero cost on the passing path.
#ifndef SPEEDLLM_TESTS_TEST_UTIL_HPP_
#define SPEEDLLM_TESTS_TEST_UTIL_HPP_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "accel/executor.hpp"
#include "accel/kv_pages.hpp"
#include "api/engine.hpp"
#include "compiler/options.hpp"
#include "llama/tokenizer.hpp"
#include "serving/shard.hpp"
#include "serving/workload.hpp"

namespace speedllm::testutil {

/// The canonical replay banner for a seeded harness failure. Keep the
/// format stable ("<harness> seed=<n>"): people grep CI logs for it.
inline std::string SeedMessage(const char* harness, std::uint64_t seed) {
  return std::string(harness) + " seed=" + std::to_string(seed) +
         " -- replay by running this harness with this seed";
}

/// Runs `copy(paged, at)` for every (layer, K|V) plane of every token in
/// [begin, end) of `pages`: `paged` is the plane's row inside its block,
/// `at` the offset of the matching kv_dim floats in token-major rows
/// (each token's row_floats() elements ordered [layer][K|V][kv_dim]).
template <typename Copy>
void ForEachKvPlane(const accel::KvPages& pages, std::int64_t begin,
                    std::int64_t end, Copy copy) {
  const accel::KvBlockLayout& l = pages.layout;
  for (std::int64_t pos = begin; pos < end; ++pos) {
    float* blk = pages.block(static_cast<std::size_t>(pos / l.block_tokens));
    for (std::int64_t plane = 0; plane < 2 * l.n_layers; ++plane) {
      copy(blk + l.Offset(plane / 2, plane % 2, pos % l.block_tokens),
           (pos - begin) * l.row_floats() + plane * l.kv_dim);
    }
  }
}

/// Copies token positions [begin, end) of `pages` into token-major `rows`.
inline void GatherKvRows(const accel::KvPages& pages, std::int64_t begin,
                         std::int64_t end, float* rows) {
  const std::size_t bytes =
      static_cast<std::size_t>(pages.layout.kv_dim) * sizeof(float);
  ForEachKvPlane(pages, begin, end, [&](float* paged, std::int64_t at) {
    std::memcpy(rows + at, paged, bytes);
  });
}

/// Writes token-major `rows` into token positions [begin, end) of `pages`.
inline void ScatterKvRows(const accel::KvPages& pages, std::int64_t begin,
                          std::int64_t end, const float* rows) {
  const std::size_t bytes =
      static_cast<std::size_t>(pages.layout.kv_dim) * sizeof(float);
  ForEachKvPlane(pages, begin, end, [&](float* paged, std::int64_t at) {
    std::memcpy(paged, rows + at, bytes);
  });
}

/// A `prompt_len`-token request (BOS + deterministic filler varied by
/// `salt`) generating `gen` tokens, arriving at `arrival` seconds.
inline serving::ServingRequest MakeRequest(std::int32_t prompt_len,
                                           std::int32_t gen, double arrival,
                                           std::int32_t salt = 0) {
  serving::ServingRequest req;
  req.prompt.push_back(llama::kBosToken);
  for (std::int32_t t = 1; t < prompt_len; ++t) {
    req.prompt.push_back(3 + (salt * 31 + t * 7) % 500);
  }
  req.max_new_tokens = gen;
  req.arrival_seconds = arrival;
  return req;
}

/// Open-loop trace where most prompts open with one of two shared
/// 24-token system prompts (block size 8 in the tests, so shared full
/// blocks genuinely exist within Tiny's 64-token context).
inline std::vector<serving::ServingRequest> SharedTrace(
    const llama::ModelConfig& config, int n) {
  Rng rng(555);
  serving::SharedPrefixConfig spc;
  spc.num_requests = n;
  spc.rate_rps = 2000.0;
  spc.shared_fraction = 0.75;
  spc.num_prefixes = 2;
  spc.prefix_tokens = 24;
  spc.min_suffix_tokens = 2;
  spc.max_suffix_tokens = 6;
  spc.min_new_tokens = 4;
  spc.max_new_tokens = 8;
  spc.vocab_size = config.vocab_size;
  return serving::SharedPrefixTrace(rng, spc);
}

/// Greedy (temperature 0) sampling.
inline llama::SamplerConfig Greedy() {
  llama::SamplerConfig sc;
  sc.temperature = 0.0f;
  return sc;
}

/// Engine config for `num_cards` cards running `scheduler` with default
/// sampling parameters `sampler`.
inline api::EngineConfig MakeEngineConfig(
    const serving::SchedulerConfig& scheduler,
    const llama::SamplerConfig& sampler, int num_cards = 1) {
  api::EngineConfig config;
  config.num_cards = num_cards;
  config.scheduler = scheduler;
  config.sampler = sampler;
  return config;
}

/// `num_cards` copies of `u280` joined by a fast link (unbounded
/// bandwidth, no latency): fetching a remote card's cached prefix beats
/// recomputing it, so admission-time arbitration takes the fetch branch.
inline hw::MultiCardConfig FastLinkCards(const hw::U280Config& u280,
                                         int num_cards) {
  hw::MultiCardConfig cards = hw::MultiCardConfig::Homogeneous(u280, num_cards);
  cards.interconnect.link_bytes_per_cycle = 1u << 30;
  cards.interconnect.link_latency_cycles = 0;
  return cards;
}

/// `num_cards` copies of `u280` joined by a slow link (1 B/cycle, ~30 ms
/// at 300 MHz): recomputing a prefix always beats fetching it, so
/// admission-time arbitration logs only recompute decisions.
inline hw::MultiCardConfig SlowLinkCards(const hw::U280Config& u280,
                                         int num_cards) {
  hw::MultiCardConfig cards = hw::MultiCardConfig::Homogeneous(u280, num_cards);
  cards.interconnect.link_bytes_per_cycle = 1;
  cards.interconnect.link_latency_cycles = 10'000'000;
  return cards;
}

/// One copy of `u280` per entry of `pool_bytes`, each with just enough
/// HBM for `program`'s resident reserve plus that entry. With
/// SchedulerConfig::kv_pool_bytes at or above every entry, each card's
/// KV pool is exactly its entry (a card's KV budget caps the override).
inline hw::MultiCardConfig CardsWithHbm(
    const hw::U280Config& u280, const accel::Program& program,
    const std::vector<std::uint64_t>& pool_bytes) {
  hw::MultiCardConfig cards;
  for (std::uint64_t bytes : pool_bytes) {
    cards.cards.push_back(u280);
    cards.cards.back().hbm.capacity_bytes =
        serving::ResidentHbmReserveBytes(program) + bytes;
  }
  return cards;
}

/// Submits every request to `engine` in order, drains the clock, and
/// returns the harvested report (or the first rejected Submit's status).
/// The engine stays inspectable afterwards (telemetry, KV pool counters).
inline StatusOr<serving::ClusterReport> ServeTrace(
    api::Engine& engine,
    const std::vector<serving::ServingRequest>& requests) {
  for (const serving::ServingRequest& request : requests) {
    SPEEDLLM_ASSIGN_OR_RETURN(api::RequestHandle handle,
                              engine.Submit(request));
    (void)handle;
  }
  engine.RunToCompletion();
  return engine.Finish();
}

/// Generated tokens of every request, computed one request at a time on
/// one standalone executor (one Forward(token, pos) per token) with a
/// sampler seeded `sampler.seed + i * 7919` for request i. A sampled
/// stop token (the request's stop set or the sampler's EOS) ends the
/// stream without being committed. A nonzero `int8_block_tokens` gives
/// the streams of an int8 KV cache with blocks of that many tokens:
/// serving::PerturbLogitsForQuant runs on every row before it is sampled.
inline StatusOr<std::vector<std::vector<std::int32_t>>> ReferenceStreams(
    const accel::Program& program, const llama::Weights& weights,
    const hw::U280Config& u280,
    const std::vector<serving::ServingRequest>& requests,
    const llama::SamplerConfig& sampler, std::uint32_t int8_block_tokens = 0) {
  accel::Executor exec(program, weights, u280);
  std::vector<std::vector<std::int32_t>> streams(requests.size());
  std::vector<float> logits;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    llama::SamplerConfig config = sampler;
    config.seed = sampler.seed + i * 7919;
    llama::Sampler sample(config);
    exec.ResetSequence();
    std::int32_t pos = 0;
    auto forward = [&](std::int32_t token) -> Status {
      SPEEDLLM_ASSIGN_OR_RETURN(std::span<const float> out,
                                exec.Forward(token, pos++));
      logits.assign(out.begin(), out.end());
      return Status::Ok();
    };
    for (std::int32_t token : requests[i].prompt) {
      SPEEDLLM_RETURN_IF_ERROR(forward(token));
    }
    std::vector<std::int32_t>& generated = streams[i];
    while (static_cast<std::int32_t>(generated.size()) <
           requests[i].max_new_tokens) {
      if (int8_block_tokens > 0) {
        serving::PerturbLogitsForQuant(i, static_cast<std::size_t>(pos),
                                       int8_block_tokens, logits);
      }
      const std::int32_t next = sample.Sample(logits);
      if (serving::IsStopToken(requests[i], sampler.eos_token, next)) break;
      generated.push_back(next);
      SPEEDLLM_RETURN_IF_ERROR(forward(next));
    }
  }
  return streams;
}

}  // namespace speedllm::testutil

namespace speedllm::compiler {
/// Names a preset by CompilerOptions::name in gtest output (suites
/// parameterized over the paper's variants).
inline void PrintTo(const CompilerOptions& options, std::ostream* os) {
  *os << options.name;
}
}  // namespace speedllm::compiler

/// Marks the current scope with the harness name and RNG seed: every
/// assertion failure inside it prints the seed needed to replay the run.
#define SPEEDLLM_SEED_TRACE(harness, seed) \
  SCOPED_TRACE(::speedllm::testutil::SeedMessage(harness, seed))

#endif  // SPEEDLLM_TESTS_TEST_UTIL_HPP_

// Int8-quantized KV blocks (PR 5): residency doubling at equal HBM,
// dtype-aware geometry/hash seeds, the deterministic quantization
// accuracy proxy, and simulated DMA costing of copy-on-write /
// cache-restore / preemption swap. The load-bearing invariants:
//
//  * an int8 pool admits >= 1.8x the resident sequences of an fp16 pool
//    carved from the same HBM budget;
//  * greedy token streams are byte-identical fp16 vs int8 (the
//    perturbation proxy sits far below greedy argmax gaps);
//  * DMA byte counters and simulated DMA time are nonzero on
//    preemption/COW-heavy runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "compiler/compiler.hpp"
#include "llama/tokenizer.hpp"
#include "serving/kv_pool.hpp"
#include "serving/scheduler.hpp"
#include "serving/workload.hpp"
#include "test_util.hpp"

namespace speedllm::serving {
namespace {

using testutil::MakeRequest;
using testutil::Greedy;

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

/// Sequences of `seq_tokens` tokens a pool carved as `dtype` from
/// `hbm_bytes` admits before running dry (prefix caching off, so every
/// sequence pays its full private footprint).
std::int64_t ResidentsAtEqualHbm(const llama::ModelConfig& model,
                                 KvCacheDtype dtype, std::uint64_t hbm_bytes,
                                 std::int64_t seq_tokens) {
  KvBlockPool pool(MakeKvPoolConfig(model, dtype, hbm_bytes,
                                    /*block_size_tokens=*/16,
                                    /*enable_prefix_cache=*/false));
  std::int64_t residents = 0;
  for (std::uint64_t seq = 0;; ++seq) {
    if (!pool.CanReserve(seq_tokens)) break;
    EXPECT_TRUE(pool.Register(seq).ok());
    for (std::int64_t t = 0; t < seq_tokens; ++t) {
      EXPECT_TRUE(pool.Append(seq, static_cast<std::int32_t>(t % 97)).ok());
    }
    ++residents;
  }
  EXPECT_LE(pool.bytes_in_use(), pool.capacity_bytes());
  return residents;
}

TEST(KvQuantTest, Int8PoolAdmitsAtLeast1p8xResidentsAtEqualHbm) {
  const auto model = llama::ModelConfig::Tiny();
  const std::uint64_t hbm_bytes = 1ull << 20;  // 1 MiB of KV budget
  const std::int64_t seq_tokens = 48;          // 3 blocks of 16
  const std::int64_t fp16 =
      ResidentsAtEqualHbm(model, KvCacheDtype::kFp16, hbm_bytes, seq_tokens);
  const std::int64_t int8 =
      ResidentsAtEqualHbm(model, KvCacheDtype::kInt8, hbm_bytes, seq_tokens);
  ASSERT_GT(fp16, 0);
  EXPECT_GE(static_cast<double>(int8), 1.8 * static_cast<double>(fp16))
      << "int8 " << int8 << " residents vs fp16 " << fp16;
}

TEST(KvQuantTest, BlockGeometryFollowsDtype) {
  const auto model = llama::ModelConfig::Tiny();
  const KvPoolConfig fp16 =
      MakeKvPoolConfig(model, KvCacheDtype::kFp16, 1u << 20, 16, true);
  const KvPoolConfig int8 =
      MakeKvPoolConfig(model, KvCacheDtype::kInt8, 1u << 20, 16, true);
  EXPECT_EQ(fp16.bytes_per_token, 2 * int8.bytes_per_token);
  EXPECT_EQ(fp16.quant_metadata_bytes, 0u);
  EXPECT_GT(int8.quant_metadata_bytes, 0u);
  // Metadata is amortized per block: an int8 block stays well under
  // 60% of the fp16 block's bytes (it would be exactly 50% metadata-free).
  EXPECT_LT(static_cast<double>(int8.block_bytes()),
            0.6 * static_cast<double>(fp16.block_bytes()));
  // The pool's byte/block conversion factor is the block size.
  KvBlockPool pool(int8);
  EXPECT_EQ(pool.bytes_per_block(), int8.block_bytes());
}

TEST(KvQuantTest, GreedyStreamsIdenticalAcrossDtypesAndDmaCosting) {
  Fixture f;
  auto prog = f.Compile();
  // Tight pool + decode pressure: preemptions, COW, and cache restores
  // all fire, so the timing-only knobs get real coverage.
  SchedulerConfig base;
  base.block_size_tokens = 4;
  base.kv_pool_bytes = 10ull * 4 * KvBytesPerToken(f.config);
  base.max_batch_seqs = 4;
  base.max_batch_tokens = 32;
  std::vector<ServingRequest> reqs = {MakeRequest(8, 12, 0.0, 0),
                                      MakeRequest(8, 12, 0.0, 1),
                                      MakeRequest(8, 12, 0.0, 0),
                                      MakeRequest(8, 12, 0.0, 2)};

  auto run = [&](KvCacheDtype dtype) {
    SchedulerConfig config = base;
    config.kv_cache_dtype = dtype;
    api::Engine engine(prog, f.weights, f.u280,
                       testutil::MakeEngineConfig(config, Greedy()));
    auto report = testutil::ServeTrace(engine, reqs);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(report->merged);
  };

  const ServingReport fp16 = run(KvCacheDtype::kFp16);
  const ServingReport int8 = run(KvCacheDtype::kInt8);

  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(fp16.outcomes[i].generated, int8.outcomes[i].generated)
        << "request " << i << " diverged under int8 quantization";
  }
  // The duplicate prompt forces COW + restores, and the moves cost time.
  EXPECT_GT(fp16.dma_bytes_moved, 0);
  EXPECT_GT(fp16.dma_time_seconds, 0.0);
}

TEST(KvQuantTest, Int8PoolPreemptsLessUnderEqualPressure) {
  Fixture f;
  auto prog = f.Compile();
  SchedulerConfig base;
  base.block_size_tokens = 4;
  // Sized in fp16 tokens: fp16 fits ~40 tokens, int8 ~80 for the same
  // byte budget, so the same workload preempts strictly less on int8.
  base.kv_pool_bytes = 10ull * 4 * KvBytesPerToken(f.config);
  base.max_batch_seqs = 6;
  base.max_batch_tokens = 48;
  std::vector<ServingRequest> reqs;
  for (int i = 0; i < 6; ++i) {
    reqs.push_back(MakeRequest(6, 10, 0.0, i));
  }
  auto run = [&](KvCacheDtype dtype) {
    SchedulerConfig config = base;
    config.kv_cache_dtype = dtype;
    api::Engine engine(prog, f.weights, f.u280,
                       testutil::MakeEngineConfig(config, Greedy()));
    auto report = testutil::ServeTrace(engine, reqs);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(report->merged);
  };
  const ServingReport fp16 = run(KvCacheDtype::kFp16);
  const ServingReport int8 = run(KvCacheDtype::kInt8);
  EXPECT_GT(fp16.preemptions, 0);
  EXPECT_LT(int8.preemptions, fp16.preemptions);
  EXPECT_GT(int8.kv_block_capacity, fp16.kv_block_capacity);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(fp16.outcomes[i].generated, int8.outcomes[i].generated);
  }
}

/// FNV-1a over every stream, each closed by a -1 separator.
std::uint64_t StreamsDigest(const ServingReport& report) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::int32_t v) {
    for (int b = 0; b < 4; ++b) {
      h ^= (static_cast<std::uint32_t>(v) >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const RequestOutcome& o : report.outcomes) {
    for (std::int32_t t : o.generated) mix(t);
    mix(-1);
  }
  return h;
}

// Sampled int8 streams are pinned to the digest the member-by-member
// tick loop produced before decode rows ran in parallel segments. The
// int8 noise is keyed on the KV block of the fed length at sampling time,
// so a segment that keyed it one token early would move it. The run
// samples at temperature 0.9 on two cards, many decode rows a tick, with
// a block boundary every three tokens, so the fed length's block moves
// on every third sample; some of its streams part from fp16's, so the
// pin covers the noise. The same streams must also match the reference
// oracle, each request generated alone with the same perturbation.
TEST(KvQuantTest, SampledInt8StreamsArePinned) {
  Fixture f;
  auto prog = f.Compile();
  SchedulerConfig base;
  base.block_size_tokens = 3;
  base.max_batch_seqs = 12;
  base.max_batch_tokens = 64;
  llama::SamplerConfig sampler;
  sampler.temperature = 0.9f;
  sampler.seed = 2024;
  WorkloadConfig wc;
  wc.num_requests = 96;
  wc.rate_rps = 40000.0;
  wc.min_prompt_tokens = 4;
  wc.max_prompt_tokens = 12;
  wc.min_new_tokens = 24;
  wc.max_new_tokens = 48;
  wc.vocab_size = f.config.vocab_size;
  Rng rng(36);
  const std::vector<ServingRequest> reqs = PoissonTrace(rng, wc);
  auto run = [&](KvCacheDtype dtype) {
    SchedulerConfig config = base;
    config.kv_cache_dtype = dtype;
    api::Engine engine(prog, f.weights, f.u280,
                       testutil::MakeEngineConfig(config, sampler, 2));
    auto report = testutil::ServeTrace(engine, reqs);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(report->merged);
  };
  const ServingReport fp16 = run(KvCacheDtype::kFp16);
  const ServingReport int8 = run(KvCacheDtype::kInt8);
  ASSERT_EQ(int8.outcomes.size(), reqs.size());
  int parted = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    parted += fp16.outcomes[i].generated != int8.outcomes[i].generated;
  }
  EXPECT_GT(parted, 0);
  EXPECT_EQ(StreamsDigest(int8), 0x843b292c1bef93c4ull);
  auto reference = testutil::ReferenceStreams(prog, f.weights, f.u280, reqs,
                                              sampler, base.block_size_tokens);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(int8.outcomes[i].generated, (*reference)[i]) << "request " << i;
  }
}

}  // namespace
}  // namespace speedllm::serving

// Unit tests for the accelerator executor: functional parity with the CPU
// reference, concurrent forwards on their own workspaces, timing-model
// invariants, and energy accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <span>
#include <vector>

#include "accel/executor.hpp"
#include "common/threadpool.hpp"
#include "compiler/compiler.hpp"
#include "llama/reference.hpp"
#include "test_util.hpp"

namespace speedllm::accel {
namespace {

using compiler::CompilerOptions;

struct Harness {
  llama::ModelConfig config;
  llama::Weights weights;
  hw::U280Config u280;

  explicit Harness(llama::ModelConfig c, std::uint64_t seed = 404)
      : config(c),
        weights(llama::GenerateSyntheticWeights(c, seed)),
        u280(hw::U280Config::Default()) {}

  Program Compile(const compiler::CompilerOptions& opt) const {
    auto r = compiler::Compile(config, opt, u280);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value().program;
  }
};

/// Where each block of `table` starts in `arena`, a flat run of `layout`
/// blocks indexed by id.
std::vector<float*> BlockStarts(std::vector<float>& arena,
                                const KvBlockLayout& layout,
                                std::span<const std::int32_t> table) {
  std::vector<float*> starts;
  for (std::int32_t id : table) {
    starts.push_back(arena.data() + id * layout.block_floats());
  }
  return starts;
}

// ---------------- Functional parity ----------------

class ParityTest : public ::testing::TestWithParam<CompilerOptions> {};

TEST_P(ParityTest, MatchesReferenceBitExact) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(GetParam());
  Executor exec(prog, s.weights, s.u280);
  llama::ReferenceModel ref(s.weights, nullptr);

  for (std::int32_t pos = 0; pos < 12; ++pos) {
    std::int32_t token = (pos * 131 + 17) % s.config.vocab_size;
    auto a = exec.Forward(token, pos);
    auto r = ref.Forward(token, pos);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(r.ok());
    // Same kernels in the same order: results are bit-exact.
    EXPECT_EQ(MaxAbsDiff(*a, *r), 0.0f) << "pos " << pos;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ParityTest,
    ::testing::Values(CompilerOptions::Unoptimized(),
                      CompilerOptions::NoPipeline(), CompilerOptions::NoFuse(),
                      CompilerOptions::SpeedLLM(), CompilerOptions::NoReuse()),
    [](const auto& info) { return info.param.name; });

TEST(ExecutorTest, Int8CloseToReference) {
  Harness s(llama::ModelConfig::Tiny());
  compiler::CompilerOptions opt = compiler::CompilerOptions::SpeedLLM();
  opt.int8_weights = true;
  Program prog = s.Compile(opt);
  Executor exec(prog, s.weights, s.u280);
  llama::ReferenceModel ref(s.weights, nullptr);

  for (std::int32_t pos = 0; pos < 6; ++pos) {
    std::int32_t token = (pos * 31 + 3) % s.config.vocab_size;
    auto a = exec.Forward(token, pos);
    auto r = ref.Forward(token, pos);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(r.ok());
    // int8 weights: small relative error, same argmax structure usually.
    EXPECT_LT(RelativeL2Error(*a, *r), 0.05f) << "pos " << pos;
  }
}

TEST(ExecutorTest, ResetSequenceReproducesExactly) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);

  std::vector<std::int32_t> tokens = {1, 50, 99, 7};
  std::vector<float> first;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    auto l = exec.Forward(tokens[i], static_cast<std::int32_t>(i));
    ASSERT_TRUE(l.ok());
    first.assign(l->begin(), l->end());
  }
  sim::Cycles cycles_first = exec.last_stats().cycles;

  exec.ResetSequence();
  std::vector<float> second;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    auto l = exec.Forward(tokens[i], static_cast<std::int32_t>(i));
    ASSERT_TRUE(l.ok());
    second.assign(l->begin(), l->end());
  }
  EXPECT_EQ(MaxAbsDiff(first, second), 0.0f);
  EXPECT_EQ(exec.last_stats().cycles, cycles_first);
}

TEST(ExecutorTest, KvCarryoverChangesLaterLogits) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);
  ASSERT_TRUE(exec.Forward(5, 0).ok());
  auto a = exec.Forward(9, 1);
  ASSERT_TRUE(a.ok());
  std::vector<float> with_history(a->begin(), a->end());

  exec.ResetSequence();
  ASSERT_TRUE(exec.Forward(200, 0).ok());
  auto b = exec.Forward(9, 1);
  ASSERT_TRUE(b.ok());
  EXPECT_GT(MaxAbsDiff(with_history, *b), 0.0f);
}

// ---------------- Block-table addressing ----------------

TEST(ExecutorTest, ScatteredBlockTablesMatchOneBlockTableBitExact) {
  // Tiny is GQA (4 heads over 2 kv heads). Every block size -- one token,
  // a size that splits the sequence unevenly, the serving default, and
  // the whole sequence -- must reproduce the standalone one-block table
  // bit for bit, and fp32 must also match the CPU reference.
  Harness s(llama::ModelConfig::Tiny());
  constexpr std::int32_t kTokens = 40;
  for (bool int8 : {false, true}) {
    compiler::CompilerOptions opt = compiler::CompilerOptions::SpeedLLM();
    opt.int8_weights = int8;
    Program prog = s.Compile(opt);
    for (std::int64_t bs : {std::int64_t{1}, std::int64_t{3},
                            std::int64_t{16},
                            static_cast<std::int64_t>(s.config.seq_len)}) {
      SCOPED_TRACE(::testing::Message() << "int8 " << int8 << " bs " << bs);
      Executor paged(prog, s.weights, s.u280);
      Executor dense(prog, s.weights, s.u280);
      llama::ReferenceModel ref(s.weights, nullptr);
      const KvBlockLayout layout = paged.KvLayout(bs);
      const std::int64_t blocks = (kTokens + bs - 1) / bs;
      // Descending odd ids: no two neighbours are adjacent in the arena.
      std::vector<std::int32_t> table;
      for (std::int64_t b = 0; b < blocks; ++b) {
        table.push_back(static_cast<std::int32_t>(2 * (blocks - b) - 1));
      }
      std::vector<float> arena(
          static_cast<std::size_t>(2 * blocks * layout.block_floats()), -7.0f);
      const std::vector<float*> starts = BlockStarts(arena, layout, table);
      const KvPages pages{layout, starts};
      for (std::int32_t pos = 0; pos < kTokens; ++pos) {
        const std::int32_t token = (pos * 37 + 11) % s.config.vocab_size;
        auto a = paged.Forward(token, pos, pages);
        ASSERT_TRUE(a.ok()) << a.status().ToString();
        const std::vector<float> got(a->begin(), a->end());
        auto d = dense.Forward(token, pos);
        ASSERT_TRUE(d.ok());
        EXPECT_EQ(MaxAbsDiff(got, *d), 0.0f) << "pos " << pos;
        auto r = ref.Forward(token, pos);
        ASSERT_TRUE(r.ok());
        if (!int8) {
          EXPECT_EQ(MaxAbsDiff(got, *r), 0.0f) << "pos " << pos;
        }
        EXPECT_EQ(paged.last_stats().cycles, dense.last_stats().cycles);
      }
      // Even-numbered blocks are outside the table and stay untouched.
      for (std::int64_t b = 0; b < 2 * blocks; b += 2) {
        for (std::int64_t i = 0; i < layout.block_floats(); ++i) {
          ASSERT_EQ(arena[static_cast<std::size_t>(b * layout.block_floats() +
                                                   i)],
                    -7.0f);
        }
      }
    }
  }
}

TEST(ExecutorTest, ConcurrentComputesOnOwnWorkspacesMatchOneByOne) {
  // Four sequences, each with its own K/V, decode one token at a time
  // through one executor: once one after another on its own workspace,
  // once with the four forwards of every step running at once on the
  // global pool, one workspace each (a tick's decode segment). Logits
  // and K/V must agree bit for bit, and Compute records no stats.
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  constexpr std::size_t kSeqs = 4;
  constexpr std::int32_t kTokens = 24;
  Executor serial(prog, s.weights, s.u280);
  Executor fanned(prog, s.weights, s.u280);
  const KvBlockLayout layout = serial.KvLayout(8);
  const std::int64_t blocks = (kTokens + 7) / 8;
  const auto token_at = [&](std::size_t q, std::int32_t pos) {
    return (pos * 37 + 11 + 53 * static_cast<std::int32_t>(q)) %
           s.config.vocab_size;
  };
  std::vector<std::int32_t> table(static_cast<std::size_t>(blocks));
  std::iota(table.begin(), table.end(), 0);
  const auto kv_floats =
      static_cast<std::size_t>(blocks * layout.block_floats());
  std::vector<std::vector<float>> serial_kv(kSeqs), fanned_kv(kSeqs);
  std::vector<std::vector<float*>> serial_starts(kSeqs), fanned_starts(kSeqs);
  for (std::size_t q = 0; q < kSeqs; ++q) {
    serial_kv[q].assign(kv_floats, 0.0f);
    fanned_kv[q] = serial_kv[q];
    serial_starts[q] = BlockStarts(serial_kv[q], layout, table);
    fanned_starts[q] = BlockStarts(fanned_kv[q], layout, table);
  }
  std::vector<ExecutorWorkspace> lanes(kSeqs);
  std::vector<std::vector<float>> got(kSeqs);
  for (std::int32_t pos = 0; pos < kTokens; ++pos) {
    std::vector<std::vector<float>> want(kSeqs);
    for (std::size_t q = 0; q < kSeqs; ++q) {
      auto logits = serial.Forward(token_at(q, pos), pos,
                                   KvPages{layout, serial_starts[q]});
      ASSERT_TRUE(logits.ok()) << logits.status().ToString();
      want[q].assign(logits->begin(), logits->end());
    }
    ThreadPool::Global().ParallelRun(kSeqs, [&](std::size_t q) {
      const std::int32_t token = token_at(q, pos);
      auto logits = fanned.Compute(lanes[q], {&token, 1}, pos,
                                   KvPages{layout, fanned_starts[q]}, true);
      if (logits.ok()) got[q].assign(logits->begin(), logits->end());
    });
    EXPECT_EQ(fanned.total_stats().cycles, 0u) << "pos " << pos;
    for (std::size_t q = 0; q < kSeqs; ++q) {
      EXPECT_EQ(got[q], want[q]) << "seq " << q << " pos " << pos;
    }
  }
  for (std::size_t q = 0; q < kSeqs; ++q) {
    EXPECT_EQ(fanned_kv[q], serial_kv[q]) << "seq " << q;
  }
}

TEST(ExecutorTest, RejectsPagesThatCannotHoldThePosition) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);
  const KvBlockLayout layout = exec.KvLayout(4);
  std::vector<float> arena(static_cast<std::size_t>(layout.block_floats()));
  const std::int32_t table[1] = {0};
  const std::vector<float*> starts = BlockStarts(arena, layout, table);
  const KvPages pages{layout, starts};
  EXPECT_TRUE(exec.Forward(3, 3, pages).ok());
  EXPECT_EQ(exec.Forward(3, 4, pages).status().code(),
            StatusCode::kOutOfRange);
  KvPages wrong = pages;
  wrong.layout.kv_dim += 1;
  EXPECT_EQ(exec.Forward(3, 0, wrong).status().code(),
            StatusCode::kInvalidArgument);
}

// ---------------- Logits on demand ----------------

TEST(ExecutorTest, SkippingLogitsChangesNoStatsKvOrLaterLogits) {
  // One sequence runs twice: with logits on every row, and with them off
  // for every prompt row but the last. The skipped rows still pay the
  // classifier on the timing model and write the same K/V, so everything
  // a later row or the stats can see is byte-identical.
  Harness s(llama::ModelConfig::Tiny());
  constexpr std::int32_t kPrompt = 9;
  constexpr std::int32_t kTokens = 14;
  compiler::CompilerOptions int8 = compiler::CompilerOptions::SpeedLLM();
  int8.int8_weights = true;
  for (const compiler::CompilerOptions& opt :
       {compiler::CompilerOptions::SpeedLLM(), int8,
        compiler::CompilerOptions::Unoptimized()}) {
    SCOPED_TRACE(::testing::Message() << "int8 " << opt.int8_weights
                                      << " fuse " << opt.enable_fusion);
    Program prog = s.Compile(opt);
    Executor always(prog, s.weights, s.u280);
    Executor on_demand(prog, s.weights, s.u280);
    const KvBlockLayout layout = always.KvLayout(4);
    const std::int32_t table[4] = {0, 1, 2, 3};
    const auto floats = static_cast<std::size_t>(4 * layout.block_floats());
    std::vector<float> kv_always(floats, 0.0f), kv_on_demand(floats, 0.0f);
    const std::vector<float*> always_starts =
        BlockStarts(kv_always, layout, table);
    const KvPages pages_always{layout, always_starts};
    const std::vector<float*> on_demand_starts =
        BlockStarts(kv_on_demand, layout, table);
    const KvPages pages_on_demand{layout, on_demand_starts};
    for (std::int32_t pos = 0; pos < kTokens; ++pos) {
      SCOPED_TRACE(::testing::Message() << "pos " << pos);
      const std::int32_t token = (pos * 53 + 5) % s.config.vocab_size;
      const bool want = pos >= kPrompt - 1;
      auto a = always.Forward(token, pos, pages_always);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      const std::vector<float> want_logits(a->begin(), a->end());
      auto b = on_demand.Forward(token, pos, pages_on_demand, want);
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      if (want) {
        ASSERT_EQ(b->size(), want_logits.size());
        EXPECT_EQ(std::memcmp(b->data(), want_logits.data(),
                              want_logits.size() * sizeof(float)),
                  0);
      } else {
        EXPECT_TRUE(b->empty());
      }
      const TokenRunStats& x = always.last_stats();
      const TokenRunStats& y = on_demand.last_stats();
      EXPECT_EQ(x.cycles, y.cycles);
      EXPECT_EQ(x.joules, y.joules);
      EXPECT_EQ(x.hbm_bytes, y.hbm_bytes);
      EXPECT_EQ(x.launches, y.launches);
      EXPECT_EQ(x.unit_busy, y.unit_busy);
      EXPECT_EQ(std::memcmp(kv_always.data(), kv_on_demand.data(),
                            floats * sizeof(float)),
                0);
    }
  }
  // The standalone overload follows the same contract.
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);
  auto skipped = exec.Forward(3, 0, /*want_logits=*/false);
  ASSERT_TRUE(skipped.ok());
  EXPECT_TRUE(skipped->empty());
}

// ---------------- Chunked forwards ----------------

void ExpectSameStats(const TokenRunStats& a, const TokenRunStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.joules, b.joules);
  EXPECT_EQ(a.energy.hbm_j, b.energy.hbm_j);
  EXPECT_EQ(a.energy.bram_j, b.energy.bram_j);
  EXPECT_EQ(a.energy.mac_j, b.energy.mac_j);
  EXPECT_EQ(a.energy.sfu_j, b.energy.sfu_j);
  EXPECT_EQ(a.energy.launch_j, b.energy.launch_j);
  EXPECT_EQ(a.energy.unit_active_j, b.energy.unit_active_j);
  EXPECT_EQ(a.energy.unit_idle_j, b.energy.unit_idle_j);
  EXPECT_EQ(a.energy.static_j, b.energy.static_j);
  EXPECT_EQ(a.hbm_bytes, b.hbm_bytes);
  EXPECT_EQ(a.launches, b.launches);
  EXPECT_EQ(a.unit_busy, b.unit_busy);
}

TEST(ExecutorTest, ChunkForwardMatchesRowByRow) {
  // One sequence runs row by row, then in chunks of 1..12 rows, against
  // a scattered block table. After every chunk the K/V arena, the last
  // row's logits and the stats must be what the row-by-row run had at
  // that row, for every variant, int8, and every block size.
  Harness s(llama::ModelConfig::Tiny());
  constexpr std::int32_t kTokens = 30;
  std::vector<compiler::CompilerOptions> options =
      compiler::CompilerOptions::PaperVariants();
  options.push_back(compiler::CompilerOptions::NoReuse());
  options.push_back(compiler::CompilerOptions::SpeedLLM());
  options.back().int8_weights = true;
  std::vector<std::int32_t> tokens(kTokens);
  for (std::int32_t i = 0; i < kTokens; ++i) {
    tokens[static_cast<std::size_t>(i)] = (i * 37 + 11) % s.config.vocab_size;
  }
  for (const compiler::CompilerOptions& opt : options) {
    const Program prog = s.Compile(opt);
    for (std::int64_t bs : {std::int64_t{1}, std::int64_t{3},
                            std::int64_t{16},
                            static_cast<std::int64_t>(s.config.seq_len)}) {
      SCOPED_TRACE(::testing::Message()
                   << opt.name << " int8 " << opt.int8_weights
                   << " bs " << bs);
      Executor rowwise(prog, s.weights, s.u280);
      const KvBlockLayout layout = rowwise.KvLayout(bs);
      const std::int64_t blocks = (kTokens + bs - 1) / bs;
      // Descending odd ids: no two neighbours are adjacent in the arena.
      std::vector<std::int32_t> table;
      for (std::int64_t b = 0; b < blocks; ++b) {
        table.push_back(static_cast<std::int32_t>(2 * (blocks - b) - 1));
      }
      const auto floats =
          static_cast<std::size_t>(2 * blocks * layout.block_floats());
      std::vector<float> arena(floats, -7.0f);
      const std::vector<float*> starts = BlockStarts(arena, layout, table);
      const KvPages pages{layout, starts};
      std::vector<std::vector<float>> kv_after, logits_at;
      std::vector<TokenRunStats> last_at, total_at;
      for (std::int32_t pos = 0; pos < kTokens; ++pos) {
        auto l = rowwise.Forward(tokens[static_cast<std::size_t>(pos)], pos,
                                 pages);
        ASSERT_TRUE(l.ok()) << l.status().ToString();
        logits_at.emplace_back(l->begin(), l->end());
        kv_after.push_back(arena);
        last_at.push_back(rowwise.last_stats());
        total_at.push_back(rowwise.total_stats());
      }
      for (std::int32_t chunk = 1; chunk <= 12; ++chunk) {
        SCOPED_TRACE(::testing::Message() << "chunk " << chunk);
        Executor chunked(prog, s.weights, s.u280);
        std::vector<float> chunk_arena(floats, -7.0f);
        const std::vector<float*> chunk_starts =
            BlockStarts(chunk_arena, layout, table);
        const KvPages chunk_pages{layout, chunk_starts};
        for (std::int32_t pos0 = 0; pos0 < kTokens; pos0 += chunk) {
          const std::int32_t rows = std::min(chunk, kTokens - pos0);
          const auto last = static_cast<std::size_t>(pos0 + rows - 1);
          // Every other chunk skips its logits: K/V and stats stay put.
          const bool want = (pos0 / chunk) % 2 == 0;
          auto l = chunked.Forward(
              std::span<const std::int32_t>(tokens).subspan(
                  static_cast<std::size_t>(pos0),
                  static_cast<std::size_t>(rows)),
              pos0, chunk_pages, want);
          ASSERT_TRUE(l.ok()) << l.status().ToString();
          if (want) {
            ASSERT_EQ(l->size(), logits_at[last].size());
            EXPECT_EQ(std::memcmp(l->data(), logits_at[last].data(),
                                  l->size() * sizeof(float)),
                      0)
                << "pos0 " << pos0;
          } else {
            EXPECT_TRUE(l->empty());
          }
          EXPECT_EQ(std::memcmp(chunk_arena.data(), kv_after[last].data(),
                                floats * sizeof(float)),
                    0)
              << "pos0 " << pos0;
          ExpectSameStats(chunked.last_stats(), last_at[last]);
          ExpectSameStats(chunked.total_stats(), total_at[last]);
        }
        for (std::int32_t pos = 0; pos < kTokens; ++pos) {
          ExpectSameStats(chunked.TimingAt(pos),
                          last_at[static_cast<std::size_t>(pos)]);
        }
      }
    }
  }
}

TEST(ExecutorTest, PooledMatMulsKeepTheReferenceBits) {
  // Every matrix here is at least 256 KiB, so each matmul splits its
  // output rows across the global thread pool: chunked and one-row
  // forwards must still match the serial CPU reference bit for bit.
  llama::ModelConfig c = llama::ModelConfig::Tiny();
  c.dim = 256;
  c.hidden_dim = 512;
  c.n_layers = 1;
  c.vocab_size = 600;
  ASSERT_TRUE(c.Validate().ok());
  Harness s(c);
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);
  llama::ReferenceModel ref(s.weights, nullptr);
  const std::vector<std::int32_t> tokens = {1, 77, 301, 5, 599, 42, 8};
  auto chunk = exec.Forward(std::span<const std::int32_t>(tokens).first(6), 0);
  ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
  const std::vector<float> chunk_logits(chunk->begin(), chunk->end());
  std::vector<float> want;
  for (std::int32_t pos = 0; pos < 6; ++pos) {
    auto r = ref.Forward(tokens[static_cast<std::size_t>(pos)], pos);
    ASSERT_TRUE(r.ok());
    want.assign(r->begin(), r->end());
  }
  EXPECT_EQ(MaxAbsDiff(chunk_logits, want), 0.0f);
  auto row = exec.Forward(tokens[6], 6);
  auto r = ref.Forward(tokens[6], 6);
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(MaxAbsDiff(*row, *r), 0.0f);
}

TEST(ExecutorTest, ChunkForwardChecksEveryRowBeforeWritingKv) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);
  const KvBlockLayout layout = exec.KvLayout(4);
  std::vector<float> arena(static_cast<std::size_t>(2 * layout.block_floats()),
                           -7.0f);
  const std::int32_t table[2] = {0, 1};
  const std::vector<float*> starts = BlockStarts(arena, layout, table);
  const KvPages pages{layout, starts};  // 8 tokens
  const auto untouched = [&arena] {
    for (float v : arena) {
      if (v != -7.0f) return false;
    }
    return true;
  };

  // A bad token in the middle of a chunk fails the whole chunk first.
  for (std::int32_t bad : {-1, s.config.vocab_size}) {
    const std::vector<std::int32_t> tokens = {3, 4, bad, 6};
    EXPECT_EQ(exec.Forward(tokens, 0, pages).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(untouched());
  }
  EXPECT_EQ(exec.Forward(std::span<const std::int32_t>{}, 0, pages)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // A chunk running past the table's capacity, or past seq_len.
  const std::vector<std::int32_t> nine(9, 5);
  EXPECT_EQ(exec.Forward(nine, 0, pages).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(
      exec.Forward(std::span<const std::int32_t>(nine).first(3), 6, pages)
          .status()
          .code(),
      StatusCode::kOutOfRange);
  EXPECT_EQ(exec.Forward(std::span<const std::int32_t>(nine).first(3),
                         s.config.seq_len - 2)
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(exec.Forward(std::span<const std::int32_t>(nine).first(1), -1,
                         pages)
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_TRUE(untouched());
  EXPECT_EQ(exec.total_stats().cycles, 0u);

  // Exactly filling the table is fine.
  EXPECT_TRUE(
      exec.Forward(std::span<const std::int32_t>(nine).first(8), 0, pages)
          .ok());
  EXPECT_FALSE(untouched());
}

// ---------------- Timing invariants ----------------

TEST(ExecutorTest, PipelineNeverSlowerThanSerialized) {
  Harness s(llama::ModelConfig::Tiny());
  Program piped = s.Compile(compiler::CompilerOptions::SpeedLLM());
  compiler::CompilerOptions serial_opts = compiler::CompilerOptions::SpeedLLM();
  serial_opts.enable_pipeline = false;
  // Keep identical channel widths so only the overlap differs.
  serial_opts.serial_channels = serial_opts.weight_channels;
  Program serial = s.Compile(serial_opts);

  Executor a(piped, s.weights, s.u280), b(serial, s.weights, s.u280);
  for (std::int32_t pos = 0; pos < 4; ++pos) {
    ASSERT_TRUE(a.Forward(3, pos).ok());
    ASSERT_TRUE(b.Forward(3, pos).ok());
    EXPECT_LE(a.last_stats().cycles, b.last_stats().cycles) << "pos " << pos;
  }
}

TEST(ExecutorTest, PipelineOverlapsStationsSerializedDoesNot) {
  Harness s(llama::ModelConfig::Tiny());
  Program piped = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Program serial = s.Compile(compiler::CompilerOptions::Unoptimized());

  Executor a(piped, s.weights, s.u280);
  a.EnableTrace(true);
  ASSERT_TRUE(a.Forward(3, 0).ok());
  EXPECT_GT(a.trace().OverlappedCycles(), 0u);

  Executor b(serial, s.weights, s.u280);
  b.EnableTrace(true);
  ASSERT_TRUE(b.Forward(3, 0).ok());
  EXPECT_EQ(b.trace().OverlappedCycles(), 0u);
}

TEST(ExecutorTest, FusionReducesHbmBytesAndLaunches) {
  Harness s(llama::ModelConfig::Tiny());
  Program fused = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Program unfused = s.Compile(compiler::CompilerOptions::NoFuse());
  Executor a(fused, s.weights, s.u280), b(unfused, s.weights, s.u280);
  ASSERT_TRUE(a.Forward(3, 0).ok());
  ASSERT_TRUE(b.Forward(3, 0).ok());
  EXPECT_LT(a.last_stats().hbm_bytes, b.last_stats().hbm_bytes);
  EXPECT_LT(a.last_stats().launches, b.last_stats().launches);
}

TEST(ExecutorTest, AttentionCostGrowsWithPosition) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);
  ASSERT_TRUE(exec.Forward(3, 0).ok());
  std::uint64_t bytes_at_0 = exec.last_stats().hbm_bytes;
  for (std::int32_t pos = 1; pos < 40; ++pos) {
    ASSERT_TRUE(exec.Forward(3, pos).ok());
  }
  // KV streaming grows with the cache length.
  EXPECT_GT(exec.last_stats().hbm_bytes, bytes_at_0);
}

TEST(ExecutorTest, MakespanAtLeastCriticalStation) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);
  ASSERT_TRUE(exec.Forward(3, 0).ok());
  const auto& st = exec.last_stats();
  for (auto busy : st.unit_busy) {
    EXPECT_LE(busy, st.cycles);
  }
  EXPECT_GT(st.unit_busy[static_cast<std::size_t>(Unit::kMpe)], 0u);
  EXPECT_GT(st.unit_busy[static_cast<std::size_t>(Unit::kDmaIn)], 0u);
}

// ---------------- Energy invariants ----------------

TEST(ExecutorTest, EnergyBreakdownConsistent) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);
  ASSERT_TRUE(exec.Forward(3, 0).ok());
  const auto& st = exec.last_stats();
  EXPECT_GT(st.joules, 0.0);
  EXPECT_NEAR(st.joules, st.energy.total_j(), 1e-12);
  EXPECT_GT(st.energy.hbm_j, 0.0);
  EXPECT_GT(st.energy.mac_j, 0.0);
  EXPECT_GT(st.energy.static_j, 0.0);
  EXPECT_GT(st.seconds, 0.0);
}

TEST(ExecutorTest, HbmEnergyProportionalToBytes) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);
  ASSERT_TRUE(exec.Forward(3, 0).ok());
  const auto& st = exec.last_stats();
  double expected =
      s.u280.power.pj_per_hbm_byte * 1e-12 * static_cast<double>(st.hbm_bytes);
  EXPECT_NEAR(st.energy.hbm_j, expected, expected * 1e-9);
}

TEST(ExecutorTest, TotalStatsAccumulate) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);
  ASSERT_TRUE(exec.Forward(3, 0).ok());
  auto first = exec.last_stats();
  ASSERT_TRUE(exec.Forward(4, 1).ok());
  EXPECT_EQ(exec.total_stats().cycles,
            first.cycles + exec.last_stats().cycles);
  exec.ResetStats();
  EXPECT_EQ(exec.total_stats().cycles, 0u);
}

TEST(ExecutorTest, RejectsOutOfRangeInputs) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);
  EXPECT_FALSE(exec.Forward(-1, 0).ok());
  EXPECT_FALSE(exec.Forward(s.config.vocab_size, 0).ok());
  EXPECT_FALSE(exec.Forward(0, s.config.seq_len).ok());
}

TEST(ExecutorTest, WeightsThatDoNotMatchTheProgramFailEveryForward) {
  Harness s(llama::ModelConfig::Tiny());
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  llama::ModelConfig wide = s.config;
  wide.hidden_dim = s.config.hidden_dim * 2;
  const llama::Weights wrong = llama::GenerateSyntheticWeights(wide, 404);
  EXPECT_EQ(WeightImage::Build(prog, wrong).status().code(),
            StatusCode::kInvalidArgument);
  llama::Weights short_layers = llama::GenerateSyntheticWeights(s.config, 404);
  short_layers.wq.pop_back();
  EXPECT_EQ(WeightImage::Build(prog, short_layers).status().code(),
            StatusCode::kInvalidArgument);

  Executor exec(prog, wrong, s.u280);
  EXPECT_EQ(exec.weight_image(), nullptr);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(exec.Forward(1, 0).status().code(),
              StatusCode::kInvalidArgument);
  }
  // Timing needs no weights.
  EXPECT_GT(exec.TimingAt(0).cycles, 0u);
}

TEST(ExecutorTest, GqaModelRunsCorrectly) {
  // Tiny already uses GQA (4 heads, 2 kv heads); also try an asymmetric
  // configuration to stress the head mapping.
  llama::ModelConfig c = llama::ModelConfig::Tiny();
  c.n_heads = 8;
  c.n_kv_heads = 2;
  c.dim = 64;
  ASSERT_TRUE(c.Validate().ok());
  Harness s(c);
  Program prog = s.Compile(compiler::CompilerOptions::SpeedLLM());
  Executor exec(prog, s.weights, s.u280);
  llama::ReferenceModel ref(s.weights, nullptr);
  for (std::int32_t pos = 0; pos < 6; ++pos) {
    auto a = exec.Forward(11, pos);
    auto r = ref.Forward(11, pos);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(MaxAbsDiff(*a, *r), 0.0f);
  }
}

}  // namespace
}  // namespace speedllm::accel

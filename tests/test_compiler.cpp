// Unit tests for the graph-to-accelerator compiler.
#include <gtest/gtest.h>

#include <set>

#include "compiler/compiler.hpp"

namespace speedllm::compiler {
namespace {

using accel::Instr;
using accel::Opcode;
using accel::Unit;

CompileResult MustCompile(const llama::ModelConfig& config,
                          const CompilerOptions& options) {
  auto r = Compile(config, options, hw::U280Config::Default());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(CompilerTest, AllVariantsCompileForAllPresets) {
  for (auto config :
       {llama::ModelConfig::Tiny(), llama::ModelConfig::Stories15M()}) {
    for (const auto& v :
         {CompilerOptions::Unoptimized(), CompilerOptions::NoPipeline(),
          CompilerOptions::NoFuse(), CompilerOptions::SpeedLLM(),
          CompilerOptions::NoReuse()}) {
      auto r = Compile(config, v, hw::U280Config::Default());
      EXPECT_TRUE(r.ok()) << v.name << ": " << r.status().ToString();
    }
  }
}

TEST(CompilerTest, DepsAlwaysReferEarlierInstrs) {
  for (const auto& v :
       {CompilerOptions::Unoptimized(), CompilerOptions::SpeedLLM()}) {
    auto cr = MustCompile(llama::ModelConfig::Tiny(), v);
    for (const Instr& in : cr.program.instrs) {
      for (auto d : in.deps) {
        EXPECT_LT(d, in.id) << "instr " << in.label;
      }
    }
  }
}

TEST(CompilerTest, LaunchCountMatchesGroups) {
  auto config = llama::ModelConfig::Tiny();
  auto cr = MustCompile(config, CompilerOptions::SpeedLLM());
  std::uint64_t launches = 0;
  for (const Instr& in : cr.program.instrs) {
    if (in.opcode == Opcode::kLaunch) ++launches;
  }
  EXPECT_EQ(launches, cr.program.stats.num_groups);
  // Fused: embed + 4 per layer + head.
  EXPECT_EQ(launches, static_cast<std::uint64_t>(1 + 4 * config.n_layers + 1));
}

TEST(CompilerTest, UnfusedHasOneGroupPerOp) {
  auto config = llama::ModelConfig::Tiny();
  auto cr = MustCompile(config, CompilerOptions::Unoptimized());
  EXPECT_EQ(cr.program.stats.num_groups,
            static_cast<std::uint64_t>(1 + 18 * config.n_layers + 2));
}

TEST(CompilerTest, SerializedScheduleChainsEverything) {
  auto cr =
      MustCompile(llama::ModelConfig::Tiny(), CompilerOptions::Unoptimized());
  const auto& instrs = cr.program.instrs;
  for (std::size_t i = 1; i < instrs.size(); ++i) {
    bool chained = false;
    for (auto d : instrs[i].deps) {
      if (d == instrs[i - 1].id) chained = true;
    }
    EXPECT_TRUE(chained) << "instr " << i << " not chained";
  }
}

TEST(CompilerTest, WeightStreamBytesMatchParamBytes) {
  auto config = llama::ModelConfig::Tiny();
  auto cr = MustCompile(config, CompilerOptions::SpeedLLM());
  // Per token we stream every layer weight + gains + the full classifier
  // matrix (the shared embedding, vocab x dim) + one embedding row.
  // num_params counts the shared embedding exactly once, so the stream is
  // params + one extra dim-row.
  std::uint64_t expected =
      static_cast<std::uint64_t>(config.num_params()) * 4 +
      static_cast<std::uint64_t>(config.dim) * 4;
  EXPECT_EQ(cr.program.stats.weight_stream_bytes, expected);
}

TEST(CompilerTest, FusionReducesActivationSpills) {
  auto config = llama::ModelConfig::Tiny();
  auto fused = MustCompile(config, CompilerOptions::SpeedLLM());
  auto unfused = MustCompile(config, CompilerOptions::NoFuse());
  EXPECT_LT(fused.program.stats.act_spill_bytes,
            unfused.program.stats.act_spill_bytes);
}

TEST(CompilerTest, ReuseShrinksFootprint) {
  auto config = llama::ModelConfig::Stories15M();
  auto with = MustCompile(config, CompilerOptions::SpeedLLM());
  auto without = MustCompile(config, CompilerOptions::NoReuse());
  EXPECT_LT(with.program.stats.onchip_peak_bytes,
            without.program.stats.onchip_peak_bytes);
}

TEST(CompilerTest, TinyBudgetForcesTileShrinkOrFails) {
  auto config = llama::ModelConfig::Stories15M();
  CompilerOptions opt = CompilerOptions::SpeedLLM();
  auto normal = MustCompile(config, opt);

  opt.onchip_budget_fraction = 0.004;  // ~180 KiB: heavy pressure
  auto r = Compile(config, opt, hw::U280Config::Default());
  if (r.ok()) {
    EXPECT_LT(r->program.stats.min_tile_rows,
              normal.program.stats.min_tile_rows);
  } else {
    EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  }
}

TEST(CompilerTest, ImpossibleBudgetFailsCleanly) {
  CompilerOptions opt = CompilerOptions::SpeedLLM();
  opt.onchip_budget_fraction = 1e-7;  // a few bytes
  auto r = Compile(llama::ModelConfig::Tiny(), opt,
                   hw::U280Config::Default());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(CompilerTest, ResourceLedgerWithinCapacity) {
  auto cr = MustCompile(llama::ModelConfig::Stories15M(),
                        CompilerOptions::SpeedLLM());
  for (auto res : {hw::Resource::kLut, hw::Resource::kFf, hw::Resource::kDsp,
                   hw::Resource::kBramBlock, hw::Resource::kUramBlock}) {
    EXPECT_LE(cr.ledger.used(res), cr.ledger.capacity(res));
  }
  EXPECT_GT(cr.ledger.used(hw::Resource::kDsp), 0u);
  EXPECT_GT(cr.ledger.used(hw::Resource::kBramBlock) +
                cr.ledger.used(hw::Resource::kUramBlock),
            0u);
}

TEST(CompilerTest, Int8ShrinksWeightStream) {
  auto config = llama::ModelConfig::Tiny();
  CompilerOptions fp32 = CompilerOptions::SpeedLLM();
  CompilerOptions int8 = CompilerOptions::SpeedLLM();
  int8.int8_weights = true;
  auto a = MustCompile(config, fp32);
  auto b = MustCompile(config, int8);
  // int8 payload is ~4x smaller (plus scales).
  EXPECT_LT(b.program.stats.weight_stream_bytes,
            a.program.stats.weight_stream_bytes / 3);
  EXPECT_TRUE(b.program.exec.int8_weights);
}

TEST(CompilerTest, PipelineVariantDoubleBuffers) {
  auto with = MustCompile(llama::ModelConfig::Tiny(),
                          CompilerOptions::SpeedLLM());
  auto without = MustCompile(llama::ModelConfig::Tiny(),
                             CompilerOptions::NoPipeline());
  for (const auto& t : with.program.tiles) EXPECT_EQ(t.num_buffers, 2);
  for (const auto& t : without.program.tiles) EXPECT_EQ(t.num_buffers, 1);
}

TEST(CompilerTest, KvStreamsAreSeqScaled) {
  auto cr = MustCompile(llama::ModelConfig::Tiny(),
                        CompilerOptions::SpeedLLM());
  int seq_scaled_loads = 0;
  for (const Instr& in : cr.program.instrs) {
    if (in.opcode == Opcode::kDmaLoad && in.seq_scaled) ++seq_scaled_loads;
  }
  // One K stream + one V stream per layer.
  EXPECT_EQ(seq_scaled_loads, 2 * llama::ModelConfig::Tiny().n_layers);
}

TEST(CompilerTest, ChannelAssignmentsWithinStack) {
  for (const auto& v :
       {CompilerOptions::Unoptimized(), CompilerOptions::SpeedLLM()}) {
    auto cr = MustCompile(llama::ModelConfig::Tiny(), v);
    const int channels = hw::U280Config::Default().hbm.num_channels;
    for (const Instr& in : cr.program.instrs) {
      if (in.opcode == Opcode::kDmaLoad || in.opcode == Opcode::kDmaStore) {
        EXPECT_GE(in.channel_first, 0);
        EXPECT_GT(in.channel_count, 0);
        EXPECT_LE(in.channel_first + in.channel_count, channels);
      }
    }
  }
}

TEST(CompilerTest, StoresUseSingleEngineWhenSerialized) {
  auto cr = MustCompile(llama::ModelConfig::Tiny(),
                        CompilerOptions::Unoptimized());
  for (const Instr& in : cr.program.instrs) {
    if (in.opcode == Opcode::kDmaStore) {
      EXPECT_EQ(in.unit, Unit::kDmaIn);  // one shared AXI master
    }
  }
  auto piped =
      MustCompile(llama::ModelConfig::Tiny(), CompilerOptions::SpeedLLM());
  bool any_out = false;
  for (const Instr& in : piped.program.instrs) {
    if (in.opcode == Opcode::kDmaStore) {
      EXPECT_EQ(in.unit, Unit::kDmaOut);
      any_out = true;
    }
  }
  EXPECT_TRUE(any_out);
}

TEST(CompilerTest, RejectsInvalidConfig) {
  auto config = llama::ModelConfig::Tiny();
  config.n_heads = 7;  // dim not divisible
  auto r = Compile(config, CompilerOptions::SpeedLLM(),
                   hw::U280Config::Default());
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace speedllm::compiler

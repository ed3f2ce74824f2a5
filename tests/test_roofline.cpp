// Tests validating the simulator against the analytic roofline bounds.
#include <gtest/gtest.h>

#include "accel/executor.hpp"
#include "accel/roofline.hpp"
#include "compiler/compiler.hpp"
#include "test_util.hpp"

namespace speedllm::accel {
namespace {

using compiler::CompilerOptions;

struct Ctx {
  llama::ModelConfig config = llama::ModelConfig::Tiny();
  llama::Weights weights = llama::GenerateSyntheticWeights(config, 17);
  hw::U280Config u280 = hw::U280Config::Default();

  Program Compile(const CompilerOptions& v) {
    auto r = compiler::Compile(config, v, u280);
    EXPECT_TRUE(r.ok());
    return std::move(r).value().program;
  }
};

TEST(RooflineTest, CountsMatchExecutor) {
  Ctx c;
  Program prog = c.Compile(CompilerOptions::SpeedLLM());
  Executor exec(prog, c.weights, c.u280);
  for (std::int32_t pos : {0, 5, 20}) {
    // Fresh executor stats per position.
    exec.ResetStats();
    ASSERT_TRUE(exec.Forward(3, pos).ok());
    RooflineEstimate e = AnalyzeRoofline(prog, c.u280, pos);
    EXPECT_EQ(e.dma_in_bytes + e.dma_out_bytes, exec.last_stats().hbm_bytes)
        << "pos " << pos;
  }
}

class RooflineVariantTest
    : public ::testing::TestWithParam<CompilerOptions> {};

TEST_P(RooflineVariantTest, SimulatedCyclesBracketedByBound) {
  Ctx c;
  Program prog = c.Compile(GetParam());
  Executor exec(prog, c.weights, c.u280);
  for (std::int32_t pos : {0, 7, 31}) {
    ASSERT_TRUE(exec.Forward(3, pos).ok());
    RooflineEstimate e = AnalyzeRoofline(prog, c.u280, pos);
    // The schedule can never beat the per-station bound...
    EXPECT_GE(exec.last_stats().cycles, e.bound_cycles) << "pos " << pos;
    // ...and even the fully serialized variant stays within the sum of
    // all station bounds plus per-instruction overheads (generous 12x).
    EXPECT_LE(exec.last_stats().cycles, 12 * (e.bound_cycles + 2000))
        << "pos " << pos;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, RooflineVariantTest,
    ::testing::ValuesIn(CompilerOptions::PaperVariants()),
    [](const auto& info) { return info.param.name; });

TEST(RooflineTest, PipelinedVariantApproachesBound) {
  Ctx c;
  Program prog = c.Compile(CompilerOptions::SpeedLLM());
  Executor exec(prog, c.weights, c.u280);
  ASSERT_TRUE(exec.Forward(3, 0).ok());
  RooflineEstimate e = AnalyzeRoofline(prog, c.u280, 0);
  // The overlapped schedule should land within ~4x of the ideal bound
  // (fill/latency/launch overheads keep it off the asymptote on a tiny
  // model; stories15M gets much closer).
  EXPECT_LE(exec.last_stats().cycles, 4 * e.bound_cycles + 8000);
}

TEST(RooflineTest, StreamDominatesForWeightBoundDesign) {
  Ctx c;
  Program prog = c.Compile(CompilerOptions::SpeedLLM());
  RooflineEstimate e = AnalyzeRoofline(prog, c.u280, 0);
  EXPECT_STREQ(e.bottleneck, "dma_in");
  EXPECT_GT(e.stream_in_cycles, e.mpe_cycles);
  EXPECT_GT(e.dma_in_bytes, e.dma_out_bytes);
}

TEST(RooflineTest, SeqScaledWorkGrowsWithPos) {
  Ctx c;
  Program prog = c.Compile(CompilerOptions::SpeedLLM());
  RooflineEstimate early = AnalyzeRoofline(prog, c.u280, 0);
  RooflineEstimate late = AnalyzeRoofline(prog, c.u280, 40);
  EXPECT_GT(late.dma_in_bytes, early.dma_in_bytes);
  EXPECT_GT(late.macs, early.macs);
  EXPECT_GE(late.bound_cycles, early.bound_cycles);
}

TEST(RooflineTest, WiderMpeShrinksComputeBound) {
  Ctx c;
  auto narrow = compiler::CompilerOptions::SpeedLLM();
  narrow.mpe_macs_per_cycle = 64;
  auto wide = compiler::CompilerOptions::SpeedLLM();
  wide.mpe_macs_per_cycle = 1024;
  auto a = compiler::Compile(c.config, narrow, c.u280);
  auto b = compiler::Compile(c.config, wide, c.u280);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  RooflineEstimate ea = AnalyzeRoofline(a->program, c.u280, 0);
  RooflineEstimate eb = AnalyzeRoofline(b->program, c.u280, 0);
  EXPECT_GT(ea.mpe_cycles, eb.mpe_cycles);
  EXPECT_EQ(ea.macs, eb.macs);  // same work, different width
}

}  // namespace
}  // namespace speedllm::accel

// Unit tests for the host runtime: device creation, generation loop,
// metrics, and the paper's variant ordering.
#include <gtest/gtest.h>

#include "llama/reference.hpp"
#include "llama/sampler.hpp"
#include "runtime/device.hpp"

#include <map>
#include <string>

namespace speedllm::runtime {
namespace {

using compiler::CompilerOptions;

struct Fixture {
  llama::ModelConfig config = llama::ModelConfig::Tiny();
  llama::Weights weights = llama::GenerateSyntheticWeights(config, 2024);
  hw::U280Config u280 = hw::U280Config::Default();

  AcceleratorDevice Device(const CompilerOptions& v) {
    auto d = AcceleratorDevice::Create(weights, v, u280);
    EXPECT_TRUE(d.ok()) << d.status().ToString();
    return std::move(d).value();
  }
};

llama::Sampler Greedy() {
  llama::SamplerConfig sc;
  sc.temperature = 0.0f;
  return llama::Sampler(sc);
}

TEST(RuntimeTest, VariantNamesAndOptionsAgree) {
  // Fig. 2's set in evaluation order; each name reaches the program.
  Fixture f;
  std::string names;
  for (const CompilerOptions& v : CompilerOptions::PaperVariants()) {
    EXPECT_EQ(f.Device(v).program().exec.variant_name, v.name);
    names.append(v.name).append(" ");
  }
  EXPECT_EQ(names, "Unoptimized NoPipeline NoFuse SpeedLLM ");
}

TEST(RuntimeTest, GenerateProducesRequestedTokens) {
  Fixture f;
  auto dev = f.Device(CompilerOptions::SpeedLLM());
  auto sampler = Greedy();
  auto gen = dev.Generate({llama::kBosToken, 5, 9}, 10, sampler);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_EQ(gen->prompt_tokens.size(), 3u);
  EXPECT_EQ(gen->generated_tokens.size(), 10u);
  const auto& m = gen->metrics;
  EXPECT_EQ(m.prompt_tokens, 3);
  EXPECT_EQ(m.generated_tokens, 10);
  EXPECT_GT(m.prefill_seconds, 0.0);
  EXPECT_GT(m.decode_seconds, 0.0);
  EXPECT_GT(m.decode_tokens_per_second(), 0.0);
  EXPECT_GT(m.tokens_per_joule(), 0.0);
  EXPECT_GT(m.tokens_per_joule_total(), 0.0);
  EXPECT_LT(m.tokens_per_joule_total(), m.tokens_per_joule());
  EXPECT_GT(m.hbm_bytes, 0u);
  EXPECT_EQ(m.kernel_launches,
            dev.program().stats.num_groups * 13u);  // 13 forwards
}

TEST(RuntimeTest, GreedyGenerationMatchesReference) {
  Fixture f;
  auto dev = f.Device(CompilerOptions::SpeedLLM());
  auto sampler = Greedy();
  auto gen = dev.Generate({llama::kBosToken, 7}, 8, sampler);
  ASSERT_TRUE(gen.ok());

  // Replay on the CPU reference with greedy sampling.
  llama::ReferenceModel ref(f.weights, nullptr);
  std::vector<std::int32_t> tokens = {llama::kBosToken, 7};
  std::span<const float> logits;
  std::int32_t pos = 0;
  for (auto t : tokens) {
    auto l = ref.Forward(t, pos++);
    ASSERT_TRUE(l.ok());
    logits = *l;
  }
  for (std::size_t i = 0; i < gen->generated_tokens.size(); ++i) {
    std::int32_t next = llama::Sampler::ArgMax(logits);
    EXPECT_EQ(gen->generated_tokens[i], next) << "step " << i;
    auto l = ref.Forward(next, pos++);
    ASSERT_TRUE(l.ok());
    logits = *l;
  }
}

TEST(RuntimeTest, GenerationIsDeterministic) {
  Fixture f;
  auto dev = f.Device(CompilerOptions::SpeedLLM());
  auto s1 = Greedy();
  auto g1 = dev.Generate({llama::kBosToken, 3}, 6, s1);
  auto s2 = Greedy();
  auto g2 = dev.Generate({llama::kBosToken, 3}, 6, s2);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g1->generated_tokens, g2->generated_tokens);
  EXPECT_EQ(g1->metrics.total_cycles, g2->metrics.total_cycles);
  EXPECT_DOUBLE_EQ(g1->metrics.total_joules(), g2->metrics.total_joules());
}

TEST(RuntimeTest, AllVariantsProduceSameGreedyTokens) {
  Fixture f;
  std::vector<std::int32_t> expected;
  for (const CompilerOptions& v : CompilerOptions::PaperVariants()) {
    auto dev = f.Device(v);
    auto sampler = Greedy();
    auto gen = dev.Generate({llama::kBosToken, 11, 25}, 6, sampler);
    ASSERT_TRUE(gen.ok()) << v.name;
    if (expected.empty()) {
      expected = gen->generated_tokens;
    } else {
      EXPECT_EQ(gen->generated_tokens, expected) << v.name;
    }
  }
}

TEST(RuntimeTest, SpeedupOrderingHolds) {
  Fixture f;
  std::map<std::string, double> seconds;
  for (const CompilerOptions& v : CompilerOptions::PaperVariants()) {
    auto dev = f.Device(v);
    auto sampler = Greedy();
    auto gen = dev.Generate({llama::kBosToken, 2, 3, 4}, 8, sampler);
    ASSERT_TRUE(gen.ok());
    seconds[v.name] = gen->metrics.total_seconds();
  }
  // SpeedLLM fastest; unoptimized slowest; ablations in between.
  EXPECT_LT(seconds["SpeedLLM"], seconds["NoFuse"]);
  EXPECT_LT(seconds["SpeedLLM"], seconds["NoPipeline"]);
  EXPECT_LT(seconds["NoFuse"], seconds["Unoptimized"]);
  EXPECT_LT(seconds["NoPipeline"], seconds["Unoptimized"]);
}

TEST(RuntimeTest, StopAtEos) {
  Fixture f;
  auto dev = f.Device(CompilerOptions::SpeedLLM());
  // A sampler with temperature 0 may or may not hit EOS; force the test
  // by checking the flag path with max_new_tokens = 0 too.
  auto sampler = Greedy();
  auto gen = dev.Generate({llama::kBosToken}, 0, sampler, true);
  ASSERT_TRUE(gen.ok());
  EXPECT_TRUE(gen->generated_tokens.empty());
}

TEST(RuntimeTest, RejectsBadRequests) {
  Fixture f;
  auto dev = f.Device(CompilerOptions::SpeedLLM());
  auto sampler = Greedy();
  EXPECT_FALSE(dev.Generate({}, 4, sampler).ok());
  // Prompt + generation beyond seq_len.
  std::vector<std::int32_t> long_prompt(f.config.seq_len, 1);
  EXPECT_FALSE(dev.Generate(long_prompt, 10, sampler).ok());
}

TEST(RuntimeTest, MetricsTimingConsistency) {
  Fixture f;
  auto dev = f.Device(CompilerOptions::SpeedLLM());
  auto sampler = Greedy();
  auto gen = dev.Generate({llama::kBosToken, 5}, 6, sampler);
  ASSERT_TRUE(gen.ok());
  const auto& m = gen->metrics;
  double cycle_seconds = f.u280.cycles_to_seconds(m.total_cycles);
  EXPECT_NEAR(m.total_seconds(), cycle_seconds, cycle_seconds * 1e-9);
  EXPECT_NEAR(m.average_power_w(), m.total_joules() / m.total_seconds(),
              1e-9);
}

TEST(RuntimeTest, ProgramAndLedgerAccessible) {
  Fixture f;
  auto dev = f.Device(CompilerOptions::SpeedLLM());
  EXPECT_EQ(dev.program().exec.variant_name, "SpeedLLM");
  EXPECT_GT(dev.program().instrs.size(), 0u);
  EXPECT_GT(dev.ledger().used(hw::Resource::kDsp), 0u);
}

}  // namespace
}  // namespace speedllm::runtime

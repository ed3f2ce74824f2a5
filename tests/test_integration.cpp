// End-to-end integration tests: checkpoint -> tokenizer -> accelerator ->
// generated text, plus a smoke check of the paper's headline ratios.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "llama/checkpoint.hpp"
#include "llama/reference.hpp"
#include "llama/tokenizer.hpp"
#include "runtime/device.hpp"

namespace speedllm {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(IntegrationTest, FullPipelineFileToText) {
  // 1. Generate + persist a synthetic model and tokenizer (tool path).
  auto config = llama::ModelConfig::Tiny();
  llama::Weights original = llama::GenerateSyntheticWeights(config, 31415);
  std::string ckpt = TempPath("speedllm_e2e.bin");
  std::string tokp = TempPath("speedllm_e2e_tok.bin");
  ASSERT_TRUE(llama::WriteCheckpoint(ckpt, original).ok());
  llama::Tokenizer tok = llama::SyntheticTokenizer(config.vocab_size, 5);
  ASSERT_TRUE(tok.Save(tokp).ok());

  // 2. Load back (downstream-user path).
  auto weights = llama::ReadCheckpoint(ckpt);
  ASSERT_TRUE(weights.ok());
  auto tok2 = llama::Tokenizer::Load(tokp, config.vocab_size);
  ASSERT_TRUE(tok2.ok());

  // 3. Encode a prompt, run the accelerator, decode the continuation.
  auto prompt = tok2->Encode("once upon a time", /*bos=*/true, /*eos=*/false);
  ASSERT_GT(prompt.size(), 1u);
  auto dev = runtime::AcceleratorDevice::Create(
      *weights, compiler::CompilerOptions::SpeedLLM(),
      hw::U280Config::Default());
  ASSERT_TRUE(dev.ok()) << dev.status().ToString();
  llama::SamplerConfig sc;
  sc.temperature = 0.8f;
  sc.top_p = 0.9f;
  sc.seed = 7;
  llama::Sampler sampler(sc);
  auto gen = dev->Generate(prompt, 12, sampler);
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_GT(gen->generated_tokens.size(), 0u);

  std::string text = tok2->DecodeAll(gen->generated_tokens);
  // Synthetic weights produce arbitrary tokens; the pipeline contract is
  // that decoding yields a valid byte string.
  EXPECT_FALSE(text.empty());

  std::remove(ckpt.c_str());
  std::remove(tokp.c_str());
}

TEST(IntegrationTest, AcceleratorMatchesReferenceOverWholeGeneration) {
  auto config = llama::ModelConfig::Tiny();
  llama::Weights weights = llama::GenerateSyntheticWeights(config, 999);

  auto dev = runtime::AcceleratorDevice::Create(
      weights, compiler::CompilerOptions::SpeedLLM(),
      hw::U280Config::Default());
  ASSERT_TRUE(dev.ok());
  llama::SamplerConfig sc;
  sc.temperature = 0.0f;
  llama::Sampler sampler(sc);
  std::vector<std::int32_t> prompt = {llama::kBosToken, 42, 17};
  auto gen = dev->Generate(prompt, 10, sampler);
  ASSERT_TRUE(gen.ok());

  // Reference greedy replay must produce the identical continuation.
  llama::ReferenceModel ref(weights, nullptr);
  std::span<const float> logits;
  std::int32_t pos = 0;
  for (auto t : prompt) {
    auto l = ref.Forward(t, pos++);
    ASSERT_TRUE(l.ok());
    logits = *l;
  }
  for (auto expected : gen->generated_tokens) {
    std::int32_t next = llama::Sampler::ArgMax(logits);
    EXPECT_EQ(next, expected);
    auto l = ref.Forward(next, pos++);
    ASSERT_TRUE(l.ok());
    logits = *l;
  }
}

// Smoke-check the paper's headline ratios on the real stories15M shape
// with a short workload (the full sweep lives in bench/).
TEST(IntegrationTest, PaperRatioShapesHold) {
  auto config = llama::ModelConfig::Stories15M();
  llama::Weights weights = llama::GenerateSyntheticWeights(config, 20240517);

  std::map<std::string, runtime::InferenceMetrics> metrics;
  for (const auto& v : compiler::CompilerOptions::PaperVariants()) {
    auto dev = runtime::AcceleratorDevice::Create(weights, v,
                                                  hw::U280Config::Default());
    ASSERT_TRUE(dev.ok()) << v.name;
    llama::SamplerConfig sc;
    sc.temperature = 0.0f;
    llama::Sampler sampler(sc);
    auto gen = dev->Generate({llama::kBosToken, 5, 9, 12}, 6, sampler);
    ASSERT_TRUE(gen.ok());
    metrics[v.name] = gen->metrics;
  }

  const double speedup =
      metrics["Unoptimized"].total_seconds() /
      metrics["SpeedLLM"].total_seconds();
  // Paper: up to 4.8x. Any short workload should land in the same regime.
  EXPECT_GT(speedup, 3.0);
  EXPECT_LT(speedup, 6.5);

  const double eff_vs_unopt =
      metrics["SpeedLLM"].tokens_per_joule() /
      metrics["Unoptimized"].tokens_per_joule();
  // Paper: 1.18x.
  EXPECT_GT(eff_vs_unopt, 1.05);
  EXPECT_LT(eff_vs_unopt, 1.40);

  const double eff_vs_nofuse =
      metrics["SpeedLLM"].tokens_per_joule() /
      metrics["NoFuse"].tokens_per_joule();
  // Paper: 1.01x -- fusion is a small positive energy win.
  EXPECT_GT(eff_vs_nofuse, 0.99);
  EXPECT_LT(eff_vs_nofuse, 1.15);
}

TEST(IntegrationTest, Int8EndToEndGeneratesPlausibleTokens) {
  auto config = llama::ModelConfig::Tiny();
  llama::Weights weights = llama::GenerateSyntheticWeights(config, 64);
  auto opt = compiler::CompilerOptions::SpeedLLM();
  opt.int8_weights = true;
  auto dev = runtime::AcceleratorDevice::Create(weights, opt,
                                                hw::U280Config::Default());
  ASSERT_TRUE(dev.ok());
  llama::SamplerConfig sc;
  sc.temperature = 0.0f;
  llama::Sampler sampler(sc);
  auto gen = dev->Generate({llama::kBosToken, 8}, 8, sampler);
  ASSERT_TRUE(gen.ok());
  EXPECT_EQ(gen->generated_tokens.size(), 8u);
  for (auto t : gen->generated_tokens) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, config.vocab_size);
  }
}

}  // namespace
}  // namespace speedllm

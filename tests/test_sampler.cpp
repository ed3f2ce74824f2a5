// Unit tests for the token samplers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "llama/kernels.hpp"
#include "llama/sampler.hpp"
#include "test_util.hpp"

namespace speedllm::llama {
namespace {

// Nucleus sampling by an indirect-comparator std::sort: the reference
// Sampler::SampleTopP must match token for token.
std::int32_t ReferenceSampleTopP(std::span<const float> probs, float top_p,
                                 float coin) {
  std::vector<std::int32_t> idx(probs.size());
  std::iota(idx.begin(), idx.end(), 0);
  const float cutoff =
      (1.0f - top_p) / static_cast<float>(probs.size() > 1 ? probs.size() - 1 : 1);
  idx.erase(std::remove_if(idx.begin(), idx.end(),
                           [&](std::int32_t i) { return probs[i] < cutoff; }),
            idx.end());
  std::sort(idx.begin(), idx.end(), [&](std::int32_t a, std::int32_t b) {
    if (probs[a] != probs[b]) return probs[a] > probs[b];
    return a < b;
  });
  float cumulative = 0.0f;
  std::size_t last = idx.size();
  for (std::size_t i = 0; i < idx.size(); ++i) {
    cumulative += probs[idx[i]];
    if (cumulative > top_p) {
      last = i + 1;
      break;
    }
  }
  float r = coin * cumulative;
  float cdf = 0.0f;
  for (std::size_t i = 0; i < last; ++i) {
    cdf += probs[idx[i]];
    if (r < cdf) return idx[i];
  }
  return idx.empty() ? 0 : idx[last - 1];
}

// Sampler::Sample's temperature + softmax + coin pipeline over the
// reference nucleus (top_p strictly inside (0, 1)).
std::int32_t ReferenceSample(std::span<float> logits,
                             const SamplerConfig& config, Rng& rng) {
  for (float& v : logits) v /= config.temperature;
  Softmax(logits);
  return ReferenceSampleTopP(logits, config.top_p, rng.NextFloat());
}

enum class LogitShape { kFlat, kPeaked, kTied };

// `vocab` logits drawn from `rng`: flat (Tiny-like, small spread),
// peaked (wide spread plus one dominant token), or tied (rounded to a
// coarse grid so many probabilities are exactly equal).
std::vector<float> MakeLogits(Rng& rng, std::size_t vocab, LogitShape shape) {
  std::vector<float> logits(vocab);
  for (float& v : logits) v = rng.NextGaussian();
  switch (shape) {
    case LogitShape::kFlat:
      for (float& v : logits) v *= 0.5f;
      break;
    case LogitShape::kPeaked:
      for (float& v : logits) v *= 4.0f;
      logits[rng.NextU64() % vocab] += 12.0f;
      break;
    case LogitShape::kTied:
      for (float& v : logits) v = std::round(v * 2.0f) / 2.0f;
      break;
  }
  return logits;
}

// Compares the two samplers on one logit vector: `draws` tokens through
// Sample with equal Rng seeds, then the two edge coins (0 and the largest
// float below 1) straight into the nucleus step. Returns the mismatches.
int CompareWithReference(const std::vector<float>& logits, float temperature,
                         float top_p, std::uint64_t seed, int draws) {
  SamplerConfig config;
  config.temperature = temperature;
  config.top_p = top_p;
  config.seed = seed;
  Sampler sampler(config);
  Rng rng(seed);
  int mismatches = 0;
  for (int d = 0; d < draws; ++d) {
    std::vector<float> a = logits, b = logits;
    const std::int32_t got = sampler.Sample(a);
    const std::int32_t want = ReferenceSample(b, config, rng);
    EXPECT_EQ(got, want) << "draw " << d << " top_p " << top_p;
    mismatches += got != want ? 1 : 0;
  }
  std::vector<float> probs = logits;
  for (float& v : probs) v /= temperature;
  Softmax(probs);
  for (float coin : {0.0f, std::nextafter(1.0f, 0.0f)}) {
    const std::int32_t got = Sampler::SampleTopP(probs, top_p, coin);
    const std::int32_t want = ReferenceSampleTopP(probs, top_p, coin);
    EXPECT_EQ(got, want) << "coin " << coin << " top_p " << top_p;
    mismatches += got != want ? 1 : 0;
  }
  return mismatches;
}

TEST(SamplerTest, ArgMaxPicksLargest) {
  std::vector<float> logits = {0.1f, 2.0f, -1.0f, 1.9f};
  EXPECT_EQ(Sampler::ArgMax(logits), 1);
}

TEST(SamplerTest, ArgMaxFirstOnTies) {
  std::vector<float> logits = {1.0f, 2.0f, 2.0f};
  EXPECT_EQ(Sampler::ArgMax(logits), 1);
}

TEST(SamplerTest, TemperatureZeroIsGreedy) {
  SamplerConfig cfg;
  cfg.temperature = 0.0f;
  Sampler s(cfg);
  std::vector<float> logits = {0.0f, 5.0f, 1.0f};
  for (int i = 0; i < 10; ++i) {
    auto copy = logits;
    EXPECT_EQ(s.Sample(copy), 1);
  }
}

TEST(SamplerTest, DeterministicBySeed) {
  SamplerConfig cfg;
  cfg.temperature = 1.0f;
  cfg.top_p = 0.9f;
  cfg.seed = 123;
  Sampler a(cfg), b(cfg);
  std::vector<float> logits = {1.0f, 1.2f, 0.8f, 1.1f, 0.5f};
  for (int i = 0; i < 50; ++i) {
    auto la = logits, lb = logits;
    EXPECT_EQ(a.Sample(la), b.Sample(lb));
  }
}

TEST(SamplerTest, MultinomialFollowsDistribution) {
  SamplerConfig cfg;
  cfg.temperature = 1.0f;
  cfg.top_p = 1.0f;  // plain multinomial
  cfg.seed = 7;
  Sampler s(cfg);
  // logits chosen so softmax ~ [0.09, 0.24, 0.67]
  std::vector<float> base = {0.0f, 1.0f, 2.0f};
  std::map<int, int> counts;
  const int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    auto logits = base;
    counts[s.Sample(logits)]++;
  }
  EXPECT_NEAR(counts[0] / static_cast<double>(kDraws), 0.09, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(kDraws), 0.245, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(kDraws), 0.665, 0.02);
}

TEST(SamplerTest, TopPExcludesTail) {
  SamplerConfig cfg;
  cfg.temperature = 1.0f;
  cfg.top_p = 0.5f;
  cfg.seed = 11;
  Sampler s(cfg);
  // One dominant token (softmax mass ~0.84); nucleus of 0.5 = {2} only.
  std::vector<float> base = {0.0f, 0.0f, 3.0f};
  for (int i = 0; i < 200; ++i) {
    auto logits = base;
    EXPECT_EQ(s.Sample(logits), 2);
  }
}

TEST(SamplerTest, TopPOneIsUnrestricted) {
  SamplerConfig cfg;
  cfg.temperature = 1.0f;
  cfg.top_p = 1.0f;
  cfg.seed = 13;
  Sampler s(cfg);
  std::vector<float> base = {1.0f, 1.0f, 1.0f};
  std::map<int, int> counts;
  for (int i = 0; i < 3000; ++i) {
    auto logits = base;
    counts[s.Sample(logits)]++;
  }
  // All three tokens reachable.
  EXPECT_EQ(counts.size(), 3u);
}

TEST(SamplerTest, HighTemperatureFlattens) {
  SamplerConfig hot;
  hot.temperature = 100.0f;
  hot.top_p = 1.0f;
  hot.seed = 17;
  Sampler s(hot);
  std::vector<float> base = {0.0f, 4.0f};
  int ones = 0;
  const int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) {
    auto logits = base;
    ones += s.Sample(logits) == 1 ? 1 : 0;
  }
  // At T=100 the distribution is near uniform.
  EXPECT_NEAR(ones / static_cast<double>(kDraws), 0.5, 0.03);
}

TEST(SamplerTest, SingleTokenVocab) {
  SamplerConfig cfg;
  cfg.temperature = 1.0f;
  Sampler s(cfg);
  std::vector<float> logits = {0.3f};
  EXPECT_EQ(s.Sample(logits), 0);
}

TEST(SamplerTest, TopPMatchesComparatorReference) {
  int mismatches = 0;
  std::uint64_t seed = 1000;
  for (std::size_t vocab : {1u, 2u, 3u, 7u, 512u, 32000u}) {
    const int draws = vocab > 1000 ? 4 : 32;
    for (LogitShape shape :
         {LogitShape::kFlat, LogitShape::kPeaked, LogitShape::kTied}) {
      Rng pick(seed);
      std::vector<float> top_ps = {0.01f, 0.5f, 0.9f, 0.999f};
      top_ps.push_back(pick.NextFloat());
      top_ps.push_back(0.8f + 0.2f * pick.NextFloat());
      for (float top_p : top_ps) {
        if (!(top_p > 0.0f && top_p < 1.0f)) continue;
        ++seed;
        SPEEDLLM_SEED_TRACE("sampler/top_p_reference", seed);
        Rng rng(seed);
        const std::vector<float> logits = MakeLogits(rng, vocab, shape);
        const float temperature = 0.5f + rng.NextFloat();
        mismatches +=
            CompareWithReference(logits, temperature, top_p, seed, draws);
      }
    }
  }
  // Fully random cases: any vocab up to 600, any shape, any top_p.
  for (std::uint64_t s = 1; s <= 300; ++s) {
    SPEEDLLM_SEED_TRACE("sampler/top_p_random", s);
    Rng rng(s);
    const std::size_t vocab = 1 + rng.NextU64() % 600;
    const auto shape = static_cast<LogitShape>(rng.NextU64() % 3);
    const std::vector<float> logits = MakeLogits(rng, vocab, shape);
    const float top_p = std::max(rng.NextFloat(), 1e-3f);
    const float temperature = 0.1f + 2.0f * rng.NextFloat();
    mismatches += CompareWithReference(logits, temperature, top_p, s, 8);
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(SamplerTest, NonFiniteProbabilitiesSampleDeterministicallyInRange) {
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  const float kInf = std::numeric_limits<float>::infinity();
  const float kMax = std::numeric_limits<float>::max();
  const std::vector<std::vector<float>> cases = {
      {0.5f, kNaN, 1.0f, 0.2f},  {kNaN, kNaN, kNaN},
      {kInf, 0.0f, 1.0f},        {kInf, kInf, -kInf},
      {-kInf, 1.0f, 2.0f, -kInf}, {1e9f, -1e9f, 3.0f},
      {kMax, -kMax, 0.0f},       {0.1f, 0.4f, 0.3f, 2.0f},
  };
  for (float temperature : {1.0f, 1e-30f}) {
    for (float top_p : {0.9f, 1.0f}) {
      for (std::size_t c = 0; c < cases.size(); ++c) {
        SPEEDLLM_SEED_TRACE("sampler/non_finite", c);
        SamplerConfig config;
        config.temperature = temperature;
        config.top_p = top_p;
        config.seed = 29 + c;
        Sampler a(config), b(config);
        for (int d = 0; d < 16; ++d) {
          std::vector<float> la = cases[c], lb = cases[c];
          const std::int32_t token = a.Sample(la);
          EXPECT_GE(token, 0);
          EXPECT_LT(token, static_cast<std::int32_t>(cases[c].size()));
          EXPECT_EQ(token, b.Sample(lb));
        }
      }
    }
  }
  // A NaN probability is never a nucleus candidate.
  const std::vector<float> probs = {kNaN, 0.25f, kNaN, 0.75f};
  for (float coin : {0.0f, 0.3f, 0.9f, std::nextafter(1.0f, 0.0f)}) {
    const std::int32_t token = Sampler::SampleTopP(probs, 0.99f, coin);
    EXPECT_TRUE(token == 1 || token == 3) << "coin " << coin;
  }
  EXPECT_EQ(Sampler::SampleTopP(std::vector<float>{kNaN, kNaN}, 0.5f, 0.5f), 0);
}

}  // namespace
}  // namespace speedllm::llama

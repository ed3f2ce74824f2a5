#include "llama/sampler.hpp"

#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

#include "llama/kernels.hpp"

namespace speedllm::llama {

namespace {

// A nucleus candidate: ~bits(prob) in the high word, the token index in
// the low word. For positive floats the bit pattern grows with the value,
// so ascending high words are descending probabilities.
std::uint64_t CandidateKey(float prob, std::size_t index) {
  const std::uint32_t hi = ~std::bit_cast<std::uint32_t>(prob);
  return (static_cast<std::uint64_t>(hi) << 32) | index;
}

float KeyProb(std::uint64_t key) {
  return std::bit_cast<float>(~static_cast<std::uint32_t>(key >> 32));
}

std::int32_t KeyIndex(std::uint64_t key) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(key));
}

constexpr int kRadixBits = 8;
constexpr int kRadixPasses = 32 / kRadixBits;
constexpr std::size_t kBuckets = std::size_t{1} << kRadixBits;

std::size_t Digit(std::uint64_t key, int pass) {
  return static_cast<std::size_t>(key >> (32 + pass * kRadixBits)) &
         (kBuckets - 1);
}

}  // namespace

Status ValidateSamplerConfig(const SamplerConfig& config,
                             const std::string& what) {
  if (!(config.temperature >= 0.0f) || std::isinf(config.temperature)) {
    return InvalidArgument(what + " temperature must be finite and >= 0 (got " +
                           std::to_string(config.temperature) + ")");
  }
  if (std::isnan(config.top_p)) {
    return InvalidArgument(what + " top_p must not be NaN");
  }
  return Status::Ok();
}

std::int32_t Sampler::ArgMax(std::span<const float> logits) {
  assert(!logits.empty());
  std::int32_t best = 0;
  for (std::size_t i = 1; i < logits.size(); ++i) {
    if (logits[i] > logits[best]) best = static_cast<std::int32_t>(i);
  }
  return best;
}

std::int32_t Sampler::SampleMultinomial(std::span<const float> probs,
                                        float coin) {
  float cdf = 0.0f;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    cdf += probs[i];
    if (coin < cdf) return static_cast<std::int32_t>(i);
  }
  return static_cast<std::int32_t>(probs.size()) - 1;  // rounding fallback
}

std::int32_t Sampler::SampleTopP(std::span<const float> probs, float top_p,
                                 float coin) {
  // Cutoff trick from llama2.c: tokens with prob < (1-p)/(n-1) can never
  // be part of the nucleus. The cutoff is positive, so every survivor is
  // a positive float; a NaN probability never survives.
  const std::size_t others = probs.size() > 1 ? probs.size() - 1 : 1;
  const float cutoff = (1.0f - top_p) / static_cast<float>(others);
  thread_local std::vector<std::uint64_t> key_buf, tmp_buf;
  key_buf.resize(probs.size());
  tmp_buf.resize(probs.size());
  std::uint64_t* keys = key_buf.data();
  std::uint64_t* tmp = tmp_buf.data();
  std::array<std::array<std::uint32_t, kBuckets>, kRadixPasses> counts{};
  std::size_t n = 0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    if (!(probs[i] >= cutoff)) continue;
    const std::uint64_t key = CandidateKey(probs[i], i);
    keys[n++] = key;
    for (int pass = 0; pass < kRadixPasses; ++pass) {
      ++counts[pass][Digit(key, pass)];
    }
  }
  if (n == 0) return 0;
  // Stable LSD radix sort on the high word. Keys enter in ascending index
  // order, so stability breaks probability ties by ascending index. A pass
  // whose digit is the same for every key would not move anything.
  for (int pass = 0; pass < kRadixPasses; ++pass) {
    std::array<std::uint32_t, kBuckets>& count = counts[pass];
    if (count[Digit(keys[0], pass)] == n) continue;
    std::uint32_t offset = 0;
    for (std::uint32_t& c : count) offset += std::exchange(c, offset);
    for (std::size_t i = 0; i < n; ++i) {
      tmp[count[Digit(keys[i], pass)]++] = keys[i];
    }
    std::swap(keys, tmp);
  }
  float cumulative = 0.0f;
  std::size_t last = n;
  for (std::size_t i = 0; i < n; ++i) {
    cumulative += KeyProb(keys[i]);
    if (cumulative > top_p) {
      last = i + 1;
      break;
    }
  }
  const float r = coin * cumulative;
  float cdf = 0.0f;
  for (std::size_t i = 0; i < last; ++i) {
    cdf += KeyProb(keys[i]);
    if (r < cdf) return KeyIndex(keys[i]);
  }
  return KeyIndex(keys[last - 1]);
}

std::int32_t Sampler::Sample(std::span<float> logits) {
  if (config_.temperature == 0.0f) {
    return ArgMax(logits);
  }
  for (float& v : logits) v /= config_.temperature;
  Softmax(logits);
  float coin = rng_.NextFloat();
  if (config_.top_p <= 0.0f || config_.top_p >= 1.0f) {
    return SampleMultinomial(logits, coin);
  }
  return SampleTopP(logits, config_.top_p, coin);
}

}  // namespace speedllm::llama

// SpeedLLM -- token samplers (argmax / temperature / nucleus).
//
// Mirrors llama2.c's sampler: temperature scaling followed by either
// plain multinomial sampling or top-p (nucleus) truncation. Deterministic
// given the Rng seed.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/rng.hpp"
#include "common/status.hpp"

namespace speedllm::llama {

struct SamplerConfig {
  float temperature = 1.0f;  // 0 => greedy argmax
  float top_p = 0.9f;        // 1.0 disables nucleus truncation
  std::uint64_t seed = 42;
  /// Model-wide end-of-sequence id: sampling it ends generation early in
  /// the serving paths (FinishReason::kStop). Negative disables.
  std::int32_t eos_token = -1;
};

/// OK when `config` holds values Sampler is defined for: a finite,
/// non-negative temperature and a top_p that is not NaN. Otherwise
/// InvalidArgument naming `what` ("request 3 sampler override").
Status ValidateSamplerConfig(const SamplerConfig& config,
                             const std::string& what);

class Sampler {
 public:
  explicit Sampler(SamplerConfig config) : config_(config), rng_(config.seed) {}

  /// Picks the next token from raw logits (modified in place by the
  /// temperature/softmax pipeline).
  std::int32_t Sample(std::span<float> logits);

  /// Greedy argmax (exposed for tests and deterministic decoding).
  static std::int32_t ArgMax(std::span<const float> logits);

  /// Nucleus sample from softmax output `probs` with uniform `coin` in
  /// [0, 1): candidates in (prob desc, index asc) order, truncated at the
  /// shortest prefix whose running sum exceeds `top_p`, then walked with
  /// the same float adds until `coin * sum` falls below the running sum.
  /// A NaN probability is never a candidate; with no candidate left the
  /// result is token 0.
  static std::int32_t SampleTopP(std::span<const float> probs, float top_p,
                                 float coin);

  const SamplerConfig& config() const { return config_; }

 private:
  std::int32_t SampleMultinomial(std::span<const float> probs, float coin);

  SamplerConfig config_;
  Rng rng_;
};

}  // namespace speedllm::llama

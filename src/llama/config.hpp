// SpeedLLM -- Llama2 architecture configuration.
//
// Mirrors the llama2.c `Config` struct. The paper evaluates the
// stories15M model (TinyStories-trained) from the llama2.c project; the
// preset below reproduces its exact shapes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.hpp"

namespace speedllm::llama {

/// Transformer hyper-parameters (all counts, no tensors).
struct ModelConfig {
  std::int32_t dim = 288;         // embedding / residual width
  std::int32_t hidden_dim = 768;  // FFN inner width
  std::int32_t n_layers = 6;
  std::int32_t n_heads = 6;
  std::int32_t n_kv_heads = 6;    // < n_heads enables grouped-query attn
  std::int32_t vocab_size = 32000;
  std::int32_t seq_len = 256;     // maximum context length
  /// llama2.c convention: classifier weights shared with the embedding.
  bool shared_classifier = true;

  std::int32_t head_dim() const { return dim / n_heads; }
  std::int32_t kv_dim() const { return head_dim() * n_kv_heads; }
  /// Queries per KV head (grouped-query attention group size).
  std::int32_t gqa_group() const { return n_heads / n_kv_heads; }

  /// Total parameter count (embeddings counted once when shared).
  std::int64_t num_params() const;

  /// Validates divisibility and positivity invariants.
  Status Validate() const;

  std::string ToString() const;

  /// The llama2.c stories15M checkpoint: 15.2M params, 6 layers, dim 288.
  static ModelConfig Stories15M();
  /// The llama2.c stories110M checkpoint: 110M params, 12 layers, dim 768.
  static ModelConfig Stories110M();
  /// A tiny configuration for fast unit tests.
  static ModelConfig Tiny();
  /// The preset a `--preset` flag names: "tiny", "stories15m" or
  /// "stories110m". Any other name is INVALID_ARGUMENT listing the valid
  /// ones.
  static StatusOr<ModelConfig> FromName(std::string_view name);
};

}  // namespace speedllm::llama

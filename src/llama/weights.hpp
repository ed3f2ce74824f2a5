// SpeedLLM -- Llama2 weight container and synthetic initialization.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/tensor.hpp"
#include "llama/config.hpp"

namespace speedllm::llama {

/// All model parameters in fp32, llama2.c layout (row-major, weight
/// matrices stored as [out_dim, in_dim]).
struct Weights {
  ModelConfig config;

  TensorF token_embedding;          // [vocab, dim]
  std::vector<TensorF> rms_att;     // n_layers x [dim]
  std::vector<TensorF> wq;          // n_layers x [dim, dim]
  std::vector<TensorF> wk;          // n_layers x [kv_dim, dim]
  std::vector<TensorF> wv;          // n_layers x [kv_dim, dim]
  std::vector<TensorF> wo;          // n_layers x [dim, dim]
  std::vector<TensorF> rms_ffn;     // n_layers x [dim]
  std::vector<TensorF> w1;          // n_layers x [hidden, dim]
  std::vector<TensorF> w2;          // n_layers x [dim, hidden]
  std::vector<TensorF> w3;          // n_layers x [hidden, dim]
  TensorF rms_final;                // [dim]
  TensorF wcls;                     // [vocab, dim]; empty when shared

  /// Classifier matrix (shared embedding or separate wcls).
  const TensorF& classifier() const {
    return config.shared_classifier ? token_embedding : wcls;
  }

  /// Allocates all tensors (uninitialized) for `config`.
  static Weights Allocate(const ModelConfig& config);

  /// Total bytes of fp32 parameters (embeddings counted once if shared).
  std::uint64_t param_bytes() const;
};

/// Deterministic random weights with trained-network-like statistics:
/// gaussian(0, 0.02) projections (scaled down on deep layers like GPT-2
/// init), unit rmsnorm gains. Produces the same compute/memory footprint
/// as a trained stories15M checkpoint (see docs/ARCHITECTURE.md
/// "Substitutions").
Weights GenerateSyntheticWeights(const ModelConfig& config,
                                 std::uint64_t seed);

}  // namespace speedllm::llama

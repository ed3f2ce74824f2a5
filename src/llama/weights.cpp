#include "llama/weights.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/threadpool.hpp"

namespace speedllm::llama {

Weights Weights::Allocate(const ModelConfig& config) {
  Weights w;
  w.config = config;
  const std::int64_t dim = config.dim;
  const std::int64_t hidden = config.hidden_dim;
  const std::int64_t kv = config.kv_dim();
  const std::int64_t vocab = config.vocab_size;
  const std::int64_t layers = config.n_layers;

  w.token_embedding = TensorF(Shape{vocab, dim});
  w.rms_final = TensorF(Shape{dim});
  if (!config.shared_classifier) w.wcls = TensorF(Shape{vocab, dim});

  w.rms_att.reserve(layers);
  w.wq.reserve(layers);
  w.wk.reserve(layers);
  w.wv.reserve(layers);
  w.wo.reserve(layers);
  w.rms_ffn.reserve(layers);
  w.w1.reserve(layers);
  w.w2.reserve(layers);
  w.w3.reserve(layers);
  for (std::int64_t l = 0; l < layers; ++l) {
    w.rms_att.emplace_back(Shape{dim});
    w.wq.emplace_back(Shape{dim, dim});
    w.wk.emplace_back(Shape{kv, dim});
    w.wv.emplace_back(Shape{kv, dim});
    w.wo.emplace_back(Shape{dim, dim});
    w.rms_ffn.emplace_back(Shape{dim});
    w.w1.emplace_back(Shape{hidden, dim});
    w.w2.emplace_back(Shape{dim, hidden});
    w.w3.emplace_back(Shape{hidden, dim});
  }
  return w;
}

std::uint64_t Weights::param_bytes() const {
  return static_cast<std::uint64_t>(config.num_params()) * sizeof(float);
}

namespace {

/// A tensor of at least kPoolSplitBytes is filled in chunks of this many
/// elements, one ParallelRun task each.
constexpr std::size_t kFillChunkElements = std::size_t{1} << 16;

/// One tensor's fill: its i-th element is a function of the i-th
/// NextGaussian() of `rng`, so any range of it can be filled on its own.
struct Fill {
  TensorF* tensor;
  Rng rng;              // the tensor's forked stream
  float stddev;         // gaussian tensors: stddev * g
  bool ones_perturbed;  // rmsnorm gains: 1 + 0.05 * g
};

void FillRange(const Fill& f, std::size_t begin, std::size_t end) {
  Rng rng = f.rng;
  rng.Discard(2 * begin);  // NextGaussian() takes exactly two draws
  float* v = f.tensor->data();
  if (f.ones_perturbed) {
    // rmsnorm gains in trained checkpoints hover around 1 with small spread.
    for (std::size_t i = begin; i < end; ++i) {
      v[i] = 1.0f + 0.05f * rng.NextGaussian();
    }
  } else {
    for (std::size_t i = begin; i < end; ++i) {
      v[i] = f.stddev * rng.NextGaussian();
    }
  }
}

}  // namespace

Weights GenerateSyntheticWeights(const ModelConfig& config,
                                 std::uint64_t seed) {
  Weights w = Weights::Allocate(config);
  Rng root(seed);
  const float base = 0.02f;
  // GPT-2 style depth scaling keeps residual-stream magnitudes stable so
  // softmax/rmsnorm operate in realistic numeric ranges.
  const float resid_scale =
      base / std::sqrt(2.0f * static_cast<float>(config.n_layers));

  std::vector<Fill> fills;
  auto gaussian = [&](TensorF& t, std::uint64_t salt, float stddev) {
    fills.push_back({&t, root.Fork(salt), stddev, false});
  };
  auto ones = [&](TensorF& t, std::uint64_t salt) {
    fills.push_back({&t, root.Fork(salt), 0.0f, true});
  };
  gaussian(w.token_embedding, 1, base);
  ones(w.rms_final, 2);
  if (!config.shared_classifier) gaussian(w.wcls, 3, base);
  for (std::int32_t l = 0; l < config.n_layers; ++l) {
    std::uint64_t salt = 100 + static_cast<std::uint64_t>(l) * 16;
    ones(w.rms_att[l], salt + 0);
    gaussian(w.wq[l], salt + 1, base);
    gaussian(w.wk[l], salt + 2, base);
    gaussian(w.wv[l], salt + 3, base);
    gaussian(w.wo[l], salt + 4, resid_scale);
    ones(w.rms_ffn[l], salt + 5);
    gaussian(w.w1[l], salt + 6, base);
    gaussian(w.w2[l], salt + 7, resid_scale);
    gaussian(w.w3[l], salt + 8, base);
  }

  // Every element is a pure function of its stream and index, so chunks
  // fill in any order with the bits a sequential draw gives. Small
  // tensors (every Tiny one) fill inline and never build the pool.
  struct Chunk {
    const Fill* fill;
    std::size_t begin, end;
  };
  std::vector<Chunk> chunks;
  for (const Fill& f : fills) {
    const std::size_t n = f.tensor->size();
    if (f.tensor->size_bytes() < static_cast<std::size_t>(kPoolSplitBytes)) {
      FillRange(f, 0, n);
      continue;
    }
    for (std::size_t b = 0; b < n; b += kFillChunkElements) {
      chunks.push_back({&f, b, std::min(n, b + kFillChunkElements)});
    }
  }
  if (!chunks.empty()) {
    ThreadPool::Global().ParallelRun(chunks.size(), [&](std::size_t i) {
      FillRange(*chunks[i].fill, chunks[i].begin, chunks[i].end);
    });
  }
  return w;
}

}  // namespace speedllm::llama

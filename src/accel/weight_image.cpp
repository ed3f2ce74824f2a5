#include "accel/weight_image.hpp"

#include <algorithm>
#include <string>

#include "common/threadpool.hpp"
#include "llama/kernels.hpp"

namespace speedllm::accel {

namespace {

/// Largest group size <= 64 that divides k (so every weight row holds
/// whole quantization groups).
std::int32_t PickGroupSize(std::int64_t k) {
  for (std::int32_t g = static_cast<std::int32_t>(std::min<std::int64_t>(64, k));
       g > 1; --g) {
    if (k % g == 0) return g;
  }
  return 1;
}

}  // namespace

StatusOr<WeightImage> WeightImage::Build(const Program& program,
                                         const llama::Weights& weights) {
  const auto& dg = program.dg;
  const auto& g = dg.graph;
  const std::size_t layers = dg.layers.size();
  for (const auto* per_layer :
       {&weights.rms_att, &weights.wq, &weights.wk, &weights.wv, &weights.wo,
        &weights.rms_ffn, &weights.w1, &weights.w2, &weights.w3}) {
    if (per_layer->size() != layers) {
      return InvalidArgument("weights hold " +
                             std::to_string(per_layer->size()) +
                             " layers; the program has " +
                             std::to_string(layers));
    }
  }

  WeightImage image;
  image.tensors_.resize(g.values().size());
  image.matmuls_.resize(g.values().size());
  const auto set = [&](graph::ValueId v, const TensorF& t) {
    image.tensors_[static_cast<std::size_t>(v)] = t.span();
  };
  set(dg.token_embedding, weights.token_embedding);
  set(dg.rms_final, weights.rms_final);
  if (!program.model.shared_classifier) set(dg.wcls, weights.wcls);
  for (std::size_t l = 0; l < layers; ++l) {
    const auto& ids = dg.layers[l];
    set(ids.rms_att, weights.rms_att[l]);
    set(ids.wq, weights.wq[l]);
    set(ids.wk, weights.wk[l]);
    set(ids.wv, weights.wv[l]);
    set(ids.wo, weights.wo[l]);
    set(ids.rms_ffn, weights.rms_ffn[l]);
    set(ids.w1, weights.w1[l]);
    set(ids.w2, weights.w2[l]);
    set(ids.w3, weights.w3[l]);
  }
  for (const auto& v : g.values()) {
    if (v.kind != graph::ValueKind::kWeight) continue;
    const std::size_t got = image.tensor(v.id).size();
    if (got != static_cast<std::size_t>(v.elements)) {
      return InvalidArgument("weight " + v.name + " holds " +
                             std::to_string(got) + " floats; the program's " +
                             std::to_string(v.elements));
    }
  }

  // Every matmul weight once: its shape, then its packed floats.
  std::vector<const graph::Op*> matmul_ops;
  std::int64_t packed_floats = 0;
  for (const auto& op : g.ops()) {
    if (op.kind != graph::OpKind::kMatMul) continue;
    MatMulWeights& mw = image.matmuls_[static_cast<std::size_t>(op.inputs[0])];
    if (!mw.rows.empty()) continue;
    mw.rows = image.tensor(op.inputs[0]);
    if (mw.rows.size() != static_cast<std::size_t>(op.m * op.k)) {
      return InvalidArgument("matmul " + op.name + " is " +
                             std::to_string(op.m) + "x" + std::to_string(op.k) +
                             " but its weight holds " +
                             std::to_string(mw.rows.size()) + " floats");
    }
    matmul_ops.push_back(&op);
    mw.pooled = !program.exec.int8_weights &&
                op.m * op.k * static_cast<std::int64_t>(sizeof(float)) >=
                    kPoolSplitBytes;
    if (!program.exec.int8_weights && !mw.pooled) {
      packed_floats += llama::PackedMatMulFloats(op.m, op.k);
    }
  }

  image.packed_.resize(static_cast<std::size_t>(packed_floats));
  std::int64_t offset = 0;
  for (const graph::Op* op : matmul_ops) {
    MatMulWeights& mw = image.matmuls_[static_cast<std::size_t>(op->inputs[0])];
    if (program.exec.int8_weights) {
      auto qt = quant::Quantize(mw.rows, Shape{op->m, op->k},
                                PickGroupSize(op->k));
      if (!qt.ok()) return qt.status();
      mw.q = &image.quantized_.emplace(op->inputs[0], std::move(qt).value())
                  .first->second;
    } else if (!mw.pooled) {
      const std::int64_t floats = llama::PackedMatMulFloats(op->m, op->k);
      std::span<float> pk{image.packed_.data() + offset,
                          static_cast<std::size_t>(floats)};
      llama::PackMatMulWeights(pk, mw.rows, op->m, op->k);
      mw.packed = pk;
      offset += floats;
    }
  }
  return image;
}

}  // namespace speedllm::accel

#include "graph/graph.hpp"

#include <cassert>

namespace speedllm::graph {

std::string_view OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kEmbedLookup: return "embed";
    case OpKind::kRmsNorm: return "rmsnorm";
    case OpKind::kMatMul: return "matmul";
    case OpKind::kRope: return "rope";
    case OpKind::kKvWrite: return "kv_write";
    case OpKind::kAttention: return "attention";
    case OpKind::kAttScores: return "att_scores";
    case OpKind::kSoftmax: return "softmax";
    case OpKind::kAttMix: return "att_mix";
    case OpKind::kSilu: return "silu";
    case OpKind::kEltAdd: return "add";
    case OpKind::kEltMul: return "mul";
  }
  return "?";
}

ValueId Graph::AddValue(std::string name, ValueKind kind, DType dtype,
                        std::int64_t elements) {
  Value v;
  v.id = static_cast<ValueId>(values_.size());
  v.name = std::move(name);
  v.kind = kind;
  v.dtype = dtype;
  v.elements = elements;
  values_.push_back(std::move(v));
  return values_.back().id;
}

OpId Graph::AddOp(Op op) {
  op.id = static_cast<OpId>(ops_.size());
  ops_.push_back(std::move(op));
  return ops_.back().id;
}

Status Graph::Validate() const {
  std::vector<OpId> producer(values_.size(), -1);
  for (const Op& op : ops_) {
    for (ValueId in : op.inputs) {
      if (in < 0 || in >= static_cast<ValueId>(values_.size())) {
        return Internal("op " + op.name + " reads invalid value id " +
                        std::to_string(in));
      }
      const Value& v = values_[in];
      bool external = v.kind == ValueKind::kWeight ||
                      v.kind == ValueKind::kKvCache;
      if (!external && producer[in] == -1) {
        return Internal("op " + op.name + " reads activation '" + v.name +
                        "' before it is produced (not topologically sorted)");
      }
    }
    for (ValueId out : op.outputs) {
      if (out < 0 || out >= static_cast<ValueId>(values_.size())) {
        return Internal("op " + op.name + " writes invalid value id " +
                        std::to_string(out));
      }
      if (values_[out].kind == ValueKind::kWeight) {
        return Internal("op " + op.name + " writes weight '" +
                        values_[out].name + "'");
      }
      if (values_[out].kind != ValueKind::kKvCache) {
        if (producer[out] != -1) {
          return Internal("value '" + values_[out].name +
                          "' produced twice (ops " +
                          std::to_string(producer[out]) + " and " +
                          std::to_string(op.id) + ")");
        }
        producer[out] = op.id;
      }
    }
  }
  return Status::Ok();
}

OpId Graph::Producer(ValueId v) const {
  for (const Op& op : ops_) {
    for (ValueId out : op.outputs) {
      if (out == v) return op.id;
    }
  }
  return -1;
}

OpId Graph::LastConsumer(ValueId v) const {
  OpId last = -1;
  for (const Op& op : ops_) {
    for (ValueId in : op.inputs) {
      if (in == v) last = op.id;
    }
  }
  return last;
}

DecodeGraph BuildDecodeGraph(const llama::ModelConfig& config) {
  assert(config.Validate().ok());
  DecodeGraph dg;
  dg.config = config;
  Graph& g = dg.graph;

  const std::int64_t dim = config.dim;
  const std::int64_t hidden = config.hidden_dim;
  const std::int64_t kv_dim = config.kv_dim();
  const std::int64_t vocab = config.vocab_size;
  const std::int64_t seq = config.seq_len;
  const std::int32_t heads = config.n_heads;
  const std::int32_t head_dim = config.head_dim();

  auto weight = [&](std::string name, std::int64_t elements) {
    return g.AddValue(std::move(name), ValueKind::kWeight, DType::kF32,
                      elements);
  };
  auto act = [&](std::string name, std::int64_t elements) {
    return g.AddValue(std::move(name), ValueKind::kActivation, DType::kF32,
                      elements);
  };

  dg.token_embedding = weight("tok_emb", vocab * dim);
  dg.rms_final = weight("rms_final", dim);
  dg.wcls = config.shared_classifier ? dg.token_embedding
                                     : weight("wcls", vocab * dim);

  // Embedding lookup produces the initial residual stream.
  ValueId x = act("x.embed", dim);
  {
    Op op;
    op.kind = OpKind::kEmbedLookup;
    op.name = "embed";
    op.inputs = {dg.token_embedding};
    op.outputs = {x};
    op.m = dim;
    g.AddOp(std::move(op));
  }

  auto matmul = [&](std::string name, std::int32_t layer, ValueId w,
                    ValueId in, std::int64_t m, std::int64_t k,
                    std::string out_name) {
    ValueId out = act(std::move(out_name), m);
    Op op;
    op.kind = OpKind::kMatMul;
    op.name = std::move(name);
    op.layer = layer;
    op.inputs = {w, in};
    op.outputs = {out};
    op.m = m;
    op.k = k;
    g.AddOp(std::move(op));
    return out;
  };

  dg.layers.reserve(config.n_layers);
  for (std::int32_t l = 0; l < config.n_layers; ++l) {
    std::string p = "l";
    p += std::to_string(l);
    p += '.';
    LayerValueIds ids;
    ids.rms_att = weight(p + "rms_att", dim);
    ids.wq = weight(p + "wq", dim * dim);
    ids.wk = weight(p + "wk", kv_dim * dim);
    ids.wv = weight(p + "wv", kv_dim * dim);
    ids.wo = weight(p + "wo", dim * dim);
    ids.rms_ffn = weight(p + "rms_ffn", dim);
    ids.w1 = weight(p + "w1", hidden * dim);
    ids.w2 = weight(p + "w2", dim * hidden);
    ids.w3 = weight(p + "w3", hidden * dim);
    ids.k_cache = g.AddValue(p + "k_cache", ValueKind::kKvCache, DType::kF32,
                             seq * kv_dim);
    ids.v_cache = g.AddValue(p + "v_cache", ValueKind::kKvCache, DType::kF32,
                             seq * kv_dim);

    // Attention block.
    ValueId xb = act(p + "xb.att", dim);
    {
      Op op;
      op.kind = OpKind::kRmsNorm;
      op.name = p + "rmsnorm.att";
      op.layer = l;
      op.inputs = {x, ids.rms_att};
      op.outputs = {xb};
      op.m = dim;
      g.AddOp(std::move(op));
    }
    ValueId q = matmul(p + "matmul.q", l, ids.wq, xb, dim, dim, p + "q");
    ValueId k = matmul(p + "matmul.k", l, ids.wk, xb, kv_dim, dim, p + "k");
    ValueId v = matmul(p + "matmul.v", l, ids.wv, xb, kv_dim, dim, p + "v");

    ValueId q_rot = act(p + "q.rot", dim);
    ValueId k_rot = act(p + "k.rot", kv_dim);
    {
      Op op;
      op.kind = OpKind::kRope;
      op.name = p + "rope";
      op.layer = l;
      op.inputs = {q, k};
      op.outputs = {q_rot, k_rot};
      op.m = dim + kv_dim;
      op.head_dim = head_dim;
      g.AddOp(std::move(op));
    }
    {
      Op op;
      op.kind = OpKind::kKvWrite;
      op.name = p + "kv_write";
      op.layer = l;
      op.inputs = {k_rot, v};
      op.outputs = {ids.k_cache, ids.v_cache};
      op.m = 2 * kv_dim;
      g.AddOp(std::move(op));
    }

    // Decomposed attention (the fusion pass may group these three).
    ValueId scores = act(p + "att.scores", static_cast<std::int64_t>(heads) * seq);
    {
      Op op;
      op.kind = OpKind::kAttScores;
      op.name = p + "att.scores";
      op.layer = l;
      op.inputs = {q_rot, ids.k_cache};
      op.outputs = {scores};
      op.n_heads = heads;
      op.head_dim = head_dim;
      op.m = static_cast<std::int64_t>(heads) * seq;
      g.AddOp(std::move(op));
    }
    ValueId probs = act(p + "att.probs", static_cast<std::int64_t>(heads) * seq);
    {
      Op op;
      op.kind = OpKind::kSoftmax;
      op.name = p + "att.softmax";
      op.layer = l;
      op.inputs = {scores};
      op.outputs = {probs};
      op.n_heads = heads;
      op.m = static_cast<std::int64_t>(heads) * seq;
      g.AddOp(std::move(op));
    }
    ValueId att_out = act(p + "att.out", dim);
    {
      Op op;
      op.kind = OpKind::kAttMix;
      op.name = p + "att.mix";
      op.layer = l;
      op.inputs = {probs, ids.v_cache};
      op.outputs = {att_out};
      op.n_heads = heads;
      op.head_dim = head_dim;
      op.m = dim;
      g.AddOp(std::move(op));
    }

    ValueId xo = matmul(p + "matmul.o", l, ids.wo, att_out, dim, dim, p + "xo");
    ValueId x_att = act(p + "x.att", dim);
    {
      Op op;
      op.kind = OpKind::kEltAdd;
      op.name = p + "residual.att";
      op.layer = l;
      op.inputs = {x, xo};
      op.outputs = {x_att};
      op.m = dim;
      g.AddOp(std::move(op));
    }

    // FFN block.
    ValueId xb2 = act(p + "xb.ffn", dim);
    {
      Op op;
      op.kind = OpKind::kRmsNorm;
      op.name = p + "rmsnorm.ffn";
      op.layer = l;
      op.inputs = {x_att, ids.rms_ffn};
      op.outputs = {xb2};
      op.m = dim;
      g.AddOp(std::move(op));
    }
    ValueId hb = matmul(p + "matmul.w1", l, ids.w1, xb2, hidden, dim, p + "hb");
    ValueId hb3 = matmul(p + "matmul.w3", l, ids.w3, xb2, hidden, dim, p + "hb3");
    ValueId hs = act(p + "h.silu", hidden);
    {
      Op op;
      op.kind = OpKind::kSilu;
      op.name = p + "silu";
      op.layer = l;
      op.inputs = {hb};
      op.outputs = {hs};
      op.m = hidden;
      g.AddOp(std::move(op));
    }
    ValueId hg = act(p + "h.gated", hidden);
    {
      Op op;
      op.kind = OpKind::kEltMul;
      op.name = p + "gate";
      op.layer = l;
      op.inputs = {hs, hb3};
      op.outputs = {hg};
      op.m = hidden;
      g.AddOp(std::move(op));
    }
    ValueId xo2 = matmul(p + "matmul.w2", l, ids.w2, hg, dim, hidden, p + "xo2");
    ValueId x_ffn = act(p + "x.ffn", dim);
    {
      Op op;
      op.kind = OpKind::kEltAdd;
      op.name = p + "residual.ffn";
      op.layer = l;
      op.inputs = {x_att, xo2};
      op.outputs = {x_ffn};
      op.m = dim;
      g.AddOp(std::move(op));
    }
    x = x_ffn;
    dg.layers.push_back(ids);
  }

  // Final norm + classifier.
  ValueId xf = act("x.final", dim);
  {
    Op op;
    op.kind = OpKind::kRmsNorm;
    op.name = "rmsnorm.final";
    op.inputs = {x, dg.rms_final};
    op.outputs = {xf};
    op.m = dim;
    g.AddOp(std::move(op));
  }
  dg.logits = g.AddValue("logits", ValueKind::kOutput, DType::kF32, vocab);
  {
    Op op;
    op.kind = OpKind::kMatMul;
    op.name = "matmul.cls";
    op.inputs = {dg.wcls, xf};
    op.outputs = {dg.logits};
    op.m = vocab;
    op.k = dim;
    g.AddOp(std::move(op));
  }
  dg.x = x;
  return dg;
}

}  // namespace speedllm::graph

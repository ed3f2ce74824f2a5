#include "compiler/fusion.hpp"

#include <algorithm>
#include <cassert>

namespace speedllm::compiler {

using graph::Graph;
using graph::Op;
using graph::OpId;
using graph::OpKind;

namespace {

/// Fusion pattern matcher over the (topologically ordered) op list.
/// Patterns are expressed as op-kind sequences; because BuildDecodeGraph
/// emits each layer's ops contiguously in a fixed order, sequence
/// matching is exact, and we assert the dataflow actually chains.
struct Matcher {
  const std::vector<Op>& ops;
  std::size_t pos = 0;

  bool Done() const { return pos >= ops.size(); }
  const Op& Cur() const { return ops[pos]; }

  /// True if the kinds at the cursor match `kinds` exactly.
  bool LooksLike(std::initializer_list<OpKind> kinds) const {
    std::size_t p = pos;
    for (OpKind k : kinds) {
      if (p >= ops.size() || ops[p].kind != k) return false;
      ++p;
    }
    return true;
  }

  std::vector<OpId> Take(std::size_t n) {
    std::vector<OpId> ids;
    ids.reserve(n);
    for (std::size_t i = 0; i < n; ++i) ids.push_back(ops[pos++].id);
    return ids;
  }
};

}  // namespace

std::vector<FusedGroup> BuildFusionGroups(const Graph& graph,
                                          bool enable_fusion) {
  std::vector<FusedGroup> groups;
  auto add_group = [&](std::string name, std::vector<OpId> ids) {
    FusedGroup g;
    g.id = static_cast<std::int32_t>(groups.size());
    g.name = std::move(name);
    g.ops = std::move(ids);
    groups.push_back(std::move(g));
  };

  if (!enable_fusion) {
    for (const Op& op : graph.ops()) {
      add_group(op.name, {op.id});
    }
    return groups;
  }

  Matcher m{graph.ops()};
  while (!m.Done()) {
    const Op& cur = m.Cur();
    std::string layer_tag;
    if (cur.layer >= 0) {
      layer_tag = "l";
      layer_tag += std::to_string(cur.layer);
      layer_tag += '.';
    }
    // attn-qkv: rmsnorm, matmul q, matmul k, matmul v, rope, kv_write
    if (m.LooksLike({OpKind::kRmsNorm, OpKind::kMatMul, OpKind::kMatMul,
                     OpKind::kMatMul, OpKind::kRope, OpKind::kKvWrite})) {
      add_group(layer_tag + "fused.attn_qkv", m.Take(6));
      continue;
    }
    // attn-core: scores, softmax, mix, matmul o, residual add
    if (m.LooksLike({OpKind::kAttScores, OpKind::kSoftmax, OpKind::kAttMix,
                     OpKind::kMatMul, OpKind::kEltAdd})) {
      add_group(layer_tag + "fused.attn_core", m.Take(5));
      continue;
    }
    // ffn-gate: rmsnorm, matmul w1, matmul w3, silu, mul
    if (m.LooksLike({OpKind::kRmsNorm, OpKind::kMatMul, OpKind::kMatMul,
                     OpKind::kSilu, OpKind::kEltMul})) {
      add_group(layer_tag + "fused.ffn_gate", m.Take(5));
      continue;
    }
    // ffn-down: matmul w2, residual add
    if (m.LooksLike({OpKind::kMatMul, OpKind::kEltAdd})) {
      add_group(layer_tag + "fused.ffn_down", m.Take(2));
      continue;
    }
    // head: final rmsnorm + classifier matmul (end of program)
    if (m.LooksLike({OpKind::kRmsNorm, OpKind::kMatMul})) {
      add_group("fused.head", m.Take(2));
      continue;
    }
    // Anything else (embed lookup) is a singleton.
    add_group(cur.name, m.Take(1));
  }
  return groups;
}

Status ValidateGroups(const Graph& graph,
                      const std::vector<FusedGroup>& groups) {
  std::vector<bool> seen(graph.ops().size(), false);
  OpId expected = 0;
  for (const auto& g : groups) {
    if (g.ops.empty()) return Internal("empty fusion group " + g.name);
    for (OpId id : g.ops) {
      if (id != expected) {
        return Internal("fusion group " + g.name +
                        " not contiguous: expected op " +
                        std::to_string(expected) + ", got " +
                        std::to_string(id));
      }
      if (seen[id]) return Internal("op assigned to two groups");
      seen[id] = true;
      ++expected;
    }
  }
  if (expected != static_cast<OpId>(graph.ops().size())) {
    return Internal("fusion groups do not cover all ops");
  }
  return Status::Ok();
}

std::vector<bool> ValuesInternalToGroups(
    const Graph& graph, const std::vector<FusedGroup>& groups) {
  std::vector<std::int32_t> group_of(graph.ops().size(), -1);
  for (const auto& g : groups) {
    for (OpId id : g.ops) group_of[id] = g.id;
  }
  std::vector<std::int32_t> producer_group(graph.values().size(), -1);
  std::vector<bool> internal(graph.values().size(), false);
  for (const Op& op : graph.ops()) {
    for (graph::ValueId out : op.outputs) {
      if (graph.value(out).kind == graph::ValueKind::kActivation) {
        producer_group[out] = group_of[op.id];
        internal[out] = true;  // until proven otherwise
      }
    }
  }
  for (const Op& op : graph.ops()) {
    for (graph::ValueId in : op.inputs) {
      if (graph.value(in).kind != graph::ValueKind::kActivation) continue;
      if (producer_group[in] != group_of[op.id]) internal[in] = false;
    }
  }
  // Values never consumed (shouldn't exist) and graph outputs are not
  // internal: they must be materialized.
  for (const auto& v : graph.values()) {
    if (v.kind == graph::ValueKind::kOutput) internal[v.id] = false;
  }
  return internal;
}

}  // namespace speedllm::compiler

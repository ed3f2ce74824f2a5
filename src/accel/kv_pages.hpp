// SpeedLLM -- paged K/V addressing shared by the executor and the KV pool.
//
// K/V live in fixed-size physical blocks, vLLM PagedAttention style. One
// block holds `block_tokens` consecutive tokens laid out
// [layer][K|V][block_tokens][kv_dim] in fp32, so a whole block is one
// contiguous span (copy-on-write is one memcpy) and one (layer, K|V)
// plane of a block is a dense [block_tokens, kv_dim] matrix the attention
// loops walk row by row. A sequence's page table lists where each of its
// blocks starts: token position `pos` is row `pos % block_tokens` of
// block `blocks[pos / block_tokens]`. The blocks may sit anywhere, so a
// store can keep them in fixed chunks that never move.
#pragma once

#include <cstdint>
#include <span>

namespace speedllm::accel {

/// Geometry of one physical K/V block.
struct KvBlockLayout {
  /// Transformer layers (each stores one K and one V plane per block).
  std::int64_t n_layers = 0;
  /// Elements of one K (or V) row: n_kv_heads * head_dim.
  std::int64_t kv_dim = 0;
  /// Tokens per block.
  std::int64_t block_tokens = 0;

  /// fp32 elements one block occupies.
  std::int64_t block_floats() const {
    return 2 * n_layers * block_tokens * kv_dim;
  }
  /// fp32 elements one token's K and V occupy across all layers.
  std::int64_t row_floats() const { return 2 * n_layers * kv_dim; }
  /// Offset of row `row` of plane (`layer`, `kv`; 0 = K, 1 = V) inside a
  /// block.
  std::int64_t Offset(std::int64_t layer, std::int64_t kv,
                      std::int64_t row) const {
    return ((layer * 2 + kv) * block_tokens + row) * kv_dim;
  }
};

/// One sequence's K/V as a forward pass sees it: where each of its blocks
/// starts, in token order.
struct KvPages {
  /// Geometry every block shares.
  KvBlockLayout layout;
  /// Start of each block, in token order.
  std::span<float* const> blocks;

  /// Start of the `i`-th block of the table.
  float* block(std::size_t i) const { return blocks[i]; }
  /// Tokens the table can address.
  std::int64_t capacity_tokens() const {
    return static_cast<std::int64_t>(blocks.size()) * layout.block_tokens;
  }
};

}  // namespace speedllm::accel

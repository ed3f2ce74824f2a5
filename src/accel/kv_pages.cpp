#include "accel/kv_pages.hpp"

#include <cstring>

namespace speedllm::accel {

namespace {

/// Runs `copy(paged, row_offset, bytes)` for every (layer, K|V) plane of
/// every token in [begin, end): `paged` is the plane's row inside its
/// block, `row_offset` the matching slot in the token-major rows.
template <typename Copy>
void ForEachKvPlane(const KvPages& pages, std::int64_t begin, std::int64_t end,
                    Copy copy) {
  const KvBlockLayout& l = pages.layout;
  const std::size_t bytes = static_cast<std::size_t>(l.kv_dim) * sizeof(float);
  for (std::int64_t pos = begin; pos < end; ++pos) {
    float* blk = pages.block(static_cast<std::size_t>(pos / l.block_tokens));
    const std::int64_t row = pos % l.block_tokens;
    const std::int64_t base = (pos - begin) * l.row_floats();
    for (std::int64_t layer = 0; layer < l.n_layers; ++layer) {
      for (std::int64_t kv = 0; kv < 2; ++kv) {
        copy(blk + l.Offset(layer, kv, row),
             base + (layer * 2 + kv) * l.kv_dim, bytes);
      }
    }
  }
}

}  // namespace

void GatherKvRows(const KvPages& pages, std::int64_t begin, std::int64_t end,
                  float* rows) {
  ForEachKvPlane(pages, begin, end,
                 [rows](float* paged, std::int64_t at, std::size_t bytes) {
                   std::memcpy(rows + at, paged, bytes);
                 });
}

void ScatterKvRows(const KvPages& pages, std::int64_t begin, std::int64_t end,
                   const float* rows) {
  ForEachKvPlane(pages, begin, end,
                 [rows](float* paged, std::int64_t at, std::size_t bytes) {
                   std::memcpy(paged, rows + at, bytes);
                 });
}

}  // namespace speedllm::accel

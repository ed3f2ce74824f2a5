#include "llama/kernels.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#if defined(__SSE2__)
#include <xmmintrin.h>
#endif

namespace speedllm::llama {

namespace {

// Weight rows per packed block (two SSE vectors per column).
constexpr std::int64_t kBlockRows = 8;

// Weight bytes a pooled MatMulRows task aims to stream: a run of
// consecutive blocks, long enough that each block's successor is the
// same thread's to prefetch (docs/ARCHITECTURE.md, "Pool split").
constexpr std::int64_t kTaskBytes = 64 * 1024;

/// Output rows [begin, end) of out = W x for one activation row, each as
/// one sequential sum over ascending j.
void MatMulRowsScalar(float* out, const float* w, const float* x,
                      std::int64_t n, std::int64_t begin, std::int64_t end) {
  for (std::int64_t i = begin; i < end; ++i) {
    const float* wrow = w + i * n;
    float acc = 0.0f;
    for (std::int64_t j = 0; j < n; ++j) acc += wrow[j] * x[j];
    out[i] = acc;
  }
}

#if defined(__SSE2__)
/// Prefetches the two cache lines of the block at `next` that match
/// 4-column step j of the current block: over the n / 4 steps that is the
/// block's 8 n floats, all of them before the loop reaches it.
inline void PrefetchStep(const float* next, std::int64_t j) {
  _mm_prefetch(reinterpret_cast<const char*>(next + 8 * j), _MM_HINT_T0);
  _mm_prefetch(reinterpret_cast<const char*>(next + 8 * j + 16), _MM_HINT_T0);
}
#endif

/// Packs weight rows [0, 8) of `w` column by column: pk[8 j + k] =
/// w[k][j], so one column of the block is two adjacent vectors. A
/// non-null `next` is the following whole block, prefetched meanwhile.
void PackBlock(float* pk, const float* w, std::int64_t n,
               const float* next) {
  std::int64_t j = 0;
#if defined(__SSE2__)
  for (; j + 4 <= n; j += 4) {
    if (next != nullptr) PrefetchStep(next, j);
    __m128 lo[4], hi[4];
    for (int k = 0; k < 4; ++k) {
      lo[k] = _mm_loadu_ps(w + k * n + j);
      hi[k] = _mm_loadu_ps(w + (k + 4) * n + j);
    }
    // After the transposes lo[t] / hi[t] hold column j+t of the two
    // four-row halves.
    _MM_TRANSPOSE4_PS(lo[0], lo[1], lo[2], lo[3]);
    _MM_TRANSPOSE4_PS(hi[0], hi[1], hi[2], hi[3]);
    for (int t = 0; t < 4; ++t) {
      _mm_storeu_ps(pk + 8 * (j + t), lo[t]);
      _mm_storeu_ps(pk + 8 * (j + t) + 4, hi[t]);
    }
  }
#else
  (void)next;
#endif
  for (; j < n; ++j) {
    for (int k = 0; k < 8; ++k) pk[8 * j + k] = w[k * n + j];
  }
}

#if defined(__SSE2__)

/// One activation row against weight rows [0, 8) of `w`: each lane is
/// one row's accumulator and adds w[k][j] * x[j] in ascending j with a
/// separate multiply and add, transposing the block four columns at a
/// time in registers, so every output is bit-identical to
/// MatMulRowsScalar. A non-null `next` is the following whole block,
/// prefetched meanwhile.
void BlockTimesRow(float* out, const float* w, const float* x,
                   std::int64_t n, const float* next) {
  const std::int64_t n4 = n / 4 * 4;
  __m128 acc_lo = _mm_setzero_ps();  // rows 0 .. 3
  __m128 acc_hi = _mm_setzero_ps();  // rows 4 .. 7
  for (std::int64_t j = 0; j < n4; j += 4) {
    if (next != nullptr) PrefetchStep(next, j);
    // After the transposes lo[t] / hi[t] hold column j+t of the two
    // four-row halves.
    __m128 lo[4], hi[4];
    for (int k = 0; k < 4; ++k) {
      lo[k] = _mm_loadu_ps(w + k * n + j);
      hi[k] = _mm_loadu_ps(w + (k + 4) * n + j);
    }
    _MM_TRANSPOSE4_PS(lo[0], lo[1], lo[2], lo[3]);
    _MM_TRANSPOSE4_PS(hi[0], hi[1], hi[2], hi[3]);
    for (int t = 0; t < 4; ++t) {
      const __m128 xt = _mm_set1_ps(x[j + t]);
      acc_lo = _mm_add_ps(acc_lo, _mm_mul_ps(lo[t], xt));
      acc_hi = _mm_add_ps(acc_hi, _mm_mul_ps(hi[t], xt));
    }
  }
  float acc[8];
  _mm_storeu_ps(acc, acc_lo);
  _mm_storeu_ps(acc + 4, acc_hi);
  for (int k = 0; k < 8; ++k) {
    const float* wrow = w + k * n;
    for (std::int64_t j = n4; j < n; ++j) acc[k] += wrow[j] * x[j];
    out[k] = acc[k];
  }
}

/// R activation rows against one packed block: each lane is one (row,
/// output) accumulator adding w[k][j] * x[r][j] in ascending j with a
/// separate multiply and add, so it is bit-identical to
/// MatMulRowsScalar.
template <int R>
void BlockTimesRows(float* out, std::int64_t d, const float* pk,
                    const float* x, std::int64_t n) {
  // The row loops unroll so the accumulators live in registers.
  __m128 lo[R], hi[R];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) lo[r] = hi[r] = _mm_setzero_ps();
  for (std::int64_t j = 0; j < n; ++j) {
    const __m128 wl = _mm_loadu_ps(pk + 8 * j);
    const __m128 wh = _mm_loadu_ps(pk + 8 * j + 4);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m128 xr = _mm_set1_ps(x[r * n + j]);
      lo[r] = _mm_add_ps(lo[r], _mm_mul_ps(wl, xr));
      hi[r] = _mm_add_ps(hi[r], _mm_mul_ps(wh, xr));
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
    _mm_storeu_ps(out + r * d, lo[r]);
    _mm_storeu_ps(out + r * d + 4, hi[r]);
  }
}

/// One activation row against B consecutive packed blocks: one broadcast
/// of x[j] feeds all 2B accumulators, each adding w[k][j] * x[j] in
/// ascending j with a separate multiply and add, so every output is
/// bit-identical to MatMulRowsScalar.
template <int B>
void BlocksTimesRow(float* out, const float* pk, const float* x,
                    std::int64_t n) {
  const std::int64_t stride = kBlockRows * n;
  __m128 lo[B], hi[B];
#pragma GCC unroll 4
  for (int b = 0; b < B; ++b) lo[b] = hi[b] = _mm_setzero_ps();
  for (std::int64_t j = 0; j < n; ++j) {
    const __m128 xj = _mm_set1_ps(x[j]);
#pragma GCC unroll 4
    for (int b = 0; b < B; ++b) {
      const float* p = pk + b * stride + 8 * j;
      lo[b] = _mm_add_ps(lo[b], _mm_mul_ps(_mm_loadu_ps(p), xj));
      hi[b] = _mm_add_ps(hi[b], _mm_mul_ps(_mm_loadu_ps(p + 4), xj));
    }
  }
#pragma GCC unroll 4
  for (int b = 0; b < B; ++b) {
    _mm_storeu_ps(out + 8 * b, lo[b]);
    _mm_storeu_ps(out + 8 * b + 4, hi[b]);
  }
}

/// Every activation row against one packed block, four rows at a time.
void PackedBlockTimesRows(float* out, std::int64_t d, const float* pk,
                          const float* x, std::int64_t rows, std::int64_t n) {
  std::int64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    BlockTimesRows<4>(out + r * d, d, pk, x + r * n, n);
  }
  float* o = out + r * d;
  const float* xr = x + r * n;
  switch (rows - r) {
    case 3: BlockTimesRows<3>(o, d, pk, xr, n); break;
    case 2: BlockTimesRows<2>(o, d, pk, xr, n); break;
    case 1: BlockTimesRows<1>(o, d, pk, xr, n); break;
    default: break;
  }
}

#endif  // __SSE2__

/// Output rows [begin, end) of out = W x for every activation row. Under
/// SSE2 one activation row transposes each block of eight weight rows in
/// registers; several rows pack each block once and sweep it four rows
/// at a time (packing is a second pass over the block, which pays only
/// when rows share it). Either way the next whole block inside
/// [begin, end) is prefetched while the current one is read: the
/// hardware prefetcher does not follow eight 4n-byte rows. The rows past
/// the last whole block run MatMulRowsScalar.
void MatMulBlock(float* out, const float* w, const float* x,
                 std::int64_t rows, std::int64_t d, std::int64_t n,
                 std::int64_t begin, std::int64_t end) {
  std::int64_t i = begin;
#if defined(__SSE2__)
  auto next = [&](std::int64_t b) {
    return b + 2 * kBlockRows <= end ? w + (b + kBlockRows) * n : nullptr;
  };
  if (rows == 1) {
    for (; i + kBlockRows <= end; i += kBlockRows) {
      BlockTimesRow(out + i, w + i * n, x, n, next(i));
    }
  } else {
    thread_local std::vector<float> pk_buf;
    pk_buf.resize(static_cast<std::size_t>(kBlockRows * n));
    float* pk = pk_buf.data();
    for (; i + kBlockRows <= end; i += kBlockRows) {
      PackBlock(pk, w + i * n, n, next(i));
      PackedBlockTimesRows(out + i, d, pk, x, rows, n);
    }
  }
#endif
  for (std::int64_t r = 0; r < rows; ++r) {
    MatMulRowsScalar(out + r * d, w, x + r * n, n, i, end);
  }
}

}  // namespace

void MatMul(std::span<float> out, std::span<const float> w,
            std::span<const float> x, std::int64_t d, std::int64_t n,
            ThreadPool* pool) {
  MatMulRows(out, w, x, 1, d, n, pool);
}

void MatMulRows(std::span<float> out, std::span<const float> w,
                std::span<const float> x, std::int64_t rows, std::int64_t d,
                std::int64_t n, ThreadPool* pool) {
  assert(out.size() == static_cast<std::size_t>(rows * d));
  assert(w.size() == static_cast<std::size_t>(d * n));
  assert(x.size() == static_cast<std::size_t>(rows * n));
  if (pool == nullptr || d == 0 || n == 0) {
    MatMulBlock(out.data(), w.data(), x.data(), rows, d, n, 0, d);
    return;
  }
  // Each task is a run of consecutive blocks holding about kTaskBytes of
  // weights, cut shorter so there are at least two tasks per thread;
  // tasks are picked up dynamically, so a thread the host deschedules
  // takes fewer runs instead of holding up the rest.
  const std::int64_t blocks = (d + kBlockRows - 1) / kBlockRows;
  const std::int64_t block_bytes =
      kBlockRows * n * static_cast<std::int64_t>(sizeof(float));
  const std::int64_t min_tasks = 2 * std::int64_t{pool->num_threads()};
  const std::int64_t per_task = std::max<std::int64_t>(
      1, std::min(kTaskBytes / block_bytes, blocks / min_tasks));
  const std::int64_t task_rows = per_task * kBlockRows;
  const std::int64_t tasks = (blocks + per_task - 1) / per_task;
  pool->ParallelRun(static_cast<std::size_t>(tasks), [&](std::size_t t) {
    const std::int64_t i = static_cast<std::int64_t>(t) * task_rows;
    MatMulBlock(out.data(), w.data(), x.data(), rows, d, n, i,
                std::min(d, i + task_rows));
  });
}

std::int64_t PackedMatMulFloats(std::int64_t d, std::int64_t n) {
  return d / kBlockRows * kBlockRows * n;
}

void PackMatMulWeights(std::span<float> pk, std::span<const float> w,
                       std::int64_t d, std::int64_t n) {
  assert(pk.size() == static_cast<std::size_t>(PackedMatMulFloats(d, n)));
  assert(w.size() == static_cast<std::size_t>(d * n));
  for (std::int64_t i = 0; i + kBlockRows <= d; i += kBlockRows) {
    PackBlock(pk.data() + i * n, w.data() + i * n, n, nullptr);
  }
}

void MatMulRowsPacked(std::span<float> out, std::span<const float> packed,
                      std::span<const float> w, std::span<const float> x,
                      std::int64_t rows, std::int64_t d, std::int64_t n) {
  assert(out.size() == static_cast<std::size_t>(rows * d));
  assert(packed.size() == static_cast<std::size_t>(PackedMatMulFloats(d, n)));
  assert(w.size() == static_cast<std::size_t>(d * n));
  assert(x.size() == static_cast<std::size_t>(rows * n));
  std::int64_t i = 0;
#if defined(__SSE2__)
  const std::int64_t whole = d / kBlockRows * kBlockRows;
  const float* pk = packed.data();
  if (rows == 1) {
    for (; i + 4 * kBlockRows <= whole; i += 4 * kBlockRows) {
      BlocksTimesRow<4>(out.data() + i, pk + i * n, x.data(), n);
    }
    float* o = out.data() + i;
    const float* p = pk + i * n;
    switch ((whole - i) / kBlockRows) {
      case 3: BlocksTimesRow<3>(o, p, x.data(), n); break;
      case 2: BlocksTimesRow<2>(o, p, x.data(), n); break;
      case 1: BlocksTimesRow<1>(o, p, x.data(), n); break;
      default: break;
    }
  } else {
    for (std::int64_t b = 0; b < whole; b += kBlockRows) {
      PackedBlockTimesRows(out.data() + b, d, pk + b * n, x.data(), rows, n);
    }
  }
  i = whole;
#else
  (void)packed;
#endif
  for (std::int64_t r = 0; r < rows; ++r) {
    MatMulRowsScalar(out.data() + r * d, w.data(), x.data() + r * n, n, i, d);
  }
}

void RmsNorm(std::span<float> out, std::span<const float> x,
             std::span<const float> weight) {
  assert(out.size() == x.size() && x.size() == weight.size());
  double ss = 0.0;
  for (float v : x) ss += static_cast<double>(v) * v;
  float inv_rms = 1.0f / std::sqrt(static_cast<float>(ss / x.size()) + 1e-5f);
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = weight[i] * (inv_rms * x[i]);
  }
}

void Softmax(std::span<float> x) {
  if (x.empty()) return;
  float max_val = x[0];
  for (float v : x) max_val = std::max(max_val, v);
  float sum = 0.0f;
  for (float& v : x) {
    v = std::exp(v - max_val);
    sum += v;
  }
  float inv = 1.0f / sum;
  for (float& v : x) v *= inv;
}

void Silu(std::span<float> x) {
  for (float& v : x) {
    v = v / (1.0f + std::exp(-v)) ;
  }
}

void AddInPlace(std::span<float> out, std::span<const float> a) {
  assert(out.size() == a.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] += a[i];
}

void MulInPlace(std::span<float> out, std::span<const float> a) {
  assert(out.size() == a.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] *= a[i];
}

void Rope(std::span<float> q, std::span<float> k, std::int32_t pos,
          std::int32_t head_dim) {
  assert(head_dim > 0 && head_dim % 2 == 0);
  // llama2.c: iterate over the flattened vector; rotation frequency
  // depends on the index within the head, so each head's head_dim / 2
  // rotations (cos, sin) are computed once and shared by q and k.
  thread_local std::vector<float> rot;
  rot.resize(static_cast<std::size_t>(head_dim));
  for (std::int32_t head_idx = 0; head_idx < head_dim; head_idx += 2) {
    float freq = 1.0f / std::pow(10000.0f, static_cast<float>(head_idx) /
                                               static_cast<float>(head_dim));
    float val = static_cast<float>(pos) * freq;
    rot[static_cast<std::size_t>(head_idx)] = std::cos(val);
    rot[static_cast<std::size_t>(head_idx) + 1] = std::sin(val);
  }
  const std::size_t hd = static_cast<std::size_t>(head_dim);
  auto rotate = [&](std::span<float> v) {
    for (std::size_t i = 0; i + 1 < v.size(); i += 2) {
      const std::size_t h = i % hd;
      const float fcr = rot[h], fci = rot[h + 1];
      float v0 = v[i], v1 = v[i + 1];
      v[i] = v0 * fcr - v1 * fci;
      v[i + 1] = v0 * fci + v1 * fcr;
    }
  };
  rotate(q);
  rotate(k);
}

void AttentionHead(std::span<float> out, std::span<const float> q,
                   const float* k_cache, const float* v_cache,
                   std::int32_t pos, std::int32_t head_dim,
                   std::int64_t stride, std::span<float> scores_scratch) {
  assert(out.size() == static_cast<std::size_t>(head_dim));
  assert(q.size() == static_cast<std::size_t>(head_dim));
  assert(scores_scratch.size() >= static_cast<std::size_t>(pos + 1));
  float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  std::span<float> scores = scores_scratch.subspan(0, pos + 1);
  for (std::int32_t t = 0; t <= pos; ++t) {
    const float* krow = k_cache + static_cast<std::int64_t>(t) * stride;
    float acc = 0.0f;
    for (std::int32_t i = 0; i < head_dim; ++i) acc += q[i] * krow[i];
    scores[t] = acc * scale;
  }
  Softmax(scores);
  for (std::int32_t i = 0; i < head_dim; ++i) out[i] = 0.0f;
  for (std::int32_t t = 0; t <= pos; ++t) {
    const float* vrow = v_cache + static_cast<std::int64_t>(t) * stride;
    float s = scores[t];
    for (std::int32_t i = 0; i < head_dim; ++i) out[i] += s * vrow[i];
  }
}

}  // namespace speedllm::llama

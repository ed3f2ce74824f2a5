#include "llama/kernels.hpp"

#include <cassert>
#include <cmath>

#if defined(__SSE2__)
#include <xmmintrin.h>
#endif

namespace speedllm::llama {

namespace {

/// Rows [begin, end) of out = W x, each as one sequential sum over
/// ascending j.
void MatMulRowsScalar(float* out, const float* w, const float* x,
                      std::int64_t n, std::int64_t begin, std::int64_t end) {
  for (std::int64_t i = begin; i < end; ++i) {
    const float* wrow = w + i * n;
    float acc = 0.0f;
    for (std::int64_t j = 0; j < n; ++j) acc += wrow[j] * x[j];
    out[i] = acc;
  }
}

/// Rows [begin, end) of out = W x. Under SSE2 eight rows share one pass
/// over x: each lane is one row's accumulator and adds w[r][j] * x[j] in
/// ascending j with a separate multiply and add, so every row's result
/// is bit-identical to MatMulRowsScalar.
void MatMulRows(float* out, const float* w, const float* x, std::int64_t n,
                std::int64_t begin, std::int64_t end) {
#if defined(__SSE2__)
  const std::int64_t n4 = n / 4 * 4;
  std::int64_t i = begin;
  for (; i + 8 <= end; i += 8) {
    const float* r = w + i * n;
    __m128 acc_lo = _mm_setzero_ps();  // rows i .. i+3
    __m128 acc_hi = _mm_setzero_ps();  // rows i+4 .. i+7
    for (std::int64_t j = 0; j < n4; j += 4) {
      // After the transposes lo[t] / hi[t] hold column j+t of the two
      // four-row halves.
      __m128 lo[4], hi[4];
      for (int k = 0; k < 4; ++k) {
        lo[k] = _mm_loadu_ps(r + k * n + j);
        hi[k] = _mm_loadu_ps(r + (k + 4) * n + j);
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
      const float* wrow = r + k * n;
      for (std::int64_t j = n4; j < n; ++j) acc[k] += wrow[j] * x[j];
      out[i + k] = acc[k];
    }
  }
  MatMulRowsScalar(out, w, x, n, i, end);
#else
  MatMulRowsScalar(out, w, x, n, begin, end);
#endif
}

}  // namespace

void MatMul(std::span<float> out, std::span<const float> w,
            std::span<const float> x, std::int64_t d, std::int64_t n,
            ThreadPool* pool) {
  assert(out.size() == static_cast<std::size_t>(d));
  assert(w.size() == static_cast<std::size_t>(d * n));
  assert(x.size() == static_cast<std::size_t>(n));
  auto rows = [&](std::int64_t begin, std::int64_t end) {
    MatMulRows(out.data(), w.data(), x.data(), n, begin, end);
  };
  if (pool != nullptr) {
    pool->ParallelFor(d, rows);
  } else {
    rows(0, d);
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
  assert(head_dim % 2 == 0);
  // llama2.c: iterate over the flattened vector; rotation frequency
  // depends on the index within the head.
  auto rotate = [&](std::span<float> v) {
    for (std::size_t i = 0; i + 1 < v.size(); i += 2) {
      std::int32_t head_idx = static_cast<std::int32_t>(i) % head_dim;
      float freq = 1.0f / std::pow(10000.0f,
                                   static_cast<float>(head_idx) /
                                       static_cast<float>(head_dim));
      float val = static_cast<float>(pos) * freq;
      float fcr = std::cos(val);
      float fci = std::sin(val);
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

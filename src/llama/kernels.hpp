// SpeedLLM -- the float CPU kernels behind the reference model.
//
// These are the ground-truth implementations the accelerator's functional
// results are validated against. matmul is parallelized over output rows
// with the shared thread pool; everything else is single-threaded (the
// vectors involved are a few hundred elements).
#pragma once

#include <cstdint>
#include <span>

#include "common/threadpool.hpp"

namespace speedllm::llama {

/// out[d] = W[d, n] * x[n]   (row-major W, the llama2.c convention).
/// Runs rows in parallel on `pool` (or serially when pool is null).
/// Each row is one sequential sum over ascending j, each product and
/// sum rounded on its own, so the result's bits do not depend on the
/// row blocking (8 rows per pass under SSE2), the thread split or the
/// ISA. The one-row case of MatMulRows.
void MatMul(std::span<float> out, std::span<const float> w,
            std::span<const float> x, std::int64_t d, std::int64_t n,
            ThreadPool* pool = nullptr);

/// out[r, i] = W[i, :] . x[r, :] for `rows` activation rows: out is
/// [rows x d], x is [rows x n], W is row-major [d x n]. Each block of
/// eight weight rows is read from memory once for all activation rows.
/// Every (row, output) is one sequential sum over ascending j with the
/// multiply and add rounded on their own, so out[r] is bit-identical to
/// MatMul(out[r], W, x[r]) whatever `rows`, the blocking, the thread
/// split or the ISA. With `pool`, runs of consecutive 8-row blocks (about
/// 64 KiB of weights each, at least two runs per thread) split across its
/// threads. Zero `rows` or `d` writes nothing; zero `n` writes zeros.
void MatMulRows(std::span<float> out, std::span<const float> w,
                std::span<const float> x, std::int64_t rows, std::int64_t d,
                std::int64_t n, ThreadPool* pool = nullptr);

/// Floats in the packed copy of a row-major [d x n] matrix: its whole
/// blocks of eight rows, (d / 8) * 8 * n.
std::int64_t PackedMatMulFloats(std::int64_t d, std::int64_t n);

/// Packs the whole 8-row blocks of row-major W [d x n] column by column:
/// pk[b * 8n + 8j + k] = W[8b + k][j] for b < d / 8. `pk` holds
/// PackedMatMulFloats(d, n) floats.
void PackMatMulWeights(std::span<float> pk, std::span<const float> w,
                       std::int64_t d, std::int64_t n);

/// MatMulRows off a packed copy of W: `packed` is PackMatMulWeights(w),
/// and `w` itself serves the rows past the last whole block. One row
/// broadcasts each x[j] to four blocks at a time; several rows sweep each
/// packed block four rows at a time; neither transposes anything per
/// call. Serial. out is bit-identical to MatMulRows(out, w, x, ...).
void MatMulRowsPacked(std::span<float> out, std::span<const float> packed,
                      std::span<const float> w, std::span<const float> x,
                      std::int64_t rows, std::int64_t d, std::int64_t n);

/// RMS normalization: out[i] = x[i] * weight[i] / rms(x), rms with eps 1e-5.
void RmsNorm(std::span<float> out, std::span<const float> x,
             std::span<const float> weight);

/// In-place numerically-stable softmax over x.
void Softmax(std::span<float> x);

/// SiLU (swish) activation applied elementwise in place.
void Silu(std::span<float> x);

/// out[i] += a[i] (residual add).
void AddInPlace(std::span<float> out, std::span<const float> a);

/// out[i] *= a[i] (SwiGLU gating).
void MulInPlace(std::span<float> out, std::span<const float> a);

/// Rotary position embedding applied to q (dim elements) and k (kv_dim
/// elements) at position `pos`, llama2 style: pairs (2i, 2i+1) within
/// each head rotated by theta = pos / 10000^(2i/head_dim).
void Rope(std::span<float> q, std::span<float> k, std::int32_t pos,
          std::int32_t head_dim);

/// Single-head causal attention for one query at position `pos`:
/// scores[t] = q . k_cache[t] / sqrt(head_dim) for t in [0, pos],
/// softmax, out = sum_t scores[t] * v_cache[t].
/// k_cache/v_cache rows are strided by `stride` floats per timestep.
void AttentionHead(std::span<float> out, std::span<const float> q,
                   const float* k_cache, const float* v_cache,
                   std::int32_t pos, std::int32_t head_dim,
                   std::int64_t stride, std::span<float> scores_scratch);

}  // namespace speedllm::llama

#include "quant/quant.hpp"

#include <cassert>
#include <cmath>

namespace speedllm::quant {

StatusOr<QuantizedTensor> Quantize(std::span<const float> x, Shape shape,
                                   std::int32_t group_size) {
  if (group_size <= 0) {
    return InvalidArgument("group_size must be positive");
  }
  if (x.size() != static_cast<std::size_t>(shape.num_elements())) {
    return InvalidArgument("data size does not match shape");
  }
  if (x.size() % static_cast<std::size_t>(group_size) != 0) {
    return InvalidArgument("group_size " + std::to_string(group_size) +
                           " does not divide element count " +
                           std::to_string(x.size()));
  }
  QuantizedTensor qt;
  qt.group_size = group_size;
  qt.shape = shape;
  qt.q.resize(x.size());
  qt.scales.resize(x.size() / static_cast<std::size_t>(group_size));
  for (std::size_t g = 0; g < qt.scales.size(); ++g) {
    const std::size_t base = g * static_cast<std::size_t>(group_size);
    float max_abs = 0.0f;
    for (std::int32_t i = 0; i < group_size; ++i) {
      max_abs = std::max(max_abs, std::fabs(x[base + i]));
    }
    float scale = max_abs / 127.0f;
    qt.scales[g] = scale;
    float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
    for (std::int32_t i = 0; i < group_size; ++i) {
      float scaled = x[base + i] * inv;
      qt.q[base + i] = static_cast<std::int8_t>(std::lrintf(scaled));
    }
  }
  return qt;
}

StatusOr<QuantizedTensor> Quantize(const TensorF& t, std::int32_t group_size) {
  return Quantize(t.span(), t.shape(), group_size);
}

void Dequantize(const QuantizedTensor& qt, std::span<float> out) {
  assert(out.size() == qt.q.size());
  const std::size_t gs = static_cast<std::size_t>(qt.group_size);
  for (std::size_t i = 0; i < qt.q.size(); ++i) {
    out[i] = static_cast<float>(qt.q[i]) * qt.scales[i / gs];
  }
}

float MaxQuantError(const QuantizedTensor& qt) {
  float max_scale = 0.0f;
  for (float s : qt.scales) max_scale = std::max(max_scale, s);
  return max_scale * 0.5f;
}

void MatMulQ8Rows(std::span<float> out, const QuantizedTensor& w,
                  std::span<const float> x, std::int64_t n,
                  std::int64_t row_begin, std::int64_t row_end) {
  assert(out.size() >= static_cast<std::size_t>(row_end));
  assert(w.q.size() >= static_cast<std::size_t>(row_end * n));
  assert(x.size() == static_cast<std::size_t>(n));
  assert(n % w.group_size == 0);
  const std::int64_t gs = w.group_size;
  for (std::int64_t i = row_begin; i < row_end; ++i) {
    const std::int8_t* wrow = w.q.data() + i * n;
    const float* srow = w.scales.data() + (i * n) / gs;
    float acc = 0.0f;
    for (std::int64_t g = 0; g < n / gs; ++g) {
      float gacc = 0.0f;
      const std::int8_t* wg = wrow + g * gs;
      const float* xg = x.data() + g * gs;
      for (std::int64_t j = 0; j < gs; ++j) {
        gacc += static_cast<float>(wg[j]) * xg[j];
      }
      acc += gacc * srow[g];
    }
    out[static_cast<std::size_t>(i)] = acc;
  }
}

void MatMulQ8(std::span<float> out, const QuantizedTensor& w,
              std::span<const float> x, std::int64_t d, std::int64_t n) {
  assert(out.size() == static_cast<std::size_t>(d));
  assert(w.q.size() == static_cast<std::size_t>(d * n));
  MatMulQ8Rows(out, w, x, n, 0, d);
}

}  // namespace speedllm::quant

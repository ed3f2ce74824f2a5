// SpeedLLM -- symmetric int8 group quantization.
//
// The accelerator supports a mixed-precision mode where weight matrices
// are stored in HBM as int8 with per-group fp32 scales (4x less HBM
// traffic, packed DSP MACs). The scheme matches llama2.c's runq:
// symmetric (zero-point-free) quantization over contiguous groups.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "common/tensor.hpp"

namespace speedllm::quant {

/// int8 payload + one fp32 scale per `group_size` consecutive elements.
struct QuantizedTensor {
  std::vector<std::int8_t> q;
  std::vector<float> scales;
  std::int32_t group_size = 64;
  Shape shape;

  std::uint64_t payload_bytes() const {
    return q.size() * sizeof(std::int8_t) + scales.size() * sizeof(float);
  }
};

/// Quantizes `x` into groups of `group_size` (must divide x.size()).
/// Each group's scale is max|x|/127, so the representable range is
/// symmetric and no element clips.
StatusOr<QuantizedTensor> Quantize(std::span<const float> x, Shape shape,
                                   std::int32_t group_size);

/// Convenience overload for a whole tensor.
StatusOr<QuantizedTensor> Quantize(const TensorF& t, std::int32_t group_size);

/// Dequantizes back to fp32.
void Dequantize(const QuantizedTensor& qt, std::span<float> out);

/// Worst-case absolute quantization error for one group scale:
/// scale / 2 (half a quantization step).
float MaxQuantError(const QuantizedTensor& qt);

/// out[d] = Wq[d, n] * x[n] with int8 weights and fp32 activations.
/// Accumulates int8*fp32 per group then applies the group scale --
/// the numerically faithful model of the accelerator's mixed datapath.
void MatMulQ8(std::span<float> out, const QuantizedTensor& w,
              std::span<const float> x, std::int64_t d, std::int64_t n);

/// Rows [row_begin, row_end) of MatMulQ8: out[i] for those rows only,
/// `out` indexed by absolute row. The one int8 row kernel behind
/// MatMulQ8 and the executor's int8 matmul tiles.
void MatMulQ8Rows(std::span<float> out, const QuantizedTensor& w,
                  std::span<const float> x, std::int64_t n,
                  std::int64_t row_begin, std::int64_t row_end);

}  // namespace speedllm::quant

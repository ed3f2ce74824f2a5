// SpeedLLM -- the weight image: one resident copy of a program's weights.
//
// A WeightImage is built once per engine and shared by every card's
// Executor. It holds spans of the caller's fp32 tensors and the copies
// the host kernels stream instead of the row-major matrices: for the
// fp32 datapath a column-interleaved copy of every matmul matrix below
// kPoolSplitBytes (llama::PackMatMulWeights; a larger one splits its
// output rows across ThreadPool::Global() and streams the row-major
// matrix, common/threadpool.hpp), for the int8 datapath the
// quantized matrices. Building it checks every tensor against the
// program's shapes, so a mismatch is an InvalidArgument here instead of
// an out-of-bounds read in a forward.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "accel/program.hpp"
#include "common/status.hpp"
#include "llama/weights.hpp"
#include "quant/quant.hpp"

namespace speedllm::accel {

/// The forms of one matmul weight matrix [m x k].
struct MatMulWeights {
  std::span<const float> rows;  ///< row-major fp32, the caller's tensor
  /// Whole 8-row blocks, column-interleaved; empty when pooled or int8.
  std::span<const float> packed;
  const quant::QuantizedTensor* q = nullptr;  ///< int8 datapath copy
  bool pooled = false;  ///< fp32 and at least kPoolSplitBytes
};

class WeightImage {
 public:
  /// Checks `weights` against `program`'s weight values and matmul
  /// shapes (InvalidArgument on any mismatch), then packs or quantizes
  /// every matmul matrix. `weights` must outlive the image.
  static StatusOr<WeightImage> Build(const Program& program,
                                     const llama::Weights& weights);

  /// Weight value `v`'s fp32 tensor (embedding table, norm gain, matrix).
  std::span<const float> tensor(graph::ValueId v) const {
    return tensors_[static_cast<std::size_t>(v)];
  }
  /// Weight value `v`'s matmul forms; `v` must be a matmul's weight.
  const MatMulWeights& matmul(graph::ValueId v) const {
    return matmuls_[static_cast<std::size_t>(v)];
  }

  /// Bytes of the packed fp32 copies.
  std::size_t packed_bytes() const { return packed_.size() * sizeof(float); }
  /// Number of quantized matrices (0 for an fp32 program).
  std::size_t quantized_matrices() const { return quantized_.size(); }

 private:
  WeightImage() = default;

  // Indexed by ValueId; empty for values that are not weights.
  std::vector<std::span<const float>> tensors_;
  std::vector<MatMulWeights> matmuls_;
  // Every packed matrix back to back.
  std::vector<float> packed_;
  // Node-based, so MatMulWeights::q stays valid when the image moves.
  std::map<graph::ValueId, quant::QuantizedTensor> quantized_;
};

}  // namespace speedllm::accel

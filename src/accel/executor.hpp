// SpeedLLM -- accelerator executor: functional simulation + cycle timing.
//
// Executes a compiled Program for one token at a time. Every kCompute
// instruction produces the real numeric result (using the same float
// kernels as the CPU reference, so fp32 runs are bit-exact), while every
// instruction is also scheduled onto the U280 timing model: serial
// stations (DMA engines, MPE, SFU, control) plus the HBM channel model.
// Energy is accumulated per activity and finalized per token.
//
// K/V are addressed through a block table (accel/kv_pages.hpp): the
// serving stack passes the KvBlockPool's pages of the sequence being
// run, so one executor serves every resident sequence of a card.
// Standalone callers use the executor's own one-block table of seq_len
// tokens through the same code path.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "accel/kv_pages.hpp"
#include "accel/program.hpp"
#include "common/status.hpp"
#include "common/tensor.hpp"
#include "hw/hbm.hpp"
#include "hw/power.hpp"
#include "hw/u280_config.hpp"
#include "llama/weights.hpp"
#include "quant/quant.hpp"
#include "sim/station.hpp"
#include "sim/trace.hpp"

namespace speedllm::accel {

/// Timing/energy results for one Forward() call.
struct TokenRunStats {
  sim::Cycles cycles = 0;
  double seconds = 0.0;
  double joules = 0.0;
  hw::EnergyBreakdown energy;
  std::uint64_t hbm_bytes = 0;
  std::uint64_t launches = 0;
  std::array<sim::Cycles, static_cast<std::size_t>(Unit::kCount)> unit_busy{};

  TokenRunStats& operator+=(const TokenRunStats& o);
};

class Executor {
 public:
  /// `weights` must match program.model and outlive the executor.
  Executor(const Program& program, const llama::Weights& weights,
           const hw::U280Config& u280);

  /// Clears the executor-owned K/V (start of a new standalone sequence).
  void ResetSequence();

  /// Runs the program for `token` at `pos` against the executor-owned
  /// one-block table of seq_len tokens. Returns the logits view (valid
  /// until the next Forward call). Timing/energy for this token land in
  /// last_stats(); totals accumulate until ResetStats().
  ///
  /// With `want_logits` false the classifier's tiles are still scheduled
  /// on the timing and energy model (last_stats() is unchanged) but not
  /// computed, and the returned span is empty. K/V and every later
  /// forward are the same either way.
  StatusOr<std::span<const float>> Forward(std::int32_t token,
                                           std::int32_t pos,
                                           bool want_logits = true);

  /// Runs the program for `token` at `pos` against `kv`: K/V of `pos`
  /// are written to row pos % block_tokens of block table[pos /
  /// block_tokens], and attention reads positions [0, pos] block by
  /// block. The accumulation order does not depend on the block size,
  /// so logits are bit-identical for every table holding the same K/V.
  /// `kv.layout` must match KvLayout(kv.layout.block_tokens) and the
  /// table must cover `pos`. `want_logits` is as above.
  StatusOr<std::span<const float>> Forward(std::int32_t token,
                                           std::int32_t pos,
                                           const KvPages& kv,
                                           bool want_logits = true);

  /// The block geometry this program's K/V takes at `block_tokens`
  /// tokens per block.
  KvBlockLayout KvLayout(std::int64_t block_tokens) const;

  const TokenRunStats& last_stats() const { return last_stats_; }
  const TokenRunStats& total_stats() const { return total_stats_; }
  void ResetStats();

  /// Enables span tracing for the next Forward call (test/bench use).
  void EnableTrace(bool on) { trace_.set_enabled(on); }
  const sim::TraceRecorder& trace() const { return trace_; }

  const Program& program() const { return *program_; }

 private:
  // Functional helpers.
  void ExecuteCompute(const Instr& instr, std::int32_t token,
                      std::int32_t pos, const KvPages& kv);
  TensorF& Buffer(graph::ValueId v);
  std::span<const float> WeightSpan(graph::ValueId v) const;

  // Scales a worst-case quantity by (pos+1)/seq_len for seq-scaled work.
  std::uint64_t SeqScale(std::uint64_t amount, bool scaled,
                         std::int32_t pos) const;

  const Program* program_;
  const llama::Weights* weights_;
  hw::U280Config u280_;

  // The op writing the logits (the classifier); skipped when a forward
  // wants no logits.
  graph::OpId logits_op_ = -1;
  // Weight value id -> flat fp32 span.
  std::map<graph::ValueId, std::span<const float>> weight_map_;
  // Quantized copies for the int8 datapath (built lazily at construction).
  std::map<graph::ValueId, quant::QuantizedTensor> quant_map_;

  // Activation storage indexed by ValueId (K/V caches live in KvPages).
  std::vector<TensorF> store_;
  // K/V cache ValueId -> plane index layer * 2 + (0 = K, 1 = V); -1 else.
  std::vector<std::int32_t> kv_plane_;
  // Standalone K/V: one block of seq_len tokens, allocated on first use.
  std::vector<float> own_kv_;
  std::int32_t own_table_[1] = {0};

  TokenRunStats last_stats_;
  TokenRunStats total_stats_;
  sim::TraceRecorder trace_;
};

}  // namespace speedllm::accel

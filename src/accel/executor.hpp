// SpeedLLM -- accelerator executor: functional simulation + cycle timing.
//
// Executes a compiled Program for a run of consecutive positions of one
// sequence. The two halves are independent:
//
//  - Timing. Every instruction is scheduled onto the U280 timing model:
//    serial stations (DMA engines, MPE, SFU, control) plus the HBM
//    channel model, with energy accumulated per activity. The result is a
//    pure function of (program, pos), so it is computed once per position
//    into a lazily filled table (TimingAt).
//  - Function. One pass walks the program op by op over all rows of the
//    run: each matmul streams its weights once for every row (the same
//    float kernels as the CPU reference, so fp32 runs are bit-exact),
//    while rope, the K/V write and attention run row by row in position
//    order.
//
// K/V are addressed through a block table (accel/kv_pages.hpp): the
// serving stack passes the KvBlockPool's pages of the sequence being
// run, so one executor serves every resident sequence of a card.
// Standalone callers use the executor's own one-block table of seq_len
// tokens through the same code path.
//
// A forward's activations live in an ExecutorWorkspace. Forward uses
// the executor's own; the serving stack runs Compute, the const
// functional half, on one of an engine-wide set, so forwards of distinct
// sequences run at once on distinct workspaces and a card's executor
// keeps no activation rows of its own.
//
// The weights come from a WeightImage (accel/weight_image.hpp): a
// serving session builds one and every card's executor reads it; a
// standalone executor builds its own.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "accel/kv_pages.hpp"
#include "accel/program.hpp"
#include "accel/weight_image.hpp"
#include "common/status.hpp"
#include "common/tensor.hpp"
#include "hw/hbm.hpp"
#include "hw/power.hpp"
#include "hw/u280_config.hpp"
#include "llama/weights.hpp"
#include "sim/station.hpp"
#include "sim/trace.hpp"

namespace speedllm::accel {

/// Timing/energy results for one position's forward.
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

/// Activation buffers of one forward in flight: the rows of every value
/// that is neither a weight nor a K/V cache. Empty until a forward runs
/// on it, which grows it to that forward's pass. Any executor of one
/// program may use it; two forwards may run at once only on distinct
/// workspaces.
class ExecutorWorkspace {
 private:
  friend class Executor;
  // One arena: value v holds rows_ rows of the executor's row_floats_[v]
  // floats (the logits one row) from base_[v].
  std::vector<float> arena_;
  std::vector<std::int64_t> base_;
  std::int64_t rows_ = 0;
};

class Executor {
 public:
  /// Builds the executor's own WeightImage of `weights`, which must
  /// outlive the executor. When the image cannot be built (weights that
  /// do not match the program), every Forward returns that error.
  Executor(const Program& program, const llama::Weights& weights,
           const hw::U280Config& u280);
  /// Reads `image`, which must be built for `program` and outlive the
  /// executor.
  Executor(const Program& program, const WeightImage& image,
           const hw::U280Config& u280);

  /// Clears the executor-owned K/V (start of a new standalone sequence).
  void ResetSequence();

  /// Runs the program for `tokens[r]` at position `pos0 + r`, r in
  /// order, against `kv`: K/V of position p are written to row p %
  /// block_tokens of block kv.blocks[p / block_tokens], and row r attends
  /// over positions [0, pos0 + r] block by block, so every row sees
  /// exactly the K/V a row-by-row run would. The accumulation order
  /// depends neither on the block size nor on the rows run together, so
  /// K/V and logits are bit-identical for every table holding the same
  /// K/V and every split of a sequence into runs.
  ///
  /// Returns the last row's logits (valid until the next Forward call),
  /// or an empty span when `want_last_logits` is false; earlier rows'
  /// logits are never computed. Each row's TimingAt() is added to
  /// total_stats() in order and last_stats() is the last row's, whether
  /// or not logits are computed.
  ///
  /// Every argument is checked before any K/V row is written: an
  /// executor without weights returns its image's build error, an empty
  /// run or a token outside the vocabulary is InvalidArgument, a
  /// position past seq_len or past the table's capacity OutOfRange.
  /// `kv.layout` must match KvLayout(kv.layout.block_tokens). The
  /// activations live in the executor's own workspace.
  StatusOr<std::span<const float>> Forward(
      std::span<const std::int32_t> tokens, std::int32_t pos0,
      const KvPages& kv, bool want_last_logits = true);

  /// The functional half of Forward, on `ws`: the same checks, K/V
  /// writes and logits (valid until the next run on `ws`), with no stats
  /// or trace; callers that price rows read TimingAt. It touches nothing
  /// of the executor but reads, so computes on distinct workspaces whose
  /// K/V writes land in distinct blocks may run concurrently.
  StatusOr<std::span<const float>> Compute(
      ExecutorWorkspace& ws, std::span<const std::int32_t> tokens,
      std::int32_t pos0, const KvPages& kv, bool want_last_logits) const;

  /// The same run against the executor-owned one-block table of seq_len
  /// tokens.
  StatusOr<std::span<const float>> Forward(
      std::span<const std::int32_t> tokens, std::int32_t pos0,
      bool want_last_logits = true);

  /// One-row runs: `token` at `pos`.
  StatusOr<std::span<const float>> Forward(std::int32_t token,
                                           std::int32_t pos,
                                           const KvPages& kv,
                                           bool want_logits = true) {
    return Forward(std::span<const std::int32_t>(&token, 1), pos, kv,
                   want_logits);
  }
  StatusOr<std::span<const float>> Forward(std::int32_t token,
                                           std::int32_t pos,
                                           bool want_logits = true) {
    return Forward(std::span<const std::int32_t>(&token, 1), pos,
                   want_logits);
  }

  /// Device time and energy of one forward at `pos` (0 <= pos <
  /// seq_len). Computed on first use and kept.
  const TokenRunStats& TimingAt(std::int32_t pos);

  /// The block geometry this program's K/V takes at `block_tokens`
  /// tokens per block.
  KvBlockLayout KvLayout(std::int64_t block_tokens) const;

  const TokenRunStats& last_stats() const { return last_stats_; }
  const TokenRunStats& total_stats() const { return total_stats_; }
  void ResetStats();

  /// Enables span tracing (test/bench use): each Forward call then
  /// re-runs the schedule of its last row and records its spans.
  void EnableTrace(bool on) { trace_.set_enabled(on); }
  const sim::TraceRecorder& trace() const { return trace_; }

  /// True when some matmul splits its rows over ThreadPool::Global()
  /// (a weight matrix of at least kPoolSplitBytes), so one forward
  /// already keeps the pool busy.
  bool pooled() const { return pooled_; }

  const Program& program() const { return *program_; }
  /// The image the forwards read; null when the own image failed to
  /// build.
  const WeightImage* weight_image() const { return image_; }

 private:
  // One functional step: a compute op of the program, in program order.
  struct Step {
    ComputeKind compute = ComputeKind::kNone;
    const graph::Op* op = nullptr;
    // The weight operand: embedding table or norm gain ...
    std::span<const float> weights;
    // ... or the matmul's weight forms.
    const MatMulWeights* matmul = nullptr;
  };

  // Runs one step over `tokens.size()` rows at pos0, pos0 + 1, ... on
  // `ws`.
  void RunStep(ExecutorWorkspace& ws, const Step& step,
               std::span<const std::int32_t> tokens, std::int32_t pos0,
               const KvPages& kv) const;
  // Grows every activation buffer of `ws` to hold `rows` rows (contents
  // are not kept).
  void ReserveRows(ExecutorWorkspace& ws, std::int64_t rows) const;
  float* Row(ExecutorWorkspace& ws, graph::ValueId v, std::int64_t r) const;

  // Schedules one forward at `pos` on the timing model, recording spans
  // into `trace` when it is non-null.
  TokenRunStats Schedule(std::int32_t pos, sim::TraceRecorder* trace) const;
  // Scales a worst-case quantity by (pos+1)/seq_len for seq-scaled work.
  std::uint64_t SeqScale(std::uint64_t amount, bool scaled,
                         std::int32_t pos) const;

  // Sets up the activation geometry and, given an image, steps_.
  void Init();

  const Program* program_;
  hw::U280Config u280_;
  // The standalone constructor's image (null when shared or unbuilt).
  std::unique_ptr<const WeightImage> own_image_;
  const WeightImage* image_ = nullptr;
  // The own image's build error; every Forward returns it.
  Status setup_;

  std::vector<Step> steps_;
  // The op writing the logits (the classifier): it runs on the last row
  // only, and not at all when a forward wants no logits.
  graph::OpId logits_op_ = -1;
  bool pooled_ = false;  // see pooled()

  // Floats of one row of each value; 0 for weights and K/V caches,
  // which live in the image and in KvPages.
  std::vector<std::int64_t> row_floats_;
  // The standalone forwards' activations.
  ExecutorWorkspace own_ws_;
  // K/V cache ValueId -> plane index layer * 2 + (0 = K, 1 = V); -1 else.
  std::vector<std::int32_t> kv_plane_;
  // Standalone K/V: one block of seq_len tokens, allocated on first use.
  std::vector<float> own_kv_;
  float* own_block_[1] = {nullptr};

  // TimingAt's table, indexed by position (allocated on first use).
  std::vector<TokenRunStats> timing_;
  std::vector<bool> timed_;

  TokenRunStats last_stats_;
  TokenRunStats total_stats_;
  sim::TraceRecorder trace_;
};

}  // namespace speedllm::accel

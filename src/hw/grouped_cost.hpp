// SpeedLLM -- grouped/variable-length kernel cost model.
//
// One scheduler tick launches a *group* of per-sequence problems -- the
// shape of a grouped GEMM (a list of per-expert / per-sequence (m, n, k)
// problems packed into one launch) rather than a loop of independent
// kernels. The cost of the group is not the sum of its members: the
// weight stream is read once per launch and shared by every row, so a
// group of G problems costs
//
//     group_seconds = max_i(shared_i) + sum_i (problem_i - shared_i)
//
// where `shared_i` is the part of problem i's standalone cost that the
// packed launch amortises (capped at a fixed share of the problem so the
// per-row marginal compute never collapses to zero). Serial work that
// cannot ride the launch (DMA for COW copies / restores / swaps, KV
// handoffs) is added on top, un-amortised.
//
// ShardScheduler owns one accumulator per tick: BeginGroup() at tick
// start, AddProblem() per forward row, AddSerialSeconds() per DMA
// charge, group_seconds() at tick close. Speculative decoding adds
// draft-model rows (AddDraftRows) priced at a configured fraction of a
// target-model row; rejected verify rows are ordinary AddProblem rows --
// the grouped launch priced them whether or not their tokens survived.
#pragma once

#include <cstdint>

namespace speedllm::hw {

/// Per-tick accumulator pricing a packed group of per-sequence problems.
///
/// The accumulator is arithmetic-compatible with the additive
/// per-sequence model it replaced: with one problem per sequence and no
/// serial seconds, group_seconds() reproduces the historical
/// `max(shared) + sum(marginal)` tick cost bit for bit.
class GroupedKernelCostModel {
 public:
  /// `shared_step_seconds` is the launch-invariant cost one problem can
  /// amortise (the weight-stream read); `shared_share_cap` bounds the
  /// amortised fraction of any single problem so tiny problems keep a
  /// nonzero marginal.
  GroupedKernelCostModel(double shared_step_seconds, double shared_share_cap);

  /// Resets the accumulator for a new tick's group.
  void BeginGroup();

  /// Adds one target-model problem of `seconds` standalone cost to the
  /// group. Returns the marginal seconds the group grew by.
  double AddProblem(double seconds);

  /// Adds `rows` draft-model rows, each priced at `cost_ratio` of a
  /// target-model row of `proxy_seconds`. Draft rows are pure marginal
  /// work: the draft model's weights do not ride the target launch.
  void AddDraftRows(std::int64_t rows, double proxy_seconds, double cost_ratio);

  /// Adds serial (un-amortised) seconds: DMA the launch cannot hide.
  void AddSerialSeconds(double seconds);

  /// Cost of the packed group accumulated so far.
  double group_seconds() const { return max_shared_ + marginal_; }

 private:
  double shared_step_seconds_ = 0.0;
  double shared_share_cap_ = 0.0;
  double max_shared_ = 0.0;
  double marginal_ = 0.0;
};

}  // namespace speedllm::hw

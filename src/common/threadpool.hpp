// SpeedLLM -- host-side worker pool for data-parallel kernels.
//
// One entry point, ParallelRun: fork/join over n tasks with dynamic
// pickup, so a worker the host deschedules holds up no one.
// llama::MatMulRows (the CPU reference model and the executor's large
// matmuls) passes one task per run of consecutive 8-row weight blocks,
// and llama::GenerateSyntheticWeights one per chunk of a large tensor.
// The int8 matmuls (quant::MatMulQ8) run inline on the caller.
// The event engine itself is single-threaded: host parallelism lives
// inside a tick. Besides the pooled matmuls, a tick's segment
// (serving::ShardScheduler) runs its members' forwards and samples as
// ParallelRun tasks, task t of min(n, num_threads()) taking members t,
// t + T, ... on lane t; its KV steps and commits stay on the event loop's
// thread in problem order. A forward inside such a task runs its matmuls
// inline (nested calls do), so a segment of an executor whose matmuls
// already split over the pool runs on the caller instead.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace speedllm {

/// Work over a tensor of at least this many bytes is split across
/// ThreadPool::Global(); smaller work runs inline on the caller. Both
/// ParallelRun callers read it: a matmul whose fp32 weight matrix is this
/// large splits its output rows (docs/ARCHITECTURE.md, "Pool split"; one-row
/// splits measured a loss below ~128 KiB), and synthetic weight generation
/// splits a tensor this large into chunks. Every Tiny tensor (at most
/// 96 KiB) stays inline; every stories15M matrix (at least 324 KiB) splits.
inline constexpr std::int64_t kPoolSplitBytes = 256 * 1024;

/// Fixed-size fork/join thread pool.
///
/// ParallelRun blocks until the whole batch completes, waiting only for
/// the workers that joined it: a worker still asleep once every task is
/// claimed finds the batch closed and stays out, so a busy host that
/// deschedules an idle worker delays no caller. Nested calls
/// from inside a pool task run inline on the calling worker (detected via
/// a thread-local flag, so detection works even when the nested call
/// arrives through a different code path than the outer one). Distinct
/// external threads may call into the same pool concurrently: callers
/// serialize on an internal mutex, so each batch still gets the full pool
/// rather than silently degrading to inline execution. An idle worker
/// polls for the next batch, and a caller for its batch to finish, for up
/// to 50 us (yielding between polls) before blocking: a forward issues
/// its matmuls microseconds apart, well under the cost of a wake-up.
class ThreadPool {
 public:
  /// threads == 0 picks hardware_concurrency (at least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Runs fn(i) for every i in [0, n), one index per task with dynamic
  /// pickup (workers and the calling thread race on a shared counter).
  /// fn must be safe to call concurrently. There is no
  /// inline-below-threshold heuristic: even n == 2 fans out. The tensor
  /// callers decide whether to split by tensor bytes (kPoolSplitBytes),
  /// not by task count: llama::MatMulRows passes one index per run of
  /// consecutive 8-row blocks (about 64 KiB of weights, at least
  /// 2 * num_threads() runs), and the executor hands it a pool only for
  /// matrices of at least kPoolSplitBytes; llama::GenerateSyntheticWeights
  /// passes one index per 64K-element chunk of every tensor of at least
  /// kPoolSplitBytes, all tensors in one batch. A tick's segment passes
  /// one index per lane, at most num_threads(). A thread that runs slowly
  /// takes fewer tasks.
  void ParallelRun(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Process-wide pool sized to the machine; lazily constructed.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex caller_mu_;          // serializes concurrent external callers
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* item_fn_ = nullptr;
  std::size_t n_items_ = 0;
  std::atomic<std::size_t> next_item_{0};
  // Written under mu_; atomic so the spin phases may poll them unlocked.
  std::atomic<std::uint64_t> epoch_{0};  // bumped per batch
  std::atomic<unsigned> active_{0};      // workers inside the open batch
  bool shutdown_ = false;
};

}  // namespace speedllm

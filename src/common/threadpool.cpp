#include "common/threadpool.hpp"

#include <algorithm>
#include <chrono>

namespace speedllm {

namespace {
// True while the current thread is executing a batch task (worker threads
// and the dispatching caller's own share alike). Nested ParallelRun calls
// observe it and run inline, which both avoids deadlock and keeps nested
// work deterministic. Thread-local rather than a pool member so a second
// external caller is never mistaken for a nested one.
thread_local bool t_in_pool_task = false;

// Batches of one forward arrive microseconds apart, well under a sleeping
// thread's wake-up, so workers (for the next batch) and callers (for the
// batch to finish) poll this long before they block.
constexpr auto kSpin = std::chrono::microseconds(50);

// Polls `done` until it holds or kSpin has passed. Each poll yields, so a
// runnable thread -- one of this batch's, on a busy machine -- runs
// instead of the poller.
template <typename Done>
void SpinUntil(const Done& done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpin;
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}
}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // The calling thread participates in every batch, so spawn one fewer.
  unsigned workers = threads > 1 ? threads - 1 : 0;
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_task_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::WorkerLoop() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    SpinUntil([&] { return epoch_ != seen_epoch; });
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = epoch_;
      // Its caller closed this batch once every task was claimed; joining
      // it now would race the next batch's reset of next_item_.
      if (item_fn_ == nullptr) continue;
      fn = item_fn_;
      n = n_items_;
      ++active_;
    }
    t_in_pool_task = true;
    for (std::size_t i = next_item_.fetch_add(1); i < n;
         i = next_item_.fetch_add(1)) {
      (*fn)(i);
    }
    t_in_pool_task = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--active_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelRun(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Run inline when the pool has no workers, there is one task, or this
  // thread is already inside a pool task (nested call).
  if (t_in_pool_task || workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Concurrent external callers take turns; each gets the whole pool.
  std::lock_guard<std::mutex> caller_lock(caller_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    item_fn_ = &fn;
    n_items_ = n;
    next_item_.store(0, std::memory_order_relaxed);
    ++epoch_;
  }
  cv_task_.notify_all();

  t_in_pool_task = true;
  for (std::size_t i = next_item_.fetch_add(1); i < n;
       i = next_item_.fetch_add(1)) {
    fn(i);
  }
  t_in_pool_task = false;

  // Every task is claimed now; wait only for the workers that joined the
  // batch. One that has not woken yet finds it closed and stays out.
  SpinUntil([&] { return active_ == 0; });
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return active_ == 0; });
    item_fn_ = nullptr;
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace speedllm

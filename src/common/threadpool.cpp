#include "common/threadpool.hpp"

#include <algorithm>
#include <chrono>

namespace speedllm {

namespace {
// True while the current thread is executing a batch task (worker threads
// and the dispatching caller's own share alike). Nested ParallelFor /
// ParallelRun calls observe it and run inline, which both avoids deadlock
// and keeps nested work deterministic. Thread-local rather than a pool
// member so a second external caller is never mistaken for a nested one.
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
  tasks_.resize(workers);
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
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

void ThreadPool::WorkerLoop(unsigned worker_index) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    Task task;
    const std::function<void(std::size_t)>* item_fn = nullptr;
    std::size_t n_items = 0;
    SpinUntil([&] { return epoch_ != seen_epoch; });
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = epoch_;
      item_fn = item_fn_;
      n_items = n_items_;
      task = tasks_[worker_index];
    }
    t_in_pool_task = true;
    if (item_fn != nullptr) {
      for (std::size_t i = next_item_.fetch_add(1); i < n_items;
           i = next_item_.fetch_add(1)) {
        (*item_fn)(i);
      }
    } else if (task.fn != nullptr && task.begin < task.end) {
      (*task.fn)(task.begin, task.end);
    }
    t_in_pool_task = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(
    std::int64_t n,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (n <= 0) return;
  const unsigned total_threads = num_threads();
  // Run inline when the pool has no workers, the range is tiny, or this
  // thread is already inside a pool task (nested call).
  if (t_in_pool_task || workers_.empty() ||
      n < static_cast<std::int64_t>(2 * total_threads)) {
    fn(0, n);
    return;
  }
  // Concurrent external callers take turns; each gets the whole pool.
  std::lock_guard<std::mutex> caller_lock(caller_mu_);

  const std::int64_t chunks = std::min<std::int64_t>(total_threads, n);
  const std::int64_t base = n / chunks;
  const std::int64_t rem = n % chunks;
  // Chunk c covers [c*base + min(c,rem), ...) with the first `rem` chunks
  // one element larger -- contiguous static partition.
  auto chunk_begin = [&](std::int64_t c) {
    return c * base + std::min<std::int64_t>(c, rem);
  };

  {
    std::lock_guard<std::mutex> lock(mu_);
    item_fn_ = nullptr;
    unsigned launched = 0;
    for (std::int64_t c = 1; c < chunks; ++c) {
      tasks_[launched].fn = &fn;
      tasks_[launched].begin = chunk_begin(c);
      tasks_[launched].end = chunk_begin(c + 1);
      ++launched;
    }
    // Idle workers past `launched` get empty ranges this epoch.
    for (unsigned w = launched; w < workers_.size(); ++w) {
      tasks_[w].fn = nullptr;
      tasks_[w].begin = tasks_[w].end = 0;
    }
    pending_ = static_cast<unsigned>(workers_.size());
    ++epoch_;
  }
  cv_task_.notify_all();

  // The calling thread runs chunk 0.
  t_in_pool_task = true;
  fn(0, chunk_begin(1));
  t_in_pool_task = false;

  SpinUntil([&] { return pending_ == 0; });
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return pending_ == 0; });
  }
}

void ThreadPool::ParallelRun(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (t_in_pool_task || workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::lock_guard<std::mutex> caller_lock(caller_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    item_fn_ = &fn;
    n_items_ = n;
    next_item_.store(0, std::memory_order_relaxed);
    for (auto& task : tasks_) {
      task.fn = nullptr;
      task.begin = task.end = 0;
    }
    pending_ = static_cast<unsigned>(workers_.size());
    ++epoch_;
  }
  cv_task_.notify_all();

  t_in_pool_task = true;
  for (std::size_t i = next_item_.fetch_add(1); i < n;
       i = next_item_.fetch_add(1)) {
    fn(i);
  }
  t_in_pool_task = false;

  SpinUntil([&] { return pending_ == 0; });
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return pending_ == 0; });
    item_fn_ = nullptr;
  }
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace speedllm

#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <latch>
#include <mutex>
#include <queue>
#include <thread>

namespace uap2p {
namespace {

/// True on every pool worker for its whole life, and on a parallel_for
/// caller while it works its own share of the sweep; lets parallel_for
/// detect nesting without threading a context object through callers.
thread_local bool t_in_sweep = false;

std::size_t hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Fixed-size pool running parallel_for's lanes FIFO. One shared queue,
/// so concurrent parallel_for calls from different threads interleave.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads) {
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ~ThreadPool() {
    {
      std::lock_guard lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& worker : workers_) worker.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  void post(std::function<void()> task) {
    {
      std::lock_guard lock(mutex_);
      queue_.push(std::move(task));
    }
    cv_.notify_one();
  }

 private:
  void worker_loop() {
    t_in_sweep = true;
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ and drained
        task = std::move(queue_.front());
        queue_.pop();
      }
      task();
    }
  }

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

ThreadPool& process_pool() {
  // Magic static: constructed on first use, joined after main() returns.
  static ThreadPool pool(hardware_threads());
  return pool;
}

}  // namespace

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads) {
  if (n == 0) return;
  if (threads == 0) threads = hardware_threads();
  threads = std::min(threads, n);
  // Inline when there is no parallelism to exploit, and when nested inside
  // another sweep: blocking a worker on lanes served by the same pool
  // would deadlock once all workers wait on each other.
  if (threads <= 1 || t_in_sweep) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  // Catches every exception, so each lane finishes (and counts down)
  // exactly once.
  auto body = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  ThreadPool& pool = process_pool();
  // One lane per requested thread beyond the caller's; the caller works
  // too, so the sweep makes progress even while pool workers are busy
  // elsewhere.
  const std::size_t lanes = std::min(threads - 1, pool.thread_count());
  std::latch done(static_cast<std::ptrdiff_t>(lanes));
  for (std::size_t t = 0; t < lanes; ++t) {
    pool.post([&body, &done] {
      body();
      done.count_down();
    });
  }
  t_in_sweep = true;
  body();
  t_in_sweep = false;
  done.wait();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace uap2p

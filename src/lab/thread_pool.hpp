// Minimal work-stealing thread pool for the experiment runner.
//
// Tasks land on per-worker deques (round-robin); a worker services its own
// deque LIFO and steals FIFO from the most loaded peer when it runs dry —
// the classic Chase–Lev discipline, except the deques share one mutex: lab
// tasks are whole compilations or cycle-level simulations (milliseconds to
// minutes), so dispatch cost is irrelevant and the simple locking is worth
// its obviousness.  Determinism note: the pool schedules, it never
// aggregates — callers index results by task id, so the output is
// independent of which worker ran what when.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hidisc::lab {

class ThreadPool {
 public:
  // Spawns `threads` workers (clamped to >= 1).
  explicit ThreadPool(int threads);
  ~ThreadPool();  // waits for queued work, then joins

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task);
  // Blocks until every submitted task has finished.  Tasks may submit
  // further tasks; wait() covers those too.
  void wait();

  [[nodiscard]] int threads() const noexcept {
    return static_cast<int>(workers_.size());
  }

 private:
  void worker_loop(std::size_t self);
  // Pops the next task for worker `self` (own deque first, then the
  // fullest peer).  Caller holds `mu_`.
  [[nodiscard]] bool try_pop(std::size_t self, std::function<void()>& out);

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers sleep here
  std::condition_variable idle_cv_;  // wait() sleeps here
  std::vector<std::deque<std::function<void()>>> queues_;
  std::vector<std::thread> workers_;
  std::size_t next_queue_ = 0;  // round-robin submission cursor
  std::size_t unfinished_ = 0;  // queued + running
  bool stop_ = false;
};

// Worker-count default for CLI/bench entry points: $HILAB_THREADS if set,
// else std::thread::hardware_concurrency().  Throws std::runtime_error
// naming HILAB_THREADS when it is set to anything but an integer >= 1.
[[nodiscard]] int default_threads();

}  // namespace hidisc::lab

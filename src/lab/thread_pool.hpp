// Minimal thread pool for the experiment runner.
//
// One FIFO queue under one mutex: tasks start in submission order, and
// the thread that calls wait() runs them too, so ThreadPool(n) has n
// executors but starts only n - 1 threads.  A cold plan's tasks are whole
// compilations or simulations, where dispatch cost vanishes; a warm
// plan's are cache reads of about a tenth of a millisecond, where an
// idle caller would cost about a fifth of the plan's wall time.
// Determinism note: the pool schedules, it never aggregates — callers
// index results by task id, so the output is independent of which thread
// ran what when.
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
  // `threads` executors (clamped to >= 1): the caller of wait() and
  // `threads - 1` workers.
  explicit ThreadPool(int threads);
  ~ThreadPool();  // waits for queued work, then joins

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task);
  // Runs queued tasks on the calling thread until every submitted task
  // has finished.  Tasks may submit further tasks; wait() covers those
  // too.  A task that throws ends the process, here as on a worker.
  void wait();

 private:
  void worker_loop();
  // Runs the oldest queued task.  Caller holds `lock`; the queue is not
  // empty.
  void run_front(std::unique_lock<std::mutex>& lock) noexcept;

  std::mutex mu_;
  std::condition_variable cv_;  // workers and wait() sleep here
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t unfinished_ = 0;  // queued + running
  bool stop_ = false;
};

// Worker-count default for CLI/bench entry points: $HILAB_THREADS if set,
// else std::thread::hardware_concurrency().  Throws std::runtime_error
// naming HILAB_THREADS when it is set to anything but an integer >= 1.
[[nodiscard]] int default_threads();

}  // namespace hidisc::lab

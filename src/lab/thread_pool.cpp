#include "lab/thread_pool.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace hidisc::lab {

ThreadPool::ThreadPool(int threads) {
  for (int i = 1; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  wait();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++unfinished_;
  }
  cv_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return unfinished_ == 0 || !queue_.empty(); });
    if (queue_.empty()) return;  // every task has finished
    run_front(lock);
  }
}

void ThreadPool::run_front(std::unique_lock<std::mutex>& lock) noexcept {
  std::function<void()> task = std::move(queue_.front());
  queue_.pop_front();
  lock.unlock();
  task();
  lock.lock();
  if (--unfinished_ == 0) cv_.notify_all();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopped
    run_front(lock);
  }
}

int default_threads() {
  if (const char* env = std::getenv("HILAB_THREADS")) {
    const char* const end = env + std::strlen(env);
    int n = 0;
    const auto [ptr, ec] = std::from_chars(env, end, n);
    if (ec != std::errc() || ptr != end || n < 1)
      throw std::runtime_error(
          "HILAB_THREADS needs an integer of at least 1, got '" +
          std::string(env) + "'");
    return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace hidisc::lab

#include "lab/thread_pool.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace hidisc::lab {

ThreadPool::ThreadPool(int threads) {
  const auto n = static_cast<std::size_t>(std::max(threads, 1));
  queues_.resize(n);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  wait();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queues_[next_queue_].push_back(std::move(task));
    next_queue_ = (next_queue_ + 1) % queues_.size();
    ++unfinished_;
  }
  work_cv_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return unfinished_ == 0; });
}

bool ThreadPool::try_pop(std::size_t self, std::function<void()>& out) {
  if (!queues_[self].empty()) {  // own work: newest first (cache-warm)
    out = std::move(queues_[self].back());
    queues_[self].pop_back();
    return true;
  }
  std::size_t victim = self, best = 0;
  for (std::size_t q = 0; q < queues_.size(); ++q)
    if (q != self && queues_[q].size() > best) {
      best = queues_[q].size();
      victim = q;
    }
  if (victim == self) return false;
  out = std::move(queues_[victim].front());  // steal oldest
  queues_[victim].pop_front();
  return true;
}

void ThreadPool::worker_loop(std::size_t self) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    std::function<void()> task;
    if (try_pop(self, task)) {
      lock.unlock();
      task();
      lock.lock();
      if (--unfinished_ == 0) idle_cv_.notify_all();
      continue;
    }
    if (stop_) return;
    work_cv_.wait(lock);
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

#include "parallel/thread_pool.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace lamb::parallel {

ThreadPool::ThreadPool(std::size_t threads) {
  LAMB_CHECK(threads >= 1, "pool needs at least one participant");
  tasks_.resize(threads - 1);
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::parallel_for(
    std::ptrdiff_t n,
    const std::function<void(std::ptrdiff_t, std::ptrdiff_t)>& fn) {
  LAMB_CHECK(n >= 0, "parallel_for: negative range");
  if (n == 0) {
    return;
  }
  const auto participants = static_cast<std::ptrdiff_t>(size());
  if (participants == 1 || n == 1) {
    fn(0, n);  // no shared state touched: no need to serialise
    return;
  }
  // One loop at a time: the task slots and completion count are
  // per-invocation state, and concurrent dispatches would clobber them
  // (losing chunks for one caller, running others twice).
  const std::lock_guard<std::mutex> dispatch_lock(dispatch_mutex_);

  const std::ptrdiff_t chunk = (n + participants - 1) / participants;
  std::ptrdiff_t caller_begin = 0;
  std::ptrdiff_t caller_end = std::min(chunk, n);

  {
    std::unique_lock<std::mutex> lock(mutex_);
    ++generation_;
    pending_ = 0;
    first_error_ = nullptr;
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      const std::ptrdiff_t begin =
          std::min(n, chunk * static_cast<std::ptrdiff_t>(w + 1));
      const std::ptrdiff_t end =
          std::min(n, chunk * static_cast<std::ptrdiff_t>(w + 2));
      tasks_[w] = Task{begin < end ? &fn : nullptr, begin, end};
      if (tasks_[w].fn != nullptr) {
        ++pending_;
      }
    }
  }
  cv_start_.notify_all();

  std::exception_ptr caller_error;
  try {
    fn(caller_begin, caller_end);
  } catch (...) {
    caller_error = std::current_exception();
  }

  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [this] { return pending_ == 0; });
    if (caller_error == nullptr) {
      caller_error = first_error_;
    }
  }
  if (caller_error != nullptr) {
    std::rethrow_exception(caller_error);
  }
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  std::size_t seen_generation = 0;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_start_.wait(lock, [&] {
        return stop_ || (generation_ != seen_generation &&
                         tasks_[worker_index].fn != nullptr);
      });
      if (stop_) {
        return;
      }
      seen_generation = generation_;
      task = tasks_[worker_index];
      // Clear the slot so a spurious wakeup in a later generation with no
      // work for this worker does not re-run a stale task.
      tasks_[worker_index].fn = nullptr;
    }
    std::exception_ptr error;
    try {
      (*task.fn)(task.begin, task.end);
    } catch (...) {
      error = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (error != nullptr && first_error_ == nullptr) {
        first_error_ = error;
      }
      --pending_;
      if (pending_ == 0) {
        cv_done_.notify_one();
      }
    }
  }
}

}  // namespace lamb::parallel

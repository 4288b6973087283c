// Fixed-size thread pool with a blocking parallel_for.
//
// It runs whole units of work side by side: the ExperimentDriver's instance
// evaluations, and the SelectionService's slice builds (warm(),
// query_batch()) and refreshes (refresh_slices()). Each unit stays on one
// thread; no kernel call is split across the pool. N long-lived workers take
// contiguous index ranges (one range per worker), and the caller
// participates in the work, so a pool of size 1 degrades to plain serial
// execution with no synchronisation.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lamb::parallel {

class ThreadPool {
 public:
  /// Creates `threads` workers; `threads == 1` creates no OS threads at all.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size() + 1; }

  /// Run fn(begin, end) over [0, n) split into contiguous chunks, one chunk
  /// per participant (workers + caller). Blocks until all chunks finish.
  /// Exceptions from fn propagate to the caller (first one wins).
  /// Safe to call from multiple threads: concurrent calls are serialised
  /// behind a dispatch mutex (one loop runs at a time, later callers
  /// block). Do not call parallel_for from inside fn — that deadlocks.
  void parallel_for(std::ptrdiff_t n,
                    const std::function<void(std::ptrdiff_t, std::ptrdiff_t)>&
                        fn);

 private:
  struct Task {
    const std::function<void(std::ptrdiff_t, std::ptrdiff_t)>* fn = nullptr;
    std::ptrdiff_t begin = 0;
    std::ptrdiff_t end = 0;
  };

  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;
  /// Serialises whole parallel_for invocations: the task slots, generation
  /// counter and pending count below describe ONE loop at a time, so a
  /// second concurrent caller must not start handing out chunks while the
  /// first is still collecting (the serving layer's query_batch dispatches
  /// builds from many threads at once).
  std::mutex dispatch_mutex_;
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::vector<Task> tasks_;          // one slot per worker
  std::size_t generation_ = 0;       // bumped per parallel_for call
  std::size_t pending_ = 0;          // workers still running this generation
  std::exception_ptr first_error_;
  bool stop_ = false;
};

}  // namespace lamb::parallel

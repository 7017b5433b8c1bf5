#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lina::exec {

/// Sets the process-wide default worker count used by parallel_for /
/// parallel_map when no explicit count is given. 0 restores the hardware
/// default (std::thread::hardware_concurrency, at least 1).
void set_default_threads(std::size_t threads);

/// The resolved default worker count (>= 1).
[[nodiscard]] std::size_t default_threads();

/// std::thread::hardware_concurrency clamped to >= 1.
[[nodiscard]] std::size_t hardware_threads();

/// True while the calling thread is executing inside a parallel region —
/// nested parallel_for / parallel_map calls detect this and run inline
/// (serially) instead of deadlocking on the shared pool.
[[nodiscard]] bool in_parallel_region();

/// A fixed-size pool of sleeping workers shared by the parallel
/// primitives. One job runs at a time (concurrent top-level submissions
/// queue on an internal mutex); the submitting thread participates in the
/// job, so `threads == 1` never touches a worker. Workers are spawned
/// lazily up to the largest count any job has requested and persist for
/// the process lifetime.
///
/// Determinism contract: the pool only distributes *chunk indices*; which
/// thread executes a chunk is scheduling noise that callers must not (and
/// with the parallel_* wrappers cannot) observe.
class ThreadPool {
 public:
  /// The process-wide shared pool.
  [[nodiscard]] static ThreadPool& shared();

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Executes chunk_fn(0) ... chunk_fn(chunk_count - 1), each exactly
  /// once, across up to `threads` threads (including the caller). Blocks
  /// until every chunk has finished. If chunks throw, the exception of
  /// the lowest failing chunk index is rethrown in the caller once the
  /// job has drained, so the error does not depend on timing.
  void run(std::size_t chunk_count, std::size_t threads,
           const std::function<void(std::size_t)>& chunk_fn);

  /// Workers currently alive (grows on demand; for tests/telemetry).
  [[nodiscard]] std::size_t worker_count() const;

  /// True when no job is in flight (for tests: a rethrown failure must
  /// leave the pool idle).
  [[nodiscard]] bool idle() const;

 private:
  ThreadPool() = default;

  struct Job;

  void ensure_workers(std::size_t count);
  void worker_loop();
  /// Claims and runs the job's chunks until none are left, recording the
  /// lowest-index failure.
  void drain(Job& job);

  mutable std::mutex mutex_;            // guards job_, workers_, stop_
  std::condition_variable work_cv_;     // workers wait for a job
  std::condition_variable done_cv_;     // caller waits for completion
  std::mutex run_mutex_;                // serializes top-level jobs
  std::vector<std::thread> workers_;
  Job* job_ = nullptr;
  std::uint64_t job_generation_ = 0;
  bool stop_ = false;
};

}  // namespace lina::exec

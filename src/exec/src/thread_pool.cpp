#include "lina/exec/thread_pool.hpp"

#include <atomic>
#include <algorithm>
#include <limits>

#include "lina/prof/prof.hpp"

namespace lina::exec {

namespace {

std::atomic<std::size_t>& configured_threads() {
  static std::atomic<std::size_t> value{0};  // 0 = hardware default
  return value;
}

thread_local bool tls_in_parallel_region = false;

/// Scope guard marking the current thread as inside a parallel region.
struct RegionScope {
  RegionScope() : previous(tls_in_parallel_region) {
    tls_in_parallel_region = true;
  }
  ~RegionScope() { tls_in_parallel_region = previous; }
  bool previous;
};

// Workers that ever existed are capped; jobs requesting more threads than
// this simply share the cap. Far above any sane oversubscription in tests.
constexpr std::size_t kMaxWorkers = 64;

}  // namespace

std::size_t hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

void set_default_threads(std::size_t threads) {
  configured_threads().store(threads, std::memory_order_relaxed);
}

std::size_t default_threads() {
  const std::size_t configured =
      configured_threads().load(std::memory_order_relaxed);
  return configured == 0 ? hardware_threads() : configured;
}

bool in_parallel_region() { return tls_in_parallel_region; }

struct ThreadPool::Job {
  std::size_t count = 0;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::uint64_t parent_span = 0;     // submitter's open prof span (0 = none)
  std::atomic<std::size_t> next{0};  // next unclaimed chunk index
  std::size_t active = 0;            // threads inside (guarded by pool mutex)
  // The failure of the lowest failing chunk index (guarded by pool mutex):
  // a chunk stops at its first failing item, so this is the error the
  // serial loop would have raised, whatever the timing.
  std::exception_ptr error;
  std::size_t error_chunk = std::numeric_limits<std::size_t>::max();
};

void ThreadPool::drain(Job& job) {
  for (;;) {
    const std::size_t chunk = job.next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job.count) return;
    try {
      PROF_SPAN("lina.exec.chunk");
      (*job.fn)(chunk);
    } catch (...) {
      const std::lock_guard<std::mutex> error_lock(mutex_);
      if (chunk < job.error_chunk) {
        job.error = std::current_exception();
        job.error_chunk = chunk;
      }
    }
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool* instance = new ThreadPool();  // leaked: process-lifetime
  return *instance;
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::size_t ThreadPool::worker_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return workers_.size();
}

bool ThreadPool::idle() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return job_ == nullptr;
}

void ThreadPool::ensure_workers(std::size_t count) {
  // Caller holds mutex_.
  while (workers_.size() < std::min(count, kMaxWorkers)) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t last_generation = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stop_ || (job_ != nullptr && job_generation_ != last_generation);
    });
    if (stop_) return;
    Job* job = job_;
    last_generation = job_generation_;
    ++job->active;
    lock.unlock();

    {
      RegionScope region;
      // Spans opened in this job's chunks attribute to the region that
      // submitted the job, even though it lives on another thread.
      prof::AdoptedParentScope causal_parent(job->parent_span);
      drain(*job);
    }

    lock.lock();
    if (--job->active == 0) done_cv_.notify_all();
  }
}

void ThreadPool::run(std::size_t chunk_count, std::size_t threads,
                     const std::function<void(std::size_t)>& chunk_fn) {
  if (chunk_count == 0) return;
  Job job;
  job.count = chunk_count;
  job.fn = &chunk_fn;
  job.parent_span = prof::current_span_id();

  // One job at a time; later top-level callers queue here.
  const std::lock_guard<std::mutex> run_lock(run_mutex_);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t helpers =
        std::min(threads > 0 ? threads - 1 : 0, chunk_count - 1);
    ensure_workers(helpers);
    job_ = &job;
    ++job_generation_;
  }
  work_cv_.notify_all();

  // The caller participates instead of idling.
  {
    RegionScope region;
    drain(job);
  }

  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return job.active == 0; });
  job_ = nullptr;
  const std::exception_ptr error = job.error;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

}  // namespace lina::exec

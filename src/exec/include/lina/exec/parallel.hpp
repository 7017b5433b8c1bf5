#pragma once

// Deterministic data-parallel primitives over the shared ThreadPool.
//
// Determinism contract (DESIGN.md §4c): work is addressed by *item index*.
// parallel_for(n, fn) calls fn(i) exactly once for every i in [0, n);
// parallel_map returns results in item-index order regardless of which
// thread computed what. As long as fn(i) depends only on i (give each item
// its own RNG substream via stats::Rng::split(i)), the output is
// bit-identical to the serial loop at any thread count. Reductions happen
// on the caller's thread in item order after the parallel phase.
//
// Nested calls (fn itself calling a parallel primitive) execute inline and
// serially on the calling thread — correct, never deadlocking, just not
// extra-parallel.

#include <algorithm>
#include <cstddef>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "lina/exec/thread_pool.hpp"
#include "lina/prof/prof.hpp"

namespace lina::exec {

namespace detail {

/// Chunk layout: enough chunks to load-balance (a few per thread) without
/// drowning in scheduling overhead. Layout is invisible to callers — the
/// per-item functions observe only their item index.
struct ChunkPlan {
  std::size_t chunk_count = 0;
  std::size_t chunk_size = 0;
};

inline ChunkPlan plan_chunks(std::size_t items, std::size_t threads) {
  ChunkPlan plan;
  if (items == 0) return plan;
  const std::size_t target = threads * 4;  // ~4 chunks per thread
  plan.chunk_size = items / target + (items % target != 0 ? 1 : 0);
  if (plan.chunk_size == 0) plan.chunk_size = 1;
  plan.chunk_count = (items + plan.chunk_size - 1) / plan.chunk_size;
  return plan;
}

}  // namespace detail

/// Calls fn(i) exactly once for each i in [0, n), across up to `threads`
/// threads (0 = default_threads()). Runs inline serially when threads
/// resolves to 1, when n < 2, or when already inside a parallel region.
/// If fn throws, the caller receives the exception of the lowest failing
/// index — the serial loop's error — at any thread count (items past it
/// may still have run).
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn, std::size_t threads = 0) {
  if (n == 0) return;
  PROF_SPAN("lina.exec.parallel_for");
  if (threads == 0) threads = default_threads();
  if (threads <= 1 || n < 2 || in_parallel_region()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const detail::ChunkPlan plan = detail::plan_chunks(n, threads);
  const std::function<void(std::size_t)> chunk_fn =
      [&fn, &plan, n](std::size_t chunk) {
        const std::size_t begin = chunk * plan.chunk_size;
        const std::size_t end = std::min(begin + plan.chunk_size, n);
        for (std::size_t i = begin; i < end; ++i) fn(i);
      };
  ThreadPool::shared().run(plan.chunk_count, threads, chunk_fn);
}

/// Computes [fn(0), fn(1), ..., fn(n - 1)] in parallel and returns the
/// results in item order. fn's result type needs only a move constructor.
template <typename Fn>
auto parallel_map(std::size_t n, Fn&& fn, std::size_t threads = 0)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>> {
  using R = std::decay_t<decltype(fn(std::size_t{0}))>;
  std::vector<std::optional<R>> slots(n);
  parallel_for(
      n, [&](std::size_t i) { slots[i].emplace(fn(i)); }, threads);
  std::vector<R> results;
  results.reserve(n);
  for (std::optional<R>& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace lina::exec

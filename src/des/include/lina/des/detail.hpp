#pragma once

// Internals of the sharded engine (src/engine.cpp). Not part of the
// public surface; run_serial needs none of them, since it runs events in
// no particular order.

#include <limits>

#include "lina/des/event.hpp"

namespace lina::des::detail {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Progress slice used when the topology admits zero-delay cross-shard
/// hops (lookahead 0): windows still advance, and the intra-window
/// re-drain fixpoint carries correctness.
inline constexpr double kZeroLookaheadWindowMs = 0.25;

/// The shard queues' min-heap order: earliest time first, FIFO (push
/// sequence) within a time — the same tie-break sim::EventQueue uses.
[[nodiscard]] inline bool later(const EventRecord& a, const EventRecord& b) {
  if (a.time_ms != b.time_ms) return a.time_ms > b.time_ms;
  return a.seq > b.seq;
}

}  // namespace lina::des::detail

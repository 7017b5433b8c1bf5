#pragma once

// Internals shared by the engine and the serial reference
// (src/engine.cpp, src/serial.cpp). Not part of the public surface.

#include <limits>

#include "lina/des/event.hpp"

namespace lina::des::detail {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Progress slice used when the topology admits zero-delay cross-shard
/// hops (lookahead 0): windows still advance, and the intra-window
/// re-drain fixpoint carries correctness.
inline constexpr double kZeroLookaheadWindowMs = 0.25;

/// Min-heap order: earliest time first, FIFO (push sequence) within a
/// time — the same tie-break sim::EventQueue uses.
[[nodiscard]] inline bool later(const EventRecord& a, const EventRecord& b) {
  if (a.time_ms != b.time_ms) return a.time_ms > b.time_ms;
  return a.seq > b.seq;
}

}  // namespace lina::des::detail

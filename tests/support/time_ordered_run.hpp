#pragma once

// Time-ordered reference driver for des::PacketModel: one flat min-heap
// of records over the whole run, popped in global (time, FIFO) order —
// the order a classic event queue (sim::EventQueue) executes. des::
// run_serial drains a LIFO work-list instead, so comparing the two checks
// that no handler depends on the order events run in.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "lina/des/engine.hpp"

namespace lina::testref {

inline des::RunStats run_time_ordered(const des::PacketModel& model) {
  // Earliest time on top; `seq` numbers pushes, so equal times pop FIFO.
  const auto later = [](const des::EventRecord& a,
                        const des::EventRecord& b) {
    if (a.time_ms != b.time_ms) return a.time_ms > b.time_ms;
    return a.seq > b.seq;
  };
  std::vector<des::EventRecord> heap;
  std::uint64_t seq = 0;
  double now_ms = 0.0;
  des::RunStats stats;
  const auto push = [&](des::EventRecord record) {
    if (!(record.time_ms >= now_ms) || !std::isfinite(record.time_ms))
      throw std::invalid_argument(
          "run_time_ordered: event time in the past or not finite");
    record.seq = seq++;
    heap.push_back(record);
    std::push_heap(heap.begin(), heap.end(), later);
  };
  for (std::uint32_t i = 0; i < model.session_count(); ++i) {
    push(model.initial_event(i));
  }
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const des::EventRecord record = heap.back();
    heap.pop_back();
    now_ms = record.time_ms;
    stats.events += 1;
    model.handle(record, stats.digest, push);
  }
  return stats;
}

}  // namespace lina::testref

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "lina/des/detail.hpp"
#include "lina/des/engine.hpp"
#include "lina/prof/prof.hpp"

namespace lina::des {

RunStats run_serial(const PacketModel& model) {
  PROF_SPAN("lina.des.serial");
  // One flat min-heap of records over the whole run, popped in global
  // (time, FIFO) order; `seq` numbers pushes for this run only.
  std::vector<EventRecord> heap;
  std::uint64_t seq = 0;
  double now_ms = 0.0;
  RunStats stats;
  const auto push = [&](EventRecord record) {
    // Negated comparison so NaN is rejected too: a NaN time compares
    // false against everything and would corrupt the heap order.
    if (!(record.time_ms >= now_ms) || !std::isfinite(record.time_ms))
      throw std::invalid_argument(
          "run_serial: event time in the past or not finite");
    record.seq = seq++;
    heap.push_back(record);
    std::push_heap(heap.begin(), heap.end(), detail::later);
  };
  for (std::uint32_t i = 0; i < model.session_count(); ++i) {
    push(model.initial_event(i));
  }
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), detail::later);
    const EventRecord record = heap.back();
    heap.pop_back();
    now_ms = record.time_ms;
    stats.events += 1;
    model.handle(record, stats.digest, push);
  }
  return stats;
}

}  // namespace lina::des

#include <cmath>
#include <stdexcept>
#include <vector>

#include "lina/des/engine.hpp"
#include "lina/prof/prof.hpp"

namespace lina::des {

RunStats run_serial(const PacketModel& model) {
  PROF_SPAN("lina.des.serial");
  // A LIFO work-list, not a time-ordered queue: every handler is pure
  // (model.hpp), so the delivered multiset — and the commutative digest
  // and the event count — do not depend on the order events run in.
  std::vector<EventRecord> work;
  double parent_ms = 0.0;
  RunStats stats;
  const auto push = [&](const EventRecord& record) {
    // Negated comparison so NaN is rejected too.
    if (!(record.time_ms >= parent_ms) || !std::isfinite(record.time_ms))
      throw std::invalid_argument(
          "run_serial: event time in the past or not finite");
    work.push_back(record);
  };
  for (std::uint32_t i = 0; i < model.session_count(); ++i) {
    push(model.initial_event(i));
  }
  while (!work.empty()) {
    const EventRecord record = work.back();
    work.pop_back();
    parent_ms = record.time_ms;
    stats.events += 1;
    model.handle(record, stats.digest, push);
  }
  return stats;
}

}  // namespace lina::des

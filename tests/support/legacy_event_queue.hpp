#pragma once

// Reference event queue for sim::EventQueue: one std::priority_queue of
// (time, sequence, std::function, scheduled_at) entries with a FIFO
// tie-break, as the library kept it before its heap held compact keys
// and constant-rate sources. It has no schedule_every; a test expands
// one into the n schedule() calls of the loop it stands for. The
// differential test drives both queues with one script and requires the
// same run order, clock and pending counts.

#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "lina/obs/metrics.hpp"

namespace lina::testref {

class LegacyEventQueue {
 public:
  using Callback = std::function<void()>;

  void schedule(double time_ms, Callback callback) {
    if (!(time_ms >= now_ms_) || !std::isfinite(time_ms))
      throw std::invalid_argument(
          "EventQueue::schedule: time in the past or not finite");
    if (!callback)
      throw std::invalid_argument("EventQueue::schedule: empty callback");
    queue_.push({time_ms, next_sequence_++, std::move(callback), now_ms_});
    obs::metric::event_queue_scheduled().add();
    obs::metric::event_queue_depth().set(
        static_cast<double>(queue_.size()));
  }

  void schedule_in(double delay_ms, Callback callback) {
    if (!(delay_ms >= 0.0))
      throw std::invalid_argument(
          "EventQueue::schedule_in: negative or NaN delay");
    schedule(now_ms_ + delay_ms, std::move(callback));
  }

  bool run_next() {
    if (queue_.empty()) return false;
    // Copy out before popping: the callback may schedule new events.
    Entry entry = std::move(const_cast<Entry&>(queue_.top()));
    queue_.pop();
    now_ms_ = entry.time_ms;
    obs::metric::event_queue_executed().add();
    obs::metric::event_queue_dwell_ms().record(entry.time_ms -
                                               entry.scheduled_at_ms);
    entry.callback();
    return true;
  }

  std::size_t run(std::size_t max_events = SIZE_MAX) {
    std::size_t executed = 0;
    while (executed < max_events && run_next()) ++executed;
    return executed;
  }

  [[nodiscard]] double now() const { return now_ms_; }
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }

 private:
  struct Entry {
    double time_ms;
    std::uint64_t sequence;  // FIFO tie-break
    Callback callback;
    double scheduled_at_ms;  // now() at schedule time, for dwell metrics
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time_ms != b.time_ms) return a.time_ms > b.time_ms;
      return a.sequence > b.sequence;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  double now_ms_ = 0.0;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace lina::testref

#include "lina/sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "lina/obs/metrics.hpp"

namespace lina::sim {
namespace {

constexpr std::uint64_t kSlotMask =
    (std::uint64_t{1} << EventQueue::kSlotBits) - 1;
constexpr std::uint64_t kSequenceCount = std::uint64_t{1}
                                         << EventQueue::kSequenceBits;
constexpr std::uint64_t kSlotCount = std::uint64_t{1} << EventQueue::kSlotBits;

// Min-heap order on (time, sequence): the sequence is the word's high
// part and unique, so comparing whole words compares sequences.
constexpr auto kLater = [](const auto& a, const auto& b) {
  if (a.time_ms != b.time_ms) return a.time_ms > b.time_ms;
  return a.word > b.word;
};

}  // namespace

std::uint64_t EventQueue::claim(std::uint64_t count) {
  if (count > kSequenceCount - next_sequence_)
    throw EventQueueOverflow("EventQueue: sequence numbers exhausted");
  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slots_used_ == kSlotCount)
      throw EventQueueOverflow("EventQueue: too many events pending");
    if ((slots_used_ & (kChunkSize - 1)) == 0) {
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
      // Room for every slot, so release() never allocates.
      free_slots_.reserve(chunks_.size() * kChunkSize);
    }
    index = slots_used_++;
  }
  const std::uint64_t word = (next_sequence_ << kSlotBits) | index;
  next_sequence_ += count;
  return word;
}

void EventQueue::release(std::uint32_t index) {
  slot(index).callback = nullptr;
  free_slots_.push_back(index);
}

void EventQueue::push(Key key) {
  heap_.push_back(key);
  std::push_heap(heap_.begin(), heap_.end(), kLater);
}

void EventQueue::schedule(double time_ms, Callback callback) {
  // Negated comparison so NaN is rejected too: a NaN time compares false
  // against everything, which would otherwise slip past a `<` check and
  // silently corrupt the heap order.
  if (!(time_ms >= now_ms_) || !std::isfinite(time_ms))
    throw std::invalid_argument(
        "EventQueue::schedule: time in the past or not finite");
  if (!callback)
    throw std::invalid_argument("EventQueue::schedule: empty callback");
  const std::uint64_t word = claim(1);
  Slot& entry = slot(static_cast<std::uint32_t>(word & kSlotMask));
  entry.callback = std::move(callback);
  entry.scheduled_at_ms = now_ms_;
  entry.interval_ms = 0.0;
  push({time_ms, word});
  ++pending_;
  obs::metric::event_queue_scheduled().add();
  obs::metric::event_queue_depth().set(static_cast<double>(pending_));
}

void EventQueue::schedule_in(double delay_ms, Callback callback) {
  if (!(delay_ms >= 0.0))
    throw std::invalid_argument(
        "EventQueue::schedule_in: negative or NaN delay");
  schedule(now_ms_ + delay_ms, std::move(callback));
}

void EventQueue::schedule_every(double first_ms, double interval_ms,
                                double end_ms, Callback callback) {
  if (!(first_ms >= now_ms_) || !std::isfinite(first_ms))
    throw std::invalid_argument(
        "EventQueue::schedule_every: first time in the past or not finite");
  if (!(interval_ms > 0.0) || !std::isfinite(interval_ms))
    throw std::invalid_argument(
        "EventQueue::schedule_every: interval not finite and positive");
  if (!callback)
    throw std::invalid_argument("EventQueue::schedule_every: empty callback");
  if (!(first_ms < end_ms)) return;
  const auto stalled = [] {
    return std::invalid_argument(
        "EventQueue::schedule_every: the clock stops advancing before the "
        "end time");
  };
  // Far more instances than sequence numbers left: fail without walking
  // them, naming a stall when the clock stops short of the end.
  const std::uint64_t left = kSequenceCount - next_sequence_;
  if (!((end_ms - first_ms) / interval_ms < static_cast<double>(left))) {
    const double last = std::nextafter(end_ms, 0.0);
    if (last + interval_ms == last) throw stalled();
    throw EventQueueOverflow("EventQueue: sequence numbers exhausted");
  }
  // Count the instances with the very accumulation run_next() replays.
  std::uint64_t count = 0;
  for (double t = first_ms; t < end_ms; ++count) {
    const double next = t + interval_ms;
    if (next == t) throw stalled();
    t = next;
  }
  const std::uint64_t word = claim(count);
  Slot& source = slot(static_cast<std::uint32_t>(word & kSlotMask));
  source.callback = std::move(callback);
  source.scheduled_at_ms = now_ms_;
  source.interval_ms = interval_ms;
  source.end_ms = end_ms;
  push({first_ms, word});
  pending_ += count;
  obs::metric::event_queue_scheduled().add(count);
  obs::metric::event_queue_depth().set(static_cast<double>(pending_));
}

bool EventQueue::run_next() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), kLater);
  const Key key = heap_.back();
  heap_.pop_back();
  const auto index = static_cast<std::uint32_t>(key.word & kSlotMask);
  Slot& entry = slot(index);
  now_ms_ = key.time_ms;
  --pending_;
  obs::metric::event_queue_executed().add();
  obs::metric::event_queue_dwell_ms().record(key.time_ms -
                                             entry.scheduled_at_ms);
  if (entry.interval_ms > 0.0) {
    // The successor takes the next reserved sequence number and keeps
    // the slot; it enters before the call, as if scheduled up front.
    const double next = key.time_ms + entry.interval_ms;
    if (next < entry.end_ms) {
      push({next, key.word + (std::uint64_t{1} << kSlotBits)});
      entry.callback();
      return true;
    }
  }
  // A one-shot event or a source's last instance frees its slot after
  // the call, also when the call throws. Slots live in chunks that never
  // move, so events the callback schedules cannot invalidate `entry`.
  struct Release {
    EventQueue& queue;
    std::uint32_t index;
    ~Release() { queue.release(index); }
  } release{*this, index};
  entry.callback();
  return true;
}

std::size_t EventQueue::run(std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events && run_next()) ++executed;
  return executed;
}

}  // namespace lina::sim

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

namespace lina::sim {

/// Thrown when an EventQueue runs out of room in its packed heap keys:
/// more sequence numbers than 2^kSequenceBits over the queue's life, or
/// more than 2^kSlotBits events and periodic sources pending at once.
/// The queue never wraps a field; the failing call leaves it unchanged.
class EventQueueOverflow : public std::overflow_error {
 public:
  using std::overflow_error::overflow_error;
};

/// A discrete-event simulation clock and queue.
///
/// Events are callbacks scheduled at absolute times (milliseconds of
/// simulated time); equal-time events fire in scheduling order. The queue
/// owns the clock: `now()` is the time of the event currently (or most
/// recently) executing.
///
/// The binary heap holds trivially copyable 16-byte keys: the event time
/// and one word packing the FIFO sequence number (high kSequenceBits)
/// above a slot index (low kSlotBits). Callbacks and their scheduling
/// times live in a slot table of fixed-size chunks with a free list, so a
/// heap sift moves two words and never a `std::function`, and a callback
/// that schedules more events never sees its own slot move. The sequence
/// field is the high part of the word, so comparing (time, word) is
/// comparing (time, sequence).
///
/// A constant-rate source (`schedule_every`) takes one slot and keeps
/// only its next instance in the heap. It reserves one sequence number
/// per instance when it is created, and each instance re-enters with the
/// number it would have had from a separate `schedule()` call, so the run
/// order, `pending()` and the `lina.sim.event_queue.*` metrics are those
/// of the n calls it replaces.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  static constexpr int kSlotBits = 24;
  static constexpr int kSequenceBits = 64 - kSlotBits;

  /// Schedules `callback` at absolute time `time_ms` (>= now()); throws
  /// std::invalid_argument on a time in the past or a NaN/infinite time
  /// (a NaN would silently corrupt the heap order) and on an empty
  /// callback, EventQueueOverflow when a key field is full.
  void schedule(double time_ms, Callback callback);

  /// Schedules `callback` `delay_ms` (>= 0, finite) after now(); throws
  /// on negative or NaN delays.
  void schedule_in(double delay_ms, Callback callback);

  /// Schedules `callback` at every time of the loop
  /// `for (t = first_ms; t < end_ms; t += interval_ms)`, bit for bit,
  /// and in the order that loop's `schedule(t, callback)` calls would
  /// give it against every other event. One callback object runs every
  /// instance, so state it mutates carries over. No instance when
  /// `!(first_ms < end_ms)`. Throws std::invalid_argument on a `first_ms`
  /// in the past or not finite, an `interval_ms` not finite or not
  /// positive, an empty callback, and when `t + interval_ms == t` for
  /// some `t < end_ms` (the clock would stop advancing and the loop never
  /// end); EventQueueOverflow when the instances outnumber the sequence
  /// numbers left.
  void schedule_every(double first_ms, double interval_ms,
                      double end_ms, Callback callback);

  /// Runs the earliest event; returns false if the queue is empty.
  bool run_next();

  /// Runs until the queue drains or `max_events` have executed; returns
  /// the number of events executed.
  std::size_t run(std::size_t max_events = SIZE_MAX);

  [[nodiscard]] double now() const { return now_ms_; }
  [[nodiscard]] bool empty() const { return pending_ == 0; }
  /// Events not yet run, every remaining periodic instance included.
  [[nodiscard]] std::size_t pending() const { return pending_; }

 private:
  struct Key {
    double time_ms;
    std::uint64_t word;  // sequence << kSlotBits | slot
  };
  struct Slot {
    Callback callback;
    double scheduled_at_ms = 0.0;  // now() at schedule time, for dwell
    double interval_ms = 0.0;      // 0 for a one-shot event
    double end_ms = 0.0;           // periodic sources only
  };
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  Slot& slot(std::uint32_t index) {
    return chunks_[index >> kChunkBits][index & (kChunkSize - 1)];
  }
  /// Claims a free slot (growing the table by one chunk if none is
  /// free) and reserves `count` sequence numbers; returns the key word of
  /// the first. Throws before changing anything when a field is full.
  std::uint64_t claim(std::uint64_t count);
  void release(std::uint32_t index);
  void push(Key key);

  std::vector<Key> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t slots_used_ = 0;  // slots ever handed out
  std::size_t pending_ = 0;
  double now_ms_ = 0.0;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace lina::sim

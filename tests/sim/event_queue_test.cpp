#include "lina/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "../support/legacy_event_queue.hpp"

namespace lina::sim {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(5.0, [&] { order.push_back(2); });
  queue.schedule(1.0, [&] { order.push_back(1); });
  queue.schedule(9.0, [&] { order.push_back(3); });
  EXPECT_EQ(queue.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now(), 9.0);
}

TEST(EventQueueTest, EqualTimesFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    queue.schedule(1.0, [&order, i] { order.push_back(i); });
  }
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CallbacksCanScheduleMore) {
  EventQueue queue;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 4) queue.schedule_in(1.0, chain);
  };
  queue.schedule(0.0, chain);
  queue.run();
  EXPECT_EQ(fired, 4);
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
}

TEST(EventQueueTest, RejectsNaNAndInfiniteTimes) {
  // Regression: a NaN compares false against everything, so the old
  // `delay_ms < 0.0` guard let NaN through and silently corrupted the
  // heap order. Both entry points must reject it loudly.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EventQueue queue;
  EXPECT_THROW(queue.schedule_in(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.schedule_in(-nan, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.schedule(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.schedule(inf, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.schedule_in(inf, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.schedule_in(-1e-9, [] {}), std::invalid_argument);
  // The queue stays usable (and ordered) after the rejections.
  std::vector<int> order;
  queue.schedule(2.0, [&] { order.push_back(2); });
  queue.schedule(1.0, [&] { order.push_back(1); });
  EXPECT_EQ(queue.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, RejectsPastAndEmpty) {
  EventQueue queue;
  queue.schedule(5.0, [] {});
  queue.run();
  EXPECT_THROW(queue.schedule(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.schedule_in(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(queue.schedule(10.0, nullptr), std::invalid_argument);
}

TEST(EventQueueTest, RunNextOnEmpty) {
  EventQueue queue;
  EXPECT_FALSE(queue.run_next());
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.run(), 0u);
}

TEST(EventQueueTest, MaxEventsBound) {
  EventQueue queue;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    queue.schedule(static_cast<double>(i), [&] { ++fired; });
  }
  EXPECT_EQ(queue.run(3), 3u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(queue.pending(), 7u);
}

// --- schedule_every contract -----------------------------------------

/// The times `for (t = first; t < end; t += interval)` visits.
std::vector<double> loop_times(double first, double interval, double end) {
  std::vector<double> times;
  for (double t = first; t < end; t += interval) times.push_back(t);
  return times;
}

TEST(EventQueueEveryTest, TimesAndCountMatchTheLoop) {
  // 0.1 and 1/3 drift under accumulation; the instances must drift the
  // same way, bit for bit.
  const double intervals[] = {25.0, 0.1, 0.3, 1.0 / 3.0, 7.5};
  const double firsts[] = {0.0, 0.1, 3.0};
  const double ends[] = {1.0, 10.05, 720.0};
  for (const double interval : intervals) {
    for (const double first : firsts) {
      for (const double end : ends) {
        EventQueue queue;
        std::vector<double> fired;
        queue.schedule_every(first, interval, end,
                             [&] { fired.push_back(queue.now()); });
        const std::vector<double> expected = loop_times(first, interval, end);
        EXPECT_EQ(queue.pending(), expected.size());
        EXPECT_EQ(queue.run(), expected.size());
        EXPECT_EQ(fired, expected)
            << "first " << first << " interval " << interval << " end "
            << end;
        EXPECT_TRUE(queue.empty());
      }
    }
  }
}

TEST(EventQueueEveryTest, NoInstanceWhenFirstIsNotBeforeEnd) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EventQueue queue;
  int fired = 0;
  queue.schedule_every(5.0, 1.0, 5.0, [&] { ++fired; });
  queue.schedule_every(6.0, 1.0, 5.0, [&] { ++fired; });
  queue.schedule_every(0.0, 1.0, nan, [&] { ++fired; });
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.run(), 0u);
  EXPECT_EQ(fired, 0);
}

TEST(EventQueueEveryTest, RejectsBadArguments) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EventQueue queue;
  queue.schedule(5.0, [] {});
  queue.run();
  const auto noop = [] {};
  EXPECT_THROW(queue.schedule_every(1.0, 1.0, 10.0, noop),
               std::invalid_argument);  // first in the past
  EXPECT_THROW(queue.schedule_every(nan, 1.0, 10.0, noop),
               std::invalid_argument);
  EXPECT_THROW(queue.schedule_every(inf, 1.0, inf, noop),
               std::invalid_argument);
  for (const double interval : {0.0, -1.0, -0.0, nan, inf, -inf}) {
    EXPECT_THROW(queue.schedule_every(5.0, interval, 10.0, noop),
                 std::invalid_argument)
        << interval;
  }
  EXPECT_THROW(queue.schedule_every(5.0, 1.0, 10.0, nullptr),
               std::invalid_argument);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueEveryTest, ThrowsWhenTheClockStopsAdvancing) {
  // 1e17 + 1 == 1e17: a loop `t += 1` from 1e17 never reaches 2e17. The
  // loop itself is never run here; schedule_every must refuse it.
  EventQueue queue;
  int fired = 0;
  EXPECT_THROW(queue.schedule_every(1e17, 1.0, 2e17, [&] { ++fired; }),
               std::invalid_argument);
  // From 0 the 1 ms clock stalls at 2^53, far short of 2e17.
  EXPECT_THROW(queue.schedule_every(0.0, 1.0, 2e17, [&] { ++fired; }),
               std::invalid_argument);
  // A stall a few steps in: 2^53 + 1 rounds back to 2^53.
  const double two53 = 9007199254740992.0;
  EXPECT_THROW(
      queue.schedule_every(two53 - 4.0, 1.0, two53 + 8.0, [&] { ++fired; }),
      std::invalid_argument);
  EXPECT_THROW(queue.schedule_every(
                   0.0, 1.0, std::numeric_limits<double>::infinity(),
                   [&] { ++fired; }),
               std::invalid_argument);
  // Nothing was scheduled and the queue still works.
  EXPECT_TRUE(queue.empty());
  queue.schedule_every(two53 - 4.0, 1.0, two53, [&] { ++fired; });
  EXPECT_EQ(queue.run(), 4u);
  EXPECT_EQ(fired, 4);
}

TEST(EventQueueEveryTest, ThrowsOnSequenceOverflowWithoutWrapping) {
  // 2^41 instances of a clock that does advance: more than the
  // 2^kSequenceBits numbers a queue has.
  EventQueue queue;
  const double many = std::ldexp(1.0, EventQueue::kSequenceBits + 1);
  EXPECT_THROW(queue.schedule_every(0.0, 1.0, many, [] {}),
               EventQueueOverflow);
  EXPECT_TRUE(queue.empty());
  std::vector<int> order;
  queue.schedule(1.0, [&] { order.push_back(1); });
  queue.schedule_every(0.0, 1.0, 2.0, [&] { order.push_back(0); });
  queue.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0}));
}

TEST(EventQueueEveryTest, InstancesKeepTheirPlaceAmongEqualTimes) {
  // The source was created first, so each of its instances fires before
  // an event scheduled later for the same time, including one scheduled
  // while the previous instance runs.
  EventQueue queue;
  std::vector<std::string> order;
  queue.schedule_every(0.0, 1.0, 3.0, [&] {
    order.push_back("tick@" + std::to_string(static_cast<int>(queue.now())));
    queue.schedule_in(1.0, [&] {
      order.push_back("echo@" +
                      std::to_string(static_cast<int>(queue.now())));
    });
  });
  queue.schedule(2.0, [&] { order.push_back("late@2"); });
  EXPECT_EQ(queue.pending(), 4u);
  queue.run();
  EXPECT_EQ(order, (std::vector<std::string>{"tick@0", "tick@1", "echo@1",
                                             "tick@2", "late@2", "echo@2",
                                             "echo@3"}));
}

TEST(EventQueueEveryTest, CallbackSurvivesSlotTableGrowth) {
  // Each instance schedules hundreds of events before it reads its own
  // captured state: the slot table grows under a running callback, which
  // must not move it (the sanitizer presets catch a moved closure).
  EventQueue queue;
  const std::vector<int> payload(64, 7);
  int sum = 0;
  int children = 0;
  queue.schedule_every(0.0, 1.0, 3.0, [&queue, &sum, &children, payload] {
    for (int i = 0; i < 700; ++i)
      queue.schedule_in(0.5, [&children] { ++children; });
    for (const int x : payload) sum += x;
  });
  queue.run();
  EXPECT_EQ(sum, 3 * 64 * 7);
  EXPECT_EQ(children, 3 * 700);
}

TEST(EventQueueEveryTest, ThrowingCallbackLeavesTheQueueUsable) {
  EventQueue queue;
  int fired = 0;
  queue.schedule(1.0, [] { throw std::runtime_error("boom"); });
  queue.schedule_every(1.0, 1.0, 3.0, [&] {
    ++fired;
    if (fired == 1) throw std::runtime_error("tick");
  });
  EXPECT_THROW(queue.run(), std::runtime_error);  // the one-shot
  EXPECT_EQ(queue.pending(), 2u);
  EXPECT_THROW(queue.run(), std::runtime_error);  // the first tick
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_EQ(queue.run(), 1u);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(queue.now(), 2.0);
}

// --- Differential test against the legacy priority queue ---------------

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Fired {
  std::uint64_t id;        // the scheduling call
  std::uint64_t instance;  // 0 for schedule / schedule_in
  double now_ms;
  std::size_t pending;
  bool operator==(const Fired&) const = default;
};

/// Drives one queue through a seeded script. Every decision comes from a
/// hash of the seed and of the event being run, never from the queue,
/// so two queues that agree on the order see the same script.
template <class Queue>
class Script {
 public:
  explicit Script(std::uint64_t seed) : rng_(seed) {}

  /// Runs the top-level script; returns pending() after every step.
  std::vector<std::size_t> play(int steps) {
    std::vector<std::size_t> pending;
    for (int step = 0; step < steps; ++step) {
      const std::uint64_t r = next();
      if (r % 6 < 3) {
        add(r / 6);
      } else {
        queue_.run(1 + (r / 6) % 9);
      }
      pending.push_back(queue_.pending());
    }
    queue_.run();
    pending.push_back(queue_.pending());
    return pending;
  }

  [[nodiscard]] const std::vector<Fired>& log() const { return log_; }

 private:
  std::uint64_t next() { return rng_ = mix(rng_); }

  // Coarse grid, so equal-time ties are frequent.
  static double grid(std::uint64_t r) {
    return 0.5 * static_cast<double>(r % 5);
  }

  /// One scheduling call chosen by `r`: schedule, schedule_in or a
  /// constant-rate source (whose interval may drift, like 0.1).
  void add(std::uint64_t r) {
    const std::uint64_t id = next_id_++;
    switch (r % 3) {
      case 0:
        queue_.schedule(queue_.now() + grid(r / 3),
                        [this, id] { fire(id, 0); });
        break;
      case 1:
        queue_.schedule_in(grid(r / 3), [this, id] { fire(id, 0); });
        break;
      default: {
        const double first = queue_.now() + grid(r / 3);
        const double interval = (r / 15) % 4 == 0
                                    ? 0.1
                                    : 0.5 * static_cast<double>(
                                                1 + (r / 15) % 3);
        const double end = first + 0.5 * static_cast<double>((r / 60) % 12);
        if constexpr (std::is_same_v<Queue, EventQueue>) {
          queue_.schedule_every(first, interval, end,
                                [this, id, k = std::uint64_t{0}]() mutable {
                                  fire(id, k++);
                                });
        } else {
          std::uint64_t k = 0;
          for (double t = first; t < end; t += interval) {
            queue_.schedule(t, [this, id, k] { fire(id, k); });
            ++k;
          }
        }
      }
    }
  }

  /// Logs the event and lets it schedule up to two more, at now() or
  /// later, while the id budget lasts.
  void fire(std::uint64_t id, std::uint64_t instance) {
    log_.push_back({id, instance, queue_.now(), queue_.pending()});
    const std::uint64_t r = mix(rng_seed_ ^ mix(id * 1000003 + instance));
    if (next_id_ >= kMaxIds) return;
    for (std::uint64_t child = 0; child < r % 3; ++child)
      add(mix(r + child));
  }

  static constexpr std::uint64_t kMaxIds = 600;
  Queue queue_;
  std::uint64_t rng_;
  const std::uint64_t rng_seed_ = rng_;
  std::uint64_t next_id_ = 0;
  std::vector<Fired> log_;
};

TEST(EventQueueDifferentialTest, MatchesLegacyQueueOnRandomScripts) {
  std::size_t events = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Script<EventQueue> fast(seed);
    Script<testref::LegacyEventQueue> legacy(seed);
    const std::vector<std::size_t> fast_pending = fast.play(120);
    const std::vector<std::size_t> legacy_pending = legacy.play(120);
    ASSERT_EQ(fast_pending, legacy_pending) << "seed " << seed;
    ASSERT_EQ(fast.log().size(), legacy.log().size()) << "seed " << seed;
    for (std::size_t i = 0; i < fast.log().size(); ++i) {
      const Fired& a = fast.log()[i];
      const Fired& b = legacy.log()[i];
      ASSERT_EQ(a, b) << "seed " << seed << " event " << i << ": id "
                      << a.id << "/" << b.id << " instance " << a.instance
                      << "/" << b.instance << " now " << a.now_ms << "/"
                      << b.now_ms << " pending " << a.pending << "/"
                      << b.pending;
    }
    events += fast.log().size();
  }
  // The scripts are not trivial: thousands of events over 40 seeds.
  EXPECT_GT(events, 10000u);
}

}  // namespace
}  // namespace lina::sim

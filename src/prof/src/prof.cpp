#include "lina/prof/prof.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

#include "lina/obs/registry.hpp"

namespace lina::prof {

namespace detail {

std::atomic<bool>& enabled_flag() noexcept {
  static std::atomic<bool> flag{false};
  return flag;
}

std::uint64_t tsc_now() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#elif defined(__aarch64__)
  std::uint64_t value;
  asm volatile("mrs %0, cntvct_el0" : "=r"(value));
  return value;
#else
  return 0;
#endif
}

ThreadState& thread_state() noexcept {
  thread_local ThreadState state;
  return state;
}

}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Process-wide profiler state. Leaked (like the obs registry and the
/// exec pool) so thread rings outlive every instrumented thread and the
/// at-exit exporters.
struct GlobalState {
  std::mutex mutex;  // guards rings (growth/reset) and capacity
  std::vector<std::unique_ptr<detail::ThreadRing>> rings;
  std::size_t capacity = Profiler::kDefaultRingCapacity;
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint64_t> epoch_ns{0};
  std::atomic<std::uint64_t> epoch_tsc{0};
  // ns per TSC tick, calibrated once at first enable; 0 means "no usable
  // cycle counter — fall back to steady_clock on every span boundary".
  std::atomic<double> ns_per_tick{0.0};
};

GlobalState& global() {
  static GlobalState* state = new GlobalState();
  return *state;
}

/// Calibrate the TSC against steady_clock. With a valid ratio a span
/// boundary costs one rdtsc instead of a clock_gettime call — the
/// difference between ~30ns and ~85ns per span on a VM. A ~200µs window
/// bounds the ratio error to ~1e-4 (a 1ms drift over a 10s run,
/// invisible at trace resolution). Runs once, before the enabled flag is
/// set, so no span ever observes a half-initialised clock.
double calibrate_ns_per_tick() {
  // -1 is the "tried, unusable" sentinel: now_ns() only takes the TSC
  // path for ratios > 0, and enable() will not re-spin the calibration.
  if (detail::tsc_now() == 0) return -1.0;  // no cycle counter on this arch
  const std::uint64_t t0 = steady_ns();
  const std::uint64_t c0 = detail::tsc_now();
  std::uint64_t t1 = t0;
  std::uint64_t c1 = c0;
  while (t1 - t0 < 200'000) {
    t1 = steady_ns();
    c1 = detail::tsc_now();
  }
  if (c1 <= c0) return -1.0;  // TSC not advancing (paused/emulated)
  return static_cast<double>(t1 - t0) / static_cast<double>(c1 - c0);
}

/// The calling thread's ring, registered on its first record.
detail::ThreadRing& thread_ring(detail::ThreadState& thread) {
  if (thread.ring != nullptr) return *thread.ring;
  GlobalState& state = global();
  const std::lock_guard<std::mutex> lock(state.mutex);
  state.rings.push_back(std::make_unique<detail::ThreadRing>(
      static_cast<std::uint32_t>(state.rings.size() + 1), state.capacity));
  thread.ring = state.rings.back().get();
  return *thread.ring;
}

/// The attributed obs counter handles, registered on first use. Reading
/// a handle is one relaxed atomic load per counter whether or not the
/// obs registry is enabled (deltas are simply 0 while it is off).
struct AttributedCounters {
  std::array<obs::Counter, kAttributedCounters> handles;

  AttributedCounters() {
    const auto& names = attributed_counter_names();
    for (std::size_t i = 0; i < names.size(); ++i) {
      handles[i] = obs::Registry::instance().counter(names[i]);
    }
  }

  static const AttributedCounters& instance() {
    static const AttributedCounters counters;
    return counters;
  }
};

}  // namespace

const std::array<const char*, kAttributedCounters>&
attributed_counter_names() {
  static const std::array<const char*, kAttributedCounters> names = {
      "lina.net.ip_trie.lpm_node_visits",
      "lina.names.name_trie.lpm_node_visits",
      "lina.sim.fabric.next_hop_queries",
      "lina.sim.fabric.detour_hops",
      "lina.sim.resolver.lookups",
      "lina.sim.event_queue.executed",
      "lina.trace.cursor_events",
      "lina.snap.loads",
  };
  return names;
}

namespace detail {

std::uint64_t next_span_id() noexcept {
  return global().next_id.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t now_ns() noexcept {
  GlobalState& state = global();
  const double ns_per_tick =
      state.ns_per_tick.load(std::memory_order_relaxed);
  if (ns_per_tick > 0.0) {
    const std::uint64_t tsc = tsc_now();
    const std::uint64_t epoch =
        state.epoch_tsc.load(std::memory_order_relaxed);
    if (tsc < epoch) return 0;
    return static_cast<std::uint64_t>(static_cast<double>(tsc - epoch) *
                                      ns_per_tick);
  }
  const std::uint64_t now = steady_ns();
  const std::uint64_t epoch = state.epoch_ns.load(std::memory_order_relaxed);
  return now >= epoch ? now - epoch : 0;
}

/// One span-boundary timestamp: a single TSC read supplies both the raw
/// cycle count and (via the calibrated ratio) the wall-clock ns, so the
/// hot path pays one rdtsc, not two. Falls back to steady_clock when no
/// usable cycle counter was found at calibration.
void timestamp(std::uint64_t& tsc, std::uint64_t& ns) noexcept {
  GlobalState& state = global();
  tsc = tsc_now();
  const double ns_per_tick =
      state.ns_per_tick.load(std::memory_order_relaxed);
  if (ns_per_tick > 0.0) {
    const std::uint64_t epoch =
        state.epoch_tsc.load(std::memory_order_relaxed);
    ns = tsc >= epoch
             ? static_cast<std::uint64_t>(
                   static_cast<double>(tsc - epoch) * ns_per_tick)
             : 0;
    return;
  }
  const std::uint64_t now = steady_ns();
  const std::uint64_t epoch = state.epoch_ns.load(std::memory_order_relaxed);
  ns = now >= epoch ? now - epoch : 0;
}

void sample_counters(
    std::array<std::uint64_t, kAttributedCounters>& out) noexcept {
  const AttributedCounters& counters = AttributedCounters::instance();
  for (std::size_t i = 0; i < kAttributedCounters; ++i) {
    out[i] = counters.handles[i].value();
  }
}

void record_instant(const char* name, double sim_ms,
                    double value) noexcept {
  ThreadState& state = thread_state();
  ThreadRing& ring = thread_ring(state);
  SpanRecord record;
  timestamp(record.tsc_begin, record.begin_ns);
  record.tsc_end = record.tsc_begin;
  record.end_ns = record.begin_ns;
  record.name = name;
  record.parent = state.innermost();
  record.thread = ring.thread_index();
  record.depth = state.depth + 1;
  record.sim_ms = sim_ms;
  record.value = value;
  ring.push(record);
}

}  // namespace detail

Profiler& Profiler::instance() {
  static Profiler* instance = new Profiler();  // leaked: process-lifetime
  return *instance;
}

void Profiler::enable(bool on) noexcept {
  if (on) {
    // Stamp the epoch on the first enable only, so disable/re-enable
    // cycles within one run keep a common timeline. Calibration happens
    // before the flag below is stored, so no span races a moving clock.
    GlobalState& state = global();
    std::uint64_t expected = 0;
    if (state.epoch_ns.compare_exchange_strong(expected, steady_ns(),
                                               std::memory_order_relaxed)) {
      state.epoch_tsc.store(detail::tsc_now(), std::memory_order_relaxed);
    }
    // Calibrate once per process (reset() may have stamped the epoch
    // already, so this is deliberately independent of the CAS above).
    if (state.ns_per_tick.load(std::memory_order_relaxed) == 0.0) {
      state.ns_per_tick.store(calibrate_ns_per_tick(),
                              std::memory_order_relaxed);
    }
    // Touch the counter handles now so the first span's begin path does
    // not pay the one-time registration.
    (void)AttributedCounters::instance();
  }
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

void Profiler::reset() {
  GlobalState& state = global();
  const std::lock_guard<std::mutex> lock(state.mutex);
  for (auto& ring : state.rings) ring->reallocate(state.capacity);
  state.epoch_ns.store(steady_ns(), std::memory_order_relaxed);
  state.epoch_tsc.store(detail::tsc_now(), std::memory_order_relaxed);
}

void Profiler::set_ring_capacity(std::size_t capacity) {
  GlobalState& state = global();
  const std::lock_guard<std::mutex> lock(state.mutex);
  state.capacity = std::max<std::size_t>(1, capacity);
}

std::size_t Profiler::ring_capacity() const {
  GlobalState& state = global();
  const std::lock_guard<std::mutex> lock(state.mutex);
  return state.capacity;
}

std::vector<SpanRecord> Profiler::drain() const {
  GlobalState& state = global();
  std::vector<SpanRecord> out;
  {
    const std::lock_guard<std::mutex> lock(state.mutex);
    for (const auto& ring : state.rings) {
      const std::size_t n = ring->size();  // acquire: publishes records
      out.insert(out.end(), ring->data(), ring->data() + n);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.begin_ns != b.begin_ns ? a.begin_ns < b.begin_ns
                                              : a.id < b.id;
            });
  return out;
}

std::vector<ThreadProfile> Profiler::thread_profiles() const {
  GlobalState& state = global();
  const std::lock_guard<std::mutex> lock(state.mutex);
  std::vector<ThreadProfile> out;
  out.reserve(state.rings.size());
  for (const auto& ring : state.rings) {
    out.push_back(ThreadProfile{ring->thread_index(),
                                static_cast<std::uint64_t>(ring->size()),
                                ring->dropped()});
  }
  return out;
}

std::uint64_t Profiler::dropped() const {
  std::uint64_t total = 0;
  for (const ThreadProfile& t : thread_profiles()) total += t.dropped;
  return total;
}

void Span::begin_impl(const char* name) noexcept {
  detail::ThreadState& state = detail::thread_state();
  (void)thread_ring(state);
  name_ = name;
  id_ = detail::next_span_id();
  parent_ = state.innermost();
  previous_current_ = state.current_span;
  state.current_span = id_;
  ++state.depth;
  detail::sample_counters(counters_begin_);
  detail::timestamp(tsc_begin_, begin_ns_);
  armed_ = true;
}

void Span::end_impl() noexcept {
  SpanRecord record;
  detail::timestamp(record.tsc_end, record.end_ns);
  detail::ThreadState& state = detail::thread_state();
  record.name = name_;
  record.id = id_;
  record.parent = parent_;
  record.begin_ns = begin_ns_;
  record.tsc_begin = tsc_begin_;
  record.thread = state.ring->thread_index();
  record.depth = state.depth;
  detail::sample_counters(record.counter_deltas);
  for (std::size_t i = 0; i < kAttributedCounters; ++i) {
    record.counter_deltas[i] -= counters_begin_[i];
  }
  state.current_span = previous_current_;
  --state.depth;
  state.ring->push(record);
  armed_ = false;
}

}  // namespace lina::prof

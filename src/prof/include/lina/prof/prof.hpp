#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lina::prof {

/// `lina::prof` — the causal span profiler (DESIGN.md §4g).
///
/// Always compiled, near-zero overhead while disabled: a `PROF_SPAN`
/// whose enclosing profiler is off costs one relaxed atomic-bool load and
/// a predictable branch — the same off-switch discipline as `lina::obs`,
/// with a *separate* flag so metrics and profiling can be toggled
/// independently (`--json` enables metrics, `--profile` enables both).
///
/// While enabled, each thread records closed spans into its own
/// append-only buffer (single-producer: the owning thread writes, the
/// exporter reads after `enable(false)` with acquire/release hand-off).
/// A span carries:
///
///  - name            — a static string literal, `lina.<layer>.<what>`;
///  - id / parent id  — globally unique, parents may live on another
///                      thread (see the `lina::exec` propagation below);
///  - begin/end       — steady-clock nanoseconds since the profiler
///                      epoch *and* raw TSC ticks (cycle-accurate
///                      durations on x86/aarch64, 0 elsewhere);
///  - thread / depth  — dense thread index and nesting depth;
///  - counter deltas  — the attributed `lina::obs` counters sampled at
///                      both boundaries (see `attributed_counters()`),
///                      so a routing span knows how many LPM node visits
///                      happened inside it.
///
/// Causality across threads: `exec::ThreadPool` captures the submitting
/// thread's innermost open span and workers adopt it as the parent of
/// every span they open for that job, so `parallel_for` chunks attribute
/// to the region that spawned them.
///
/// Instant events (`prof::instant`) share the same rings: a point on the
/// simulated timeline (a move, a reconvergence, a lost update) recorded
/// as a zero-length record under the innermost open span, carrying its
/// simulated time and a payload value.
///
/// When a thread's buffer fills, further records are *dropped and
/// counted* (never silently lost, never overwriting a parent another
/// record references); per-thread drop counts ride along in every export.
///
/// The profiler only observes: no span ever feeds back into simulation
/// state, pinned by the prof bit-identity suite (`ctest -L prof`).

namespace detail {

/// The global on/off flag shared by every PROF_SPAN site.
[[nodiscard]] std::atomic<bool>& enabled_flag() noexcept;

inline bool profiling() noexcept {
  return enabled_flag().load(std::memory_order_relaxed);
}

/// Raw timestamp counter: rdtsc on x86, the virtual counter on aarch64,
/// 0 on other targets (wall-clock nanoseconds still work everywhere).
[[nodiscard]] std::uint64_t tsc_now() noexcept;

}  // namespace detail

/// Number of `lina::obs` counters attributed to span boundaries.
inline constexpr std::size_t kAttributedCounters = 8;

/// Names of the attributed counters, index-aligned with
/// `SpanRecord::counter_deltas`. Chosen to decompose a session's cost
/// into the paper's axes: LPM work, fabric forwarding, resolution,
/// event-queue churn, trace replay and snapshot I/O.
[[nodiscard]] const std::array<const char*, kAttributedCounters>&
attributed_counter_names();

/// One closed span, or one instant event. `name` points at the static
/// literal passed to PROF_SPAN / Span::begin / instant and must outlive
/// the export.
struct SpanRecord {
  const char* name = nullptr;
  std::uint64_t id = 0;  // 0 = instant event (never a parent)
  std::uint64_t parent = 0;  // 0 = root (no enclosing span on any thread)
  std::uint64_t begin_ns = 0;  // steady clock minus profiler epoch
  std::uint64_t end_ns = 0;
  std::uint64_t tsc_begin = 0;
  std::uint64_t tsc_end = 0;
  std::uint32_t thread = 0;  // dense per-process thread index (1-based)
  std::uint32_t depth = 0;   // nesting depth on the recording thread
  std::array<std::uint64_t, kAttributedCounters> counter_deltas{};
  double sim_ms = 0.0;  // instants: simulated time of the event
  double value = 0.0;   // instants: payload (AS id, message id, ...)

  [[nodiscard]] bool is_instant() const { return id == 0; }
};

namespace detail {

/// Per-thread span buffer. The owning thread appends; the exporter reads
/// `size()` with acquire ordering after profiling stops, which
/// happens-after every release store, so drained records are
/// well-defined without locks (single producer, quiesced consumers).
class ThreadRing {
 public:
  explicit ThreadRing(std::uint32_t thread_index, std::size_t capacity)
      : thread_index_(thread_index), records_(capacity) {}

  void push(const SpanRecord& record) noexcept {
    const std::size_t n = size_.load(std::memory_order_relaxed);
    if (n >= records_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    records_[n] = record;
    size_.store(n + 1, std::memory_order_release);
  }

  [[nodiscard]] std::uint32_t thread_index() const { return thread_index_; }
  [[nodiscard]] std::size_t capacity() const { return records_.size(); }
  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const SpanRecord* data() const { return records_.data(); }

  void clear() noexcept {
    size_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
  }
  void reallocate(std::size_t capacity) {
    records_.assign(capacity, SpanRecord{});
    clear();
  }

 private:
  std::uint32_t thread_index_;
  std::vector<SpanRecord> records_;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// Thread-local span context: the thread's ring (created on first span),
/// the innermost open span, the nesting depth, and the parent adopted
/// from a spawning thread inside an exec::ThreadPool job.
struct ThreadState {
  ThreadRing* ring = nullptr;
  std::uint64_t current_span = 0;
  std::uint64_t adopted_parent = 0;
  std::uint32_t depth = 0;

  /// The parent of a record opened now.
  [[nodiscard]] std::uint64_t innermost() const noexcept {
    return current_span != 0 ? current_span : adopted_parent;
  }
};

[[nodiscard]] ThreadState& thread_state() noexcept;

/// Allocates a process-unique span id (never 0, never reused).
[[nodiscard]] std::uint64_t next_span_id() noexcept;

/// Steady-clock nanoseconds since the profiler epoch (set by
/// Profiler::enable / reset).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Samples every attributed counter into `out`.
void sample_counters(
    std::array<std::uint64_t, kAttributedCounters>& out) noexcept;

void record_instant(const char* name, double sim_ms, double value) noexcept;

}  // namespace detail

/// Per-thread accounting, exported alongside the spans so a truncated
/// profile is visible, never silent.
struct ThreadProfile {
  std::uint32_t thread = 0;
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
};

/// The process-wide profiler: the on/off switch, the ring registry, and
/// the drain the exporters read from.
class Profiler {
 public:
  static constexpr std::size_t kDefaultRingCapacity = 1u << 15;  // per thread

  [[nodiscard]] static Profiler& instance();

  /// Turns span recording on/off. Enabling (re)stamps the epoch if no
  /// spans have been recorded yet; disabling publishes all buffered
  /// records to the exporters.
  void enable(bool on) noexcept;
  [[nodiscard]] bool enabled() const noexcept { return detail::profiling(); }

  /// Discards every buffered span and drop count and restamps the epoch.
  /// Call only while no instrumented work is in flight.
  void reset();

  /// Ring capacity for rings created or reset after the call (existing
  /// buffered records survive until the next reset()).
  void set_ring_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t ring_capacity() const;

  /// All buffered spans and instants across threads, ordered by
  /// (begin_ns, id). Call after enable(false) once instrumented work has
  /// quiesced.
  [[nodiscard]] std::vector<SpanRecord> drain() const;

  /// Per-thread recorded/dropped accounting.
  [[nodiscard]] std::vector<ThreadProfile> thread_profiles() const;

  /// Sum of dropped records across all thread rings.
  [[nodiscard]] std::uint64_t dropped() const;

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

 private:
  Profiler() = default;
};

/// The innermost open span on this thread (or the parent adopted from the
/// spawning thread inside a pool job); 0 when none or disabled. This is
/// what exec::ThreadPool captures at job submission.
[[nodiscard]] inline std::uint64_t current_span_id() noexcept;

/// RAII span. Use through PROF_SPAN for scoped regions, or default-
/// construct and begin()/end() explicitly for phase-style regions whose
/// lifetime does not match a C++ scope. `name` must be a pointer that
/// outlives the export (string literals; the bench harness interns its
/// dynamic phase names).
class Span {
 public:
  Span() = default;
  explicit Span(const char* name) noexcept {
    if (detail::profiling()) begin_impl(name);
  }
  ~Span() { end(); }

  /// Ends any open region, then starts a new one (no-op while disabled).
  void begin(const char* name) noexcept {
    end();
    if (detail::profiling()) begin_impl(name);
  }

  /// Closes the region and records it; idempotent.
  void end() noexcept {
    if (armed_) end_impl();
  }

  [[nodiscard]] bool armed() const noexcept { return armed_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void begin_impl(const char* name) noexcept;
  void end_impl() noexcept;

  const char* name_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t previous_current_ = 0;
  std::uint64_t begin_ns_ = 0;
  std::uint64_t tsc_begin_ = 0;
  std::array<std::uint64_t, kAttributedCounters> counters_begin_{};
  bool armed_ = false;
};

inline std::uint64_t current_span_id() noexcept {
  if (!detail::profiling()) return 0;
  return detail::thread_state().innermost();
}

/// Records an instant event: one zero-length record (begin == end) in
/// this thread's ring, parented to the innermost open span, carrying the
/// simulated time `sim_ms` and a payload `value`. One relaxed load while
/// profiling is off; drops and counts like a span when the ring is full.
inline void instant(const char* name, double sim_ms,
                    double value = 0.0) noexcept {
  if (detail::profiling()) detail::record_instant(name, sim_ms, value);
}

/// Marks spans opened on this thread as children of `parent_span` when no
/// local span encloses them — the cross-thread causal link. ThreadPool
/// workers install one per job; nested scopes restore the previous value.
class AdoptedParentScope {
 public:
  explicit AdoptedParentScope(std::uint64_t parent_span) noexcept
      : previous_(detail::thread_state().adopted_parent) {
    detail::thread_state().adopted_parent = parent_span;
  }
  ~AdoptedParentScope() {
    detail::thread_state().adopted_parent = previous_;
  }
  AdoptedParentScope(const AdoptedParentScope&) = delete;
  AdoptedParentScope& operator=(const AdoptedParentScope&) = delete;

 private:
  std::uint64_t previous_;
};

/// Enables the profiler for the lifetime of the object, restoring the
/// previous state on destruction (tests compare profiled and bare runs
/// in one process).
class EnabledScope {
 public:
  explicit EnabledScope(bool on = true)
      : previous_(Profiler::instance().enabled()) {
    Profiler::instance().enable(on);
  }
  ~EnabledScope() { Profiler::instance().enable(previous_); }
  EnabledScope(const EnabledScope&) = delete;
  EnabledScope& operator=(const EnabledScope&) = delete;

 private:
  bool previous_;
};

}  // namespace lina::prof

// PROF_SPAN("lina.layer.what"): names a scoped region. One relaxed load
// + branch while profiling is off; ~one buffered record while on.
#define LINA_PROF_CONCAT_INNER(a, b) a##b
#define LINA_PROF_CONCAT(a, b) LINA_PROF_CONCAT_INNER(a, b)
#define PROF_SPAN(name) \
  ::lina::prof::Span LINA_PROF_CONCAT(lina_prof_span_, __LINE__)(name)

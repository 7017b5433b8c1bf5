#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lina::obs {

/// Process-wide metrics registry — the `lina::obs` observability core.
///
/// Metrics are named following the scheme
/// `lina.<layer>.<component>.<metric>` (e.g.
/// `lina.sim.fabric.detour_hops`) and come in three shapes:
///
///  - Counter   — monotonic, thread-safe (relaxed atomic adds),
///  - Gauge     — last-value / running-max, thread-safe,
///  - Histogram — fixed exponential buckets with quantile extraction.
///
/// The registry is **disabled by default** and every recording operation
/// is a cheap no-op while it stays disabled: one relaxed atomic-bool load
/// and a predictable branch. Instrumented code therefore costs nothing
/// measurable in the hot loops, and — by construction — instrumentation
/// only ever *observes*; it never feeds back into simulation state.
/// `tests/obs/off_switch_test.cpp` pins that contract by asserting
/// bit-identical `SessionStats` with the registry on vs. off, mirroring
/// the PR 1 empty-FailurePlan discipline.
///
/// Handles (`Counter`, `Gauge`, `Histogram`) are small value types
/// pointing at registry-owned cells; cells live for the process lifetime,
/// so handles never dangle. Registration deduplicates by name: asking for
/// the same metric name twice returns a handle to the same cell.

namespace detail {

/// The global off-switch, shared by every handle.
[[nodiscard]] std::atomic<bool>& enabled_flag() noexcept;

inline bool recording() noexcept {
  return enabled_flag().load(std::memory_order_relaxed);
}

struct CounterCell {
  std::atomic<std::uint64_t> value{0};
};

struct GaugeCell {
  std::atomic<double> value{0.0};
  std::atomic<double> max{0.0};
  std::atomic<bool> touched{false};
};

/// Exponential bucket layout: bucket i covers
/// [first_bound * growth^(i-1), first_bound * growth^i), bucket 0 is the
/// underflow bucket (< first_bound) and the last bucket is the overflow
/// bucket (>= the largest bound).
struct HistogramLayout {
  double first_bound = 0.001;  // 1 µs when recording milliseconds
  double growth = 2.0;
  std::size_t bucket_count = 40;  // including underflow + overflow
};

struct HistogramCell {
  explicit HistogramCell(const HistogramLayout& layout);

  HistogramLayout layout;
  std::vector<double> upper_bounds;  // size bucket_count - 1
  std::vector<std::atomic<std::uint64_t>> buckets;
  std::atomic<std::uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{0.0};
  std::atomic<double> max{0.0};

  void record(double x) noexcept;
};

}  // namespace detail

/// Monotonic counter handle. `add` is a no-op while the registry is
/// disabled.
class Counter {
 public:
  Counter() = default;

  void add(std::uint64_t n = 1) noexcept {
    if (cell_ != nullptr && detail::recording())
      cell_->value.fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return cell_ == nullptr ? 0
                            : cell_->value.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Counter(detail::CounterCell* cell) : cell_(cell) {}
  detail::CounterCell* cell_ = nullptr;
};

/// Last-value gauge with a running maximum; `set` / `record_max` are
/// no-ops while disabled.
class Gauge {
 public:
  Gauge() = default;

  void set(double v) noexcept {
    if (cell_ == nullptr || !detail::recording()) return;
    cell_->value.store(v, std::memory_order_relaxed);
    record_max(v);
    cell_->touched.store(true, std::memory_order_relaxed);
  }

  /// Raises the running maximum to at least `v`.
  void record_max(double v) noexcept {
    if (cell_ == nullptr || !detail::recording()) return;
    double current = cell_->max.load(std::memory_order_relaxed);
    while (v > current && !cell_->max.compare_exchange_weak(
                              current, v, std::memory_order_relaxed)) {
    }
    cell_->touched.store(true, std::memory_order_relaxed);
  }

  [[nodiscard]] double value() const noexcept {
    return cell_ == nullptr ? 0.0
                            : cell_->value.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double max() const noexcept {
    return cell_ == nullptr ? 0.0
                            : cell_->max.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Gauge(detail::GaugeCell* cell) : cell_(cell) {}
  detail::GaugeCell* cell_ = nullptr;
};

/// Fixed-bucket latency/size histogram handle; `record` is a no-op while
/// disabled.
class Histogram {
 public:
  Histogram() = default;

  void record(double x) noexcept {
    if (cell_ != nullptr && detail::recording()) cell_->record(x);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return cell_ == nullptr ? 0
                            : cell_->count.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramCell* cell) : cell_(cell) {}
  detail::HistogramCell* cell_ = nullptr;
};

/// Point-in-time copy of one histogram, with quantile extraction.
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// (upper bound, cumulative-exclusive count) per bucket; the last
  /// bucket's bound is +infinity (the overflow bucket).
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> buckets;

  [[nodiscard]] bool empty() const { return count == 0; }
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  /// q-th quantile, q in [0, 1], by linear interpolation inside the
  /// containing bucket, clamped to the observed [min, max] so single
  /// samples and overflow-bucket mass report honest values. Empty
  /// histograms report 0.
  [[nodiscard]] double quantile(double q) const;
};

/// Point-in-time copy of the whole registry, sorted by metric name.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// name -> (value, max)
  std::vector<std::pair<std::string, std::pair<double, double>>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

struct HistogramOptions {
  double first_bound = 0.001;
  double growth = 2.0;
  std::size_t bucket_count = 40;
};

class Registry {
 public:
  /// The process-wide registry.
  [[nodiscard]] static Registry& instance();

  /// Turns recording on/off globally. Off (the default) makes every
  /// handle operation a no-op.
  void enable(bool on) noexcept {
    detail::enabled_flag().store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept { return detail::recording(); }

  /// Returns a handle to the named metric, registering it on first use.
  /// Thread-safe; repeated calls with the same name share one cell.
  [[nodiscard]] Counter counter(std::string_view name);
  [[nodiscard]] Gauge gauge(std::string_view name);
  [[nodiscard]] Histogram histogram(std::string_view name,
                                    HistogramOptions options = {});

  /// Zeroes every registered metric (registrations and handles survive).
  void reset();

  /// Copies every metric that has recorded at least one event (untouched
  /// metrics are omitted so exports only carry what actually ran).
  [[nodiscard]] Snapshot snapshot() const;

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  Registry() = default;
  struct Impl;
  [[nodiscard]] Impl& impl() const;
};

/// Enables the registry for the lifetime of the object, restoring the
/// previous state on destruction — the bench harness and tests use this
/// so one binary can compare instrumented and bare runs.
class EnabledScope {
 public:
  explicit EnabledScope(bool on = true)
      : previous_(Registry::instance().enabled()) {
    Registry::instance().enable(on);
  }
  ~EnabledScope() { Registry::instance().enable(previous_); }
  EnabledScope(const EnabledScope&) = delete;
  EnabledScope& operator=(const EnabledScope&) = delete;

 private:
  bool previous_;
};

}  // namespace lina::obs

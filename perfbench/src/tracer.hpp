#pragma once

// Span recorder for the traced run. A span wraps one call (or one pass of
// calls) from the benchmark into a lina module; its name is
// "<layer>.<call>", where <layer> is the src/ module the call enters.
// Spans stay in memory and are written out once, when the run ends.
// While tracing is off a Span costs one branch.

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

/// Process CPU time (user + system, every thread) from getrusage, in ns.
inline std::int64_t process_cpu_ns() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto ns = [](const timeval& t) {
    return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(t.tv_usec) * 1'000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

/// Peak resident set size so far; Linux reports ru_maxrss in KiB.
inline double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Resident set size now (the second field of /proc/self/statm, in pages).
inline double resident_mib() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

inline std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = no parent
  std::uint32_t run = 0;     // one id per measured workload run
  const char* name = "";     // string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;   // process CPU spent inside the span
};

/// Single-threaded: every span is opened and closed by the benchmark's
/// own (main) thread, around calls that may fan out internally.
class Tracer {
 public:
  [[nodiscard]] bool enabled() const { return enabled_; }
  void enable(bool on) { enabled_ = on; }

  /// Starts a new workload run; later spans carry its id.
  void begin_run(std::uint32_t run) { run_ = run; }

  std::size_t open(const char* name) {
    SpanRecord record;
    record.id = static_cast<std::uint32_t>(spans_.size() + 1);
    record.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    record.run = run_;
    record.name = name;
    record.cpu_ns = process_cpu_ns();
    record.start_ns = steady_ns();
    spans_.push_back(record);
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    SpanRecord& record = spans_[index];
    record.end_ns = steady_ns();
    record.cpu_ns = process_cpu_ns() - record.cpu_ns;
    stack_.pop_back();
  }

  /// One JSON object per line: id, parent, run, name, start/end (ns on
  /// the steady clock) and the process CPU ns inside the span.
  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    for (const SpanRecord& s : spans_) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"run\":" << s.run << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"cpu_ns\":" << s.cpu_ns << "}\n";
    }
  }

 private:
  bool enabled_ = false;
  std::uint32_t run_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> stack_;  // indices of open spans
};

/// RAII span; records nothing while the tracer is off.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.open(name) : kNone) {}
  ~Span() {
    if (index_ != kNone) tracer_.close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  Tracer& tracer_;
  std::size_t index_;
};

}  // namespace perfbench

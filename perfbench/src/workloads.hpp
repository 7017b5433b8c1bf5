#pragma once

// The benchmark's three workloads. Each is one fixed batch job over
// inputs generated from the seed: set-up builds the inputs, run() is one
// measured pass that calls the library's public API and checks every
// output it produces. See perfbench/README.md for what each one runs and
// why it exists.

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "tracer.hpp"

namespace perfbench {

/// The paper-calibrated seed: the committed baselines were produced at it,
/// so the pinned digests and figure values are checked only there.
inline constexpr std::uint64_t kPinnedSeed = 7;

/// Named numbers a set-up or a run reports (work counts, byte totals,
/// per-layer values taken from return values and public accessors).
using Values = std::map<std::string, double>;

/// The output checks behind failed_ratio.
class Checks {
 public:
  void expect(const std::string& name, bool ok, const std::string& detail);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// What one measured run may use and must report into.
struct RunContext {
  Tracer& tracer;
  Checks& checks;
  Values& counts;
  /// A fresh, empty directory for this run's trace shards and snapshots.
  std::filesystem::path scratch;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One measured pass over the set-up inputs.
  virtual void run(RunContext& ctx) = 0;
};

/// Builds the named workload's inputs; the set-up's own timings and
/// sizes land in `setup`. Returns nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> set_up(const std::string& name,
                                               std::uint64_t seed,
                                               Values& setup);

}  // namespace perfbench

#pragma once

#include <cstdint>
#include <random>
#include <string_view>

namespace lina::stats {

/// Deterministic random-number generator used throughout the library.
///
/// Every stochastic component in `lina` takes an explicit `Rng&` (or a seed)
/// so that experiments are reproducible run-to-run and machine-to-machine.
/// There is deliberately no global generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator from a 64-bit seed.
  explicit Rng(std::uint64_t seed) : seed_(seed), engine_(seed) {}

  /// Constructs a generator whose seed is derived from a label, so that
  /// independent subsystems seeded from the same experiment seed do not
  /// accidentally share streams.
  Rng(std::uint64_t seed, std::string_view label) : Rng(mix(seed, label)) {}

  /// Derives the `task_index`-th independent substream — counter-based: the
  /// child seed is a pure function of this generator's *construction seed*
  /// and the index, never of how many values have been drawn. This is the
  /// lina::exec determinism primitive: give parallel work item i the
  /// substream split(i) and the result stream is identical no matter how
  /// items are sharded across threads (or run serially).
  [[nodiscard]] Rng split(std::uint64_t task_index) const;

  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type operator()() { return engine_(); }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi);

  /// Uniform index in [0, n). Requires n > 0.
  [[nodiscard]] std::size_t index(std::size_t n);

  /// Uniform real in [0, 1).
  [[nodiscard]] double uniform();

  /// Uniform real in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool chance(double p);

  /// Standard-normal variate.
  [[nodiscard]] double normal();

  /// Normal variate with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev);

  /// Exponential variate with the given rate (> 0).
  [[nodiscard]] double exponential(double rate);

  /// Poisson variate with the given mean (>= 0).
  [[nodiscard]] std::size_t poisson(double mean);

 private:
  static std::uint64_t mix(std::uint64_t seed, std::string_view label);

  std::uint64_t seed_;  // construction seed; the split() stream key
  std::mt19937_64 engine_;
};

}  // namespace lina::stats

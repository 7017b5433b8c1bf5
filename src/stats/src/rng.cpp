#include "lina/stats/rng.hpp"

#include <mutex>
#include <stdexcept>

namespace lina::stats {

std::uint64_t Rng::mix(std::uint64_t seed, std::string_view label) {
  // FNV-1a over the label folded into the seed, then finalized with a
  // splitmix64 round so nearby seeds and labels diverge.
  std::uint64_t h = 14695981039346656037ULL ^ seed;
  for (const char c : label) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

Rng Rng::split(std::uint64_t task_index) const {
  // splitmix64 over (construction seed, counter); +1 keeps split(0) from
  // cloning the parent stream.
  std::uint64_t h = seed_ + 0x9e3779b97f4a7c15ULL * (task_index + 1);
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return Rng(h ^ (h >> 31));
}

std::uint64_t Rng::uniform_int(std::uint64_t lo, std::uint64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform_int: lo > hi");
  return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
}

std::size_t Rng::index(std::size_t n) {
  if (n == 0) throw std::invalid_argument("Rng::index: n == 0");
  return static_cast<std::size_t>(uniform_int(0, n - 1));
}

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal() {
  return std::normal_distribution<double>(0.0, 1.0)(engine_);
}

double Rng::normal(double mean, double stddev) {
  return std::normal_distribution<double>(mean, stddev)(engine_);
}

double Rng::exponential(double rate) {
  if (rate <= 0.0) throw std::invalid_argument("Rng::exponential: rate <= 0");
  return std::exponential_distribution<double>(rate)(engine_);
}

std::size_t Rng::poisson(double mean) {
  if (mean < 0.0) throw std::invalid_argument("Rng::poisson: mean < 0");
  if (mean == 0.0) return 0;
  // std::poisson_distribution calls std::lgamma, which POSIX does not
  // require to be thread-safe (glibc writes the global signgam), and the
  // workload generators sample on every lina::exec worker at once.
  static std::mutex lgamma_mutex;
  const std::lock_guard<std::mutex> lock(lgamma_mutex);
  return static_cast<std::size_t>(
      std::poisson_distribution<long>(mean)(engine_));
}

}  // namespace lina::stats

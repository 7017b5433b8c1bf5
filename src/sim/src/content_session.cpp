#include "lina/sim/content_session.hpp"

#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "lina/cache/mapping_cache.hpp"
#include "lina/prof/prof.hpp"
#include "lina/sim/content_store.hpp"
#include "lina/sim/event_queue.hpp"
#include "lina/stats/distributions.hpp"

namespace lina::sim {

using topology::AsId;

namespace {

class ContentSessionRunner {
 public:
  ContentSessionRunner(const ForwardingFabric& fabric,
                       const ContentSessionConfig& config)
      : fabric_(fabric),
        config_(config),
        plan_(config.failures != nullptr ? *config.failures : no_failures()),
        zipf_(config.catalog_segments, config.zipf_exponent),
        rng_(config.seed, "content-session"),
        fib_(config.mapping_cache),
        fib_cached_(fib_.enabled()) {
    const std::size_t as_count = fabric.internet().graph().as_count();
    constexpr std::string_view kWho = "simulate_content_session";
    validate_schedule(config.publisher_schedule, as_count, kWho);
    require_finite_positive(config.request_interval_ms, kWho,
                            "request_interval_ms");
    require_finite_positive(config.duration_ms, kWho, "duration_ms");
    require_finite_positive(config.update_hop_ms, kWho, "update_hop_ms");
    if (config.catalog_segments == 0)
      throw std::invalid_argument(
          "simulate_content_session: catalog_segments must be positive");
    if (!config.retry.valid())
      throw std::invalid_argument(
          "simulate_content_session: malformed retry policy");
    if (!config.mapping_cache.valid())
      throw std::invalid_argument(
          "simulate_content_session: non-positive cache TTL");
    if (config.consumer >= as_count)
      throw std::out_of_range("simulate_content_session: consumer AS");
    validate_failure_plan(plan_, as_count, kWho);
  }

  ContentSessionStats run() {
    queue_.schedule_every(0.0, config_.request_interval_ms,
                          config_.duration_ms, [this] {
                            ++stats_.interests_sent;
                            const auto segment = static_cast<std::uint64_t>(
                                zipf_.sample(rng_));
                            issue(segment, queue_.now(), 0);
                          });
    if (fib_cached_) {
      // The name-update wavefront is the cache's churn stream: when a
      // move's flood reaches the consumer, every cached publisher location
      // is stale (the whole catalog moved) and is invalidated wholesale.
      for (std::size_t i = 1; i < config_.publisher_schedule.size(); ++i) {
        const MobilityStep& step = config_.publisher_schedule[i];
        const double arrival =
            step.time_ms +
            wavefront_lag_ms(fabric_.physical_hops(config_.consumer, step.as),
                             config_.update_hop_ms);
        if (arrival >= config_.duration_ms) continue;
        queue_.schedule(arrival, [this] { fib_.invalidate_all(); });
      }
    }
    queue_.run();
    stats_.unsatisfied =
        stats_.interests_sent - stats_.satisfied();
    stats_.mapping_cache = fib_.stats();
    return std::move(stats_);
  }

 private:
  ContentStore& store_at(AsId as) {
    const auto it = stores_.find(as);
    if (it != stores_.end()) return it->second;
    return stores_.emplace(as, ContentStore(config_.cache_capacity))
        .first->second;
  }

  void satisfy(std::uint64_t segment, double send_time_ms,
               double forward_delay_ms, const std::vector<AsId>& path,
               bool from_cache) {
    // Data retraces the interest path; every on-path store keeps a copy
    // (leave-copy-everywhere).
    const double return_delay = forward_delay_ms;
    queue_.schedule_in(return_delay, [this, segment, send_time_ms, path,
                                      from_cache] {
      for (const AsId as : path) store_at(as).insert(segment);
      if (from_cache) {
        ++stats_.satisfied_from_cache;
      } else {
        ++stats_.satisfied_from_publisher;
        // A publisher-satisfied retrieval resolves the segment's location:
        // install it when the data arrives back at the consumer.
        if (fib_cached_) fib_.insert(segment, path.back(), queue_.now());
      }
      stats_.retrieval_delay_ms.add(queue_.now() - send_time_ms);
    });
  }

  /// Launches one interest from the consumer: a mapping-cache hit routes
  /// it straight toward the cached publisher location, a miss (or a
  /// disabled cache) falls back to belief forwarding.
  void issue(std::uint64_t segment, double send_time_ms,
             std::size_t attempt) {
    std::optional<AsId> cached;
    if (fib_cached_) {
      cached = fib_.probe(segment, queue_.now());
      if (cached.has_value()) ++stats_.cache_guided_interests;
    }
    hop(config_.consumer, cached, segment, send_time_ms, 0.0, {}, 0, attempt);
  }

  /// Reissues a dead interest from the consumer on the retry backoff.
  /// Only a session with faults in its plan probes this way: without
  /// faults, the staleness losses are the §8 phenomenon itself and are
  /// reported as losses.
  void retransmit(std::uint64_t segment, double send_time_ms,
                  std::size_t attempt) {
    if (plan_.empty() || !config_.retry.attempts_left(attempt)) return;
    queue_.schedule_in(
        config_.retry.delay_ms(attempt),
        [this, segment, send_time_ms, attempt] {
          ++stats_.interest_retries;
          issue(segment, send_time_ms, attempt + 1);
        });
  }

  /// Forwards an interest at `at`. Without a `cached` publisher location
  /// every router aims at its own belief; with one the interest heads
  /// straight there, and a publisher gone from it invalidates the entry
  /// so the next interest re-resolves via beliefs. Content stores on the
  /// way answer either way.
  void hop(AsId at, std::optional<AsId> cached, std::uint64_t segment,
           double send_time_ms, double forward_delay_ms,
           std::vector<AsId> path, std::size_t hops, std::size_t attempt) {
    // The interest dies past its TTL, and a dark AS forwards nothing and
    // serves nothing (not even its cache).
    if (hops > config_.interest_ttl_hops || plan_.as_down(at, queue_.now())) {
      retransmit(segment, send_time_ms, attempt);
      return;
    }
    path.push_back(at);
    // Every on-path store is checked, the consumer's own included.
    if (store_at(at).lookup(segment)) {
      satisfy(segment, send_time_ms, forward_delay_ms, path, true);
      return;
    }
    // Global flooding: every router learns every move.
    const AsId dest =
        cached.has_value()
            ? *cached
            : wavefront_belief(fabric_, config_.publisher_schedule, at,
                               queue_.now(), config_.update_hop_ms, SIZE_MAX);
    if (at == dest) {
      if (location_at(config_.publisher_schedule, queue_.now()) == at) {
        satisfy(segment, send_time_ms, forward_delay_ms, path, false);
        return;
      }
      // Stale, and no cached copy on the way: unreachable now (§8). A
      // retransmission may find a converged belief or a repaired fault.
      if (cached.has_value()) fib_.invalidate(segment);
      retransmit(segment, send_time_ms, attempt);
      return;
    }
    const auto step = fabric_.hop_toward(at, dest, plan_, queue_.now());
    if (!step.has_value()) {
      retransmit(segment, send_time_ms, attempt);
      return;
    }
    const double link = step->link_ms;
    queue_.schedule_in(
        link, [this, next = step->next, cached, segment, send_time_ms,
               forward_delay_ms, link, path = std::move(path), hops,
               attempt]() mutable {
          hop(next, cached, segment, send_time_ms, forward_delay_ms + link,
              std::move(path), hops + 1, attempt);
        });
  }

  const ForwardingFabric& fabric_;
  const ContentSessionConfig& config_;
  const FailurePlan& plan_;
  stats::Zipf zipf_;
  stats::Rng rng_;
  EventQueue queue_;
  ContentSessionStats stats_;
  std::unordered_map<AsId, ContentStore> stores_;
  /// Consumer FIB-miss resolution cache, segment -> publisher location
  /// (ContentSessionConfig doc). Disabled = zero state, no new code paths.
  cache::MappingCache<std::uint64_t, AsId> fib_;
  const bool fib_cached_;
};

}  // namespace

ContentSessionStats simulate_content_session(
    const ForwardingFabric& fabric, const ContentSessionConfig& config) {
  PROF_SPAN("lina.session.content");
  return ContentSessionRunner(fabric, config).run();
}

}  // namespace lina::sim

#include "lina/sim/session.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "lina/cache/mapping_cache.hpp"
#include "lina/obs/metrics.hpp"
#include "lina/prof/prof.hpp"
#include "lina/sim/event_queue.hpp"
#include "lina/sim/resolver_pool.hpp"

namespace lina::sim {

using topology::AsId;

std::string_view sim_architecture_name(SimArchitecture arch) {
  switch (arch) {
    case SimArchitecture::kIndirection:
      return "indirection (home agent)";
    case SimArchitecture::kNameResolution:
      return "name resolution (resolver)";
    case SimArchitecture::kNameBased:
      return "name-based routing";
    case SimArchitecture::kReplicatedResolution:
      return "replicated resolution (GNS)";
  }
  throw std::invalid_argument("sim_architecture_name: unknown architecture");
}

void validate_schedule(std::span<const MobilityStep> schedule,
                       std::size_t as_count, std::string_view who) {
  const auto message = [&](const char* what) {
    return std::string(who) + ": " + what;
  };
  if (schedule.empty())
    throw std::invalid_argument(message("empty mobility schedule"));
  if (schedule.front().time_ms != 0.0)
    throw std::invalid_argument(message("schedule must start at time 0"));
  for (std::size_t i = 1; i < schedule.size(); ++i) {
    // Written so that a NaN, which compares false, fails it.
    const double t = schedule[i].time_ms;
    if (!(std::isfinite(t) && t > schedule[i - 1].time_ms))
      throw std::invalid_argument(
          message("schedule times must be finite and increasing"));
  }
  for (const MobilityStep& step : schedule) {
    if (step.as >= as_count)
      throw std::out_of_range(message("schedule AS"));
  }
}

void require_finite_positive(double value, std::string_view who,
                             std::string_view field) {
  if (!std::isfinite(value) || value <= 0.0)
    throw std::invalid_argument(std::string(who) + ": " + std::string(field) +
                                " must be finite and positive");
}

void validate_failure_plan(const FailurePlan& plan, std::size_t as_count,
                           std::string_view who) {
  for (const FailureEvent& event : plan.events()) {
    if (event.element >= as_count ||
        (event.kind == FailureKind::kLinkCut && event.element_b >= as_count))
      throw std::out_of_range(std::string(who) + ": failure-plan AS");
  }
}

AsId location_at(std::span<const MobilityStep> schedule, double time_ms) {
  const auto it = std::upper_bound(
      schedule.begin(), schedule.end(), time_ms,
      [](double t, const MobilityStep& step) { return t < step.time_ms; });
  return (it == schedule.begin() ? it : it - 1)->as;
}

AsId wavefront_belief(const ForwardingFabric& fabric,
                      std::span<const MobilityStep> schedule, AsId router,
                      double time_ms, double update_hop_ms,
                      std::size_t scope_hops, double start_ms) {
  return newest_known_step(
      schedule, time_ms, start_ms,
      [&](const MobilityStep& step) -> std::optional<double> {
        const std::size_t hops = fabric.physical_hops(router, step.as);
        if (hops > scope_hops) return std::nullopt;
        return wavefront_lag_ms(hops, update_hop_ms);
      });
}

namespace {

void validate(const SessionConfig& config, const ForwardingFabric& fabric,
              SimArchitecture architecture) {
  const std::size_t as_count = fabric.internet().graph().as_count();
  constexpr std::string_view kWho = "simulate_session";
  validate_schedule(config.schedule, as_count, kWho);
  require_finite_positive(config.packet_interval_ms, kWho,
                          "packet_interval_ms");
  require_finite_positive(config.duration_ms, kWho, "duration_ms");
  require_finite_positive(config.update_hop_ms, kWho, "update_hop_ms");
  require_finite_positive(config.resolver_ttl_ms, kWho, "resolver_ttl_ms");
  if (architecture == SimArchitecture::kReplicatedResolution &&
      config.resolver_replicas.empty())
    throw std::invalid_argument(
        "simulate_session: kReplicatedResolution needs resolver_replicas");
  if (!config.retry.valid())
    throw std::invalid_argument("simulate_session: malformed retry policy");
  if (!config.mapping_cache.valid())
    throw std::invalid_argument("simulate_session: non-positive cache TTL");
  if (config.correspondent >= as_count)
    throw std::out_of_range("simulate_session: correspondent AS");
  if (config.failures != nullptr)
    validate_failure_plan(*config.failures, as_count, kWho);
}

/// Shared session machinery; architecture subclasses provide the control
/// plane (on_move) and the data plane (send_packet).
///
/// Every session runs under a FailurePlan: the attached one, or the shared
/// empty plan when none is attached. There is one code path per
/// architecture. With no fault active the plan's queries answer "healthy"
/// and the fabric's failure-aware queries return the policy route, so a
/// fault-free session never retries, reroutes or loses a control message.
class SessionRunner {
 public:
  SessionRunner(const ForwardingFabric& fabric, const SessionConfig& config)
      : fabric_(fabric),
        config_(config),
        plan_(config.failures != nullptr ? *config.failures : no_failures()),
        binding_(config.mapping_cache),
        cached_(binding_.enabled()) {}
  virtual ~SessionRunner() = default;

  SessionStats run() {
    // Mobility events.
    for (std::size_t i = 1; i < config_.schedule.size(); ++i) {
      const MobilityStep& step = config_.schedule[i];
      queue_.schedule(step.time_ms, [this, step] {
        prof::instant("lina.sim.session.move", queue_.now(),
                      static_cast<double>(step.as));
        if (move_pending_) {
          // The previous move never saw a delivery: record the censored
          // outage up to this move.
          stats_.outage_ms.add(queue_.now() - last_move_ms_);
        }
        last_move_ms_ = queue_.now();
        move_pending_ = true;
        on_move(step.as);
      });
    }
    // Repair markers: the first delivery after each repair measures the
    // architecture's time-to-recover.
    for (const double repair_ms : plan_.repair_times()) {
      if (repair_ms <= 0.0 || repair_ms >= config_.duration_ms) continue;
      queue_.schedule(repair_ms,
                      [this, repair_ms] { awaiting_recovery_ = repair_ms; });
    }
    // Packet generation.
    queue_.schedule_every(0.0, config_.packet_interval_ms,
                          config_.duration_ms, [this] {
                            ++stats_.packets_sent;
                            if (plan_.any_active(queue_.now()))
                              ++stats_.packets_sent_during_failure;
                            send_packet(queue_.now());
                          });
    queue_.run();
    stats_.packets_lost = stats_.packets_sent - stats_.packets_delivered;
    stats_.mapping_cache = binding_.stats();
    return std::move(stats_);
  }

 protected:
  virtual void on_move(AsId new_as) = 0;
  virtual void send_packet(double send_time_ms) = 0;

  void deliver(double send_time_ms) {
    ++stats_.packets_delivered;
    const double delay = queue_.now() - send_time_ms;
    stats_.delivery_delay_ms.add(delay);
    const double direct =
        fabric_.path_delay_ms(config_.correspondent,
                              location_at(config_.schedule, queue_.now()))
            .value_or(delay);
    const double stretch =
        delay / std::max(direct, fabric_.config().min_link_ms);
    stats_.stretch.add(stretch);
    if (move_pending_) {
      stats_.outage_ms.add(queue_.now() - last_move_ms_);
      move_pending_ = false;
    }
    if (plan_.any_active(send_time_ms)) {
      ++stats_.packets_delivered_during_failure;
      stats_.stretch_degraded.add(stretch);
    }
    if (awaiting_recovery_.has_value()) {
      stats_.recovery_ms.add(queue_.now() - *awaiting_recovery_);
      awaiting_recovery_.reset();
    }
  }

  void count_control(std::size_t messages) {
    stats_.control_messages += messages;
  }

  /// Accounts one control-plane attempt (retransmissions beyond the first
  /// attempt also count toward the amplification metric).
  void count_attempt(std::size_t attempt) {
    count_control(1);
    if (attempt > 0) ++stats_.control_retries;
  }

  /// Seeded coin: is this session's next control message dropped by an
  /// active update-loss window?
  [[nodiscard]] bool control_lost() {
    return plan_.control_message_lost(message_id_++, queue_.now());
  }

  /// Policy-route delay from `from` to `to` now, rerouted around (or
  /// severed by) whatever fault is active.
  [[nodiscard]] std::optional<double> path_delay(AsId from, AsId to) const {
    return fabric_.path_delay_ms(from, to, plan_, queue_.now());
  }

  /// Sends a packet from `from` straight to `target`; it is delivered if
  /// the device is still attached there when it arrives.
  void forward(AsId from, AsId target, double send_time_ms) {
    const auto delay = path_delay(from, target);
    if (!delay.has_value()) return;  // lost: target unreachable
    queue_.schedule_in(*delay, [this, send_time_ms, target] {
      if (location_at(config_.schedule, queue_.now()) == target)
        deliver(send_time_ms);
    });
  }

  /// An update landing at the control-plane element in `from` pushes a
  /// churn notification to the correspondent's mapping cache (invalidate
  /// or refresh per the cache config): one control message, in flight for
  /// the from->correspondent delay.
  void notify_churn(AsId from, AsId new_as) {
    count_control(1);
    if (control_lost()) return;
    const auto back = path_delay(from, config_.correspondent);
    if (!back.has_value()) return;
    queue_.schedule_in(*back, [this, new_as] {
      binding_.churn(kDeviceKey, new_as, queue_.now());
    });
  }

  /// Re-sends the device's location update for `new_as` after attempt
  /// `attempt` failed, by calling `update(new_as, next_attempt)` after the
  /// backoff. Updates are soft state: once the exponential burst is spent
  /// the device keeps probing at the backoff cap (Mobile-IP-style lifetime
  /// renewal) instead of abandoning the binding, so it survives outages
  /// longer than one burst. The chain ends when a probe lands, a newer
  /// move supersedes it, or the session runs out.
  template <typename Update>
  void renew(AsId new_as, std::size_t attempt, Update update) {
    if (queue_.now() >= config_.duration_ms) return;
    const std::size_t next =
        config_.retry.attempts_left(attempt) ? attempt + 1 : 0;
    queue_.schedule_in(config_.retry.delay_ms(attempt),
                       [this, new_as, next, update] {
                         if (location_at(config_.schedule, queue_.now()) !=
                             new_as)
                           return;  // superseded
                         update(new_as, next);
                       });
  }

  /// The single mobile endpoint's key in the correspondent mapping cache.
  static constexpr std::uint64_t kDeviceKey = 0;

  const ForwardingFabric& fabric_;
  const SessionConfig& config_;
  const FailurePlan& plan_;
  EventQueue queue_;
  SessionStats stats_;
  /// Correspondent-side loc/ID mapping cache (SessionConfig doc); disabled
  /// (no storage, every probe a no-op) unless config.mapping_cache enables
  /// it. `cached_` gates every cache code path.
  cache::MappingCache<std::uint64_t, AsId> binding_;
  const bool cached_;

 private:
  double last_move_ms_ = 0.0;
  bool move_pending_ = false;
  std::uint64_t message_id_ = 0;
  std::optional<double> awaiting_recovery_;
};

class IndirectionRunner final : public SessionRunner {
 public:
  IndirectionRunner(const ForwardingFabric& fabric,
                    const SessionConfig& config)
      : SessionRunner(fabric, config),
        home_(config.home_as.value_or(config.schedule.front().as)),
        registry_(config.schedule.front().as) {}

 private:
  void on_move(AsId new_as) override { register_with_home(new_as, 0); }

  /// Registration message travels from the new location to the home agent;
  /// it retries with backoff while the agent is dead or the message is
  /// lost, abandoning once a newer move supersedes it.
  void register_with_home(AsId new_as, std::size_t attempt) {
    count_attempt(attempt);
    const auto delay = path_delay(new_as, home_);
    if (control_lost() || !delay.has_value()) {
      retry_registration(new_as, attempt);
      return;
    }
    queue_.schedule_in(*delay, [this, new_as, attempt] {
      if (plan_.home_agent_down(home_, queue_.now())) {
        retry_registration(new_as, attempt);
        return;
      }
      registry_ = new_as;
      if (cached_) notify_churn(home_, new_as);
    });
  }

  void retry_registration(AsId new_as, std::size_t attempt) {
    renew(new_as, attempt, [this](AsId as, std::size_t next) {
      register_with_home(as, next);
    });
  }

  /// Home agent -> correspondent binding update triggered by a cache-miss
  /// packet transiting the home agent.
  void push_binding(AsId care_of) {
    count_control(1);
    if (control_lost()) return;
    const auto back = path_delay(home_, config_.correspondent);
    if (!back.has_value()) return;
    queue_.schedule_in(*back, [this, care_of] {
      binding_.insert(kDeviceKey, care_of, queue_.now());
    });
  }

  /// Triangle forwarding through the home agent. With the binding cache
  /// enabled, a hit sends the packet straight to the cached care-of AS
  /// (Mobile-IPv6 route optimisation — no triangle), and a miss goes
  /// through the home agent, which answers with a binding update so later
  /// packets go direct.
  void send_packet(double send_time_ms) override {
    if (cached_) {
      const auto hit = binding_.probe(kDeviceKey, queue_.now());
      if (hit.has_value()) {
        forward(config_.correspondent, *hit, send_time_ms);
        return;
      }
    }
    // Leg 1: correspondent -> home agent.
    const auto to_home = path_delay(config_.correspondent, home_);
    if (!to_home.has_value()) return;  // lost: home unreachable
    queue_.schedule_in(*to_home, [this, send_time_ms] {
      // A dead home agent swallows every packet for the whole outage:
      // indirection's single point of failure.
      if (plan_.home_agent_down(home_, queue_.now())) return;
      const AsId target = registry_;
      if (cached_) push_binding(target);
      // Leg 2: home agent -> registered care-of location.
      forward(home_, target, send_time_ms);
    });
  }

  AsId home_;
  AsId registry_;
};

/// Name resolution, single or replicated. The correspondent resolves the
/// device's location at a ResolverPool and sends straight to the answer.
/// kNameResolution is a pool of one replica (resolver_as, defaulting to
/// the correspondent's AS); kReplicatedResolution is the GNS-style pool of
/// resolver_replicas. Lookup, TTL re-resolution, cached sending, churn
/// notification and anti-entropy are shared; only the device's update
/// path differs (update_location).
class ResolutionRunner final : public SessionRunner {
 public:
  ResolutionRunner(const ForwardingFabric& fabric,
                   const SessionConfig& config, bool replicated)
      : SessionRunner(fabric, config),
        replicated_(replicated),
        pool_(fabric, replicated
                          ? config.resolver_replicas
                          : std::vector<AsId>{config.resolver_as.value_or(
                                config.correspondent)}),
        records_(pool_.replicas().size(), config.schedule.front().as),
        lookup_replica_(
            pool_.replica_index(pool_.nearest_replica(config.correspondent))),
        answer_(config.schedule.front().as) {
    // Periodic re-resolution; the initial resolution happened at setup.
    // With a mapping cache the correspondent resolves on demand (per
    // cache-miss packet) instead of on a TTL clock.
    if (!cached_) {
      queue_.schedule_every(config.resolver_ttl_ms, config.resolver_ttl_ms,
                            config.duration_ms, [this] { resolve(0); });
    }
    // Anti-entropy: at each repair instant a replica that was down (its
    // process crashed or its AS went dark) pulls the current record from
    // its nearest live peer, so it stops answering with the location it
    // last heard before the crash. A pool of one has no peer to pull from.
    if (pool_.replicas().size() < 2) return;
    for (const FailureEvent& event : plan_.events()) {
      if (event.kind != FailureKind::kResolverCrash &&
          event.kind != FailureKind::kAsOutage)
        continue;
      if (event.end_ms >= config.duration_ms) continue;
      const auto& ases = pool_.replicas();
      if (std::find(ases.begin(), ases.end(), event.element) == ases.end())
        continue;
      queue_.schedule(event.end_ms,
                      [this, as = event.element] { resync_replica(as); });
    }
  }

 private:
  /// Writes the device's location into replica `index`'s record. A write
  /// at the correspondent's lookup replica pushes a churn notification
  /// down the update stream to its mapping cache.
  void write_record(std::size_t index, AsId location) {
    records_[index] = location;
    if (cached_ && index == lookup_replica_)
      notify_churn(pool_.replicas()[index], location);
  }

  /// Recovered-replica anti-entropy pull: request to the nearest live
  /// peer, answer from the peer's record at answer time. Either leg can
  /// be lost or unroutable; the replica then keeps its stale record until
  /// the next device update reaches it.
  void resync_replica(AsId recovered) {
    if (plan_.resolver_down(recovered, queue_.now())) return;  // overlap
    std::optional<AsId> peer;
    double best = 0.0;
    for (const AsId replica : pool_.replicas()) {
      if (replica == recovered || plan_.resolver_down(replica, queue_.now()))
        continue;
      const auto delay = path_delay(recovered, replica);
      if (!delay.has_value()) continue;
      if (!peer.has_value() || *delay < best) {
        peer = replica;
        best = *delay;
      }
    }
    if (!peer.has_value()) return;
    count_control(1);
    if (control_lost()) return;
    // Snapshot the record the pull is refreshing: if a device update lands
    // while the answer is in flight, the (older) answer must not clobber
    // it — the in-flight pull loses to the newer write.
    const AsId before = records_[pool_.replica_index(recovered)];
    queue_.schedule_in(best, [this, recovered, before, peer = *peer] {
      if (plan_.resolver_down(peer, queue_.now())) return;
      const AsId answer = records_[pool_.replica_index(peer)];
      count_control(1);
      if (control_lost()) return;
      const auto back = path_delay(peer, recovered);
      if (!back.has_value()) return;
      queue_.schedule_in(*back, [this, recovered, before, answer] {
        const std::size_t index = pool_.replica_index(recovered);
        if (records_[index] == before &&
            !plan_.resolver_down(recovered, queue_.now()))
          write_record(index, answer);
      });
    });
  }

  void resolve(std::size_t attempt) {
    count_attempt(attempt);
    // Failover: the first attempt goes to the statically nearest replica
    // (the client cannot know it died); once an attempt times out, the
    // retry targets the nearest replica *believed live* at retry time, so
    // service resumes within one backoff of the preferred replica dying.
    // A single resolver has nowhere to fail over to: the client can only
    // retry it.
    AsId replica = pool_.replicas()[lookup_replica_];
    if (attempt > 0 && pool_.replicas().size() > 1) {
      const auto live = pool_.nearest_live_replica(config_.correspondent,
                                                   plan_, queue_.now());
      if (live.has_value()) replica = *live;
    }
    const auto to_replica = path_delay(config_.correspondent, replica);
    if (control_lost() || !to_replica.has_value()) {
      retry_resolve(attempt);
      return;
    }
    queue_.schedule_in(*to_replica, [this, replica, attempt] {
      if (plan_.resolver_down(replica, queue_.now())) {
        retry_resolve(attempt);
        return;
      }
      // The replica answers from its own (possibly stale) record: a
      // recovered replica serves whatever it last heard.
      const AsId answer = records_[pool_.replica_index(replica)];
      const auto back = path_delay(replica, config_.correspondent);
      if (!back.has_value()) return;
      queue_.schedule_in(*back, [this, answer] { answer_ = answer; });
    });
  }

  void retry_resolve(std::size_t attempt) {
    if (!config_.retry.attempts_left(attempt))
      return;  // the next TTL tick re-resolves
    queue_.schedule_in(config_.retry.delay_ms(attempt),
                       [this, attempt] { resolve(attempt + 1); });
  }

  void on_move(AsId new_as) override {
    if (replicated_) obs::metric::resolver_updates().add();
    update_location(new_as, 0);
  }

  void update_location(AsId new_as, std::size_t attempt) {
    if (replicated_) {
      update_replicas(new_as, attempt);
    } else {
      register_location(new_as, attempt);
    }
  }

  void retry_update(AsId new_as, std::size_t attempt) {
    renew(new_as, attempt, [this](AsId as, std::size_t next) {
      update_location(as, next);
    });
  }

  /// Single resolution: the device sends its update to the one resolver
  /// without knowing whether it is up; a crashed resolver times the update
  /// out at arrival and the device retries.
  void register_location(AsId new_as, std::size_t attempt) {
    count_attempt(attempt);
    const AsId resolver = pool_.replicas().front();
    const auto delay = path_delay(new_as, resolver);
    if (control_lost() || !delay.has_value()) {
      retry_update(new_as, attempt);
      return;
    }
    queue_.schedule_in(*delay, [this, new_as, resolver, attempt] {
      if (plan_.resolver_down(resolver, queue_.now())) {
        retry_update(new_as, attempt);
        return;
      }
      write_record(0, new_as);
    });
  }

  /// Replicated resolution: the device registers with the nearest *live*
  /// replica and that primary relays to every other replica. Replicas that
  /// are dead (or whose relay is lost) simply miss this update and serve
  /// their stale record until the next one.
  void update_replicas(AsId new_as, std::size_t attempt) {
    count_attempt(attempt);
    const auto primary =
        pool_.nearest_live_replica(new_as, plan_, queue_.now());
    const auto to_primary = primary.has_value()
                                ? path_delay(new_as, *primary)
                                : std::nullopt;
    if (!primary.has_value() || control_lost() || !to_primary.has_value()) {
      retry_update(new_as, attempt);
      return;
    }
    queue_.schedule_in(*to_primary, [this, new_as, primary = *primary,
                                     attempt] {
      if (plan_.resolver_down(primary, queue_.now())) {
        retry_update(new_as, attempt);
        return;
      }
      write_record(pool_.replica_index(primary), new_as);
      for (std::size_t i = 0; i < pool_.replicas().size(); ++i) {
        const AsId replica = pool_.replicas()[i];
        if (replica == primary) continue;
        count_control(1);
        const auto relay = path_delay(primary, replica);
        if (control_lost() || !relay.has_value()) continue;
        queue_.schedule_in(*relay, [this, i, new_as] {
          if (!plan_.resolver_down(pool_.replicas()[i], queue_.now()))
            write_record(i, new_as);
        });
      }
    });
  }

  /// Sends to the last resolved answer. With a mapping cache enabled, a
  /// hit sends immediately to the cached location; a miss makes the packet
  /// ride a round trip to the lookup replica (demand resolution — one
  /// control message), install the answer, then forward. A miss does not
  /// retry: a lost query loses the packet and the next miss re-resolves.
  void send_packet(double send_time_ms) override {
    if (!cached_) {
      forward(config_.correspondent, answer_, send_time_ms);
      return;
    }
    const auto hit = binding_.probe(kDeviceKey, queue_.now());
    if (hit.has_value()) {
      forward(config_.correspondent, *hit, send_time_ms);
      return;
    }
    count_control(1);
    if (control_lost()) return;
    const AsId replica = pool_.replicas()[lookup_replica_];
    const auto to_replica = path_delay(config_.correspondent, replica);
    if (!to_replica.has_value()) return;
    queue_.schedule_in(*to_replica, [this, send_time_ms, replica] {
      if (plan_.resolver_down(replica, queue_.now())) return;
      const AsId answer = records_[lookup_replica_];
      const auto back = path_delay(replica, config_.correspondent);
      if (!back.has_value()) return;
      queue_.schedule_in(*back, [this, send_time_ms, answer] {
        binding_.insert(kDeviceKey, answer, queue_.now());
        forward(config_.correspondent, answer, send_time_ms);
      });
    });
  }

  bool replicated_;
  ResolverPool pool_;
  std::vector<AsId> records_;  // per-replica registered location
  std::size_t lookup_replica_;  // the replica nearest the correspondent
  AsId answer_;  // the correspondent's last resolved location
};

class NameBasedRunner final : public SessionRunner {
 public:
  using SessionRunner::SessionRunner;

 private:
  void on_move(AsId new_as) override {
    // The flooding wavefront is massively redundant (every router relays),
    // so a lost copy or a dead AS does not stop it: name-based routing has
    // no control-plane single point of failure to crash. Its failure mode
    // is the data plane rerouting around dead elements (stretch). Router
    // beliefs follow from the schedule (wavefront_belief), so a move only
    // costs the flood: every router within scope (everyone when global).
    const auto& graph = fabric_.internet().graph();
    if (config_.update_scope_hops >= graph.as_count()) {
      count_control(graph.as_count());
    } else {
      std::size_t reached = 0;
      for (AsId as = 0; as < graph.as_count(); ++as) {
        if (fabric_.physical_hops(as, new_as) <= config_.update_scope_hops) {
          ++reached;
        }
      }
      count_control(reached);
    }
  }

  void send_packet(double send_time_ms) override {
    hop(config_.correspondent, send_time_ms, 0);
  }

  void hop(AsId at, double send_time_ms, std::size_t hops) {
    if (hops > config_.packet_ttl_hops) return;  // dropped in a loop
    if (plan_.as_down(at, queue_.now())) return;  // router dark
    const AsId dest =
        wavefront_belief(fabric_, config_.schedule, at, queue_.now(),
                         config_.update_hop_ms, config_.update_scope_hops);
    if (at == dest) {
      if (location_at(config_.schedule, queue_.now()) == at)
        deliver(send_time_ms);
      return;  // belief said "here" but the device has left: lost
    }
    const auto step = fabric_.hop_toward(at, dest, plan_, queue_.now());
    if (!step.has_value()) return;
    queue_.schedule_in(step->link_ms,
                       [this, next = step->next, send_time_ms, hops] {
                         hop(next, send_time_ms, hops + 1);
                       });
  }
};

}  // namespace

namespace {

/// Mirrors the finished SessionStats into the process-wide registry.
/// Observation only: the stats object itself is never touched, which is
/// what keeps instrumentation-on runs bit-identical to instrumentation-
/// off runs (tests/obs/off_switch_test.cpp).
void mirror_to_registry(const SessionStats& stats) {
  obs::metric::session_runs().add();
  obs::metric::session_packets_sent().add(stats.packets_sent);
  obs::metric::session_packets_delivered().add(stats.packets_delivered);
  obs::metric::session_packets_lost().add(stats.packets_lost);
  obs::metric::session_control_messages().add(stats.control_messages);
  obs::metric::session_control_retries().add(stats.control_retries);
  if (stats.packets_sent_during_failure > 0)
    obs::metric::failure_active_sends().add(
        stats.packets_sent_during_failure);
}

}  // namespace

SessionStats simulate_session(const ForwardingFabric& fabric,
                              SimArchitecture architecture,
                              const SessionConfig& config) {
  validate(config, fabric, architecture);
  SessionStats stats;
  switch (architecture) {
    case SimArchitecture::kIndirection: {
      PROF_SPAN("lina.session.indirection");
      stats = IndirectionRunner(fabric, config).run();
      break;
    }
    case SimArchitecture::kNameBased: {
      PROF_SPAN("lina.session.name_based");
      stats = NameBasedRunner(fabric, config).run();
      break;
    }
    case SimArchitecture::kNameResolution: {
      PROF_SPAN("lina.session.name_resolution");
      stats = ResolutionRunner(fabric, config, false).run();
      break;
    }
    case SimArchitecture::kReplicatedResolution: {
      PROF_SPAN("lina.session.replicated_resolution");
      stats = ResolutionRunner(fabric, config, true).run();
      break;
    }
    default:
      throw std::invalid_argument("simulate_session: unknown architecture");
  }
  mirror_to_registry(stats);
  return stats;
}

}  // namespace lina::sim

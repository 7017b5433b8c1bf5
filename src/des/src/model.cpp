#include "lina/des/model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace lina::des {

constexpr std::string_view kWho = "PacketModel";

PacketModel::PacketModel(const sim::ForwardingFabric& fabric,
                         sim::SimArchitecture architecture,
                         const sim::FailurePlan* failures,
                         std::size_t packet_ttl_hops)
    : fabric_(&fabric),
      arch_(architecture),
      plan_(failures != nullptr ? failures : &sim::no_failures()),
      packet_ttl_hops_(static_cast<std::uint16_t>(
          std::min<std::size_t>(packet_ttl_hops, 0xffff))) {
  sim::validate_failure_plan(*plan_, fabric.internet().graph().as_count(),
                             kWho);
}

std::uint32_t PacketModel::add_session(const SessionParams& params) {
  const std::size_t as_count = fabric_->internet().graph().as_count();
  const auto check_as = [&](topology::AsId as, const char* what) {
    if (as >= as_count)
      throw std::out_of_range(std::string("PacketModel: bad ") + what);
  };
  sim::validate_schedule(params.schedule, as_count, kWho);
  if (!std::isfinite(params.start_ms) || params.start_ms < 0.0)
    throw std::invalid_argument("PacketModel: bad start_ms");
  sim::require_finite_positive(params.duration_ms, kWho, "duration_ms");
  sim::require_finite_positive(params.interval_ms, kWho, "interval_ms");
  check_as(params.correspondent, "correspondent");
  const topology::AsId home_as =
      params.home_as.value_or(params.schedule.front().as);
  check_as(home_as, "home AS");

  // Every check runs before the first append, so a rejected session leaves
  // the model unchanged.
  std::vector<topology::AsId> pool;
  if (arch_ == sim::SimArchitecture::kNameResolution ||
      arch_ == sim::SimArchitecture::kReplicatedResolution) {
    sim::require_finite_positive(params.resolver_ttl_ms, kWho,
                                 "resolver_ttl_ms");
    if (arch_ == sim::SimArchitecture::kReplicatedResolution) {
      if (params.resolver_replicas.empty())
        throw std::invalid_argument(
            "PacketModel: replicated resolution needs replicas");
      pool = params.resolver_replicas;
    } else {
      // As in sim::simulate_session, the resolver defaults to the
      // correspondent's AS.
      pool = {params.resolver_as.value_or(params.correspondent)};
    }
    for (const topology::AsId replica : pool) check_as(replica, "replica");
    // Nearest-first (ties by AS id): the correspondent resolves at the
    // first live replica in this order. Precomputed here so the per-event
    // choice is one ordered scan.
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    std::stable_sort(pool.begin(), pool.end(),
                     [&](topology::AsId a, topology::AsId b) {
                       const auto da =
                           fabric_->path_delay_ms(params.correspondent, a);
                       const auto db =
                           fabric_->path_delay_ms(params.correspondent, b);
                       const double va = da.value_or(
                           std::numeric_limits<double>::infinity());
                       const double vb = db.value_or(
                           std::numeric_limits<double>::infinity());
                       if (va != vb) return va < vb;
                       return a < b;
                     });
  } else if (arch_ == sim::SimArchitecture::kNameBased) {
    sim::require_finite_positive(params.update_hop_ms, kWho,
                                 "update_hop_ms");
  }

  Spec spec;
  spec.digest_id = params.digest_id.value_or(specs_.size());
  spec.correspondent = params.correspondent;
  spec.home_as = home_as;
  spec.first_step = static_cast<std::uint32_t>(steps_.size());
  spec.step_count = static_cast<std::uint32_t>(params.schedule.size());
  spec.start_ms = params.start_ms;
  spec.duration_ms = params.duration_ms;
  spec.interval_ms = params.interval_ms;
  spec.ttl_ms = params.resolver_ttl_ms;
  spec.update_hop_ms = params.update_hop_ms;
  spec.scope_hops = params.update_scope_hops;
  spec.first_replica = static_cast<std::uint32_t>(replicas_.size());
  spec.replica_count = static_cast<std::uint32_t>(pool.size());
  steps_.insert(steps_.end(), params.schedule.begin(),
                params.schedule.end());
  replicas_.insert(replicas_.end(), pool.begin(), pool.end());
  specs_.push_back(spec);
  return static_cast<std::uint32_t>(specs_.size() - 1);
}

EventRecord PacketModel::initial_event(std::uint32_t session) const {
  const Spec& s = specs_[session];
  EventRecord record;
  record.type = EventType::kEmit;
  record.time_ms = s.start_ms;
  record.session = session;
  record.packet = 0;
  record.at = s.correspondent;
  return record;
}

topology::AsId PacketModel::home_belief(const Spec& s, double t) const {
  // The initial registration happens at session setup; a registration
  // without a route never arrives.
  return sim::newest_known_step(
      steps(s), t, s.start_ms, [&](const sim::MobilityStep& step) {
        return fabric_->path_delay_ms(step.as, s.home_as);
      });
}

topology::AsId PacketModel::resolver_belief(const Spec& s, double t) const {
  const topology::AsId* replicas = replicas_.data() + s.first_replica;
  // Resolutions happen on the TTL grid; if every replica is dead at an
  // epoch the correspondent keeps the previous epoch's answer.
  for (std::int64_t k =
           static_cast<std::int64_t>((t - s.start_ms) / s.ttl_ms);
       k >= 0; --k) {
    const double epoch = s.start_ms + static_cast<double>(k) * s.ttl_ms;
    const topology::AsId* replica = nullptr;
    for (std::uint32_t r = 0; r < s.replica_count; ++r) {
      if (plan_->resolver_down(replicas[r], epoch)) continue;
      replica = &replicas[r];
      break;
    }
    if (replica == nullptr) continue;
    // The replica's registry lags each step by the registration
    // propagation delay from the new attachment to that replica.
    return sim::newest_known_step(
        steps(s), epoch, s.start_ms, [&](const sim::MobilityStep& step) {
          return fabric_->path_delay_ms(step.as, *replica);
        });
  }
  return steps(s).front().as;
}

void PacketModel::finish(const Spec& s, const EventRecord& ev,
                         DeliveryDigest& digest) const {
  if (sim::location_at(steps(s), ev.time_ms - s.start_ms) == ev.at) {
    digest.add_delivered(s.digest_id, ev.packet, ev.time_ms, ev.sent_ms,
                         ev.hops, ev.at);
  } else {
    digest.lost += 1;  // stale belief: the mobile has moved on
  }
}

}  // namespace lina::des

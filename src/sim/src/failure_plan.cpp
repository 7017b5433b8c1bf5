#include "lina/sim/failure_plan.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "lina/obs/metrics.hpp"
#include "lina/prof/prof.hpp"

namespace lina::sim {

using topology::AsId;

namespace {

std::uint64_t next_stamp() {
  static std::atomic<std::uint64_t> counter{0};
  return ++counter;
}

/// splitmix64: a strong 64->64 mixer, so the loss coin for message n is
/// independent of the coins before it (and of event-execution order).
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool active(const FailureEvent& event, double time_ms) {
  return event.start_ms <= time_ms && time_ms < event.end_ms;
}

bool is_data_plane(FailureKind kind) {
  return kind == FailureKind::kAsOutage || kind == FailureKind::kLinkCut;
}

}  // namespace

std::string_view failure_kind_name(FailureKind kind) {
  switch (kind) {
    case FailureKind::kAsOutage:
      return "AS outage";
    case FailureKind::kLinkCut:
      return "link cut";
    case FailureKind::kHomeAgentCrash:
      return "home-agent crash";
    case FailureKind::kResolverCrash:
      return "resolver crash";
    case FailureKind::kUpdateLoss:
      return "update-message loss";
  }
  throw std::invalid_argument("failure_kind_name: unknown kind");
}

FailurePlan& FailurePlan::add(const FailureEvent& event) {
  // A NaN passes every ordered comparison below and would reach the
  // boundary sort, which needs a strict weak order.
  if (!std::isfinite(event.start_ms) || !std::isfinite(event.end_ms))
    throw std::invalid_argument("FailurePlan: non-finite window bound");
  if (event.start_ms < 0.0 || event.end_ms <= event.start_ms)
    throw std::invalid_argument("FailurePlan: window must satisfy 0 <= start < end");
  if (event.kind == FailureKind::kLinkCut && event.element == event.element_b)
    throw std::invalid_argument("FailurePlan: link cut needs two distinct ASes");
  if (event.kind == FailureKind::kUpdateLoss &&
      !(event.loss_probability >= 0.0 && event.loss_probability <= 1.0))
    throw std::invalid_argument(
        "FailurePlan: loss probability is NaN or outside [0, 1]");
  events_.push_back(event);
  stamp_ = next_stamp();
  obs::metric::failure_plan_events().add();
  if (is_data_plane(event.kind)) {
    data_plane_boundaries_.push_back(event.start_ms);
    data_plane_boundaries_.push_back(event.end_ms);
    std::sort(data_plane_boundaries_.begin(), data_plane_boundaries_.end());
    data_plane_boundaries_.erase(
        std::unique(data_plane_boundaries_.begin(),
                    data_plane_boundaries_.end()),
        data_plane_boundaries_.end());
  }
  return *this;
}

FailurePlan& FailurePlan::as_outage(AsId as, double start_ms, double end_ms) {
  return add({FailureKind::kAsOutage, start_ms, end_ms, as, 0, 1.0});
}

FailurePlan& FailurePlan::link_cut(AsId a, AsId b, double start_ms,
                                   double end_ms) {
  return add({FailureKind::kLinkCut, start_ms, end_ms, a, b, 1.0});
}

FailurePlan& FailurePlan::home_agent_crash(AsId as, double start_ms,
                                           double end_ms) {
  return add({FailureKind::kHomeAgentCrash, start_ms, end_ms, as, 0, 1.0});
}

FailurePlan& FailurePlan::resolver_crash(AsId as, double start_ms,
                                         double end_ms) {
  return add({FailureKind::kResolverCrash, start_ms, end_ms, as, 0, 1.0});
}

FailurePlan& FailurePlan::update_loss(double probability, double start_ms,
                                      double end_ms) {
  return add({FailureKind::kUpdateLoss, start_ms, end_ms, 0, 0, probability});
}

bool FailurePlan::as_down(AsId as, double time_ms) const {
  for (const FailureEvent& event : events_) {
    if (event.kind == FailureKind::kAsOutage && event.element == as &&
        active(event, time_ms))
      return true;
  }
  return false;
}

bool FailurePlan::link_down(AsId a, AsId b, double time_ms) const {
  for (const FailureEvent& event : events_) {
    if (event.kind != FailureKind::kLinkCut || !active(event, time_ms))
      continue;
    if ((event.element == a && event.element_b == b) ||
        (event.element == b && event.element_b == a))
      return true;
  }
  return false;
}

bool FailurePlan::home_agent_down(AsId as, double time_ms) const {
  for (const FailureEvent& event : events_) {
    if (event.kind == FailureKind::kHomeAgentCrash && event.element == as &&
        active(event, time_ms))
      return true;
  }
  return as_down(as, time_ms);
}

bool FailurePlan::resolver_down(AsId as, double time_ms) const {
  for (const FailureEvent& event : events_) {
    if (event.kind == FailureKind::kResolverCrash && event.element == as &&
        active(event, time_ms))
      return true;
  }
  return as_down(as, time_ms);
}

bool FailurePlan::any_active(double time_ms) const {
  for (const FailureEvent& event : events_) {
    if (active(event, time_ms)) return true;
  }
  return false;
}

bool FailurePlan::data_plane_impaired(double time_ms) const {
  for (const FailureEvent& event : events_) {
    if (is_data_plane(event.kind) && active(event, time_ms)) return true;
  }
  return false;
}

bool FailurePlan::control_message_lost(std::uint64_t message_id,
                                       double time_ms) const {
  double survive = 1.0;
  for (const FailureEvent& event : events_) {
    if (event.kind == FailureKind::kUpdateLoss && active(event, time_ms))
      survive *= 1.0 - event.loss_probability;
  }
  if (survive >= 1.0) return false;
  const double coin =
      static_cast<double>(mix64(seed_ ^ mix64(message_id)) >> 11) *
      0x1.0p-53;  // uniform in [0, 1)
  const bool lost = coin >= survive;
  if (lost) {
    obs::metric::failure_control_drops().add();
    prof::instant("lina.sim.failure.control_drop", time_ms,
                  static_cast<double>(message_id));
  }
  return lost;
}

std::size_t FailurePlan::data_plane_epoch(double time_ms) const {
  return static_cast<std::size_t>(
      std::upper_bound(data_plane_boundaries_.begin(),
                       data_plane_boundaries_.end(), time_ms) -
      data_plane_boundaries_.begin());
}

const FailurePlan& no_failures() {
  static const FailurePlan plan;
  return plan;
}

std::vector<double> FailurePlan::repair_times() const {
  std::vector<double> times;
  times.reserve(events_.size());
  for (const FailureEvent& event : events_) times.push_back(event.end_ms);
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

}  // namespace lina::sim

#pragma once

// The packet-forwarding model both DES drivers execute (DESIGN.md §4i).
//
// Every event handler is a *pure function* of the event record, the
// immutable session arena, and point-in-time queries against the shared
// ForwardingFabric / FailurePlan (both deterministic, build-once memoized
// values). No handler mutates state another handler can observe, so the
// multiset of delivered packets — and therefore the DeliveryDigest — is
// invariant under any execution order of the same event set. That is the
// lemma that lets run_serial drain its events from an unordered LIFO
// work-list, and that makes the sharded engine bit-identical to it at any
// shard count and thread count.
//
// Architecture semantics (who the correspondent/routers believe the
// mobile is attached to) are *closed-form in time*: beliefs are derived
// from the mobility schedule plus control-propagation delays, not from
// mutable registries. Control-plane propagation (registrations, update
// wavefronts) rides the healthy-topology delays; the data plane consults
// the failure-aware fabric routes and control-process crash windows.
//
// The rules shared with the sim front-ends live in sim/session.hpp: the
// input checks, where the mobile is (sim::location_at), the newest step
// an element has heard of (sim::newest_known_step) and what a flooded
// router believes (sim::wavefront_belief). What the indirection relay and
// the resolver hear, and when, is this model's own.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "lina/des/event.hpp"
#include "lina/sim/fabric.hpp"
#include "lina/sim/failure_plan.hpp"
#include "lina/sim/session.hpp"

namespace lina::des {

/// One correspondent -> mobile CBR session fed to the engine. Mirrors the
/// sim::SessionConfig knobs the packet model supports; schedule times are
/// relative to start_ms, first step at 0 (session_schedule_from_trace's
/// contract).
struct SessionParams {
  topology::AsId correspondent = 0;
  std::vector<sim::MobilityStep> schedule;
  double start_ms = 0.0;
  double duration_ms = 10000.0;
  double interval_ms = 20.0;
  /// Indirection relay; defaults to the initial attachment.
  std::optional<topology::AsId> home_as;
  /// Name resolution: the resolver; defaults to the correspondent's AS.
  std::optional<topology::AsId> resolver_as;
  /// Replicated resolution: the replica pool (required for
  /// kReplicatedResolution; the correspondent resolves at the nearest
  /// live replica, ties broken by AS id).
  std::vector<topology::AsId> resolver_replicas;
  double resolver_ttl_ms = 500.0;
  /// Name-based routing: per-physical-hop latency of the update wavefront.
  double update_hop_ms = 5.0;
  /// Name-based routing: flooding scope in physical hops (SIZE_MAX =
  /// global).
  std::size_t update_scope_hops = SIZE_MAX;
  /// Global identity folded into the delivery digest (defaults to the
  /// session's index in this model). Out-of-core replay sets it to the
  /// global user index so the digest is invariant across batch sizes.
  std::optional<std::uint64_t> digest_id;
};

/// The immutable session arena plus the event handlers. Build it (add
/// every session), then hand it to ShardedEngine / run_serial; handle()
/// is const and thread-safe.
class PacketModel {
 public:
  /// `failures` must outlive the model; nullptr runs it under the shared
  /// empty plan (sim::no_failures()). Throws std::out_of_range when a fault
  /// names an AS outside the fabric's graph.
  PacketModel(const sim::ForwardingFabric& fabric,
              sim::SimArchitecture architecture,
              const sim::FailurePlan* failures = nullptr,
              std::size_t packet_ttl_hops = 64);

  /// Validates and appends one session; returns its index. Throws
  /// std::invalid_argument on malformed params (empty/unsorted schedule,
  /// first step not at 0, non-finite or non-positive interval/duration,
  /// missing replicas for replicated resolution) and std::out_of_range on
  /// an AS outside the graph. A rejected session leaves the model
  /// unchanged.
  std::uint32_t add_session(const SessionParams& params);

  [[nodiscard]] std::size_t session_count() const { return specs_.size(); }
  /// Mobility steps held across every session's schedule.
  [[nodiscard]] std::size_t step_count() const { return steps_.size(); }
  [[nodiscard]] const sim::ForwardingFabric& fabric() const {
    return *fabric_;
  }
  [[nodiscard]] sim::SimArchitecture architecture() const { return arch_; }

  /// The session's first event: the kEmit that launches packet 0 at
  /// start_ms from the correspondent.
  [[nodiscard]] EventRecord initial_event(std::uint32_t session) const;

  /// Executes one event: updates `digest` and emits follow-up records via
  /// `emit(const EventRecord&)`. Pure with respect to engine state; safe
  /// to call concurrently from any thread for any events.
  template <typename Emit>
  void handle(const EventRecord& ev, DeliveryDigest& digest,
              Emit&& emit) const {
    const Spec& s = specs_[ev.session];
    const double t = ev.time_ms;
    if (ev.type == EventType::kEmit) {
      digest.sent += 1;
      const double next = t + s.interval_ms;
      if (next < s.start_ms + s.duration_ms) {
        EventRecord rearm = ev;
        rearm.time_ms = next;
        rearm.packet = ev.packet + 1;
        emit(rearm);
      }
      EventRecord hop;
      hop.type = EventType::kHop;
      hop.time_ms = t;
      hop.sent_ms = t;
      hop.session = ev.session;
      hop.packet = ev.packet;
      hop.at = s.correspondent;
      hop.hops = 0;
      hop.stage = HopStage::kFinal;
      switch (arch_) {
        case sim::SimArchitecture::kIndirection:
          hop.dest = s.home_as;
          hop.stage = HopStage::kRelay;
          break;
        case sim::SimArchitecture::kNameResolution:
        case sim::SimArchitecture::kReplicatedResolution:
          hop.dest = resolver_belief(s, t);
          break;
        case sim::SimArchitecture::kNameBased:
          hop.dest = sim::wavefront_belief(*fabric_, steps(s),
                                           s.correspondent, t,
                                           s.update_hop_ms, s.scope_hops,
                                           s.start_ms);
          break;
      }
      emit(hop);
      return;
    }
    // kHop.
    digest.hop_events += 1;
    const std::uint32_t at = ev.at;
    std::uint32_t dest = ev.dest;
    if (arch_ == sim::SimArchitecture::kNameBased) {
      // Per-router belief: every hop re-aims at where *this* router
      // currently thinks the mobile is (the update wavefront may not have
      // reached it yet — transient loops are bounded by the hop TTL).
      dest = sim::wavefront_belief(*fabric_, steps(s), at, t,
                                   s.update_hop_ms, s.scope_hops, s.start_ms);
    }
    if (at == dest) {
      if (ev.stage == HopStage::kRelay) {
        // At the indirection relay: re-address to the registered care-of
        // AS and keep forwarding (same instant, same router).
        if (plan_->home_agent_down(at, t)) {
          digest.lost += 1;
          return;
        }
        EventRecord fwd = ev;
        fwd.stage = HopStage::kFinal;
        fwd.dest = home_belief(s, t);
        if (fwd.dest == at) {
          finish(s, fwd, digest);
          return;
        }
        emit(fwd);
        return;
      }
      finish(s, ev, digest);
      return;
    }
    if (ev.hops >= packet_ttl_hops_) {
      digest.lost += 1;
      return;
    }
    const std::optional<sim::Hop> hop =
        fabric_->hop_toward(at, dest, *plan_, t);
    if (!hop.has_value() || hop->next == at) {
      digest.lost += 1;
      return;
    }
    EventRecord n = ev;
    n.at = hop->next;
    n.dest = dest;
    n.hops = static_cast<std::uint16_t>(ev.hops + 1);
    n.time_ms = t + hop->link_ms;
    emit(n);
  }

 private:
  struct Spec {
    std::uint64_t digest_id = 0;
    topology::AsId correspondent = 0;
    topology::AsId home_as = 0;
    std::uint32_t first_step = 0;
    std::uint32_t step_count = 0;
    std::uint32_t first_replica = 0;  // into replicas_ (resolution archs)
    std::uint32_t replica_count = 0;
    double start_ms = 0.0;
    double duration_ms = 0.0;
    double interval_ms = 0.0;
    double ttl_ms = 0.0;
    double update_hop_ms = 0.0;
    std::size_t scope_hops = 0;  // SIZE_MAX = global
  };

  [[nodiscard]] std::span<const sim::MobilityStep> steps(const Spec& s) const {
    return {steps_.data() + s.first_step, s.step_count};
  }

  /// The care-of AS the indirection relay believes at `t`: the latest
  /// step whose registration (riding the healthy policy route from the
  /// new attachment to the relay) has arrived by `t`; the initial
  /// attachment is always known.
  [[nodiscard]] topology::AsId home_belief(const Spec& s, double t) const;

  /// The location the correspondent's resolver answer points at when a
  /// packet is emitted at `t`: resolutions happen on the TTL grid
  /// (epochs start_ms + k*ttl); the answering replica is the nearest one
  /// alive at the epoch, and its knowledge lags each step by the
  /// registration propagation delay to that replica.
  [[nodiscard]] topology::AsId resolver_belief(const Spec& s,
                                               double t) const;

  /// Final-arrival bookkeeping: delivered iff the mobile is attached at
  /// the arrival AS at the arrival instant, lost otherwise (staleness).
  void finish(const Spec& s, const EventRecord& ev,
              DeliveryDigest& digest) const;

  const sim::ForwardingFabric* fabric_;
  sim::SimArchitecture arch_;
  const sim::FailurePlan* plan_;  // the attached plan or sim::no_failures()
  std::uint16_t packet_ttl_hops_;
  std::vector<Spec> specs_;
  std::vector<sim::MobilityStep> steps_;      // per-session slices
  std::vector<topology::AsId> replicas_;      // nearest-first per session
};

}  // namespace lina::des

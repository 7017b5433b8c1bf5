#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "lina/exec/memo.hpp"
#include "lina/routing/synthetic_internet.hpp"
#include "lina/topology/as_graph.hpp"

namespace lina::sim {

class FailurePlan;

struct FabricConfig {
  double per_hop_ms = 2.0;   // per-AS processing/queueing
  double inflation = 1.6;    // geographic route inflation
  double min_link_ms = 0.2;  // floor for intra-metro links
};

/// One forwarding step: the next hop and the delay of the link to it.
struct Hop {
  topology::AsId next = 0;
  double link_ms = 0.0;

  friend bool operator==(const Hop&, const Hop&) = default;
};

/// The packet-forwarding substrate: per-destination next hops along the
/// synthetic Internet's valley-free policy routes, and per-link delays
/// from AS geography. All architecture simulators forward through this
/// fabric; they differ only in *which destination* each element of the
/// network believes the mobile endpoint is at.
///
/// Thread-safe: one fabric may be shared by any number of concurrent
/// sessions / query threads (lina::exec workers). Each destination's
/// route row and each source's BFS distance row is built exactly once,
/// under a striped lock, and published through a per-AS atomic slot, so
/// the read path is one acquire load plus an index. Degraded graphs and
/// detour rows are memoized behind striped shared mutexes. Every query
/// result is bit-identical whether the fabric is driven by one thread or
/// many.
class ForwardingFabric {
 public:
  explicit ForwardingFabric(const routing::SyntheticInternet& internet,
                            FabricConfig config = {});

  /// The next hop from `at` toward destination AS `dest` and the
  /// link_delay_ms of the link to it, in one read; `at` itself when
  /// at == dest; nullopt if the policy plane has no route.
  [[nodiscard]] std::optional<Hop> hop_toward(topology::AsId at,
                                              topology::AsId dest) const;

  /// One-hop delay across the (a, b) link.
  [[nodiscard]] double link_delay_ms(topology::AsId a,
                                     topology::AsId b) const;

  /// End-to-end delay along the policy route, or nullopt if unroutable.
  [[nodiscard]] std::optional<double> path_delay_ms(topology::AsId from,
                                                    topology::AsId to) const;

  /// Physical (policy-free) AS-hop distance; used for update wavefronts.
  [[nodiscard]] std::size_t physical_hops(topology::AsId from,
                                          topology::AsId to) const;

  // Failure-aware forwarding (the FailurePlan layer). When no data-plane
  // fault is active at `time_ms` these delegate to the base queries and
  // return bit-identical results; when the policy route is broken by an
  // active fault they fall back to the valley-free policy route recomputed
  // on the surviving topology (dead ASes and cut links removed), modelling
  // BGP reconvergence — detours stay policy-compliant, they do not become
  // delay-optimal shortcuts. Unroutable (nullopt) when the fault kills an
  // endpoint or no valley-free route survives.

  /// Failure-aware next hop and the delay of the link to it.
  [[nodiscard]] std::optional<Hop> hop_toward(topology::AsId at,
                                              topology::AsId dest,
                                              const FailurePlan& failures,
                                              double time_ms) const;

  /// Failure-aware end-to-end delay.
  [[nodiscard]] std::optional<double> path_delay_ms(
      topology::AsId from, topology::AsId to, const FailurePlan& failures,
      double time_ms) const;

  /// True when the policy route from -> to traverses an AS or link that a
  /// fault has taken down at `time_ms` (or no policy route exists while
  /// the data plane is impaired).
  [[nodiscard]] bool policy_path_impaired(topology::AsId from,
                                          topology::AsId to,
                                          const FailurePlan& failures,
                                          double time_ms) const;

  [[nodiscard]] const routing::SyntheticInternet& internet() const {
    return *internet_;
  }
  [[nodiscard]] const FabricConfig& config() const { return config_; }

 private:
  /// Every AS's route toward one destination, as parallel arrays indexed
  /// by AsId. Rows are immutable once published.
  struct RouteRow {
    std::vector<topology::AsId> next;  // kNoNode: no route
    std::vector<double> link_ms;       // link_delay_ms(u, next[u])
    /// link_ms summed hop by hop from u toward the destination, in walk
    /// order (so it equals a left-to-right link_delay_ms sum bit for
    /// bit); +inf when the walk from u breaks or loops.
    std::vector<double> path_ms;
    /// Routable u: the hop count. Unroutable u: the hop queries a
    /// walk from u spends, the failing one included. kLoop: the walk from
    /// u never reaches the destination.
    std::vector<std::uint32_t> hops;

    [[nodiscard]] std::optional<Hop> hop(topology::AsId u) const;
    [[nodiscard]] std::optional<double> delay(topology::AsId u) const;
  };
  static constexpr std::uint32_t kLoop = UINT32_MAX;

  /// Fixed table of build-once rows, one atomic slot per AS. A row is
  /// built under its stripe's lock and published with a release store;
  /// readers take one acquire load. Rows live as long as the table.
  template <typename Row>
  class RowTable {
   public:
    explicit RowTable(std::size_t size) : slots_(size) {}
    RowTable(const RowTable&) = delete;
    RowTable& operator=(const RowTable&) = delete;
    ~RowTable() {
      for (auto& slot : slots_) delete slot.load(std::memory_order_relaxed);
    }

    template <typename Build>
    const Row& get_or_build(topology::AsId key, Build&& build) const {
      std::atomic<const Row*>& slot = slots_[key];
      if (const Row* row = slot.load(std::memory_order_acquire)) return *row;
      const std::lock_guard<std::mutex> lock(stripes_[key % kStripes]);
      const Row* row = slot.load(std::memory_order_relaxed);
      if (row == nullptr) {
        row = new Row(build());
        slot.store(row, std::memory_order_release);
      }
      return *row;
    }

   private:
    static constexpr std::size_t kStripes = 16;
    mutable std::vector<std::atomic<const Row*>> slots_;
    mutable std::array<std::mutex, kStripes> stripes_;
  };

  void check_range(topology::AsId a, topology::AsId b,
                   const char* what) const;
  /// Builds the row toward `dest` over `graph`'s valley-free policy
  /// routes; ASes for which `down(as)` holds neither route nor relay.
  template <typename Down>
  RouteRow build_route_row(const topology::AsGraph& graph,
                           topology::AsId dest, Down&& down) const;
  const RouteRow& route_row(topology::AsId dest) const;
  /// route_row(to) for a path query from `from`; throws on a routing loop.
  const RouteRow& path_row(topology::AsId from, topology::AsId to) const;
  const std::vector<std::uint32_t>& bfs_from(topology::AsId source) const;
  /// The AS graph with dead ASes isolated and cut links removed at the
  /// plan's data-plane epoch covering `time_ms`; same dense AS ids as the
  /// healthy graph. Cached per (plan stamp, epoch).
  const topology::AsGraph& degraded_graph(const FailurePlan& failures,
                                          double time_ms) const;
  /// Route row toward `dest` on the degraded graph (post-reconvergence
  /// routes); cached per (plan stamp, epoch, dest).
  const RouteRow& detour_row(topology::AsId dest, const FailurePlan& failures,
                             double time_ms) const;

  const routing::SyntheticInternet* internet_;
  FabricConfig config_;
  RowTable<RouteRow> route_rows_;
  RowTable<std::vector<std::uint32_t>> bfs_rows_;
  // Failure-keyed state is sparse in (plan stamp, epoch), so it stays in
  // striped-shared-mutex memoizers (lina::exec) keyed by hashed tuples.
  exec::Memo<std::pair<std::uint64_t, std::size_t>, topology::AsGraph,
             exec::TupleHash>
      degraded_graph_cache_;
  exec::Memo<std::tuple<std::uint64_t, std::size_t, topology::AsId>,
             RouteRow, exec::TupleHash>
      detour_cache_;
};

}  // namespace lina::sim

// Extension experiment (not a paper figure): resilience of the four
// location-independence architectures when their control plane breaks.
// A FailurePlan injects the failure that targets each architecture's
// weak point — the home agent for indirection, the resolver for (single
// and replicated) resolution, a transit AS for name-based routing — and
// the sweep varies outage duration and failure kind. Deterministic under
// the fixed seed below.

#include <cstddef>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "lina/exec/parallel.hpp"
#include "lina/sim/failure_plan.hpp"
#include "lina/sim/resolver_pool.hpp"
#include "lina/sim/session.hpp"

using namespace lina;
using topology::AsId;

namespace {

constexpr std::uint64_t kSeed = 42;
constexpr double kOutageStartMs = 2000.0;

struct Scenario {
  sim::SimArchitecture arch;
  std::string label;
};

/// The middle AS of the policy route correspondent -> device, i.e. a
/// transit AS whose outage forces the data plane to reroute.
AsId mid_route_transit(const sim::ForwardingFabric& fabric, AsId from,
                       AsId to) {
  std::vector<AsId> route{from};
  AsId current = from;
  while (current != to) {
    current = fabric.hop_toward(current, to)->next;
    route.push_back(current);
  }
  return route[route.size() / 2];
}

sim::SessionConfig base_config(const routing::SyntheticInternet& internet,
                               const std::vector<AsId>& replicas) {
  sim::SessionConfig config;
  config.correspondent = internet.edge_ases()[0];
  config.schedule = {{0.0, internet.edge_ases()[25]},
                     {3000.0, internet.edge_ases()[26]}};
  config.packet_interval_ms = 50.0;
  config.duration_ms = 10000.0;
  config.resolver_ttl_ms = 300.0;
  config.home_as = internet.edge_ases()[100];
  config.resolver_as = replicas.front();
  config.resolver_replicas = replicas;
  return config;
}

/// The fault aimed at this architecture's control plane (or, for
/// name-based routing which has no control-plane server, at a transit AS
/// of its data path).
sim::FailurePlan targeted_plan(sim::SimArchitecture arch,
                               const sim::SessionConfig& config,
                               const sim::ForwardingFabric& fabric,
                               const sim::ResolverPool& pool,
                               double duration_ms) {
  sim::FailurePlan plan(kSeed);
  const double end = kOutageStartMs + duration_ms;
  switch (arch) {
    case sim::SimArchitecture::kIndirection:
      plan.home_agent_crash(*config.home_as, kOutageStartMs, end);
      break;
    case sim::SimArchitecture::kNameResolution:
      plan.resolver_crash(*config.resolver_as, kOutageStartMs, end);
      break;
    case sim::SimArchitecture::kReplicatedResolution:
      plan.resolver_crash(pool.nearest_replica(config.correspondent),
                          kOutageStartMs, end);
      break;
    case sim::SimArchitecture::kNameBased:
      plan.as_outage(mid_route_transit(fabric, config.correspondent,
                                       config.schedule.front().as),
                     kOutageStartMs, end);
      break;
  }
  return plan;
}

double sample_sum(const stats::EmpiricalCdf& cdf) {
  double sum = 0.0;
  for (const double x : cdf.sorted_samples()) sum += x;
  return sum;
}

/// Gated per-session counts and sample sums (ascending samples, so the
/// sums are bit-reproducible): the failure-aware fabric routes feed the
/// delivered count and the degraded-stretch sum.
void record_session(bench::Harness& harness, const std::string& prefix,
                    const sim::SessionStats& result) {
  harness.result(prefix + ".delivered",
                 static_cast<double>(result.packets_delivered));
  harness.result(prefix + ".control_messages",
                 static_cast<double>(result.control_messages));
  harness.result(prefix + ".control_retries",
                 static_cast<double>(result.control_retries));
  harness.result(prefix + ".stretch_degraded_sum",
                 sample_sum(result.stretch_degraded));
}

std::string fmt_recovery(const stats::EmpiricalCdf& recovery) {
  return recovery.empty() ? "-" : stats::fmt(recovery.quantile(0.5), 0);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(argc, argv, "resilience_outage_sweep");
  bench::print_figure_header(
      "Resilience sweep — architectures under control-plane failure "
      "(extension)",
      "(not a paper figure) indirection should lose packets for the whole "
      "home-agent outage, single resolution should serve stale bindings "
      "until repair, replicated resolution should fail over within one "
      "retry backoff, and name-based routing should degrade only by "
      "stretch while the data plane reroutes.");

  harness.seed(kSeed);
  const auto& internet = bench::paper_internet();
  const sim::ForwardingFabric fabric(internet);
  const auto replicas = sim::ResolverPool::metro_placement(internet, 8);
  const sim::ResolverPool pool(fabric, replicas);

  const std::vector<Scenario> scenarios{
      {sim::SimArchitecture::kIndirection, "indirection (home agent)"},
      {sim::SimArchitecture::kNameResolution, "name resolution (1 resolver)"},
      {sim::SimArchitecture::kReplicatedResolution,
       "replicated resolution (8)"},
      {sim::SimArchitecture::kNameBased, "name-based routing"},
  };

  // ---- Canonical scenario: 4 s targeted outage spanning a move. ----
  // Each cell of this bench (scenario, or scenario x sweep point) builds
  // its own config/plan/session, so cells fan out across the lina::exec
  // pool and come back in grid order — output identical to the serial
  // loops at any --threads value.
  std::cout << stats::heading("Targeted 4 s outage across a move");
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"architecture", "delivery", "loss in window",
                  "median recovery (ms)", "retries", "ctrl msgs"});
  std::vector<sim::SessionStats> canonical =
      exec::parallel_map(scenarios.size(), [&](std::size_t s) {
        auto config = base_config(internet, replicas);
        const auto plan =
            targeted_plan(scenarios[s].arch, config, fabric, pool, 4000.0);
        config.failures = &plan;
        return sim::simulate_session(fabric, scenarios[s].arch, config);
      });
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const sim::SessionStats& result = canonical[s];
    const std::string arch(sim::sim_architecture_name(scenarios[s].arch));
    harness.result("delivery." + arch, result.delivery_ratio());
    record_session(harness, "outage." + arch, result);
    rows.push_back({scenarios[s].label,
                    stats::pct(result.delivery_ratio(), 1),
                    stats::pct(result.failure_loss_fraction(), 1),
                    fmt_recovery(result.recovery_ms),
                    std::to_string(result.control_retries),
                    std::to_string(result.control_messages)});
  }
  std::cout << stats::text_table(rows) << "\n";

  std::vector<std::pair<std::string, const stats::EmpiricalCdf*>> series;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    if (!canonical[i].stretch_degraded.empty())
      series.emplace_back(scenarios[i].label, &canonical[i].stretch_degraded);
  }
  std::cout << "Stretch of packets delivered while the fault was active\n"
            << stats::multi_cdf_table(series, "stretch") << "\n";

  // ---- Sweep: outage duration x failure kind. ----
  harness.phase("duration_sweep");
  std::cout << stats::heading("Outage-duration sweep (delivery ratio)");
  const std::vector<double> durations{500.0, 1000.0, 2000.0, 4000.0};
  rows.clear();
  {
    std::vector<std::string> header{"architecture \\ outage"};
    for (const double d : durations)
      header.push_back(stats::fmt(d, 0) + " ms");
    rows.push_back(std::move(header));
  }
  {
    // Flattened scenario x duration grid, one session per cell.
    const std::vector<std::string> cells = exec::parallel_map(
        scenarios.size() * durations.size(), [&](std::size_t i) {
          const Scenario& scenario = scenarios[i / durations.size()];
          const double d = durations[i % durations.size()];
          auto config = base_config(internet, replicas);
          const auto plan =
              targeted_plan(scenario.arch, config, fabric, pool, d);
          config.failures = &plan;
          const auto result =
              sim::simulate_session(fabric, scenario.arch, config);
          return stats::pct(result.delivery_ratio(), 1);
        });
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      std::vector<std::string> row{scenarios[s].label};
      for (std::size_t d = 0; d < durations.size(); ++d) {
        row.push_back(cells[s * durations.size() + d]);
      }
      rows.push_back(std::move(row));
    }
  }
  std::cout << stats::text_table(rows) << "\n";

  // ---- Sweep: failure kinds at a fixed 2 s window. ----
  harness.phase("kind_sweep");
  std::cout << stats::heading("Failure-kind sweep (2 s window, delivery)");
  struct Kind {
    std::string label;
    // Builds the plan for this kind; nullopt label cells mean "does not
    // apply to this architecture" (e.g. a home-agent crash only matters
    // to indirection).
    std::optional<sim::FailurePlan> (*build)(const sim::SessionConfig&,
                                             const sim::ForwardingFabric&,
                                             const sim::ResolverPool&);
  };
  const std::vector<Kind> kinds{
      {"targeted crash",
       [](const sim::SessionConfig&, const sim::ForwardingFabric&,
          const sim::ResolverPool&) {
         return std::optional<sim::FailurePlan>();  // filled per-arch below
       }},
      {"transit AS outage",
       [](const sim::SessionConfig& config, const sim::ForwardingFabric& f,
          const sim::ResolverPool&) {
         sim::FailurePlan plan(kSeed);
         plan.as_outage(mid_route_transit(f, config.correspondent,
                                          config.schedule.front().as),
                        kOutageStartMs, kOutageStartMs + 2000.0);
         return std::optional<sim::FailurePlan>(std::move(plan));
       }},
      {"first-hop link cut",
       [](const sim::SessionConfig& config, const sim::ForwardingFabric& f,
          const sim::ResolverPool&) {
         sim::FailurePlan plan(kSeed);
         const AsId hop =
             f.hop_toward(config.correspondent, config.schedule.front().as)
                 ->next;
         plan.link_cut(config.correspondent, hop, kOutageStartMs,
                       kOutageStartMs + 2000.0);
         return std::optional<sim::FailurePlan>(std::move(plan));
       }},
      {"50% update loss",
       [](const sim::SessionConfig&, const sim::ForwardingFabric&,
          const sim::ResolverPool&) {
         sim::FailurePlan plan(kSeed);
         plan.update_loss(0.5, kOutageStartMs, kOutageStartMs + 2000.0);
         return std::optional<sim::FailurePlan>(std::move(plan));
       }},
  };
  rows.clear();
  {
    std::vector<std::string> header{"architecture \\ failure"};
    for (const Kind& kind : kinds) header.push_back(kind.label);
    rows.push_back(std::move(header));
  }
  {
    // Flattened scenario x failure-kind grid.
    const std::vector<sim::SessionStats> cells = exec::parallel_map(
        scenarios.size() * kinds.size(), [&](std::size_t i) {
          const Scenario& scenario = scenarios[i / kinds.size()];
          const Kind& kind = kinds[i % kinds.size()];
          auto config = base_config(internet, replicas);
          auto plan = kind.build(config, fabric, pool);
          if (!plan.has_value())
            plan = targeted_plan(scenario.arch, config, fabric, pool, 2000.0);
          config.failures = &*plan;
          return sim::simulate_session(fabric, scenario.arch, config);
        });
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      std::vector<std::string> row{scenarios[s].label};
      for (std::size_t k = 0; k < kinds.size(); ++k) {
        const sim::SessionStats& result = cells[s * kinds.size() + k];
        row.push_back(stats::pct(result.delivery_ratio(), 1));
        record_session(
            harness,
            "kind." + kinds[k].label + "." +
                std::string(sim::sim_architecture_name(scenarios[s].arch)),
            result);
      }
      rows.push_back(std::move(row));
    }
  }
  std::cout << stats::text_table(rows) << "\n";

  std::cout
      << "Reading: the single points of failure show up as architecture-"
         "shaped holes — indirection's delivery falls roughly linearly "
         "with home-agent downtime because every packet triangles through "
         "the dead agent, single resolution keeps streaming to the stale "
         "attachment until the resolver returns, the replicated pool "
         "masks the same crash within one retry backoff by failing over "
         "to the next-nearest replica, and name-based routing rides out "
         "a transit outage on reconverged (longer) valley-free routes, "
         "paying stretch instead of loss.\n";
  return 0;
}

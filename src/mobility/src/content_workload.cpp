#include "lina/mobility/content_workload.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "lina/prof/prof.hpp"
#include "lina/stats/distributions.hpp"

namespace lina::mobility {

using routing::SyntheticInternet;
using topology::AsId;
using topology::AsTier;
using topology::GeoPoint;

ContentWorkloadGenerator::ContentWorkloadGenerator(
    const SyntheticInternet& internet, ContentWorkloadConfig config)
    : internet_(internet), config_(config) {
  // CDN footprint: stub ASes near every metro anchor.
  std::set<AsId> chosen;
  for (const GeoPoint& anchor : topology::metro_anchors()) {
    std::size_t taken = 0;
    for (const AsId as :
         internet.edge_ases_near(anchor, config_.pops_per_anchor * 4)) {
      if (taken == config_.pops_per_anchor) break;
      if (internet.graph().tier(as) != AsTier::kStub) continue;
      if (chosen.insert(as).second) {
        pop_ases_.push_back(as);
        pop_sites_.push_back(internet.graph().location(as));
        ++taken;
      }
    }
  }
  if (pop_ases_.size() < config_.max_pops_per_domain)
    config_.max_pops_per_domain = pop_ases_.size();
  if (config_.min_pops_per_domain > config_.max_pops_per_domain)
    config_.min_pops_per_domain = config_.max_pops_per_domain;
}

namespace {

/// Mutable resolution state of one content name.
struct NameState {
  bool aliased = false;  // CNAME-aliased to the CDN
  double rotate_multiplier = 1.0;
  // Aliased names: one replica address per domain PoP slot.
  std::vector<net::Ipv4Address> replicas;
  // Origin-served names: hosting prefix(es) and the load-balanced pool.
  net::Prefix origin_prefix;
  std::optional<net::Prefix> secondary_prefix;  // second hosting region
  std::vector<net::Ipv4Address> pool;
};

}  // namespace

ContentCatalog ContentWorkloadGenerator::generate() const {
  PROF_SPAN("lina.mobility.content_generate");
  stats::Rng rng(config_.seed, "content-workload");
  const VantagePointMerger merger(
      VantagePointMerger::worldwide_vantages(config_.vantage_count, rng),
      pop_sites_, config_.resolved_replicas_per_vantage);

  const std::size_t hours = config_.days * 24;
  const stats::LogNormal subdomain_dist(config_.subdomain_median,
                                        config_.subdomain_sigma);

  // Each PoP serves replicas out of one subnet, so replica rotation inside
  // a PoP never changes forwarding ports.
  std::vector<net::Prefix> pop_prefixes;
  pop_prefixes.reserve(pop_ases_.size());
  for (const AsId as : pop_ases_) {
    pop_prefixes.push_back(internet_.prefixes_of(as).front());
  }

  const auto pool_draw = [&](const NameState& state) {
    if (state.secondary_prefix.has_value() &&
        rng.chance(config_.secondary_origin_weight)) {
      return SyntheticInternet::random_address_in(*state.secondary_prefix,
                                                  rng);
    }
    return SyntheticInternet::random_address_in(state.origin_prefix, rng);
  };

  const auto fresh_pool = [&](NameState& state) {
    const std::size_t pool_size =
        config_.origin_pool_min +
        rng.index(config_.origin_pool_max - config_.origin_pool_min + 1);
    state.pool.clear();
    for (std::size_t i = 0; i < pool_size; ++i) {
      state.pool.push_back(pool_draw(state));
    }
  };

  const auto random_edge_prefix = [&]() {
    const AsId as =
        internet_.edge_ases()[rng.index(internet_.edge_ases().size())];
    const auto prefixes = internet_.prefixes_of(as);
    return prefixes[rng.index(prefixes.size())];
  };

  const auto rotate_multiplier = [&]() {
    const double u = rng.uniform();
    if (u < config_.hot_name_fraction) return config_.hot_rotate_multiplier;
    if (u < config_.hot_name_fraction + config_.warm_name_fraction)
      return config_.warm_rotate_multiplier;
    return 1.0;
  };

  std::vector<net::Ipv4Address> merged;

  // Generates all names of one domain and appends their traces to `out`.
  const auto simulate_domain = [&](const names::ContentName& apex,
                                   std::size_t subdomain_count, bool popular,
                                   bool cdn, double origin_rotate_prob,
                                   double migrate_prob_per_day,
                                   double multihomed_fraction,
                                   std::vector<ContentTrace>& out) {
    // Domain-level CDN footprint.
    std::vector<std::size_t> pop_slots;  // indices into pop_ases_
    std::vector<bool> visible;           // per slot: seen by any vantage
    if (cdn) {
      const std::size_t count =
          config_.min_pops_per_domain +
          rng.index(config_.max_pops_per_domain -
                    config_.min_pops_per_domain + 1);
      std::vector<std::size_t> all(pop_ases_.size());
      for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t pick = i + rng.index(all.size() - i);
        std::swap(all[i], all[pick]);
      }
      pop_slots.assign(all.begin(),
                       all.begin() + static_cast<std::ptrdiff_t>(count));
      visible = merger.visible_sites(pop_slots);
    }

    // The whole domain's origin-served names live in one hosting subnet.
    const net::Prefix domain_origin_prefix = random_edge_prefix();

    // Per-name state + traces. Index 0 is the apex.
    std::vector<names::ContentName> domain_names{apex};
    for (std::size_t j = 0; j < subdomain_count; ++j) {
      domain_names.push_back(apex.child("s" + std::to_string(j)));
    }
    std::vector<NameState> states(domain_names.size());
    std::vector<ContentTrace> traces;
    traces.reserve(domain_names.size());

    // The merged view of one name; aliased names filter their replicas
    // through the reused `merged` buffer.
    const auto merged_addresses =
        [&](const NameState& state) -> std::span<const net::Ipv4Address> {
      if (!state.aliased) return state.pool;
      merged.clear();
      for (std::size_t s = 0; s < state.replicas.size(); ++s) {
        if (visible[s]) merged.push_back(state.replicas[s]);
      }
      return merged;
    };

    for (std::size_t k = 0; k < domain_names.size(); ++k) {
      NameState& state = states[k];
      state.aliased =
          cdn && (k == 0 || rng.chance(config_.cdn_alias_fraction));
      state.rotate_multiplier = rotate_multiplier();
      if (state.aliased) {
        state.replicas.reserve(pop_slots.size());
        for (const std::size_t p : pop_slots) {
          state.replicas.push_back(
              SyntheticInternet::random_address_in(pop_prefixes[p], rng));
        }
      } else {
        state.origin_prefix = domain_origin_prefix;
        if (rng.chance(multihomed_fraction)) {
          state.secondary_prefix = random_edge_prefix();
        }
        fresh_pool(state);
      }
      traces.emplace_back(domain_names[k], popular, state.aliased,
                          config_.days);
      traces.back().observe(0.0, merged_addresses(state));
    }

    for (std::size_t t = 1; t < hours; ++t) {
      const double hour = static_cast<double>(t);
      // Domain-level PoP footprint change affects all aliased names.
      bool footprint_changed = false;
      if (cdn && rng.chance(config_.cdn_pop_change_prob) &&
          pop_slots.size() < pop_ases_.size()) {
        const std::size_t slot = rng.index(pop_slots.size());
        std::size_t replacement = rng.index(pop_ases_.size());
        while (std::find(pop_slots.begin(), pop_slots.end(), replacement) !=
               pop_slots.end()) {
          replacement = rng.index(pop_ases_.size());
        }
        pop_slots[slot] = replacement;
        visible = merger.visible_sites(pop_slots);
        footprint_changed = true;
        for (NameState& state : states) {
          if (state.aliased) {
            state.replicas[slot] = SyntheticInternet::random_address_in(
                pop_prefixes[replacement], rng);
          }
        }
      }

      for (std::size_t k = 0; k < domain_names.size(); ++k) {
        NameState& state = states[k];
        bool changed = footprint_changed && state.aliased;
        if (state.aliased) {
          const double p = std::min(
              config_.cdn_replica_rotate_prob * state.rotate_multiplier,
              0.95);
          if (rng.chance(p)) {
            const std::size_t slot = rng.index(state.replicas.size());
            state.replicas[slot] = SyntheticInternet::random_address_in(
                pop_prefixes[pop_slots[slot]], rng);
            // A rotation at a replica no vantage sees is not observed.
            changed = changed || visible[slot];
          }
        } else {
          const double p = std::min(
              origin_rotate_prob * state.rotate_multiplier, 0.95);
          if (rng.chance(p)) {
            state.pool[rng.index(state.pool.size())] = pool_draw(state);
            changed = true;
          }
          if (rng.chance(migrate_prob_per_day / 24.0)) {
            state.origin_prefix = random_edge_prefix();
            if (state.secondary_prefix.has_value()) {
              state.secondary_prefix = random_edge_prefix();
            }
            fresh_pool(state);
            changed = true;
          }
        }
        if (changed) traces[k].observe(hour, merged_addresses(state));
      }
    }

    for (ContentTrace& trace : traces) out.push_back(std::move(trace));
  };

  ContentCatalog catalog;

  for (std::size_t i = 0; i < config_.popular_domains; ++i) {
    const names::ContentName apex(
        {std::string("com"), "p" + std::to_string(i)});
    const std::size_t subs = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::llround(subdomain_dist.sample(rng))),
        1, config_.max_subdomains);
    const bool cdn = rng.chance(config_.popular_cdn_fraction);
    simulate_domain(apex, subs, /*popular=*/true, cdn,
                    config_.popular_origin_rotate_prob,
                    config_.popular_migrate_prob_per_day,
                    config_.popular_multihomed_origin_fraction,
                    catalog.popular);
  }

  for (std::size_t i = 0; i < config_.unpopular_domains; ++i) {
    const names::ContentName apex(
        {std::string("net"), "u" + std::to_string(i)});
    // "Unpopular content domain names in our dataset have hardly any
    // subdomains" (§7.3).
    const double u = rng.uniform();
    const std::size_t subs = u < 0.7 ? 0 : (u < 0.9 ? 1 : 2);
    const bool cdn = rng.chance(config_.unpopular_cdn_fraction);
    simulate_domain(apex, subs, /*popular=*/false, cdn,
                    config_.unpopular_origin_rotate_prob,
                    config_.unpopular_migrate_prob_per_day,
                    config_.unpopular_multihomed_origin_fraction,
                    catalog.unpopular);
  }

  return catalog;
}

}  // namespace lina::mobility

#pragma once

#include "lina/obs/registry.hpp"

namespace lina::obs::metric {

/// Cached handles for the well-known instrumentation points threaded
/// through the hot layers. Each accessor registers on first use and then
/// returns the same handle forever, so call sites pay one static-guard
/// check plus the disabled-branch — no registry lookup — per event.
///
/// Naming scheme: `lina.<layer>.<component>.<metric>` (see DESIGN.md
/// §4b). Counters are monotonic event counts; `*_ms` histograms record
/// milliseconds.

#define LINA_OBS_COUNTER(fn, name)                         \
  inline Counter& fn() {                                   \
    static Counter handle = Registry::instance().counter(name); \
    return handle;                                         \
  }

#define LINA_OBS_GAUGE(fn, name)                           \
  inline Gauge& fn() {                                     \
    static Gauge handle = Registry::instance().gauge(name); \
    return handle;                                         \
  }

#define LINA_OBS_HISTOGRAM(fn, name)                       \
  inline Histogram& fn() {                                 \
    static Histogram handle = Registry::instance().histogram(name); \
    return handle;                                         \
  }

// Routing tries (the FIB data structures).
LINA_OBS_COUNTER(ip_trie_lpm_lookups, "lina.net.ip_trie.lpm_lookups")
LINA_OBS_COUNTER(ip_trie_lpm_node_visits, "lina.net.ip_trie.lpm_node_visits")
LINA_OBS_COUNTER(ip_trie_inserts, "lina.net.ip_trie.inserts")
LINA_OBS_COUNTER(ip_trie_displacements, "lina.net.ip_trie.displacements")
LINA_OBS_COUNTER(name_trie_lpm_lookups, "lina.names.name_trie.lpm_lookups")
LINA_OBS_COUNTER(name_trie_lpm_node_visits,
                 "lina.names.name_trie.lpm_node_visits")
LINA_OBS_COUNTER(name_trie_inserts, "lina.names.name_trie.inserts")
LINA_OBS_COUNTER(name_trie_displacements,
                 "lina.names.name_trie.displacements")

// FIB storage footprint (arena capacities and the shared component
// interner), refreshed whenever a table is frozen or a bench samples it.
LINA_OBS_GAUGE(fib_arena_bytes, "lina.fib.arena_bytes")
LINA_OBS_GAUGE(name_interner_entries, "lina.names.interner.entries")
LINA_OBS_GAUGE(name_interner_bytes, "lina.names.interner.bytes")

// Forwarding fabric (per-hop forwarding and failure reroutes).
LINA_OBS_COUNTER(fabric_next_hop_queries, "lina.sim.fabric.next_hop_queries")
LINA_OBS_COUNTER(fabric_detour_hops, "lina.sim.fabric.detour_hops")
LINA_OBS_COUNTER(fabric_detour_route_builds,
                 "lina.sim.fabric.detour_route_builds")
LINA_OBS_COUNTER(fabric_degraded_graph_builds,
                 "lina.sim.fabric.degraded_graph_builds")
LINA_OBS_COUNTER(fabric_impaired_path_checks,
                 "lina.sim.fabric.impaired_path_checks")

// Resolver pool (lookup / failover / update fan-out).
LINA_OBS_COUNTER(resolver_lookups, "lina.sim.resolver.lookups")
LINA_OBS_COUNTER(resolver_failover_lookups,
                 "lina.sim.resolver.failover_lookups")
LINA_OBS_COUNTER(resolver_updates, "lina.sim.resolver.updates")
LINA_OBS_HISTOGRAM(resolver_lookup_delay_ms,
                   "lina.sim.resolver.lookup_delay_ms")

// Discrete-event queue (depth and dwell time).
LINA_OBS_COUNTER(event_queue_scheduled, "lina.sim.event_queue.scheduled")
LINA_OBS_COUNTER(event_queue_executed, "lina.sim.event_queue.executed")
LINA_OBS_GAUGE(event_queue_depth, "lina.sim.event_queue.depth")
LINA_OBS_HISTOGRAM(event_queue_dwell_ms, "lina.sim.event_queue.dwell_ms")

// Sharded parallel discrete-event engine (lina::des): per-run totals of
// events executed across shards, window barriers, cross-shard mailbox
// handoffs, and intra-window re-drain passes (zero-lookahead fixpoint).
LINA_OBS_COUNTER(des_events_executed, "lina.des.events_executed")
LINA_OBS_COUNTER(des_windows, "lina.des.windows")
LINA_OBS_COUNTER(des_handoffs, "lina.des.handoffs")
LINA_OBS_COUNTER(des_redrain_passes, "lina.des.redrain_passes")
LINA_OBS_GAUGE(des_shards, "lina.des.shards")
LINA_OBS_GAUGE(des_lookahead_ms, "lina.des.lookahead_ms")
// Load balance and comms: per-shard event counts (one histogram sample
// per shard per run), the max/mean skew of that distribution, and sealed
// cross-shard bundles.
LINA_OBS_HISTOGRAM(des_shard_events, "lina.des.shard_events")
LINA_OBS_GAUGE(des_shard_imbalance, "lina.des.shard_imbalance")
LINA_OBS_COUNTER(des_bundles_sealed, "lina.des.bundles_sealed")

// Failure plan (fault activations and injected control-message drops).
LINA_OBS_COUNTER(failure_plan_events, "lina.sim.failure.plan_events")
LINA_OBS_COUNTER(failure_control_drops, "lina.sim.failure.control_drops")
LINA_OBS_COUNTER(failure_active_sends, "lina.sim.failure.active_sends")

// Session simulators (mirrors of SessionStats, per process).
LINA_OBS_COUNTER(session_runs, "lina.sim.session.runs")
LINA_OBS_COUNTER(session_packets_sent, "lina.sim.session.packets_sent")
LINA_OBS_COUNTER(session_packets_delivered,
                 "lina.sim.session.packets_delivered")
LINA_OBS_COUNTER(session_packets_lost, "lina.sim.session.packets_lost")
LINA_OBS_COUNTER(session_control_messages,
                 "lina.sim.session.control_messages")
LINA_OBS_COUNTER(session_control_retries,
                 "lina.sim.session.control_retries")

// Mapping caches on the resolution hot paths (lina::cache). Counters are
// process-wide aggregates over every cache instance; per-instance counts
// live in cache::CacheStats.
LINA_OBS_COUNTER(cache_probes, "lina.cache.probes")
LINA_OBS_COUNTER(cache_hits, "lina.cache.hits")
LINA_OBS_COUNTER(cache_misses, "lina.cache.misses")
LINA_OBS_COUNTER(cache_insertions, "lina.cache.insertions")
LINA_OBS_COUNTER(cache_evictions, "lina.cache.evictions")
LINA_OBS_COUNTER(cache_invalidations, "lina.cache.invalidations")
LINA_OBS_COUNTER(cache_refreshes, "lina.cache.refreshes")
LINA_OBS_COUNTER(cache_ttl_expiries, "lina.cache.ttl_expiries")
LINA_OBS_GAUGE(cache_entries, "lina.cache.entries")
LINA_OBS_GAUGE(cache_arena_bytes, "lina.cache.arena_bytes")

// Trace store (sharded binary workload traces and streaming replay).
LINA_OBS_COUNTER(trace_shards_written, "lina.trace.shards_written")
LINA_OBS_COUNTER(trace_bytes_written, "lina.trace.bytes_written")
LINA_OBS_COUNTER(trace_visits_written, "lina.trace.visits_written")
LINA_OBS_COUNTER(trace_events_written, "lina.trace.events_written")
LINA_OBS_COUNTER(trace_shards_read, "lina.trace.shards_read")
LINA_OBS_COUNTER(trace_bytes_read, "lina.trace.bytes_read")
LINA_OBS_COUNTER(trace_visits_read, "lina.trace.visits_read")
LINA_OBS_COUNTER(trace_cursor_events, "lina.trace.cursor_events")
LINA_OBS_GAUGE(trace_merge_heap_depth, "lina.trace.merge_heap_depth")

// Snapshot store (durable FIB snapshots and warm-start recovery).
LINA_OBS_COUNTER(snap_saves, "lina.snap.saves")
LINA_OBS_COUNTER(snap_bytes_written, "lina.snap.bytes_written")
LINA_OBS_COUNTER(snap_loads, "lina.snap.loads")
LINA_OBS_COUNTER(snap_load_failures, "lina.snap.load_failures")
LINA_OBS_COUNTER(snap_fallback_rebuilds, "lina.snap.fallback_rebuilds")
LINA_OBS_GAUGE(snap_snapshot_bytes, "lina.snap.snapshot_bytes")

// Instrumentation self-accounting: occupancy and truncation of the prof
// span rings, set at export time so every profiled BENCH_*.json records
// whether its profile was truncated.
LINA_OBS_GAUGE(prof_spans_recorded, "lina.prof.spans_recorded")
LINA_OBS_GAUGE(prof_spans_dropped, "lina.prof.spans_dropped")
LINA_OBS_GAUGE(prof_threads, "lina.prof.threads")

#undef LINA_OBS_COUNTER
#undef LINA_OBS_GAUGE
#undef LINA_OBS_HISTOGRAM

}  // namespace lina::obs::metric

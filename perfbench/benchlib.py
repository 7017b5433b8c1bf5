"""Statistics, metric definitions and the layer report of the lina benchmark.

run.py drives the C++ runner (perfbench/src) and hands its raw record to
the functions here: medians and quartiles over runs, the tail-percentile
rule, span self time, the per-layer ledger, and the diff of two ledgers.
"""

import math
import statistics
from collections import defaultdict

# Workloads: thread count (None = min(4, nproc)), how many times a run sets
# the inputs up (setup_s is their median), how many unmeasured passes
# follow each set-up (their time is part of it, so work that moves into
# lazily filled caches still shows; repeating them with every set-up keeps
# one slow pass out of setup_s), whether traced runs
# enable the lina::obs registry for its trace and LPM counters (it costs
# contended atomic increments, so only the workload that reports those
# counts pays it), and the speed probe that tracks what slows the workload
# on a shared host (see PROBE_REF_S): scale_day and paper_methodology run
# four threads over 260-330 MiB, so contention for the shared cache and
# memory sets their pace, which the memory probe follows and the hash
# chain does not; session_mix runs one thread in 20 MiB.
WORKLOADS = {
    "scale_day": {
        "threads": None, "setups": 3, "warmup": 1, "obs": True,
        "probe": "memory",
        "why": "10k users x 30 days out of core: trace store, frozen-FIB "
               "lookups, snapshot and the sharded DES at min(4, nproc) "
               "threads",
    },
    "paper_methodology": {
        "threads": None, "setups": 3, "warmup": 0, "obs": False,
        "probe": "memory",
        "why": "the paper's 372-user study (figs 8, 11b, 12, table size): "
               "core, routing, names and FIB writes; trace and DES idle",
    },
    "session_mix": {
        "threads": 1, "setups": 3, "warmup": 1, "obs": False,
        "probe": "alu",
        "why": "24 dense 72 h CBR sessions through both packet models and "
               "the mapping cache at one thread: per-event cost",
    },
}

# name, unit, better, bound (share of the parent's median). The time
# bounds are wide because the host drifts: over ten seeds the quartile
# spread of the median pass reached 20-28% on session_mix at reference
# speed, hence wall_s and cpu_s take the fastest pass (perfbench/README.md).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.10),
]

# The speed probes' CPU time on the reference machine, a 4-vCPU Xeon VM at
# 2.1 GHz: "alu" is a fixed integer hash chain, "memory" a million
# dependent loads over 32 MiB (both in the runner). End-to-end times are
# reported at reference speed, time x PROBE_REF_S / probe time, where the
# probe time is the mean of the probes run just before and after the timed
# set-up or pass; wall times first lose the hypervisor steal the machine
# suffered meanwhile. Span times of a traced pass are scaled by its probe
# too, but keep their steal (it is not known per span).
PROBE_REF_S = {"alu": 0.055, "memory": 0.14}

# Layers of the span ledger, in report order. "check" is the benchmark's
# own output verification; "run" is the root span of one measured run.
LAYERS = ["trace", "routing", "snap", "core", "sim", "cache", "des", "check"]
ROOT = "run"

# ---- statistics ----------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        v = values[0] if values else 0.0
        return (v, v, v)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def iqr_share(values):
    """Distance between the first and third quartile over the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


TAIL_LADDER = (99.9, 99, 95, 90, 75, 66, 50)


def tail_percentile(n, ladder=TAIL_LADDER, beyond=10):
    """The highest percentile on the ladder with at least `beyond` of `n`
    samples above its nearest-rank position; None if there is none."""
    for p in ladder:
        if n - math.ceil(p / 100.0 * n) >= beyond:
            return p
    return None


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Span id -> self time (ns): its duration minus the part of that
    interval its child spans cover (children clipped to the parent,
    overlapping children counted once)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append(s)
    result = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered, reach = 0, start
        for c in sorted(children[s["id"]], key=lambda c: c["start_ns"]):
            lo, hi = max(c["start_ns"], reach), min(c["end_ns"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[s["id"]] = (end - start) - covered
    return result


# ---- one traced run --------------------------------------------------------


class RunView:
    """The spans and counts of one traced run, with the sums metrics use.
    Every span time is multiplied by `scale` (reference speed)."""

    def __init__(self, spans, counts, threads, scale=1.0):
        self.spans = spans
        self.counts = counts
        self.threads = threads
        self.scale = scale
        self.by_id = {s["id"]: s for s in spans}
        self.seconds = defaultdict(float)
        self.cpu = defaultdict(float)
        self.durations_ms = defaultdict(list)
        for s in spans:
            wall = (s["end_ns"] - s["start_ns"]) / 1e9 * scale
            self.seconds[s["name"]] += wall
            self.cpu[s["name"]] += s["cpu_ns"] / 1e9 * scale
            self.durations_ms[s["name"]].append(wall * 1e3)
        self.self_ns = {k: v * scale for k, v in self_times(spans).items()}
        self._ledger = None

    def s(self, *names):
        return sum(self.seconds[n] for n in names)

    def count(self, key):
        return self.counts.get(key, 0.0)

    def per_s(self, key, *names):
        t = self.s(*names)
        return self.count(key) / t if t else 0.0

    def cpu_util(self, *names):
        wall = self.s(*names)
        cpu = sum(self.cpu[n] for n in names)
        return cpu / (wall * self.threads) if wall else 0.0

    def pctl(self, p, *names):
        samples = [d for n in names for d in self.durations_ms[n]]
        return percentile(samples, p)

    def outermost_in_layer(self, s):
        """True if no ancestor of span s belongs to the same layer."""
        layer, parent = layer_of(s["name"]), s["parent"]
        while parent:
            p = self.by_id[parent]
            if layer_of(p["name"]) == layer:
                return False
            parent = p["parent"]
        return True

    def ledger(self):
        """layer -> {self_ms, total_ms, calls, cpu_s} for this run."""
        if self._ledger is None:
            self._ledger = self._build_ledger()
        return self._ledger

    def _build_ledger(self):
        rows = defaultdict(lambda: {"self_ms": 0.0, "total_ms": 0.0,
                                    "calls": 0, "cpu_s": 0.0})
        for s in self.spans:
            layer = layer_of(s["name"])
            if layer == ROOT:
                continue
            row = rows[layer]
            row["self_ms"] += self.self_ns[s["id"]] / 1e6
            row["calls"] += 1
            if self.outermost_in_layer(s):
                row["total_ms"] += (s["end_ns"] - s["start_ns"]) / 1e6 \
                    * self.scale
                row["cpu_s"] += s["cpu_ns"] / 1e9 * self.scale
        return dict(rows)

    def coverage(self):
        root = self.s(ROOT)
        attributed = sum(self.self_ns[s["id"]] for s in self.spans
                         if layer_of(s["name"]) != ROOT) / 1e9
        return attributed / root if root else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


# Repeated calls whose durations are reported as percentiles: metric stem
# -> the span names pooled as its samples.
PERCENTILE_SPANS = {
    "core.evaluate_day_ms": ("core.evaluate_day",),
    "sim.session_ms": ("sim.session", "cache.session"),
    "cache.session_ms": ("cache.session",),
}


# Per-layer metrics: name, unit, better, and how to compute the value --
# ("run", fn(RunView)) per traced run, or ("setup", fn(values)) per set-up;
# either way the reported value is the median.
PER_LAYER = [
    ("mobility.generate_s", "s", "lower", "setup",
     lambda v: v.get("mobility.device_generate_s", 0.0)
     + v.get("mobility.catalog_generate_s", 0.0)),
    ("mobility.users_per_s", "1/s", "higher", "setup",
     lambda v: _ratio(v.get("mobility.users", 0.0),
                      v.get("mobility.device_generate_s", 0.0))),
    ("trace.write_shards_s", "s", "lower", "run",
     lambda r: r.s("trace.write_shards")),
    ("trace.cpu_util", "ratio", "higher", "run",
     lambda r: r.cpu_util("trace.write_shards")),
    ("trace.bytes_per_visit", "B", "lower", "run",
     lambda r: r.count("trace.bytes_per_visit")),
    ("trace.next_batch_s", "s", "lower", "run",
     lambda r: r.s("trace.next_batch_pass")),
    ("trace.visits_per_s", "1/s", "higher", "run",
     lambda r: r.per_s("trace.visits", "trace.next_batch_pass")),
    ("trace.cursor_s", "s", "lower", "run",
     lambda r: r.s("trace.cursor_pass")),
    ("trace.events_per_s", "1/s", "higher", "run",
     lambda r: r.per_s("trace.events", "trace.cursor_pass")),
    ("trace.bytes_read", "B", "lower", "run",
     lambda r: r.count("trace.bytes_read")),
    ("routing.freeze_ms", "ms", "lower", "run",
     lambda r: r.s("routing.freeze") * 1e3),
    ("routing.lookup_ns", "ns", "lower", "run",
     lambda r: _ratio(r.s("routing.lookup_many") * 1e9,
                      r.count("routing.lookups"))),
    ("net.lpm_visits_per_lookup", "count", "lower", "run",
     lambda r: _ratio(r.count("net.lpm_node_visits"),
                      r.count("net.lpm_lookups"))),
    ("routing.build_vantages_s", "s", "lower", "run",
     lambda r: r.s("routing.build_vantages")),
    ("snap.save_ms", "ms", "lower", "run",
     lambda r: r.s("snap.save_ip_fib") * 1e3),
    ("snap.load_ms", "ms", "lower", "run",
     lambda r: r.s("snap.load_ip_fib") * 1e3),
    ("snap.bytes_per_entry", "B", "lower", "run",
     lambda r: r.count("snap.bytes_per_entry")),
    ("core.device_update_s", "s", "lower", "run",
     lambda r: r.s("core.device_update")),
    ("core.router_events_per_s", "1/s", "higher", "run",
     lambda r: r.per_s("core.router_events", "core.device_update")),
    ("core.content_update_s", "s", "lower", "run",
     lambda r: r.s("core.content_update")),
    ("core.displaced_entries_s", "s", "lower", "run",
     lambda r: r.s("core.displaced_entries")),
    ("core.aggregateability_s", "s", "lower", "run",
     lambda r: r.s("core.aggregateability")),
    ("core.cpu_util", "ratio", "higher", "run",
     lambda r: r.cpu_util("core.device_update", "core.evaluate_day",
                          "core.displaced_entries", "core.content_update",
                          "core.aggregateability")),
    ("core.evaluate_day_ms.p50", "ms", "lower", "run",
     lambda r: r.pctl(50, *PERCENTILE_SPANS["core.evaluate_day_ms"])),
    ("core.evaluate_day_ms.p66", "ms", "lower", "run",
     lambda r: r.pctl(66, *PERCENTILE_SPANS["core.evaluate_day_ms"])),
    ("sim.fabric_build_ms", "ms", "lower", "setup",
     lambda v: v.get("sim.fabric_build_ms", 0.0)),
    ("sim.session_ms.p50", "ms", "lower", "run",
     lambda r: r.pctl(50, *PERCENTILE_SPANS["sim.session_ms"])),
    ("sim.session_ms.p90", "ms", "lower", "run",
     lambda r: r.pctl(90, *PERCENTILE_SPANS["sim.session_ms"])),
    ("sim.packets_per_s", "1/s", "higher", "run",
     lambda r: r.per_s("sim.packets_sent", "sim.session", "cache.session")),
    ("sim.control_messages", "count", "lower", "run",
     lambda r: r.count("sim.control_messages")),
    ("cache.hit_ratio", "ratio", "higher", "run",
     lambda r: r.count("cache.hit_ratio")),
    ("cache.invalidations", "count", "lower", "run",
     lambda r: r.count("cache.invalidations")),
    ("cache.session_ms.p50", "ms", "lower", "run",
     lambda r: r.pctl(50, *PERCENTILE_SPANS["cache.session_ms"])),
    ("cache.session_ms.p75", "ms", "lower", "run",
     lambda r: r.pctl(75, *PERCENTILE_SPANS["cache.session_ms"])),
    ("des.model_build_ms", "ms", "lower", "run",
     lambda r: r.s("des.model_build") * 1e3),
    ("des.run_serial_s", "s", "lower", "run",
     lambda r: r.s("des.run_serial")),
    ("des.engine_run_s", "s", "lower", "run",
     lambda r: r.s("des.engine_run", "des.replay_packets_streamed")),
    ("des.events_per_s", "1/s", "higher", "run",
     lambda r: r.per_s("des.events", "des.engine_run",
                       "des.replay_packets_streamed")),
    ("des.windows", "count", "lower", "run",
     lambda r: r.count("des.windows")),
    ("des.events_per_window", "count", "higher", "run",
     lambda r: _ratio(r.count("des.events"), r.count("des.windows"))),
    ("des.handoffs", "count", "lower", "run",
     lambda r: r.count("des.handoffs")),
    ("des.bundles", "count", "lower", "run",
     lambda r: r.count("des.bundles")),
    ("des.shard_imbalance", "ratio", "lower", "run",
     lambda r: r.count("des.shard_imbalance")),
    ("des.cpu_util", "ratio", "higher", "run",
     lambda r: r.cpu_util("des.engine_run", "des.replay_packets_streamed")),
    ("des.rss_growth_mib", "MiB", "lower", "run",
     lambda r: r.count("des.rss_growth_mib")),
    ("layers.coverage", "ratio", "higher", "run", lambda r: r.coverage()),
] + [
    (f"{layer}.self_ms", "ms", "lower", "run",
     lambda r, layer=layer: r.ledger()[layer]["self_ms"]
     if layer in r.ledger() else 0.0)
    for layer in LAYERS
]
# Computed from the traced and untraced runs together (see layer_report).
OVERHEAD = ("layers.overhead", "ratio", "lower")


def per_layer_catalog():
    """Every per-layer metric as (name, unit, better), in output order."""
    return [(n, u, b) for n, u, b, _, _ in PER_LAYER] + [OVERHEAD]


# ---- turning a runner record into metrics ----------------------------------


def at_reference_speed(record, seconds, probe_s):
    """seconds measured beside a probe of probe_s, at reference speed for
    the record's probe."""
    return seconds * PROBE_REF_S[record["probe"]] / probe_s


def reference_wall(record, item, key="wall_s"):
    """Wall seconds of a set-up or pass, without the hypervisor steal the
    machine suffered meanwhile, at reference speed."""
    return at_reference_speed(record, item[key] - item["steal_s"],
                              item["probe_s"])


def end_to_end(record):
    """The end-to-end metrics of one record, from its untraced runs.
    wall_s and cpu_s are the fastest pass: contention from other guests
    only ever adds time, and a median over passes follows a busy spell
    (perfbench/README.md, "Host drift")."""
    runs = [r for r in record["runs"] if not r["traced"]]
    return {
        "setup_s": median([reference_wall(record, s, "seconds")
                           + sum(reference_wall(record, w)
                                 for w in s["warmups"])
                           for s in record["setups"]]),
        "wall_s": min(reference_wall(record, r) for r in runs),
        "cpu_s": min(at_reference_speed(record, r["cpu_s"], r["probe_s"])
                     for r in runs),
        "peak_rss_mib": record["peak_rss_mib"],
    }


def layer_report(record, spans):
    """The per-layer ledger and per-layer metrics of one traced record."""
    threads = record["threads"]
    by_run = defaultdict(list)
    for s in spans:
        by_run[s["run"]].append(s)
    traced = [r for r in record["runs"] if r["traced"]]
    untraced = [r for r in record["runs"] if not r["traced"]]
    views = [RunView(by_run[r["id"]], r["counts"], threads,
                     at_reference_speed(record, 1.0, r["probe_s"]))
             for r in traced]
    setups = [s["values"] for s in record["setups"]]

    metrics = {}
    for name, unit, _, kind, fn in PER_LAYER:
        inputs = setups if kind == "setup" else views
        metrics[name] = (median([fn(x) for x in inputs]), unit)
    traced_wall = median([reference_wall(record, r) for r in traced])
    untraced_wall = median([reference_wall(record, r)
                           for r in untraced])
    overhead = traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
    metrics[OVERHEAD[0]] = (overhead, OVERHEAD[1])

    ledgers = [v.ledger() for v in views]
    layers = {}
    for layer in LAYERS:
        rows = [lg[layer] for lg in ledgers if layer in lg]
        if not rows:
            continue
        total_ms = median([row["total_ms"] for row in rows])
        cpu_s = median([row["cpu_s"] for row in rows])
        layers[layer] = {
            "self_ms": median([row["self_ms"] for row in rows]),
            "total_ms": total_ms,
            "calls": median([row["calls"] for row in rows]),
            "cpu_util": cpu_s / (total_ms / 1e3 * threads) if total_ms else 0,
            "counts": {k: v for k, v in traced[0]["counts"].items()
                       if layer_of(k) == layer},
        }
    samples = {stem: len([d for n in names for d in views[0].durations_ms[n]])
               for stem, names in PERCENTILE_SPANS.items()} if views else {}
    return {
        "layers": layers,
        "samples": {k: n for k, n in samples.items() if n},
        "coverage": median([v.coverage() for v in views]),
        "overhead": overhead,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "traced_runs": len(traced),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def diff_reports(a, b):
    """Lines showing per-layer deltas from traced report a to report b."""
    lines = [f"{'layer':<10}{'self ms A':>12}{'self ms B':>12}{'delta':>11}"
             f"{'total ms A':>12}{'total ms B':>12}{'calls A':>9}"
             f"{'calls B':>9}"]
    la, lb = a["layers"], b["layers"]
    for layer in [l for l in LAYERS if l in la or l in lb]:
        ra = la.get(layer, {"self_ms": 0.0, "total_ms": 0.0, "calls": 0})
        rb = lb.get(layer, {"self_ms": 0.0, "total_ms": 0.0, "calls": 0})
        delta = rb["self_ms"] - ra["self_ms"]
        share = f"{delta / ra['self_ms']:+.1%}" if ra["self_ms"] else "n/a"
        lines.append(f"{layer:<10}{ra['self_ms']:>12.2f}{rb['self_ms']:>12.2f}"
                     f"{share:>11}{ra['total_ms']:>12.2f}"
                     f"{rb['total_ms']:>12.2f}{ra['calls']:>9g}"
                     f"{rb['calls']:>9g}")
    lines.append(f"coverage {a['coverage']:.1%} -> {b['coverage']:.1%}; "
                 f"untraced wall {a['untraced_wall_s']:.4f} s -> "
                 f"{b['untraced_wall_s']:.4f} s")
    lines.append("")
    lines.append(f"{'metric':<28}{'A':>16}{'B':>16}{'change':>10}")
    ma, mb = a["metrics"], b["metrics"]
    for name in [n for n in ma if n in mb]:
        va, vb = ma[name]["value"], mb[name]["value"]
        if va == vb == 0:
            continue
        change = f"{(vb - va) / va:+.1%}" if va else "n/a"
        lines.append(f"{name:<28}{va:>16.6g}{vb:>16.6g}{change:>10}")
    return lines

#!/usr/bin/env python3
"""Compare BENCH_*.json run records.

Usage: compare_runs.py BASELINE.json CANDIDATE.json
       compare_runs.py --summary-md RECORD.json [RECORD.json ...]

Two-file mode: exit status 0 when the candidate's headline `results`
block matches the baseline exactly (the lina::exec determinism contract:
the same bench at any --threads value must produce byte-identical
headline numbers); 1 on any drift, with a per-key report. Per-phase wall
times are expected to differ — they are reported as a speedup table,
never compared. Result keys that are themselves timings or
machine-dependent rates (suffixes `_ms`, `_per_sec`, `_mib` — e.g.
snapshot_load_ms, peak_rss_mib) are likewise reported but never gated.
The `metrics.counters` entries that differ between the two records are
listed too, for information only: a counter that drifts while the
headline results hold (a stale baseline, a changed code path) shows up
without failing the gate.

--summary-md mode: emits a markdown perf-trend table over any number of
run records (committed baselines plus fresh runs) — one overview table
and one per-bench result table with timing keys marked (*) as ungated.
This is the bench trajectory artifact CI appends to the job summary.

Stdlib only, so the check runs anywhere the repo builds.
"""

import json
import sys

# Headline keys with these suffixes measure wall time, throughput, or
# memory — legitimate run-to-run variation, never byte-identical. They
# are shown for information and excluded from the drift gate.
TIMING_SUFFIXES = ("_ms", "_per_sec", "_mib")


def is_timing_key(key):
    return key.endswith(TIMING_SUFFIXES)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
    except OSError as error:
        sys.exit(f"{path}: cannot read run record: {error.strerror or error}")
    except json.JSONDecodeError as error:
        sys.exit(f"{path}: not valid JSON: {error}")
    if not isinstance(record, dict):
        sys.exit(f"{path}: not a bench run record (top level is not an object)")
    for key in ("name", "results", "phases"):
        if key not in record:
            sys.exit(f"{path}: not a bench run record (missing '{key}')")
    return record


def compare_results(base, cand):
    drift, timing = [], []
    for key in sorted(set(base) | set(cand)):
        if is_timing_key(key):
            timing.append(
                f"  . {key}: {base.get(key, '-')!r} vs {cand.get(key, '-')!r}"
            )
        elif key not in base:
            drift.append(f"  + {key} = {cand[key]!r} (absent in baseline)")
        elif key not in cand:
            drift.append(f"  - {key} = {base[key]!r} (absent in candidate)")
        elif base[key] != cand[key]:
            drift.append(f"  ~ {key}: {base[key]!r} -> {cand[key]!r}")
    return drift, timing


def counter_drift(base, cand):
    """One line per metrics.counters entry that differs between records."""
    base_counters = base.get("metrics", {}).get("counters", {})
    cand_counters = cand.get("metrics", {}).get("counters", {})
    return [
        f"  ~ {key}: {base_counters.get(key, '-')!r} -> "
        f"{cand_counters.get(key, '-')!r}"
        for key in sorted(set(base_counters) | set(cand_counters))
        if base_counters.get(key) != cand_counters.get(key)
    ]


def phase_table(base, cand):
    base_ms = {p["phase"]: p["wall_ms"] for p in base}
    cand_ms = {p["phase"]: p["wall_ms"] for p in cand}
    rows = []
    for phase in base_ms:
        if phase not in cand_ms:
            continue
        b, c = base_ms[phase], cand_ms[phase]
        speedup = b / c if c > 0 else float("inf")
        rows.append((phase, b, c, speedup))
    return rows


def format_value(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def summary_md(paths):
    """Markdown perf-trend tables over any number of run records."""
    if not paths:
        sys.exit("--summary-md: need at least one run record")
    records = [(path, load(path)) for path in paths]

    lines = ["## Bench perf trend", ""]
    lines += [
        "| bench | record | threads | total wall ms | results |",
        "|---|---|---:|---:|---:|",
    ]
    for path, record in records:
        total_ms = sum(p.get("wall_ms", 0.0) for p in record["phases"])
        threads = record.get("config", {}).get("threads", "?")
        lines.append(
            f"| {record['name']} | `{path}` | {threads} "
            f"| {total_ms:.1f} | {len(record['results'])} |"
        )
    lines.append("")

    by_bench = {}
    for path, record in records:
        by_bench.setdefault(record["name"], []).append((path, record))
    for bench in sorted(by_bench):
        runs = by_bench[bench]
        keys = sorted({k for _, r in runs for k in r["results"]})
        if not keys:
            continue
        lines.append(f"### {bench}")
        lines.append("")
        header = "| result | " + " | ".join(
            f"`{path}`" for path, _ in runs
        ) + " |"
        lines.append(header)
        lines.append("|---|" + "---:|" * len(runs))
        for key in keys:
            marker = " (*)" if is_timing_key(key) else ""
            cells = " | ".join(
                format_value(r["results"].get(key, "—")) for _, r in runs
            )
            lines.append(f"| {key}{marker} | {cells} |")
        lines.append("")
    lines.append(
        "(*) timing/rate key — informational, excluded from the drift gate"
    )
    print("\n".join(lines))
    return 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--summary-md":
        return summary_md(argv[2:])
    if len(argv) != 3:
        sys.exit(__doc__.strip())
    base = load(argv[1])
    cand = load(argv[2])
    if base["name"] != cand["name"]:
        sys.exit(
            f"refusing to compare different benches: "
            f"{base['name']!r} vs {cand['name']!r}"
        )
    base_schema = base.get("schema_version")
    cand_schema = cand.get("schema_version")
    if base_schema != cand_schema:
        # A schema bump means the records' shapes differ by design; a raw
        # key-by-key diff would report it as spurious headline drift.
        sys.exit(
            f"schema_version mismatch: baseline {argv[1]} has "
            f"{base_schema!r}, candidate {argv[2]} has {cand_schema!r} "
            f"— regenerate the baseline with the current binary"
        )

    threads = lambda r: r.get("config", {}).get("threads", "?")
    print(
        f"{base['name']}: baseline threads={threads(base)} vs "
        f"candidate threads={threads(cand)}"
    )
    rows = phase_table(base["phases"], cand["phases"])
    if rows:
        print(f"  {'phase':<16} {'base ms':>10} {'cand ms':>10} {'speedup':>8}")
        for phase, b, c, s in rows:
            print(f"  {phase:<16} {b:>10.1f} {c:>10.1f} {s:>7.2f}x")

    drift, timing = compare_results(base["results"], cand["results"])
    if timing:
        print("timing/rate keys (informational, never gated):")
        print("\n".join(timing))
    counters = counter_drift(base, cand)
    if counters:
        print("metric counters that differ (informational, never gated):")
        print("\n".join(counters))
    if drift:
        print("HEADLINE DRIFT — results blocks differ:")
        print("\n".join(drift))
        return 1
    gated = sum(1 for k in base["results"] if not is_timing_key(k))
    print(f"headline results identical ({gated} gated keys)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

#!/usr/bin/env python3
"""The lina benchmark: builds the runner and runs the named workloads.

Run from the root of a lina checkout:

  python3 perfbench/run.py                          # all three workloads
  python3 perfbench/run.py --workload scale_day     # one workload
  python3 perfbench/run.py --workload session_mix --trace 1   # layer ledger
  python3 perfbench/run.py --diff A.json B.json     # compare two ledgers

Prints every metric by name with its unit, then, as the last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics and
writes the layer report (and its spans) under .bench_build/perfbench-reports.
See perfbench/README.md for the metric definitions.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TMP = ROOT / ".bench_build" / "perfbench-tmp"
REPORTS = ROOT / ".bench_build" / "perfbench-reports"
BINARY = BUILD / "lina_perfbench"
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configures (once) and builds the runner; cmake output goes to
    stderr so stdout stays the benchmark's report."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no lina sources at", ROOT / "src")
        return False
    jobs = str(min(4, nproc()))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            log("perfbench: build step failed:", " ".join(step))
            return False
    return True


def source_digest():
    """sha256 over src/ (paths and bytes): identifies the measured code
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def run_binary(workload, args, threads):
    """Runs lina_perfbench once in a fresh temp directory (deleted
    afterwards, also on failure); returns (exit code, record, spans)."""
    spec = benchlib.WORKLOADS[workload]
    TMP.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP))
    try:
        out, spans_path = tmp / "record.json", tmp / "spans.jsonl"
        cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
               "--threads", str(threads), "--setups", str(spec["setups"]),
               "--warmup", str(spec["warmup"]), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--obs", str(int(spec["obs"])),
               "--probe", spec["probe"],
               "--scratch", str(tmp / "scratch"),
               "--out", str(out), "--spans", str(spans_path)]
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
        record = json.loads(out.read_text()) if out.is_file() else None
        spans = []
        if spans_path.is_file():
            spans = [json.loads(line) for line in spans_path.read_text()
                     .splitlines() if line]
        if args.trace and spans:
            REPORTS.mkdir(parents=True, exist_ok=True)
            shutil.copy(spans_path,
                        REPORTS / f"{workload}-seed{args.seed}-spans.jsonl")
        return code, record, spans
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def show(workload, name, value, unit, note=""):
    print(f"{workload:<18} {name:<28} {value:>16.6f} {unit:<6} {note}")


def context_lines(workload, record, args):
    runs = record["runs"]
    work = {k[5:]: v for k, v in runs[0]["counts"].items()
            if k.startswith("work.")} if runs else {}
    return [
        f"{workload}: seed {record['seed']}, threads {record['threads']}, "
        f"nproc {record['nproc']}, hardware_threads "
        f"{record['hardware_threads']}, {record['compiler']}, "
        f"{record['build_type']}, commit {args.commit}, src {args.src}",
        f"{workload}: work per run "
        + ", ".join(f"{k} {v:g}" for k, v in sorted(work.items()))
        + f"; {len(runs)} measured runs, {len(record['setups'])} set-ups "
        f"with {len(record['setups'][0]['warmups'])} warm-up passes each",
    ]


def measure(workload, args):
    """Runs one workload; returns (attempted, failed, metrics) or None."""
    spec = benchlib.WORKLOADS[workload]
    threads = args.threads or spec["threads"] or min(4, nproc())
    if threads > nproc():
        log(f"perfbench: refusing {threads} threads on {nproc()} CPUs")
        return None
    try:
        code, record, spans = run_binary(workload, args, threads)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return None
    if record is None or code not in (0, 1):
        log(f"perfbench: {workload} runner exited with {code}")
        return None
    for line in context_lines(workload, record, args):
        print(line)
    checks = record["checks"]
    for failure in checks["failures"]:
        print(f"{workload}: CHECK FAILED {failure}")
    attempted, failed = checks["attempted"], checks["failed"]
    metrics = {}
    if args.trace:
        report = benchlib.layer_report(record, spans)
        report.update(workload=workload, seed=args.seed,
                      threads=record["threads"], commit=args.commit,
                      src=args.src)
        REPORTS.mkdir(parents=True, exist_ok=True)
        path = REPORTS / f"{workload}-seed{args.seed}-trace.json"
        path.write_text(json.dumps(report, indent=1) + "\n")
        print(f"{workload}: traced {report['traced_runs']} runs; coverage "
              f"{report['coverage']:.2%} of wall_s; tracing overhead "
              f"{report['overhead']:+.2%}; report {path.relative_to(ROOT)}")
        print(f"{'layer':<10}{'self ms':>11}{'total ms':>11}{'calls':>8}"
              f"{'cpu_util':>10}  counts")
        if report["samples"]:
            print(f"{workload}: percentile samples per traced run: "
                  + ", ".join(f"{k} {n} (tail p{benchlib.tail_percentile(n)})"
                              for k, n in report["samples"].items()))
        for layer, row in report["layers"].items():
            counts = ", ".join(f"{k} {v:g}" for k, v in row["counts"].items())
            print(f"{layer:<10}{row['self_ms']:>11.2f}{row['total_ms']:>11.2f}"
                  f"{row['calls']:>8g}{row['cpu_util']:>10.2f}  {counts}")
        for name, unit, _ in benchlib.per_layer_catalog():
            m = report["metrics"][name]
            metrics[name] = m
            show(workload, name, m["value"], unit)
    else:
        e2e = benchlib.end_to_end(record)
        runs = record["runs"]
        raw_wall = benchlib.median([r["wall_s"] for r in runs])
        raw_cpu = benchlib.median([r["cpu_s"] for r in runs])
        probe = benchlib.median([r["probe_s"] for r in runs])
        steal = benchlib.median([r["steal_s"] for r in runs])
        print(f"{workload}: {record['probe']} speed probe "
              f"{probe * 1e3:.2f} ms (reference "
              f"{benchlib.PROBE_REF_S[record['probe']] * 1e3:.2f} ms), "
              f"hypervisor steal {steal:.3f} s per pass; times below are at "
              f"reference speed, wall times without steal")
        notes = {
            "setup_s": f"median of {len(record['setups'])} set-ups, each "
                       f"with {len(record['setups'][0]['warmups'])} "
                       f"warm-up pass",
            "wall_s": f"fastest of {len(runs)} runs; raw median "
                      f"{raw_wall:.4f} s",
            "cpu_s": f"fastest of {len(runs)} runs; raw median "
                     f"{raw_cpu:.4f} s",
            "peak_rss_mib": "ru_maxrss at exit",
        }
        for name, unit, _, _ in benchlib.END_TO_END:
            metrics[name] = {"value": e2e[name], "unit": unit}
            show(workload, name, e2e[name], unit, notes[name])
        ratio = failed / attempted if attempted else 0.0
        show(workload, "failed_ratio", ratio, "ratio",
             f"{failed} of {attempted} output checks failed")
    return attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *benchlib.WORKLOADS])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time per workload run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="override the workload's thread count")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="print per-layer deltas between two reports")
    args = parser.parse_args()
    # SIGTERM unwinds like an exception, so the running binary is killed
    # and waited for, and its temp directory is deleted.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.diff:
        a, b = (json.loads(Path(p).read_text()) for p in args.diff)
        print("\n".join(benchlib.diff_reports(a, b)))
        return 0
    if not build():
        return 2
    args.commit, args.src = git_commit(), source_digest()
    print("trace I/O: shards and snapshots go to a fresh temporary directory "
          "under .bench_build/ that is deleted at exit; they stay in the "
          "page cache, so trace timings measure CPU and memory, not a disk "
          "(the snapshot store's fsync calls still reach the file system).")
    names = list(benchlib.WORKLOADS) if args.workload == "all" \
        else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        result = measure(name, args)
        if result is None:
            return 3
        a, f, m = result
        attempted += a
        failed += f
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

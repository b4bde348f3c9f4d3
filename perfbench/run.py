"""Benchmark entry point for quasicross.

    python3 perfbench/run.py --workload table|search|store|all --seed N --seconds S --trace 0|1

Runs passes of one workload, each in a fresh worker process (one thread,
one caller, closed loop: the next pass starts when the previous one ends),
until S seconds have passed and at least MIN_PASSES passes have run.  With
--trace 0 it reports the end-to-end metrics listed in BENCHMARK.json as
medians over the passes; with --trace 1 it alternates untraced and traced
passes and reports the per-layer metrics.  Times are speed-normalized (see
speed.py); the readable lines also give the plain ones.  Human-readable lines go first; the last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
`--workload all` runs every workload in turn and prints only the readable
lines.  The package is imported from src/ next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("table", "search", "store")
# A pass takes seconds; one that runs this long is broken, and the limit
# keeps a run well inside three minutes.
WORKER_TIMEOUT_S = 60
# Passes per run never go below these, however short --seconds is.
MIN_PASSES = 3
MIN_SETUPS = 15

sys.path.insert(0, str(HERE))
from checks import check_drift  # noqa: E402
from speed import PROBE_REF_S  # noqa: E402


def spawn(workload: str, seed: int, pass_id: int, trace: int) -> dict:
    """Run one worker to completion and return its report, with its set-up
    time measured from just before the process was started, plain and
    normalized by the speed probe the worker ran right after set-up."""
    cmd = [sys.executable, "-I", str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass-id", str(pass_id), "--trace", str(trace)]
    t_spawn = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {workload} pass {pass_id} exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["setup_done"] - t_spawn
    report["norm_setup_s"] = report["setup_s"] * PROBE_REF_S / report["setup_probe_s"]
    return report


def tail(values):
    """Highest percentile with at least ten samples beyond it: (label, value)."""
    vals = sorted(values)
    if len(vals) < 11:
        return None
    k = len(vals) - 11
    return f"p{100.0 * (k + 1) / len(vals):.1f}", vals[k]


def machine() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    if not commit:
        h = hashlib.sha256()
        for f in sorted((ROOT / "src" / "quasicross").rglob("*.py")):
            h.update(f.read_bytes())
        commit = f"not a git checkout; src sha256 {h.hexdigest()[:12]}"
    return f"nproc={len(os.sched_getaffinity(0))} cpu={cpu!r} python={platform.python_version()} commit={commit}"


def run_passes(workload: str, seed: int, seconds: int, trace: int):
    """Closed loop of worker passes until the time is up.  With trace, passes
    alternate untraced / traced.  Extra set-up-only workers top the set-up
    samples up to MIN_SETUPS."""
    passes = []
    deadline = time.monotonic() + seconds
    pass_id = 0
    while True:
        traced = trace and pass_id % 2 == 1
        passes.append((traced, spawn(workload, seed, pass_id, int(traced))))
        pass_id += 1
        if time.monotonic() >= deadline and pass_id >= MIN_PASSES * (2 if trace else 1):
            break
    setups = [p for _t, p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn("setup", seed, -1, 0))
    return passes, setups


def summarize(workload: str, seed: int, seconds: int, trace: int, spec: dict):
    passes, setups = run_passes(workload, seed, seconds, trace)
    plain = [p for t, p in passes if not t]
    traced = [p for t, p in passes if t]
    attempted = sum(p["attempted"] for _t, p in passes)
    failed = sum(p["failed"] for _t, p in passes)
    failures = [f for _t, p in passes for f in p["failures"]]

    # Exact counts must repeat between passes of the same code; counts that
    # only a traced pass takes are compared among the traced passes.
    names = sorted({n for _t, p in passes for n in p["counts"]})
    for name in names:
        values = [p["counts"][name] for _t, p in passes if name in p["counts"]]
        for v in values[1:]:
            attempted += 1
            problems = check_drift(name, [values[0], v])
            if problems:
                failed += 1
                failures.extend(problems)

    wall = statistics.median(p["norm_wall_s"] for p in plain)
    latencies = [x for p in plain for x in p["latencies_ms"]]
    lines = [
        f"workload={workload} seed={seed} passes={len(plain)} traced_passes={len(traced)} "
        f"setup_samples={len(setups)}",
        f"machine: {machine()}",
        f"error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} attempted)",
    ]
    lines.append(f"plain (not normalized) medians: setup {statistics.median(p['setup_s'] for p in setups):.6g} s, "
                 f"wall {statistics.median(p['wall_s'] for p in plain):.6g} s; speed probe median "
                 f"{statistics.median(p['setup_probe_s'] for p in setups) * 1000:.4g} ms "
                 f"(reference {PROBE_REF_S * 1000:.4g} ms)")
    end_to_end = {
        "setup_s": statistics.median(p["norm_setup_s"] for p in setups),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
    }
    counts = plain[0]["counts"]
    if workload == "search":
        lines.append(f"search_nodes = {counts['search.nodes']} count (exact, every pass)")
    if workload == "store":
        lines.append(f"store stream: seed={seed} appends={counts['store.appends']} "
                     f"distinct={counts['store.distinct']}")
    extra = {}
    if latencies:
        extra["store.append_ms.p50"] = statistics.median(latencies)
        lines.append(f"append_ms.p50 = {extra['store.append_ms.p50']:.6g} ms (n={len(latencies)})")
        t = tail(latencies)
        if t:
            extra["store.append_ms.tail"] = t[1]
            lines.append(f"append_ms.tail = {t[1]:.6g} ms at {t[0]} (n={len(latencies)}, 10 beyond)")
    for m in spec["end_to_end"]:
        lines.append(f"{m['name']} = {end_to_end[m['name']]:.6g} {m['unit']} (median)")

    if trace:
        layers = {}
        for name in {n for p in traced for n in p["layers"]}:
            layers[name] = statistics.median(p["layers"].get(name, 0.0) for p in traced)
        for name in names:
            layers[name] = plain[0]["counts"].get(name, traced[0]["counts"].get(name))
        layers["trace.overhead_s"] = statistics.median(p["norm_wall_s"] for p in traced) - wall
        layers.update(extra)
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name in sorted(layers):
            lines.append(f"  {name} = {layers[name]:.6g}")
    else:
        metrics = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return lines, failures, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                             "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quasicross" / "__init__.py").is_file():
        print(f"error: no quasicross package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)

    problems = spawn("self-test", args.seed, -1, 0)["problems"]
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1

    result = None
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        spans = OUT / f"spans-{workload}.jsonl"
        spans.unlink(missing_ok=True)
        lines, failures, result = summarize(workload, args.seed, args.seconds, args.trace, spec)
        print("\n".join(lines))
        if args.trace:
            print(f"spans written to {spans.relative_to(ROOT)}")
        for f in failures[:20]:
            print(f"FAILED: {f}", file=sys.stderr)
    if args.workload != "all":
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

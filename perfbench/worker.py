"""One pass of one workload, in a fresh process so that every cache starts
cold, as it does for a command-line user.

The worker sets up (imports, packaged registries, packaged certificate
store), runs the timed phase, checks the outputs, and prints one JSON object
as the last line of its stdout.  With --trace 1 it records spans around its
calls into the package, replays the criteria and the numtheory primitives on
the same inputs to time them one by one, and appends the spans to a file.

run.py starts it; by itself:
    python3 perfbench/worker.py --workload table --seed 1 --pass-id 0 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import quasicross  # noqa: E402
from quasicross import classify, cli, criteria, numtheory, search, splitting  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import Clock, probe  # noqa: E402


def setup() -> None:
    if Path(quasicross.__file__).resolve().parent != ROOT / "src" / "quasicross":
        sys.exit(f"imported quasicross from {quasicross.__file__}, not from {ROOT / 'src'}")
    for k_plus, k_minus in wl.TABLE_SHAPES:
        classify.default_registry(k_plus, k_minus)
    classify.load_certificates(classify.default_certificates_path())


class Pass:
    """What one pass reports: its timed phase (plain and speed-normalized),
    operation tallies, exact counts that must repeat between passes, and,
    when traced, per-layer numbers."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.wall_s = 0.0
        self.norm_wall_s = 0.0
        self.rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counts: dict[str, int] = {}
        self.latencies_ms: list[float] = []
        self.layers: dict[str, float] = {}

    def end_timed_phase(self) -> None:
        self.wall_s, self.norm_wall_s = self.clock.finish()
        self.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(problems)

    def report(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "clock"}


def span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def patched(tracer, targets):
    return tracer.patched(targets) if tracer is not None else contextlib.nullcontext()


def failed_call(what, outcome):
    if isinstance(outcome, Exception):
        return [f"{what} raised {type(outcome).__name__}: {outcome}"]
    return None


# -- table --------------------------------------------------------------


def table_pass(ref, clock, tracer) -> Pass:
    res = Pass(clock)
    outputs = []
    targets = [(cli, "classify_range", "classify.classify_range"), (cli, "report_json", "classify.render")]
    with patched(tracer, targets):
        for k_plus, k_minus in wl.TABLE_SHAPES:
            argv = ["classify", "--kplus", str(k_plus), "--kminus", str(k_minus),
                    "--max-n", str(wl.TABLE_MAX_N), "--format", "json"]
            buf = io.StringIO()
            try:
                with clock.timed(), contextlib.redirect_stdout(buf), span(tracer, "cli.run"):
                    rc = cli.run(argv)
            except Exception as exc:  # counted as a failed operation
                rc = exc
            outputs.append(((k_plus, k_minus), rc, buf.getvalue()))
    res.end_timed_phase()
    for shape, rc, text in outputs:
        ref_digest = ref["table"][f"{shape[0]}-{shape[1]}"]
        res.op(failed_call("classify", rc) or checks.check_table(shape, rc, text, ref_digest))
    if tracer is not None and res.failed == 0:
        replay_criteria(outputs, tracer, res)
        st = tracer.self_times()
        range_s = st.get("classify.classify_range", 0.0)
        res.layers.update({
            "cli.overhead_s": st.get("cli.run", 0.0),
            "classify.classify_range.s": range_s,
            "classify.render.s": st.get("classify.render", 0.0),
        })
        for name in ("is_prime", "factorize", "characters"):
            res.layers[f"numtheory.{name}.s"] = st.get(f"numtheory.{name}", 0.0)
        for cid in criteria.CRITERION_ORDER:
            res.layers[f"criteria.{cid}.s"] = st.get(f"criteria.{cid}", 0.0)
        crit_s = sum(res.layers[f"criteria.{cid}.s"] for cid in criteria.CRITERION_ORDER)
        res.layers["classify.criteria_share"] = crit_s / range_s if range_s else 0.0
    return res


def replay_criteria(outputs, tracer, res: Pass) -> None:
    """Time each criterion and numtheory primitive by calling it on every n
    of the table, with the divisor-recursion oracle taken from the verdicts
    the pass printed.  The primality caches are cleared first so that their
    cold misses land where they land in the pipeline."""
    shape_runs = []
    for (k_plus, k_minus), _rc, text in outputs:
        oracle = {v["n"]: criteria.VerdictStatus(v["status"]) for v in json.loads(text)}
        shapes = [splitting.QuasiCrossShape(k_plus, k_minus, n) for n in range(1, wl.TABLE_MAX_N + 1)]
        shape_runs.append((shapes, oracle))

    fired = {cid: 0 for cid in criteria.CRITERION_ORDER}
    steps = 0
    numtheory.is_prime.cache_clear()
    numtheory.sqrt_minus_one.cache_clear()
    for shapes, oracle in shape_runs:
        in_order = list(criteria.SHAPE_CRITERIA) + [
            ("divisors", lambda s, o=oracle: criteria.check_divisors(s, o))
        ]
        for cid, fn in in_order:
            with tracer.span(f"criteria.{cid}"):
                outs = [fn(s) for s in shapes]
            fired[cid] += sum(1 for o in outs if o.fired)
            if cid == "vandermonde":
                for o in outs:
                    if o.witness:
                        steps += o.witness.get("first_zero_power", o.witness.get("powers_checked", 0))

    numtheory.is_prime.cache_clear()
    numtheory.sqrt_minus_one.cache_clear()
    for shapes, _oracle in shape_runs:
        qs = [s.group_order for s in shapes]
        with tracer.span("numtheory.is_prime"):
            prime = [numtheory.is_prime(q) for q in qs]
        with tracer.span("numtheory.factorize"):
            for q in qs:
                numtheory.factorize(q)
        odd_primes = [(s.group_order, splitting.multiplier_set(s).residues)
                      for s, p in zip(shapes, prime) if p and s.group_order > 2]
        with tracer.span("numtheory.characters"):
            for q, residues in odd_primes:
                for r in residues:
                    numtheory.legendre(r, q)
                if q % 4 == 1:
                    for r in residues:
                        numtheory.quartic_class(r, q)

    for cid, count in fired.items():
        res.counts[f"criteria.{cid}.fired"] = count
    res.counts["criteria.vandermonde.steps"] = steps


# -- search -------------------------------------------------------------


def search_pass(ref, clock, tracer) -> Pass:
    res = Pass(clock)
    calls = [("find", c) for c in wl.FIND_CALLS] + [("count", c) for c in wl.COUNT_CALLS]
    results = []
    for kind, call in calls:
        kp, km, n = call[:3]
        q = wl.group_order(kp, km, n)
        try:
            with clock.timed(), span(tracer, f"search.{'find_splitting' if kind == 'find' else 'count_splittings'}"):
                multipliers = splitting.interval_multipliers(kp, km, q)
                if kind == "find":
                    out = search.find_splitting(q, multipliers, node_budget=call[3])
                else:
                    out = search.count_splittings(q, multipliers)
        except Exception as exc:  # counted as a failed operation
            out = exc
        results.append((kind, call, out))
    res.end_timed_phase()

    ref_find = {(c["k_plus"], c["k_minus"], c["n"]): c for c in ref["search"]["find"]}
    ref_count = {(c["k_plus"], c["k_minus"], c["n"]): c for c in ref["search"]["count"]}
    status_counts = {"found": 0, "exhausted": 0, "timed_out": 0}
    total = closed = 0
    for kind, call, out in results:
        failure = failed_call(f"{kind} {call}", out)
        if failure:
            res.op(failure)
            continue
        if kind == "find":
            status = out.status.value
            status_counts[status] += 1
            settled = status != "timed_out"
            res.op(checks.check_find(call, status, out.splitters, ref_find[call[:3]]["status"]))
        else:
            settled = out.complete
            res.op(checks.check_count(call, out.count, out.complete, ref_count[call]["count"]))
        res.counts["search.nodes." + wl.call_name(kind, *call[:3])] = out.nodes
        total += out.nodes
        closed += out.nodes if settled else 0
    res.counts["search.nodes"] = total
    for status, count in status_counts.items():
        res.counts[f"search.{status}"] = count
    if tracer is not None:
        st = tracer.self_times()
        busy = st.get("search.find_splitting", 0.0) + st.get("search.count_splittings", 0.0)
        res.layers.update({
            "search.find_splitting.s": st.get("search.find_splitting", 0.0),
            "search.count_splittings.s": st.get("search.count_splittings", 0.0),
            "search.nodes_per_s": total / busy if busy else 0.0,
            "search.useful_ratio": closed / total if total else 0.0,
        })
    return res


# -- store --------------------------------------------------------------


def store_pass(ref, seed, clock, tracer) -> Pass:
    res = Pass(clock)
    finds = [(c["q"], c["k_plus"], c["k_minus"], tuple(c["splitters"]))
             for c in ref["search"]["find"] if c["status"] == "found"]
    stream = [(splitting.Splitting(*key), expect_new) for key, expect_new in wl.store_stream(seed, finds)]
    appended, loads, distinct, bases = [], [], [], []
    targets = [
        (classify, "load_certificates", "classify.load_certificates"),
        (splitting, "verify_cover", "splitting.verify_cover"),
    ]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp, patched(tracer, targets):
        path = Path(tmp) / "certificates.jsonl"
        for i, (cert, expect_new) in enumerate(stream, start=1):
            try:
                with clock.timed(), span(tracer, "classify.store_certificate"):
                    returned = classify.store_certificate(cert, path)
            except Exception as exc:  # counted as a failed operation
                returned = exc
            res.latencies_ms.append(clock.last_s * 1000.0)
            appended.append((cert, returned, expect_new))
            if expect_new:
                distinct.append(cert)
            if i % wl.STORE_LOAD_EVERY == 0 or i == len(stream):
                try:
                    with clock.timed():
                        loaded = classify.load_certificates(path)
                except Exception as exc:  # counted as a failed operation
                    loaded = exc
                loads.append((loaded, len(distinct)))
        for cert in distinct:
            try:
                with clock.timed(), span(tracer, "splitting.lattice_basis"):
                    basis = splitting.lattice_basis(cert)
            except Exception as exc:  # counted as a failed operation
                basis = exc
            bases.append((cert, basis))
        res.end_timed_phase()

    def key(c):
        return (c.q, c.k_plus, c.k_minus, c.splitters)

    for cert, returned, expect_new in appended:
        res.op(failed_call("append", returned) or checks.check_append(key(cert), returned, expect_new))
    for loaded, upto in loads:
        expected = [key(c) for c in distinct[:upto]]
        res.op(failed_call("load", loaded) or checks.check_load(loaded, expected))
    for cert, basis in bases:
        res.op(failed_call("lattice_basis", basis) or checks.check_basis(key(cert), basis.rows))
    res.counts["store.appends"] = len(appended)
    res.counts["store.distinct"] = len(distinct)
    if tracer is not None:
        st = tracer.self_times()
        for name in ("classify.store_certificate", "classify.load_certificates",
                     "splitting.verify_cover", "splitting.lattice_basis"):
            res.layers[f"{name}.s"] = st.get(name, 0.0)
    return res


def main() -> None:
    parser = argparse.ArgumentParser(description="one benchmark pass in a fresh process")
    parser.add_argument("--workload", choices=("table", "search", "store", "setup", "self-test"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    setup()
    setup_done = time.monotonic()
    report = {"setup_done": setup_done, "setup_probe_s": probe()}
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    if args.workload == "self-test":
        report["problems"] = checks.self_test(ref)
    elif args.workload != "setup":
        tracer = Tracer(args.pass_id) if args.trace else None
        clock = Clock(interrupt=tracer is None)
        if args.workload == "table":
            res = table_pass(ref, clock, tracer)
        elif args.workload == "search":
            res = search_pass(ref, clock, tracer)
        else:
            res = store_pass(ref, args.seed, clock, tracer)
        report.update(res.report())
        if tracer is not None:
            OUT.mkdir(exist_ok=True)
            with open(OUT / f"spans-{args.workload}.jsonl", "a", encoding="utf-8") as fh:
                tracer.write(fh)
    print(json.dumps(report))


if __name__ == "__main__":
    main()

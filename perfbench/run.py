"""Benchmark for zqadd: time to a verdict and time to an answer.

    python3 perfbench/run.py --workload verify_desk|mu_search|queries \\
        --seed N --seconds S --trace 0|1

Imports zqadd from ``src/`` next to this directory (and fails without
it), runs whole rounds of the workload's operations until S seconds have
passed (at least one round), checks every answer against the benchmark's
own computations, and prints one JSON line last: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` every call across a
zqadd module boundary is timed and the metrics are the per-layer ones
(written in full to ``perfbench/out/``).  See README.md.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # a set-up probe times itself from its first statement

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 11  # fresh interpreters timed per run; setup_s is their median


def import_zqadd():
    """zqadd from the checkout's src/, never from anywhere else."""
    if not (SRC / "zqadd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no zqadd sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import zqadd.cli

    if Path(zqadd.__file__).resolve().parent != SRC / "zqadd":
        sys.exit(f"perfbench: imported zqadd from {zqadd.__file__}, not from {SRC}")
    return zqadd


def untraced(module: str, name: str):
    """zqadd.<module>.<name> as the library defines it."""
    return getattr(importlib.import_module(f"zqadd.{module}"), name)


def probe_setup(workload: str, seed: int) -> None:
    """Child side of a set-up probe: import, generate the inputs, report."""
    t0 = time.perf_counter()
    import_zqadd()
    import_s = time.perf_counter() - t0
    import workloads

    workloads.WORKLOADS[workload][0](seed)
    print(json.dumps({"setup_s": time.perf_counter() - START, "import_s": import_s}))


def time_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median seconds, over fresh interpreters, from the first statement to
    having the inputs ready, and median seconds of the zqadd import.  The
    interpreter's own start-up is left out: it is no part of zqadd and
    varies more than the rest."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", workload, "--seed", str(seed)]
    probes = [json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout) for _ in range(SETUP_PROBES)]
    return statistics.median(p["setup_s"] for p in probes), statistics.median(p["import_s"] for p in probes)


def quantile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_rounds(ops, seconds: float):
    """Whole rounds until `seconds` have passed.  Returns each round's
    operation latencies, the first round's answers, the operations
    attempted and failed, and the labels of answers that differ from
    round 1."""
    lat_rounds = []
    first, attempted, failed, drift = None, 0, 0, []
    clock = time.perf_counter
    start = clock()
    while True:
        answers, lat = [], []
        for op in ops:
            t0 = clock()
            try:
                answer = op.call()
            except Exception as exc:  # a failing operation is counted, and the run goes on
                answer = exc
                print(f"perfbench: {op.label} failed: {exc!r}", file=sys.stderr)
            lat.append(clock() - t0)
            answers.append(answer)
        lat_rounds.append(lat)
        attempted += len(ops)
        failed += sum(isinstance(a, Exception) for a in answers)
        if first is None:
            first = answers
        else:
            drift += [op.label for op, a, b in zip(ops, first, answers) if a != b]
        if clock() - start >= seconds:
            return lat_rounds, first, attempted, failed, drift


def end_to_end(lat_rounds, setup_s) -> dict:
    """Each timing is taken per round and its median over the rounds
    reported, so a round slowed by a neighbour on the machine moves it
    little."""
    med = lambda f: statistics.median(f(lat) for lat in lat_rounds)  # noqa: E731
    return {
        "setup_s": (setup_s, "s"),
        "round_s": (med(sum), "s"),
        "ops_per_s": (med(lambda lat: len(lat) / sum(lat)), "1/s"),
        "op_p50_ms": (med(lambda lat: quantile(lat, 50)) * 1e3, "ms"),
        "op_p99_ms": (med(lambda lat: quantile(lat, 99)) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


CORE = ("kneser_check", "sumset_mask", "period_group", "shift_mask")
IMPACT = ("xi_naive", "xi3", "sidon_check", "pluennecke_subset")
PROGRESSIONS = ("alpha_profile", "decompose", "check_uniqueness", "stability")
DIGITAL = (
    "verify_small_doubling_classification",
    "verify_carry_extremality",
    "verify_digital_impact_bound",
    "carry_stats",
)
QUERY_KINDS = (
    "xi_search",
    "alpha_profile",
    "decompose",
    "kneser_check",
    "sumset",
    "check_uniqueness",
    "stability",
    "carry_stats",
    "pluennecke_subset",
    "extract_chain_structure",
    "equal_impact_witnesses",
)


def per_layer(tracer, ops, lat_rounds, first, workload, import_s, span_cost) -> dict:
    """Per-layer figures of a traced run, per round of the workload."""
    from spans import MODULES

    R = len(lat_rounds)
    latencies = defaultdict(list)
    for lat in lat_rounds:
        for op, x in zip(ops, lat):
            latencies[op.label].append(x)
    rec = lambda key: tracer.records.get(key, [0, 0.0])  # noqa: E731
    m = {f"{mod}.self_s": (tracer.self_s[mod][0] / R, "s") for mod in MODULES}
    for f in CORE:
        calls, secs = rec(f"core.{f}")
        m[f"core.{f}.calls"] = (calls / R, "count")
        m[f"core.{f}.us"] = (secs / calls * 1e6 if calls else 0.0, "us")
    calls, secs = rec("impact.xi_search")
    m["impact.xi_search.calls"] = (calls / R, "count")
    m["impact.xi_search.nodes"] = (tracer.nodes / R, "count")
    m["impact.xi_search.s"] = (secs / R, "s")
    for mod, fns in (("impact", IMPACT), ("progressions", PROGRESSIONS)):
        for f in fns:
            calls, secs = rec(f"{mod}.{f}")
            m[f"{mod}.{f}.calls"] = (calls / R, "count")
            m[f"{mod}.{f}.s"] = (secs / R, "s")
    for f in DIGITAL:
        m[f"digital.{f}.s"] = (rec(f"digital.{f}")[1] / R, "s")
    for p in (13, 17, 19, 23):
        m[f"chains.compute_mu.s.p{p}"] = (tracer.mu.get(p, 0.0) / R, "s")
    m["chains.compute_mu.witnesses"] = (tracer.mu_witnesses / R, "count")
    instances = {}
    if workload == "verify_desk":
        if not isinstance(first[0], Exception):
            instances = {s["suite"]: s["instances"] for s in json.loads(first[0][1])["suites"]}
    for label, fn in tracer.modules["verify"].SUITES:
        m[f"verify.{label}.s"] = (rec(f"verify.{fn.__name__}")[1] / R, "s")
        m[f"verify.{label}.instances"] = (instances.get(label, 0), "count")
    tasks = tracer.task_times
    m["parallel.ordered_map.tasks"] = (tracer.tasks / R, "count")
    m["parallel.task_imbalance"] = (max(tasks) / statistics.mean(tasks) if tasks else 0.0, "ratio")
    m["cli.import_s"] = (import_s, "s")
    for kind in QUERY_KINDS:
        xs = latencies.get(kind) if workload == "queries" else None
        m[f"query.{kind}.p50_ms"] = (statistics.median(xs) * 1e3 if xs else 0.0, "ms")
    n_spans = tracer.wrapped_calls
    traced = sum(x for xs in latencies.values() for x in xs)
    m["trace.spans"] = (n_spans / R, "count")
    m["trace.overhead_pct"] = (100 * n_spans * span_cost / max(traced - n_spans * span_cost, 1e-9), "%")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("verify_desk", "mu_search", "queries"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0

    zqadd = import_zqadd()
    import spans
    import workloads

    make_inputs, make_ops, final_check = workloads.WORKLOADS[args.workload]
    setup_s, import_s = time_setup(args.workload, args.seed)
    inputs = make_inputs(args.seed)

    tracer, fn = None, untraced
    if args.trace:
        span_cost = spans.wrapper_cost(zqadd)
        tracer = spans.Tracer(zqadd)
        tracer.install()
        fn = tracer.fn
    ops = make_ops(inputs, fn)
    try:
        lat_rounds, first, attempted, failed, drift = run_rounds(ops, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()

    problems = [f"{label}: answer changed between rounds" for label in drift]
    for op, answer in zip(ops, first):
        if not isinstance(answer, Exception):
            problems += [f"{op.label}: {p}" for p in op.check(answer)]
    if final_check is not None and not failed:
        problems += final_check(inputs, first, untraced)
    for p in problems[:20]:
        print(f"perfbench: check failed: {p}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(lat_rounds, setup_s)
    else:
        metrics = per_layer(tracer, ops, lat_rounds, first, args.workload, import_s, span_cost)
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(
                {
                    "rounds": len(lat_rounds),
                    "functions": {k: {"calls": c, "s": s} for k, (c, s) in sorted(tracer.records.items())},
                    "self_s": {k: v[0] for k, v in tracer.self_s.items()},
                    "task_s": tracer.task_times,
                },
                indent=1,
            )
        )
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

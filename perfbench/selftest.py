"""Smoke-size self-test of the benchmark, under half a minute:

    python3 perfbench/selftest.py

1. Every check accepts zqadd's right answers on small inputs: the
   verification at profile smoke, mu(13), and the first question of each
   kind in a query stream.
2. Every check rejects a wrong answer: each answer is altered in one field
   and must then fail its check.
3. One untraced and one traced run of ``run.py`` print the metrics that
   BENCHMARK.json names, with their units, and nothing fails.
4. Without ``src/`` next to it, ``run.py`` exits non-zero and prints no
   result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import run
from run import untraced

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
zqadd = run.import_zqadd()
import workloads  # noqa: E402  (needs src/ on the path first)


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def _alter(answer, kind: str):
    """The answer with one field made wrong."""
    r = dataclasses.replace
    if kind == "xi_search":
        return r(answer, value=answer.value - 1)
    if kind == "alpha_profile":
        return {t: a + (t == 1) for t, a in answer.items()}
    if kind == "decompose":
        return r(answer, progressions=answer.progressions[1:])
    if kind == "kneser_check":
        return r(answer, lhs=answer.lhs + 1)
    if kind == "sumset":
        return r(answer, mask=answer.mask ^ 1)
    if kind == "check_uniqueness":
        flip = "unique_pm_d" if answer.classification != "unique_pm_d" else "exception_interval_plus_point"
        return r(answer, classification=flip, detail={"scale": 1, "shift": 0})
    if kind == "stability":
        return r(answer, k=answer.k + 1)
    if kind == "carry_stats":
        return r(answer, nonzero_pair_count=answer.nonzero_pair_count + 1)
    if kind == "pluennecke_subset":
        return r(answer, ratio=answer.ratio + Fraction(1, 7))
    if kind == "extract_chain_structure":
        return r(answer, chains=answer.chains[1:])
    if kind == "equal_impact_witnesses":
        return (answer[0], answer[0] + 1)
    raise KeyError(kind)


def checks() -> None:
    inputs = workloads.verify_inputs(0, "smoke")
    (op,) = workloads.verify_ops(inputs, untraced)
    code, text = op.call()
    expect(op.check((code, text)) == [], "verify-all --profile smoke passes every check")
    expect(workloads.verify_final(inputs, [(code, text)], untraced) == [], "re-run suites give the same bytes")
    report = json.loads(text)
    report["suites"][3]["instances"] -= 1
    expect(op.check((code, workloads._canonical(report))) != [], "a short coverage count is caught")

    ops = workloads.mu_ops(workloads.mu_inputs(0), untraced)
    rec = ops[0].call()
    expect(ops[0].check(rec) == [], f"mu({rec.p}) = {rec.mu} passes every check")
    expect(ops[0].check(dataclasses.replace(rec, mu=rec.mu - 1)) != [], "a wrong mu is caught")

    seen = set()
    for op in workloads.queries_ops(workloads.queries_inputs(7), untraced):
        if op.label in seen:
            continue
        seen.add(op.label)
        answer = op.call()
        expect(op.check(answer) == [], f"{op.label}: right answer passes")
        expect(op.check(_alter(answer, op.label)) != [], f"{op.label}: altered answer is caught")
    expect(seen == set(run.QUERY_KINDS), "every query kind was tried")


def runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "queries", "--seed", "3", "--seconds", "0",
             "--trace", str(trace)],
            capture_output=True, text=True, check=True, cwd=ROOT,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        want = {m["name"]: m["unit"] for m in spec[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == want, f"--trace {trace} prints exactly the {group} metrics with their units")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0, f"--trace {trace} run is correct")


def no_sources() -> None:
    lonely = HERE / "out" / "selftest-no-src"
    shutil.rmtree(lonely, ignore_errors=True)
    shutil.copytree(HERE, lonely / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", lonely)
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "queries", "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=lonely, timeout=180,
        )
    finally:
        shutil.rmtree(lonely)
    expect(out.returncode != 0 and not out.stdout.strip(), "without src/ the run fails and prints no result")


if __name__ == "__main__":
    checks()
    runs()
    no_sources()
    print("selftest passed")

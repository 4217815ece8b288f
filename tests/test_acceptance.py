"""Acceptance gate: the eleven desk-scale criteria, one pass/fail line each.

The desk verification report is computed once per session, by the CLI with
one worker, and shared; the determinism criterion adds one 8-worker run.
The module takes about 13 s on a shared 2-vCPU machine.
"""

import hashlib
import json
import subprocess
import sys

import pytest

SEED = 42
# sha256 of the desk report at this seed; unchanged since the report format
# was fixed, so a speedup that changed a byte in every run still fails
DESK_STDOUT_SHA256 = "96f13b79dc8272595e17075e4a6df0fce1aeaa4a5151d59ff5dc91dcd7a35250"


def _desk_stdout(workers):
    proc = subprocess.run(
        [
            sys.executable, "-m", "zqadd.cli", "verify-all",
            "--profile", "desk", "--seed", str(SEED), "--workers", str(workers),
        ],
        capture_output=True,
        timeout=3600,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-500:]
    return proc.stdout


@pytest.fixture(scope="module")
def desk_stdout():
    return _desk_stdout(1)


@pytest.fixture(scope="module")
def desk(desk_stdout):
    return json.loads(desk_stdout)


def _suite(report, name):
    for s in report["suites"]:
        if s["suite"] == name:
            return s
    raise KeyError(name)


def _check(n, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {description}")
    assert ok, f"criterion {n} failed: {description}"


def test_criterion_1_oracle_equivalence(desk):
    s = _suite(desk, "oracle_equivalence")
    ok = s["passed"] and s["q_max"] >= 12
    _check(1, "xi_search matches xi_naive on all subsets of Z_q, q <= 12", ok)


def test_criterion_2_identities(desk):
    s = _suite(desk, "identities")
    ok = s["passed"] and s["q_max"] >= 12 and s["instances"] >= 10_000
    _check(2, "sumset/alpha and xi(2) identities, exhaustive q <= 12 plus random q <= 64", ok)


def test_criterion_3_boundary_values(desk):
    s = _suite(desk, "boundary_values")
    ok = s["passed"] and s["instances"] >= 1_000
    _check(3, "xi boundary values (xi(1), pigeonhole, saturation) on random sets", ok)


def test_criterion_4_sumset_inequalities(desk):
    s = _suite(desk, "sumset_inequalities")
    # every unordered pair of nonempty masks of Z_q, q <= 12, plus the
    # 10,000 sampled pairs and the 100 larger Pluennecke instances
    exhaustive = sum(t * (t + 1) // 2 for t in ((1 << q) - 1 for q in range(1, 13)))
    ok = (
        s["passed"]
        and s["q_max"] >= 12
        and s["instances"] >= 10_000
        and s["covered_instances"] == exhaustive + 10_100
        and s["pluennecke_exact_instances"] > 0
    )
    _check(4, "Kneser / Sidon / Pluennecke inequalities, exhaustive and randomized", ok)


def test_criterion_5_subgroup_lemma(desk):
    s = _suite(desk, "subgroup_lemma")
    ok = s["passed"] and s["instances"] >= 1_000
    _check(5, "subgroup lemma inequalities on exhaustive and sampled digital sets", ok)


def test_criterion_6_carry_extremality(desk):
    s = _suite(desk, "carry_extremality")
    frozen = {3: (2, 3), 4: (2, 6), 5: (2, 10), 6: (2, 15)}
    got = {
        row["m"]: (row["min_distinct_carries"], row["min_nonzero_pairs"])
        for row in s["minima"]
    }
    ok = s["passed"] and got == frozen
    _check(6, "carry extremality sweeps m in {3..6} with frozen minima", ok)


def test_criterion_7_digital_impact_bound(desk):
    s = _suite(desk, "digital_impact_bound")
    ok = s["passed"] and s["instances"] >= 500 and s["window"] == [2, 3, 4]
    _check(7, "impact lower bound on 500 random (16,32) digital sets", ok)


def test_criterion_8_small_doubling(desk):
    s = _suite(desk, "small_doubling_classification")
    ok = (
        s["passed"]
        and (s["m"], s["q"]) == (16, 32)
        and s["instances"] == 65536
        and s["solutions"] > 0
        and "discrepancy" in s["note"]
    )
    _check(8, "small-doubling solutions at (16,32) are affine interval images", ok)


def test_criterion_9_construction(desk):
    s = _suite(desk, "construction")
    ok = (
        s["passed"]
        and abs(s["densities"]["8"] - 13 / 18) <= 0.02  # JSON keys are strings
        and s["m3_prime"] == 67
        and s["m3_runs"] == 12
    )
    _check(9, "interval construction m in {3..8}: sizes, density, chain conditions", ok)


def test_criterion_10_mu(desk):
    s = _suite(desk, "mu")
    frozen = {5: 4, 7: 4, 11: 8, 13: 7}
    got = {row["p"]: row["mu"] for row in s["table"]}
    ok = s["passed"] and got == frozen
    _check(10, "mu(p) exact for p in {5,7,11,13}, both strategies and both bounds", ok)


def test_criterion_11_determinism(desk_stdout):
    ok = desk_stdout == _desk_stdout(8) and hashlib.sha256(desk_stdout).hexdigest() == DESK_STDOUT_SHA256
    _check(11, "verify-all desk reports byte-identical for 1 and 8 workers, and to the frozen bytes", ok)

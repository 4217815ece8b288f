"""The pair sweep of sumset_inequalities over translation classes: class
counts, coverage, both Sidon orientations, a planted fault, and the
translation invariance the reduction rests on; the strategy cross-check
of the mu suite; a Pluennecke sample past the exact cap stops the suite;
a failing check reports the same counterexamples at any worker count;
each suite's stderr line is JSON; run_suites names only unknown suites;
ordered_map sizes its pool by the tasks."""

import dataclasses
import hashlib
import json
import math
import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqadd import impact, parallel, verify
from zqadd.chains import compute_mu
from zqadd.cli import main
from zqadd.config import RunConfig
from zqadd.core import (
    BudgetExceededError,
    KneserReport,
    ResidueSet,
    kneser_check,
    shift_mask,
    shift_table,
    translation_classes,
)
from zqadd.impact import sidon_check, sidon_sumset_bound_check, xi_search


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def least_rotation(mask, q):
    return min(shift_table(mask, q))


def is_sidon(mask, q):
    elems = [x for x in range(q) if mask >> x & 1]
    diffs = [(a - b) % q for a in elems for b in elems if a != b]
    return len(diffs) == len(set(diffs))


def full_sweep(q):
    """The reduced sweep over every pair of translation classes of Z_q:
    (pairs checked, mask pairs covered, violations)."""
    return verify._sweep(verify._class_pair_checks, [(q, 0, len(translation_classes(q)))], 4, 1)


@pytest.mark.parametrize("q", range(1, 13))
def test_translation_classes_match_burnside(q):
    classes = translation_classes(q)
    assert sum(size for _, size in classes) == (1 << q) - 1
    burnside = sum(euler_phi(d) * (1 << (q // d)) for d in range(1, q + 1) if q % d == 0) // q
    assert len(classes) == burnside - 1
    for rep, size in classes:
        assert rep == least_rotation(rep, q)
        assert size == len(set(shift_table(rep, q)))


@pytest.mark.parametrize("q", range(1, 8))
def test_reduced_sweep_covers_every_unordered_pair(q):
    count, covered, bad = full_sweep(q)
    top = 1 << q
    assert covered == sum(1 for a in range(1, top) for b in range(a, top))
    n = len(translation_classes(q))
    assert count == n * (n + 1) // 2
    assert bad == []


@pytest.mark.parametrize("q", range(1, 8))
def test_sidon_bound_checked_in_both_orientations(q, monkeypatch):
    seen = []

    def record(A, B):
        seen.append((least_rotation(A.mask, q), least_rotation(B.mask, q)))
        return sidon_sumset_bound_check(A, B)

    monkeypatch.setattr(verify, "sidon_sumset_bound_check", record)
    full_sweep(q)
    reps = [rep for rep, _ in translation_classes(q)]
    expected = {(a, b) for a in reps for b in reps if is_sidon(b, q)}
    assert len(seen) == len(set(seen))
    assert set(seen) == expected


def test_unflagged_pair_checks_sidon_in_both_orientations(monkeypatch):
    # given each set's Sidon flag, it tests each Sidon set of the pair as the Sidon set
    seen = []

    def record(A, B):
        seen.append((A.elements, B.elements))
        return sidon_sumset_bound_check(A, B)

    monkeypatch.setattr(verify, "sidon_sumset_bound_check", record)
    sidon = ResidueSet.from_elements(31, [0, 1, 3])
    other_sidon = ResidueSet.from_elements(31, [0, 2, 7])
    plain = ResidueSet.from_elements(31, range(10))
    assert verify._inequality_instance(sidon, plain, True, sidon_check(plain)) == []
    assert seen == [(plain.elements, sidon.elements)]
    seen.clear()
    assert verify._inequality_instance(sidon, other_sidon, True, sidon_check(other_sidon)) == []
    assert seen == [(sidon.elements, other_sidon.elements), (other_sidon.elements, sidon.elements)]
    seen.clear()
    assert verify._inequality_instance(sidon, sidon, True, True) == []
    assert seen == [(sidon.elements, sidon.elements)]


def test_planted_translation_invariant_fault_is_reported(monkeypatch):
    q, planted = 7, least_rotation(0b1011, 7)  # the class of {0, 1, 3}

    def faulty(A, B):
        report = kneser_check(A, B)
        if A.q == q and planted in (least_rotation(A.mask, q), least_rotation(B.mask, q)):
            return KneserReport(False, report.H, report.lhs, report.rhs)
        return report

    monkeypatch.setattr(verify, "kneser_check", faulty)
    report = verify.suite_sumset_inequalities(RunConfig(seed=1, profile="smoke"))
    assert not report["passed"]
    kneser = [c for c in report["counterexamples"] if c["inequality"] == "kneser"]
    assert kneser
    for c in kneser:
        masks = [sum(1 << x for x in c[side]) for side in ("A", "B")]
        assert c["q"] == q and planted in [least_rotation(m, q) for m in masks]
    # every class of Z_7 meets the planted class in one reported pair
    partners = {
        least_rotation(sum(1 << x for x in c[side]), q)
        for c in kneser
        for side in ("A", "B")
    }
    assert partners == {rep for rep, _ in translation_classes(q)}


def violation_classes(bad, q):
    """Each violation as (inequality, class of A, class of B): a Kneser pair
    is unordered, a Sidon pair keeps B as the Sidon set."""
    out = set()
    for c in bad:
        a, b = (least_rotation(sum(1 << x for x in c[side]), q) for side in ("A", "B"))
        if c["inequality"] == "kneser":
            a, b = sorted((a, b))
        out.add((c["inequality"], a, b))
    return out


@pytest.mark.parametrize("q", range(1, 7))
def test_reduced_sweep_verdicts_match_the_unreduced_sweep(q, monkeypatch):
    # translation-invariant planted faults: Kneser fails when |A+B| = |A|+|B|-1,
    # the Sidon bound when |A+B| is odd
    def kneser(A, B):
        rep = kneser_check(A, B)
        return dataclasses.replace(rep, holds=rep.lhs != A.size + B.size - 1)

    def sidon_bound(A, B):
        rep = sidon_sumset_bound_check(A, B)
        return dataclasses.replace(rep, holds=rep.sumset_size % 2 == 0)

    monkeypatch.setattr(verify, "kneser_check", kneser)
    monkeypatch.setattr(verify, "sidon_sumset_bound_check", sidon_bound)
    top = 1 << q
    sets = [ResidueSet(q, mask) for mask in range(top)]
    raw = [
        c
        for a in range(1, top)
        for b in range(a, top)
        for c in verify._inequality_instance(sets[a], sets[b], sidon_check(sets[a]), sidon_check(sets[b]))
    ]
    expected = violation_classes(raw, q)
    assert expected
    assert violation_classes(full_sweep(q)[2], q) == expected


def test_report_counts_checks_and_covered_pairs():
    report = verify.suite_sumset_inequalities(RunConfig(seed=1, profile="smoke"))
    scale = verify._SCALE["smoke"]
    samples = scale["ineq_samples"] + scale["pluennecke_large_samples"]
    exhaustive = sum(t * (t + 1) // 2 for t in ((1 << q) - 1 for q in range(1, scale["ineq_q_max"] + 1)))
    classes = [len(translation_classes(q)) for q in range(1, scale["ineq_q_max"] + 1)]
    assert report["passed"]
    assert report["covered_instances"] == exhaustive + samples
    assert report["instances"] == sum(n * (n + 1) // 2 for n in classes) + samples


def test_a_dropped_translation_class_is_caught(monkeypatch):
    # the last class of each Z_q is the full set's; its pairs go missing
    monkeypatch.setattr(verify, "translation_classes", lambda q: translation_classes(q)[:-1])
    with pytest.raises(AssertionError, match="do not cover"):
        verify.suite_sumset_inequalities(RunConfig(seed=1, profile="smoke"))


def test_pluennecke_past_the_cap_stops_the_suite(monkeypatch):
    # a cap of 12 lies below the 13..16 elements of the dedicated large samples
    monkeypatch.setattr(impact, "PLUENNECKE_EXACT_CAP", 12)
    with pytest.raises(BudgetExceededError):
        verify.suite_sumset_inequalities(RunConfig(seed=1, profile="smoke"))


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="the patched engine reaches the workers only by fork"
)
def test_sweep_reports_the_same_failures_at_any_worker_count(monkeypatch):
    q = 5

    def skewed(A, n, *args, **kwargs):
        rec = xi_search(A, n, *args, **kwargs)
        return dataclasses.replace(rec, value=rec.value + 1) if A.q == q else rec

    monkeypatch.setattr(verify, "xi_search", skewed)
    one, two = (verify.suite_oracle_equivalence(RunConfig(seed=1, workers=w, profile="smoke")) for w in (1, 2))
    assert one == two
    assert not one["passed"] and one["instances"] == 2251  # as when every check passes
    bad = one["counterexamples"]
    # one failure per (mask, n) checked at q, in sweep order
    assert [(c["set"], c["n"]) for c in bad] == [
        (sorted(A.elements), n)
        for A in (ResidueSet(q, mask) for mask in range(1, (1 << q) - 1))
        for n in range(q - A.size + 1)
    ]
    for c in bad:
        assert c["q"] == q and c["search"] == c["naive"] + 1
        assert c["command"] == f"zqadd xi --q {q} --set {','.join(map(str, c['set']))} --n {c['n']}"


def test_each_suite_times_itself_on_one_stderr_json_line(capsys):
    assert main(["verify", "mu", "construction", "--profile", "smoke", "--seed", "42"]) == 0
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.err.splitlines()]
    assert [line["suite"] for line in lines] == ["construction", "mu"]  # SUITES order
    report = json.loads(captured.out)
    for line, suite in zip(lines, report["suites"]):
        assert list(line) == ["suite", "seconds", "instances"]
        assert line["instances"] == suite["instances"] and line["seconds"] >= 0
    # the report bytes these two suites had before the stderr line was JSON
    digest = hashlib.sha256(captured.out.encode()).hexdigest()
    assert digest == "2aaa6dbe4791699cec0ba54d63601a7d3cf409a79979d204ef0c7bacf4bf2df4"


def test_unknown_suites_are_named_alone():
    with pytest.raises(ValueError, match=r"unknown suites: \['bogus'\]$"):
        verify.run_suites(RunConfig(seed=1, profile="smoke"), ["mu", "bogus", "mu"])


@pytest.mark.parametrize("workers, tasks, started", [(8, 3, 3), (2, 5, 2)])
def test_ordered_map_starts_at_most_one_process_per_task(workers, tasks, started, monkeypatch):
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(parallel.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    assert parallel.ordered_map(abs, range(-tasks, 0), workers) == list(range(tasks, 0, -1))
    assert pools == [started]


@pytest.mark.parametrize("field", ["mu", "witness_count", "witnesses_up_to_affine"])
def test_mu_suite_reports_a_strategy_mismatch(field, monkeypatch):
    def skewed(p, strategy="bounded"):
        rec = compute_mu(p, strategy)
        if strategy != "bounded":
            return rec
        wrong = {"mu": rec.mu + 1, "witness_count": rec.witness_count + 1, "witnesses_up_to_affine": ()}
        return dataclasses.replace(rec, **{field: wrong[field]})

    monkeypatch.setattr(verify, "compute_mu", skewed)
    report = verify.suite_mu(RunConfig(seed=1, profile="smoke"))
    assert not report["passed"]
    assert [c["field"] for c in report["counterexamples"]] == [field] * len(verify._SCALE["smoke"]["mu_ps"])


@st.composite
def pair_and_shifts(draw):
    q = draw(st.integers(1, 40))
    a = draw(st.integers(1, (1 << q) - 1))
    # small B is often Sidon, so both verdicts of the Sidon bound occur
    b_elems = draw(st.sets(st.integers(0, q - 1), min_size=1, max_size=min(q, 5)))
    s = draw(st.integers(0, q - 1))
    t = draw(st.integers(0, q - 1))
    return ResidueSet(q, a), ResidueSet.from_elements(q, b_elems), s, t


@settings(max_examples=300, deadline=None)
@given(pair_and_shifts())
def test_bounds_invariant_under_translation(case):
    A, B, s, t = case
    q = A.q
    As, Bt = ResidueSet(q, shift_mask(A.mask, s, q)), ResidueSet(q, shift_mask(B.mask, t, q))
    k, ks = kneser_check(A, B), kneser_check(As, Bt)
    assert (k.lhs, k.rhs, k.H.order) == (ks.lhs, ks.rhs, ks.H.order)
    assert sidon_check(B) == sidon_check(Bt)
    if sidon_check(B):
        r, rs = sidon_sumset_bound_check(A, B), sidon_sumset_bound_check(As, Bt)
        assert (r.holds, r.sumset_size) == (rs.holds, rs.sumset_size)

"""Verification suites: every bound and identity in the library checked
against brute-force oracles at a configurable scale.

Each suite returns a plain dict that serializes to canonical JSON.  Wall
times never enter the structured output, so reports are byte-identical
across runs and worker counts; timing goes to stderr, one JSON line per
suite.
"""

from __future__ import annotations

import json
import sys
import time
from functools import lru_cache
from itertools import chain
from typing import Callable, Optional

from .config import RunConfig
from .core import (
    ResidueSet,
    kneser_check,
    period_group,
    proper_nontrivial_subgroups,
    sumset_mask,
    translation_classes,
)
from .digital import (
    IMPACT_WINDOW,
    LITERAL_CONCLUSION_NOTE,
    enumerate_digital_sets,
    sample_digital_set,
    subgroup_lemma_check,
    verify_carry_extremality,
    verify_digital_impact_bound,
    verify_small_doubling_classification,
)
from .chains import build_construction, compute_mu, construction_chain_family, project_to_prime
from .impact import pluennecke_subset, sidon_check, sidon_sumset_bound_check, xi_exact, xi_naive, xi_search
from .parallel import ordered_map
from .progressions import alpha, decompose, min_alpha


# scale knobs per profile
_SCALE = {
    "smoke": {
        "q_max": 8,
        "identity_samples": 500,
        "boundary_samples": 100,
        "ineq_q_max": 9,
        "ineq_samples": 500,
        "pluennecke_large_samples": 10,
        "sg_samples": 100,
        "carry_ms": (3, 4),
        "digsetteo_samples": 50,
        "corollary_mq": (8, 16),
        "construction_ms": (3, 4, 5),
        "mu_ps": (5, 7),
    },
    "desk": {
        "q_max": 12,
        "identity_samples": 10_000,
        "boundary_samples": 1_000,
        "ineq_q_max": 12,
        "ineq_samples": 10_000,
        "pluennecke_large_samples": 100,
        "sg_samples": 1_000,
        "carry_ms": (3, 4, 5, 6),
        "digsetteo_samples": 500,
        "corollary_mq": (16, 32),
        "construction_ms": (3, 4, 5, 6, 7, 8),
        "mu_ps": (5, 7, 11, 13),
    },
    "deep": {
        "q_max": 13,
        "identity_samples": 100_000,
        "boundary_samples": 10_000,
        "ineq_q_max": 14,
        "ineq_samples": 100_000,
        "pluennecke_large_samples": 500,
        "sg_samples": 10_000,
        "carry_ms": (3, 4, 5, 6),
        "digsetteo_samples": 2_000,
        "corollary_mq": (16, 32),
        "construction_ms": (3, 4, 5, 6, 7, 8, 9),
        "mu_ps": (5, 7, 11, 13, 17, 19),
    },
}


def _suite(name: str, instances: int, counterexamples: list, **extra) -> dict:
    return {
        "suite": name,
        "passed": not counterexamples,
        "instances": instances,
        "counterexamples": counterexamples,
        "skipped": [],
        **extra,
    }


def _random_proper_subset(rng, q: int) -> ResidueSet:
    return ResidueSet(q, rng.randrange(1, (1 << q) - 1))


# A check yields one (weight, violations) pair per instance it decides:
# weight is the number of sets the instance stands for (for a delegating
# suite, the instances its engine run decided), and violations lists the
# instance's counterexamples.  Every suite counts through _tally.


def _tally(checks) -> tuple[int, int, list]:
    """(instances, their summed weight, the violations in order)."""
    instances = covered = 0
    bad = []
    for weight, violations in checks:
        instances += 1
        covered += weight
        bad += violations
    return instances, covered, bad


def _add(*tallies: tuple[int, int, list]) -> tuple[int, int, list]:
    """The tally of the joined streams."""
    instances, covered, bad = zip(*tallies)
    return sum(instances), sum(covered), [v for b in bad for v in b]


def _task_tally(task: tuple) -> tuple[int, int, list]:
    checks, q, lo, hi = task
    return _tally(c for i in range(lo, hi) for c in checks(q, i))


def _sweep(checks, spans: list[tuple[int, int, int]], parts: int, workers: int) -> tuple[int, int, list]:
    """The tally of checks(q, i) for each span (q, first, end) and i in it,
    run as tasks of about 1/parts of a span.  checks is a module-level
    function, so that the tasks pickle."""
    tasks = []
    for q, first, end in spans:
        step = max(1, (end - first) // parts)
        tasks += [(checks, q, lo, min(lo + step, end)) for lo in range(first, end, step)]
    return _add(*ordered_map(_task_tally, tasks, workers, 1))


def _proper_masks(q_values: range) -> list[tuple[int, int, int]]:
    """The nonempty proper masks 1 .. 2^q - 2 of each Z_q."""
    return [(q, 1, (1 << q) - 1) for q in q_values]


def _command(verb: str, A: ResidueSet, option: str) -> str:
    return f"zqadd {verb} --q {A.q} --set {','.join(map(str, sorted(A.elements)))} {option}"


# ---------------------------------------------------------------------------
# 1. oracle equivalence


def _oracle_checks(q: int, mask: int):
    A = ResidueSet(q, mask)
    # xi = q beyond n = q - |A|; covered by the boundary suite
    for n in range(q - A.size + 1):
        rn, rs = xi_naive(A, n), xi_search(A, n)
        yield 1, [] if rn.value == rs.value and rn.witness == rs.witness else [
            {"q": q, "set": sorted(A.elements), "n": n, "naive": rn.value, "search": rs.value,
             "command": _command("xi", A, f"--n {n}")}
        ]


def suite_oracle_equivalence(cfg: RunConfig) -> dict:
    scale = _SCALE[cfg.profile]
    total, _, bad = _sweep(_oracle_checks, _proper_masks(range(1, scale["q_max"] + 1)), 16, cfg.workers)
    return _suite("oracle_equivalence", total, bad, q_max=scale["q_max"])


# ---------------------------------------------------------------------------
# 2. identities


def _identity_check(A: ResidueSet, t: int) -> tuple[int, list]:
    dec = decompose(A, t)
    lhs = sumset_mask(A.mask, 1 | 1 << t, A.q).bit_count()
    a = alpha(A, t)
    return 1, [] if dec.alpha == a and lhs == A.size + a and dec.reassemble() == A else [
        {"q": A.q, "set": sorted(A.elements), "t": t, "sumset_size": lhs, "alpha": a,
         "decomposition_alpha": dec.alpha, "command": _command("alpha", A, f"--d1 {t}")}
    ]


def _identity_checks(q: int, mask: int):
    A = ResidueSet(q, mask)
    for t in range(1, q):
        yield _identity_check(A, t)
    ok = xi_search(A, 2).value == A.size + min_alpha(A) or A.size > q - 2
    yield 1, [] if ok else [{"q": q, "set": sorted(A.elements), "identity": "xi2"}]


def _sampled_identity_checks(rng, samples: int):
    for _ in range(samples):
        q = rng.randrange(2, 65)
        A = _random_proper_subset(rng, q)
        yield _identity_check(A, rng.randrange(1, q))


def suite_identities(cfg: RunConfig) -> dict:
    scale = _SCALE[cfg.profile]
    total, _, bad = _add(
        _sweep(_identity_checks, _proper_masks(range(2, scale["q_max"] + 1)), 16, cfg.workers),
        _tally(_sampled_identity_checks(cfg.rng("identities"), scale["identity_samples"])),
    )
    return _suite("identities", total, bad, q_max=scale["q_max"])


# ---------------------------------------------------------------------------
# 3. boundary values


def _boundary_checks(rng, samples: int):
    for _ in range(samples):
        q = rng.randrange(3, 15)
        A = _random_proper_subset(rng, q)
        m = A.size
        # 1 <= m <= q-1.  xi(q-m) = q - |H(A)|: the missed sums form a coset
        # of the period group, so q-1 exactly when A is aperiodic
        n_over = rng.randrange(q - m + 1, q + 1)
        expected = [(1, m), (q - m, q - period_group(A).order), (n_over, q)]
        yield 1, [
            {"q": q, "set": sorted(A.elements), "n": n, "expected": expect, "got": got,
             "command": _command("xi", A, f"--n {n}")}
            for n, expect in expected
            if (got := xi_naive(A, n).value) != expect
        ]
        # a large-q spot check of xi(1) = |A| alone (cheap at any q)
        q2 = rng.randrange(16, 65)
        A2 = _random_proper_subset(rng, q2)
        ok = xi_naive(A2, 1).value == A2.size
        yield 1, [] if ok else [{"q": q2, "set": sorted(A2.elements), "n": 1, "identity": "xi1"}]


def suite_boundary_values(cfg: RunConfig) -> dict:
    count, _, bad = _tally(_boundary_checks(cfg.rng("boundary"), _SCALE[cfg.profile]["boundary_samples"]))
    return _suite("boundary_values", count, bad)


# ---------------------------------------------------------------------------
# 4. sumset inequalities


def _inequality_instance(A: ResidueSet, B: ResidueSet, a_sidon: bool, b_sidon: bool) -> list:
    """Violations of Kneser's bound on the pair, and of the Sidon sumset
    bound with B as the Sidon set and with A as the Sidon set (once if
    A = B).  The flags say whether A and B are Sidon."""
    out = []
    kn = kneser_check(A, B)
    if not kn.holds:
        out.append(
            {"inequality": "kneser", "q": A.q, "A": sorted(A.elements), "B": sorted(B.elements),
             "lhs": kn.lhs, "rhs": kn.rhs}
        )
    for X, Y, y_sidon in ((A, B, b_sidon), (B, A, a_sidon and A != B)):
        if y_sidon:
            sb = sidon_sumset_bound_check(X, Y)
            if not sb.holds:
                out.append(
                    {"inequality": "sidon_sumset", "q": X.q, "A": sorted(X.elements),
                     "B": sorted(Y.elements), "sumset_size": sb.sumset_size}
                )
    return out


@lru_cache(maxsize=None)
def _sidon_flags(q: int) -> tuple[bool, ...]:
    """Whether each translation class of Z_q is a class of Sidon sets."""
    return tuple(sidon_check(ResidueSet(q, rep)) for rep, _ in translation_classes(q))


def _pluennecke_violations(A: ResidueSet, B: ResidueSet) -> list:
    """Pluennecke's bound on (A, B), which the search decides exactly."""
    rep = pluennecke_subset(A, B)
    return [] if rep.holds else [
        {"inequality": "pluennecke", "q": A.q, "A": sorted(A.elements), "B": sorted(B.elements),
         "ratio": str(rep.ratio), "beta": str(rep.beta)}
    ]


def _class_pair_checks(q: int, i: int):
    """Row i of the unordered pairs (i <= j) of translation classes of Z_q,
    each weighted by the mask pairs it covers."""
    # Both bounds are unchanged under A -> A+s, B -> B+t, since
    # (A+s)+(B+t) = (A+B)+(s+t) keeps |A+B| and the period group H, and
    # |A+s+H| = |A+H|; Kneser's bound is also symmetric in A and B.  So the
    # class representatives stand for every pair of their classes.
    classes = translation_classes(q)
    sidon = _sidon_flags(q)
    amask, asize = classes[i]
    A = ResidueSet(q, amask)
    for j in range(i, len(classes)):
        bmask, bsize = classes[j]
        # a class of size n holds n(n+1)/2 unordered pairs of its sets
        weight = asize * bsize if j > i else asize * (asize + 1) // 2
        yield weight, _inequality_instance(A, ResidueSet(q, bmask), sidon[i], sidon[j])


def _sampled_pair_checks(rng, samples: int, large: int, exact: list):
    """Both bounds on random pairs, with Pluennecke's where both sets are
    small enough, then larger Pluennecke pairs still within the exact cap.
    exact gets the violations of each Pluennecke check, one list each."""
    for _ in range(samples):
        q = rng.randrange(3, 61)
        A = _random_proper_subset(rng, q)
        B = _random_proper_subset(rng, q)
        bad = _inequality_instance(A, B, sidon_check(A), sidon_check(B))
        if 1 < A.size <= 12 and 1 < B.size <= 12:
            exact.append(_pluennecke_violations(A, B))
            bad += exact[-1]
        yield 1, bad
    for _ in range(large):
        q = rng.randrange(20, 61)
        A = ResidueSet.from_elements(q, rng.sample(range(q), rng.randrange(13, 17)))
        B = ResidueSet.from_elements(q, rng.sample(range(q), rng.randrange(2, 7)))
        exact.append(_pluennecke_violations(A, B))
        yield 1, exact[-1]


def suite_sumset_inequalities(cfg: RunConfig) -> dict:
    scale = _SCALE[cfg.profile]
    q_values = range(1, scale["ineq_q_max"] + 1)
    swept = _sweep(_class_pair_checks, [(q, 0, len(translation_classes(q))) for q in q_values], 24, cfg.workers)
    # Z_q has T = 2^q - 1 nonempty subsets, so T(T+1)/2 unordered pairs
    expected = sum(T * (T + 1) // 2 for T in ((1 << q) - 1 for q in q_values))
    if swept[1] != expected:
        raise AssertionError(f"{swept[1]} mask pairs do not cover the {expected} unordered pairs of nonempty sets")

    exact = []
    rng = cfg.rng("inequalities")
    sampled = _tally(_sampled_pair_checks(rng, scale["ineq_samples"], scale["pluennecke_large_samples"], exact))
    total, covered, bad = _add(swept, sampled)
    return _suite(
        "sumset_inequalities",
        total,
        bad,
        q_max=scale["ineq_q_max"],
        covered_instances=covered,
        pluennecke_exact_instances=len(exact),
    )


# ---------------------------------------------------------------------------
# 5. subgroup lemma


def _subgroup_lemma_checks(rng, samples: int):
    """Each proper nontrivial subgroup against every digital set at (2, 4),
    (2, 8) and (4, 8), then against sampled digital sets at (6, 36)."""
    enumerated = ((m, q, w.set) for m, q in ((2, 4), (2, 8), (4, 8)) for w in enumerate_digital_sets(m, q))
    sampled = ((6, 36, sample_digital_set(6, 36, rng)) for _ in range(samples))
    for m, q, A in chain(enumerated, sampled):
        for H in proper_nontrivial_subgroups(q):
            rep = subgroup_lemma_check(A, H)
            yield 1, [] if rep.holds else [
                {"m": m, "q": q, "set": sorted(A.elements), "subgroup_order": H.order,
                 "coset_bound": rep.coset_bound_holds, "subset_expansion": rep.subset_expansion_holds,
                 "gcd_bound": rep.gcd_bound_holds}
            ]


def suite_subgroup_lemma(cfg: RunConfig) -> dict:
    count, _, bad = _tally(_subgroup_lemma_checks(cfg.rng("subgroup_lemma"), _SCALE[cfg.profile]["sg_samples"]))
    return _suite("subgroup_lemma", count, bad)


# ---------------------------------------------------------------------------
# 6. carry extremality


def suite_carry_extremality(cfg: RunConfig) -> dict:
    ms = _SCALE[cfg.profile]["carry_ms"]
    reps = [verify_carry_extremality(m) for m in ms]
    _, count, bad = _tally(
        (rep.sets_scanned, [] if rep.holds else [
            {"m": m, "distinct_in_interval_orbit": rep.distinct_minimizers_in_interval_orbit,
             "nonzero_in_centered_orbit": rep.nonzero_minimizers_in_centered_orbit}
        ])
        for m, rep in zip(ms, reps)
    )
    minima = [
        {"m": m, "min_distinct_carries": rep.min_distinct_carries, "min_nonzero_pairs": rep.min_nonzero_pairs}
        for m, rep in zip(ms, reps)
    ]
    return _suite("carry_extremality", count, bad, minima=minima)


# ---------------------------------------------------------------------------
# 7. digital impact bound (two-AP exclusion theorem)


def suite_digital_impact_bound(cfg: RunConfig) -> dict:
    samples = _SCALE[cfg.profile]["digsetteo_samples"]
    rep = verify_digital_impact_bound(16, 32, samples=samples, seed=cfg.derived_seed("digital_impact_bound"))
    _, count, bad = _tally([(rep.samples, list(rep.counterexamples))])
    return _suite(
        "digital_impact_bound",
        count,
        bad,
        two_ap_sets=rep.two_ap_sets,
        checked_sets=rep.checked_sets,
        window=list(IMPACT_WINDOW),
    )


# ---------------------------------------------------------------------------
# 8. small-doubling classification


def suite_small_doubling(cfg: RunConfig) -> dict:
    m, q = _SCALE[cfg.profile]["corollary_mq"]
    rep = verify_small_doubling_classification(m, q)
    _, count, bad = _tally([(rep.sets_scanned, [s for s in rep.solutions if s["normal_form"] is None])])
    return _suite(
        "small_doubling_classification",
        count,
        bad,
        m=m,
        q=q,
        solutions=len(rep.solutions),
        note=LITERAL_CONCLUSION_NOTE,
    )


# ---------------------------------------------------------------------------
# 9. chain construction


def suite_construction(cfg: RunConfig) -> dict:
    specs = [build_construction(m) for m in _SCALE[cfg.profile]["construction_ms"]]
    checks = [
        (1, [] if s.size == s.closed_form_size else [{"m": s.m, "size": s.size, "closed_form": s.closed_form_size}])
        for s in specs
    ]
    # the last m listed is the largest; its density must be within 1/50 of 13/18
    spec = specs[-1]
    if spec.m >= 8 and 50 * abs(18 * spec.size - 13 * spec.ground) > 18 * spec.ground:
        checks[-1][1].append({"m": spec.m, "density": spec.density, "target": 13 / 18})

    spec3 = next(s for s in specs if s.m == 3)  # every profile lists m = 3
    p, A = project_to_prime(spec3)
    fam = construction_chain_family(spec3, p, A)
    checks.append((1, [] if fam.valid else [{"m": 3, "p": p, "violations": list(fam.violations)}]))
    _, count, bad = _tally(checks)
    info = {
        "m3_prime": p,
        "m3_complement_size": A.size,
        "m3_runs": fam.run_count,
        "m3_chains": len(fam.chains),
        # asymptotic regime: reported, never asserted
        "m3_xi2": xi_exact(A, 2),
        "m3_xi3": xi_exact(A, 3),
    }
    return _suite("construction", count, bad, densities={s.m: s.density for s in specs}, **info)


# ---------------------------------------------------------------------------
# 10. minimal equal-impact cardinality


def _mu_check(full, bounded) -> tuple[int, list]:
    """The two strategies agree, and mu(p) meets both lower bounds."""
    bad = [
        {"p": full.p, "field": key, "full": getattr(full, key), "bounded": getattr(bounded, key)}
        for key in ("mu", "witness_count", "witnesses_up_to_affine")
        if getattr(full, key) != getattr(bounded, key)
    ]
    if not full.bounds_hold:
        bad.append({"p": full.p, "mu": full.mu, "sqrt_bound": full.sqrt_bound, "log4_bound": full.log4_bound})
    return 1, bad


def suite_mu(cfg: RunConfig) -> dict:
    runs = [(compute_mu(p, "full"), compute_mu(p, "bounded")) for p in _SCALE[cfg.profile]["mu_ps"]]
    _, count, bad = _tally(_mu_check(full, bounded) for full, bounded in runs)
    table = [{"p": full.p, "mu": full.mu, "ratio": full.mu / full.p} for full, _ in runs]
    return _suite("mu", count, bad, table=table)


# ---------------------------------------------------------------------------
# orchestration


SUITES: list[tuple[str, Callable[[RunConfig], dict]]] = [
    ("oracle_equivalence", suite_oracle_equivalence),
    ("identities", suite_identities),
    ("boundary_values", suite_boundary_values),
    ("sumset_inequalities", suite_sumset_inequalities),
    ("subgroup_lemma", suite_subgroup_lemma),
    ("carry_extremality", suite_carry_extremality),
    ("digital_impact_bound", suite_digital_impact_bound),
    ("small_doubling_classification", suite_small_doubling),
    ("construction", suite_construction),
    ("mu", suite_mu),
]


def run_suites(cfg: RunConfig, names: Optional[list[str]] = None) -> dict:
    chosen = SUITES if names is None else [s for s in SUITES if s[0] in names]
    missing = [n for n in names or () if n not in dict(SUITES)]
    if missing:
        raise ValueError(f"unknown suites: {missing}")
    reports = []
    for name, fn in chosen:
        start = time.monotonic()
        report = fn(cfg)
        reports.append(report)
        line = {"suite": name, "seconds": round(time.monotonic() - start, 3)}
        line.update((key, report[key]) for key in ("instances", "covered_instances") if key in report)
        print(json.dumps(line), file=sys.stderr)
    return {
        "profile": cfg.profile,
        "seed": cfg.seed,
        "suites": reports,
        "passed": all(r["passed"] for r in reports),
    }


def canonical_json(report: dict) -> str:
    """Deterministic serialization: sorted keys, no whitespace drift."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))

"""Verification suites: every bound and identity in the library checked
against brute-force oracles at a configurable scale.

Each suite returns a plain dict that serializes to canonical JSON.  Wall
times never enter the structured output, so reports are byte-identical
across runs and worker counts; timing goes to stderr.
"""

from __future__ import annotations

import json
import sys
import time
from functools import lru_cache
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
    out = {
        "suite": name,
        "passed": not counterexamples,
        "instances": instances,
        "counterexamples": counterexamples,
        "skipped": [],
    }
    out.update(extra)
    return out


def _random_proper_subset(rng, q: int) -> ResidueSet:
    mask = rng.randrange(1, (1 << q) - 1)
    return ResidueSet(q, mask)


def _sweep(chunk, spans: list[tuple[int, int, int]], parts: int, workers: int) -> tuple[list[int], list]:
    """Run chunk on tasks (q, lo, hi), about 1/parts of each span (q, first,
    end); chunk returns (*counts, entries): sum each count, join entries."""
    tasks = []
    for q, first, end in spans:
        step = max(1, (end - first) // parts)
        for lo in range(first, end, step):
            tasks.append((q, lo, min(lo + step, end)))
    results = ordered_map(chunk, tasks, workers, chunksize=1)
    return [sum(col) for col in zip(*(r[:-1] for r in results))], [e for r in results for e in r[-1]]


def _proper_masks(q_values: range) -> list[tuple[int, int, int]]:
    """The nonempty proper masks 1 .. 2^q - 2 of each Z_q."""
    return [(q, 1, (1 << q) - 1) for q in q_values]


# ---------------------------------------------------------------------------
# 1. oracle equivalence


def _oracle_chunk(args: tuple[int, int, int]) -> tuple[int, list]:
    q, lo, hi = args
    bad = []
    count = 0
    for mask in range(lo, hi):
        A = ResidueSet(q, mask)
        for n in range(0, q + 1):
            if n > q - A.size:
                break  # xi = q beyond this point; covered by boundary suite
            count += 1
            rn = xi_naive(A, n)
            rs = xi_search(A, n)
            if rn.value != rs.value or rn.witness != rs.witness:
                bad.append(
                    {
                        "q": q,
                        "set": sorted(A.elements),
                        "n": n,
                        "naive": rn.value,
                        "search": rs.value,
                        "command": f"zqadd xi --q {q} --set "
                        f"{','.join(map(str, sorted(A.elements)))} --n {n}",
                    }
                )
    return count, bad


def suite_oracle_equivalence(cfg: RunConfig) -> dict:
    scale = _SCALE[cfg.profile]
    (total,), bad = _sweep(_oracle_chunk, _proper_masks(range(1, scale["q_max"] + 1)), 16, cfg.workers)
    return _suite("oracle_equivalence", total, bad, q_max=scale["q_max"])


# ---------------------------------------------------------------------------
# 2. identities


def _identity_violation(A: ResidueSet, t: int) -> Optional[dict]:
    q = A.q
    dec = decompose(A, t)
    lhs = sumset_mask(A.mask, 1 | 1 << t, q).bit_count()
    a = alpha(A, t)
    if dec.alpha != a or lhs != A.size + a or dec.reassemble() != A:
        return {
            "q": q,
            "set": sorted(A.elements),
            "t": t,
            "sumset_size": lhs,
            "alpha": a,
            "decomposition_alpha": dec.alpha,
            "command": f"zqadd alpha --q {q} --set "
            f"{','.join(map(str, sorted(A.elements)))} --d1 {t}",
        }
    return None


def _identity_chunk(args: tuple[int, int, int]) -> tuple[int, list]:
    q, lo, hi = args
    bad = []
    count = 0
    for mask in range(lo, hi):
        A = ResidueSet(q, mask)
        for t in range(1, q):
            count += 1
            v = _identity_violation(A, t)
            if v is not None:
                bad.append(v)
        count += 1
        if xi_search(A, 2).value != A.size + min_alpha(A) and A.size <= q - 2:
            bad.append({"q": q, "set": sorted(A.elements), "identity": "xi2"})
    return count, bad


def suite_identities(cfg: RunConfig) -> dict:
    scale = _SCALE[cfg.profile]
    q_values = range(2, scale["q_max"] + 1)
    (total,), bad = _sweep(_identity_chunk, _proper_masks(q_values), 16, cfg.workers)

    rng = cfg.rng("identities")
    for _ in range(scale["identity_samples"]):
        q = rng.randrange(2, 65)
        A = _random_proper_subset(rng, q)
        t = rng.randrange(1, q)
        total += 1
        v = _identity_violation(A, t)
        if v is not None:
            bad.append(v)
    return _suite("identities", total, bad, q_max=scale["q_max"])


# ---------------------------------------------------------------------------
# 3. boundary values


def suite_boundary_values(cfg: RunConfig) -> dict:
    scale = _SCALE[cfg.profile]
    rng = cfg.rng("boundary")
    bad = []
    count = 0
    for _ in range(scale["boundary_samples"]):
        q = rng.randrange(3, 15)
        A = _random_proper_subset(rng, q)
        m = A.size
        count += 1
        # 1 <= m <= q-1.  xi(q-m) = q - |H(A)|: the missed sums form a coset
        # of the period group, so q-1 exactly when A is aperiodic
        n_over = rng.randrange(q - m + 1, q + 1)
        checks = [(1, m), (q - m, q - period_group(A).order), (n_over, q)]
        for n, expect in checks:
            got = xi_naive(A, n).value
            if got != expect:
                bad.append(
                    {
                        "q": q,
                        "set": sorted(A.elements),
                        "n": n,
                        "expected": expect,
                        "got": got,
                        "command": f"zqadd xi --q {q} --set "
                        f"{','.join(map(str, sorted(A.elements)))} --n {n}",
                    }
                )
        # a large-q spot check of xi(1) = |A| alone (cheap at any q)
        q2 = rng.randrange(16, 65)
        A2 = _random_proper_subset(rng, q2)
        count += 1
        if xi_naive(A2, 1).value != A2.size:
            bad.append({"q": q2, "set": sorted(A2.elements), "n": 1, "identity": "xi1"})
    return _suite("boundary_values", count, bad)


# ---------------------------------------------------------------------------
# 4. sumset inequalities


def _inequality_instance(
    A: ResidueSet, B: ResidueSet, a_sidon: Optional[bool] = None, b_sidon: Optional[bool] = None
) -> list:
    """Violations of Kneser's bound on the pair, and of the Sidon sumset
    bound with B as the Sidon set and with A as the Sidon set (once if
    A = B).  The flags say whether A and B are Sidon; each is computed when
    left out."""
    out = []
    kn = kneser_check(A, B)
    if not kn.holds:
        out.append(
            {
                "inequality": "kneser",
                "q": A.q,
                "A": sorted(A.elements),
                "B": sorted(B.elements),
                "lhs": kn.lhs,
                "rhs": kn.rhs,
            }
        )
    if a_sidon is None:
        a_sidon = sidon_check(A)
    if b_sidon is None:
        b_sidon = sidon_check(B)
    for X, Y, y_sidon in ((A, B, b_sidon), (B, A, a_sidon and A != B)):
        if y_sidon:
            sb = sidon_sumset_bound_check(X, Y)
            if not sb.holds:
                out.append(
                    {
                        "inequality": "sidon_sumset",
                        "q": X.q,
                        "A": sorted(X.elements),
                        "B": sorted(Y.elements),
                        "sumset_size": sb.sumset_size,
                    }
                )
    return out


@lru_cache(maxsize=None)
def _sidon_flags(q: int) -> tuple[bool, ...]:
    """Whether each translation class of Z_q is a class of Sidon sets."""
    return tuple(sidon_check(ResidueSet(q, rep)) for rep, _ in translation_classes(q))


def _pluennecke_check(A: ResidueSet, B: ResidueSet, bad: list) -> None:
    """Check Pluennecke's bound on (A, B), which the search decides exactly."""
    rep = pluennecke_subset(A, B)
    if not rep.holds:
        bad.append(
            {
                "inequality": "pluennecke",
                "q": A.q,
                "A": sorted(A.elements),
                "B": sorted(B.elements),
                "ratio": str(rep.ratio),
                "beta": str(rep.beta),
            }
        )


def _ineq_chunk(args: tuple[int, int, int]) -> tuple[int, int, list]:
    """Rows lo .. hi-1 of the unordered pairs (i <= j) of translation
    classes of Z_q: (pairs checked, mask pairs covered, violations)."""
    # Both bounds are unchanged under A -> A+s, B -> B+t, since
    # (A+s)+(B+t) = (A+B)+(s+t) keeps |A+B| and the period group H, and
    # |A+s+H| = |A+H|; Kneser's bound is also symmetric in A and B.  So the
    # class representatives stand for every pair of their classes.
    q, lo, hi = args
    classes = translation_classes(q)
    sidon = _sidon_flags(q)
    bad = []
    count = covered = 0
    for i in range(lo, hi):
        amask, asize = classes[i]
        A = ResidueSet(q, amask)
        for j in range(i, len(classes)):
            bmask, bsize = classes[j]
            count += 1
            # a class of size n holds n(n+1)/2 unordered pairs of its sets
            covered += asize * bsize if j > i else asize * (asize + 1) // 2
            bad.extend(_inequality_instance(A, ResidueSet(q, bmask), sidon[i], sidon[j]))
    return count, covered, bad


def suite_sumset_inequalities(cfg: RunConfig) -> dict:
    scale = _SCALE[cfg.profile]
    q_values = range(1, scale["ineq_q_max"] + 1)
    spans = [(q, 0, len(translation_classes(q))) for q in q_values]
    (total, covered), bad = _sweep(_ineq_chunk, spans, 24, cfg.workers)
    # Z_q has T = 2^q - 1 nonempty subsets, so T(T+1)/2 unordered pairs
    expected = sum(T * (T + 1) // 2 for T in ((1 << q) - 1 for q in q_values))
    if covered != expected:
        raise AssertionError(f"{covered} mask pairs do not cover the {expected} unordered pairs of nonempty sets")

    rng = cfg.rng("inequalities")
    pluennecke = 0
    samples = scale["ineq_samples"] + scale["pluennecke_large_samples"]
    for _ in range(scale["ineq_samples"]):
        q = rng.randrange(3, 61)
        A = _random_proper_subset(rng, q)
        B = _random_proper_subset(rng, q)
        bad.extend(_inequality_instance(A, B, sidon_check(A), sidon_check(B)))
        if 1 < A.size <= 12 and 1 < B.size <= 12:
            _pluennecke_check(A, B, bad)
            pluennecke += 1
    # dedicated larger Pluennecke instances, still within the exact cap
    for _ in range(scale["pluennecke_large_samples"]):
        q = rng.randrange(20, 61)
        elems = rng.sample(range(q), rng.randrange(13, 17))
        A = ResidueSet.from_elements(q, elems)
        B = ResidueSet.from_elements(q, rng.sample(range(q), rng.randrange(2, 7)))
        _pluennecke_check(A, B, bad)
        pluennecke += 1
    return _suite(
        "sumset_inequalities",
        total + samples,
        bad,
        q_max=scale["ineq_q_max"],
        covered_instances=covered + samples,
        pluennecke_exact_instances=pluennecke,
    )


# ---------------------------------------------------------------------------
# 5. subgroup lemma


def suite_subgroup_lemma(cfg: RunConfig) -> dict:
    scale = _SCALE[cfg.profile]
    bad = []
    count = 0

    def check(A: ResidueSet, m: int, q: int):
        nonlocal count
        for H in proper_nontrivial_subgroups(q):
            count += 1
            rep = subgroup_lemma_check(A, H)
            if not rep.holds:
                bad.append(
                    {
                        "m": m,
                        "q": q,
                        "set": sorted(A.elements),
                        "subgroup_order": H.order,
                        "coset_bound": rep.coset_bound_holds,
                        "subset_expansion": rep.subset_expansion_holds,
                        "gcd_bound": rep.gcd_bound_holds,
                    }
                )

    for m, q in ((2, 4), (2, 8), (4, 8)):
        for w in enumerate_digital_sets(m, q):
            check(w.set, m, q)
    rng = cfg.rng("subgroup_lemma")
    for _ in range(scale["sg_samples"]):
        A = sample_digital_set(6, 36, rng)
        check(A, 6, 36)
    return _suite("subgroup_lemma", count, bad)


# ---------------------------------------------------------------------------
# 6. carry extremality


def suite_carry_extremality(cfg: RunConfig) -> dict:
    scale = _SCALE[cfg.profile]
    bad = []
    minima = []
    count = 0
    for m in scale["carry_ms"]:
        rep = verify_carry_extremality(m)
        count += rep.sets_scanned
        minima.append(
            {
                "m": m,
                "min_distinct_carries": rep.min_distinct_carries,
                "min_nonzero_pairs": rep.min_nonzero_pairs,
            }
        )
        if not rep.holds:
            bad.append(
                {
                    "m": m,
                    "distinct_in_interval_orbit": rep.distinct_minimizers_in_interval_orbit,
                    "nonzero_in_centered_orbit": rep.nonzero_minimizers_in_centered_orbit,
                }
            )
    return _suite("carry_extremality", count, bad, minima=minima)


# ---------------------------------------------------------------------------
# 7. digital impact bound (two-AP exclusion theorem)


def suite_digital_impact_bound(cfg: RunConfig) -> dict:
    scale = _SCALE[cfg.profile]
    rep = verify_digital_impact_bound(
        16,
        32,
        samples=scale["digsetteo_samples"],
        seed=cfg.derived_seed("digital_impact_bound"),
    )
    return _suite(
        "digital_impact_bound",
        rep.samples,
        list(rep.counterexamples),
        two_ap_sets=rep.two_ap_sets,
        checked_sets=rep.checked_sets,
        window=list(IMPACT_WINDOW),
    )


# ---------------------------------------------------------------------------
# 8. small-doubling classification


def suite_small_doubling(cfg: RunConfig) -> dict:
    m, q = _SCALE[cfg.profile]["corollary_mq"]
    rep = verify_small_doubling_classification(m, q)
    bad = [s for s in rep.solutions if s["normal_form"] is None]
    return _suite(
        "small_doubling_classification",
        rep.sets_scanned,
        bad,
        m=m,
        q=q,
        solutions=len(rep.solutions),
        note=LITERAL_CONCLUSION_NOTE,
    )


# ---------------------------------------------------------------------------
# 9. chain construction


def suite_construction(cfg: RunConfig) -> dict:
    scale = _SCALE[cfg.profile]
    bad = []
    count = 0
    densities = {}
    for m in scale["construction_ms"]:
        count += 1
        spec = build_construction(m)
        densities[m] = spec.density
        if spec.size != spec.closed_form_size:
            bad.append({"m": m, "size": spec.size, "closed_form": spec.closed_form_size})
    # the last m listed is the largest; its density must be within 1/50 of 13/18
    if spec.m >= 8 and 50 * abs(18 * spec.size - 13 * spec.ground) > 18 * spec.ground:
        bad.append({"m": spec.m, "density": spec.density, "target": 13 / 18})

    spec3 = build_construction(3)
    p, A = project_to_prime(spec3)
    fam = construction_chain_family(spec3, p, A)
    count += 1
    if not fam.valid:
        bad.append({"m": 3, "p": p, "violations": list(fam.violations)})
    info = {
        "m3_prime": p,
        "m3_complement_size": A.size,
        "m3_runs": fam.run_count,
        "m3_chains": len(fam.chains),
        # asymptotic regime: reported, never asserted
        "m3_xi2": xi_exact(A, 2),
        "m3_xi3": xi_exact(A, 3),
    }
    return _suite("construction", count, bad, densities=densities, **info)


# ---------------------------------------------------------------------------
# 10. minimal equal-impact cardinality


def suite_mu(cfg: RunConfig) -> dict:
    scale = _SCALE[cfg.profile]
    bad = []
    table = []
    count = 0
    for p in scale["mu_ps"]:
        full = compute_mu(p, "full")
        bounded = compute_mu(p, "bounded")
        count += 1
        for key in ("mu", "witness_count", "witnesses_up_to_affine"):
            got = {"full": getattr(full, key), "bounded": getattr(bounded, key)}
            if got["full"] != got["bounded"]:
                bad.append({"p": p, "field": key, **got})
        if not full.bounds_hold:
            bad.append(
                {
                    "p": p,
                    "mu": full.mu,
                    "sqrt_bound": full.sqrt_bound,
                    "log4_bound": full.log4_bound,
                }
            )
        table.append({"p": p, "mu": full.mu, "ratio": full.mu / p})
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
        counts = "".join(
            f" {key}={report[key]}" for key in ("instances", "covered_instances") if key in report
        )
        print(f"[{name}] {time.monotonic() - start:.1f}s{counts}", file=sys.stderr)
    return {
        "profile": cfg.profile,
        "seed": cfg.seed,
        "suites": reports,
        "passed": all(r["passed"] for r in reports),
    }


def canonical_json(report: dict) -> str:
    """Deterministic serialization: sorted keys, no whitespace drift."""
    return json.dumps(report, sort_keys=True, separators=(",", ":"))

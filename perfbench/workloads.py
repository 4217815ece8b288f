"""The three workloads: their inputs, their operations and the checks of
every answer.

A workload is built in two steps.  ``make_inputs(seed)`` generates the
inputs (this is the set-up that ``setup_s`` times).  ``make_ops(inputs,
fn)`` turns them into one round of operations, resolving each library
function through ``fn(module, name)`` so a traced run calls the traced
wrapper.  Every operation carries a check built on ``oracle``, never on
zqadd.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import oracle

import zqadd
from zqadd.core import ResidueSet
from zqadd.digital import DigitalSetWitness


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]  # problems with one answer; [] when right


def _problems(**conditions: bool) -> list[str]:
    return [name for name, ok in conditions.items() if not ok]


# ---------------------------------------------------------------------------
# verify_desk: `zqadd verify-all --profile desk --seed 42`, in process

# The scale of each verification profile, as far as the closed-form
# coverage counts need it.  The benchmark runs desk; smoke is for selftest.py.
SCALES = {
    "desk": dict(q_max=12, identity_samples=10_000, boundary_samples=1_000, ineq_samples=10_000,
                 pluennecke_large=100, sg_samples=1_000, carry_ms=(3, 4, 5, 6), digital_samples=500,
                 corollary_mq=(16, 32), construction_ms=6, mu_ps=4),
    "smoke": dict(q_max=8, ineq_q_max=9, identity_samples=500, boundary_samples=100, ineq_samples=500,
                  pluennecke_large=10, sg_samples=100, carry_ms=(3, 4), digital_samples=50,
                  corollary_mq=(8, 16), construction_ms=3, mu_ps=2),
}
# suites re-run after the timed verdict, to compare their report bytes
RERUN = ["boundary_values", "carry_extremality", "digital_impact_bound", "construction", "mu"]


def _proper_divisors(q: int) -> int:
    return sum(1 for d in range(2, q) if q % d == 0)


def coverage(profile: str) -> dict[str, int]:
    """The number of instances each suite must cover, in closed form."""
    s = SCALES[profile]
    q_max = s["q_max"]
    T = [(1 << q) - 1 for q in range(s.get("ineq_q_max", q_max) + 1)]
    m, q = s["corollary_mq"]
    return {
        # every nonempty proper A, n = 0 .. q - |A|
        "oracle_equivalence": sum(math.comb(q, k) * (q - k + 1) for q in range(2, q_max + 1) for k in range(1, q)),
        # every nonempty proper A: q - 1 differences and the xi(2) identity
        "identities": sum(q * ((1 << q) - 2) for q in range(2, q_max + 1)) + s["identity_samples"],
        "boundary_values": 2 * s["boundary_samples"],
        # unordered pairs of nonempty masks, plus the sampled instances
        "sumset_inequalities": sum(t * (t + 1) // 2 for t in T[1:]) + s["ineq_samples"] + s["pluennecke_large"],
        # digital sets for (m, q) times the proper nontrivial subgroups of Z_q
        "subgroup_lemma": sum((q // m) ** m * _proper_divisors(q) for m, q in ((2, 4), (2, 8), (4, 8)))
        + s["sg_samples"] * _proper_divisors(36),
        "carry_extremality": sum(m**m for m in s["carry_ms"]),
        "digital_impact_bound": s["digital_samples"],
        "small_doubling_classification": (q // m) ** m,
        "construction": s["construction_ms"] + 1,
        "mu": s["mu_ps"],
    }


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _run_cli(main, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _check_verify(profile: str):
    def check(result) -> list[str]:
        code, text = result
        report = json.loads(text)
        suites = {s["suite"]: s for s in report["suites"]}
        expected = coverage(profile)
        bad = _problems(
            exit_code_0=code == 0,
            canonical_bytes=text.strip() == _canonical(report),
            all_suites=list(suites) == list(expected),
            passed=report["passed"] is True,
        )
        for name, s in suites.items():
            bad += [
                f"{name}: {p}"
                for p in _problems(
                    passed=s["passed"] is True,
                    no_counterexamples=s["counterexamples"] == [],
                    no_skips=s["skipped"] == [],
                    coverage=s.get("covered_instances", s["instances"]) == expected.get(name),
                )
            ]
        return bad

    return check


def verify_inputs(seed: int, profile: str = "desk") -> dict:
    # the verification seed is the one the desk gate uses, whatever --seed is
    return {"profile": profile, "argv": ["--profile", profile, "--seed", "42"]}


def verify_ops(inputs: dict, fn) -> list[Op]:
    main = fn("cli", "main")
    argv = ["verify-all", *inputs["argv"]]
    return [Op("verify_all", lambda: _run_cli(main, argv), _check_verify(inputs["profile"]))]


def verify_final(inputs: dict, answers: list, fn) -> list[str]:
    """Re-run the cheap suites and compare their bytes with the timed run."""
    code, text = _run_cli(fn("cli", "main"), ["verify", *RERUN, *inputs["argv"]])
    again = {s["suite"]: _canonical(s) for s in json.loads(text)["suites"]}
    first = {s["suite"]: _canonical(s) for s in json.loads(answers[0][1])["suites"]}
    return [f"{name}: report bytes differ between runs" for name in RERUN if again.get(name) != first[name]]


# ---------------------------------------------------------------------------
# mu_search: compute_mu(p, "bounded")

MU_PRIMES = (13, 17, 19, 23)
MU_REFERENCE = Path(__file__).with_name("mu_reference.json")


def mu_inputs(seed: int) -> dict:
    rows = json.loads(MU_REFERENCE.read_text())["rows"]
    return {"reference": {r["p"]: r for r in rows}}


def _check_mu(p: int, ref: dict):
    def check(rec) -> list[str]:
        sqrt_bound, log4_bound = oracle.mu_bounds(p)
        bad = _problems(
            prime=rec.p == p,
            mu_matches_reference=rec.mu == ref["mu"],
            witness_count_matches_reference=rec.witness_count == ref["witness_count"],
            classes_match_reference=[list(w) for w in rec.witnesses_up_to_affine] == ref["affine_classes"],
            above_log4_bound=rec.mu > log4_bound,
            above_sqrt_bound=rec.mu >= 2 * p / 3 or rec.mu >= sqrt_bound - 1e-9,
            bounds_hold=rec.bounds_hold is True,
        )
        for w in rec.witnesses_up_to_affine:
            x2, x3 = oracle.xi2_xi3(set(w), p)
            bad += [f"witness {w}: {x}" for x in _problems(size_is_mu=len(w) == rec.mu, xi2_eq_xi3=x2 == x3)]
        return bad

    return check


def mu_ops(inputs: dict, fn) -> list[Op]:
    compute_mu = fn("chains", "compute_mu")
    ref = inputs["reference"]
    return [
        Op(f"p{p}", (lambda p=p: compute_mu(p, "bounded")), _check_mu(p, ref[p]))
        for p in MU_PRIMES
    ]


# ---------------------------------------------------------------------------
# queries: one closed-loop client, a seeded stream of single-set questions

XI_CONFIGS = ((24, 4), (32, 5), (40, 5), (32, 8))
XI_EXHAUSTIVE_MAX = 100_000  # C(q-1, n-1) up to which xi is checked by brute force
CONSTRUCTION_MS = (3, 4, 5, 6)

# questions of each kind in one stream; the stream is shuffled by the seed
STREAM = {
    "xi_search": 280,  # per (q, n)
    "alpha_profile": 400,
    "decompose": 400,
    "kneser_check": 400,
    "sumset": 400,
    "uniqueness_pm_d": 160,
    "uniqueness_family": 80,  # per family
    "stability": 160,
    "carry_stats": 240,
    "pluennecke_subset": 160,
    "construction": 4,  # per m, for each of the two chain questions
}


def _sample(rng: random.Random, q: int, k: int) -> ResidueSet:
    return ResidueSet.from_elements(q, rng.sample(range(q), k))


def _units(q: int) -> list[int]:
    return [c for c in range(1, q) if math.gcd(c, q) == 1]


def _affine_image(elements, c: int, s: int, q: int) -> ResidueSet:
    return ResidueSet.from_elements(q, {(c * x + s) % q for x in elements})


def _two_intervals(rng: random.Random, q: int, max_len: int) -> list[int]:
    """[0, l1) and [l1 + g1, l1 + g1 + l2) with both gaps at least 2."""
    while True:
        l1, l2 = rng.randint(2, max_len), rng.randint(2, max_len)
        g1 = rng.randint(2, q - l1 - l2 - 2)
        if q - l1 - l2 - g1 >= 2:
            return list(range(l1)) + list(range(l1 + g1, l1 + g1 + l2))


def _optimal_differences(A: ResidueSet) -> tuple[int, set[int]]:
    """min_t alpha_t(A) and the t attaining it."""
    al = oracle.alpha_masks(A.mask, A.q)
    k = min(al)
    return k, {t + 1 for t, a in enumerate(al) if a == k}


def _families(q: int, m: int) -> tuple[set[int], set[int]]:
    """[0, m-2] + {m} and {0} + [2, m]."""
    return set(range(m - 1)) | {m}, {0} | set(range(2, m + 1))


def queries_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    qs: list[tuple[str, tuple, tuple]] = []  # (kind, call arguments, check arguments)
    for q, n in XI_CONFIGS:
        for _ in range(STREAM["xi_search"]):
            A = _sample(rng, q, rng.randint(q // 5, q // 3))
            qs.append(("xi_search", (A, n), (A, n)))
    for _ in range(STREAM["alpha_profile"]):
        q = rng.randint(64, 256)
        A = _sample(rng, q, rng.randint(q // 4, q // 2))
        qs.append(("alpha_profile", (A,), (A,)))
    for _ in range(STREAM["decompose"]):
        q = rng.randint(64, 256)
        args = (_sample(rng, q, rng.randint(q // 4, q // 2)), rng.randrange(1, q))
        qs.append(("decompose", args, args))
    for kind in ("kneser_check", "sumset"):
        for _ in range(STREAM[kind]):
            q = rng.randint(64, 1024)
            args = (_sample(rng, q, rng.randint(2, q // 8)), _sample(rng, q, rng.randint(2, 16)))
            qs.append((kind, args, args))
    for _ in range(STREAM["uniqueness_pm_d"]):
        while True:
            q = rng.randrange(101, 200, 2)
            d = rng.choice(_units(q))
            A = _affine_image(_two_intervals(rng, q, q // 6), d, rng.randrange(q), q)
            if _optimal_differences(A) == (2, {d, q - d}):
                break
        qs.append(("check_uniqueness", (A,), (A, False)))
    for family in (0, 1):
        for _ in range(STREAM["uniqueness_family"]):
            q = rng.randrange(101, 200, 2)
            base = _families(q, rng.randint(6, q // 3))[family]
            A = _affine_image(base, rng.choice(_units(q)), rng.randrange(q), q)
            qs.append(("check_uniqueness", (A,), (A, True)))
    for _ in range(STREAM["stability"]):
        while True:
            q = rng.randint(20, 40)
            A = _affine_image(_two_intervals(rng, q, q // 3), rng.choice(_units(q)), rng.randrange(q), q)
            if _optimal_differences(A)[0] == 2:
                break
        qs.append(("stability", (A,), (A,)))
    for _ in range(STREAM["carry_stats"]):
        m = rng.randint(3, 12)
        digits = tuple(r + rng.randrange(m) * m for r in range(m))
        w = DigitalSetWitness(ResidueSet.from_elements(m * m, digits), m, digits)
        qs.append(("carry_stats", (w,), (w,)))
    for _ in range(STREAM["pluennecke_subset"]):
        q = rng.randint(20, 60)
        args = (_sample(rng, q, rng.randint(6, 10)), _sample(rng, q, rng.randint(2, 5)))
        qs.append(("pluennecke_subset", args, args))
    for m in CONSTRUCTION_MS:
        spec = zqadd.build_construction(m)
        p, A = zqadd.project_to_prime(spec)
        d2 = spec.d % p
        k_bound = sum(len(ch) for ch in spec.chains)
        for _ in range(STREAM["construction"]):
            qs.append(("extract_chain_structure", (A, 1, d2, k_bound), (A, d2, m)))
            qs.append(("equal_impact_witnesses", (A,), (A,)))
    rng.shuffle(qs)
    return {"stream": qs}


# -- checks, one per question kind ------------------------------------------


def _check_xi(A: ResidueSet, n: int):
    def check(res) -> list[str]:
        q = A.q
        a, b = oracle.members(A.mask), oracle.members(res.witness.mask)
        size, _, rhs = oracle.kneser(a, b, q)
        out = _problems(
            exact=res.exact is True,
            witness_size=len(b) == n,
            witness_has_0=0 in b,
            value_is_sumset_size=size == res.value,
            kneser=size >= rhs,
            cauchy_davenport=not oracle.is_prime(q) or res.value >= min(q, len(a) + n - 1),
        )
        if math.comb(q - 1, n - 1) <= XI_EXHAUSTIVE_MAX:
            out += _problems(exhaustive_minimum=res.value == oracle.xi_min(A.mask, n, q))
        return out

    return check


def _check_alpha_profile(A: ResidueSet):
    def check(prof) -> list[str]:
        a = set(oracle.members(A.mask))
        return _problems(
            every_t=sorted(prof) == list(range(1, A.q)),
            alpha_t=all(prof[t] == oracle.alpha(a, t, A.q) for t in prof),
        )

    return check


def _check_decompose(A: ResidueSet, t: int):
    def check(dec) -> list[str]:
        q = A.q
        a = set(oracle.members(A.mask))
        order = q // math.gcd(t, q)
        pieces = [[(r + j * t) % q for j in range(order)] for r in dec.full_cosets]
        pieces += [[(s + j * t) % q for j in range(n)] for s, n in dec.progressions]
        union = set().union(*pieces)
        return _problems(
            difference=dec.difference == t % q,
            reassembles=union == a and sum(map(len, pieces)) == len(a),
            maximal=all(
                (s - t) % q not in a and (s + n * t) % q not in a and n < order for s, n in dec.progressions
            ),
            alpha=len(dec.progressions) == oracle.alpha(a, t, q),
        )

    return check


def _check_kneser(A: ResidueSet, B: ResidueSet):
    def check(rep) -> list[str]:
        size, order, rhs = oracle.kneser(oracle.members(A.mask), oracle.members(B.mask), A.q)
        return _problems(
            lhs=rep.lhs == size,
            period=rep.H.order == order,
            rhs=rep.rhs == rhs,
            holds=rep.holds is True and rep.lhs >= rep.rhs,
        )

    return check


def _check_sumset(A: ResidueSet, B: ResidueSet):
    def check(S) -> list[str]:
        own = oracle.sumset(oracle.members(A.mask), oracle.members(B.mask), A.q)
        return _problems(sumset=S.q == A.q and oracle.members(S.mask) == sorted(own))

    return check


_FAMILY = {"exception_interval_plus_point": 0, "exception_point_plus_interval": 1}


def _check_uniqueness(A: ResidueSet, family: bool):
    def check(v) -> list[str]:
        q, m = A.q, A.size
        k, diffs = _optimal_differences(A)
        out = _problems(
            min_alpha_2=k == 2,
            difference_set=v.difference_set == tuple(sorted(diffs)),
            expected_class=(v.classification in _FAMILY) == family,
        )
        if v.classification == "unique_pm_d":
            d = min(diffs)
            return out + _problems(pm_d=diffs == {d, q - d})
        if v.classification not in _FAMILY:
            return out + [f"classification {v.classification}"]
        c, s = v.detail["scale"], v.detail["shift"]
        image = {(pow(c, -1, q) * x + s) % q for x in oracle.members(A.mask)}
        return out + _problems(affine_map=image == _families(q, m)[_FAMILY[v.classification]])

    return check


def _check_stability(A: ResidueSet):
    def check(rep) -> list[str]:
        q = A.q
        k, diffs = _optimal_differences(A)
        opt = tuple(sorted(diffs))
        out = _problems(k=rep.k == k, optimal_differences=rep.optimal_differences == opt)
        unstable = oracle.unstable_witness(A.mask, q, k, opt)
        if rep.status == "unstable":
            d, W = rep.witness
            return out + _problems(
                own_search_agrees=unstable,
                witness_difference=d in opt,
                witness_distance=(W.mask ^ A.mask).bit_count() <= k,
                witness_alpha=(oracle.rot(W.mask, d, q) & ~W.mask).bit_count() < k,
            )
        return out + _problems(status=rep.status == "stable", own_search_agrees=not unstable)

    return check


def _check_carries(w: DigitalSetWitness):
    def check(st) -> list[str]:
        distinct, nonzero = oracle.carries(list(w.residue_map), w.m)
        return _problems(distinct=st.distinct_carries == tuple(sorted(distinct)), nonzero=st.nonzero_pair_count == nonzero)

    return check


def _check_pluennecke(A: ResidueSet, B: ResidueSet):
    def check(rep) -> list[str]:
        q = A.q
        a, b = oracle.members(A.mask), oracle.members(B.mask)
        sub = oracle.members(rep.best_subset.mask)
        beta = Fraction(len(oracle.sumset(a, b, q)), len(a))
        own_ratio = Fraction(len(oracle.sumset(sub, oracle.sumset(b, b, q), q)), len(sub)) if sub else None
        return _problems(
            exact=rep.exact is True,
            beta=rep.beta == beta,
            subset_of_A=bool(sub) and set(sub) <= set(a),
            ratio_of_subset=rep.ratio == own_ratio,
            minimum=rep.ratio == oracle.min_subset_ratio(a, b, q),
            pluennecke=rep.ratio <= beta * beta,
        )

    return check


def _check_chains(A: ResidueSet, d2: int, m: int):
    def check(fam) -> list[str]:
        p = A.q
        a = set(oracle.members(A.mask))
        comp = set(range(p)) - a
        runs = [run for chain in fam.chains for run in chain]
        out = _problems(
            valid=fam.valid,
            complement_size=len(comp) == oracle.construction_size(m),
            partition=set().union(*map(set, runs)) == comp and sum(map(len, runs)) == len(comp),
            run_count=fam.run_count == len(runs),
            maximal_runs=all(
                all((r[i] + 1) % p == r[i + 1] for i in range(len(r) - 1))
                and (r[0] - 1) % p in a
                and (r[-1] + 1) % p in a
                for r in runs
            ),
        )
        for chain in fam.chains:
            out += _problems(
                grows_by_one=[len(r) for r in chain] == list(range(1, len(chain) + 1)),
                head_minus_d2_in_A=(chain[0][0] - d2) % p in a,
                linked_by_d2=all(
                    oracle.translate(chain[i + 1], -d2, p) & comp == set(chain[i]) for i in range(len(chain) - 1)
                ),
            )
        return out

    return check


def _check_equal_impact(A: ResidueSet):
    def check(pair) -> list[str]:
        if pair is None:
            return ["no witness pair"]
        p, (d1, d2) = A.q, pair
        xi2 = A.size + min(oracle.alpha_masks(A.mask, p))
        three = (A.mask | oracle.rot(A.mask, d1, p) | oracle.rot(A.mask, d2, p)).bit_count()
        return _problems(distinct=len({0, d1 % p, d2 % p}) == 3, xi3_attains_xi2=three == xi2)

    return check


_QUERY = {
    # kind: (module, function, check builder)
    "xi_search": ("impact", "xi_search", _check_xi),
    "alpha_profile": ("progressions", "alpha_profile", _check_alpha_profile),
    "decompose": ("progressions", "decompose", _check_decompose),
    "kneser_check": ("core", "kneser_check", _check_kneser),
    "sumset": ("core", "sumset", _check_sumset),
    "check_uniqueness": ("progressions", "check_uniqueness", _check_uniqueness),
    "stability": ("progressions", "stability", _check_stability),
    "carry_stats": ("digital", "carry_stats", _check_carries),
    "pluennecke_subset": ("impact", "pluennecke_subset", _check_pluennecke),
    "extract_chain_structure": ("chains", "extract_chain_structure", _check_chains),
    "equal_impact_witnesses": ("chains", "equal_impact_witnesses", _check_equal_impact),
}


def queries_ops(inputs: dict, fn) -> list[Op]:
    ops = []
    for kind, args, check_args in inputs["stream"]:
        module, name, make_check = _QUERY[kind]
        f = fn(module, name)
        ops.append(Op(kind, (lambda f=f, args=args: f(*args)), make_check(*check_args)))
    return ops


# ---------------------------------------------------------------------------

WORKLOADS = {
    "verify_desk": (verify_inputs, verify_ops, verify_final),
    "mu_search": (mu_inputs, mu_ops, None),
    "queries": (queries_inputs, queries_ops, None),
}

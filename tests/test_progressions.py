"""AP decompositions, uniqueness classification, stable components."""

import math
import random
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zqadd import progressions
from zqadd.core import BudgetExceededError, ResidueSet, interval
from zqadd.progressions import (
    alpha,
    alpha_profile,
    check_uniqueness,
    contained_in_coset,
    decompose,
    min_alpha,
    optimal_differences,
    stability,
)


def S(q, elems):
    return ResidueSet.from_elements(q, elems)


class TestDecompose:
    def test_two_intervals(self):
        dec = decompose(S(12, [0, 1, 2, 7, 8]), 1)
        assert dec.progressions == ((0, 3), (7, 2))
        assert dec.alpha == 2 and dec.full_cosets == ()

    def test_full_coset(self):
        dec = decompose(S(12, [0, 3, 6, 9]), 3)
        assert dec.full_cosets == (0,) and dec.alpha == 0

    def test_difference_three(self):
        A = S(7, [0, 1, 3])
        dec = decompose(A, 3)
        assert dec.progressions == ((0, 2), (1, 1))
        assert len(sumset_pair(A, 3)) - A.size == 2

    def test_reassemble_roundtrip(self):
        rng = random.Random(7)
        for _ in range(200):
            q = rng.randrange(2, 40)
            A = ResidueSet(q, rng.randrange(1, (1 << q) - 1))
            t = rng.randrange(1, q)
            assert decompose(A, t).reassemble() == A


def decompose_by_sets(q, A, t):
    """(full cosets by least element, maximal t-progressions as (start,
    length)) of the set A, with plain sets: outside the full cosets of <t>,
    a maximal progression x, x+t, ..., x+(L-1)t has x-t and x+Lt not in A."""
    g = math.gcd(t, q)
    cosets = [{(r + j * t) % q for j in range(q // g)} for r in range(g)]
    full = [c for c in cosets if c <= A]
    progressions = []
    for x in A - set().union(*full):
        if (x - t) % q not in A:
            length = 1
            while (x + length * t) % q in A:
                length += 1
            progressions.append((x, length))
    return tuple(min(c) for c in full), tuple(sorted(progressions))


@pytest.mark.parametrize("q", range(2, 13))
def test_decompose_matches_sets_for_every_mask_and_t(q):
    for mask in range(1, 1 << q):
        A = ResidueSet(q, mask)
        elems = set(A.elements)
        for t in range(1, q):
            dec = decompose(A, t)
            full, progressions = decompose_by_sets(q, elems, t)
            assert (dec.full_cosets, dec.progressions) == (full, progressions)
            covered = sum(length for _, length in progressions) + len(full) * (q // math.gcd(t, q))
            assert covered == len(elems)  # the pieces partition A


def sumset_pair(A, t):
    return set(A.elements) | {(x + t) % A.q for x in A.elements}


class TestAlpha:
    def test_interval_min_alpha_one(self):
        A = interval(0, 4, 11)
        assert min_alpha(A) == 1
        assert set(optimal_differences(A)) == {1, 10}

    def test_min_alpha_through_cosets(self):
        # t = 6 beats t = 1 here: {1,7} and {2,8} are full cosets of <6>,
        # leaving a single progression {0}
        A = S(12, [0, 1, 2, 7, 8])
        assert alpha(A, 1) == 2
        assert min_alpha(A) == 1
        assert optimal_differences(A) == [6]

    def test_symmetry(self):
        prof = alpha_profile(S(14, [0, 2, 3, 9]))
        for t in range(1, 14):
            assert prof[t] == prof[14 - t]

    def test_alpha_matches_decomposition(self):
        A = S(15, [0, 1, 5, 7, 8])
        for t in range(1, 15):
            assert alpha(A, t) == decompose(A, t).alpha


class TestUniqueness:
    def test_plain_pm_d(self):
        A = S(101, [0, 1, 2, 3, 4, 50, 51, 52])
        v = check_uniqueness(A)
        assert v.classification == "unique_pm_d"
        assert v.difference_set == (1, 100)
        assert all(v.hypothesis_report.values())

    def test_exception_interval_plus_point(self):
        # [0, m-2] plus the point m: difference 1 in two inequivalent ways
        A = S(101, list(range(6)) + [7])
        v = check_uniqueness(A)
        assert v.classification.startswith("exception_")

    def test_exception_detected_after_dilation(self):
        base = S(101, list(range(6)) + [7])
        A = S(101, [13 * x % 101 for x in base])
        v = check_uniqueness(A)
        assert v.classification.startswith("exception_")

    @pytest.mark.parametrize("q", [101, 103])
    def test_affine_family_images_match_brute_force(self, q):
        rng = random.Random(q)
        for m in (5, 8, 20):
            fam1 = set(range(m - 1)) | {m}
            for fam in (fam1, {(m - x) % q for x in fam1}):
                c, s = rng.randrange(1, q), rng.randrange(q)
                A = S(q, [(c * x + s) % q for x in fam])
                v = check_uniqueness(A)
                assert (v.classification, v.detail) == self._brute_force(A, m)

    @pytest.mark.parametrize("q", [105, 121, 125, 135])
    def test_composite_moduli_match_brute_force(self, q):
        # difference sets with non-units: a family dilated by p, the least
        # prime of q, lies in a coset of <p> and is no family image, and a
        # 3-set {0, a, b} has all of +-a, +-b, +-(b - a) as differences
        rng = random.Random(q)
        p = min(x for x in range(3, q) if q % x == 0)
        units = [c for c in range(1, q) if math.gcd(c, q) == 1]
        cases = []
        for m in (3, 5, 8, 20):
            fam1 = set(range(m - 1)) | {m}
            for fam in (fam1, {(m - x) % q for x in fam1}):
                # x -> p*c*x is injective on fam when m < q/p
                for c in (rng.choice(units), p * rng.choice(units))[: 1 + (m < q // p)]:
                    s = rng.randrange(q)
                    cases.append((S(q, [(c * x + s) % q for x in fam]), m))
        for _ in range(20):
            A = S(q, rng.sample(range(q), 3))
            if min_alpha(A) == 2:  # not a 3-term progression
                cases.append((A, 3))
        seen = set()
        for A, m in cases:
            v = check_uniqueness(A)
            brute = self._brute_force(A, m)
            if brute is None:
                assert v.classification in ("other", "unique_pm_d")
            else:
                assert (v.classification, v.detail) == brute
            seen.add(v.classification)
            seen.update("non-unit" for t in v.difference_set if math.gcd(t, q) > 1)
        assert seen >= {"exception_interval_plus_point", "exception_point_plus_interval", "other", "non-unit"}

    @staticmethod
    def _brute_force(A, m):
        """The first (c, s), c ascending then s, with c^-1 * A + s a family."""
        q = A.q
        families = (
            ("exception_interval_plus_point", set(range(m - 1)) | {m}),
            ("exception_point_plus_interval", {0} | set(range(2, m + 1))),
        )
        for c in range(1, q):
            if math.gcd(c, q) > 1:
                continue
            inv = pow(c, -1, q)
            # both families contain 0, so s = -c^-1 * x for some x in A
            for s in sorted({-inv * x % q for x in A.elements}):
                image = {(inv * x + s) % q for x in A.elements}
                for label, fam in families:
                    if image == fam:
                        return label, {"scale": c, "shift": s}
        return None

    def test_requires_min_alpha_two(self):
        with pytest.raises(ValueError):
            check_uniqueness(interval(0, 4, 20))


@st.composite
def min_alpha_two_case(draw):
    """A set with min alpha 2 (two intervals, dilated by any c0, so some
    lie in a coset), and a map x -> c*x + s with c a unit."""
    q = draw(st.integers(7, 60))
    l1 = draw(st.integers(1, q - 3))
    gap = draw(st.integers(1, q - 2 - l1))
    l2 = draw(st.integers(1, q - 1 - l1 - gap))
    c0 = draw(st.integers(1, q - 1))
    A = S(q, {c0 * x % q for x in [*range(l1), *range(l1 + gap, l1 + gap + l2)]})
    assume(2 < A.size < q and min_alpha(A) == 2)
    c = draw(st.sampled_from([c for c in range(1, q) if math.gcd(c, q) == 1]))
    return A, c, draw(st.integers(0, q - 1))


@settings(max_examples=300, deadline=None)
@given(min_alpha_two_case())
def test_uniqueness_is_affine_invariant(case):
    # x -> cx + s maps A + {0, t} onto (cA + s) + {0, ct}, and family
    # images onto family images
    A, c, s = case
    q = A.q
    v = check_uniqueness(A)
    w = check_uniqueness(S(q, [(c * a + s) % q for a in A.elements]))
    assert w.difference_set == tuple(sorted(c * t % q for t in v.difference_set))
    assert w.classification.startswith("exception_") == v.classification.startswith("exception_")


def stability_by_scan(q, A):
    """(k, optimal differences, first (d, X) with alpha_d(X) < k) for the set
    A, with plain sets: every optimal difference d ascending, d > q/2 too,
    against every X with |X ^ A| <= k, by size of X ^ A and then
    lexicographically."""

    def alpha_of(X, d):
        return len({(x + d) % q for x in X} - X)

    profile = {d: alpha_of(A, d) for d in range(1, q)}
    k = min(profile.values())
    opt = tuple(d for d in range(1, q) if profile[d] == k)
    for d in opt:
        for j in range(k + 1):
            for delta in combinations(range(q), j):
                X = A ^ set(delta)
                if alpha_of(X, d) < k:
                    return k, opt, (d, X)
    return k, opt, None


class TestStability:
    def test_interval_stable(self):
        rep = stability(interval(0, 5, 20))
        assert rep.k == 1 and rep.status == "stable"

    def test_short_component_unstable(self):
        # a length-1 component with k = 2: removing it drops the count
        A = S(20, [0, 1, 2, 3, 10])
        rep = stability(A)
        assert rep.k == 2 and rep.status == "unstable"
        assert rep.witness is not None

    def test_matches_a_scan_of_every_optimal_difference(self):
        rng = random.Random(11)
        statuses = set()
        for _ in range(400):
            q = rng.randrange(3, 15)
            A = set(rng.sample(range(q), rng.randrange(1, q)))
            rep = stability(S(q, A))
            k, opt, witness = stability_by_scan(q, A)
            assert (rep.k, rep.optimal_differences) == (k, opt)
            assert rep.status == ("stable" if witness is None else "unstable")
            if witness is not None:
                assert (rep.witness[0], set(rep.witness[1].elements)) == witness
            statuses.add(rep.status)
        assert statuses == {"stable", "unstable"}

    def test_raises_on_tiny_budget(self, monkeypatch):
        monkeypatch.setattr(progressions, "STABILITY_BUDGET", 10)
        with pytest.raises(BudgetExceededError):
            stability(S(30, list(range(10)) + [15, 20, 25]))


class TestCosetContainment:
    def test_full_coset_detected(self):
        A = S(12, [1, 4, 7, 10])
        assert contained_in_coset(A) is not None

    def test_prime_modulus_never_contained(self):
        assert contained_in_coset(S(13, [0, 1, 5])) is None

    def test_coset_predicates_every_mask(self):
        for q in range(1, 13):
            # proper nontrivial subgroups, largest first
            subgroups = [set(range(0, q, q // n)) for n in range(q - 1, 1, -1) if q % n == 0]
            for mask in range(1 << q):
                A = ResidueSet(q, mask)
                meets = [[len(set(A) & {(t + h) % q for h in H}) for t in range(q)] for H in subgroups]
                inside = [len(H) for H, cs in zip(subgroups, meets) if A.size in cs]
                got = contained_in_coset(A)
                assert (got.order if got else None) == next(iter(inside), None)

"""Digital sets, carry statistics, and the two digit-set verifiers."""

import math
import random
from itertools import product

import pytest

from zqadd import digital
from zqadd.core import BudgetExceededError, ResidueSet, interval, shift_table
from zqadd.digital import (
    canonical_interval_digits,
    carry_stats,
    centered_digits,
    enumerate_digital_sets,
    is_digital,
    prime_condition,
    sample_digital_set,
    verify_carry_extremality,
    verify_digital_impact_bound,
    verify_small_doubling_classification,
)


def S(q, elems):
    return ResidueSet.from_elements(q, elems)


class TestIsDigital:
    def test_positive(self):
        w = is_digital(S(8, [0, 3]))
        assert w is not None and w.m == 2

    def test_negative(self):
        assert is_digital(S(8, [0, 2])) is None

    def test_interval_digits(self):
        for m in (2, 3, 5):
            assert is_digital(canonical_interval_digits(m)) is not None

    def test_size_must_divide_modulus(self):
        assert is_digital(S(8, [0, 1, 2])) is None


class TestPrimeCondition:
    def test_accepted(self):
        assert prime_condition(6, 36)
        assert prime_condition(4, 8)

    def test_rejected_support(self):
        assert not prime_condition(2, 6)

    def test_rejected_equal_exponent(self):
        assert not prime_condition(4, 12)

    def test_is_a_predicate(self):
        # m = q = 1 has no prime whose exponent q could exceed
        assert prime_condition(4, 8) is True and prime_condition(1, 1) is False


class TestCarryStats:
    def test_m2_table(self):
        stats = carry_stats(is_digital(S(4, [0, 1])))
        assert stats.distinct_carries == (0, 1)
        assert stats.nonzero_pair_count == 1

    def test_interval_two_carries(self):
        for m in (2, 3, 4, 5, 6):
            stats = carry_stats(is_digital(canonical_interval_digits(m)))
            assert stats.distinct_carries == (0, 1)

    def test_centered_m5_count(self):
        stats = carry_stats(is_digital(centered_digits(5)))
        assert stats.nonzero_pair_count == 13

    def test_carries_bounded(self):
        rng = random.Random(31)
        for m in (3, 4, 5):
            for _ in range(50):
                A = sample_digital_set(m, m * m, rng)
                stats = carry_stats(is_digital(A))
                assert all(abs(c) < 2 * m for c in stats.distinct_carries)
                assert len(stats.distinct_carries) >= 2

    def test_wrong_modulus_rejected(self):
        with pytest.raises(ValueError):
            carry_stats(is_digital(S(8, [0, 3])))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_walk_carries_equal_the_pair_loop(self, m):
        for mask, lifts, (bits, nonzero) in digital._carry_walk(m):
            carries = [(a1 + a2 - lifts[(a1 + a2) % m]) // m for a1 in lifts for a2 in lifts]
            assert mask == sum(1 << a for a in lifts)
            assert [c - m for c in range(3 * m) if bits >> c & 1] == sorted(set(carries))
            assert nonzero == sum(1 for c in carries if c)


class TestEnumeration:
    def test_counts(self):
        for m, q, count in ((2, 4, 4), (4, 8, 16), (5, 25, 3125)):
            assert sum(1 for _ in enumerate_digital_sets(m, q)) == count

    def test_stream_matches_count(self):
        sets = list(enumerate_digital_sets(4, 8))
        assert len(sets) == 16
        assert len({w.set.mask for w in sets}) == 16

    @pytest.mark.parametrize("q", [0, -6])
    def test_nonpositive_q_rejected(self, q):
        # 3 divides 0 and -6, so only the q >= 1 check refuses them
        with pytest.raises(ValueError):
            next(enumerate_digital_sets(3, q))
        with pytest.raises(ValueError):
            sample_digital_set(3, q, random.Random(0))

    def test_all_digital(self):
        for w in enumerate_digital_sets(3, 9):
            assert is_digital(w.set) is not None

    def test_walk_order_is_product_order(self):
        for q in range(1, 65):
            for m in (m for m in range(1, q + 1) if q % m == 0 and (q // m) ** m <= 5_000):
                expected = [[r + j * m for r, j in enumerate(choice)] for choice in product(range(q // m), repeat=m)]
                leaves = [(mask, list(lifts)) for mask, lifts, _ in digital._digital_walk(m, q)]
                assert [lifts for _, lifts in leaves] == expected, (m, q)
                assert [mask for mask, _ in leaves] == [sum(1 << e for e in lifts) for lifts in expected], (m, q)


class TestCarryExtremality:
    # minima frozen from the exhaustive sweeps
    MINIMA = {3: (2, 3), 4: (2, 6), 5: (2, 10)}

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_sweep(self, m):
        rep = verify_carry_extremality(m)
        assert rep.holds
        assert (rep.min_distinct_carries, rep.min_nonzero_pairs) == self.MINIMA[m]
        assert rep.interval_attains_distinct_min

    def test_trivial_modulus(self):
        # Z_1: the one digit set {0} lies in its own affine orbit
        rep = verify_carry_extremality(1)
        assert rep.holds and rep.sets_scanned == 1

    def test_minimizers_in_orbits(self):
        rep = verify_carry_extremality(4)
        assert rep.distinct_minimizers_in_interval_orbit
        assert rep.nonzero_minimizers_in_centered_orbit


class TestImpactBound:
    def test_desk_sample(self):
        rep = verify_digital_impact_bound(16, 32, samples=60, seed=41)
        assert not rep.counterexamples
        assert rep.two_ap_sets + rep.checked_sets == rep.samples

    def test_two_ap_branch(self):
        # a union of two difference-d APs has min alpha <= 2, so it lands
        # in the excluded branch with xi(2) <= m + 2
        rep = verify_digital_impact_bound(16, 32, samples=200, seed=42)
        assert rep.two_ap_sets >= 1

    def test_exploratory_below_guard(self):
        # m <= 15 lies outside the theorem, and there is no mode that runs it
        with pytest.raises(ValueError, match="m <= 15"):
            verify_digital_impact_bound(6, 36, samples=30, seed=43)


def first_covering_pair(shifts, aa, q):
    """The first (x, y), x <= y, with 2A ⊆ (A+x) ∪ (A+y) ≠ Z_q, tried one by one."""
    full = (1 << q) - 1
    for x in range(q):
        for y in range(x, q):
            cover = shifts[x] | shifts[y]
            if cover != full and aa & ~cover == 0:
                return (x, y)
    return None


class TestSmallDoubling:
    def test_interval_is_solution(self):
        m = 4
        rep = verify_small_doubling_classification(m, m * m)
        masks = {tuple(s["elements"]) for s in rep.solutions}
        assert tuple(range(m)) in masks
        assert all(s["normal_form"] is not None for s in rep.solutions)

    def test_smoke_scale(self):
        rep = verify_small_doubling_classification(8, 16)
        assert all(s["normal_form"] is not None for s in rep.solutions)
        assert rep.sets_scanned == 256

    def test_single_ap_of_difference_q2_plus_1(self):
        # 2*[0, m/2-1] united with (q/2+1) + 2*[0, m/2-1] is an AP of
        # difference q/2+1, hence an affine interval image
        m, q = 8, 16
        A = ResidueSet.from_elements(
            q, [2 * i for i in range(m // 2)] + [(q // 2 + 1 + 2 * i) % q for i in range(m // 2)]
        )
        assert is_digital(A) is not None
        rep = verify_small_doubling_classification(m, q)
        sols = {tuple(s["elements"]) for s in rep.solutions}
        assert tuple(sorted(A.elements)) in sols

    @pytest.mark.parametrize(
        "m, q",
        [
            (m, q)
            for q in range(2, 33)
            for m in range(1, q + 1)
            if prime_condition(m, q) and (q // m) ** m <= 70_000
        ],
    )
    def test_prefilter_loses_no_solution(self, m, q):
        # every digital set goes to a plain pair search, without the |2A|
        # prefilter, the walk's cut or the pair search's step filter
        target = set(range(m))
        expected = []
        for choice in product(range(q // m), repeat=m):
            elems = [r + j * m for r, j in enumerate(choice)]
            shifts = shift_table(sum(1 << a for a in elems), q)
            aa = 0
            for a in elems:
                aa |= shifts[a]
            pair = first_covering_pair(shifts, aa, q)
            if pair is None:
                continue
            normal = next(
                (
                    {"scale": c, "shift": t}
                    for c in range(1, q)
                    if math.gcd(c, q) == 1
                    for t in range(q)
                    if {(c * a + t) % q for a in elems} == target
                ),
                None,
            )
            expected.append({"elements": sorted(elems), "pair": pair, "normal_form": normal})
        rep = verify_small_doubling_classification(m, q)
        assert rep.sets_scanned == (q // m) ** m
        assert rep.solutions == expected

    def test_a_dropped_subtree_is_caught(self, monkeypatch):
        walk = digital._digital_walk

        def dropping(m, q, step, state):
            # cuts the sets that lift residue 0 to m, without the verifier's step counting them
            return walk(m, q, lambda st, lifts, r: None if r == 0 and lifts[0] == m else step(st, lifts, r), state)

        monkeypatch.setattr(digital, "_digital_walk", dropping)
        with pytest.raises(AssertionError, match="do not cover"):
            verify_small_doubling_classification(8, 16)


def test_one_budget_bounds_every_digital_sweep(monkeypatch):
    m, q = 4, 16  # 4^4 = 256 digital sets; q = m^2 for the carry sweep
    monkeypatch.setattr(digital, "DIGITAL_SET_BUDGET", (q // m) ** m)
    assert len(list(enumerate_digital_sets(m, q))) == (q // m) ** m
    monkeypatch.setattr(digital, "DIGITAL_SET_BUDGET", (q // m) ** m - 1)
    with pytest.raises(BudgetExceededError):
        next(enumerate_digital_sets(m, q))
    with pytest.raises(BudgetExceededError):
        verify_carry_extremality(m)
    with pytest.raises(BudgetExceededError):
        verify_small_doubling_classification(m, q)

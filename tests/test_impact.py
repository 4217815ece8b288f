"""Impact function oracles, Sidon/Pluennecke machinery, range bounds."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import combinations, count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqadd import impact
from zqadd.core import BudgetExceededError, ResidueSet, interval, period_group, sumset
from zqadd.digital import NAIVE_CROSS_CHECK_UPTO, sample_digital_set, verify_impact_extension
from zqadd.impact import (
    beta_threshold,
    bound2_threshold,
    m_threshold,
    pluennecke_subset,
    range_bounds,
    sidon_check,
    sidon_sumset_bound_check,
    xi_exact,
    xi_naive,
    xi_search,
)
from zqadd.progressions import alpha, min_alpha


def S(q, elems):
    return ResidueSet.from_elements(q, elems)


class TestImpactValues:
    def test_xi1_is_size(self):
        A = S(17, [0, 2, 9])
        r = xi_search(A, 1)
        assert r.value == 3 and r.witness.elements == (0,)

    def test_xi_example(self):
        assert xi_naive(S(7, [0, 1, 3]), 2).value == 5
        assert xi_search(S(7, [0, 1, 3]), 2).value == 5

    def test_pigeonhole_aperiodic(self):
        A = S(9, [0, 1, 5])
        assert xi_naive(A, 9 - 3).value == 8

    def test_pigeonhole_periodic(self):
        # a periodic set misses a whole coset of its period group
        A = S(6, [0, 2, 3, 5])
        assert xi_naive(A, 2).value == 6 - period_group(A).order

    def test_full_beyond_complement(self):
        A = S(8, [0, 1, 2])
        for n in range(6, 9):
            assert xi_search(A, n).value == 8

    def test_interval_growth(self):
        A = interval(0, 3, 13)
        for n in range(1, 10):
            assert xi_naive(A, n).value == 4 + n - 1

    def test_oracle_agreement_random(self):
        rng = random.Random(11)
        for _ in range(200):
            q = rng.randrange(3, 13)
            A = ResidueSet(q, rng.randrange(1, (1 << q) - 1))
            n = rng.randrange(0, q - A.size + 1)
            rn, rs = xi_naive(A, n), xi_search(A, n)
            assert rn.value == rs.value
            assert rn.witness == rs.witness

    def test_xi2_xi3_shortcuts(self):
        rng = random.Random(13)
        for _ in range(100):
            q = rng.randrange(5, 14)
            A = ResidueSet(q, rng.randrange(1, (1 << q) - 1))
            if A.size <= q - 3:
                assert xi_exact(A, 2) == xi_naive(A, 2).value
                assert xi_exact(A, 3) == xi_naive(A, 3).value

    def test_xi2_identity(self):
        A = S(12, [0, 1, 2, 7, 8])
        assert xi_exact(A, 2) == A.size + min_alpha(A)

    @pytest.mark.parametrize("q", [1, 2, 5, 12])
    def test_xi2_full_group(self, q):
        # the alpha profile of Z_q is undefined, but Z_q + B = Z_q
        A = ResidueSet.full(q)
        assert xi_exact(A, min(q, 2)) == xi_search(A, min(q, 2)).value == q

    def test_budget_gives_inexact(self):
        A = S(18, list(range(9)))
        r = xi_search(A, 5, node_budget=3)
        assert not r.exact
        assert r.value >= xi_search(A, 5).value

    def test_default_budget_is_read_at_call_time(self, monkeypatch):
        # 475 nodes under the default budget; the verify suites call
        # xi_search without a budget, so lowering the constant must cut them
        A = S(32, [0, 1, 5, 9, 14, 20, 27])
        monkeypatch.setattr(impact, "DEFAULT_NODE_BUDGET", 3)
        assert not xi_search(A, 5).exact
        with pytest.raises(BudgetExceededError):
            xi_exact(A, 5)

    def test_cut_search_returns_a_leaf(self):
        # the budget is tested only once a leaf exists; the first leaf is
        # {0, 1, .., n-2, c} after n - 1 pops and one last-element scan
        rng = random.Random(7)
        q, n = 24, 6
        A = ResidueSet.from_elements(q, rng.sample(range(q), 8))
        full = xi_search(A, n)
        assert full.exact and full.nodes_explored > n + 1 + q  # every budget below cuts
        for budget in range(n + 2):
            r = xi_search(A, n, node_budget=budget)
            w = r.witness
            assert r.exact is False
            assert w.size == n and 0 in w.elements
            assert sumset(A, w).size == r.value >= full.value
            assert r.nodes_explored <= max(budget, n - 1) + q
            if budget <= n - 1:
                assert w.elements[: n - 1] == tuple(range(n - 1))

    @pytest.mark.parametrize("q, n", [(1, 2), (2, 3)])
    def test_xi_exact_range(self, q, n):
        with pytest.raises(ValueError):
            xi_exact(ResidueSet.full(q), n)

    def test_search_equals_naive_every_n(self):
        # every mask and every n, beyond the n <= q - |A| of the desk sweep
        for q in range(1, 11):
            for mask in range(1, 1 << q):
                A = ResidueSet(q, mask)
                for n in range(q + 1):
                    rn, rs = xi_naive(A, n), xi_search(A, n)
                    assert rs.exact and (rs.value, rs.witness) == (rn.value, rn.witness)

    def test_complement_duality(self):
        # xi(n) <= s iff xi(q-s) <= q-n: if |B| = n and |A+B| <= s, any
        # q-s sums C that A+B misses have (C - A) ∩ B empty, so
        # |-A + C| <= q-n, and xi_{-A} = xi_A; the converse is the same.
        # Every nonempty A and every n, s at q <= 10
        for q in range(1, 11):
            for mask in range(1, 1 << q):
                A = ResidueSet(q, mask)
                xi = [xi_naive(A, n).value for n in range(q + 1)]
                for n in range(q + 1):
                    for s in range(q + 1):
                        assert (xi[n] <= s) == (xi[q - s] <= q - n), (A, n, s)

    def test_search_node_ceiling(self):
        # 2,084 nodes with the prenecklace prune, 55,102 for a DFS over
        # every B containing 0: losing the prune fails this test
        rng = random.Random(4)
        A = ResidueSet.from_elements(32, rng.sample(range(32), 9))
        r = xi_search(A, 8)
        assert (r.value, r.witness.elements) == (26, (0, 1, 2, 3, 8, 11, 12, 22))
        assert r.exact and r.nodes_explored <= 2_200


def xi_by_sets(q, elems, n):
    """(min |A+B|, lex-least minimizer, number of B scored) over every
    B = {0} ∪ C, C an (n-1)-subset of 1..q-1, with plain sets."""
    translates = [{(a + b) % q for a in elems} for b in range(q)]
    best, count = None, 0
    for C in combinations(range(1, q), n - 1):
        count += 1
        size = len(translates[0].union(*(translates[b] for b in C)))
        if best is None or size < best[0]:
            best = (size, (0,) + C)
    return best[0], best[1], count


def assert_xi_naive_matches_sets(A, n):
    r = xi_naive(A, n)
    if n == 0:  # answered without enumerating
        assert (r.value, r.witness.elements, r.nodes_explored) == (0, (), 0)
    else:
        value, witness, count = xi_by_sets(A.q, A.elements, n)
        assert (r.value, r.witness.elements, r.nodes_explored) == (value, witness, count)
        assert count == math.comb(A.q - 1, n - 1)
    assert r.exact


class TestXiNaiveKernel:
    @pytest.mark.parametrize("q", range(1, 11))
    def test_every_mask_and_n_matches_sets(self, q):
        for mask in range(1, 1 << q):
            A = ResidueSet(q, mask)
            for n in range(q + 1):
                assert_xi_naive_matches_sets(A, n)

    def test_digital_sets_at_q32_match_sets(self):
        # the n <= 3 cross-check of the digital impact bound, on (16, 32) sets
        rng = random.Random(29)
        for _ in range(12):
            A = sample_digital_set(16, 32, rng)
            for n in range(1, NAIVE_CROSS_CHECK_UPTO + 1):
                assert_xi_naive_matches_sets(A, n)

    def test_budget_check_is_on_the_combination_count(self, monkeypatch):
        A = S(12, [0, 1, 5])
        monkeypatch.setattr(impact, "DEFAULT_NODE_BUDGET", math.comb(11, 4) - 1)
        assert xi_naive(A, 4).nodes_explored == math.comb(11, 3)
        with pytest.raises(BudgetExceededError):
            xi_naive(A, 5)


class TestSidon:
    def test_sidon_example(self):
        assert sidon_check(S(8, [0, 1, 3]))

    def test_not_sidon(self):
        assert not sidon_check(S(9, [0, 1, 2]))

    def test_singleton(self):
        assert sidon_check(S(5, [2]))

    @pytest.mark.parametrize("q", range(1, 11))
    def test_sidon_iff_double_sum_is_largest(self, q):
        # Sidon means the n(n+1)/2 sums b + b', b <= b', are distinct
        for mask in range(1, 1 << q):
            elems = [x for x in range(q) if mask >> x & 1]
            n = len(elems)
            double = {(a + b) % q for a in elems for b in elems}
            assert sidon_check(ResidueSet(q, mask)) == (len(double) == n * (n + 1) // 2)

    def test_sumset_bound_example(self):
        rng = random.Random(17)
        A = ResidueSet.from_elements(50, rng.sample(range(50), 10))
        B = S(50, [0, 1, 3, 7])
        assert sidon_check(B)
        rep = sidon_sumset_bound_check(A, B)
        assert rep.holds and rep.sumset_size >= 13  # ceil(160/13)

    def test_sumset_bound_randomized(self):
        rng = random.Random(19)
        done = 0
        while done < 200:
            q = rng.randrange(5, 41)
            B = ResidueSet(q, rng.randrange(1, (1 << q) - 1))
            if not sidon_check(B):
                continue
            A = ResidueSet(q, rng.randrange(1, (1 << q) - 1))
            assert sidon_sumset_bound_check(A, B).holds
            done += 1


class TestPluennecke:
    def test_singleton_b(self):
        A = S(8, [0, 1])
        rep = pluennecke_subset(A, S(8, [0]))
        assert rep.holds and rep.ratio == 1

    def test_small_example(self):
        A = B = S(8, [0, 1])
        rep = pluennecke_subset(A, B)
        assert rep.beta == Fraction(3, 2)
        assert rep.exact and rep.holds
        assert rep.ratio <= Fraction(9, 4)

    def test_randomized(self):
        rng = random.Random(23)
        for _ in range(100):
            q = rng.randrange(4, 41)
            A = ResidueSet(q, rng.randrange(1, (1 << q) - 1))
            B = ResidueSet(q, rng.randrange(1, (1 << q) - 1))
            if A.size > 12:
                continue
            rep = pluennecke_subset(A, B)
            assert rep.exact
            assert rep.holds

    def test_raises_past_the_exact_cap(self):
        cap = impact.PLUENNECKE_EXACT_CAP
        B = S(40, [0, 1])
        assert pluennecke_subset(S(40, range(cap)), B).exact
        with pytest.raises(BudgetExceededError):
            pluennecke_subset(S(40, range(cap + 1)), B)


def pluennecke_oracle(A, B, cache):
    """(beta, least ratio, first minimizer) by scanning every nonempty
    A' ⊆ A with set arithmetic and Fraction ratios, no pruning.  Subsets
    are compared by (ratio, sorted elements): the search's DFS visits
    subsets in lexicographic order of their sorted elements, and keeps the
    first minimizer it meets.  The scan depends on A and 2B only, and is
    kept in cache under that key."""
    q = A.q
    b = B.elements
    two_b = frozenset((x + y) % q for x in b for y in b)
    beta = Fraction(len({(a + x) % q for a in A.elements for x in b}), A.size)
    key = (A.mask, two_b)
    if key not in cache:
        shifted = {a: {(a + s) % q for s in two_b} for a in A.elements}
        best = None
        for k in range(1, A.size + 1):
            for sub in combinations(A.elements, k):
                cand = (Fraction(len(set().union(*(shifted[a] for a in sub))), k), sub)
                if best is None or cand < best:
                    best = cand
        cache[key] = best
    return (beta, *cache[key])


def assert_matches_oracle(A, B, cache):
    rep = pluennecke_subset(A, B)
    beta, ratio, subset = pluennecke_oracle(A, B, cache)
    assert rep.exact
    assert (rep.beta, rep.ratio, rep.best_subset.elements) == (beta, ratio, subset)


@pytest.mark.parametrize("q", range(1, 9))
def test_pluennecke_matches_oracle_on_every_pair(q):
    cache = {}
    for amask in range(1, 1 << q):
        A = ResidueSet(q, amask)
        for bmask in range(1, 1 << q):
            assert_matches_oracle(A, ResidueSet(q, bmask), cache)


@st.composite
def pluennecke_pair(draw):
    q = draw(st.integers(1, 40))
    elems = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=12, unique=True))
    return ResidueSet.from_elements(q, elems), ResidueSet(q, draw(st.integers(1, (1 << q) - 1)))


@settings(max_examples=200, deadline=None)
@given(pluennecke_pair())
def test_pluennecke_matches_oracle(pair):
    assert_matches_oracle(*pair, {})


class TestRangeBounds:
    def test_paper_thresholds(self):
        assert beta_threshold(0) == 5
        assert bound2_threshold(0) == 4
        assert beta_threshold(1) == 10
        assert bound2_threshold(1) == 9
        assert m_threshold(0) == 5 and m_threshold(1) == 10
        assert (bound2_threshold(157), beta_threshold(157), m_threshold(157)) == (1319, 437, 1319)

    def test_k0_endpoint(self):
        assert range_bounds(10, 0).hypothesis_range_end == 2.0

    def test_bounds_decrease_toward_endpoint(self):
        ends = [range_bounds(m, 1).bound2 for m in (9, 20, 100, 1000)]
        assert ends == sorted(ends, reverse=True)
        assert ends[-1] == 3 == range_bounds(1000, 1).hypothesis_range_end  # floor((3 + sqrt(17)) / 2)

    @staticmethod
    def decimal_thresholds(k):
        """(bound2_threshold, beta_threshold) by their definitions in 60-digit
        decimals; the beta scan runs to a horizon past the proven one."""
        with localcontext() as ctx:
            ctx.prec = 60

            def root(a, b, c):
                return (b + Decimal(b * b + 4 * a * c).sqrt()) / (2 * a)

            end = (3 + Decimal(16 * k + 1).sqrt()) / 2
            bound2 = next(
                m for m in count(3) if root(m - 2, 3 * m + 4 * k - 4, 2 * m + 2 * (k - 1) * (2 * m + k - 1)) <= end + 1
            )
            sqrt2 = Decimal(2).sqrt()
            fails = [
                m
                for m in range(3, 4 * (k + 2) ** 2 + 100)
                if m + int(root(m - 1, 2 * m + k - 2, (m - 1) * (m + k - 1))) + k - 1 >= sqrt2 * m
            ]
        return bound2, fails[-1] + 1 if fails else 3

    @pytest.mark.parametrize("k", [0, 1, 2, 10, 157])
    def test_thresholds_match_decimal_definitions(self, k):
        bound2, beta = self.decimal_thresholds(k)
        assert (bound2_threshold(k), beta_threshold(k)) == (bound2, beta)
        assert m_threshold(k) == max(bound2, beta)

    @pytest.mark.parametrize("threshold", [bound2_threshold, beta_threshold, m_threshold])
    def test_negative_k_rejected(self, threshold):
        with pytest.raises(ValueError):
            threshold(-10)

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            range_bounds(2, 0)


class TestImpactExtension:
    def test_k0_smoke(self):
        rep = verify_impact_extension(m=6, q=36, k=0, samples=50, window=(2, 3), seed=5)
        assert not rep.counterexamples
        assert rep.hypothesis_holds + rep.vacuous == rep.samples

    def test_k1_smoke(self):
        rep = verify_impact_extension(m=16, q=32, k=1, samples=50, window=(2, 3), seed=6)
        assert not rep.counterexamples

    def test_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            verify_impact_extension(m=3, q=36, k=0, samples=5, window=(2,), seed=0)


@st.composite
def set_in(draw, moduli):
    q = draw(moduli)
    return ResidueSet(q, draw(st.integers(1, (1 << q) - 1)))


def xi_values(A):
    results = [xi_search(A, n) for n in range(A.q + 1)]
    assert all(r.exact for r in results)
    return [r.value for r in results]


@settings(max_examples=300, deadline=None)
@given(set_in(st.integers(1, 11)))
def test_xi_monotone_in_n(A):
    values = xi_values(A)
    assert values == sorted(values)


@settings(max_examples=300, deadline=None)
@given(set_in(st.sampled_from([2, 3, 5, 7, 11])))
def test_xi_cauchy_davenport(A):
    # |A + B| >= min(p, |A| + |B| - 1) for every B of size n in Z_p
    for n, value in enumerate(xi_values(A)):
        if n:
            assert value >= min(A.q, A.size + n - 1)


@st.composite
def coset_union(draw):
    # A a union of cosets of <d>, plus up to two flipped elements: periodic
    # B and ties between rotations of the gap sequence
    q = draw(st.sampled_from([14, 15, 16, 18, 20, 21, 22, 24]))
    d = draw(st.sampled_from([d for d in range(2, q) if q % d == 0]))
    residues = draw(st.sets(st.integers(0, d - 1), min_size=1, max_size=d - 1))
    mask = sum(1 << x for x in range(q) if x % d in residues)
    for x in draw(st.sets(st.integers(0, q - 1), max_size=2)):
        mask ^= 1 << x
    return ResidueSet(q, mask or 1)


# q in [13, 24] and n in {4, 5}: C(q-1, n-1) <= 8,855 subsets for xi_naive,
# past the q <= 12 of the desk sweep, where the prune cuts harder
@settings(max_examples=800, deadline=None)
@given(st.one_of(set_in(st.sampled_from(range(13, 25))), coset_union()), st.sampled_from([4, 5]))
def test_search_equals_naive_wide(A, n):
    rn, rs = xi_naive(A, n), xi_search(A, n)
    assert rs.exact and (rs.value, rs.witness) == (rn.value, rn.witness)


@st.composite
def affine_case(draw):
    q = draw(st.integers(2, 12))
    A = ResidueSet(q, draw(st.integers(1, (1 << q) - 2)))
    c = draw(st.sampled_from([c for c in range(1, q) if math.gcd(c, q) == 1]))
    return A, c, draw(st.integers(0, q - 1))


@settings(max_examples=200, deadline=None)
@given(affine_case())
def test_xi_and_alpha_invariant_under_affine_maps(case):
    # x -> cx + s with c a unit is an automorphism of Z_q composed with a
    # translation: it maps A + B onto (cA + s) + cB and preserves sizes
    A, c, s = case
    q = A.q
    image = ResidueSet.from_elements(q, ((c * a + s) % q for a in A.elements))
    for n in range(q + 1):
        assert xi_naive(image, n).value == xi_naive(A, n).value
    for t in range(1, q):
        assert alpha(image, c * t) == alpha(A, t)

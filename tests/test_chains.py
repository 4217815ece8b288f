"""Chain structure of equal-impact sets, the interval construction, mu(p)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqadd import chains
from zqadd.core import BudgetExceededError, ResidueSet, affine_images, interval, sumset, units
from zqadd.chains import (
    build_construction,
    compute_mu,
    construction_chain_family,
    equal_impact_witnesses,
    extract_chain_structure,
    project_to_prime,
)
from zqadd.impact import xi_exact


def S(q, elems):
    return ResidueSet.from_elements(q, elems)


class TestEqualImpactWitnesses:
    def test_interval_has_none(self):
        assert equal_impact_witnesses(interval(0, 4, 17)) is None

    def test_witness_sumsets_agree(self):
        # on a hit, all three two-element sumsets share the xi(2) size
        found = 0
        for p in (5, 7, 11):
            for mask in range(1, (1 << p) - 1):
                A = ResidueSet(p, mask)
                if A.size < 2:
                    continue
                w = equal_impact_witnesses(A)
                if w is None:
                    continue
                found += 1
                d1, d2 = w
                target = xi_exact(A, 2)
                assert xi_exact(A, 3) == target
                for pair in ([0, d1], [0, d2], [d1, d2]):
                    assert sumset(A, S(p, pair)).size == target
        assert found > 0

    def test_matches_the_sorted_pair_oracle(self):
        # the oracle: optimal differences sorted by (seminorm, d), then the
        # first pair in combinations order that keeps |A + {0, d1, d2}| at xi(2)
        found = 0
        for q in range(2, 12):
            for mask in range(1, (1 << q) - 1):
                A = set(ResidueSet(q, mask))
                sizes = {d: len(A | {(a + d) % q for a in A}) for d in range(1, q)}
                target = min(sizes.values())
                opt = sorted((d for d in sizes if sizes[d] == target), key=lambda d: (min(d, q - d), d))
                expect = next(
                    (
                        (d1, d2)
                        for d1, d2 in itertools.combinations(opt, 2)
                        if len(A | {(a + d) % q for a in A for d in (d1, d2)}) == target
                    ),
                    None,
                )
                assert equal_impact_witnesses(ResidueSet(q, mask)) == expect, (q, sorted(A))
                found += expect is not None
        assert found > 0


class TestChainExtraction:
    def test_construction_chains_valid(self):
        spec = build_construction(3)
        p, A = project_to_prime(spec)
        fam = construction_chain_family(spec, p, A)
        assert fam.valid
        assert fam.run_count == 12
        assert len(fam.chains) == 4
        assert fam.z == 1 and fam.subgroup_order == p

    def test_run_sizes_grow_along_chain(self):
        spec = build_construction(3)
        p, A = project_to_prime(spec)
        fam = construction_chain_family(spec, p, A)
        for chain in fam.chains:
            sizes = [len(run) for run in chain]
            assert sizes == list(range(1, len(sizes) + 1))

    def test_size_bound(self):
        spec = build_construction(3)
        p, A = project_to_prime(spec)
        fam = construction_chain_family(spec, p, A)
        k = fam.run_count
        assert A.size >= fam.z * fam.subgroup_order - k * (k + 1) // 2

    def test_invalid_difference_rejected(self):
        with pytest.raises(ValueError):
            extract_chain_structure(S(12, [0, 1, 5]), 5, 3)

    @pytest.mark.parametrize("d1", [-1, 0, 12])
    def test_difference_outside_zero_to_q_rejected(self, d1):
        with pytest.raises(ValueError, match="d1"):
            extract_chain_structure(S(12, [0, 1, 2, 3, 5, 6, 7, 9]), d1, 5)

    def test_runs_in_coset_then_cycle_order(self):
        # the complement {3, ..., 7} has the <2>-runs 4,6 in coset 0 and
        # 3,5,7 in coset 1; coset order makes 4,6 run 0, and 4,6 - 1 is no run
        fam = extract_chain_structure(S(8, [0, 1, 2]), 2, 1, k_bound=8)
        assert fam.violations[0] == "condition_ii: run 0 has no predecessor one shorter"

    def test_full_group_has_no_runs(self):
        fam = extract_chain_structure(S(8, range(8)), 2, 1, k_bound=8)
        assert (fam.chains, fam.run_count, fam.full_cosets, fam.z) == ((), 0, (), 2)


class TestConstruction:
    SIZES = {3: 36, 4: 163, 5: 694, 6: 2865, 7: 11644, 8: 46951}

    @pytest.mark.parametrize("m", sorted(SIZES))
    def test_frozen_sizes(self, m):
        spec = build_construction(m)
        assert spec.size == self.SIZES[m]
        assert spec.size == spec.closed_form_size

    def test_m3_breakdown(self):
        # 28 from the long chain, then 6 + 1 + 1
        spec = build_construction(3)
        parts = [sum(hi - lo + 1 for lo, hi in ch) for ch in spec.chains]
        assert sorted(parts, reverse=True) == [28, 6, 1, 1]

    def test_trimmed_chain_size(self):
        # |phi(G_l)| = l(l-1)/2 for a chain of l intervals of width d
        spec = build_construction(4)
        d = spec.d
        long_chain = spec.chains[0]
        assert sum(hi - lo + 1 for lo, hi in long_chain) == d * (d - 1) // 2

    def test_density_approaches_13_18(self):
        densities = [build_construction(m).density for m in range(3, 9)]
        assert densities == sorted(densities)
        assert abs(densities[-1] - 13 / 18) < 0.02

    def test_projection(self):
        spec = build_construction(3)
        p, A = project_to_prime(spec)
        assert p == 67
        assert A.size == p - spec.size


@st.composite
def affine_image(draw):
    q = draw(st.sampled_from([7, 11, 12, 13, 15, 16]))
    mask = draw(st.integers(1, (1 << q) - 2))
    c, s = draw(st.sampled_from(units(q))), draw(st.integers(0, q - 1))
    image = sum(1 << (c * x + s) % q for x in range(q) if mask >> x & 1)
    return q, mask, image


@settings(max_examples=300, deadline=None)
@given(affine_image())
def test_equal_impact_is_affine_invariant(case):
    # the fact the normalized mu scan rests on: x -> cx + s maps A + B onto
    # (cA + s) + cB, so xi(2) = xi(3) holds for A exactly when for cA + s
    q, mask, image = case
    assert (chains._equal_impact_pair(mask, q) is None) == (chains._equal_impact_pair(image, q) is None)


def _affine_keys(masks, p):
    # the least image of each affine class these masks meet
    keys, left = set(), set(masks)
    while left:
        orbit = affine_images(left.pop(), p)
        keys.add(min(orbit))
        left -= orbit
    return keys


def _layout(mask, p):
    # the (run, gap) length pairs of the set read from 0, or None unless
    # 0 starts a run
    if not mask & 1 or mask >> (p - 1) & 1:
        return None
    pairs, x = [], 0
    while x < p:
        run = gap = 0
        while x < p and mask >> x & 1:
            run, x = run + 1, x + 1
        while x < p and not mask >> x & 1:
            gap, x = gap + 1, x + 1
        pairs.append((run, gap))
    return pairs


@pytest.mark.parametrize("p", [7, 11, 13, 17, 19])
def test_normalized_test_meets_every_witness_class(p):
    # at every size, not only at mu: the run-layout search passes only
    # witnesses, it meets the same affine classes as all witnesses of that
    # size (found by brute force over every mask), and for p <= 13 it
    # passes exactly the sets read from a greatest (run, gap) pair in which
    # 1 is optimal and some A + d, d outside {0, 1}, lies in A ∪ (A+1)
    witnesses = {k: [] for k in range(p + 1)}
    for mask in range(1, (1 << p) - 1):
        if chains._equal_impact_pair(mask, p) is not None:
            witnesses[mask.bit_count()].append(mask)
    for k in range(2, p):
        passed, _ = chains._layout_witnesses(p, k)
        assert len(set(passed)) == len(passed)
        assert all(mask.bit_count() == k and chains._equal_impact_pair(mask, p) is not None for mask in passed)
        assert _affine_keys(passed, p) == _affine_keys(witnesses[k], p), (p, k)
        if p > 13:
            continue
        expect = []
        for mask in range(1 << p):
            pairs = _layout(mask, p)
            if mask.bit_count() != k or pairs is None or pairs[0] != max(pairs):
                continue
            A = set(ResidueSet(p, mask))
            alphas = {d: len({(a + d) % p for a in A} - A) for d in range(1, p)}
            union = A | {(a + 1) % p for a in A}
            if alphas[1] == min(alphas.values()) and any({(a + d) % p for a in A} <= union for d in range(2, p)):
                expect.append(mask)
        assert sorted(passed) == expect, (p, k)


@st.composite
def layout_prefix(draw):
    # A ∩ [0, L) for a set A of Z_p without p - 1, as the search knows it
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 23, 31]))
    L = draw(st.integers(1, p))
    return p, L, draw(st.integers(0, (1 << min(L, p - 1)) - 1))


@settings(max_examples=300, deadline=None)
@given(layout_prefix())
def test_dead_differences_match_a_loop_over_d(case):
    p, L, mask = case
    A = {x for x in range(L) if mask >> x & 1}
    out = set(range(L)) - A
    not_s = {y for y in out if (y - 1) % p not in A}  # p - 1 is not in A
    e = out - not_s
    expect = {
        d
        for d in range(2, p)
        if any((a + d) % p in not_s for a in A) or any((y - d) % p in out | {p - 1} for y in e)
    }
    every_d, dead = chains._dead_differences(p)
    slot = {d: 1 << (d + 1) * 2 * p - 1 for d in range(2, p)}
    assert every_d == sum(slot.values())
    assert dead(mask, (1 << L) - 1) == sum(slot[d] for d in expect), (p, L, sorted(A))


class TestMu:
    # p -> (mu, witness_count, affine class representatives).  At p = 13
    # and 19 the witness class is fixed by a dilation of order 3 (composed
    # with a translation): it holds 4 and 6 translation classes, not p - 1.
    # 29 and 31 agree with a scan over every fixed-density necklace
    VALUES = {
        5: (4, 4, [(0, 1, 2, 3)]),
        7: (4, 8, [(0, 1, 2, 4)]),
        11: (8, 80, [(0, 1, 2, 3, 4, 5, 6, 8)]),
        13: (7, 28, [(0, 1, 2, 3, 5, 6, 9)]),
        17: (10, 160, [(0, 1, 2, 3, 4, 5, 7, 9, 10, 13)]),
        19: (9, 54, [(0, 1, 2, 3, 4, 7, 12, 14, 15)]),
        29: (16, 448, [(0, 1, 2, 3, 4, 5, 6, 8, 9, 11, 12, 15, 18, 22, 23, 24)]),
        31: (15, 450, [(0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 13, 15, 19, 20, 25)]),
    }

    @pytest.mark.parametrize("p", sorted(VALUES))
    def test_frozen_values(self, p):
        rec = compute_mu(p)
        assert (rec.mu, rec.witness_count, list(rec.witnesses_up_to_affine)) == self.VALUES[p]
        assert rec.bounds_hold
        assert rec.strategy == "bounded"

    def test_strategies_agree(self):
        for p in (5, 7, 11, 13, 17):
            full, bounded = compute_mu(p, "full"), compute_mu(p, "bounded")
            assert (full.mu, full.witness_count, full.witnesses_up_to_affine) == (
                bounded.mu,
                bounded.witness_count,
                bounded.witnesses_up_to_affine,
            )

    def test_witness_count_counts_witnesses_containing_zero(self):
        rec = compute_mu(13, "full")
        zero_in = sum(
            1
            for mask in range(1 << 13)
            if mask & 1 and mask.bit_count() == rec.mu and chains._equal_impact_pair(mask, 13) is not None
        )
        assert rec.witness_count == zero_in == 28

    def test_p23(self):
        rec = compute_mu(23)
        assert (rec.mu, rec.witness_count, len(rec.witnesses_up_to_affine)) == (12, 528, 2)
        assert rec.bounds_hold

    def test_search_node_ceiling(self):
        # 89,778 nodes with every cut; without one of them: 94,941 (p - 1
        # in test (ii)), 103,454 (a tie on l_1 caps g), 141,480 (the run
        # bound), 142,704 (test (ii)), 157,902 (the check after a run),
        # 166,417 (gap lengths), 215,191 (the rotation rule): losing a cut
        # fails this test
        rec = compute_mu(23)
        assert rec.nodes == 89_778

    def test_mu7_sqrt_bound_tight(self):
        rec = compute_mu(7)
        assert rec.sqrt_bound == 4 and rec.log4_bound == 2 and rec.mu == 4

    def test_witnesses_are_canonical(self):
        rec = compute_mu(5)
        for w in rec.witnesses_up_to_affine:
            assert w == tuple(sorted(w))
            assert w[0] == 0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            compute_mu(7, "auto")

    def test_full_scan_over_budget(self):
        with pytest.raises(BudgetExceededError):
            compute_mu(23, "full")

    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            compute_mu(9)

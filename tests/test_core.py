"""Core carrier type, sumsets, Kneser machinery, difference normalization."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqadd import digital
from zqadd.core import (
    ModulusMismatchError,
    ResidueSet,
    Subgroup,
    affine_images,
    affine_maps,
    coset_counts,
    divisors,
    interval,
    kneser_check,
    next_prime,
    normalize_difference,
    parse_set,
    period_group,
    proper_nontrivial_subgroups,
    seminorm,
    set_from_json,
    set_to_json,
    shift_mask,
    shift_table,
    sumset,
    sumset_mask,
    translation_classes,
    units,
)
from zqadd.digital import enumerate_digital_sets, subgroup_lemma_check


def S(q, elems):
    return ResidueSet.from_elements(q, elems)


class TestResidueSet:
    def test_elements_roundtrip(self):
        A = S(10, [3, 7, 9])
        assert A.elements == (3, 7, 9)
        assert A.size == 3

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            S(5, [5])

    def test_shift_wraps(self):
        assert shift_mask(S(5, [3, 4]).mask, 2, 5) == 0b11

    def test_dilation_by_unit_preserves_size(self):
        assert S(12, [(5 * x) % 12 for x in (0, 1, 5)]).size == 3

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatchError):
            sumset(S(5, [0]), S(6, [0]))


class TestSetLiterals:
    def test_parse_literal(self):
        A = parse_set("q=12;{0,3,11}")
        assert A.q == 12 and A.elements == (0, 3, 11)

    def test_json_roundtrip(self):
        A = S(9, [1, 4])
        assert set_from_json(set_to_json(A)) == A

    def test_malformed_literal(self):
        with pytest.raises(ValueError):
            parse_set("q=;{1}")


class TestSumset:
    def test_direct_expansion(self):
        assert sumset(S(5, [0, 1]), S(5, [0, 2])).elements == (0, 1, 2, 3)

    def test_identity_element(self):
        A = S(11, [2, 5, 6])
        assert sumset(A, S(11, [0])) == A

    def test_ap_case(self):
        # intervals add like intervals: size |A| + |B| - 1
        assert sumset(interval(0, 4, 12), S(12, [0, 1])) == interval(0, 5, 12)


def per_position_sumset(a_mask, b_mask, q):
    # the loop sumset_mask replaced: test every bit position of B up to its top bit
    out = 0
    for t in range(b_mask.bit_length()):
        if b_mask >> t & 1:
            out |= (a_mask << t) | (a_mask >> (q - t))
    return out & ((1 << q) - 1)


@st.composite
def mask_pair(draw):
    q = draw(st.integers(1, 1024))
    sparse = st.sets(st.integers(0, q - 1), max_size=min(q, 40)).map(lambda xs: sum(1 << x for x in xs))
    masks = st.one_of(sparse, st.integers(0, (1 << q) - 1))
    return draw(masks), draw(masks), q


@settings(max_examples=300, deadline=None)
@given(mask_pair())
def test_sumset_mask_equals_the_per_position_loop(case):
    a, b, q = case
    assert sumset_mask(a, b, q) == per_position_sumset(a, b, q) == per_position_sumset(b, a, q)


class TestInterval:
    def test_wraparound(self):
        assert interval(10, 2, 12).elements == (0, 1, 2, 10, 11)

    def test_full_group(self):
        assert interval(0, 6, 7).size == 7

    def test_singleton(self):
        assert interval(3, 3, 7).elements == (3,)


class TestSeminorm:
    def test_zero(self):
        assert seminorm(0, 12) == 0

    def test_minus_one(self):
        assert seminorm(11, 12) == 1

    def test_symmetry(self):
        assert seminorm(5, 12) == seminorm(7, 12) == 5


class TestPeriodGroup:
    def test_full_group(self):
        assert period_group(ResidueSet.full(6)).order == 6

    def test_coset(self):
        assert period_group(S(12, [0, 3, 6, 9])).order == 4

    def test_aperiodic(self):
        assert period_group(S(5, [0, 1])).order == 1


class TestKneser:
    def test_small_pair(self):
        rep = kneser_check(S(7, [0, 1]), S(7, [0, 1]))
        assert rep.holds and rep.lhs == 3 and rep.rhs == 3 and rep.H.order == 1

    def test_singletons(self):
        assert kneser_check(S(5, [0]), S(5, [0])).holds

    def test_random_pairs(self):
        rng = random.Random(1)
        for _ in range(500):
            q = rng.randrange(2, 61)
            A = ResidueSet(q, rng.randrange(1, 1 << q))
            B = ResidueSet(q, rng.randrange(1, 1 << q))
            assert kneser_check(A, B).holds


def kneser_by_sets(q, A, B, stabilizers):
    """(lhs, H, rhs) of Kneser's bound with plain sets: S = A+B, H its
    stabilizer {t : S+t = S} (memoized per S), rhs |A+H| + |B+H| - |H|."""
    S = frozenset((a + b) % q for a in A for b in B)
    if S not in stabilizers:
        stabilizers[S] = {t for t in range(q) if {(s + t) % q for s in S} == S}
    H = stabilizers[S]
    a_h = {(a + h) % q for a in A for h in H}
    b_h = {(b + h) % q for b in B for h in H}
    return len(S), H, len(a_h) + len(b_h) - len(H)


@pytest.mark.parametrize("q", range(1, 9))
def test_kneser_check_matches_sets_on_every_pair(q):
    sets = [(ResidueSet(q, mask), elements_of(mask, q)) for mask in range(1, 1 << q)]
    stabilizers = {}
    for A, a in sets:
        for B, b in sets:
            lhs, H, rhs = kneser_by_sets(q, a, b, stabilizers)
            rep = kneser_check(A, B)
            assert (rep.holds, rep.lhs, rep.rhs) == (lhs >= rhs, lhs, rhs)
            assert rep.H.order == len(H) and elements_of(rep.H.mask, q) == H


class TestNormalizeDifference:
    def test_spec_example_q4(self):
        nd = normalize_difference(6, 4)
        assert nd.value == 10
        assert nd.divisor_part == 2 and nd.coprime_part == 5

    def test_spec_example_q12(self):
        nd = normalize_difference(3, 12)
        assert nd.value == 39
        assert nd.divisor_part == 3 and nd.coprime_part == 13

    def test_coprime_case(self):
        nd = normalize_difference(5, 12)
        assert nd.divisor_part == 1 and nd.value % 12 == 5

    def test_postconditions_random(self):
        import math

        rng = random.Random(3)
        for _ in range(300):
            q = rng.randrange(2, 200)
            a = rng.randrange(0, q)
            nd = normalize_difference(a, q)
            assert nd.value % q == a % q or (a % q == 0 and nd.value == q)
            assert nd.value == nd.divisor_part * nd.coprime_part
            assert q % nd.divisor_part == 0
            assert math.gcd(nd.coprime_part, q) == 1


class TestSubgroupLemma:
    def test_coset_intersection_example(self):
        rep = subgroup_lemma_check(S(8, [0, 3]), Subgroup(8, 2))
        assert rep.coset_bound_holds

    def test_exhaustive_m4_q8(self):
        for w in enumerate_digital_sets(4, 8):
            for H in proper_nontrivial_subgroups(8):
                assert subgroup_lemma_check(w.set, H).holds

    def test_full_subgroup_rejected(self):
        with pytest.raises(ValueError):
            subgroup_lemma_check(S(8, [0, 3]), Subgroup(8, 8))

    def test_flags_match_the_every_subset_oracle(self, monkeypatch):
        # the oracle: (ii) over every nonempty A' ⊆ A, and (i) and |A+H| by
        # set arithmetic; p is patched so that (i) and (ii) also fail
        seen = set()
        cases = [(2, 4), (2, 8), (4, 8), (3, 9), (2, 16), (4, 16), (8, 16), (5, 25), (3, 27)]
        for m, q, w in ((m, q, w) for m, q in cases for w in enumerate_digital_sets(m, q)):
            A = w.set
            for H in proper_nontrivial_subgroups(q):
                n, h = H.order, H.mask
                h_elems = {j * H.generator for j in range(n)}
                cosets = [set(A.elements) & {(t + x) % q for x in h_elems} for t in range(q // n)]
                a_plus_h = len({(a + x) % q for a in A for x in h_elems})
                g = math.gcd(m * n, q)
                expansion = set()  # (|A'+H|, |A'|) over every nonempty A'
                for sub in range(1, 1 << m):
                    a_mask = sum(1 << e for i, e in enumerate(A.elements) if sub >> i & 1)
                    met = sum(1 for t in range(q // n) if a_mask & shift_mask(h, t, q))
                    expansion.add((n * met, a_mask.bit_count()))
                for p in (2, 3, 5):
                    monkeypatch.setattr(digital, "smallest_prime_factor", lambda _, p=p: p)
                    expect = (
                        all(p * len(c) <= min(m, n) for c in cosets),
                        all(size_h >= p * size for size_h, size in expansion),
                        a_plus_h >= g >= p * max(m, n) and (m < 3 or 3 * g >= 4 * m + 3 * n or g >= q),
                    )
                    rep = subgroup_lemma_check(A, H)
                    got = (rep.coset_bound_holds, rep.subset_expansion_holds, rep.gcd_bound_holds)
                    assert got == expect, (p, A, H)
                    seen.update(enumerate(expect))
        assert seen == {(i, ok) for i in range(3) for ok in (True, False)}


class TestNumberTheory:
    def test_next_prime(self):
        assert next_prime(64) == 67

    def test_units(self):
        assert tuple(units(8)) == (1, 3, 5, 7)
        assert units(2) == (1,)
        # Z_1 = {0} has one unit, 0
        assert units(1) == (0,)


def elements_of(mask, q):
    return {x for x in range(q) if mask >> x & 1}


def brute_affine_maps(mask, q):
    """{(c, s): mask of c*S + s} over the units c of Z_q and every s, in
    order of c and then s."""
    elems = elements_of(mask, q)
    return {
        (c, s): sum(1 << x for x in {(c * e + s) % q for e in elems})
        for c in range(q)
        if math.gcd(c, q) == 1
        for s in range(q)
    }


class TestKernels:
    def test_shift_table_every_mask(self):
        for q in range(1, 11):
            for mask in range(1 << q):
                elems = elements_of(mask, q)
                table = shift_table(mask, q)
                assert len(table) == q
                for t, image in enumerate(table):
                    assert elements_of(image, q) == {(x + t) % q for x in elems}

    @pytest.mark.parametrize("q", range(1, 13))
    def test_affine_images_match_brute_force(self, q):
        for mask in range(1 << q):
            assert affine_images(mask, q) == set(brute_affine_maps(mask, q).values())

    @pytest.mark.parametrize("q", [2, 7, 9, 12])
    def test_affine_orbit_every_map_once(self, q):
        # the images are those of c*S + s, and affine_maps onto them hands out
        # every (c, s) exactly once over the whole orbit
        rng = random.Random(q)
        for _ in range(5):
            mask = rng.randrange(1 << q)
            elems = elements_of(mask, q)
            images = affine_images(mask, q)
            assert images == {
                sum(1 << ((c * x + s) % q) for x in elems) for c in units(q) for s in range(q)
            }
            walk = sorted(cs for image in images for cs in affine_maps(mask, image, q))
            assert walk == [(c, s) for c in units(q) for s in range(q)]

    def test_affine_images_of_z1(self):
        assert affine_images(1, 1) == {1}

    @pytest.mark.parametrize("q", range(1, 11))
    def test_affine_maps_are_the_orbit_maps_onto_the_target(self, q):
        # every mask, so composite q and periodic S (several s per c) occur
        rng = random.Random(q)
        for mask in range(1 << q):
            maps = brute_affine_maps(mask, q)
            images = list(maps.values())
            targets = {images[rng.randrange(len(images))] for _ in range(2)}
            targets |= {rng.randrange(1 << q) for _ in range(2)}
            for target in targets:
                expected = [cs for cs, image in maps.items() if image == target]
                assert list(affine_maps(mask, target, q)) == expected

    @pytest.mark.parametrize("q", [7, 9, 12])
    def test_affine_orbit_lex_least_image(self, q):
        rng = random.Random(q)
        for _ in range(10):
            mask = rng.randrange(1, 1 << q)
            elems = sorted(elements_of(mask, q))
            brute = min(
                tuple(sorted((c * x + s) % q for x in elems))
                for c in range(1, q)
                if math.gcd(c, q) == 1
                for s in range(q)
            )
            least = min(tuple(sorted(elements_of(img, q))) for img in affine_images(mask, q))
            assert least == brute

    def test_coset_counts_every_mask(self):
        for q in range(1, 13):
            for H in (Subgroup(q, n) for n in divisors(q)):
                h = {j * H.generator for j in range(H.order)}
                for mask in range(1 << q):
                    elems = elements_of(mask, q)
                    expect = [len(elems & {(t + x) % q for x in h}) for t in range(q // H.order)]
                    assert coset_counts(mask, H) == expect


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


class TestNecklaces:
    # a translation class of d-subsets of Z_n is a binary necklace of
    # length n and density d
    @pytest.mark.parametrize("n", range(1, 15))
    def test_count_is_the_fixed_density_necklace_number(self, n):
        counts = Counter(rep.bit_count() for rep, _ in translation_classes(n))
        expected = {}
        for d in range(1, n + 1):
            g = math.gcd(n, d)
            expected[d] = sum(
                euler_phi(j) * math.comb(n // j, d // j) for j in range(1, g + 1) if g % j == 0
            ) // n
        assert counts == expected

    @pytest.mark.parametrize("n", range(1, 15))
    def test_ascending_least_rotations_of_density_d(self, n):
        for d in range(1, n + 1):
            masks = [rep for rep, _ in translation_classes(n) if rep.bit_count() == d]
            assert masks == sorted(set(masks))
            for mask in masks:
                assert mask == min(shift_table(mask, n))

    @pytest.mark.parametrize("q", range(1, 11))
    def test_translation_classes_match_a_least_rotation_scan(self, q):
        brute = [
            (mask, len(set(shift_table(mask, q))))
            for mask in range(1, 1 << q)
            if mask == min(shift_table(mask, q))
        ]
        assert list(translation_classes(q)) == brute

"""Digital sets (complete residue systems mod m inside Z_q), base-m carry
statistics, the subgroup lemma, and the desk-scale verifiers for the
structure results about them: the impact lower bound, its extension from
the hypothesis range, and the small-doubling classification."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Iterator, Optional

from .core import (
    BudgetExceededError,
    ModulusMismatchError,
    ResidueSet,
    Subgroup,
    affine_images,
    affine_maps,
    coset_counts,
    factorize,
    interval,
    shift_table,
    smallest_prime_factor,
)
from .impact import m_threshold, range_bounds, xi_exact, xi_naive
from .progressions import min_alpha

DIGITAL_SET_BUDGET = 5_000_000  # most digital sets one enumeration may yield


@dataclass(frozen=True)
class DigitalSetWitness:
    set: ResidueSet
    m: int
    residue_map: tuple[int, ...]  # residue_map[r] = the unique a in A, a == r mod m

    @property
    def q(self) -> int:
        return self.set.q


def is_digital(A: ResidueSet) -> Optional[DigitalSetWitness]:
    """Witness that A is a complete residue system mod m = |A| with m | q,
    or None."""
    m = A.size
    q = A.q
    if m == 0 or q % m != 0:
        return None
    rmap: list[Optional[int]] = [None] * m
    for a in A.elements:
        r = a % m
        if rmap[r] is not None:
            return None
        rmap[r] = a
    return DigitalSetWitness(A, m, tuple(rmap))  # type: ignore[arg-type]


def prime_condition(m: int, q: int) -> bool:
    """m and q composed of the same primes, with every exponent strictly
    larger in q."""
    if m == 1 and q == 1:
        return False  # no strictly larger exponents exist
    fm = dict(factorize(m)) if m > 1 else {}
    fq = dict(factorize(q)) if q > 1 else {}
    return set(fm) == set(fq) and all(fq[p] > e for p, e in fm.items())


@dataclass(frozen=True)
class SubgroupLemmaReport:
    coset_bound_holds: bool
    subset_expansion_holds: bool
    gcd_bound_holds: bool

    @property
    def holds(self) -> bool:
        return self.coset_bound_holds and self.subset_expansion_holds and self.gcd_bound_holds


def subgroup_lemma_check(A: ResidueSet, H: Subgroup) -> SubgroupLemmaReport:
    """Check the three subgroup-intersection/expansion inequalities for a
    digital set A and a proper nontrivial subgroup H:

      (i)   p * |A ∩ (H+t)| <= min(m, |H|) for every coset,
      (ii)  |A' + H| >= p * |A'| for every nonempty A' ⊆ A,
      (iii) |A+H| >= gcd(m|H|, q) >= max(p*max(m,|H|), min(q, 4m/3 + |H|)),

    where p is the smallest prime factor of q.
    """
    q = A.q
    if H.q != q:
        raise ModulusMismatchError("subgroup modulus differs from set modulus")
    if H.is_trivial or H.is_full:
        raise ValueError("subgroup must be proper and nontrivial")
    if is_digital(A) is None:
        raise ValueError("subgroup_lemma_check requires a digital set")
    m = A.size
    n = H.order
    p = smallest_prime_factor(q)
    counts = sorted(coset_counts(A.mask, H), reverse=True)
    coset_ok = p * counts[0] <= min(m, n)

    # (ii) for every A' at once, with c_1 >= c_2 >= ... the counts of A:
    # an A' meeting j cosets has |A'+H| = j|H| and |A'| <= c_1 + ... + c_j,
    # so p(c_1 + ... + c_j) <= j|H| for every j implies (ii).  Conversely,
    # if it fails at j, it fails at min(j, z) too (z = number of nonzero
    # counts: past z the sum stops growing), and A' = A ∩ (the cosets of
    # c_1 .. c_min(j,z)) meets exactly that many cosets and breaks (ii).
    expansion_ok = all(p * top <= j * n for j, top in enumerate(accumulate(counts), 1))

    g = math.gcd(m * n, q)
    a_plus_h = n * sum(1 for c in counts if c)
    # the 4m/3 + |H| branch needs m >= 3: its proof splits on powers of 2
    # and uses m >= 3 in the base case; it is false for m = 2, q = 8,
    # |H| = 2 (gcd = 4 < 4m/3 + 2)
    lower_line_ok = m < 3 or 3 * g >= 4 * m + 3 * n or g >= q
    gcd_ok = a_plus_h >= g and g >= p * max(m, n) and lower_line_ok
    return SubgroupLemmaReport(coset_ok, expansion_ok, gcd_ok)


@dataclass(frozen=True)
class CarryStats:
    distinct_carries: tuple[int, ...]
    nonzero_pair_count: int


def carry_stats(w: DigitalSetWitness) -> CarryStats:
    """Carries (a1 + a2 - a)/m over all m^2 ordered digit pairs, for a
    digit set in Z_{m^2}.  Digits are taken with their standard lift in
    [0, q-1]; carries are exact integers."""
    m = w.m
    if w.q != m * m:
        raise ValueError("carry statistics are defined for q = m^2")
    bits = nonzero = 0
    for pairs in _carry_pairs(m):
        bits, nonzero = _add_carries(bits, nonzero, w.residue_map, pairs, m)
    return CarryStats(tuple(c - m for c in range(3 * m) if bits >> c & 1), nonzero)


@lru_cache(maxsize=None)
def _carry_pairs(m: int) -> tuple[tuple[tuple[int, int, int, int], ...], ...]:
    """The digit pairs of Z_{m^2} by the deepest residue they read: entry d
    holds (r1, r2, s, n) for r1 <= r2 with s = (r1 + r2) mod m and
    max(r1, r2, s) = d.  The carry of (r1, r2) is fixed once lifts r1, r2 and
    s are, and equals that of (r2, r1), so n = 2 stands for both orders
    when r1 < r2 and n = 1 for the one order when r1 = r2."""
    depths: list[list] = [[] for _ in range(m)]
    for r1 in range(m):
        for r2 in range(r1, m):
            s = (r1 + r2) % m
            depths[max(r2, s)].append((r1, r2, s, 1 if r1 == r2 else 2))
    return tuple(map(tuple, depths))


def _add_carries(bits: int, nonzero: int, lifts, pairs, m: int) -> tuple[int, int]:
    """Fold the carries (l[r1] + l[r2] - l[s]) / m of these pairs, l the
    lifts, into (bits, nonzero): a carry c lies in (-m, 2m) and sets bit
    c + m, and nonzero counts the ordered pairs whose carry is not 0."""
    for r1, r2, s, n in pairs:
        c = (lifts[r1] + lifts[r2] - lifts[s]) // m
        bits |= 1 << (c + m)
        if c:
            nonzero += n
    return bits, nonzero


def _digital_walk(
    m: int, q: int, step: Optional[Callable] = None, state=None
) -> Iterator[tuple[int, list[int], object]]:
    """Depth first over the digital sets of (m, q): residue r = 0, 1, ...,
    m-1 takes its lifts r, r + m, ..., r + q - m in turn, so the leaves
    come in the order of product(range(q // m), repeat=m).  Yields (mask,
    lifts, state) at each leaf; lifts is one list that the walk
    overwrites, with lifts[r] the element congruent to r.  Once lifts[0..r]
    are placed, the child's state is step(state, lifts, r), and a step
    that returns None cuts the subtree below."""
    if m < 1 or q < 1 or q % m != 0:
        raise ValueError("digital sets need m, q >= 1 and m | q")
    if (q // m) ** m > DIGITAL_SET_BUDGET:
        raise BudgetExceededError(f"{q // m}^{m} digital sets exceed budget {DIGITAL_SET_BUDGET}")
    lifts = [0] * m

    def walk(r: int, mask: int, state) -> Iterator[tuple[int, list[int], object]]:
        if r == m:
            yield mask, lifts, state
            return
        for e in range(r, q, m):
            lifts[r] = e
            child = state if step is None else step(state, lifts, r)
            if child is None and step is not None:
                continue
            yield from walk(r + 1, mask | 1 << e, child)

    return walk(0, 0, state)


def _carry_walk(m: int) -> Iterator[tuple[int, list[int], tuple[int, int]]]:
    """The digit sets of Z_{m^2} in walk order, each leaf's state the
    (bits, nonzero) of _add_carries over all its pairs: the pairs whose
    deepest residue is r are added once lift r is placed."""
    pairs = _carry_pairs(m)
    return _digital_walk(m, m * m, lambda state, lifts, r: _add_carries(*state, lifts, pairs[r], m), (0, 0))


def enumerate_digital_sets(m: int, q: int) -> Iterator[DigitalSetWitness]:
    """All digital sets for (m, q), lexicographic in the chosen
    representatives; each residue class contributes one of its q/m lifts."""
    for mask, lifts, _ in _digital_walk(m, q):
        yield DigitalSetWitness(ResidueSet(q, mask), m, tuple(lifts))


def sample_digital_set(m: int, q: int, rng: random.Random) -> ResidueSet:
    if m < 1 or q < 1 or q % m != 0:
        raise ValueError("digital sets need m, q >= 1 and m | q")
    reps = q // m
    return ResidueSet.from_elements(
        q, (r + rng.randrange(reps) * m for r in range(m))
    )


def canonical_interval_digits(m: int) -> ResidueSet:
    """The digit set [0, m-1] in Z_{m^2}."""
    return interval(0, m - 1, m * m)


def centered_digits(m: int) -> ResidueSet:
    """The digit set (-m/2, m/2] in Z_{m^2}, under the standard lift:
    {q - floor((m-1)/2), ..., q-1, 0, 1, ..., ceil((m-1)/2)}."""
    q = m * m
    lo = -((m - 1) // 2)
    hi = m + lo - 1
    return ResidueSet.from_elements(q, ((x + q) % q for x in range(lo, hi + 1)))


@dataclass(frozen=True)
class CarryExtremalityReport:
    sets_scanned: int
    min_distinct_carries: int
    distinct_minimizer_count: int
    distinct_minimizers_in_interval_orbit: bool
    interval_attains_distinct_min: bool
    min_nonzero_pairs: int
    nonzero_minimizer_count: int
    nonzero_minimizers_in_centered_orbit: bool

    @property
    def holds(self) -> bool:
        """Both extremality claims in the orbit reading: every minimizer
        is an affine image of the corresponding canonical digit set.

        The interval digits must also attain the distinct-carry minimum.
        The centered digits need not attain the nonzero-pair minimum:
        carry statistics under the standard lift are not affine-invariant,
        and they miss it at every m from 3 to 7.
        """
        return (
            self.distinct_minimizers_in_interval_orbit
            and self.nonzero_minimizers_in_centered_orbit
            and self.interval_attains_distinct_min
        )


def verify_carry_extremality(m: int) -> CarryExtremalityReport:
    """Exhaustive sweep of digital sets in Z_{m^2}: the interval digits
    minimize the number of distinct carries and the centered digits
    minimize the number of nonzero-carry pairs; minimizers are compared
    against the affine orbits of the two canonical sets."""
    q = m * m
    # per statistic (distinct carries, nonzero pairs): least value, minimizers
    best = [math.inf, math.inf]
    minimizers: list[list[int]] = [[], []]
    count = 0
    for mask, _, (bits, nz) in _carry_walk(m):
        count += 1
        for i, value in enumerate((bits.bit_count(), nz)):
            if value < best[i]:
                best[i], minimizers[i] = value, []
            if value == best[i]:
                minimizers[i].append(mask)
    (best_distinct, best_nonzero), (distinct_minimizers, nonzero_minimizers) = best, minimizers

    interval_orbit = affine_images(canonical_interval_digits(m).mask, q)
    centered_orbit = affine_images(centered_digits(m).mask, q)
    interval_stats = carry_stats(is_digital(canonical_interval_digits(m)))
    return CarryExtremalityReport(
        sets_scanned=count,
        min_distinct_carries=best_distinct,
        distinct_minimizer_count=len(distinct_minimizers),
        distinct_minimizers_in_interval_orbit=all(
            mk in interval_orbit for mk in distinct_minimizers
        ),
        interval_attains_distinct_min=(
            len(interval_stats.distinct_carries) == best_distinct
        ),
        min_nonzero_pairs=best_nonzero,
        nonzero_minimizer_count=len(nonzero_minimizers),
        nonzero_minimizers_in_centered_orbit=all(
            mk in centered_orbit for mk in nonzero_minimizers
        ),
    )


# ---------------------------------------------------------------------------
# theorem verifiers


@dataclass(frozen=True)
class ImpactBoundReport:
    samples: int
    two_ap_sets: int
    checked_sets: int
    counterexamples: list


IMPACT_WINDOW = (2, 3, 4)  # the n at which xi(n) > m + n is checked
NAIVE_CROSS_CHECK_UPTO = 3  # xi_exact is also checked against xi_naive up to this n


def verify_digital_impact_bound(
    m: int, q: int, samples: int, seed: int = 0
) -> ImpactBoundReport:
    """For sampled digital sets: every set that is not a union of at most
    two common-difference progressions (min alpha >= 3) must satisfy
    xi(n) > m + n for n in IMPACT_WINDOW.

    Requires the prime condition and m > 15, as the claim does.
    """
    if not prime_condition(m, q):
        raise ValueError(f"(m={m}, q={q}) fails the prime condition")
    if m <= 15:
        raise ValueError("m <= 15 is outside the theorem")

    rng = random.Random(seed)
    two_ap = checked = 0
    counterexamples = []
    for _ in range(samples):
        A = sample_digital_set(m, q, rng)
        if min_alpha(A) <= 2:
            two_ap += 1  # excluded branch: xi(2) <= m+2 by the identity
            continue
        checked += 1
        # 1 < n < q - m: the prime condition gives m | q, q > m, so q - m >= m > 15
        for n in IMPACT_WINDOW:
            val = xi_exact(A, n)
            if n <= NAIVE_CROSS_CHECK_UPTO:
                naive = xi_naive(A, n).value
                if naive != val:
                    raise AssertionError(
                        f"search/naive disagreement at n={n}: {val} vs {naive}"
                    )
            if val <= m + n:
                counterexamples.append(
                    {"set": list(A.elements), "n": n, "xi": val}
                )
    return ImpactBoundReport(
        samples, two_ap, checked, counterexamples
    )


@dataclass(frozen=True)
class SmallDoublingReport:
    sets_scanned: int
    solutions: list  # each: elements, (x, y), affine normal form


LITERAL_CONCLUSION_NOTE = (
    "the source states the normal form as cA+d = {0,1,...,q-1}, which has q "
    "elements while |A| = m < q; this verifier checks affine equivalence to "
    "an interval of length m and flags the discrepancy"
)


def verify_small_doubling_classification(m: int, q: int) -> SmallDoublingReport:
    """Exhaustively find digital sets with 2A ⊆ {x,y} + A for some x, y
    with {x,y} + A a proper subset of Z_q, and check each is an affine
    image of an interval of length m.

    Prefilter: only sets with |2A| <= min(2m, q - 1) are searched for a
    pair.  A cover (A+x) ∪ (A+y) has at most 2m elements, and at most
    q - 1 when it is a proper subset of Z_q; it contains 2A, so a set
    with a larger |2A| has no pair.  The walk builds 2A lift by lift and
    cuts a subtree as soon as the placed part P has |2P| > min(2m, q - 1),
    counting the sets below it; the survivors and the cut sets must add
    up to (q/m)^m.

    The properness requirement matters only at q = 2m, where {0,m} + A
    equals Z_q for every digital set (the two lifts of each residue class
    are swapped by adding m) and the containment is vacuous.
    """
    if not prime_condition(m, q):
        raise ValueError(f"(m={m}, q={q}) fails the prime condition")
    interval_mask = interval(0, m - 1, q).mask
    cover_max = min(2 * m, q - 1)
    reps = q // m
    full = (1 << q) - 1
    cut = 0

    def grow(state: tuple[int, int], lifts: list[int], r: int) -> Optional[tuple[int, int]]:
        # 2(P ∪ {e}) = 2P ∪ (P+e) ∪ {2e}.  Every set A below has 2P ⊆ 2A,
        # so once |2P| > cover_max none of them passes the prefilter.
        nonlocal cut
        p, pp = state
        e = lifts[r]
        pp |= (p << e) & full | p >> (q - e) | 1 << (2 * e % q)
        if pp.bit_count() > cover_max:
            cut += reps ** (m - r - 1)
            return None
        return p | 1 << e, pp

    solutions = []
    survivors = 0
    for mask, lifts, (_, aa) in _digital_walk(m, q, grow, (0, 0)):
        survivors += 1
        pair = _find_covering_pair(mask, aa, q)
        if pair is None:
            continue
        # the first (c, s) with c*A + s = [0, m-1], if A is an affine interval image
        normal = next(({"scale": c, "shift": s} for c, s in affine_maps(mask, interval_mask, q)), None)
        solutions.append({"elements": sorted(lifts), "pair": pair, "normal_form": normal})
    if survivors + cut != reps**m:
        raise AssertionError(f"{survivors} surviving and {cut} cut sets do not cover the {reps**m} digital sets")
    return SmallDoublingReport(survivors + cut, solutions)


def _find_covering_pair(a_mask: int, aa: int, q: int) -> Optional[tuple[int, int]]:
    """The first x <= y, x ascending and then y, with 2A ⊆ (A+x) ∪ (A+y)
    and the union a proper subset of Z_q.  The union has 2|A| - |A ∩ (A+d)|
    elements, d = y - x, and must hold 2A, so only the steps d with
    |A ∩ (A+d)| <= 2|A| - |2A| are tried."""
    full = (1 << q) - 1
    shifts = shift_table(a_mask, q)
    slack = 2 * a_mask.bit_count() - aa.bit_count()
    steps = [d for d, sd in enumerate(shifts) if (a_mask & sd).bit_count() <= slack]
    for x in range(q):
        sx = shifts[x]
        for d in steps:
            if x + d >= q:
                break
            cover = sx | shifts[x + d]
            if cover != full and aa & ~cover == 0:
                return (x, x + d)
    return None


# ---------------------------------------------------------------------------
# sampled verification of the impact extension theorem


@dataclass(frozen=True)
class TheoremMainReport:
    m: int
    q: int
    k: int
    samples: int
    hypothesis_holds: int
    vacuous: int
    checked: int
    counterexamples: list


def verify_impact_extension(
    m: int,
    q: int,
    k: int,
    samples: int,
    window: tuple[int, ...] = (2, 3, 4, 5),
    seed: int = 0,
) -> TheoremMainReport:
    """Sample digital sets and check: if xi(n) >= n+m+k holds on the short
    hypothesis range 2 <= n <= (3+sqrt(16k+1))/2, it also holds on the
    spot-check window inside [2, q-m-k-1]."""
    if not prime_condition(m, q):
        raise ValueError(f"(m={m}, q={q}) fails the prime condition")
    if m <= (m0 := m_threshold(k)):
        raise ValueError(f"m={m} not above threshold m_0({k}) = {m0}")
    end = range_bounds(m, k).hypothesis_range_end
    rng = random.Random(seed)
    hyp_holds = vacuous = checked = 0
    counterexamples = []
    for _ in range(samples):
        A = sample_digital_set(m, q, rng)
        ok = True
        for n in range(2, end + 1):
            if xi_exact(A, n) < n + m + k:
                ok = False
                break
        if not ok:
            vacuous += 1
            continue
        hyp_holds += 1
        for n in window:
            if not 2 <= n <= q - m - k - 1:
                continue
            val = xi_exact(A, n)
            checked += 1
            if val < n + m + k:
                counterexamples.append({"set": list(A.elements), "n": n, "xi": val})
    return TheoremMainReport(
        m, q, k, samples, hyp_holds, vacuous, checked, counterexamples
    )

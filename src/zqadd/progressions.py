"""Arithmetic-progression structure: decompositions, alpha profiles,
uniqueness of minimal decompositions, and stable components."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from .core import (
    BudgetExceededError,
    ResidueSet,
    Subgroup,
    affine_maps,
    coset_counts,
    interval,
    proper_nontrivial_subgroups,
    shift_mask,
    shift_table,
    subgroup_mask,
)


@dataclass(frozen=True)
class ApDecomposition:
    """Partition of A into full cosets of <t> and maximal t-progressions.

    Progressions are (start, length) pairs; full cosets are recorded by
    their smallest element.
    """

    base: ResidueSet
    difference: int
    full_cosets: tuple[int, ...]
    progressions: tuple[tuple[int, int], ...]

    @property
    def alpha(self) -> int:
        return len(self.progressions)

    def reassemble(self) -> ResidueSet:
        q = self.base.q
        t = self.difference
        mask = 0
        order = q // math.gcd(t, q)
        for rep in self.full_cosets:
            x = rep
            for _ in range(order):
                mask |= 1 << x
                x = (x + t) % q
        for start, length in self.progressions:
            x = start
            for _ in range(length):
                mask |= 1 << x
                x = (x + t) % q
        return ResidueSet(q, mask)


def decompose(A: ResidueSet, t: int) -> ApDecomposition:
    """The unique decomposition of A into full <t>-cosets and maximal
    t-progressions."""
    q = A.q
    t %= q
    if t == 0:
        raise ValueError("difference must be nonzero")
    if A.mask == 0:
        raise ValueError("cannot decompose the empty set")
    mask = A.mask
    g = math.gcd(t, q)
    h = subgroup_mask(q, q // g)
    # the coset r + <g>, r < g, has its elements r, r+g, ... below q
    full_cosets = tuple(r for r in range(g) if mask >> r & h == h)
    # x starts a maximal t-progression iff x is in A and x - t is not; a
    # full coset has no start, and every other run ends before it wraps
    starts = mask & ~shift_mask(mask, t, q)
    progressions = []
    while starts:
        x = start = (starts & -starts).bit_length() - 1
        starts &= starts - 1
        length = 1
        while mask >> (x := (x + t) % q) & 1:
            length += 1
        progressions.append((start, length))
    return ApDecomposition(A, t, full_cosets, tuple(progressions))


def alpha(A: ResidueSet, t: int) -> int:
    """alpha_t(A) = |(A+t) \\ A|, the progression count of the t-decomposition."""
    q = A.q
    t %= q
    if t == 0:
        raise ValueError("difference must be nonzero")
    return (shift_mask(A.mask, t, q) & ~A.mask).bit_count()


def alpha_profile(A: ResidueSet) -> dict[int, int]:
    """alpha_t(A) for every nonzero t."""
    if A.mask == 0:
        raise ValueError("alpha profile of the empty set is undefined")
    if A.mask == (1 << A.q) - 1:
        raise ValueError("alpha profile of the full group is undefined")
    shifts = shift_table(A.mask, A.q)
    return {t: (shifts[t] & ~A.mask).bit_count() for t in range(1, A.q)}


def min_alpha(A: ResidueSet) -> int:
    return min(alpha_profile(A).values())


def optimal_differences(A: ResidueSet) -> list[int]:
    """All t attaining min_t alpha_t(A), ascending."""
    prof = alpha_profile(A)
    k = min(prof.values())
    return [t for t, a in sorted(prof.items()) if a == k]


def contained_in_coset(A: ResidueSet) -> Optional[Subgroup]:
    """The largest proper nontrivial subgroup H with A inside a single coset
    of H, if one exists."""
    for H in reversed(proper_nontrivial_subgroups(A.q)):
        if max(coset_counts(A.mask, H)) == A.size:
            return H
    return None


# ---------------------------------------------------------------------------
# uniqueness of 2-progression decompositions


@dataclass(frozen=True)
class UniquenessVerdict:
    difference_set: tuple[int, ...]
    classification: str  # unique_pm_d | exception_interval_plus_point |
    #                      exception_point_plus_interval | other
    hypothesis_report: dict = field(compare=False, default_factory=dict)
    detail: dict = field(compare=False, default_factory=dict)


def _family_masks(q: int, size: int) -> tuple[int, int]:
    """Bitmasks of the two exceptional families at difference 1:
    [0, size-2] ∪ {size} and {0} ∪ [2, size]."""
    interval_plus_point = interval(0, size - 2, q).mask | (1 << (size % q))
    point_plus_interval = 1 | interval(2, size, q).mask
    return interval_plus_point, point_plus_interval


_FAMILY_LABELS = ("exception_interval_plus_point", "exception_point_plus_interval")


def check_uniqueness(A: ResidueSet) -> UniquenessVerdict:
    """Classify the set of x with |A + {0,x}| = |A| + 2 for a set with
    minimal progression count 2.

    Family 2 equals m - family 1, so both exception labels name one affine
    orbit.  The label and the detail (c, s), with c^-1 * A + s that family,
    come from the smallest scale c with c^-1 * A a translate of a family
    (then the smallest s, then family 1 before family 2).

    A map F -> c*F + t onto A takes F+1 to A+c, so alpha_c(A) =
    alpha_1(F) = 2: only scales c in the difference set can occur, and
    affine_maps dilates a family by no other c.
    """
    q = A.q
    m = A.size
    prof = alpha_profile(A)
    # this refuses |A| <= 2 too: alpha_t(A) = |(A+t) \ A| <= 1 for every t if |A| = 1, at t = a' - a if A = {a, a'}
    if min(prof.values()) != 2:
        raise ValueError("uniqueness check requires minimal progression count 2")
    diff_set = tuple(t for t in sorted(prof) if prof[t] == 2)

    hypothesis = {
        "q_odd": q % 2 == 1,
        "q_gt_100": q > 100,
        "size_in_range": 4 < m < q - 4,
        "not_in_coset": contained_in_coset(A) is None,
    }

    if len(diff_set) == 2 and diff_set[1] == (q - diff_set[0]) % q:
        return UniquenessVerdict(diff_set, "unique_pm_d", hypothesis)

    # c^-1 * A + s = F  iff  c*F + t = A with t = -c*s
    found = [
        (c, -t * pow(c, -1, q) % q, family)
        for family, fam in enumerate(_family_masks(q, m))
        for c, t in affine_maps(fam, A.mask, q)
    ]
    if found:
        c, s, family = min(found)
        detail = {"scale": c, "shift": s}
        return UniquenessVerdict(diff_set, _FAMILY_LABELS[family], hypothesis, detail)
    # structured dump for inspection
    detail = {
        "alpha_profile": prof,
        "elements": list(A.elements),
    }
    return UniquenessVerdict(diff_set, "other", hypothesis, detail)


# ---------------------------------------------------------------------------
# stable components


@dataclass(frozen=True)
class StabilityReport:
    k: int
    optimal_differences: tuple[int, ...]
    status: str  # stable | unstable
    witness: Optional[tuple[int, ResidueSet]] = None


STABILITY_BUDGET = 2_000_000  # most modifications of A that stability enumerates


def stability(A: ResidueSet) -> StabilityReport:
    """Decide whether A has k stable components, k = min_t alpha_t(A).

    Enumerates every modification A~ of A with |A~ Δ A| <= k and tests
    |(A~ + d) \\ A~| >= k for each optimal difference d; BudgetExceededError
    past STABILITY_BUDGET modifications.
    """
    q = A.q
    prof = alpha_profile(A)
    k = min(prof.values())
    opt = tuple(t for t, a in prof.items() if a == k)
    modifications = sum(math.comb(q, j) for j in range(k + 1))
    if modifications > STABILITY_BUDGET:
        raise BudgetExceededError(f"stability: {modifications} modifications of A exceed budget {STABILITY_BUDGET}")

    for d in opt:
        # alpha_{q-d}(X) = alpha_d(X) for every X, and q - d < d was scanned
        if 2 * d > q:
            break
        for nbr in _neighborhood(A, k):
            if (shift_mask(nbr, d, q) & ~nbr).bit_count() < k:
                return StabilityReport(k, opt, "unstable", (d, ResidueSet(q, nbr)))
    return StabilityReport(k, opt, "stable")


def _neighborhood(A: ResidueSet, k: int):
    """Masks of all A~ with |A~ Δ A| <= k (including A itself), in
    deterministic order."""
    for j in range(k + 1):
        for delta in combinations(range(A.q), j):
            m = A.mask
            for x in delta:
                m ^= 1 << x
            yield m

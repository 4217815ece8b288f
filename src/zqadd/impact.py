"""The impact function xi_A(n) = min_{|B|=n} |A+B|, exact by enumeration
and by branch-and-bound, plus the inequality checkers built on it."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, islice
from typing import Optional

from .core import (
    BudgetExceededError,
    ResidueSet,
    shift_mask,
    shift_table,
    sumset,
    sumset_mask,
)

# search budgets, read at call time so that tests can lower them
DEFAULT_NODE_BUDGET = 50_000_000  # xi_search nodes, xi_naive combinations
PLUENNECKE_EXACT_CAP = 16  # largest |A| of the exact Plünnecke search


@dataclass(frozen=True)
class ImpactResult:
    value: int
    witness: ResidueSet
    nodes_explored: int
    exact: bool


def _trivial_impact(A: ResidueSet, n: int) -> Optional[ImpactResult]:
    q = A.q
    if A.mask == 0:
        raise ValueError("impact function needs a nonempty set")
    if not 0 <= n <= q:
        raise ValueError(f"n must lie in [0, {q}], got {n}")
    if n == 0:
        return ImpactResult(0, ResidueSet.empty(q), 0, True)
    return None


def xi_naive(A: ResidueSet, n: int) -> ImpactResult:
    """Exhaustive minimum of |A+B| over all B with |B| = n and 0 in B.

    Fixing 0 in B loses nothing: |A + (B+t)| = |A+B|.  The witness is the
    lexicographically least minimizer containing 0.  Every n >= 1 is
    enumerated, so the oracle also checks xi_search's n = 1 shortcut.

    B = {0} ∪ C runs over the (n-1)-subsets C of 1..q-1 in lexicographic
    order: a prefix (a head from itertools.combinations, then its last
    element) and a tail of the last r = min(3, n-1, q-n) elements.  The
    unions of A's shifts over every r-tail are built once, in lexicographic
    order: C(q-1, r) <= C(q-1, n-1) entries since r <= min(n-1, q-n), and at
    most C(q-1, 3) once q >= 7.  The tails above a prefix ending at p are the
    last C(q-1-p, r), so each prefix scores one suffix slice, and the first
    minimizer met is the lexicographically least.
    """
    res = _trivial_impact(A, n)
    if res is not None:
        return res
    q = A.q
    if math.comb(q - 1, n - 1) > DEFAULT_NODE_BUDGET:
        raise BudgetExceededError(
            f"xi_naive budget exceeded: C({q - 1},{n - 1}) combinations"
        )
    shifts = shift_table(A.mask, q)
    r = min(3, n - 1, q - n)
    tails = shifts[1:] if r else [0]
    for j in range(1, r):  # the j-subsets of a+1..q-1 are the last C(q-1-a, j)
        tails = [shifts[a] | u for a in range(1, q) for u in tails[len(tails) - math.comb(q - 1 - a, j):]]
    above = [len(tails) - math.comb(q - 1 - p, r) for p in range(q)]
    value = q + 1
    nodes = 0
    k = n - 1 - r  # a prefix is a head of k-1 elements and a last element
    for head in combinations(range(1, q - r - 1), max(k - 1, 0)):
        m_head = A.mask
        top = 0
        for top in head:
            m_head |= shifts[top]
        for last in range(top + 1, q - r) if k else (0,):  # k = 0: OR-ing shifts[0] = A adds nothing
            m = m_head | shifts[last]
            scores = [(m | u).bit_count() for u in tails[above[last]:]]
            nodes += len(scores)
            if (v := min(scores)) < value:
                value, best = v, (head, last, above[last] + scores.index(v))
    head, last, index = best
    prefix = head + (last,) if k else ()
    tail = next(islice(combinations(range(1, q), r), index, None))
    return ImpactResult(value, ResidueSet.from_elements(q, (0,) + prefix + tail), nodes, True)


def xi_search(A: ResidueSet, n: int, node_budget: Optional[int] = None) -> ImpactResult:
    """Branch-and-bound over prenecklace gap sequences, same lexicographic
    witness as xi_naive.

    B = {0 = b_0 < ... < b_{n-1}} has gaps g_i = b_i - b_{i-1} and wrap gap
    g_n = q - b_{n-1}; the sorted translate B - b_j is the running sum of
    the gaps rotated by j, so translates compare as gap rotations do.  The
    least minimizer B* is <= each translate B* - b (b in B*), a minimizer
    containing 0, so its gaps are their own least rotation: every prefix is
    a prenecklace (Fredricksen-Kessler-Maiorana: with p the period of
    g_1..g_t, g_{t+1} >= g_{t+1-p}) and every gap is >= g_1, so
    b_{t+1} + g_1 * (gaps still to come) <= q.  Candidates ascend, so leaves
    come in lexicographic order; with strict updates and the cut on
    |A + B_partial| >= incumbent (it only grows), B* is the first minimizer
    found.  A node is a pop or a scanned last element; when the node budget
    runs out the incumbent is returned with exact=False.

    The budget is tested only once a leaf exists.  Before that the
    incumbent is q + 1 and nothing is pruned, and lo <= hi on the path of
    least candidates since n <= q, so the first leaf comes after n - 1
    pops and one last-element scan: a cut result is always a leaf, and
    node_budget = 0 stops at the first one.  node_budget must be >= 0 and
    defaults to DEFAULT_NODE_BUDGET as it is at the call.
    """
    res = _trivial_impact(A, n)
    if res is not None:
        return res
    if node_budget is None:
        node_budget = DEFAULT_NODE_BUDGET
    if node_budget < 0:
        raise ValueError(f"node budget must be >= 0, got {node_budget}")
    q = A.q
    if n == 1:  # |A + {b}| = |A|, and {0} is the least B
        return ImpactResult(A.size, ResidueSet.from_elements(q, [0]), 0, True)
    shifts = shift_table(A.mask, q)
    best = q + 1  # every leaf beats it, so best <= q once a leaf exists
    best_elems: tuple[int, ...] = ()
    nodes = 0
    exact = True
    need = n - 1

    # iterative DFS: stack of (chosen = (0, b_1, .., b_t), period, partial_mask)
    stack = [((0,), 1, A.mask)]
    while stack:
        if nodes >= node_budget and best <= q:
            exact = False
            break
        chosen, p, partial = stack.pop()
        nodes += 1
        floor = partial.bit_count()
        if floor >= best:
            continue
        t = len(chosen) - 1
        if t:  # gap >= g_{t+1-p}; the period stays p on equality, else is t+1
            lo = chosen[t] + chosen[t + 1 - p] - chosen[t - p]
            hi = q - chosen[1] * (need - t)
        else:  # the first element is g_1 itself: n * g_1 <= q
            lo, hi = 1, q // n
        if t + 1 == need:
            for c in range(lo, hi + 1):
                nodes += 1
                v = (partial | shifts[c]).bit_count()
                if v < best:
                    best = v
                    best_elems = chosen[1:] + (c,)
                    if v == floor:  # no later leaf here goes below floor
                        break
            continue
        # push in reverse so smaller candidates are explored first
        for c in range(hi, lo - 1, -1):
            child = partial | shifts[c]
            if child.bit_count() < best:
                stack.append((chosen + (c,), p if c == lo else t + 1, child))

    witness = ResidueSet.from_elements(q, (0,) + best_elems)
    return ImpactResult(best, witness, nodes, exact)


def xi_exact(A: ResidueSet, n: int) -> int:
    """xi_A(n) by xi_search; BudgetExceededError if the search is cut."""
    res = xi_search(A, n)
    if not res.exact:
        raise BudgetExceededError(f"xi_search inexact at n={n}")
    return res.value


# ---------------------------------------------------------------------------
# Sidon sets and the sumset inequalities


def sidon_check(B: ResidueSet) -> bool:
    """B is Sidon iff |B ∩ (B+t)| <= 1 for every t != 0, iff |2B| = n(n+1)/2.

    A Sidon set of n elements has n(n-1) <= q-1: |B ∩ (B+t)| counts the
    ordered pairs b != b' with b - b' = t, so these counts sum to n(n-1)
    over the q-1 values t != 0, each at most 1.  Larger sets fail at once.
    """
    if B.mask == 0:
        raise ValueError("sidon_check needs a nonempty set")
    q = B.q
    n = B.mask.bit_count()
    return n * (n - 1) <= q - 1 and all((B.mask & shift_mask(B.mask, t, q)).bit_count() < 2 for t in range(1, q))


@dataclass(frozen=True)
class SidonSumsetBoundReport:
    holds: bool
    sumset_size: int


def sidon_sumset_bound_check(A: ResidueSet, B: ResidueSet) -> SidonSumsetBoundReport:
    """For Sidon B: |A+B| >= m n^2 / (m+n-1) with m = |A|, n = |B|."""
    A._check_same(B)
    if not sidon_check(B):
        raise ValueError("sidon_sumset_bound_check requires a Sidon set B")
    m, n = A.size, B.size
    s = sumset(A, B).size
    holds = s * (m + n - 1) >= m * n * n
    return SidonSumsetBoundReport(holds, s)


@dataclass(frozen=True)
class PluenneckeReport:
    beta: Fraction
    best_subset: ResidueSet
    ratio: Fraction
    exact: bool

    @property
    def holds(self) -> bool:
        return self.ratio <= self.beta * self.beta


def pluennecke_subset(A: ResidueSet, B: ResidueSet) -> PluenneckeReport:
    """The nonempty A' ⊆ A minimizing |A' + 2B| / |A'|, compared against
    beta^2 with beta = |A+B|/|A|.

    Exact, by a branch-and-bound DFS over all subsets that returns the
    first minimizer in DFS order; BudgetExceededError when |A| >
    PLUENNECKE_EXACT_CAP.
    """
    A._check_same(B)
    if A.mask == 0 or B.mask == 0:
        raise ValueError("pluennecke_subset needs nonempty sets")
    m = A.size
    if m > PLUENNECKE_EXACT_CAP:
        raise BudgetExceededError(f"pluennecke_subset: |A| = {m} exceeds {PLUENNECKE_EXACT_CAP}")
    q = A.q
    beta = Fraction(sumset(A, B).size, m)
    bb = sumset_mask(B.mask, B.mask, q)
    elems = A.elements
    shifts = [shift_mask(bb, a, q) for a in elems]

    # incumbent ratio bn/bd, compared by cross-multiplying; q+1 is
    # beaten by every nonempty subset, whose ratio is at most q
    bn, bd = q + 1, 1
    best_mask = 0
    # shared-prefix DFS over subsets of A
    stack = [(0, 0, 0, 0)]  # (index, chosen_mask, size, union)
    while stack:
        i, chosen, size, union = stack.pop()
        u = union.bit_count()
        # Prune: this node and its descendants add only elements of
        # index >= i, so each has size <= size + m - i and a union of
        # >= u elements, hence ratio >= u / (size + m - i) >= bn / bd,
        # and none beats the incumbent strictly.  The update below is
        # strict too, so best_mask stays the first minimizer in DFS order.
        if u * bd >= bn * (size + m - i):
            continue
        if size and u * bd < bn * size:
            bn, bd = u, size
            best_mask = chosen
        for j in range(m - 1, i - 1, -1):
            stack.append((j + 1, chosen | (1 << elems[j]), size + 1, union | shifts[j]))
    return PluenneckeReport(beta, ResidueSet(q, best_mask), Fraction(bn, bd), True)


# ---------------------------------------------------------------------------
# the two quadratic range bounds


@dataclass(frozen=True)
class RangeBounds:
    bound1: int
    bound2: int
    hypothesis_range_end: int


def range_bounds(m: int, k: int) -> RangeBounds:
    """Floors of the roots of the two quadratics bounding the minimizing n,
    and of the asymptotic endpoint (3 + sqrt(16k+1))/2 that bound2
    approaches.  Each bounds an integer n, so the floors lose nothing."""
    if m <= 2:
        raise ValueError("range_bounds needs m >= 3 (a = m-2 degenerates)")
    if k < 0:
        raise ValueError("k must be nonnegative")
    b1 = _floor_root(m - 1, 2 * m + k - 2, (m - 1) * (m + k - 1))
    b2 = _floor_root(m - 2, 3 * m + 4 * k - 4, 2 * m + 2 * (k - 1) * (2 * m + k - 1))
    return RangeBounds(b1, b2, (3 + math.isqrt(16 * k + 1)) // 2)


def _floor_root(a: int, b: int, c: int) -> int:
    """floor of the larger root (b + sqrt(D))/2a of a x^2 - b x - c, with
    D = b^2 + 4ac, exactly: for integers b and 2a > 0, (b + y)/2a >= t
    exactly when b + floor(y) >= 2at."""
    return (b + math.isqrt(b * b + 4 * a * c)) // (2 * a)


def bound2_threshold(k: int) -> int:
    """Smallest m >= 3 with bound2 <= end + 1, end = (3 + sqrt(16k+1))/2 as
    a real number (so the integer n it bounds cannot exceed the hypothesis
    range by more than one), decided in integers.

    With s = 16k+1, a = 2k+3 and X = end + 1 = (5 + sqrt(s))/2, twice
    bound2's quadratic at X is u + v sqrt(s), u = 2m - a^2 - s and
    v = 2m - 2a.  X lies past the smaller root (1 at k = 0, negative for
    k >= 1), so bound2 <= X exactly when u + v sqrt(s) >= 0, which squaring
    decides once the signs of u and v are known.  u and v both grow with m,
    so every m past the first that passes passes too, and the scan ends:
    both are positive once 2m > a^2 + s."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    s, a = 16 * k + 1, 2 * k + 3

    def passes(m: int) -> bool:
        u, v = 2 * m - a * a - s, 2 * m - 2 * a
        return (u >= 0 and u * u >= v * v * s) if v < 0 else (u >= 0 or v * v * s >= u * u)

    return next(m for m in count(3) if passes(m))


def beta_threshold(k: int) -> int:
    """Smallest m from which bound1 forces beta = (m+n+r)/m below sqrt(2)
    for every m' >= m (n integer, r <= k-1): one past the last m >= 3 with
    (m + floor(bound1) + k - 1)^2 >= 2 m^2.  Isolated small m can pass
    while a larger one fails, so the scan runs to a proven horizon.

    No m >= 8(k+2) + 64 fails.  The larger root of a x^2 - b x - c is at
    most b/a + sqrt(c/a), so for m >= k+1, bound1 <= 2 + k/(m-1) +
    sqrt(m+k-1) <= 3 + sqrt(m+k-1) < 3 + sqrt(2m), and
    m + floor(bound1) + k - 1 < m + (k+2) + sqrt(2m).  Once m >= 8(k+2) + 64,
    k+2 <= (sqrt(2) - 1) m/2 and, as m >= 47, sqrt(2m) <= (sqrt(2) - 1) m/2,
    so the left side is below sqrt(2) m."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    fails = [m for m in range(3, 8 * (k + 2) + 64) if (m + range_bounds(m, k).bound1 + k - 1) ** 2 >= 2 * m * m]
    return fails[-1] + 1 if fails else 3


def m_threshold(k: int) -> int:
    """m_0(k): the smallest m for which both quadratic arguments apply; the
    extension theorem is checked for m > m_0(k).

    The bound2 part applies the real-number rule bound2 <= end + 1.  Open
    finding: the least failing n is at most bound2, and this rule lets that
    be floor(end) + 1, outside the hypothesis range [2, floor(end)].  The
    integer reading floor(bound2) <= floor(end) would give m_0(1) = 17, not
    10.  The finding is reported here, not applied."""
    return max(beta_threshold(k), bound2_threshold(k))

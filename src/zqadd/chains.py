"""Sets with xi(2) = xi(3): chain decompositions of the complement, the
explicit chain-of-intervals construction with complement density 5/18,
and the minimal-cardinality function mu(p) over prime moduli."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import (
    BudgetExceededError,
    ResidueSet,
    affine_images,
    next_prime,
    seminorm,
    shift_mask,
    shift_table,
)
from .impact import xi_exact
from .progressions import contained_in_coset, decompose


def equal_impact_witnesses(A: ResidueSet) -> Optional[tuple[int, int]]:
    """If xi_A(2) = xi_A(3), a pair of distinct nonzero differences
    (d1, d2) with |A + {0, d1, d2}| = xi_A(2), else None.

    Both differences must individually be optimal for xi(2), so the sweep
    runs over pairs of optimal differences, ordered by seminorm.
    """
    if A.mask == 0 or A.mask == (1 << A.q) - 1:
        raise ValueError("needs a nonempty proper subset")
    return _equal_impact_pair(A.mask, A.q)


def _equal_impact_pair(mask: int, q: int) -> Optional[tuple[int, int]]:
    """equal_impact_witnesses for the nonempty proper set with this mask:
    the first pair of optimal differences, in (seminorm, d) order, whose
    union with the set stays at xi(2) = |A| + min alpha."""
    shifts = shift_table(mask, q)
    # alpha_d = alpha_{q-d}, so walking d = 1 .. q/2 and taking d, then
    # q - d, lists every optimal difference in (seminorm, d) order
    alphas = [(shifts[d] & ~mask).bit_count() for d in range(1, q // 2 + 1)]
    k = min(alphas)
    opt = []
    for d, a in enumerate(alphas, 1):
        if a == k:
            opt += (d, q - d) if 2 * d != q else (d,)
    target = mask.bit_count() + k
    for i, d1 in enumerate(opt):
        m1 = mask | shifts[d1]
        for d2 in opt[i + 1 :]:
            if (m1 | shifts[d2]).bit_count() == target:
                return (d1, d2)
    return None


@dataclass(frozen=True)
class ChainFamily:
    """Decomposition of A^c within the occupied cosets of H = <d1> into
    chains of d1-gap-runs linked by translation by d2."""

    z: int  # cosets of H meeting A
    subgroup_order: int
    chains: tuple[tuple[tuple[int, ...], ...], ...]  # chain -> run -> elements
    full_cosets: tuple[int, ...]  # representatives of cosets disjoint from A
    run_count: int  # k: total number of gap runs
    violations: tuple[str, ...] = field(default=())

    @property
    def valid(self) -> bool:
        return not self.violations


def extract_chain_structure(
    A: ResidueSet, d1: int, d2: int, k_bound: Optional[int] = None
) -> ChainFamily:
    """Decompose the complement of A into maximal d1-runs inside the
    cosets of <d1> meeting A, link them into chains via G -> (G - d2),
    and check the chain-structure conditions:

      (i)   every run has size <= k (k = xi(3) - |A| when k_bound is None),
      (ii)  sizes along a chain grow by exactly one,
      (iii) each chain head g satisfies g - d2 in A,
      (iv)  (G + {0, d1}) for distinct runs G are pairwise disjoint
            (true of maximal runs, so never checked),

    plus the size bound |A| >= z|H| - k(k+1)/2 with k the run count.
    Violations are collected, not raised: a violation on a set satisfying
    the hypotheses contradicts the structure theorem.
    """
    q = A.q
    if not 0 < d1 < q or q % d1 != 0:
        raise ValueError("d1 must be a divisor of q with 0 < d1 < q")
    if d2 % q == 0:
        raise ValueError("d2 must be nonzero mod q")
    if k_bound is not None and k_bound < 0:
        raise ValueError("k_bound must be nonnegative")
    if contained_in_coset(A) is not None:
        raise ValueError("A must not be contained in a coset of a proper subgroup")
    order = q // d1
    complement = A.complement()
    comp = complement.mask
    full_cosets, progressions = (), ()
    if comp:  # A = Z_q leaves no runs, and decompose rejects the empty set
        dec = decompose(complement, d1)
        full_cosets, progressions = dec.full_cosets, dec.progressions
    # the coset r + <d1>, r < d1, is r, r + d1, ... below q, so ordering by
    # (coset, start) lists each coset's runs in cycle order from r
    runs = [
        tuple((start + i * d1) % q for i in range(length))
        for start, length in sorted(progressions, key=lambda r: (r[0] % d1, r[0]))
    ]
    z = d1 - len(full_cosets)

    violations: list[str] = []
    k = len(runs)
    run_masks = [sum(1 << x for x in run) for run in runs]

    # (iv) holds: G + {0, d1} = G ∪ {end(G) + d1}, end(G) + d1 is in A, and runs end apart

    # link G_j -> G_i when G_j = (G_i - d2) ∩ A^c is one element shorter; a run has
    # at most one successor: two with predecessor G_j both contain G_j + d2, so are one run
    by_mask = {mk: i for i, mk in enumerate(run_masks)}
    succ: dict[int, int] = {}
    for i, mk in enumerate(run_masks):
        if len(runs[i]) == 1:
            continue
        j = by_mask.get(shift_mask(mk, -d2 % q, q) & comp)
        if j is None or len(runs[j]) != len(runs[i]) - 1:
            violations.append(f"condition_ii: run {i} has no predecessor one shorter")
        else:
            succ[j] = i

    # the heads are the one-element runs, as only longer runs get a predecessor;
    # chains from distinct heads are disjoint, as a run is the successor of at most one run
    chains: list[tuple[tuple[int, ...], ...]] = []
    heads = [i for i, run in enumerate(runs) if len(run) == 1]
    for h in sorted(heads, key=lambda i: (runs[i][0] % d1, seminorm(runs[i][0], q))):
        chain = [h]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        chains.append(tuple(runs[i] for i in chain))
        g = runs[h][0]
        if (g - d2) % q not in A:
            violations.append(f"condition_iii: head {g} - d2 not in A")
    if sum(map(len, chains)) != k:
        violations.append("chain_partition: some runs belong to no chain")

    kk = k_bound if k_bound is not None else xi_exact(A, 3) - A.size
    for i, run in enumerate(runs):
        if len(run) > kk:
            violations.append(f"condition_i: run {i} longer than k = {kk}")

    if A.size < z * order - k * (k + 1) // 2:
        violations.append("size_bound: |A| < z|H| - k(k+1)/2")

    return ChainFamily(z, order, tuple(chains), tuple(full_cosets), k, tuple(violations))


# ---------------------------------------------------------------------------
# the explicit construction


@dataclass(frozen=True)
class ConstructionSpec:
    m: int
    d: int  # 2^m
    ground: int  # 2^(2m)
    chains: tuple[tuple[tuple[int, int], ...], ...]  # chain -> interval (lo, hi)
    size: int
    closed_form_size: int
    density: float


def _chain_intervals(length: int, offset: int, d: int) -> list[tuple[int, int]]:
    """Intervals of the trimmed chain phi(G_length) + offset: the j-th
    interval [j(d-1)+1, jd] for j = 1..length-1 (the head of each interval
    of G_length is dropped)."""
    return [
        (offset + j * (d - 1) + 1, offset + j * d) for j in range(1, length)
    ]


def build_construction(m: int) -> ConstructionSpec:
    """Materialize the union of trimmed chains

        phi(G_{2^m})  and  phi(B_i^(l)),  1 <= l <= m-1, 1 <= i <= m-l,

    with B_i^(l) anchored at 2^m(2^{m+1-l} - 2^{m+2-l-i} - 1) + 2^{m+1-l-i},
    inside [0, 2^{2m}].  Checks pairwise interval disjointness and the
    closed-form size 2^m(2^m-1)/2 + sum of 2^{m+1-l-i}(2^{m+1-l-i}-1)/2.
    """
    if not 2 <= m <= 12:
        raise ValueError("construction parameter m must be in [2, 12]")
    d = 1 << m
    ground = 1 << (2 * m)
    chains = [tuple(_chain_intervals(d, 0, d))]
    for l in range(1, m):
        for i in range(1, m - l + 1):
            length = 1 << (m + 1 - l - i)
            offset = d * ((1 << (m + 1 - l)) - 2 * length - 1) + length
            chains.append(tuple(_chain_intervals(length, offset, d)))

    intervals = sorted(iv for ch in chains for iv in ch)
    if any(a[1] >= b[0] for a, b in zip(intervals, intervals[1:])):
        raise AssertionError("construction intervals collide")
    size = sum(hi - lo + 1 for lo, hi in intervals)
    closed = d * (d - 1) // 2 + sum(
        (1 << (m + 1 - l - i)) * ((1 << (m + 1 - l - i)) - 1) // 2
        for l in range(1, m)
        for i in range(1, m - l + 1)
    )
    lo = min(iv[0] for iv in intervals)
    hi = max(iv[1] for iv in intervals)
    if lo < 0 or hi > ground:
        raise AssertionError("construction leaves the ground interval")
    return ConstructionSpec(
        m, d, ground, tuple(chains), size, closed, size / ground
    )


def project_to_prime(spec: ConstructionSpec) -> tuple[int, ResidueSet]:
    """Project the construction into Z_p for the least prime p >= 2^{2m}
    (direct next-prime search) and return the complement set A."""
    p = next_prime(spec.ground)
    mask = 0
    for ch in spec.chains:
        for lo, hi in ch:
            for x in range(lo, hi + 1):
                mask |= 1 << (x % p)
    image = ResidueSet(p, mask)
    if image.size != spec.size:
        raise AssertionError("projection is not injective")
    return p, image.complement()


def construction_chain_family(spec: ConstructionSpec, p: int, A: ResidueSet) -> ChainFamily:
    """The chain family of the projected construction: gap direction
    d1 = 1, chain translation d2 = 2^m, runs bounded by the interval count."""
    k_bound = sum(len(ch) for ch in spec.chains)
    return extract_chain_structure(A, 1, spec.d % p, k_bound=k_bound)


# ---------------------------------------------------------------------------
# mu(p)


@dataclass(frozen=True)
class MuRecord:
    """mu(p), its minimal witnesses and the paper's bounds on it."""

    p: int
    mu: int
    witness_count: int  # minimal witnesses that contain 0
    witnesses_up_to_affine: tuple[tuple[int, ...], ...]
    sqrt_bound: int  # least mu with mu >= sqrt(8p+25) - 5, applicable when mu < 2p/3
    log4_bound: int  # least mu with mu > log_4 p
    bounds_hold: bool
    strategy: str
    nodes: int  # search nodes: gaps and runs placed ('bounded'), subsets tested ('full')


MU_FULL_BUDGET = 1 << 22  # most subsets the unreduced 'full' scan may test


def _dead_differences(p: int) -> tuple[int, Callable[[int, int], int]]:
    """(every_d, dead) for a subset A of Z_p with p - 1 not in A, known on
    K = [0, L): dead(mask, known), with mask = A ∩ K and known = 2^L - 1,
    sets bit (d+1)*w - 1 (w = 2p) for each d = 2 .. p-1 such that
      (i)  some a in A ∩ K has a + d in K \\ S, where S = A ∪ (A+1), or
      (ii) some y in E ∩ K, where E = (A+1) \\ A, has y - d in K \\ A or
           y - d = p - 1;
    every_d holds the bits of all those d.  K \\ S and E ∩ K are known, as
    0 - 1 = p - 1 is not in A.

    Each test covers every d in one product: slot d (w bits) of
    x * stagger holds X shifted up by d*w + d, slot d of y2 * spread holds
    Y ∪ (Y+p) shifted up by d*w, so slot d of their AND holds the x + d < 2p
    (x in X) that lie in Y or Y + p, and is nonzero exactly when X + d meets
    Y mod p.  Its value is below 2^(2p-1) = 2^(w-1), so adding 2^(w-1) - 1
    sets its top bit exactly when it is nonzero, with no carry.
    """
    w = 2 * p
    slots = range(2, p)
    spread = sum(1 << d * w for d in slots)
    stagger = sum(1 << d * (w + 1) for d in slots)
    every_d = spread << (w - 1)
    fill = every_d - spread  # 2^(w-1) - 1 in every slot
    last = 1 << (p - 1)

    def dead(mask: int, known: int) -> int:
        out = known & ~mask  # K \ A
        y1 = out & ~(mask << 1)  # K \ S
        y2 = out & mask << 1  # E ∩ K
        hits = mask * stagger & (y1 | y1 << p) * spread  # (i)
        hits |= (out | last) * stagger & (y2 | y2 << p) * spread  # (ii)
        return (hits + fill) & every_d

    return every_d, dead


def _layout_witnesses(p: int, k: int) -> tuple[list[int], int]:
    """The k-subsets of Z_p, as masks, that pass the normalized witness
    test, at least one per translation class that does, and the number of
    gaps and runs the search placed.

    The test: alpha_1 is minimal and A + d lies in S = A ∪ (A+1) for some d
    outside {0, 1}.  Such an A has xi(3) <= |S ∪ (A+d)| = |A| + alpha_1 =
    xi(2).  Every witness has optimal d1 != d2 with A + d2 inside
    A ∪ (A+d1), as |A ∪ (A+d1) ∪ (A+d2)| = |A| + min alpha, so for p prime
    its dilate by 1/d1 passes: every affine class of witnesses has a
    member that passes.  In a passing A, (A+d) \\ A, alpha_d >= alpha_1
    points, lies in E = (A+1) \\ A, alpha_1 points, so the two are equal.

    A is laid out as runs and gaps (l_1, g_1), .., (l_r, g_r) with run 1
    starting at 0, so r = alpha_1 and p - 1 lies in a gap.  The rules:
    - rotation: every (l_i, g_i) <= (l_1, g_1); a translation class has a
      rotation that starts at a greatest pair, as 0 < k < p gives it a run;
    - run bound: r <= k(p-k)/(p-1), the mean of alpha_d over d != 0, as the
      k(p-k) pairs (a in A, y not in A) give one point of (A+d) \\ A each;
    - gap lengths: every length from 1 to the longest occurs.  A gap
      [u, u+g), g >= 2, puts u - d in A (u is in E, inside A + d) and
      u-d+1 .. u-d+g-1 outside A (they are outside S, so outside A + d),
      so a gap of length >= g-1 starts at u-d+1; walking u -> u-d+1 from a
      longest gap drops the length by at most one a step until it is 1,
      and never returns, as its starts differ mod p and r < p;
    - surviving differences (_dead_differences): a d dies once the known
      prefix K shows A + d leaving S, or E leaving A + d; K only grows, so
      a dead d stays dead, and at K = Z_p the survivors, with alpha_1
      minimal, are the d with A + d inside S.  It is checked as each run
      is placed (K ends at the gap point after it), and at the leaf;
    - leaf: alpha_d >= r for d = 2 .. p//2, as alpha_{p-d} = alpha_d.
    """
    every_d, dead = _dead_differences(p)
    full = (1 << p) - 1
    rmax = k * (p - k) // (p - 1)
    gmax = (math.isqrt(8 * (p - k) + 1) - 1) // 2  # a gap of length g needs g(g+1)/2 gap points
    # weight[s]: the sum of the gap lengths in the set s, as a bit mask
    weight = [sum(j for j in range(gmax + 1) if s >> j & 1) for s in range(2 << gmax)]
    found: list[int] = []
    nodes = 0

    def complete(mask: int, live: int, r: int, pair: tuple[int, int], first: tuple[int, int], lengths: int) -> None:
        # the last run and gap, pair, close the layout, so K = Z_p
        lengths |= 1 << pair[1]
        if pair > first or lengths != (1 << lengths.bit_length()) - 2 or not live & ~dead(mask, full):
            return
        doubled = mask | mask << p
        comp = full ^ mask
        # doubled >> s is A + (p - s)
        if all((doubled >> s & comp).bit_count() >= r for s in range(p - p // 2, p - 1)):
            found.append(mask)

    def grow(mask: int, end: int, live: int, r: int, l: int, first: Optional[tuple[int, int]], lengths: int) -> None:
        # runs 1 .. r lie in mask, the last one, of length l, ends just
        # below the gap point end; first = (l_1, g_1), or None while g_1 is
        # open; lengths has bit g set for each gap length g placed
        nonlocal nodes
        left = k - mask.bit_count()
        spare = p - end - left  # gap points still to place
        l1 = first[0] if first else l
        for g in range(1, min(gmax, spare - -(-left // l1)) + 1):
            if first and l == l1 and g > first[1]:
                break
            seen = lengths | 1 << g
            missing = (1 << seen.bit_length()) - 2 & ~seen  # each needs a later gap
            if missing.bit_count() > rmax - r or weight[missing] > spare - g:
                continue
            pos = end + g
            nodes += 1
            for l2 in range(min(left, l1), 0, -1):
                more = -(-(left - l2) // l1)  # runs still to come after this one
                if r + 1 + more > rmax or more >= spare - g:
                    break
                nodes += 1
                m = mask | ((1 << l2) - 1) << pos
                if l2 == left:
                    complete(m, live, r + 1, (l2, spare - g), first or (l, g), seen)
                    continue
                alive = live & ~dead(m, (2 << pos + l2) - 1)
                if alive:
                    grow(m, pos + l2, alive, r + 1, l2, first or (l, g), seen)

    for l1 in range(k, 0, -1):
        if -(-k // l1) > rmax:
            break
        nodes += 1
        mask = (1 << l1) - 1
        if l1 == k:
            complete(mask, every_d, 1, (k, p - k), (k, p - k), 0)
            continue
        alive = every_d & ~dead(mask, (2 << l1) - 1)
        if alive:
            grow(mask, l1, alive, 1, l1, None, 0)
    return found, nodes


def _full_witnesses(p: int, k: int) -> tuple[list[int], int]:
    """The k-subsets of Z_p, as masks, with xi(2) = xi(3) by the direct
    test _equal_impact_pair, and the number of subsets tested, C(p, k)."""
    masks = map(sum, itertools.combinations([1 << x for x in range(p)], k))
    return [mk for mk in masks if _equal_impact_pair(mk, p) is not None], math.comb(p, k)


def compute_mu(p: int, strategy: str = "bounded") -> MuRecord:
    """mu(p) = min |A| over proper subsets of Z_p with xi(2) = xi(3),
    with the minimal witnesses listed up to affine equivalence.

    Both strategies scan cardinalities k = 2, 3, ... upward (a single
    point has xi(2) = 2 != 3 = xi(3)) and stop at the first k with a
    witness.  'bounded' lays each k-subset out run by run
    (_layout_witnesses) and keeps those that pass the normalized witness
    test; 'full' tests every k-subset with _equal_impact_pair
    (_full_witnesses), as the unreduced oracle, and needs
    2^p <= MU_FULL_BUDGET.  Both count in witness_count the minimal
    witnesses that contain 0, and in nodes the gaps and runs placed
    ('bounded') or the subsets tested ('full').
    """
    if not (p >= 3 and next_prime(p) == p):
        raise ValueError("compute_mu needs an odd prime p")
    if strategy == "full":
        if (1 << p) > MU_FULL_BUDGET:
            raise BudgetExceededError(f"2^{p} subsets exceed budget")
        engine = _full_witnesses
    elif strategy == "bounded":
        engine = _layout_witnesses
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    nodes = 0
    for mu in range(2, p):
        witnesses, searched = engine(p, mu)
        nodes += searched
        if witnesses:
            break
    else:
        raise AssertionError("no witness found below p")
    classes = _affine_classes(witnesses, p)
    if strategy == "full":
        witness_count = sum(mask & 1 for mask in witnesses)
    else:
        # xi(2) = xi(3) is translation invariant, and with p prime and
        # 0 < mu < p each class {A+x} has p distinct members (its period
        # group is a proper subgroup of Z_p, so trivial), of which exactly
        # mu contain 0: the A+x with -x in A.  xi(2) = xi(3) is affine
        # invariant too, so the witnesses of size mu are the affine classes
        # met by the passing layouts, and a class with N distinct images
        # holds N/p translation classes (N/p < p - 1 when some dilation
        # fixes a translate of A)
        witness_count = mu * sum(classes.values()) // p

    canon = sorted(classes)
    sqrt_bound = math.isqrt(8 * p + 24) + 1 - 5  # ceil(sqrt(8p + 25)) - 5
    log4_bound = (p.bit_length() + 1) // 2  # 4^j > p exactly when 2j >= p.bit_length()
    holds = mu >= log4_bound and (3 * mu >= 2 * p or mu >= sqrt_bound)
    return MuRecord(
        p,
        mu,
        witness_count,
        tuple(canon),
        sqrt_bound,
        log4_bound,
        holds,
        strategy,
        nodes,
    )


def _affine_classes(witnesses: list[int], p: int) -> dict[tuple[int, ...], int]:
    """The affine classes met by these masks of Z_p, each as its canonical
    form (the image whose sorted element tuple is lexicographically least)
    mapped to its number of distinct images."""
    classes: dict[tuple[int, ...], int] = {}
    seen: set[int] = set()  # the images of the classes listed so far
    for mk in witnesses:
        if mk in seen:
            continue
        images = affine_images(mk, p)
        seen |= images
        classes[min(ResidueSet(p, img).elements for img in images)] = len(images)
    return classes

"""Sets with xi(2) = xi(3): chain decompositions of the complement, the
explicit chain-of-intervals construction with complement density 5/18,
and the minimal-cardinality function mu(p) over prime moduli."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import (
    BudgetExceededError,
    ResidueSet,
    Subgroup,
    affine_orbit,
    coset_runs,
    necklaces,
    next_prime,
    seminorm,
    shift_mask,
    shift_table,
)
from .impact import xi_exact
from .progressions import contained_in_coset


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

    q: int
    d1: int
    d2: int
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
      (iv)  (G + {0, d1}) for distinct runs G are pairwise disjoint,

    plus the size bound |A| >= z|H| - k(k+1)/2 with k the run count.
    Violations are collected, not raised: a violation on a set satisfying
    the hypotheses contradicts the structure theorem.
    """
    q = A.q
    if d1 == 0 or q % d1 != 0:
        raise ValueError("d1 must be a nonzero divisor of q")
    if contained_in_coset(A) is not None:
        raise ValueError("A must not be contained in a coset of a proper subgroup")
    order = q // d1
    H = Subgroup(q, order)
    comp = A.complement().mask
    full_cosets, runs = coset_runs(comp, d1, q)
    z = d1 - len(full_cosets)

    violations: list[str] = []
    k = len(runs)
    run_masks = []
    for run in runs:
        mk = 0
        for x in run:
            mk |= 1 << x
        run_masks.append(mk)

    # (iv) pairwise disjointness of G + {0, d1}
    expanded = [mk | shift_mask(mk, d1, q) for mk in run_masks]
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            if expanded[i] & expanded[j]:
                violations.append(f"condition_iv: runs {i} and {j} overlap after +{{0,d1}}")

    # link: predecessor(G) = (G - d2) ∩ A^c, one element shorter
    by_mask = {mk: i for i, mk in enumerate(run_masks)}
    pred: dict[int, int] = {}
    for i, mk in enumerate(run_masks):
        if run_masks[i].bit_count() == 1:
            continue
        shifted = shift_mask(mk, -d2 % q, q) & comp
        j = by_mask.get(shifted)
        if j is None or run_masks[j].bit_count() != mk.bit_count() - 1:
            violations.append(f"condition_ii: run {i} has no predecessor one shorter")
        else:
            pred[i] = j

    succ: dict[int, int] = {}
    for i, j in pred.items():
        if j in succ:
            violations.append(f"chain_partition: run {j} feeds two successors")
        succ[j] = i

    chains: list[tuple[tuple[int, ...], ...]] = []
    heads = [i for i, mk in enumerate(run_masks) if mk.bit_count() == 1 and i not in pred]
    used = set()
    for h in sorted(heads, key=lambda i: (min(runs[i]) % d1, seminorm(runs[i][0], q))):
        chain = [h]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        used.update(chain)
        chains.append(tuple(runs[i] for i in chain))
        g = runs[h][0]
        if (g - d2) % q not in A:
            violations.append(f"condition_iii: head {g} - d2 not in A")
    if len(used) != len(runs):
        violations.append("chain_partition: some runs belong to no chain")

    kk = k_bound if k_bound is not None else xi_exact(A, 3) - A.size
    for i, mk in enumerate(run_masks):
        if mk.bit_count() > kk:
            violations.append(f"condition_i: run {i} longer than k = {kk}")

    if A.size < z * order - k * (k + 1) // 2:
        violations.append("size_bound: |A| < z|H| - k(k+1)/2")

    return ChainFamily(
        q,
        d1,
        d2,
        z,
        order,
        tuple(chains),
        tuple(full_cosets),
        k,
        tuple(violations),
    )


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
    sqrt_bound: float  # sqrt(8p+25) - 5, applicable when mu < 2p/3
    log4_bound: float
    sqrt_bound_applicable: bool
    bounds_hold: bool
    strategy: str


MU_FULL_BUDGET = 1 << 22  # most subsets the unreduced 'full' scan may test


def _normalized_witness_test(q: int) -> Callable[[int], bool]:
    """A test on masks of Z_q that passes A exactly when 1 is an optimal
    difference of A and A + d lies in A ∪ (A+1) for some d outside {0, 1}.

    Such an A has xi(3) <= |A ∪ (A+1) ∪ (A+d)| = |A| + alpha_1 = xi(2).
    Every witness has optimal d1 != d2 with A + d2 inside A ∪ (A+d1), as
    |A ∪ (A+d1) ∪ (A+d2)| = |A| + min alpha, so for q prime its dilate by
    1/d1 passes: every affine class of witnesses has a member that passes.

    Step (a) asks whether A + d misses gap = Z_q minus A ∪ (A+1) for some
    d; nearly every set fails it.  It tests all q - 2 shifts in one
    product: slot s (w = 2q bits) of doubled * spread holds A ∪ (A+q)
    shifted up by s*w, slot s of gap * stagger holds gap shifted up by
    s*w + s, so slot s of their AND is nonzero exactly when A + (q-s)
    meets gap.  Its value is below 2^(s+q) <= 2^(w-2), so adding
    2^(w-1) - 1 sets its top bit exactly when it is nonzero, with no
    carry.  Step (b) checks alpha_d >= alpha_1 for d = 2 .. q//2.
    """
    w = 2 * q
    slots = range(1, q - 1)
    spread = sum(1 << s * w for s in slots)
    stagger = sum(1 << s * (w + 1) for s in slots)
    tops = spread << (w - 1)
    fill = tops - spread  # 2^(w-1) - 1 in every slot
    full = (1 << q) - 1

    def test(mask: int) -> bool:
        doubled = mask | mask << q
        gap = full & ~(mask | doubled >> (q - 1))
        if ((doubled * spread & gap * stagger) + fill) & tops == tops:
            return False
        r = q - mask.bit_count() - gap.bit_count()  # alpha_1
        comp = full ^ mask
        # doubled >> s is A + (q - s); alpha_d = alpha_{q-d}
        return all((doubled >> s & comp).bit_count() >= r for s in range(q - q // 2, q - 1))

    return test


def compute_mu(p: int, strategy: str = "bounded") -> MuRecord:
    """mu(p) = min |A| over proper subsets of Z_p with xi(2) = xi(3),
    with the minimal witnesses listed up to affine equivalence.

    strategy: 'bounded' scans cardinalities k upward until the first hit,
    testing one set per translation class, the binary necklaces of length
    p with k ones (core.necklaces), with _normalized_witness_test; 'full'
    tests every subset of Z_p with _equal_impact_pair, as the unreduced
    oracle, and needs 2^p <= MU_FULL_BUDGET.  Both count in witness_count
    the minimal witnesses that contain 0.
    """
    if not (p >= 3 and next_prime(p) == p):
        raise ValueError("compute_mu needs an odd prime p")
    if strategy == "full":
        if (1 << p) > MU_FULL_BUDGET:
            raise BudgetExceededError(f"2^{p} subsets exceed budget")
        mu = None
        witnesses = []
        for mask in range(1, (1 << p) - 1):
            size = mask.bit_count()
            if mu is not None and size > mu:
                continue
            if size < 2:
                continue  # a single point has xi(2)=3 > xi(3) impossible; skip
            if _equal_impact_pair(mask, p) is not None:
                if mu is None or size < mu:
                    mu = size
                    witnesses = [mask]
                elif size == mu:
                    witnesses.append(mask)
        if mu is None:
            raise AssertionError("no witness found; mu(p) <= p-1 always holds")
        witness_count = sum(mask & 1 for mask in witnesses)
        classes = _affine_classes(witnesses, p)
    elif strategy == "bounded":
        test = _normalized_witness_test(p)
        mu = None
        witnesses = []
        for size in range(2, p):
            seen = 0
            for mask in necklaces(p, size):
                seen += 1
                if test(mask):
                    witnesses.append(mask)
            if seen * p != math.comb(p, size):
                raise AssertionError(f"{seen} necklaces do not cover the {size}-subsets of Z_{p}")
            if witnesses:
                mu = size
                break
        if mu is None:
            raise AssertionError("no witness found below p")
        classes = _affine_classes(witnesses, p)
        # xi(2) = xi(3) is translation invariant, and with p prime and
        # 0 < mu < p each class {A+x} has p distinct members (its period
        # group is a proper subgroup of Z_p, so trivial), of which exactly
        # mu contain 0: the A+x with -x in A.  xi(2) = xi(3) is affine
        # invariant too, so the witnesses of size mu are the affine classes
        # met by the passing necklaces, and a class with N distinct images
        # holds N/p translation classes (N/p < p - 1 when some dilation
        # fixes a translate of A)
        witness_count = mu * sum(classes.values()) // p
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    canon = sorted(classes)
    sqrt_bound = math.sqrt(8 * p + 25) - 5
    log4_bound = math.log(p, 4)
    applicable = mu < 2 * p / 3
    holds = (mu > log4_bound) and (not applicable or mu >= sqrt_bound - 1e-9)
    return MuRecord(
        p,
        mu,
        witness_count,
        tuple(canon),
        sqrt_bound,
        log4_bound,
        applicable,
        holds,
        strategy,
    )


def _affine_classes(witnesses: list[int], p: int) -> dict[tuple[int, ...], int]:
    """The affine classes met by these masks of Z_p, each as its canonical
    form (the image whose sorted element tuple is lexicographically least)
    mapped to its number of distinct images."""
    classes: dict[tuple[int, ...], int] = {}
    for mk in witnesses:
        images = {img for img, _, _ in affine_orbit(mk, p)}
        classes.setdefault(min(ResidueSet(p, img).elements for img in images), len(images))
    return classes

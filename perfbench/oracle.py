"""The benchmark's own arithmetic on subsets of Z_q.

Every answer the benchmark receives from zqadd is checked against the
functions here, which share no code with the library.  Sets are either
Python sets of residues (plain and obviously right) or integer bitmasks
rotated by ``rot`` (used where a brute force must be fast).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


def rot(mask: int, t: int, q: int) -> int:
    """The bitmask of S + t for the bitmask of S in Z_q."""
    t %= q
    if t == 0:
        return mask
    return ((mask << t) & ((1 << q) - 1)) | (mask >> (q - t))


def members(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def to_mask(elements) -> int:
    m = 0
    for e in elements:
        m |= 1 << e
    return m


def sumset(A, B, q: int) -> set[int]:
    return {(a + b) % q for a in A for b in B}


def translate(A, t: int, q: int) -> set[int]:
    return {(a + t) % q for a in A}


def alpha(A: set[int], t: int, q: int) -> int:
    """|(A + t) \\ A|."""
    return len(translate(A, t, q) - A)


def alpha_masks(mask: int, q: int) -> list[int]:
    """alpha_t for t = 1 .. q-1 of the set with this bitmask."""
    return [(rot(mask, t, q) & ~mask).bit_count() for t in range(1, q)]


def kneser(A, B, q: int) -> tuple[int, int, int]:
    """(|A+B|, |H|, |A+H| + |B+H| - |H|) with H = {t : A+B+t = A+B}."""
    S = to_mask(sumset(A, B, q))
    order = sum(1 for t in range(q) if rot(S, t, q) == S)
    H = range(0, q, q // order)
    return S.bit_count(), order, len(sumset(A, H, q)) + len(sumset(B, H, q)) - order


def xi_min(mask: int, n: int, q: int) -> int:
    """min |A + B| over |B| = n with 0 in B, by trying every such B."""
    if n == 1:
        return mask.bit_count()
    shifts = [rot(mask, t, q) for t in range(1, q)]
    best = q
    # B = {0} + head + {last}: OR the head once, then try every last element
    for head in combinations(range(q - 1), n - 2):
        m = mask
        for i in head:
            m |= shifts[i]
        for s in shifts[head[-1] + 1 :] if head else shifts:
            c = (m | s).bit_count()
            if c < best:
                best = c
    return best


def equal_impact(mask: int, q: int) -> bool:
    """xi(2) = xi(3) for the set with this bitmask.

    xi(3) = |A + {0, d1, d2}| >= |A + {0, di}| >= xi(2) for each i, so
    equality needs both differences to attain xi(2): only those pairs are
    tried.
    """
    unions = [(mask | rot(mask, d, q)).bit_count() for d in range(1, q)]
    x2 = min(unions)
    best = [d + 1 for d, u in enumerate(unions) if u == x2]
    return any(
        (mask | rot(mask, d1, q) | rot(mask, d2, q)).bit_count() == x2
        for d1, d2 in combinations(best, 2)
    )


def xi2_xi3(A: set[int], q: int) -> tuple[int, int]:
    """(xi(2), xi(3)) by trying every B = {0, d} and {0, d1, d2}."""
    x2 = min(len(A | translate(A, d, q)) for d in range(1, q))
    x3 = min(
        len(A | translate(A, d1, q) | translate(A, d2, q))
        for d1, d2 in combinations(range(1, q), 2)
    )
    return x2, x3


def affine_canonical(A, p: int) -> tuple[int, ...]:
    """The least sorted tuple among the images c*A + s, c != 0, of A in Z_p."""
    return min(
        tuple(sorted((c * a + s) % p for a in A)) for c in range(1, p) for s in range(p)
    )


def mu_bounds(p: int) -> tuple[float, float]:
    """(sqrt(8p+25) - 5, log_4 p): the two lower bounds for mu(p)."""
    return math.sqrt(8 * p + 25) - 5, math.log(p) / math.log(4)


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def min_subset_ratio(A: list[int], B: list[int], q: int) -> Fraction:
    """min |A' + 2B| / |A'| over nonempty A' of A, by trying every A'."""
    bb = sumset(B, B, q)
    images = [to_mask(translate(bb, a, q)) for a in A]
    best = None
    for sub in range(1, 1 << len(A)):
        u = 0
        for j, img in enumerate(images):
            if sub >> j & 1:
                u |= img
        r = Fraction(u.bit_count(), sub.bit_count())
        if best is None or r < best:
            best = r
    return best


def unstable_witness(mask: int, q: int, k: int, diffs) -> bool:
    """Whether some B with |B xor A| <= k has |(B + d) \\ B| < k for one of
    the given differences d."""
    for j in range(k + 1):
        for flips in combinations(range(q), j):
            m = mask
            for x in flips:
                m ^= 1 << x
            if any((rot(m, d, q) & ~m).bit_count() < k for d in diffs):
                return True
    return False


def carries(elements: list[int], m: int) -> tuple[set[int], int]:
    """Distinct carries and the number of nonzero ones over all ordered
    digit pairs of a digit set in Z_{m^2}."""
    rep = {e % m: e for e in elements}
    cs = [(a + b - rep[(a + b) % m]) // m for a in elements for b in elements]
    return set(cs), sum(1 for c in cs if c)


def construction_size(m: int) -> int:
    """Number of points the chain-of-intervals construction removes from
    [0, 4^m]: the chain of 2^m intervals plus the chains of length
    2^(m+1-l-i), each trimmed to lengths 1, 2, ..., length - 1."""
    lengths = [1 << m] + [1 << (m + 1 - l - i) for l in range(1, m) for i in range(1, m - l + 1)]
    return sum(n * (n - 1) // 2 for n in lengths)

"""Arithmetic of Z_q: residue sets, sumsets, subgroups, periods, normalization.

Sets are stored as bitmasks over the residues [0, q-1], so sumsets and
shifts are word-parallel integer operations.  Moduli are desk-scale
(bounded by MAX_MODULUS); nothing here is asymptotic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

MAX_MODULUS = 1 << 20


class ModulusMismatchError(ValueError):
    pass


class BudgetExceededError(RuntimeError):
    pass


def _check_modulus(q: int) -> None:
    if not 1 <= q <= MAX_MODULUS:
        raise ValueError(f"modulus must be in [1, {MAX_MODULUS}], got {q}")


def shift_mask(mask: int, t: int, q: int) -> int:
    """Rotate a q-bit mask by t positions (the set S+t)."""
    t %= q
    full = (1 << q) - 1
    if t == 0:
        return mask & full
    return ((mask << t) | (mask >> (q - t))) & full


def shift_table(mask: int, q: int) -> list[int]:
    """All q rotations of a q-bit mask: entry t is the set S+t."""
    full = (1 << q) - 1
    doubled = mask | mask << q
    return [(doubled >> (q - t)) & full for t in range(q)]


@dataclass(frozen=True)
class ResidueSet:
    """A subset of Z_q, stored as a bitmask of its residues."""

    q: int
    mask: int

    def __post_init__(self) -> None:
        _check_modulus(self.q)
        if not 0 <= self.mask < (1 << self.q):
            raise ValueError("mask has bits outside [0, q-1]")

    @classmethod
    def from_elements(cls, q: int, elements: Iterable[int]) -> "ResidueSet":
        _check_modulus(q)
        mask = 0
        for e in elements:
            if not 0 <= e < q:
                raise ValueError(f"element {e} outside [0, {q - 1}]")
            mask |= 1 << e
        return cls(q, mask)

    @classmethod
    def empty(cls, q: int) -> "ResidueSet":
        return cls(q, 0)

    @classmethod
    def full(cls, q: int) -> "ResidueSet":
        return cls(q, (1 << q) - 1)

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.q) if self.mask >> i & 1)

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x: int) -> bool:
        return bool(self.mask >> (x % self.q) & 1)

    def complement(self) -> "ResidueSet":
        return ResidueSet(self.q, ((1 << self.q) - 1) ^ self.mask)

    def _check_same(self, other: "ResidueSet") -> None:
        if self.q != other.q:
            raise ModulusMismatchError(f"moduli differ: {self.q} != {other.q}")

    def __repr__(self) -> str:
        return f"ResidueSet(q={self.q}, {{{','.join(map(str, self.elements))}}})"


# ---------------------------------------------------------------------------
# text / JSON formats


def parse_set(text: str) -> ResidueSet:
    """Parse the set literal format ``q=<int>;{e1,e2,...}``.

    Whitespace is ignored everywhere.  The element list may be empty.
    """
    s = "".join(text.split())
    if not s.startswith("q="):
        raise ValueError(f"set literal must start with 'q=': {text!r}")
    head, sep, body = s[2:].partition(";")
    if not sep:
        raise ValueError(f"set literal missing ';': {text!r}")
    try:
        q = int(head)
    except ValueError:
        raise ValueError(f"bad modulus in set literal: {text!r}") from None
    if not (body.startswith("{") and body.endswith("}")):
        raise ValueError(f"set literal elements must be brace-enclosed: {text!r}")
    inner = body[1:-1]
    if not inner:
        return ResidueSet.empty(q)
    try:
        elems = [int(tok) for tok in inner.split(",")]
    except ValueError:
        raise ValueError(f"bad element in set literal: {text!r}") from None
    return ResidueSet.from_elements(q, elems)


def set_to_json(A: ResidueSet) -> dict:
    return {"q": A.q, "elements": list(A.elements)}


def set_from_json(obj) -> ResidueSet:
    if isinstance(obj, str):
        obj = json.loads(obj)
    return ResidueSet.from_elements(obj["q"], obj["elements"])


# ---------------------------------------------------------------------------
# factorization helpers (trial division; moduli are desk-scale)


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, exponent), ...)."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def smallest_prime_factor(n: int) -> int:
    return factorize(n)[0][0]


def v_p(p: int, n: int) -> int:
    """p-adic valuation of n (n != 0)."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    return factorize(n)[0] == (n, 1)


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    k = max(n, 2)
    while not is_prime(k):
        k += 1
    return k


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


@lru_cache(maxsize=None)
def units(q: int) -> tuple[int, ...]:
    # from 0, so that Z_1 has its one unit, 0
    return tuple(c for c in range(q) if math.gcd(c, q) == 1)


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class Subgroup:
    """The subgroup of Z_q of a given order n | q, generated by q/n."""

    q: int
    order: int

    def __post_init__(self) -> None:
        if self.order < 1 or self.q % self.order != 0:
            raise ValueError(f"order {self.order} does not divide modulus {self.q}")

    @property
    def generator(self) -> int:
        return self.q // self.order

    @property
    def mask(self) -> int:
        return subgroup_mask(self.q, self.order)

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @property
    def is_full(self) -> bool:
        return self.order == self.q


@lru_cache(maxsize=1024)
def subgroup_mask(q: int, order: int) -> int:
    """The mask of the subgroup of Z_q of this order: bits 0, g, 2g, ... with
    g = q/order, the base-2^g repunit (2^q - 1)/(2^g - 1)."""
    return ((1 << q) - 1) // ((1 << (q // order)) - 1)


def proper_nontrivial_subgroups(q: int) -> list[Subgroup]:
    return [Subgroup(q, n) for n in divisors(q) if 1 < n < q]


# ---------------------------------------------------------------------------
# operations


def sumset(A: ResidueSet, B: ResidueSet) -> ResidueSet:
    """A + B = {a + b mod q}."""
    A._check_same(B)
    return ResidueSet(A.q, sumset_mask(A.mask, B.mask, A.q))


def sumset_mask(a_mask: int, b_mask: int, q: int) -> int:
    # shift the larger mask by the elements of the smaller one: bits
    # [q, 2q) of (A | A << q) << b hold A + b
    if a_mask.bit_count() < b_mask.bit_count():
        a_mask, b_mask = b_mask, a_mask
    doubled = a_mask | a_mask << q
    out = 0
    while b_mask:
        low = b_mask & -b_mask
        out |= doubled * low
        b_mask ^= low
    return out >> q & ((1 << q) - 1)


def interval(a: int, b: int, q: int) -> ResidueSet:
    """Projection of the integer interval [a, b'] to Z_q, where b' is the
    smallest integer >= a congruent to b mod q."""
    _check_modulus(q)
    length = (b - a) % q + 1
    if length >= q:
        return ResidueSet.full(q)
    mask = shift_mask((1 << length) - 1, a % q, q)
    return ResidueSet(q, mask)


@lru_cache(maxsize=None)
def translation_classes(q: int) -> tuple[tuple[int, int], ...]:
    """Each class {S+t : t in Z_q} of nonempty subsets of Z_q, as (least
    rotation, orbit size), ascending.

    Each mask S is rotated to S+1, S+2, ... until the first rotation <= S.
    S is the least of its class exactly when that rotation is S itself, and
    its index t is then the least period of S, so the class has t members.
    """
    full = (1 << q) - 1
    out = []
    for mask in range(1, 1 << q):
        doubled = mask | mask << q
        for t in range(1, q + 1):
            image = doubled >> (q - t) & full
            if image <= mask:
                break
        if image == mask:
            out.append((mask, t))
    return tuple(out)


def _dilate(elems: list[int], c: int, q: int) -> int:
    """The mask of c*S for the set S with these elements."""
    out = 0
    for x in elems:
        out |= 1 << (c * x % q)
    return out


def affine_images(mask: int, q: int) -> set[int]:
    """The distinct images c*S + s, c a unit, of the set S with this mask."""
    elems = [x for x in range(q) if mask >> x & 1]
    return {image for c in units(q) for image in shift_table(_dilate(elems, c, q), q)}


def affine_maps(mask: int, target: int, q: int) -> Iterator[tuple[int, int]]:
    """Every (c, s) with c*S + s = T, for the sets S and T with these masks:
    c over units(q) ascending, and s ascending within each c.

    A map taking S to T takes S+1 to T+c, and so (S+1) \\ S onto (T+c) \\ T;
    hence alpha_c(T) = |(T+c) \\ T| equals alpha_1(S) = |(S+1) \\ S| for
    every scale c that occurs.  Only those c are dilated and matched.
    """
    alpha_1 = (shift_mask(mask, 1, q) & ~mask).bit_count()
    elems = [x for x in range(q) if mask >> x & 1]
    rotations = shift_table(target, q)
    for c in units(q):
        if (rotations[c] & ~target).bit_count() != alpha_1:
            continue
        for s, image in enumerate(shift_table(_dilate(elems, c, q), q)):
            if image == target:
                yield c, s


def coset_counts(mask: int, H: Subgroup) -> list[int]:
    """|S ∩ (H+t)| for t = 0 .. q/|H| - 1, for the set S with this mask.
    H+t is t + <q/|H|>, whose elements all lie below q since t < q/|H|,
    so one right shift lines it up with H."""
    h_mask = H.mask
    return [(mask >> t & h_mask).bit_count() for t in range(H.generator)]


def seminorm(x: int, q: int) -> int:
    """Distance from zero in Z_q: min(x mod q, q - x mod q)."""
    x %= q
    return min(x, q - x)


def period_group(S: ResidueSet) -> Subgroup:
    """H = {t : S + t = S}, the stabilizer of S under translation."""
    if S.mask == 0:
        raise ValueError("period group of the empty set is undefined")
    return Subgroup(S.q, _period_order(S.mask, S.q))


def _period_order(mask: int, q: int) -> int:
    # every period group is <d> for a divisor d; the smallest divisor that
    # fixes S generates the whole stabilizer.  Bits d .. d+q-1 of S | S << q
    # hold S - d, which is S exactly when S + d is.
    full = (1 << q) - 1
    doubled = mask | mask << q
    for d in divisors(q):  # d = q always fixes S
        if doubled >> d & full == mask:
            break
    return q // d


@dataclass(frozen=True)
class KneserReport:
    holds: bool
    H: Subgroup
    lhs: int
    rhs: int


def kneser_check(A: ResidueSet, B: ResidueSet) -> KneserReport:
    """Check |A+B| >= |A+H| + |B+H| - |H| with H the period group of A+B."""
    A._check_same(B)
    if A.mask == 0 or B.mask == 0:
        raise ValueError("kneser_check needs nonempty sets")
    q = A.q
    s = sumset_mask(A.mask, B.mask, q)
    order = _period_order(s, q)
    if order == 1:  # X + {0} = X
        rhs = A.size + B.size - 1
    elif order == q:  # X + Z_q = Z_q
        rhs = q
    else:
        h = subgroup_mask(q, order)
        rhs = sumset_mask(A.mask, h, q).bit_count() + sumset_mask(B.mask, h, q).bit_count() - order
    return KneserReport(s.bit_count() >= rhs, Subgroup(q, order), s.bit_count(), rhs)


@dataclass(frozen=True)
class NormalizedDifference:
    """a' == a (mod q) factored as a' = a1*a2 with a1 | q and gcd(a2, q) = 1."""

    input: int
    q: int
    value: int
    divisor_part: int
    coprime_part: int


def normalize_difference(a: int, q: int) -> NormalizedDifference:
    """Replace a by a congruent a' that splits into a q-divisor times a
    q-coprime factor.

    a' = q * prod{p | q prime : v_p(a) = v_p(q)} + a.  For a == 0 (mod q)
    the convention a' = q (divisor part q, coprime part 1) is used; the
    general recipe does not apply there.
    """
    _check_modulus(q)
    if a % q == 0:
        return NormalizedDifference(a, q, q, q, 1)
    if a <= 0:
        a %= q
    primes = [p for p, _ in factorize(q)] if q > 1 else []
    bump = 1
    for p in primes:
        if v_p(p, a) == v_p(p, q):
            bump *= p
    value = q * bump + a
    a1 = 1
    for p in primes:
        a1 *= p ** min(v_p(p, value), v_p(p, q))
    a2 = value // a1
    assert q % a1 == 0 and math.gcd(a2, q) == 1 and value % q == a % q
    return NormalizedDifference(a, q, value, a1, a2)

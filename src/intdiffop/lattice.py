"""The ideal lattice over n tensor factors, encoded combinatorially.

An ideal is an antichain of Boolean functions {1..n} -> {0,1}; each function
is a bitmask (bit i-1 set means value 1 at slot i).  Sum is join, product is
meet (product = intersection), and the empty antichain is the zero ideal.
The number of ideals is the Dedekind number.
"""

from __future__ import annotations

from math import comb

from .errors import DimensionMismatch, LimitExceeded

ENUMERATION_LIMIT = 5


def _comparable(f: int, g: int) -> bool:
    m = f & g
    return m == f or m == g


def _minimal(sets) -> set:
    """The bitsets among `sets` that contain no other one."""
    sets = set(sets)
    return {s for s in sets if not any(t != s and t & s == t for t in sets)}


class IdealAntichain:
    """Canonical antichain of bitmasks; sorted tuple for deterministic identity."""

    __slots__ = ("n", "masks")

    def __init__(self, n: int, masks=(), _normalized=False):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        masks = set(int(m) for m in masks)
        for m in masks:
            if not 0 <= m < (1 << n):
                raise ValueError(f"mask {m} outside 0..2^{n}-1")
        if not _normalized:
            # the maximal masks are the complements of the minimal zero sets
            full = (1 << n) - 1
            masks = {full ^ z for z in _minimal(full ^ m for m in masks)}
        self.masks = tuple(sorted(masks))

    @classmethod
    def zero(cls, n: int) -> "IdealAntichain":
        return cls(n)

    @classmethod
    def full(cls, n: int) -> "IdealAntichain":
        return cls(n, [(1 << n) - 1], _normalized=True)

    def is_zero(self) -> bool:
        return not self.masks

    def __eq__(self, other):
        if not isinstance(other, IdealAntichain):
            return NotImplemented
        return self.n == other.n and self.masks == other.masks

    def __hash__(self):
        return hash((self.n, self.masks))

    def _check(self, other: "IdealAntichain"):
        if self.n != other.n:
            raise DimensionMismatch(f"antichains over {self.n} vs {other.n}")

    def to_text(self) -> str:
        if not self.masks:
            return "{}"
        bits = sorted(
            "".join("1" if (m >> k) & 1 else "0" for k in range(self.n))
            for m in self.masks
        )
        return "{" + ",".join(bits) + "}"

    @classmethod
    def from_text(cls, text: str, n: int) -> "IdealAntichain":
        body = text.strip()
        if not (body.startswith("{") and body.endswith("}")):
            raise ValueError(f"antichain text must be brace-delimited: {text!r}")
        body = body[1:-1].strip()
        if not body:
            return cls.zero(n)
        masks = []
        for chunk in body.split(","):
            chunk = chunk.strip()
            if len(chunk) != n or any(c not in "01" for c in chunk):
                raise ValueError(f"bad bitstring {chunk!r} for n={n}")
            masks.append(sum(1 << k for k, c in enumerate(chunk) if c == "1"))
        return cls(n, masks)

    def __repr__(self):
        return f"IdealAntichain(n={self.n}, {self.to_text()})"


def normalize(n: int, fns) -> IdealAntichain:
    """Maximal elements of an arbitrary generating set; idempotent."""
    return IdealAntichain(n, fns)


def ideal_sum(c1: IdealAntichain, c2: IdealAntichain) -> IdealAntichain:
    c1._check(c2)
    return IdealAntichain(c1.n, set(c1.masks) | set(c2.masks))


def ideal_product(c1: IdealAntichain, c2: IdealAntichain) -> IdealAntichain:
    """Product = intersection: maximal pointwise meets."""
    c1._check(c2)
    return IdealAntichain(c1.n, {f & g for f in c1.masks for g in c2.masks})


def ideal_includes(c1: IdealAntichain, c2: IdealAntichain) -> bool:
    """True iff the ideal of c1 is contained in the ideal of c2."""
    c1._check(c2)
    return all(any(f & g == f for g in c2.masks) for f in c1.masks)


def prime_ideal(n: int, index_set) -> IdealAntichain:
    """Sum of the height-one primes at the given slots; empty set gives zero."""
    full = (1 << n) - 1
    masks = []
    for i in index_set:
        if not 1 <= i <= n:
            raise ValueError(f"index {i} outside 1..{n}")
        masks.append(full & ~(1 << (i - 1)))
    return IdealAntichain(n, masks)


def is_prime(c: IdealAntichain) -> bool:
    """True iff c is the zero ideal or a sum of distinct height-one primes,
    that is, iff every generator has exactly one zero slot (distinct masks
    have distinct zero sets)."""
    full = (1 << c.n) - 1
    return all((z := full & ~m) and not z & (z - 1) for m in c.masks)


def prime_index_set(c: IdealAntichain):
    """The slot set I with c = prime_ideal(I), or None if c is not prime."""
    if not is_prime(c):
        return None
    full = (1 << c.n) - 1
    out = set()
    for m in c.masks:
        missing = full & ~m
        out.add(missing.bit_length())
    return frozenset(out)


def minimal_primes_over(c: IdealAntichain):
    """Minimal slot sets I with c contained in prime_ideal(I).

    c is inside prime_ideal(I) iff I hits the zero set of every generator;
    these are the minimal hitting sets.  Their product reconstructs c.  They
    are built one zero set at a time (Berge's transversal sweep), so no scan
    over the 2^n slot sets runs; the answer itself can still be exponential
    in n: m generators with disjoint two-slot zero sets have 2^m of them.
    """
    full = (1 << c.n) - 1
    hitting = {0}
    for m in c.masks:
        z = full & ~m
        bits = [1 << i for i in range(c.n) if (z >> i) & 1]
        hitting = _minimal(
            h2 for h in hitting for h2 in ([h] if h & z else [h | b for b in bits])
        )
    return {
        frozenset(i + 1 for i in range(c.n) if (s >> i) & 1) for s in hitting
    }


def enumerate_ideals(n: int):
    """All antichains over n slots in deterministic (lexicographic) order.

    The count is the Dedekind number: 3, 6, 20, 168, 7581, ... starting at
    n = 1.
    """
    if n > ENUMERATION_LIMIT:
        raise LimitExceeded(f"n={n} beyond the enumeration limit {ENUMERATION_LIMIT}")
    masks = list(range(1 << n))
    out = []

    def extend(chosen, start):
        out.append(IdealAntichain(n, chosen, _normalized=True))
        for k in range(start, len(masks)):
            f = masks[k]
            if all(not _comparable(f, g) for g in chosen):
                chosen.append(f)
                extend(chosen, k + 1)
                chosen.pop()

    extend([], 0)
    return out


def dedekind_bounds(n: int):
    """(lower, upper) bounds 2 - n + sum 2^C(n,i) and 2^(2^n)."""
    lower = 2 - n + sum(2 ** comb(n, i) for i in range(1, n + 1))
    upper = 2 ** (2 ** n)
    return lower, upper


def maximal_ideal(n: int) -> IdealAntichain:
    """Sum of all height-one primes: the unique maximal proper ideal."""
    return prime_ideal(n, range(1, n + 1))


def minimum_nonzero_ideal(n: int) -> IdealAntichain:
    """The intersection of all height-one primes (all-zeros generator)."""
    return IdealAntichain(n, [0], _normalized=True)

"""Shared random generators and independent oracles for the test suite.

All randomness is seeded per test; every oracle here recomputes results by a
route independent of the code under test (direct action on monomials, brute
scans, set-level recomputation).
"""

from fractions import Fraction

from intdiffop import (
    DiffMon,
    HMon,
    I1Element,
    InElement,
    IntMon,
    MatUnit,
    PolyH,
    PolyX,
    RatFunc,
    apply,
    faithful_bound,
    matrix_of,
)
from intdiffop.laurent import CalB1Element


# ---------------------------------------------------------------- generators

def is_exact(v) -> bool:
    """v is stored as the engine stores rationals: an int when integral,
    else a Fraction."""
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def calb1_coefficients(x: CalB1Element):
    """Every coefficient of the numerators and denominators of x."""
    return [v for f in x.terms.values() for p in (f.num, f.den) for v in p.terms.values()]


def rand_coeff(rng):
    num = rng.randint(-4, 4)
    if num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 3))


def rand_mono(rng, jmax=3, imax=3, emax=3):
    kind = rng.randrange(4)
    if kind == 0:
        return DiffMon(rng.randint(0, jmax), rng.randint(1, imax))
    if kind == 1:
        return HMon(rng.randint(0, jmax))
    if kind == 2:
        return IntMon(rng.randint(1, imax), rng.randint(0, jmax))
    return MatUnit(rng.randint(0, emax), rng.randint(0, emax))


def rand_i1(rng, terms=3, jmax=3, imax=3, emax=3) -> I1Element:
    t = {}
    for _ in range(rng.randint(1, terms)):
        t[rand_mono(rng, jmax, imax, emax)] = rand_coeff(rng)
    return I1Element(t)


def rand_homog_mono(rng, d, jmax=2, emax=3):
    """A basis monomial of grading degree exactly d."""
    if rng.random() < 0.5:
        # matrix unit of degree d = s - t
        t = rng.randint(max(0, -d), emax)
        return MatUnit(t + d, t)
    j = rng.randint(0, jmax)
    if d < 0:
        return DiffMon(j, -d)
    if d > 0:
        return IntMon(d, j)
    return HMon(j)


def rand_homog_i1(rng, d, terms=3) -> I1Element:
    t = {}
    for _ in range(rng.randint(1, terms)):
        t[rand_homog_mono(rng, d)] = rand_coeff(rng)
    return I1Element(t)


def rand_in(rng, n, terms=2, jmax=2, imax=2, emax=2) -> InElement:
    t = {}
    for _ in range(rng.randint(1, terms)):
        tup = tuple(rand_mono(rng, jmax, imax, emax) for _ in range(n))
        t[tup] = rand_coeff(rng)
    return InElement(n, t)


def rand_polyh(rng, degmax=4) -> PolyH:
    c = {d: rng.randint(-3, 3) for d in range(rng.randint(0, degmax) + 1)}
    return PolyH(c)


def rand_polyh_nonzero(rng, degmax=4) -> PolyH:
    while True:
        p = rand_polyh(rng, degmax)
        if not p.is_zero():
            return p


def rand_ratfunc(rng, degmax=2) -> RatFunc:
    return RatFunc(rand_polyh_nonzero(rng, degmax), rand_polyh_nonzero(rng, degmax))


def rand_calb1(rng, degspan=3, cdeg=2) -> CalB1Element:
    lo = rng.randint(-degspan, 0)
    hi = rng.randint(0, degspan)
    coeffs = {}
    for d in range(lo, hi + 1):
        if rng.random() < 0.6:
            coeffs[d] = rand_ratfunc(rng, cdeg)
    if not coeffs:
        coeffs[0] = rand_ratfunc(rng, cdeg)
    return CalB1Element(coeffs)


def rand_calb1_nonzero(rng, degspan=3, cdeg=2) -> CalB1Element:
    while True:
        b = rand_calb1(rng, degspan, cdeg)
        if not b.is_zero():
            return b


# ---------------------------------------------------------------- matrix oracle

def max_raise(a: I1Element) -> int:
    """Largest degree increase the action of a can cause on a monomial."""
    r = 0
    for tag, u, v in a.terms:
        # the word (0, k, j) raises the degree by k, e[s,t] = (1, s, t) by s - t
        r = max(r, u - v if tag else u)
    return r


def _sparse_cols(a: I1Element, nbig: int):
    """Columns of matrix_of(a, nbig) as sparse dicts (independent recompute)."""
    mat = matrix_of(a, nbig)
    return [
        {r: mat[r][s] for r in range(nbig + 1) if mat[r][s]}
        for s in range(nbig + 1)
    ]


def _col_apply(cols, vec: dict) -> dict:
    out = {}
    for s, c in vec.items():
        for r, v in cols[s].items():
            out[r] = out.get(r, Fraction(0)) + c * v
            if not out[r]:
                del out[r]
    return out


def matrix_oracle_agrees(factors, prod: I1Element) -> bool:
    """matrix_of(prod) vs the product of the factors' matrices.

    Matrices are truncated at N_big = N + total raise so that no intermediate
    degree is lost on the tested columns 0..N; agreement there forces equality
    by the interpolation bound N = faithful_bound(prod).
    """
    n = faithful_bound(prod)
    nbig = n + sum(max_raise(f) for f in factors)
    factor_cols = [_sparse_cols(f, nbig) for f in factors]
    prod_cols = _sparse_cols(prod, nbig)
    for s in range(n + 1):
        vec = {s: Fraction(1)}
        for cols in reversed(factor_cols):
            vec = _col_apply(cols, vec)
        if vec != prod_cols[s]:
            return False
    return True


def apply_matches(a: I1Element, b: I1Element) -> bool:
    """a = b as operators, decided through the action at the faithful bound."""
    n = faithful_bound(a - b)
    for s in range(n + 1):
        if apply(a, PolyX.monomial(s)).coeffs != apply(b, PolyX.monomial(s)).coeffs:
            return False
    return True

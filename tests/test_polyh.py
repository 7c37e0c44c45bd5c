"""Exact arithmetic in H: polynomials, rational functions, the shift map."""

import operator
import random
import time
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from intdiffop import PolyH, PolyX, RatFunc, generators, nonneg_shifted_roots, polyh
from intdiffop.errors import DivisionByZero, ZeroPolynomial
from intdiffop.laurent import CalB1Element
from intdiffop.sparse import _rat

from conftest import is_exact, rand_calb1, rand_polyh, rand_polyh_nonzero, rand_ratfunc

H = PolyH.monomial(1)


class TestShift:
    def test_shift_h_by_one(self):
        assert H.shift(1) == H + 1

    def test_shift_by_zero_is_identity(self):
        p = PolyH({0: 3, 2: Fraction(-1, 2)})
        assert p.shift(0) == p

    def test_shift_square_by_two(self):
        # compare by evaluation at several points
        p = (H**2).shift(2)
        assert p == H**2 + 4 * H + 4
        for h in range(3):
            assert p(h) == Fraction(h + 2) ** 2

    def test_shift_inverse(self):
        rng = random.Random(11)
        for _ in range(50):
            p = rand_polyh(rng)
            k = rng.randint(-5, 5)
            assert p.shift(k).shift(-k) == p

    def test_shift_is_ring_automorphism(self):
        rng = random.Random(12)
        for _ in range(100):
            p, q = rand_polyh(rng), rand_polyh(rng)
            k = rng.randint(-4, 4)
            assert (p * q).shift(k) == p.shift(k) * q.shift(k)
            assert (p + q).shift(k) == p.shift(k) + q.shift(k)


def reference_mul(p: PolyH, q: PolyH) -> PolyH:
    """The product term pair by term pair, over the stored coefficients."""
    out = {}
    for d1, v1 in p.terms.items():
        for d2, v2 in q.terms.items():
            out[d1 + d2] = out.get(d1 + d2, 0) + v1 * v2
    return PolyH(out)


def reference_shift(p: PolyH, k: int) -> PolyH:
    """p(H + k), each term expanded by the binomial theorem."""
    out = {}
    for d, v in p.terms.items():
        for m in range(d + 1):
            out[m] = out.get(m, 0) + v * (comb(d, m) * k ** (d - m))
    return PolyH(out)


def assert_clean(p: PolyH):
    """Every coefficient is an int or a non-integral Fraction."""
    assert all(map(is_exact, p.terms.values())), p.terms


def reference_maps():
    """Seeded polynomials, thirty of each kind: zero, constant, one-term,
    int-only and mixed int and Fraction maps."""
    rng = random.Random(15)
    maps = []
    for i in range(150):
        kind = i % 5
        if kind == 0:
            p = PolyH()
        elif kind == 1:
            p = PolyH.const(rat_poly(rng, 0).leading_coeff())
        elif kind == 2:
            p = PolyH.monomial(rng.randint(1, 7), rat_poly(rng, 0).leading_coeff())
        elif kind == 3:
            p = rand_polyh(rng, 6)
        else:
            p = rand_polyh(rng, 5) + rat_poly(rng, rng.randint(0, 5)) * rand_polyh(rng, 2)
        maps.append(p)
    return maps


class TestIntegerListArithmetic:
    """The integer convolution and the integer Taylor shift against the
    term-by-term product and the binomial expansion over Fractions."""

    def test_mul_matches_the_reference(self):
        maps = reference_maps()
        rng = random.Random(16)
        for p in maps:
            for q in rng.sample(maps, 10):
                got = p * q
                assert got.terms == reference_mul(p, q).terms
                assert_clean(got)

    def test_shift_matches_the_reference(self):
        for p in reference_maps():
            for k in range(-5, 6):
                got = p.shift(k)
                assert got.terms == reference_shift(p, k).terms
                assert_clean(got)

    def test_kinds(self):
        maps = reference_maps()
        ints = [p for p in maps if all(type(v) is int for v in p.terms.values())]
        assert sum(p.is_zero() for p in maps) >= 30 and len(ints) >= 60
        assert sum(len(p.terms) == 1 for p in maps) >= 60
        assert sum(any(type(v) is Fraction for v in p.terms.values()) for p in maps) >= 60


def reference_scaled(a: list, s: Fraction) -> dict:
    """s times the integer list a as one Fraction product per coefficient,
    each turned into an int when integral."""
    top = len(a) - 1
    if s.denominator == 1:
        s = s.numerator
        return {top - i: s * c for i, c in enumerate(a) if c}
    return {top - i: _rat(s * c) for i, c in enumerate(a) if c}


def typed(terms: dict) -> dict:
    """The term map with each value paired with its exact type."""
    return {d: (type(v), v) for d, v in terms.items()}


class TestIntegerFirstScaling:
    """`_scaled` in ints against the Fraction product per coefficient,
    values and types alike."""

    CONTENTS = [Fraction(1), Fraction(-1), Fraction(6), Fraction(-7), Fraction(2, 3),
                Fraction(-5, 6), Fraction(1, 12), Fraction(-35, 4)]

    def test_reference_maps(self):
        for p in reference_maps():
            a, c = polyh._primitive(p.terms)
            for s in [c, -c, *self.CONTENTS]:
                assert typed(polyh._scaled(a, s)) == typed(reference_scaled(a, s)), (a, s)

    @pytest.mark.parametrize("s,want", [
        # negative, with a denominator that divides some entries but not all
        (Fraction(-2, 3), {5: (int, -4), 4: (Fraction, Fraction(8, 3)), 2: (int, -2),
                           1: (int, -6), 0: (Fraction, Fraction(-2, 3))}),
        # denominator 1, negative
        (Fraction(-3), {5: (int, -18), 4: (int, 12), 2: (int, -9), 1: (int, -27), 0: (int, -3)}),
        # a denominator that divides none
        (Fraction(1, 5), {5: (Fraction, Fraction(6, 5)), 4: (Fraction, Fraction(-4, 5)),
                          2: (Fraction, Fraction(3, 5)), 1: (Fraction, Fraction(9, 5)),
                          0: (Fraction, Fraction(1, 5))}),
    ])
    def test_contents(self, s, want):
        a = [6, -4, 0, 3, 9, 1]
        assert typed(polyh._scaled(a, s)) == want == typed(reference_scaled(a, s))

    def test_zero_list(self):
        assert polyh._scaled([], Fraction(3, 4)) == {} == polyh._scaled([0, 0], Fraction(3, 4))


class TestEval:
    def test_root(self):
        assert (H - 1)(1) == 0

    def test_zero_poly(self):
        assert PolyH()(Fraction(7, 3)) == 0

    def test_horner_point(self):
        assert (2 * H**2 + 1)(Fraction(3, 2)) == Fraction(11, 2)


class TestRingAxioms:
    def test_randomized(self):
        rng = random.Random(13)
        for _ in range(100):
            p, q, r = (rand_polyh(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert (p * q) * r == p * (q * r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r
            assert p * 1 == p and p + 0 == p

    def test_divmod_reconstruction(self):
        rng = random.Random(14)
        for _ in range(100):
            p = rand_polyh(rng)
            q = rand_polyh_nonzero(rng)
            quo, rem = p.divmod(q)
            assert quo * q + rem == p
            assert rem.is_zero() or rem.degree() < q.degree()
            assert_clean(quo)
            assert_clean(rem)

    def test_divmod_stores_integral_values_as_ints(self):
        q, r = PolyH({2: 2, 1: 4, 0: 6}).divmod(PolyH({1: 2, 0: 2}))
        assert typed(q.terms) == {1: (int, 1), 0: (int, 1)}
        assert typed(r.terms) == {0: (int, 4)}
        for a, b in division_pairs():
            for x in a.divmod(b):
                assert_clean(x)
        q, r = PolyX({2: 2, 0: 1}).divmod(PolyX({1: 2}))
        assert type(q) is PolyX and type(r) is PolyX


def rat_poly(rng, deg) -> PolyH:
    """A polynomial of degree exactly deg with rational coefficients."""
    c = {d: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for d in range(deg)}
    c[deg] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
    return PolyH(c)


def division_pairs():
    """240 seeded (dividend, nonzero divisor) pairs, forty of each kind."""
    rng = random.Random(24)
    pairs = []
    for i in range(240):
        kind = i % 6
        if kind == 0:  # any degrees
            a, b = rat_poly(rng, rng.randint(0, 7)), rat_poly(rng, rng.randint(0, 4))
        elif kind == 1:  # deg a < deg b
            a, b = rat_poly(rng, rng.randint(0, 2)), rat_poly(rng, rng.randint(3, 5))
        elif kind == 2:  # constant divisor
            a, b = rat_poly(rng, rng.randint(0, 6)), rat_poly(rng, 0)
        elif kind == 3:  # a common factor of degree 1 or 2
            g = rat_poly(rng, rng.randint(1, 2))
            a, b = g * rat_poly(rng, rng.randint(0, 4)), g * rat_poly(rng, rng.randint(0, 3))
        elif kind == 4:  # zero dividend
            a, b = PolyH(), rat_poly(rng, rng.randint(0, 4))
        else:  # divisor of the same degree
            d = rng.randint(1, 5)
            a, b = rat_poly(rng, d), rat_poly(rng, d)
        pairs.append((a, b))
    return pairs


class TestRationalOperands:
    """divmod and gcd take a rational as the constant polynomial."""

    def test_divmod_by_a_rational(self):
        p = H + 1
        for c in (2, Fraction(-3, 4)):
            q, r = p.divmod(c)
            assert q == p.scale(1 / Fraction(c)) and r.is_zero()
        with pytest.raises(DivisionByZero):
            p.divmod(0)
        with pytest.raises(DivisionByZero):
            p.divmod(Fraction(0))

    def test_gcd_with_a_rational(self):
        p = 2 * H + 1
        assert p.gcd(2) == 1 and p.gcd(Fraction(-1, 3)) == 1
        assert p.gcd(0) == H + Fraction(1, 2)
        assert PolyH().gcd(5) == 1

    def test_foreign_operand_raises_type_error(self):
        for bad in ("H", 1.5, RatFunc(H), PolyX({1: 1})):
            with pytest.raises(TypeError):
                H.divmod(bad)
            with pytest.raises(TypeError):
                H.gcd(bad)


class TestSympyOracle:
    """Division and gcd in K[H] against sympy, an independent implementation."""

    def test_divmod_and_gcd_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        h = sympy.Symbol("H")

        def to_sympy(p):
            rat = sympy.Rational
            terms = {(d,): rat(v.numerator, v.denominator) for d, v in p.terms.items()}
            return sympy.Poly(terms or {(0,): 0}, h, domain="QQ")

        def terms(poly):
            return {d: Fraction(int(v.p), int(v.q)) for (d,), v in poly.as_dict().items()}

        pairs = division_pairs()
        assert sum(b.leading_coeff() != 1 for _, b in pairs) > 200
        for a, b in pairs:
            sa, sb = to_sympy(a), to_sympy(b)
            q, r = a.divmod(b)
            sq, sr = sympy.div(sa, sb)
            assert (q.terms, r.terms) == (terms(sq), terms(sr))
            g = terms(sympy.gcd(sa, sb))
            assert a.gcd(b).terms == g and b.gcd(a).terms == g


def euclid_gcd(a: PolyH, b: PolyH) -> PolyH:
    """Reference monic gcd: Euclid on remainders over Fractions."""
    while b:
        a, b = b, a.divmod(b)[1]
    return a.scale(1 / a.leading_coeff()) if a else a


def wide_poly(rng, deg) -> PolyH:
    """A polynomial of degree exactly deg with 47-bit rational coefficients."""
    def coeff():
        return Fraction(rng.choice((-1, 1)) * rng.getrandbits(47), rng.getrandbits(47) or 1)
    c = {d: coeff() for d in range(deg + 1)}
    while not c[deg]:
        c[deg] = coeff()
    return PolyH(c)


class TestIntegerGcd:
    """The integer primitive remainder sequence against Fraction Euclid."""

    def test_matches_fraction_euclid(self):
        rng = random.Random(25)
        seen = set()
        for i in range(60):
            dg = i % 6  # the degree of the common factor, 0..5
            g = wide_poly(rng, dg)
            da, db = rng.randint(0, 9 - dg), rng.randint(0, 9 - dg)
            a, b = g * wide_poly(rng, da), g * wide_poly(rng, db)
            if i % 5 == 0:  # a sparse factor with gaps
                a = a * (H ** rng.randint(1, 5) + rng.randint(-9, 9))
            assert max(a.degree(), b.degree()) <= 14
            want = euclid_gcd(a, b)
            assert a.gcd(b) == want and b.gcd(a) == want
            assert want.degree() >= dg
            seen.add(want.degree())
        assert len(seen) >= 6

    def test_zero_and_constant_operands(self):
        p = wide_poly(random.Random(26), 4)
        assert PolyH().gcd(PolyH()) == PolyH()
        assert PolyH().gcd(p) == p.gcd(PolyH()) == euclid_gcd(p, PolyH())
        assert p.gcd(PolyH.const(Fraction(-3, 7))) == 1
        assert (H**9 + 1).gcd(H + 1) == H + 1


class TestShiftedRoots:
    def test_linear(self):
        assert nonneg_shifted_roots(H - 1) == {0}

    def test_constant(self):
        assert nonneg_shifted_roots(PolyH.const(1)) == set()

    def test_two_roots(self):
        assert nonneg_shifted_roots((H - 1) * (H - 3)) == {0, 2}

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            nonneg_shifted_roots(PolyH())

    def test_large_root_needs_no_divisor_scan(self):
        # a trial division up to sqrt(10**28 + 7) would not finish
        start = time.perf_counter()
        assert nonneg_shifted_roots(H - (10**28 + 7)) == {10**28 + 6}
        assert time.perf_counter() - start < 1.0

    def test_against_brute_scan(self):
        rng = random.Random(15)
        for _ in range(200):
            p = rand_polyh_nonzero(rng, degmax=6)
            # any positive root of the cleared polynomial divides its trailing
            # coefficient; max trailing coefficient here is tiny, so i <= 200
            # safely covers the rational-root bound for these inputs
            brute = {i for i in range(201) if p(i + 1) == 0}
            assert nonneg_shifted_roots(p) == brute


@pytest.fixture
def gcd_calls(monkeypatch):
    """The argument pairs of every gcd a rational function takes from here on:
    each one runs through `polyh._cofactors`."""
    calls = []
    cofactors = polyh._cofactors

    def counted(a, b):
        calls.append((a, b))
        return cofactors(a, b)

    monkeypatch.setattr(polyh, "_cofactors", counted)
    return calls


class TestRatFunc:
    def test_add_same(self):
        f = RatFunc(PolyH.const(1), H)
        assert f + f == RatFunc(PolyH.const(2), H)

    def test_shift(self):
        f = RatFunc(PolyH.const(1), H)
        assert f.shift(-1) == RatFunc(PolyH.const(1), H - 1)

    def test_inverse_pair(self):
        f = RatFunc(H, H + 1)
        g = RatFunc(H + 1, H)
        assert f * g == 1

    def test_inverse_of_zero(self):
        with pytest.raises(DivisionByZero):
            RatFunc(PolyH()).inverse()

    def test_zero_denominator(self):
        with pytest.raises(DivisionByZero):
            RatFunc(H, PolyH())

    def test_no_gcd_without_a_denominator(self, gcd_calls):
        assert RatFunc(H + 1).den == 1
        assert RatFunc.const(Fraction(2, 3)).num == Fraction(2, 3)
        assert gcd_calls == []

    def test_scalar_times_skew_element_runs_no_gcd_or_shift(self, gcd_calls, monkeypatch):
        # a rational scales the numerator of each reduced coefficient: no
        # scalar element, no shift and no gcd
        b = rand_calb1(random.Random(4), 3, 2)
        shifts = []
        shift = PolyH.shift
        monkeypatch.setattr(PolyH, "shift", lambda p, k: shifts.append(k) or shift(p, k))
        gcd_calls.clear()
        c = Fraction(2, 3) * b
        assert len(b.terms) == 5
        assert len(gcd_calls) == 0 and shifts == []
        # the full product with the scalar element agrees
        assert c == b * CalB1Element({0: Fraction(2, 3)}) == b * Fraction(2, 3)

    def test_normalized_invariants(self):
        rng = random.Random(16)
        for _ in range(100):
            f = rand_ratfunc(rng)
            assert f.den.leading_coeff() == 1
            g = f.num.gcd(f.den)
            assert g == 1 or g.degree() == 0

    def test_field_axioms_randomized(self):
        rng = random.Random(17)
        for _ in range(60):
            f, g, h = (rand_ratfunc(rng) for _ in range(3))
            assert (f + g) + h == f + (g + h)
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h
            if not f.is_zero():
                assert f * f.inverse() == 1

    def test_shift_commutes_with_mul(self):
        rng = random.Random(18)
        for _ in range(60):
            f, g = rand_ratfunc(rng), rand_ratfunc(rng)
            k = rng.randint(-3, 3)
            assert (f * g).shift(k) == f.shift(k) * g.shift(k)

    def test_negation_keeps_reduced_pair(self):
        rng = random.Random(19)
        for _ in range(60):
            f = rand_ratfunc(rng)
            assert -f == RatFunc(-f.num, f.den)
            assert -(-f) == f and f + (-f) == 0

    def test_negation_runs_no_gcd(self, gcd_calls):
        rng = random.Random(20)
        fs = [rand_ratfunc(rng) for _ in range(20)]
        gcd_calls.clear()
        for f in fs:
            -f
        assert gcd_calls == []

    def test_shift_and_inverse_keep_reduced_pair(self):
        rng = random.Random(21)
        for _ in range(60):
            f = rand_ratfunc(rng)
            k = rng.randint(-3, 3)
            assert f.shift(k) == RatFunc(f.num.shift(k), f.den.shift(k))
            assert f.inverse() == RatFunc(f.den, f.num)

    def test_shift_and_inverse_run_no_gcd(self, gcd_calls):
        rng = random.Random(22)
        fs = [rand_ratfunc(rng) for _ in range(20)]
        gcd_calls.clear()
        for k, f in enumerate(fs):
            f.shift(k - 10)
            f.inverse()
        assert gcd_calls == []

    def test_equal_denominators_take_one_gcd(self, gcd_calls):
        # Henrici's equal-denominator case: only gcd(n1 + n2, d) is taken
        d = (H + 1) * (2 * H - 3)
        f, g = RatFunc(H, d), RatFunc(H + 5, d)
        gcd_calls.clear()
        total = f + g
        assert len(gcd_calls) == 1
        assert total == RatFunc(2 * H + 5, d)
        # a sum that cancels part of the denominator
        g = RatFunc(H - 3, d)
        gcd_calls.clear()
        total = f + g
        assert len(gcd_calls) == 1
        assert total == RatFunc(PolyH.const(1), H + 1)

    def test_reflected_division(self):
        f = RatFunc(H + 1, 2 * H)
        for left in (1, Fraction(-2, 3), H, H * H - 1):
            assert left / f == RatFunc(left) * f.inverse()
            assert_reduced(left / f)
        assert 1 / f == RatFunc(2 * H, H + 1)
        assert H / f == RatFunc(2 * H * H, H + 1)
        assert Fraction(1, 2) / RatFunc(H) == RatFunc(PolyH.const(1), 2 * H)
        assert 0 / f == 0 and PolyH() / f == 0
        for left in (1, Fraction(1, 2), H, 0):
            with pytest.raises(DivisionByZero):
                left / RatFunc(0)
        with pytest.raises(TypeError):
            "H" / f


def ref_cofactors(p: PolyH, q: PolyH):
    """Reference cofactors: the monic gcd, then two Euclidean divisions by it
    over Fractions."""
    if p.degree() and q.degree():
        g = p.gcd(q)
        if g.degree():
            return g, p.divmod(g)[0], q.divmod(g)[0]
    return PolyH.const(1), p, q


def cofactor_pairs():
    """Seeded nonzero pairs, twenty of each kind."""
    rng = random.Random(29)
    pairs = []
    for i in range(160):
        kind = i % 8
        g = rat_poly(rng, rng.randint(1, 3))
        a, b = rat_poly(rng, rng.randint(0, 4)), rat_poly(rng, rng.randint(0, 4))
        if kind == 0:  # a planted common factor with rational content
            pair = g * a, g * b
        elif kind == 1:  # interior zero coefficients
            gap = H ** rng.randint(2, 5) + rng.randint(-3, 3)
            pair = gap * g * a, g * b * (H ** 3 - 2)
        elif kind == 2:  # negative leading coefficients
            x, y = g * a, g * b
            pair = (x if x.leading_coeff() < 0 else -x), (y if y.leading_coeff() < 0 else -y)
        elif kind == 3:  # equal operands
            pair = g * a, g * a
        elif kind == 4:  # one operand divides the other
            pair = g, g * b * Fraction(-3, 4)
        elif kind == 5:  # coprime: the quotients are the operands
            pair = H * H + 1, (H - 1) * rat_poly(rng, 0)
        elif kind == 6:  # a constant operand
            pair = g * a, rat_poly(rng, 0)
        else:  # 47-bit rational coefficients
            w = wide_poly(rng, 2)
            pair = w * wide_poly(rng, 3), w * wide_poly(rng, 2)
        pairs.append(pair if rng.random() < 0.5 else pair[::-1])
    return pairs


class TestCofactors:
    """Integer cofactors against the gcd and two divisions over Fractions."""

    def test_match_the_reference(self):
        nontrivial = 0
        for p, q in cofactor_pairs():
            got, want = polyh._cofactors(p, q), ref_cofactors(p, q)
            assert [x.terms for x in got] == [x.terms for x in want]
            g, u, v = got
            assert g * u == p and g * v == q and g.leading_coeff() == 1
            assert all(type(c) in (int, Fraction) for x in got for c in x.terms.values())
            nontrivial += g.degree() > 0
        assert nontrivial >= 100

    def test_exact_integer_quotient(self):
        # (H^2 + 5) * (3*H^2 - 2*H + 7) = 3*H^4 - 2*H^3 + 22*H^2 - 10*H + 35
        g, b, prod = [1, 0, 5], [3, -2, 7], [3, -2, 22, -10, 35]
        assert polyh._exquo(prod, g) == b and polyh._exquo(prod, b) == g
        assert polyh._exquo(b, [-1]) == [-3, 2, -7] and polyh._exquo(b, b) == [1]

    def test_primitive_content(self):
        for p, _ in cofactor_pairs()[:40]:
            a, c = polyh._primitive(p.terms)
            top = len(a) - 1
            assert c > 0 and PolyH({top - i: x for i, x in enumerate(a)}).scale(c) == p
        assert polyh._primitive({}) == ([], 0)


def fast_path_pairs():
    """240 seeded pairs of rational functions, thirty of each kind, built
    from non-monic polynomials with rational coefficients."""
    rng = random.Random(27)
    pairs = []
    for i in range(240):
        kind = i % 8
        a, b, c, d = (rat_poly(rng, rng.randint(0, 3)) for _ in range(4))
        f = rat_poly(rng, rng.randint(1, 2))  # a factor put on both sides
        if kind == 0:  # no planted factor
            pair = RatFunc(a, b), RatFunc(c, d)
        elif kind == 1:  # n1 and d2 share f
            pair = RatFunc(f * a, b), RatFunc(c, f * d)
        elif kind == 2:  # n2 and d1 share f
            pair = RatFunc(a, f * b), RatFunc(f * c, d)
        elif kind == 3:  # d1 and d2 share f
            pair = RatFunc(a, f * b), RatFunc(c, f * d)
        elif kind == 4:  # equal denominators
            pair = RatFunc(a, f * b), RatFunc(c, f * b)
        elif kind == 5:  # a constant operand
            pair = RatFunc(a, b), RatFunc(rat_poly(rng, 0))
        elif kind == 6:  # a zero operand
            pair = RatFunc(PolyH(), b), RatFunc(c, d)
        else:  # the sum c/(b*d) loses the factor f*b of the shared denominator
            x, y = RatFunc(a, f * b), RatFunc(c, b * d)
            pair = x, RatFunc(y.num * x.den - x.num * y.den, x.den * y.den)
        pairs.append(pair if rng.random() < 0.5 else pair[::-1])
    return pairs


def assert_reduced(r: RatFunc):
    assert r.den.leading_coeff() == 1
    assert euclid_gcd(r.num, r.den) == 1 or (r.num.is_zero() and r.den == 1)


class TestRatFuncFastPaths:
    """Crosswise products and Henrici sums against the general normaliser."""

    def test_products_and_sums_match_the_normaliser(self):
        pairs = fast_path_pairs()
        product_cancels = sum_cancels = 0
        for f, g in pairs:
            n1, d1, n2, d2 = f.num, f.den, g.num, g.den
            product, total, difference = f * g, f + g, f - g
            assert product == RatFunc(n1 * n2, d1 * d2)
            assert total == RatFunc(n1 * d2 + n2 * d1, d1 * d2)
            assert difference == RatFunc(n1 * d2 - n2 * d1, d1 * d2)
            for r in (product, total, difference):
                assert_reduced(r)
            degrees = d1.degree() + d2.degree()
            product_cancels += product.den.degree() < degrees and not product.is_zero()
            sum_cancels += total.den.degree() < degrees and not total.is_zero()
        # the planted factors really cancel
        assert product_cancels >= 50 and sum_cancels >= 80

    def test_rational_scalars(self):
        for f, _ in fast_path_pairs()[:60]:
            c = f.num.leading_coeff() or Fraction(-2, 9)
            for k in (c, 3, -1):
                assert f * k == k * f == RatFunc(f.num.scale(k), f.den)
                assert_reduced(f * k)
            assert f * 0 == 0 and (f * 0).den == 1

    def test_repeated_calls_retain_no_memory(self):
        rng = random.Random(28)
        polys = [rat_poly(rng, rng.randint(1, 6)) for _ in range(600)]
        fs = [RatFunc(p, q) for p, q in zip(polys[::2], polys[1::2])]

        def calls():
            for p, q, f, g in zip(polys[::2], polys[1::2], fs, fs[1:] + fs[:1]):
                p.gcd(q)
                f * g
                f + g

        tracemalloc.start()
        try:
            calls()  # 300 gcds, products and sums to warm up
            before = tracemalloc.get_traced_memory()[0]
            calls()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024


class TestForeignOperands:
    """An operand of another type is left to that type's reflected method."""

    def test_poly_plus_ratfunc(self):
        assert H + RatFunc(H) == RatFunc(2 * H)
        assert PolyH.const(1) + RatFunc(PolyH.const(1), H) == RatFunc(H + 1, H)

    def test_ratfunc_minus_poly(self):
        assert RatFunc(H) - H == 0
        assert RatFunc(PolyH.const(1), H) - 1 == RatFunc(1 - H, H)

    def test_poly_minus_ratfunc(self):
        assert H - RatFunc(PolyH.const(1), H) == RatFunc(H * H - 1, H)

    def test_unrelated_operand_raises(self):
        with pytest.raises(TypeError):
            H + "H"
        with pytest.raises(TypeError):
            H - [1]

    def test_ratfunc_with_operator_raises_type_error(self):
        d = generators()[0]
        f = RatFunc(H)
        for op in (operator.add, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(f, d)
            with pytest.raises(TypeError):
                op(f, "H")


class TestText:
    def test_poly_text(self):
        assert (2 * H**2 - Fraction(1, 3)).to_text() == "2*H^2 - 1/3"

    def test_zero_text(self):
        assert PolyH().to_text() == "0"

    def test_poly_x_stays_poly_x(self):
        p = PolyX({0: 1, 3: 2})
        assert repr(p) == "PolyX(2*x^3 + 1)"
        for q in (1 - p, 2 * p, p**2):
            assert type(q) is PolyX
        assert 2 * p == PolyX({0: 2, 3: 4})

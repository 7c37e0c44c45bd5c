"""Canonical-form arithmetic in the one-variable operator algebra."""

import random
from fractions import Fraction

import pytest

from intdiffop import (
    DiffMon,
    HMon,
    I1Element,
    IntMon,
    MatUnit,
    PolyH,
    PolyX,
    apply,
    decompose_lemma21,
    faithful_bound,
    format_operator,
    generators,
    idempotent_sum,
    ker_right_mult_poly,
    matrix_of,
    mono_mul,
    project_B1,
)
from intdiffop import i1
from intdiffop.errors import LimitExceeded, ZeroPolynomial
from intdiffop.i1 import _mono_mul_into, from_polyh
from intdiffop.laurent import B1Element
from intdiffop.sparse import _acc
from intdiffop.tensor import from_i1, project_modulo_prime

from conftest import (
    apply_matches,
    matrix_oracle_agrees,
    rand_homog_i1,
    rand_i1,
)

D, INT, H, X = generators()
HP = PolyH.monomial(1)


def e(s, t):
    return I1Element.from_mono(MatUnit(s, t))


class TestGenerators:
    def test_x_is_int_h(self):
        assert X == I1Element.from_mono(IntMon(1, 1))
        assert X == INT * I1Element.from_mono(HMon(1))

    def test_d_int_is_one(self):
        assert D * INT == 1

    def test_weyl_relation(self):
        comm = D * X - X * D
        assert comm == 1
        assert apply_matches(comm, I1Element.from_scalar(1))


class TestMonoMul:
    def test_d_int(self):
        assert mono_mul(DiffMon(0, 1), IntMon(1, 0)) == 1

    def test_int_d(self):
        assert mono_mul(IntMon(1, 0), DiffMon(0, 1)) == 1 - e(0, 0)

    def test_matrix_units(self):
        assert mono_mul(MatUnit(0, 1), MatUnit(1, 2)) == e(0, 2)
        assert mono_mul(MatUnit(0, 1), MatUnit(2, 2)).is_zero()

    def test_boundary_e_i0_int(self):
        for i in range(4):
            assert mono_mul(MatUnit(i, 0), IntMon(1, 0)).is_zero()

    def test_boundary_d_e_0j(self):
        for j in range(4):
            assert mono_mul(DiffMon(0, 1), MatUnit(0, j)).is_zero()

    def test_d_h(self):
        assert D * H == H * D + D

    def test_e_d_open_question(self):
        # e[i,j]*d = e[i,j+1]: forced by e[i,j] = int^i*e[0,0]*d^j; the
        # alternative reading d*e[i,j+1] is inconsistent with d*e[0,j] = 0
        assert e(1, 1) * D == e(1, 2)
        assert apply_matches(e(1, 1) * D, e(1, 2))

    def test_h_moves_through_powers(self):
        # d*H^j = (H+1)^j*d and int*H^j = (H-1)^j*int
        for j in range(4):
            hj = I1Element.from_mono(HMon(j))
            assert D * hj == from_polyh((HP + 1) ** j) * D
            assert INT * hj == from_polyh((HP - 1) ** j) * INT


def grid(top):
    """Every basis monomial with exponents and matrix indices up to top."""
    return (
        [DiffMon(j, i) for i in range(1, top + 1) for j in range(top + 1)]
        + [HMon(j) for j in range(top + 1)]
        + [IntMon(i, j) for i in range(1, top + 1) for j in range(top + 1)]
        + [MatUnit(s, t) for s in range(top + 1) for t in range(top + 1)]
    )


# The reduction through PolyH that the closed form replaced, kept as the
# reference: a word (0, k, j) is int^a * H^j * d^b with a*b = 0.

def _word(k, j):
    return max(k, 0), PolyH.monomial(j), max(-k, 0)


def _midword(a, p, b, out):
    """int^a p(H) d^b into canonical terms, by int^m d^m = 1 - e[0,0] - ...
    - e[m-1,m-1] with m = min(a, b) and int^m p(H) = p(H-m) int^m."""
    m = min(a, b)
    for j, c in p.shift(-m).terms.items():
        _acc(out, (0, a - b, j), c)
    for t in range(m):
        _acc(out, MatUnit(t + a - m, t + b - m), -p(t + 1 - m))


def reference_product(m1, m2) -> dict:
    out = {}
    (tag1, k1, j1), (tag2, k2, j2) = m1, m2
    if not (tag1 or tag2):
        a1, p1, b1 = _word(k1, j1)
        a2, p2, b2 = _word(k2, j2)
        if b1 >= a2:
            _midword(a1, p1 * p2.shift(b1 - a2), b1 - a2 + b2, out)
        else:
            _midword(a2 - b1 + a1, p1.shift(a2 - b1) * p2, b2, out)
    elif not tag1:
        a, p, b = _word(k1, j1)
        if k2 >= b:
            _acc(out, MatUnit(k2 - b + a, j2), p(k2 - b + 1))
    elif not tag2:
        a, p, b = _word(k2, j2)
        if j1 >= a:
            _acc(out, MatUnit(k1, j1 - a + b), p(j1 - a + 1))
    elif j1 == k2:
        _acc(out, MatUnit(k1, j2), 1)
    return out


class TestMonoProduct:
    def test_matches_the_polyh_reduction(self):
        scale = Fraction(-3, 2)
        for m1 in grid(4):
            for m2 in grid(4):
                want = reference_product(m1, m2)
                out = {}
                _mono_mul_into(m1, m2, out, 1)
                assert out == want, (m1, m2)
                assert all(type(c) is int for c in out.values())
                out = {}
                _mono_mul_into(m1, m2, out, scale)
                assert out == {m: scale * c for m, c in want.items()}, (m1, m2)
                # accumulation cancels exactly, leaving no zero terms
                _mono_mul_into(m1, m2, out, -scale)
                assert out == {}

    def test_matches_the_action(self):
        for m1 in grid(3):
            for m2 in grid(3):
                a, b = I1Element.from_mono(m1), I1Element.from_mono(m2)
                assert matrix_oracle_agrees([a, b], mono_mul(m1, m2)), (m1, m2)

    def test_equal_monomials_are_one_object(self):
        # interning keeps one tuple per distinct monomial across results
        rng = random.Random(24)
        for _ in range(50):
            a, b = rand_i1(rng), rand_i1(rng)
            ab, ba = (a * b).terms, (b * a).terms
            keys = {m: m for m in ba}
            assert all(keys[m] is m for m in ab if m in keys)
            assert all(i1._MONOS[m] is m for m in (*ab, *ba))


class TestDegreeBudget:
    """A monomial product with more than MAX_DEGREE letters in its two
    factors is refused before it emits a term."""

    def test_at_the_limit(self):
        assert i1.MAX_DEGREE == 1000
        assert H**1000 == I1Element.from_mono(HMon(1000))
        assert len((INT**500 * D**500).terms) == 501
        assert (H**999 * e(1, 0)).terms == {MatUnit(1, 0): 2**999}

    @pytest.mark.parametrize("m1,m2,letters", [
        (HMon(1001), HMon(0), 1001),
        (IntMon(501, 0), DiffMon(0, 500), 1001),
        (DiffMon(0, 1), HMon(1000), 1001),
        (HMon(1000), MatUnit(1, 0), 1001),
        (MatUnit(0, 600), IntMon(600, 0), 1200),
    ])
    def test_beyond_the_limit(self, m1, m2, letters):
        out = {}
        with pytest.raises(LimitExceeded, match=f"total degree {letters}, beyond the limit 1000"):
            _mono_mul_into(m1, m2, out, 1)
        assert out == {}

    def test_powers_stop_at_the_first_product_beyond(self):
        with pytest.raises(LimitExceeded, match="total degree 1001"):
            H**1001
        # int^100000 fails at the squaring that would reach int^1024
        with pytest.raises(LimitExceeded, match="total degree 1024"):
            INT**100000


class TestRingOps:
    def test_x_squared(self):
        assert X * X == I1Element({IntMon(2, 2): 1, IntMon(2, 1): 1})
        assert apply(X * X, PolyX.monomial(3)) == PolyX.monomial(5)

    def test_unit(self):
        rng = random.Random(21)
        for _ in range(20):
            a = rand_i1(rng)
            assert I1Element.from_scalar(1) * a == a
            assert a * I1Element.from_scalar(1) == a

    def test_partial_isometry_identity(self):
        assert INT**2 * D**2 == 1 - e(0, 0) - e(1, 1)

    def test_partial_isometry_family(self):
        for i in range(1, 11):
            assert INT**i * D**i == 1 - idempotent_sum(i)

    def test_associativity_randomized(self):
        rng = random.Random(22)
        for _ in range(300):
            a, b, c = (rand_i1(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_distributivity_randomized(self):
        rng = random.Random(23)
        for _ in range(100):
            a, b, c = (rand_i1(rng) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c

    def test_foreign_operand_raises(self):
        # an element over n factors is a different type, even at n = 1
        with pytest.raises(TypeError):
            D + from_i1(H)
        with pytest.raises(TypeError):
            from_i1(H) + D
        with pytest.raises(TypeError):
            D - from_i1(H)
        assert D != from_i1(D)


class TestInvolution:
    def test_matrix_units(self):
        for s in range(6):
            for t in range(6):
                assert e(s, t).involution() == e(t, s)

    def test_h_d(self):
        assert (H * D).involution() == I1Element.from_mono(IntMon(1, 1))

    def test_involutive(self):
        rng = random.Random(24)
        for _ in range(100):
            a = rand_i1(rng)
            assert a.involution().involution() == a

    def test_anti_multiplicative(self):
        rng = random.Random(25)
        for _ in range(100):
            a, b = rand_i1(rng), rand_i1(rng)
            assert (a * b).involution() == b.involution() * a.involution()


class TestGrading:
    def test_x_homogeneous(self):
        assert X.grade_component(1) == X
        assert X.grade_component(0).is_zero()

    def test_matrix_unit_degree(self):
        assert e(2, 1).grade_component(1) == e(2, 1)
        # e[s,t] = int^s*e[0,0]*d^t has degree s - t
        assert INT**2 * e(0, 0) * D == e(2, 1)

    def test_degree_zero_part(self):
        a = 1 - e(0, 0)
        assert a.grade_component(0) == a

    def test_components_sum_to_element(self):
        rng = random.Random(26)
        for _ in range(50):
            a = rand_i1(rng)
            total = I1Element.zero()
            for d in a.degrees():
                total = total + a.grade_component(d)
            assert total == a

    def test_graded_multiplication(self):
        rng = random.Random(27)
        for _ in range(100):
            i, j = rng.randint(-3, 3), rng.randint(-3, 3)
            a, b = rand_homog_i1(rng, i), rand_homog_i1(rng, j)
            p = a * b
            assert p.grade_component(i + j) == p


class TestProjectB1:
    def test_int_to_inverse(self):
        assert project_B1(INT) == B1Element({-1: 1})

    def test_matrix_units_die(self):
        assert project_B1(e(1, 2)).is_zero()

    def test_x_image(self):
        # x = int*H maps to (H-1)*D^-1 in the H-left normal form
        assert project_B1(X) == B1Element({-1: HP - 1})

    def test_multiplicative(self):
        rng = random.Random(28)
        for _ in range(200):
            a, b = rand_i1(rng), rand_i1(rng)
            assert project_B1(a * b) == project_B1(a) * project_B1(b)

    def test_kernel_is_exactly_f(self):
        rng = random.Random(29)
        for _ in range(200):
            a = rand_i1(rng)
            assert project_B1(a).is_zero() == a.is_in_F()

    def test_agrees_with_quotient_mode(self):
        # quotient-mode words print on the pairs (d, j) = H^j D^d; projections
        # and their products agree with the skew Laurent arithmetic
        def pairs(b):
            return sorted((((d, j),), c) for d, p in b.terms.items() for j, c in p.terms.items())

        rng = random.Random(30)
        for _ in range(100):
            a, b = rand_i1(rng), rand_i1(rng)
            pa, pb = (project_modulo_prime(from_i1(x), {1}) for x in (a, b))
            assert pa.sorted_terms() == pairs(project_B1(a))
            assert (pa * pb).sorted_terms() == pairs(project_B1(a) * project_B1(b))


class TestApply:
    def test_derivative(self):
        assert apply(D, PolyX.monomial(3)) == PolyX.monomial(2, 3)

    def test_integration(self):
        assert apply(INT, PolyX.monomial(3)) == PolyX.monomial(4, Fraction(1, 4))

    def test_matrix_unit_action(self):
        assert apply(e(1, 2), PolyX.monomial(2)) == PolyX.monomial(1, 2)
        assert apply(e(1, 2), PolyX.monomial(3)).is_zero()

    def test_homomorphism(self):
        rng = random.Random(30)
        for _ in range(100):
            a, b = rand_i1(rng), rand_i1(rng)
            p = PolyX.monomial(rng.randint(0, 6), Fraction(rng.randint(1, 5)))
            assert apply(a * b, p) == apply(a, apply(b, p))


class TestMatrixOf:
    def test_e00(self):
        m = matrix_of(e(0, 0), 2)
        assert m[0][0] == 1
        assert sum(1 for row in m for v in row if v) == 1

    def test_identity(self):
        m = matrix_of(I1Element.from_scalar(1), 3)
        for r in range(4):
            for c in range(4):
                assert m[r][c] == (1 if r == c else 0)

    def test_derivative_matrix(self):
        m = matrix_of(D, 2)
        assert m[0][1] == 1 and m[1][2] == 2
        assert sum(1 for row in m for v in row if v) == 2

    def test_matrix_oracle_on_products(self):
        rng = random.Random(31)
        for _ in range(50):
            a, b = rand_i1(rng, terms=2, jmax=2, imax=2, emax=2), rand_i1(
                rng, terms=2, jmax=2, imax=2, emax=2
            )
            assert matrix_oracle_agrees([a, b], a * b)

    def test_faithfulness_at_bound(self):
        rng = random.Random(32)
        for _ in range(100):
            a = rand_i1(rng)
            n = faithful_bound(a)
            m = matrix_of(a, n)
            nonzero = any(v for row in m for v in row)
            assert nonzero == (not a.is_zero())


class TestLemma21:
    def test_partial(self):
        u, c = decompose_lemma21(D, 1)
        assert u == 1 and c.is_zero()

    def test_e00(self):
        u, c = decompose_lemma21(e(0, 0), 1)
        assert u.is_zero() and c == e(0, 0)

    def test_one_n2(self):
        u, c = decompose_lemma21(I1Element.from_scalar(1), 2)
        assert u == INT**2
        assert c == e(0, 0) + e(1, 1)
        # 1 = int^2*d^2 + e[0,0] + e[1,1]
        assert u * D**2 + c == 1

    def test_reconstruction_and_directness(self):
        rng = random.Random(33)
        for _ in range(100):
            a = rand_i1(rng)
            n = rng.randint(1, 4)
            u, c = decompose_lemma21(a, n)
            assert u * D**n + c == a
            assert c.is_in_F()
            assert all(t < n for _, _, t in c.terms)
            assert ((u * D**n) * idempotent_sum(n)).is_zero()

    def test_n_below_one(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            decompose_lemma21(D, 0)


class TestLemma25:
    def test_linear(self):
        assert ker_right_mult_poly(HP - 1) == {0}

    def test_constant(self):
        assert ker_right_mult_poly(PolyH.const(1)) == set()

    def test_product(self):
        alpha = (HP - 1) * (HP - 3)
        assert ker_right_mult_poly(alpha) == {0, 2}
        assert (e(5, 2) * from_polyh(alpha)).is_zero()
        assert not (e(5, 1) * from_polyh(alpha)).is_zero()

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            ker_right_mult_poly(PolyH())

    def test_brute_scan(self):
        rng = random.Random(34)
        for _ in range(50):
            # mix in forced roots so the kernel is often nonempty
            alpha = PolyH.const(rng.randint(1, 3))
            for _ in range(rng.randint(0, 3)):
                alpha = alpha * (HP - rng.randint(-2, 6))
            if alpha.is_zero():
                continue
            ker = ker_right_mult_poly(alpha)
            el = from_polyh(alpha)
            for i in range(31):
                for j in range(6):
                    vanishes = (e(j, i) * el).is_zero()
                    assert vanishes == (i in ker)
            assert len(ker) == sum(1 for i in range(31) if alpha(i + 1) == 0)


class TestIsInF:
    def test_members(self):
        assert (e(0, 0) + e(1, 2).scale(3)).is_in_F()

    def test_nonmember(self):
        assert not (1 - e(0, 0)).is_in_F()

    def test_f_is_an_ideal(self):
        rng = random.Random(35)
        for _ in range(100):
            a = rand_i1(rng)
            f = e(rng.randint(0, 3), rng.randint(0, 3))
            assert (a * f * a).is_in_F()
        assert (e(0, 0) * (H * D)).is_in_F()


class TestText:
    def test_repr_pins_the_grouped_form(self):
        a = 2 * D * D * H - INT * H + Fraction(1, 3) * INT * H * H + e(2, 1) - 3 + H * H + D - INT * INT
        assert repr(a) == (
            "I1Element((2*H1 + 4)*d1^2 + d1 + H1^2 - 3 + int1*(1/3*H1^2 - H1) - int1^2 + e1[2,1])"
        )
        assert repr(I1Element()) == "I1Element(0)"

    def test_text_is_the_one_factor_operator_text(self):
        rng = random.Random(29)
        for _ in range(100):
            a, b = rand_i1(rng, terms=6), rand_i1(rng)
            for c in (a, a * b, a - a):
                assert c.to_text() == format_operator(from_i1(c)), c.terms

"""Tensor arithmetic over n factors, mixed-mode quotients, ideal membership."""

import importlib
import itertools
import random
from fractions import Fraction

import pytest

from intdiffop import (
    DiffMon,
    HMon,
    I1Element,
    IdealAntichain,
    InElement,
    IntMon,
    MatUnit,
    PolyXn,
    apply_n,
    enumerate_ideals,
    from_i1,
    gen_h,
    gen_integ,
    gen_partial,
    gen_x,
    generators,
    ideal_membership,
    project_modulo_prime,
    tensor,
    to_i1,
)
from intdiffop.errors import DimensionMismatch, EmptyFactorList, LimitExceeded, ModeMismatch
from intdiffop.laurent import B1Element
from intdiffop.opparser import parse_operator
from intdiffop.polyh import PolyH
from intdiffop.tensor import MODE_QUOT

from conftest import is_exact, rand_i1, rand_in

D1, INT1, H1, X1 = generators()
# the package exports the function `tensor` under the module's name
TENSOR = importlib.import_module("intdiffop.tensor")


class TestTensor:
    def test_partial_times_one(self):
        t = tensor([D1, I1Element.from_scalar(1)])
        assert t.terms == {(DiffMon(0, 1), HMon(0)): Fraction(1)}

    def test_all_ones_is_identity(self):
        one = tensor([I1Element.from_scalar(1)] * 3)
        rng = random.Random(41)
        a = rand_in(rng, 3)
        assert one * a == a and a * one == a

    def test_tensor_expands(self):
        t = tensor([INT1 * D1, I1Element.from_scalar(1)])
        assert len(t.terms) == 2
        assert t == InElement(
            2,
            {
                (HMon(0), HMon(0)): 1,
                (MatUnit(0, 0), HMon(0)): -1,
            },
        )

    def test_empty_factor_list(self):
        with pytest.raises(EmptyFactorList):
            tensor([])

    def test_every_factor_is_checked(self):
        # a zero factor before the bad one must not end the check early
        for factors in ([I1Element(), 5], [D1, I1Element(), "d"], [gen_h(1, 1)]):
            with pytest.raises(ModeMismatch):
                tensor(factors)

    def test_round_trip_n1(self):
        rng = random.Random(42)
        for _ in range(20):
            a = rand_i1(rng)
            assert to_i1(from_i1(a)) == a


class TestMul:
    def test_d_int_same_factor(self):
        assert gen_partial(2, 1) * gen_integ(2, 1) == 1

    def test_distinct_factors_commute(self):
        a = gen_partial(2, 1)
        b = gen_integ(2, 2)
        assert a * b == b * a

    def test_factorwise_products(self):
        lhs = tensor([INT1, D1]) * tensor([D1, INT1])
        assert lhs == tensor([INT1 * D1, I1Element.from_scalar(1)])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gen_partial(2, 1) * gen_partial(3, 1)

    def test_associativity_randomized(self):
        rng = random.Random(43)
        for n in (2, 3):
            for _ in range(60):
                a, b, c = (rand_in(rng, n) for _ in range(3))
                assert (a * b) * c == a * (b * c)

    def test_distributivity_randomized(self):
        rng = random.Random(44)
        for _ in range(60):
            a, b, c = (rand_in(rng, 2) for _ in range(3))
            assert a * (b + c) == a * b + a * c


class TestInvolution:
    def test_partials(self):
        a = gen_partial(2, 1) * gen_partial(2, 2)
        assert a.involution() == gen_integ(2, 1) * gen_integ(2, 2)

    def test_involutive_randomized(self):
        rng = random.Random(45)
        for _ in range(60):
            a = rand_in(rng, 2)
            assert a.involution().involution() == a

    def test_e_tensor_h(self):
        a = tensor([I1Element.from_mono(MatUnit(0, 1)), H1])
        assert a.involution() == tensor([I1Element.from_mono(MatUnit(1, 0)), H1])

    def test_anti_multiplicative(self):
        rng = random.Random(46)
        for _ in range(60):
            a, b = rand_in(rng, 2), rand_in(rng, 2)
            assert (a * b).involution() == b.involution() * a.involution()


class TestApplyN:
    def test_partial_1(self):
        p = PolyXn.monomial(2, (1, 2))
        assert apply_n(gen_partial(2, 1), p) == PolyXn.monomial(2, (0, 2))

    def test_integration_2(self):
        p = PolyXn.monomial(2, (0, 1))
        assert apply_n(gen_integ(2, 2), p) == PolyXn.monomial(2, (0, 2), Fraction(1, 2))

    def test_x_acts_as_multiplication(self):
        assert apply_n(gen_x(1, 1), PolyXn.one(1)) == PolyXn.monomial(1, (1,))

    def test_homomorphism(self):
        rng = random.Random(47)
        for _ in range(60):
            a, b = rand_in(rng, 2), rand_in(rng, 2)
            p = PolyXn.monomial(2, (rng.randint(0, 4), rng.randint(0, 4)))
            assert apply_n(a * b, p) == apply_n(a, apply_n(b, p))

    def test_monomial_surjectivity(self):
        # x^alpha applied to 1 recovers x^alpha for all |alpha| <= 4 at n = 2
        for a1 in range(5):
            for a2 in range(5 - a1):
                el = gen_x(2, 1) ** a1 * gen_x(2, 2) ** a2
                assert apply_n(el, PolyXn.one(2)) == PolyXn.monomial(2, (a1, a2))

    def test_quotient_mode_rejected(self):
        a = project_modulo_prime(gen_integ(2, 1), {1})
        with pytest.raises(ModeMismatch):
            apply_n(a, PolyXn.one(2))


class TestProjectModuloPrime:
    def test_kills_matrix_units(self):
        a = tensor([I1Element.from_mono(MatUnit(0, 0)), I1Element.from_scalar(1)])
        assert project_modulo_prime(a, {1}).is_zero()

    def test_int_becomes_inverse(self):
        a = tensor([INT1, D1])
        img = project_modulo_prime(a, {1})
        assert img.modes == (MODE_QUOT, "I")
        # the word keeps its key and prints on D1^-1
        assert img.terms == {(IntMon(1, 0), DiffMon(0, 1)): 1}
        assert img.sorted_terms() == [(((-1, 0), DiffMon(0, 1)), 1)]

    def test_multiplicative(self):
        rng = random.Random(48)
        for n in (1, 2, 3):
            for _ in range(60):
                a, b = rand_in(rng, n), rand_in(rng, n)
                idx = rng.sample(range(1, n + 1), rng.randint(1, n))
                pa, pb = project_modulo_prime(a, idx), project_modulo_prime(b, idx)
                assert project_modulo_prime(a * b, idx) == pa * pb

    def test_involution_in_quotient_mode(self):
        # the involution of the quotient is an anti-automorphism of order 2
        # and the projection intertwines it with the involution upstairs
        rng = random.Random(51)
        for n in (2, 3):
            for _ in range(40):
                a, b = rand_in(rng, n), rand_in(rng, n)
                idx = rng.sample(range(1, n + 1), rng.randint(1, n))
                pa, pb = project_modulo_prime(a, idx), project_modulo_prime(b, idx)
                assert pa.involution().involution() == pa
                assert (pa * pb).involution() == pb.involution() * pa.involution()
                assert project_modulo_prime(a.involution(), idx) == pa.involution()

    def test_commutes_with_grading(self):
        rng = random.Random(52)
        for n in (2, 3):
            sets = [c for r in range(n + 1) for c in itertools.combinations(range(1, n + 1), r)]
            for _ in range(20):
                a = rand_in(rng, n, 4)
                for idx in sets:
                    p = project_modulo_prime(a, idx)
                    for d in range(-4, 5):
                        assert project_modulo_prime(a.grade_component(d), idx) == p.grade_component(d)

    def test_index_outside_the_factors(self):
        for idx in ([0], [3], [1, 3]):
            with pytest.raises(DimensionMismatch):
                project_modulo_prime(gen_h(2, 1), idx)

    def test_full_projection_kernel_is_maximal_ideal(self):
        # projecting every factor kills exactly the members of the maximal ideal
        rng = random.Random(49)
        amax = IdealAntichain(2, [0b01, 0b10])
        for _ in range(100):
            a = rand_in(rng, 2)
            killed = project_modulo_prime(a, {1, 2}).is_zero()
            assert killed == ideal_membership(a, amax)


class TestQuotientMonomials:
    """Quotient-mode words against the skew Laurent arithmetic of
    `B1Element`, which shifts and multiplies polynomials; both are compared
    on the printed pairs (d, j) = H^j D^d of `sorted_terms()`."""

    WORDS = [(0, k, j) for k in range(-3, 4) for j in range(4)]

    @staticmethod
    def quotient(m):
        return InElement(1, {(m,): 1}, (MODE_QUOT,))

    @staticmethod
    def laurent(k, j, h_first):
        """H^j D^k, or D^k H^j when not h_first."""
        h, dk = B1Element({0: PolyH.monomial(j)}), B1Element({k: 1})
        return h * dk if h_first else dk * h

    def image(self, m):
        """The word m in B1: H^j d^-k is H^j D^-k, and int^k H^j is D^-k H^j."""
        _, k, j = m
        return self.laurent(-k, j, k <= 0)

    @staticmethod
    def pairs(b):
        return sorted((((d, j),), c) for d, p in b.terms.items() for j, c in p.terms.items())

    def test_products(self):
        for m1 in self.WORDS:
            q1, b1 = self.quotient(m1), self.image(m1)
            for m2 in self.WORDS:
                got = (q1 * self.quotient(m2)).sorted_terms()
                assert got == self.pairs(b1 * self.image(m2)), (m1, m2)

    def test_involution(self):
        # the anti-automorphism with D* = D^-1 and H* = H
        for m in self.WORDS:
            _, k, j = m
            want = self.laurent(k, j, k > 0)
            assert self.quotient(m).involution().sorted_terms() == self.pairs(want), m

    def test_quotient_map(self):
        for m in self.WORDS:
            img = project_modulo_prime(from_i1(I1Element.from_mono(m)), [1])
            assert img.terms == {(m,): 1}
            assert img.sorted_terms() == self.pairs(self.image(m)), m
        for s in range(3):
            for t in range(3):
                assert project_modulo_prime(from_i1(I1Element.from_mono(MatUnit(s, t))), [1]) == 0


class TestRefusals:
    """Each check of the tensor layer raises its documented error."""

    def test_mode_mismatch(self):
        a = gen_h(2, 1)
        b = project_modulo_prime(a, [1])
        with pytest.raises(ModeMismatch):
            a * b
        with pytest.raises(ModeMismatch):
            a + b

    def test_mode_vector_length(self):
        with pytest.raises(DimensionMismatch):
            InElement(2, None, (MODE_QUOT,))

    def test_to_i1_needs_one_full_factor(self):
        for a in (gen_h(2, 1), project_modulo_prime(gen_h(1, 1), [1])):
            with pytest.raises(ModeMismatch):
                to_i1(a)

    def test_apply_n_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_n(gen_h(2, 1), PolyXn.one(3))

    def test_membership_needs_full_mode(self):
        a = project_modulo_prime(gen_h(2, 1), [2])
        with pytest.raises(ModeMismatch):
            ideal_membership(a, IdealAntichain(2, [0b00]))

    def test_generator_index(self):
        for gen in (gen_partial, gen_integ, gen_h, gen_x):
            for i in (0, 3):
                with pytest.raises(DimensionMismatch):
                    gen(2, i)

    def test_term_budget_across_factors(self):
        # each factor's product int^k * d^k has k + 1 terms, within the
        # degree budget, but two factors multiply them
        assert len(parse_operator("int1^180*d1^180*int2^180*d2^180", 2).terms) == 181**2
        with pytest.raises(LimitExceeded, match="a product of more than 32768 terms"):
            parse_operator("int1^200*d1^200*int2^200*d2^200", 2)

    def test_term_budget_within_one_monomial_pair(self, monkeypatch):
        a = parse_operator("int1^2*int2^2*int3^2", 3)
        b = parse_operator("d1^2*d2^2*d3^2", 3)
        assert len((a * b).terms) == 27
        monkeypatch.setattr(TENSOR, "MAX_TERMS", 26)
        with pytest.raises(LimitExceeded, match="more than 26 terms"):
            a * b


class TestProductsStoreInts:
    """Element products and actions coerce their result once: every stored
    coefficient is an int or a Fraction that is not integral."""

    def test_seeded_product_pool(self):
        rng = random.Random(16)
        products = []
        for _ in range(60):
            a, b = rand_i1(rng), rand_i1(rng)
            products += [a * b, (a * b) * a, a**2, from_i1(a) * from_i1(b)]
        for n in (2, 3):
            for _ in range(30):
                a, b = rand_in(rng, n, terms=3), rand_in(rng, n, terms=3)
                idx = [rng.randint(1, n)]
                products += [a * b, project_modulo_prime(a, idx) * project_modulo_prime(b, idx)]
        for _ in range(30):
            a = rand_in(rng, 2, terms=3)
            poly = PolyXn(2, {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(1, 5)})
            products.append(apply_n(a, poly))
        values = [v for p in products for v in p.terms.values()]
        assert sum(type(v) is int for v in values) >= 500
        assert sum(type(v) is Fraction for v in values) >= 500
        for p in products:
            assert all(map(is_exact, p.terms.values())), p.terms


class TestRepr:
    def test_quotient_mode_prints_its_terms_and_modes(self):
        a = InElement(2, {((0, 0, 1), (0, 0, 0)): 1}) + gen_partial(2, 2)
        assert repr(project_modulo_prime(a, [2])) == "InElement(modes=('I', 'B'), D2 + H1)"

    def test_full_mode_prints_its_terms(self):
        assert repr(gen_x(2, 1) + 1) == "InElement(1 + int1*H1)"

    def test_poly_xn_prints_its_terms(self):
        assert repr(PolyXn(2, {(1, 0): 1, (0, 2): Fraction(-1, 2)})) == (
            "PolyXn(n=2, -1/2*x2^2 + x1)"
        )


def per_bit_membership(a, antichain):
    """Membership by the per-factor rule: a support tuple is f-compatible when
    each factor with f(i) = 0 is a matrix unit, and a lies in the ideal iff
    each of its tuples is compatible with some generator f."""
    return all(
        any(all((f >> k) & 1 or tup[k][0] for k in range(a.n)) for f in antichain.masks)
        for tup in a.terms
    )


class TestIdealMembership:
    def test_against_the_per_bit_rule(self):
        rng = random.Random(54)
        members = total = 0
        for n in (1, 2, 3):
            for c in enumerate_ideals(n):
                for a in [InElement.zero(n)] + [rand_in(rng, n, 3) for _ in range(24)]:
                    want = per_bit_membership(a, c)
                    assert ideal_membership(a, c) == want, (a, c)
                    members += want
                    total += 1
        assert total == 29 * 25 and 100 < members < total - 100

    def test_f_tensor_f(self):
        a = tensor(
            [I1Element.from_mono(MatUnit(0, 0)), I1Element.from_mono(MatUnit(1, 1))]
        )
        assert ideal_membership(a, IdealAntichain(2, [0b00]))

    def test_non_member(self):
        a = tensor([I1Element.from_scalar(1), I1Element.from_mono(MatUnit(0, 0))])
        assert not ideal_membership(a, IdealAntichain(2, [0b00]))

    def test_maximal_ideal_member(self):
        a = tensor([I1Element.from_mono(MatUnit(0, 0)), H1]) + tensor(
            [D1, I1Element.from_mono(MatUnit(1, 2))]
        )
        assert ideal_membership(a, IdealAntichain(2, [0b01, 0b10]))

    def test_two_sided_absorption(self):
        rng = random.Random(50)
        # f(1) = 0, f(2) = 1: first factor lies in F -> mask 0b10
        c = IdealAntichain(2, [0b10])
        for _ in range(60):
            # element of the ideal: first factor a matrix unit
            a = tensor([I1Element.from_mono(MatUnit(rng.randint(0, 2), rng.randint(0, 2))), rand_i1(rng, 2)])
            r, s = rand_in(rng, 2), rand_in(rng, 2)
            assert ideal_membership(r * a * s, c)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ideal_membership(gen_h(2, 1), IdealAntichain(3, [0b000]))

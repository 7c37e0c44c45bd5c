"""The ideal lattice in the antichain encoding: laws, primes, enumeration."""

import math
import random

import pytest

from intdiffop import (
    IdealAntichain,
    dedekind_bounds,
    enumerate_ideals,
    ideal_includes,
    ideal_product,
    ideal_sum,
    is_prime,
    maximal_ideal,
    minimal_primes_over,
    minimum_nonzero_ideal,
    normalize,
    prime_ideal,
)
from intdiffop.errors import DimensionMismatch, LimitExceeded
from intdiffop.lattice import prime_index_set

DEDEKIND = [3, 6, 20, 168, 7581]


def downset(c: IdealAntichain):
    """The full set of masks below some generator (independent ideal model)."""
    return frozenset(
        f for f in range(1 << c.n) if any(f & g == f for g in c.masks)
    )


class TestNormalize:
    def test_dominated_dropped(self):
        assert normalize(2, [0b00, 0b01]).masks == (0b01,)

    def test_incomparable_kept(self):
        assert set(normalize(2, [0b01, 0b10]).masks) == {0b01, 0b10}

    def test_empty_is_zero(self):
        assert normalize(2, []).is_zero()

    def test_idempotent(self):
        rng = random.Random(61)
        for _ in range(100):
            c = IdealAntichain(3, [rng.randrange(8) for _ in range(rng.randint(0, 4))])
            assert IdealAntichain(3, c.masks) == c


class TestSumProduct:
    def test_sum_of_height_one_primes(self):
        s = ideal_sum(prime_ideal(2, [1]), prime_ideal(2, [2]))
        assert s == maximal_ideal(2)
        assert s.to_text() == "{01,10}"

    def test_sum_unit_laws(self):
        rng = random.Random(62)
        for _ in range(50):
            c = IdealAntichain(3, [rng.randrange(8) for _ in range(rng.randint(0, 3))])
            assert ideal_sum(c, IdealAntichain.zero(3)) == c
            assert ideal_sum(c, c) == c

    def test_product_of_height_one_primes(self):
        p = ideal_product(prime_ideal(2, [1]), prime_ideal(2, [2]))
        assert p == minimum_nonzero_ideal(2)
        assert p.to_text() == "{00}"

    def test_product_unit_and_zero(self):
        rng = random.Random(63)
        for _ in range(50):
            c = IdealAntichain(3, [rng.randrange(8) for _ in range(rng.randint(0, 3))])
            assert ideal_product(c, IdealAntichain.full(3)) == c
            assert ideal_product(c, IdealAntichain.zero(3)).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ideal_sum(IdealAntichain.zero(2), IdealAntichain.zero(3))


class TestIncludes:
    def test_minimum_inside_primes(self):
        assert ideal_includes(minimum_nonzero_ideal(2), prime_ideal(2, [1]))

    def test_distinct_primes(self):
        assert not ideal_includes(prime_ideal(2, [1]), prime_ideal(2, [2]))

    def test_reflexive(self):
        for c in enumerate_ideals(3):
            assert ideal_includes(c, c)

    def test_matches_downset_containment(self):
        ideals = enumerate_ideals(3)
        for c1 in ideals:
            for c2 in ideals:
                assert ideal_includes(c1, c2) == (downset(c1) <= downset(c2))


class TestPrimes:
    def test_single_index(self):
        assert prime_ideal(2, [1]).to_text() == "{01}"

    def test_empty_index_set(self):
        assert prime_ideal(2, []).is_zero()

    def test_full_index_set(self):
        assert prime_ideal(2, [1, 2]) == maximal_ideal(2)

    def test_is_prime_examples(self):
        assert is_prime(maximal_ideal(2))
        assert not is_prime(minimum_nonzero_ideal(2))
        assert is_prime(IdealAntichain.zero(2))

    def test_prime_count(self):
        for n in range(1, 5):
            count = sum(1 for c in enumerate_ideals(n) if is_prime(c))
            assert count == 2**n

    def test_prime_index_round_trip(self):
        for n in (2, 3):
            for bits in range(1 << n):
                idx = {i + 1 for i in range(n) if (bits >> i) & 1}
                p = prime_ideal(n, idx)
                assert is_prime(p)
                assert prime_index_set(p) == frozenset(idx)


def scan_minimal_primes(c: IdealAntichain):
    """The minimal hitting sets of the zero sets, by a scan over all 2^n slot
    sets (independent reference for small n)."""
    full = (1 << c.n) - 1
    zero_sets = [full & ~m for m in c.masks]
    hitting = [s for s in range(1 << c.n) if all(s & z for z in zero_sets)]
    minimal = [s for s in hitting if not any(t != s and t & s == t for t in hitting)]
    return {frozenset(i + 1 for i in range(c.n) if (s >> i) & 1) for s in minimal}


class TestMinimalPrimes:
    def test_agrees_with_the_scan(self):
        for n in range(1, 6):
            for c in enumerate_ideals(n):
                assert minimal_primes_over(c) == scan_minimal_primes(c)

    def test_answer_can_be_exponential(self):
        # 8 generators with disjoint two-slot zero sets: one slot from each
        full = (1 << 16) - 1
        c = IdealAntichain(16, [full ^ (0b11 << 2 * k) for k in range(8)])
        mins = minimal_primes_over(c)
        assert len(mins) == 2**8
        assert all(len(idx) == 8 for idx in mins)

    def test_minimum_ideal(self):
        assert minimal_primes_over(minimum_nonzero_ideal(2)) == {
            frozenset([1]),
            frozenset([2]),
        }

    def test_maximal_ideal(self):
        assert minimal_primes_over(maximal_ideal(2)) == {frozenset([1, 2])}

    def test_zero_ideal(self):
        assert minimal_primes_over(IdealAntichain.zero(2)) == {frozenset()}

    def test_reconstruction_n3(self):
        for c in enumerate_ideals(3):
            prod = IdealAntichain.full(3)
            for idx in minimal_primes_over(c):
                prod = ideal_product(prod, prime_ideal(3, idx))
            assert prod == c

    def test_minimality(self):
        for c in enumerate_ideals(3):
            mins = minimal_primes_over(c)
            for idx in mins:
                assert ideal_includes(c, prime_ideal(3, idx))
                for other in mins:
                    assert not (other < idx)


class TestLatticeLaws:
    def test_exhaustive_n3(self):
        ideals = enumerate_ideals(3)
        assert len(ideals) == 20
        for a in ideals:
            assert ideal_product(a, a) == a
            for b in ideals:
                assert ideal_product(a, b) == ideal_product(b, a)
                # product = intersection, via the independent down-set model
                assert downset(ideal_product(a, b)) == downset(a) & downset(b)
                assert downset(ideal_sum(a, b)) == downset(
                    normalize(3, downset(a) | downset(b))
                )

    def test_distributivity_n3(self):
        ideals = enumerate_ideals(3)
        rng = random.Random(64)
        for _ in range(400):
            a, b, c = (rng.choice(ideals) for _ in range(3))
            assert ideal_product(a, ideal_sum(b, c)) == ideal_sum(
                ideal_product(a, b), ideal_product(a, c)
            )
            assert ideal_sum(a, ideal_product(b, c)) == ideal_product(
                ideal_sum(a, b), ideal_sum(a, c)
            )

    def test_join_meet_for_inclusion(self):
        ideals = enumerate_ideals(3)
        for a in ideals:
            for b in ideals:
                s, p = ideal_sum(a, b), ideal_product(a, b)
                assert ideal_includes(a, s) and ideal_includes(b, s)
                assert ideal_includes(p, a) and ideal_includes(p, b)

    def test_unique_maximal_and_minimum(self):
        for n in range(1, 5):
            full = IdealAntichain.full(n)
            amax = maximal_ideal(n)
            fmin = minimum_nonzero_ideal(n)
            for c in enumerate_ideals(n):
                if c != full:
                    assert ideal_includes(c, amax)
                if not c.is_zero():
                    assert ideal_includes(fmin, c)


class TestEnumeration:
    def test_dedekind_counts(self):
        for n in range(1, 6):
            assert len(enumerate_ideals(n)) == DEDEKIND[n - 1]

    def test_deterministic_order(self):
        assert enumerate_ideals(3) == enumerate_ideals(3)

    def test_bounds(self):
        for n in range(1, 6):
            lower, upper = dedekind_bounds(n)
            expect_lower = 2 - n + sum(2 ** math.comb(n, i) for i in range(1, n + 1))
            assert lower == expect_lower
            assert upper == 2 ** (2**n)
            assert lower <= DEDEKIND[n - 1] <= upper

    def test_limit(self):
        for n in (6, 7):
            with pytest.raises(LimitExceeded):
                enumerate_ideals(n)


class TestText:
    def test_round_trip(self):
        for c in enumerate_ideals(3):
            assert IdealAntichain.from_text(c.to_text(), 3) == c

    def test_bad_bitstring(self):
        with pytest.raises(ValueError):
            IdealAntichain.from_text("{012}", 3)

    def test_text_needs_braces(self):
        for text in ("01", "{01", "01}"):
            with pytest.raises(ValueError):
                IdealAntichain.from_text(text, 2)


class TestRefusals:
    def test_no_slots(self):
        with pytest.raises(ValueError):
            IdealAntichain(0)

    def test_mask_outside_the_slots(self):
        for m in (-1, 4):
            with pytest.raises(ValueError):
                IdealAntichain(2, [m])

    def test_prime_index_outside_the_slots(self):
        for i in (0, 3):
            with pytest.raises(ValueError):
                prime_ideal(2, [i])

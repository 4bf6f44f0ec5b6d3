import random
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxorder import ffpoly
from maxorder.fields import PrimeField, extension_field
from maxorder.rings import ValuedBase

from oracles import (
    all_monic_polys,
    factor_exhaustive,
    poly_divmod_oracle,
    poly_mul_oracle,
    pow_mod_oracle,
)


def rand_poly(field, rng, max_deg, monic=False):
    d = rng.randint(0, max_deg)
    coeffs = [field.element(rng.randrange(field.q)) for _ in range(d + 1)]
    if monic:
        coeffs[-1] = field.one
        return tuple(coeffs)
    return ffpoly.trim(field, coeffs)


FIELDS = [PrimeField(2), PrimeField(3), PrimeField(7), extension_field(2, 2), extension_field(3, 2)]


def test_mul_matches_oracle():
    rng = random.Random(2)
    for field in FIELDS:
        for _ in range(60):
            a = rand_poly(field, rng, 6)
            b = rand_poly(field, rng, 6)
            assert ffpoly.mul(field, a, b) == poly_mul_oracle(field, a, b)


def test_divmod_property():
    rng = random.Random(3)
    for field in FIELDS:
        for _ in range(80):
            a = rand_poly(field, rng, 8)
            b = rand_poly(field, rng, 5)
            if not b:
                continue
            q, r = ffpoly.divmod_(field, a, b)
            assert (q, r) == poly_divmod_oracle(field, a, b)
            back = ffpoly.add(field, ffpoly.mul(field, q, b), r)
            assert back == a
            assert ffpoly.deg(r) < ffpoly.deg(b) or not r


def test_gcd_properties():
    rng = random.Random(4)
    for field in FIELDS:
        for _ in range(60):
            a = rand_poly(field, rng, 6)
            b = rand_poly(field, rng, 6)
            g = ffpoly.gcd(field, a, b)
            if not a and not b:
                assert g == ()
                continue
            assert ffpoly.is_monic(field, g)
            if a:
                assert not ffpoly.rem(field, a, g)
            if b:
                assert not ffpoly.rem(field, b, g)
            d, s, t = ffpoly.egcd(field, a, b)
            assert d == g
            lhs = ffpoly.add(
                field, ffpoly.mul(field, s, a), ffpoly.mul(field, t, b)
            )
            assert lhs == d


def test_egcd_cofactor_degrees():
    rng = random.Random(5)
    field = PrimeField(5)
    for _ in range(100):
        a = rand_poly(field, rng, 6, monic=True)
        b = rand_poly(field, rng, 6, monic=True)
        d, s, t = ffpoly.egcd(field, a, b)
        if ffpoly.deg(d) == 0 and ffpoly.deg(a) >= 1 and ffpoly.deg(b) >= 1:
            assert ffpoly.deg(s) < ffpoly.deg(b)
            assert ffpoly.deg(t) < ffpoly.deg(a)


def test_derivative_and_evaluate():
    F = PrimeField(3)
    f = (1, 2, 0, 1)  # 1 + 2x + x^3
    assert ffpoly.derivative(F, f) == (2,)  # 3x^2 + 2 = 2
    assert ffpoly.evaluate(F, f, 0) == 1
    assert ffpoly.evaluate(F, f, 1) == (1 + 2 + 1) % 3


def test_pth_root():
    F = extension_field(2, 2)
    rng = random.Random(6)
    for _ in range(40):
        g = rand_poly(F, rng, 3, monic=True)
        fp = ffpoly.pow_(F, g, 2)
        assert ffpoly.pth_root(F, fp) == g
    with pytest.raises(ArithmeticError):
        ffpoly.pth_root(F, (F.zero, F.one))  # x is not a square


def test_squarefree_decomposition_reassembles():
    rng = random.Random(7)
    for field in FIELDS:
        for _ in range(40):
            f = rand_poly(field, rng, 6, monic=True)
            if ffpoly.deg(f) < 1:
                continue
            parts = ffpoly.squarefree_decomposition(field, f)
            prod = (field.one,)
            for g, m in parts:
                assert ffpoly.is_monic(field, g)
                assert ffpoly.deg(g) >= 1
                prod = ffpoly.mul(field, prod, ffpoly.pow_(field, g, m))
                # squarefree part: gcd(g, g') == 1 unless derivative vanishes
                gp = ffpoly.derivative(field, g)
                if gp:
                    assert ffpoly.gcd(field, g, gp) == (field.one,)
            assert prod == f


def test_factor_matches_exhaustive_oracle():
    rng = random.Random(8)
    for field in (PrimeField(2), PrimeField(3), extension_field(2, 2)):
        for _ in range(25):
            f = rand_poly(field, rng, 4, monic=True)
            if ffpoly.deg(f) < 1:
                continue
            got = ffpoly.factor_monic(field, f, seed=0)
            want = factor_exhaustive(field, f)
            assert Counter(dict(got)) == want
            prod = (field.one,)
            for g, m in got:
                assert ffpoly.is_irreducible(field, g)
                prod = ffpoly.mul(field, prod, ffpoly.pow_(field, g, m))
            assert prod == f


# (field, largest degree): the primes of the slowest Q ops of the verdict stream at degree <= 4
FACTOR_FIELDS = [
    (PrimeField(2), 6), (PrimeField(3), 6), (extension_field(2, 2), 6),
    (PrimeField(7), 4), (PrimeField(11), 4), (PrimeField(13), 4),
]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_factor_matches_exhaustive_oracle_property(data):
    field, top = data.draw(st.sampled_from(FACTOR_FIELDS))
    digits = data.draw(st.lists(st.integers(0, field.q - 1), min_size=1, max_size=top))
    f = tuple(field.element(i) for i in digits) + (field.one,)
    assert Counter(dict(ffpoly.factor_monic(field, f, seed=data.draw(st.integers(0, 99))))) == (
        factor_exhaustive(field, f)
    )


POW_MOD_PRIMES = [2, 3, 5, 13, 101, 2**61 - 1, 2**127 - 1]


@st.composite
def pow_mod_cases(draw, fields):
    """(field, a, n, m): a = 0 or of degree >= deg m, n in {0, 1, q, (q^e - 1)/2, random}."""
    field = draw(st.sampled_from(fields))
    elem = st.integers(0, field.q - 1).map(field.element)
    d = draw(st.integers(0, 12))
    m = tuple(draw(st.lists(elem, min_size=d, max_size=d))) + (field.element(draw(st.integers(1, field.q - 1))),)
    if draw(st.booleans()):
        a = ()
    else:
        a = tuple(draw(st.lists(elem, min_size=d, max_size=2 * d + 3))) + (field.one,)
    e = draw(st.integers(1, 3))  # the degree of the equal-degree split's power map
    n = draw(st.sampled_from([0, 1, field.q, (field.q ** e - 1) // 2, draw(st.integers(0, 10**6))]))
    return field, a, n, m


@settings(max_examples=300, deadline=None)
@given(pow_mod_cases([PrimeField(p) for p in POW_MOD_PRIMES]))
def test_pow_mod_packed_matches_oracle(case):
    field, a, n, m = case
    assert ffpoly.pow_mod(field, a, n, m) == pow_mod_oracle(field, a, n, m)


@settings(max_examples=100, deadline=None)
@given(pow_mod_cases([extension_field(2, 2), extension_field(3, 2)]))
def test_pow_mod_extension_fields_keep_the_tuple_loop(case):
    field, a, n, m = case
    with patch.object(ffpoly, "_pow_mod_prime", side_effect=AssertionError("packed path taken")):
        assert ffpoly.pow_mod(field, a, n, m) == pow_mod_oracle(field, a, n, m)


def test_pow_mod_takes_the_packed_path_over_prime_fields():
    field = PrimeField(13)
    with patch.object(ffpoly, "_pow_mod_prime", wraps=ffpoly._pow_mod_prime) as packed:
        ffpoly.factor_monic(field, (1, 2, 3, 4, 5, 6, 0, 1), seed=0)
        assert ffpoly.is_irreducible(field, (2, 1, 1))
    assert packed.call_count > 0
    with pytest.raises(ZeroDivisionError):
        ffpoly.pow_mod(field, (1, 1), 3, ())


def test_factor_seed_independent_and_ordered():
    field = PrimeField(5)
    rng = random.Random(9)
    for _ in range(25):
        f = rand_poly(field, rng, 6, monic=True)
        if ffpoly.deg(f) < 1:
            continue
        a = ffpoly.factor_monic(field, f, seed=0)
        b = ffpoly.factor_monic(field, f, seed=12345)
        assert a == b
        keys = [ffpoly.sort_key(field, g) for g, _ in a]
        assert keys == sorted(keys)


def test_distinct_degree_factors_build_no_generator():
    # a squarefree product of irreducibles of distinct degrees needs no equal-degree split
    for field, factors in (
        (PrimeField(5), [(1, 1), (2, 0, 1), (1, 1, 0, 1)]),  # x + 1, x^2 + 2, x^3 + x + 1
        (PrimeField(2), [(0, 1), (1, 1, 1), (1, 1, 0, 1)]),  # x, x^2 + x + 1, x^3 + x + 1
    ):
        assert all(ffpoly.is_irreducible(field, g) for g in factors)
        f = (field.one,)
        for g in factors:
            f = ffpoly.mul(field, f, g)
        with patch.object(ffpoly.random, "Random", side_effect=AssertionError("generator built")):
            got = ffpoly.factor_monic(field, f, seed=0)
        assert got == tuple((g, 1) for g in factors)


def test_is_irreducible_against_oracle():
    for field in (PrimeField(2), PrimeField(3)):
        for d in (1, 2, 3, 4):
            for f in all_monic_polys(field, d):
                want = len(factor_exhaustive(field, f)) == 1 and sum(
                    factor_exhaustive(field, f).values()
                ) == 1
                assert ffpoly.is_irreducible(field, f) == want


def test_cyclotomic_reduction_factors():
    # x^4+x^3+x^2+x+1 mod 5 is (x+4)^4
    F = PrimeField(5)
    got = ffpoly.factor_monic(F, (1, 1, 1, 1, 1), seed=0)
    assert got == (((4, 1), 4),)
    # x^2-5 mod 11 factors as (x+4)(x+7), canonical order
    F11 = PrimeField(11)
    got = ffpoly.factor_monic(F11, (6, 0, 1), seed=0)
    assert got == (((4, 1), 1), ((7, 1), 1))


def _element(draw, domain):
    if getattr(domain, "kind", None) == "Q":
        return draw(st.integers(-50, 50))
    if getattr(domain, "kind", None) == "Fq":
        field = domain.field
        digits = draw(st.lists(st.integers(0, field.q - 1), max_size=3))
        return ffpoly.trim(field, [field.element(i) for i in digits])
    return domain.element(draw(st.integers(0, domain.q - 1)))


F9 = extension_field(3, 2)
SUB_DOMAINS = [  # F_p, F_9, Z and F_9[t]
    PrimeField(7),
    F9,
    ValuedBase.rational(2).ring,
    ValuedBase.function_field(3, 2, (F9.zero, F9.one)).ring,
]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sub_is_add_of_negation(data):
    domain = data.draw(st.sampled_from(SUB_DOMAINS))
    a, b = (
        ffpoly.trim(domain, [_element(data.draw, domain) for _ in range(data.draw(st.integers(0, 5)))])
        for _ in range(2)
    )
    assert ffpoly.sub(domain, a, b) == ffpoly.add(domain, a, ffpoly.neg(domain, b))

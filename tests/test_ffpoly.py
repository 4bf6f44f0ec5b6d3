import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxorder import ffpoly
from maxorder.fields import PrimeField, extension_field
from maxorder.rings import ValuedBase

from oracles import all_monic_polys, factor_exhaustive, poly_divmod_oracle, poly_mul_oracle


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

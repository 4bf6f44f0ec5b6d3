import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxorder import ffpoly
from maxorder.cli import parse_poly
from maxorder.errors import InputError
from maxorder.rings import (
    ValuedBase,
    discriminant,
    element_to_text,
    gauss_valuation,
    poly_divmod_monic,
    poly_to_text,
    reduce_mod,
    lift_residue_poly,
    resultant,
)

from oracles import det_fraction, int_valuation, resultant_oracle, sylvester_matrix

B2 = ValuedBase.rational(2)
B3 = ValuedBase.rational(3)
B11 = ValuedBase.rational(11)
BT2 = ValuedBase.function_field(2, 1, (0, 1))
BT3 = ValuedBase.function_field(3, 1, (0, 1))


def rand_int_poly(rng, max_deg, bound=50, monic=False):
    d = rng.randint(0, max_deg)
    coeffs = [rng.randint(-bound, bound) for _ in range(d + 1)]
    if monic:
        coeffs[-1] = 1
    return ffpoly.trim(B2.ring, coeffs)


def rand_t_elem(rng, ring, tdeg=2):
    field = ring.field
    return ffpoly.trim(field, [field.element(rng.randrange(field.q)) for _ in range(tdeg + 1)])


def rand_fq_poly(rng, base, max_deg, monic=False):
    ring = base.ring
    d = rng.randint(0, max_deg)
    coeffs = [rand_t_elem(rng, ring) for _ in range(d + 1)]
    if monic:
        coeffs[-1] = ring.one
    return ffpoly.trim(ring, coeffs)


def test_integer_ring_valuation():
    R = B2.ring
    assert R.valuation(0) == math.inf
    rng = random.Random(10)
    for _ in range(200):
        a = rng.randint(-10**6, 10**6)
        if a == 0:
            continue
        assert R.valuation(a) == int_valuation(a, 2)


def test_function_ring_valuation_and_reduce():
    R = BT3.ring
    t = (0, 1)
    assert R.valuation(()) == math.inf
    assert R.valuation((0, 0, 2)) == 2
    assert R.valuation((1, 2)) == 0
    assert BT3.ring.reduce((2, 1, 1)) == 2  # value at t = 0
    assert BT3.ring.lift(2) == (2,)
    # deg-2 place: residue field is a quadratic extension
    Bq = ValuedBase.function_field(2, 1, (1, 1, 1))  # pi = t^2+t+1
    k = Bq.residue_field
    assert k.q == 4
    cls = Bq.ring.reduce((0, 1))  # class of t
    assert k.mul(cls, cls) == k.add(cls, k.one)  # t^2 = t+1 mod pi


def test_poly_divmod_monic_property():
    rng = random.Random(11)
    for base, gen in ((B3, rand_int_poly), (BT2, None)):
        ring = base.ring
        for _ in range(100):
            if base.kind == "Q":
                f = rand_int_poly(rng, 7)
                phi = rand_int_poly(rng, 3, monic=True)
            else:
                f = rand_fq_poly(rng, base, 7)
                phi = rand_fq_poly(rng, base, 3, monic=True)
            if ffpoly.deg(phi) < 1:
                continue
            q, r = poly_divmod_monic(f, phi, ring)
            assert ffpoly.add(ring, ffpoly.mul(ring, q, phi), r) == f
            assert ffpoly.deg(r) < ffpoly.deg(phi) or not r


def test_divmod_frozen_example():
    q, r = poly_divmod_monic((-5, 0, 1), (1, 1), B2.ring)
    assert q == (-1, 1)  # x - 1
    assert r == (-4,)


def test_gauss_valuation_and_primitive_part():
    assert gauss_valuation((4, 8, 16), B2) == 2
    assert gauss_valuation((), B2) == math.inf
    assert gauss_valuation(((0, 0, 1), (0, 1)), BT2) == 1  # t^2 + t*x


def test_reduce_and_lift_roundtrip():
    rng = random.Random(12)
    for base in (B3, BT2, BT3):
        for _ in range(50):
            if base.kind == "Q":
                f = rand_int_poly(rng, 6)
            else:
                f = rand_fq_poly(rng, base, 6)
            fbar = reduce_mod(f, base)
            lifted = lift_residue_poly(fbar, base)
            assert reduce_mod(lifted, base) == fbar


def test_resultant_matches_sylvester_over_z():
    rng = random.Random(13)
    ring = B2.ring
    for _ in range(120):
        f = rand_int_poly(rng, 6)
        g = rand_int_poly(rng, 6)
        if not f or not g or (ffpoly.deg(f) == 0 and ffpoly.deg(g) == 0):
            continue
        got = resultant(f, g, ring)
        want = resultant_oracle(f, g, ring)
        assert got == want
        if ffpoly.deg(f) >= 1 or ffpoly.deg(g) >= 1:
            frac = det_fraction(sylvester_matrix(f, g))
            assert Fraction(got) == frac


def test_resultant_matches_sylvester_over_fqt():
    rng = random.Random(14)
    for base in (BT2, BT3):
        ring = base.ring
        for _ in range(60):
            f = rand_fq_poly(rng, base, 5)
            g = rand_fq_poly(rng, base, 5)
            if not f or not g or (ffpoly.deg(f) == 0 and ffpoly.deg(g) == 0):
                continue
            assert resultant(f, g, ring) == resultant_oracle(f, g, ring)


def _ring_element(draw, ring, nonzero=False):
    if ring.kind == "Q":
        return draw(st.integers(-30, 30).filter(lambda c: c or not nonzero))
    field = ring.field
    digits = draw(st.lists(st.integers(0, field.q - 1), min_size=int(nonzero), max_size=3))
    c = ffpoly.trim(field, [field.element(i) for i in digits])
    return c if c or not nonzero else ring.one


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_resultant_matches_sylvester_property(data):
    # a monic second argument takes the pseudo-remainder's shortcut
    ring = data.draw(st.sampled_from([B2.ring, BT2.ring, _b9().ring]))
    dg = data.draw(st.integers(1, 4))
    df = data.draw(st.integers(dg, 6))
    f = tuple(_ring_element(data.draw, ring) for _ in range(df)) + (
        _ring_element(data.draw, ring, nonzero=True),
    )
    lc = ring.one if data.draw(st.booleans()) else _ring_element(data.draw, ring, nonzero=True)
    g = tuple(_ring_element(data.draw, ring) for _ in range(dg)) + (lc,)
    assert resultant(f, g, ring) == resultant_oracle(f, g, ring)


def test_resultant_known_values():
    ring = B2.ring
    assert resultant((-3, 0, 1), (1, 1), ring) == -2
    a, b = 17, 5
    assert resultant((-a, 1), (-b, 1), ring) == a - b
    # multiplicativity: Res(fg, h) = Res(f, h) Res(g, h)
    rng = random.Random(15)
    for _ in range(40):
        f = rand_int_poly(rng, 3, monic=True)
        g = rand_int_poly(rng, 3, monic=True)
        h = rand_int_poly(rng, 3, monic=True)
        if min(ffpoly.deg(f), ffpoly.deg(g), ffpoly.deg(h)) < 1:
            continue
        assert resultant(ffpoly.mul(ring, f, g), h, ring) == resultant(
            f, h, ring
        ) * resultant(g, h, ring)


def test_discriminant_values():
    ring = B2.ring
    assert discriminant((-5, 0, 1), ring) == 20
    assert discriminant((-2, 0, 0, 1), ring) == -108
    assert discriminant((7, 1), ring) == 1
    # char 2: d/dx (x^2 - t) = 0, so the discriminant is zero
    R = BT2.ring
    assert discriminant(((0, 1), (), (1,)), R) == ()
    with pytest.raises(InputError):
        discriminant((2, 2), ring)  # not monic


def test_poly_eval_and_derivative():
    ring = B3.ring
    f = (1, 0, 2, 1)
    assert ffpoly.evaluate(ring, f, 2) == 1 + 0 + 8 + 8
    assert ffpoly.derivative(ring, f) == (0, 4, 3)


def test_poly_to_text_frozen():
    assert poly_to_text((-5, 0, 1), B2) == "x^2 - 5"
    assert poly_to_text((1, 1, 1, 1, 1), B2) == "x^4 + x^3 + x^2 + x + 1"
    assert poly_to_text((), B2) == "0"
    assert poly_to_text((-4,), B2) == "-4"
    assert poly_to_text((0, -2, 0, 1), B2) == "x^3 - 2*x"
    R = BT2.ring
    f = ((0, 1), (), (1,))
    assert poly_to_text(f, BT2) == "x^2 + t"
    g = ((1, 1), (0, 0, 1), (1,))  # x^2 + t^2 x + (t+1)
    assert poly_to_text(g, BT2) == "x^2 + t^2*x + t + 1"
    assert element_to_text((1, 1, 1), BT2) == "t^2 + t + 1"


def _b9():
    from maxorder.fields import extension_field

    k = extension_field(3, 2)
    return ValuedBase.function_field(3, 2, (k.zero, k.one))


def test_text_parse_roundtrip():
    rng = random.Random(16)
    for base in (B2, B11, BT2, BT3, _b9()):
        for _ in range(60):
            if base.kind == "Q":
                f = rand_int_poly(rng, 6)
            else:
                f = rand_fq_poly(rng, base, 6)
            text = poly_to_text(f, base)
            assert parse_poly(text, base) == f


def test_sigma_is_one():
    assert B2.sigma == 1
    assert BT2.sigma == 1


def test_describe():
    assert B2.describe() == "Q at p = 2"
    assert BT2.describe() == "F_2(t) at pi = t"
    assert _b9().describe() == "F_9(t) at pi = t"
    # a genuinely irreducible quadratic place over F_2: t^2 + t + 1
    Bq = ValuedBase.function_field(2, 1, (1, 1, 1))
    assert Bq.describe() == "F_2(t) at pi = t^2 + t + 1"

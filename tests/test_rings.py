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
    IntegerRing,
    IntegersModPrimePow,
    TruncatedFunctionRing,
    _QuotientTuples,
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
BT5 = ValuedBase.function_field(5, 1, (0, 1))


def rand_int_poly(rng, max_deg, bound=50, monic=False):
    d = rng.randint(0, max_deg)
    coeffs = [rng.randint(-bound, bound) for _ in range(d + 1)]
    if monic:
        coeffs[-1] = 1
    return ffpoly.trim(B2, coeffs)


def rand_t_elem(rng, ring, tdeg=2):
    field = ring.field
    return ffpoly.trim(field, [field.element(rng.randrange(field.q)) for _ in range(tdeg + 1)])


def rand_fq_poly(rng, base, max_deg, monic=False):
    ring = base
    d = rng.randint(0, max_deg)
    coeffs = [rand_t_elem(rng, ring) for _ in range(d + 1)]
    if monic:
        coeffs[-1] = ring.one
    return ffpoly.trim(ring, coeffs)


def test_integer_ring_valuation():
    R = B2
    assert R.valuation(0) == math.inf
    rng = random.Random(10)
    for _ in range(200):
        a = rng.randint(-10**6, 10**6)
        if a == 0:
            continue
        assert R.valuation(a) == int_valuation(a, 2)


def test_function_ring_valuation_and_reduce():
    R = BT3
    t = (0, 1)
    assert R.valuation(()) == math.inf
    assert R.valuation((0, 0, 2)) == 2
    assert R.valuation((1, 2)) == 0
    assert BT3.reduce((2, 1, 1)) == 2  # value at t = 0
    assert BT3.lift(2) == (2,)
    # deg-2 place: residue field is a quadratic extension
    Bq = ValuedBase.function_field(2, 1, (1, 1, 1))  # pi = t^2+t+1
    k = Bq.residue_field
    assert k.q == 4
    cls = Bq.reduce((0, 1))  # class of t
    assert k.mul(cls, cls) == k.add(cls, k.one)  # t^2 = t+1 mod pi


def test_poly_divmod_monic_property():
    rng = random.Random(11)
    for base, gen in ((B3, rand_int_poly), (BT2, None)):
        ring = base
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
    q, r = poly_divmod_monic((-5, 0, 1), (1, 1), B2)
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
    ring = B2
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
        ring = base
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
    ring = data.draw(st.sampled_from([B2, BT2, _b9()]))
    dg = data.draw(st.integers(1, 4))
    df = data.draw(st.integers(dg, 6))
    f = tuple(_ring_element(data.draw, ring) for _ in range(df)) + (
        _ring_element(data.draw, ring, nonzero=True),
    )
    lc = ring.one if data.draw(st.booleans()) else _ring_element(data.draw, ring, nonzero=True)
    g = tuple(_ring_element(data.draw, ring) for _ in range(dg)) + (lc,)
    assert resultant(f, g, ring) == resultant_oracle(f, g, ring)


def test_resultant_known_values():
    ring = B2
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
    ring = B2
    assert discriminant((-5, 0, 1), ring) == 20
    assert discriminant((-2, 0, 0, 1), ring) == -108
    assert discriminant((7, 1), ring) == 1
    # char 2: d/dx (x^2 - t) = 0, so the discriminant is zero
    R = BT2
    assert discriminant(((0, 1), (), (1,)), R) == ()
    with pytest.raises(InputError):
        discriminant((2, 2), ring)  # not monic


def test_poly_eval_and_derivative():
    ring = B3
    f = (1, 0, 2, 1)
    assert ffpoly.evaluate(ring, f, 2) == 1 + 0 + 8 + 8
    assert ffpoly.derivative(ring, f) == (0, 4, 3)


def test_poly_to_text_frozen():
    assert poly_to_text((-5, 0, 1), B2) == "x^2 - 5"
    assert poly_to_text((1, 1, 1, 1, 1), B2) == "x^4 + x^3 + x^2 + x + 1"
    assert poly_to_text((), B2) == "0"
    assert poly_to_text((-4,), B2) == "-4"
    assert poly_to_text((0, -2, 0, 1), B2) == "x^3 - 2*x"
    R = BT2
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


def _poly_over(draw, ring, max_deg=5):
    n = draw(st.integers(0, max_deg)) + 1
    return ffpoly.trim(ring, [_ring_element(draw, ring) for _ in range(n)])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_text_parse_roundtrip_property(data):
    base = data.draw(st.sampled_from([B2, B11, BT2, BT3, BT5, _b9(), _b4()]))
    f = _poly_over(data.draw, base)
    assert parse_poly(poly_to_text(f, base), base) == f


def _b4():
    from maxorder.fields import extension_field

    k = extension_field(2, 2)
    return ValuedBase.function_field(2, 2, (k.zero, k.one))


def test_tuple_fallback_holds_the_element_rings():
    # past pi = t over a prime field, and over Z past p^top < 2^128, a polynomial is a tuple
    # over the element ring; an element is a polynomial of length 1
    others = (_b4(), ValuedBase.function_field(2, 1, (1, 1)), ValuedBase.function_field(2, 1, (1, 1, 1)))
    for base in others:
        for m in (1, 2, 9):
            P = base.polys(m, 9, 1)
            assert type(P) is _QuotientTuples and type(P.field) is TruncatedFunctionRing
            if base.pi != (base.field.zero, base.field.one):
                assert P.field.modulus == ffpoly.pow_(base.field, base.pi, m)
    P = B3.polys(5, 81, 1)
    assert type(P) is _QuotientTuples and type(P.field) is IntegersModPrimePow and P.field.modulus == 3**5
    # at pi = t the element ring keeps a product's terms below t^m
    ring, rng = _b4(), random.Random(9)
    for m in (1, 3, 8):
        T = TruncatedFunctionRing(ring, m)
        for _ in range(20):
            a, b = rand_t_elem(rng, ring, 6), rand_t_elem(rng, ring, 6)
            ab = ffpoly.mul(ring.field, a, b)
            assert T.mul(a, b) == ffpoly.trim(ring.field, ab[:m]) == T.mod(ab)
    # the tuples unpack to the element rings' representatives, which are elements of R
    P = B3.polys(4, 81, 2)
    assert P.unpack(P.pack((80, 83))) == (80, 2)
    ring = ValuedBase.function_field(3, 1, (1, 0, 1))  # pi = t^2 + 1
    a, P = (1, 2, 0, 0, 0, 0, 1), ring.polys(3, 9, 1)
    assert P.unpack(P.pack((a,))) == (TruncatedFunctionRing(ring, 3).mod(a),)
    assert TruncatedFunctionRing(BT3, 70).mod((1, 2)) == (1, 2)
    # built once per ring, precision, top and length
    assert BT3.polys(5, 5, 1) is BT3.polys(5, 5, 1)
    assert B3.polys(5, 5, 1) is B3.polys(5, 5, 1)
    assert BT3.polys(2, 4, 3) is BT3.polys(2, 4, 3)


# whole polynomials packed over F_p[t]/t^m against ffpoly over the tuple ring, at every p, m and top
SERIES_BASES = [BT2, BT3, BT5, ValuedBase.function_field(7, 1, (0, 1)), ValuedBase.function_field(101, 1, (0, 1))]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_polynomials_agree_with_ffpoly(data):
    base = data.draw(st.sampled_from(SERIES_BASES))
    ring, p = base, base.p
    length = data.draw(st.integers(1, 12))
    top = data.draw(st.integers(1, 70))  # past the byte bound of length top (p - 1)^2 + p - 1 < 256
    m = data.draw(st.integers(1, top))
    R, T = ring.polys(m, top, length), TruncatedFunctionRing(ring, m)
    assert isinstance(R, ffpoly._PackedSeries)
    Tp = _QuotientTuples(T)

    def poly(min_len, max_len):
        def element():
            return ffpoly.trim(ring.field, data.draw(st.lists(st.integers(0, p - 1), max_size=top + 2)))

        return ffpoly.trim(ring, [element() for _ in range(data.draw(st.integers(min_len, max_len)))])

    def back(x):
        # every result is the canonical representative: equal values are equal ints
        y = R.unpack(x)
        assert R.pack(y) == x
        return y

    a, b = poly(0, length), poly(0, length)
    h = poly(0, length - 1) + (ring.one,)
    ra, rb, rh = R.pack(a), R.pack(b), R.pack(h)
    ta, tb, th = Tp.pack(a), Tp.pack(b), Tp.pack(h)
    assert back(ra) == ta and back(R.one) == (ring.one,)
    assert back(R.add(ra, rb)) == ffpoly.add(T, ta, tb)
    assert back(R.sub(ra, rb)) == ffpoly.sub(T, ta, tb)
    ab = R.mul(ra, rb)
    assert back(ab) == ffpoly.mul(T, ta, tb)
    for dividend in (ra, ab):  # ab has up to 2 length - 1 coefficients
        q, r = R.divmod(dividend, rh)
        assert (back(q), back(r)) == ffpoly.divmod_(T, back(dividend), th)
    # a polynomial at the top precision maps to every lower one of its lift
    H = ring.polys(top, top, length)
    assert back(R.pack(H.pack(a))) == ta


def test_packed_series_selection():
    # every pi = t over a prime field packs, at every precision, top and length
    for base in SERIES_BASES + [ValuedBase.function_field(65537, 1, (0, 1))]:
        for m, top, length in ((1, 1, 1), (2, 2, 13), (1, 128, 5), (255, 255, 3), (64, 300, 13)):
            assert isinstance(base.polys(m, top, length), ffpoly._PackedSeries)
    # an extension field at t, and any other place, does not
    for base in (_b4(), ValuedBase.function_field(3, 1, (1, 0, 1)), ValuedBase.function_field(2, 1, (1, 1))):
        for m, top, length in ((1, 1, 1), (2, 2, 3), (4, 8, 13)):
            assert type(base.polys(m, top, length)) is _QuotientTuples
    # built once per ring, precision, top and length
    assert BT3.polys(3, 9, 4) is BT3.polys(3, 9, 4)
    assert BT3.polys(3, 9, 4) is not BT3.polys(3, 9, 5)
    assert BT3.polys(3, 9, 4) is not BT3.polys(3, 10, 4)
    b4 = _b4()
    assert b4.polys(2, 2, 3) is b4.polys(2, 2, 3)


def test_packed_series_refuses_the_ops_of_x_coefficient_slots():
    # a slot of F_p[t]/t^m packed in blocks is a t-coefficient: ops that read it as x's fail at once
    R = BT3.polys(2, 3, 4)
    a = R.pack(((1, 2), (0, 1), (1,)))
    for name in ("x", "deg", "lc", "scale", "derivative", "pth_root", "pow_mod"):
        assert getattr(R, name) is None
    for op in (R.monic, lambda v: R.gcd(v, R.one)):
        with pytest.raises(TypeError):
            op(a)
    for op in (R.divmod, R.rem):
        with pytest.raises(ZeroDivisionError):
            op(a, R.zero)


# whole polynomials packed over Z/p^m against ffpoly over the tuple ring
Q_PACK_PRIMES = [2, 3, 5, 7, 13, 65537, 2**61 - 1]


def _q_pack_top(p):
    """The largest top with p^top of at most 128 bits."""
    top = 1
    while (p ** (top + 1)).bit_length() <= 128:
        top += 1
    return top


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_integer_polynomials_agree_with_ffpoly(data):
    p = data.draw(st.sampled_from(Q_PACK_PRIMES))
    ring = IntegerRing(p)
    length = data.draw(st.integers(1, 13))
    bound = _q_pack_top(p)
    top = data.draw(st.integers(max(1, bound - 3), bound + 2))  # both sides of the bound
    m = data.draw(st.integers(1, top))
    R, T = ring.polys(m, top, length), IntegersModPrimePow(p**m)
    assert isinstance(R, ffpoly._Packed) == (top <= bound)
    Tp = _QuotientTuples(T)

    def poly(min_len, max_len):
        size = p ** (top + 1)
        coeffs = [data.draw(st.integers(-size, size)) for _ in range(data.draw(st.integers(min_len, max_len)))]
        return ffpoly.trim(ring, coeffs)

    def back(x):
        # every result is the canonical representative: equal values are equal ints
        y = R.unpack(x)
        assert R.pack(y) == x
        return y

    a, b = poly(0, length), poly(0, length)
    h = poly(0, length - 1) + (1,)
    ra, rb, rh = R.pack(a), R.pack(b), R.pack(h)
    ta, tb, th = Tp.pack(a), Tp.pack(b), Tp.pack(h)
    assert back(ra) == ta and back(R.one) == (1,)
    assert back(R.add(ra, rb)) == ffpoly.add(T, ta, tb)
    assert back(R.sub(ra, rb)) == ffpoly.sub(T, ta, tb)
    ab = R.mul(ra, rb)
    assert back(ab) == ffpoly.mul(T, ta, tb)
    for dividend in (ra, ab):  # ab has up to 2 length - 1 coefficients
        q, r = R.divmod(dividend, rh)
        assert (back(q), back(r)) == ffpoly.divmod_(T, back(dividend), th)
    # a polynomial at the top precision maps to every lower one of its lift
    H = ring.polys(top, top, length)
    assert back(R.pack(H.pack(a))) == ta


def test_packed_integer_polynomials_fall_back_at_the_bound():
    for p, bound in ((2, 127), (3, 80)):
        ring = IntegerRing(p)
        assert (p**bound).bit_length() <= 128 < (p ** (bound + 1)).bit_length()
        assert isinstance(ring.polys(bound, bound, 5), ffpoly._Packed)
        assert type(ring.polys(bound + 1, bound + 1, 5).field) is IntegersModPrimePow
        # the choice follows top, not m
        assert isinstance(ring.polys(1, bound, 5), ffpoly._Packed)
        assert type(ring.polys(1, bound + 1, 5).field) is IntegersModPrimePow
        # an element is a polynomial of length 1, over the element ring past the bound
        assert type(ring.polys(2, bound + 1, 1).field) is IntegersModPrimePow
        # built once per precision, top and length
        assert ring.polys(3, 9, 4) is ring.polys(3, 9, 4)
        assert ring.polys(3, 9, 4) is not ring.polys(3, 9, 5)


def test_describe():
    assert B2.describe() == "Q at p = 2"
    assert BT2.describe() == "F_2(t) at pi = t"
    assert _b9().describe() == "F_9(t) at pi = t"
    # a genuinely irreducible quadratic place over F_2: t^2 + t + 1
    Bq = ValuedBase.function_field(2, 1, (1, 1, 1))
    assert Bq.describe() == "F_2(t) at pi = t^2 + t + 1"

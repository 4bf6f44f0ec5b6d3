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
            parts = ffpoly.squarefree_decomposition(ffpoly._Tuples(field), f)
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


def monic_of_degree(draw, field, d):
    return tuple(draw(st.lists(st.integers(0, field.q - 1).map(field.element), min_size=d, max_size=d))) + (
        field.one,
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_factor_matches_exhaustive_oracle_property(data):
    """Random f of degree 1 to top, and g^e h with e = 2 or p: squares and p-th powers."""
    field, top = data.draw(st.sampled_from(FACTOR_FIELDS))
    if data.draw(st.booleans()):
        f = monic_of_degree(data.draw, field, data.draw(st.integers(1, top)))
    else:
        e = data.draw(st.sampled_from([2, field.p]))
        dg = data.draw(st.integers(1, max(1, top // e)))
        g = monic_of_degree(data.draw, field, dg)
        h = monic_of_degree(data.draw, field, data.draw(st.integers(0, max(0, top - e * dg))))
        f = ffpoly.mul(field, ffpoly.pow_(field, g, e), h)
    assert Counter(dict(ffpoly.factor_monic(field, f, seed=data.draw(st.integers(0, 99))))) == (
        factor_exhaustive(field, f)
    )


def factor_by_tuple_stages(field, f, seed):
    """The stages composed directly on tuples: the reference for the packed path."""
    rng = random.Random(seed)
    T = ffpoly._Tuples(field)
    out = []
    for part, m in ffpoly.squarefree_decomposition(T, f):
        for prod, d in ffpoly.distinct_degree_split(T, part):
            out += [(irr, m) for irr in ffpoly.equal_degree_split(T, prod, d, rng)]
    return tuple(sorted(out, key=lambda fm: ffpoly.sort_key(field, fm[0])))


def multiply_back(field, factors):
    prod = (field.one,)
    for g, m in factors:
        prod = ffpoly.mul(field, prod, ffpoly.pow_(field, g, m))
    return prod


LARGE_PRIMES = [65537, 2**61 - 1, 2**127 - 1]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_packed_factorization_matches_tuple_stages_at_large_primes(data):
    field = PrimeField(data.draw(st.sampled_from(LARGE_PRIMES)))
    f = (field.one,)
    for _ in range(data.draw(st.integers(1, 3))):
        g = monic_of_degree(data.draw, field, data.draw(st.integers(1, 3)))
        f = ffpoly.mul(field, f, ffpoly.pow_(field, g, data.draw(st.integers(1, 2))))
    seed = data.draw(st.integers(0, 99))
    got = ffpoly.factor_monic(field, f, seed=seed)
    assert got == factor_by_tuple_stages(field, f, seed)
    assert multiply_back(field, got) == f


def test_packed_factorization_of_degree_64_at_the_largest_prime():
    # 62 distinct linear factors times x^2 + 1, irreducible as p = 3 mod 4: the first
    # Frobenius power multiplies residues of degree 63 with coefficients up to p - 1
    field = PrimeField(2**127 - 1)
    rng = random.Random(64)
    roots = {rng.randrange(field.p) for _ in range(62)}
    want = [((field.neg(c), 1), 1) for c in roots] + [((1, 0, 1), 1)]
    f = multiply_back(field, want)
    assert ffpoly.deg(f) == 64
    got = ffpoly.factor_monic(field, f, seed=0)
    assert got == tuple(sorted(want, key=lambda fm: ffpoly.sort_key(field, fm[0])))
    assert multiply_back(field, got) == f


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
    with patch.object(ffpoly, "_Packed", side_effect=AssertionError("packed path taken")):
        assert ffpoly.pow_mod(field, a, n, m) == pow_mod_oracle(field, a, n, m)


@pytest.mark.parametrize("p", POW_MOD_PRIMES + [65537])
def test_packed_reduction_covers_every_slot_below_its_bound(p):
    """One pass reduces 2 n slots holding any value below 2^b, b = bits(2 n p^2)."""
    rng = random.Random(p)
    for n in (1, 8, 64):
        P = ffpoly._Packed(PrimeField(p), n)
        b, s = P._shift - p.bit_length(), P._width
        assert 2 * n * p * p < 1 << b  # the bound that every slot stays below
        for values in ([(1 << b) - 1] * 2 * n, [rng.randrange(1 << b) for _ in range(2 * n)]):
            x = sum(v << i * s for i, v in enumerate(values))
            assert P.unpack(P._reduce(x)) == ffpoly.trim(P.field, [v % p for v in values])


def test_packed_product_and_division_at_the_slot_bound():
    # u v = -1 mod p with u and v close to p: slot 63 of the product is near 64 p^2, every
    # quotient digit of the division by x^64 + 1 is near p, and each adds about p^2 to it
    field = PrimeField(2**127 - 1)
    p = field.p
    u, v = p - 2 * (2**63 - 1), p - (2**63 + 1)
    assert u * v % p == p - 1
    a, b, m = (u,) * 64, (v,) * 64, (1,) + (0,) * 63 + (1,)
    P = ffpoly._Packed(field, 64)
    got = P.unpack(P.mulmod(P.pack(a), P.pack(b), P.pack(m)))
    assert got == ffpoly.rem(field, ffpoly.mul(field, a, b), m)


@st.composite
def gcd_cases(draw):
    """(field, a, b) over F_p: a = c u and b = c v with a common factor c, or zero."""
    field = PrimeField(draw(st.sampled_from(POW_MOD_PRIMES)))
    elem = st.integers(0, field.q - 1).map(field.element)

    def poly(top):
        return ffpoly.trim(field, draw(st.lists(elem, max_size=top + 1)))

    c = poly(3) or (field.one,)
    return field, ffpoly.mul(field, c, poly(6)), ffpoly.mul(field, c, poly(6))


@settings(max_examples=300, deadline=None)
@given(gcd_cases())
def test_packed_gcd_and_egcd_match_tuples(case):
    field, a, b = case
    tuples = ffpoly._Tuples(field)
    g = ffpoly.gcd(field, a, b)
    assert g == tuples.gcd(a, b)
    d, s, t = ffpoly.egcd(field, a, b)
    assert (d, s, t) == tuples.egcd(a, b)
    assert d == g
    assert ffpoly.add(field, ffpoly.mul(field, s, a), ffpoly.mul(field, t, b)) == g
    if ffpoly.deg(a) > ffpoly.deg(g) and ffpoly.deg(b) > ffpoly.deg(g):
        assert ffpoly.deg(s) < ffpoly.deg(b) - ffpoly.deg(g)
        assert ffpoly.deg(t) < ffpoly.deg(a) - ffpoly.deg(g)


def test_extension_fields_never_pack():
    rng = random.Random(10)
    extensions = (extension_field(2, 2), extension_field(3, 2))  # built over F_p, on the packed path
    with patch.object(ffpoly, "_Packed", side_effect=AssertionError("packed path taken")):
        for field in extensions:
            for _ in range(20):
                f = rand_poly(field, rng, 5, monic=True)
                if ffpoly.deg(f) < 1:
                    continue
                g = rand_poly(field, rng, 4)
                assert multiply_back(field, ffpoly.factor_monic(field, f, seed=0)) == f
                ffpoly.is_irreducible(field, f)
                assert ffpoly.gcd(field, f, g) == ffpoly.egcd(field, f, g)[0]
                ffpoly.pow_mod(field, g, field.q, f)


def test_pow_mod_takes_the_packed_path_over_prime_fields():
    field = PrimeField(13)
    with patch.object(ffpoly._Packed, "mulmod", autospec=True, side_effect=ffpoly._Packed.mulmod) as packed:
        ffpoly.factor_monic(field, (1, 2, 3, 4, 5, 6, 0, 1), seed=0)
        assert ffpoly.is_irreducible(field, (2, 1, 1))
    assert packed.call_count > 0
    with pytest.raises(ZeroDivisionError):
        ffpoly.pow_mod(field, (1, 1), 3, ())


PROTOCOL_PRIMES = [2, 3, 101, 2**61 - 1]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tuples_and_packed_agree_over_prime_fields(data):
    """Every algorithm of ``_Polys`` on tuples against the same one on packed ints."""
    field = PrimeField(data.draw(st.sampled_from(PROTOCOL_PRIMES)))
    p, elem = field.p, st.integers(0, field.p - 1)
    g = monic_of_degree(data.draw, field, data.draw(st.integers(1, 3)))
    f = ffpoly.mul(field, ffpoly.pow_(field, g, data.draw(st.integers(1, 2))), monic_of_degree(
        data.draw, field, data.draw(st.integers(0, 3))))
    a = ffpoly.trim(field, data.draw(st.lists(elem, max_size=2 * len(f) + 2)))
    n = data.draw(st.sampled_from([0, 1, p, (p ** 2 - 1) // 2, data.draw(st.integers(0, 10**6))]))
    # a p-th power sum c_i x^(i p), and x times it, which is none
    root = ffpoly.trim(field, data.draw(st.lists(elem, max_size={2: 3, 3: 3, 101: 2}.get(p, 1))))
    power = tuple(sum(([0] * (p - 1) + [c] for c in root[1:]), list(root[:1])))
    T, P = ffpoly._Tuples(field), ffpoly._Packed(field, max(len(a), len(f), len(power) + 1))

    def agree(op, *args):
        want = getattr(T, op)(*args)
        assert P.unpack(getattr(P, op)(*(P.pack(u) if isinstance(u, tuple) else u for u in args))) == want
        return want

    assert agree("pow_mod", a, n, f) == pow_mod_oracle(field, a, n, f)
    assert agree("rem", a, f) == ffpoly.rem(field, a, f)
    assert agree("mulmod", a, a, f) == ffpoly.rem(field, ffpoly.mul(field, a, a), f)
    assert agree("pth_root", power) == root
    if root:
        with pytest.raises(ArithmeticError):
            T.pth_root((0,) + power)
        with pytest.raises(ArithmeticError):
            P.pth_root(P.pack((0,) + power))
    seed = data.draw(st.integers(0, 99))
    stages = []
    for Q in (T, P):
        rng, out = random.Random(seed), []
        for part, m in ffpoly.squarefree_decomposition(Q, Q.pack(f)):
            for prod, d in ffpoly.distinct_degree_split(Q, part):
                out += [(Q.unpack(u), d, m) for u in ffpoly.equal_degree_split(Q, prod, d, rng)]
        stages.append(out)
    assert stages[0] == stages[1]
    assert Counter({u: m for u, _, m in stages[0]}) == Counter(dict(ffpoly.factor_monic(field, f)))


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
    for field in (PrimeField(2), PrimeField(3), extension_field(2, 2)):
        for d in (1, 2, 3, 4, 5):
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
    ValuedBase.rational(2),
    ValuedBase.function_field(3, 2, (F9.zero, F9.one)),
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

import random

import pytest

from maxorder import ffpoly
from maxorder.errors import InputError
from maxorder.residue import check_lift, residue_factorization
from maxorder.rings import ValuedBase, lift_residue_poly, reduce_mod

B2 = ValuedBase.rational(2)
B5 = ValuedBase.rational(5)
B11 = ValuedBase.rational(11)
BT2 = ValuedBase.function_field(2, 1, (0, 1))


def test_canonical_factor_order_frozen():
    rf = residue_factorization((-5, 0, 1), B11)
    assert [f for f, _ in rf.factors] == [(4, 1), (7, 1)]
    assert [l for _, l in rf.factors] == [1, 1]
    assert rf.lifts == ((4, 1), (7, 1))


def test_multiplicity_bookkeeping():
    # x^4 + x^3 + x^2 + x + 1 = (x+4)^4 mod 5
    rf = residue_factorization((1, 1, 1, 1, 1), B5)
    assert rf.factors == (((4, 1), 4),)
    assert rf.repeated_indices == (0,)
    rf2 = residue_factorization((-5, 0, 1), B11)
    assert rf2.repeated_indices == ()


def test_lifts_reduce_back():
    rng = random.Random(20)
    for base in (B2, B5, BT2):
        for _ in range(40):
            d = rng.randint(1, 6)
            if base.kind == "Q":
                f = tuple(rng.randint(-30, 30) for _ in range(d)) + (1,)
            else:
                ring = base
                field = ring.field
                f = tuple(
                    ffpoly.trim(field, [field.element(rng.randrange(field.q)) for _ in range(3)])
                    for _ in range(d)
                ) + (ring.one,)
            rf = residue_factorization(f, base)
            kf = base.residue_field
            acc = (kf.one,)
            for (fac, l), lift in zip(rf.factors, rf.lifts):
                assert reduce_mod(lift, base) == fac
                assert lift[-1] == base.one
                assert len(lift) == len(fac)
                acc = ffpoly.mul(kf, acc, _pow(kf, fac, l))
            assert acc == reduce_mod(f, base)


def _pow(field, a, n):
    out = (field.one,)
    for _ in range(n):
        out = ffpoly.mul(field, out, a)
    return out


def test_factor_residue_rejects_nonmonic():
    with pytest.raises(InputError):
        residue_factorization((1, 0, 2), B5)
    with pytest.raises(InputError):
        residue_factorization((1, 0, 5), B5)  # lc vanishes mod 5


def test_check_lift_validation():
    rf = residue_factorization((-5, 0, 1), B11)
    good = rf.lifts
    check_lift(good[0], rf.factors[0][0], B11)
    with pytest.raises(InputError):
        check_lift((4, 2), rf.factors[0][0], B11)  # not monic
    with pytest.raises(InputError):
        check_lift((4, 0, 1), rf.factors[0][0], B11)  # wrong degree
    with pytest.raises(InputError):
        check_lift((5, 1), rf.factors[0][0], B11)  # reduces to x + 5, not x + 4


def test_custom_lifts_accepted():
    rf0 = residue_factorization((-5, 0, 1), B11)
    shifted = tuple(
        tuple(c + 11 if i < len(lift) - 1 else c for i, c in enumerate(lift))
        for lift in rf0.lifts
    )
    rf = residue_factorization((-5, 0, 1), B11, lifts=shifted)
    assert rf.lifts == ((15, 1), (18, 1))
    assert rf.factors == rf0.factors


def test_monic_lift_frozen():
    assert lift_residue_poly((4, 1), B11) == (4, 1)
    # x + t reduces to x at pi = t; the canonical lift is x itself
    assert lift_residue_poly(reduce_mod(((0, 1), (1,)), BT2), BT2) == ((), (1,))


def test_seed_independence():
    f = (1, 1, 1, 1, 1, 1, 1)  # x^6 + ... + 1 mod 2 has repeated structure
    a = residue_factorization(f, B2, seed=0)
    b = residue_factorization(f, B2, seed=987654321)
    assert a.factors == b.factors
    assert a.lifts == b.lifts

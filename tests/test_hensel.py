import random
from fractions import Fraction

import pytest

from maxorder import ffpoly
from maxorder.criterion import dedekind_verdict
from maxorder.errors import (
    InputError,
    PrecisionExhaustedError,
    VerdictFalseError,
)
from maxorder.hensel import (
    PRECISION_CAP,
    auto_precision,
    cross_resultant_check,
    hensel_lift,
    lift_root_valuation,
    verify_valuation_identities,
)
from maxorder.residue import residue_factorization
from maxorder.rings import ValuedBase, reduce_mod

B2 = ValuedBase.rational(2)
B3 = ValuedBase.rational(3)
B5 = ValuedBase.rational(5)
B11 = ValuedBase.rational(11)
BT2 = ValuedBase.function_field(2, 1, (0, 1))
BT3 = ValuedBase.function_field(3, 1, (0, 1))


def _mod_poly(P, base, k):
    ring = base.ring
    return tuple(ring.mod_prime_pow(c, k) for c in P)


def test_lift_frozen_mod_121():
    f = (-5, 0, 1)
    rf = residue_factorization(f, B11)
    lifted = hensel_lift(f, rf, B11, 2)
    assert not lifted.single
    assert lifted.factors == ((48, 1), (73, 1))


def test_lift_precision_one_is_the_reduction():
    f = (-5, 0, 1)
    rf = residue_factorization(f, B11)
    lifted = hensel_lift(f, rf, B11, 1)
    assert lifted.factors == ((4, 1), (7, 1))


def test_single_branch_no_lifting():
    f = (-3, 0, 1)
    rf = residue_factorization(f, B2)
    lifted = hensel_lift(f, rf, B2, 4)
    assert lifted.single
    assert lifted.factors == ((13, 0, 1),)  # -3 mod 16


def test_lift_product_property_rational():
    rng = random.Random(40)
    for p, base in ((5, B5), (3, B3)):
        ring = base.ring
        for _ in range(60):
            d = rng.randint(2, 7)
            f = tuple(rng.randint(-40, 40) for _ in range(d)) + (1,)
            rf = residue_factorization(f, base)
            k = rng.randint(1, 6)
            lifted = hensel_lift(f, rf, base, k)
            prod = (1,)
            for F in lifted.factors:
                prod = ffpoly.mul(ring, prod, F)
            assert not any(_mod_poly(ffpoly.sub(ring, prod, f), base, k))
            assert len(lifted.factors) == len(rf.factors)
            for F, (phibar, l) in zip(lifted.factors, rf.factors):
                assert F[-1] == 1  # monic
                assert len(F) == l * (len(phibar) - 1) + 1
                assert reduce_mod(F, base) == ffpoly.pow_(base.residue_field, phibar, l)


def test_lift_product_property_function_field():
    rng = random.Random(41)
    base = BT3
    ring = base.ring
    field = ring.field
    for _ in range(40):
        d = rng.randint(2, 5)
        f = tuple(
            ffpoly.trim(field, [field.element(rng.randrange(3)) for _ in range(3)])
            for _ in range(d)
        ) + (ring.one,)
        rf = residue_factorization(f, base)
        k = rng.randint(1, 4)
        lifted = hensel_lift(f, rf, base, k)
        prod = (ring.one,)
        for F in lifted.factors:
            prod = ffpoly.mul(ring, prod, F)
        assert not any(_mod_poly(ffpoly.sub(ring, prod, f), base, k))


def test_cross_resultant_check():
    f = (-5, 0, 1)
    rf = residue_factorization(f, B11)
    for k in (1, 2, 5):
        assert cross_resultant_check(hensel_lift(f, rf, B11, k), B11)


def test_lift_root_valuation_requires_repeated_factor():
    f = (-5, 0, 1)
    rf = residue_factorization(f, B11)
    lifted = hensel_lift(f, rf, B11, 2)
    with pytest.raises(InputError):
        lift_root_valuation(lifted, 0, B11)


def test_lift_root_valuation_exactness():
    f = (-3, 0, 1)
    rf = residue_factorization(f, B2)
    est = lift_root_valuation(hensel_lift(f, rf, B2, 3), 0, B2)
    assert est.exact
    assert est.resultant_valuation == 1
    assert est.value == Fraction(1, 2)
    # representative resultant valuation at or above the precision: not exact
    f2 = (1, 4, 3, 2, 1)
    rf2 = residue_factorization(f2, B2)
    est2 = lift_root_valuation(hensel_lift(f2, rf2, B2, 2), 0, B2)
    assert not est2.exact
    est3 = lift_root_valuation(hensel_lift(f2, rf2, B2, 3), 0, B2)
    assert est3.exact and est3.resultant_valuation == 2


def test_auto_precision_frozen():
    assert auto_precision((-3, 0, 1), B2) == 3
    assert auto_precision((-5, 0, 1), B11) == 2
    assert auto_precision(((0, 1), (), (1,)), BT2) == 2
    assert auto_precision((1, 4, 3, 2, 1), B2) == 5


def test_auto_precision_rejects_repeated_factors():
    from maxorder.errors import ReduciblePolynomialError

    with pytest.raises(ReduciblePolynomialError):
        auto_precision((1, 2, 1), B3)


def test_auto_precision_mixed_inseparable_factor():
    # (x^2 + t)(x + 1) over F_2(t): zero discriminant from an inseparable
    # factor, no repeated factor, descent cannot fire; fall back to 2
    f = ((0, 1), (0, 1), (1,), (1,))
    assert auto_precision(f, BT2) == 2
    r = verify_valuation_identities(f, BT2, assume_irreducible=True)
    assert r.passed
    (entry,) = r.entries
    assert entry.degree == 1 and entry.resultant_valuation == 1


def test_verify_omega_frozen():
    cases = [
        ((-3, 0, 1), B2, Fraction(1, 2)),
        ((-2, 0, 0, 1), B3, Fraction(1, 3)),
        ((1, 1, 1, 1, 1), B5, Fraction(1, 4)),
        (((0, 1), (), (1,)), BT2, Fraction(1, 2)),
    ]
    for f, base, omega in cases:
        r = verify_valuation_identities(f, base)
        assert r.passed
        (entry,) = r.entries
        assert entry.omega == omega
        assert entry.lhs == Fraction(1)
        assert entry.rhs == 1
        assert entry.resultant_valuation == entry.degree


def test_verify_vacuous_when_multiplicity_one():
    r = verify_valuation_identities((-5, 0, 1), B11)
    assert r.passed
    assert r.entries == ()
    assert r.precision == 0


def test_verify_refuses_false_verdict():
    with pytest.raises(VerdictFalseError):
        verify_valuation_identities((-5, 0, 1), B2)


def test_verify_pinned_precision_exhausts():
    f = (1, 4, 3, 2, 1)  # remainder test passes, nu(Res) = 2
    with pytest.raises(PrecisionExhaustedError):
        verify_valuation_identities(f, B2, precision=2, assume_irreducible=True)
    r = verify_valuation_identities(f, B2, assume_irreducible=True)
    assert r.passed and r.precision == 5
    (entry,) = r.entries
    assert entry.resultant_valuation == 2
    assert entry.omega == Fraction(1, 2)


def test_verify_pinned_precision_must_be_at_least_two():
    with pytest.raises(InputError):
        verify_valuation_identities((-3, 0, 1), B2, precision=1)


def test_verify_lift_invariant():
    r0 = verify_valuation_identities((1, 1, 1, 1, 1), B5)
    r1 = verify_valuation_identities((1, 1, 1, 1, 1), B5, lifts=((9, 1),))
    assert r0.passed and r1.passed
    assert r0.entries[0].omega == r1.entries[0].omega
    assert r0.entries[0].resultant_valuation == r1.entries[0].resultant_valuation


def test_precision_cap_is_a_power_budget():
    assert PRECISION_CAP == 1024

import itertools
import random
from fractions import Fraction

from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maxorder import ffpoly, hensel
from maxorder.cli import main, parse_poly
from maxorder.criterion import dedekind_verdict
from maxorder.errors import (
    InputError,
    InternalInvariantError,
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
from maxorder.fields import extension_field
from maxorder.residue import residue_factorization
from maxorder.rings import (
    IntegersModPrimePow,
    TruncatedFunctionRing,
    ValuedBase,
    lift_residue_poly,
    reduce_mod,
)

from oracles import hensel_lift_oracle

B2 = ValuedBase.rational(2)
B3 = ValuedBase.rational(3)
B5 = ValuedBase.rational(5)
B11 = ValuedBase.rational(11)
BT2 = ValuedBase.function_field(2, 1, (0, 1))
BT3 = ValuedBase.function_field(3, 1, (0, 1))
BT3_QUAD = ValuedBase.function_field(3, 1, (1, 0, 1))  # F_3(t) at t^2 + 1
_F4 = extension_field(2, 2)
BT4 = ValuedBase.function_field(2, 2, (_F4.zero, _F4.one))


def _mod_poly(P, base, k):
    ring = IntegersModPrimePow(base.prime**k) if base.kind == "Q" else TruncatedFunctionRing(base.ring, k)
    return tuple(ring.mod(c) for c in P)


def test_lift_frozen_mod_121():
    f = (-5, 0, 1)
    rf = residue_factorization(f, B11)
    lifted = hensel_lift(f, rf, B11, 2)
    assert len(lifted.factors) == 2
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
    assert len(lifted.factors) == 1
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


def test_cross_check_rejects_tampered_branches():
    for f, base in (((-5, 0, 1), B11), (((0, 1), (1,), (1,)), BT2)):  # x^2 + x + t over F_2(t)
        rf = residue_factorization(f, base)
        lifted = hensel_lift(f, rf, base, 3)
        F0, F1 = lifted.factors
        unit = (base.ring.one,)  # not a multiple of the prime
        for factors in ((F1, F0), (ffpoly.add(base.ring, F0, unit), F1), (F0,)):
            with pytest.raises(InternalInvariantError):
                cross_resultant_check(lifted._replace(factors=factors), base)


def test_lift_root_valuation_requires_repeated_factor():
    f = (-5, 0, 1)
    rf = residue_factorization(f, B11)
    lifted = hensel_lift(f, rf, B11, 2)
    with pytest.raises(InputError):
        lift_root_valuation(lifted, 0, B11)


def test_lift_root_valuation_exactness():
    f = (-3, 0, 1)
    rf = residue_factorization(f, B2)
    assert lift_root_valuation(hensel_lift(f, rf, B2, 3), 0, B2) == 1
    # representative resultant valuation at or above the precision: not exact
    f2 = (1, 4, 3, 2, 1)
    rf2 = residue_factorization(f2, B2)
    assert lift_root_valuation(hensel_lift(f2, rf2, B2, 2), 0, B2) is None
    assert lift_root_valuation(hensel_lift(f2, rf2, B2, 3), 0, B2) == 2


def test_auto_precision_frozen():
    cases = [
        ((-3, 0, 1), B2, 2),
        (((0, 1), (), (1,)), BT2, 2),
        ((1, 4, 3, 2, 1), B2, 3),  # (x^2 + x + 1)^2 at 2
        ((2, 0, 1, 1, 0, 1), B2, 2),  # x^2 (x^3 + x + 1) + 2: only x is repeated
    ]
    for f, base, k in cases:
        assert auto_precision(residue_factorization(f, base)) == k


def test_auto_precision_mixed_inseparable_factor():
    # (x^2 + t)(x + 1) over F_2(t): zero discriminant from an inseparable
    # factor and no repeated factor; the degree rule needs no discriminant
    f = ((0, 1), (0, 1), (1,), (1,))
    assert auto_precision(residue_factorization(f, BT2)) == 2
    r = verify_valuation_identities(f, BT2, assume_irreducible=True)
    assert r.passed
    (entry,) = r.entries
    assert entry.degree == 1 and entry.resultant_valuation == 1


PROPERTY_BASES = [B2, B3, B5, BT2, BT3]


def _coefficient(draw, base):
    if base.kind == "Q":
        return draw(st.integers(-20, 20))
    field = base.ring.field
    digits = draw(st.lists(st.integers(0, field.q - 1), max_size=3))
    return ffpoly.trim(field, [field.element(i) for i in digits])


@st.composite
def _monic(draw, base, min_deg, max_deg):
    n = draw(st.integers(min_deg, max_deg))
    return tuple(_coefficient(draw, base) for _ in range(n)) + (base.ring.one,)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_repeated_factors_never_reach_verify(data):
    # g^2 | f makes every residue factor of g repeated with nu(f mod phi) >= 2
    base = data.draw(st.sampled_from(PROPERTY_BASES))
    g = data.draw(_monic(base, 1, 3))
    h = data.draw(_monic(base, 0, 3))
    ring = base.ring
    f = ffpoly.mul(ring, ffpoly.mul(ring, g, g), h)
    assert not dedekind_verdict(f, base, assume_irreducible=True).integrally_closed
    with pytest.raises(VerdictFalseError):
        verify_valuation_identities(f, base, assume_irreducible=True)


def _irreducibles(base, max_deg):
    field = base.residue_field
    elements = [field.element(i) for i in range(field.q)]
    return [
        tuple(low) + (field.one,)
        for d in range(1, max_deg + 1)
        for low in itertools.product(elements, repeat=d)
        if ffpoly.is_irreducible(field, tuple(low) + (field.one,))
    ]


AFFIRMATIVE_CASES = [(base, _irreducibles(base, 3)) for base in PROPERTY_BASES]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_auto_precision_certifies_in_one_round(data):
    # f = prod phi_j^l_j + pi*r, phibar_j not dividing rbar for each repeated j: affirmative
    base, irreducibles = data.draw(st.sampled_from(AFFIRMATIVE_CASES))
    ring, field = base.ring, base.residue_field
    bars = data.draw(st.lists(st.sampled_from(irreducibles), min_size=1, max_size=3, unique=True))
    ls = [data.draw(st.integers(2 if j == 0 else 1, 3)) for j in range(len(bars))]
    n = sum(l * ffpoly.deg(phibar) for phibar, l in zip(bars, ls))
    assume(n <= 12)
    r = tuple(_coefficient(data.draw, base) for _ in range(n))
    rbar = reduce_mod(r, base)
    assume(all(ffpoly.rem(field, rbar, phibar) for phibar, l in zip(bars, ls) if l >= 2))
    prod = (ring.one,)
    for phibar, l in zip(bars, ls):
        prod = ffpoly.mul(ring, prod, ffpoly.pow_(ring, lift_residue_poly(phibar, base), l))
    f = ffpoly.add(ring, prod, ffpoly.scale(ring, r, base.prime_element))
    lifts = []

    def counted(f, rf, base, k):
        lifts.append(k)
        return hensel_lift(f, rf, base, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hensel, "hensel_lift", counted)
        report = verify_valuation_identities(f, base, assume_irreducible=True)
    k = 1 + max(ffpoly.deg(phibar) for phibar, l in zip(bars, ls) if l >= 2)
    assert report.passed and report.precision == k
    assert lifts == [k]


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
    assert r.passed and r.precision == 3
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


def test_pinned_precision_is_capped():
    f = ((2, 0, 2), (), (1,))  # x^2 - (t^2 + 1): one branch, phi = x
    r = verify_valuation_identities(f, BT3_QUAD, precision=PRECISION_CAP, assume_irreducible=True)
    assert r.passed and r.precision == PRECISION_CAP
    with pytest.raises(InputError, match="at least 2 and at most 1024"):
        verify_valuation_identities(
            f, BT3_QUAD, precision=PRECISION_CAP + 1, assume_irreducible=True
        )


ORACLE_BASES = [B2, B3, B5, BT2, BT3, BT3_QUAD, BT4]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lift_matches_exact_ring_oracle(data):
    # computing in R/prime^m per round gives the exact-ring lift's factors, reduced
    base = data.draw(st.sampled_from(ORACLE_BASES))
    f = data.draw(_monic(base, 1, 8))
    k = data.draw(st.sampled_from([1, 2, 3, 5, 8]))
    rf = residue_factorization(f, base)
    lifted = hensel_lift(f, rf, base, k)
    assert lifted.factors == hensel_lift_oracle(f, rf, base, k)
    assert cross_resultant_check(lifted, base)


BT5 = ValuedBase.function_field(5, 1, (0, 1))


@pytest.mark.parametrize("k", [15, 16, 64])
def test_lift_matches_oracle_past_the_old_byte_bound(k):
    # k = 15 and 16 straddle 16 k = 256, past which a product of two F_5[t]/t^k elements
    # overflowed a byte; every precision packs now
    rng = random.Random(44)
    field = BT5.ring.field
    lifted_any = 0
    for _ in range(12):
        f = tuple(
            ffpoly.trim(field, [rng.randrange(5) for _ in range(rng.randint(0, 3))])
            for _ in range(rng.randint(2, 6))
        ) + (BT5.ring.one,)
        assert isinstance(BT5.ring.polys(k, k, len(f)), ffpoly._PackedSeries)
        rf = residue_factorization(f, BT5)
        lifted = hensel_lift(f, rf, BT5, k)
        assert lifted.factors == hensel_lift_oracle(f, rf, BT5, k)
        assert cross_resultant_check(lifted, BT5)
        lifted_any += len(rf.factors) > 1
    assert lifted_any >= 6


DEGREE_12 = "x^3*(x+1)^2*(x^2+1)^2*(x+2)^3 + t"  # over F_3(t) at t, four repeated branches


@pytest.mark.parametrize("k", [4, 8])
def test_degree_12_lift_matches_oracle_past_the_old_byte_bound(k):
    # whole polynomials of length 13 packed in bytes only while 13 k (3 - 1)^2 + 2 < 256
    ring = BT3.ring
    assert isinstance(ring.polys(k, k, 13), ffpoly._PackedSeries)
    product = parse_poly(DEGREE_12, BT3)
    rng = random.Random(45)
    for _ in range(6):
        r = [ffpoly.trim(ring.field, [rng.randrange(3) for _ in range(rng.randint(0, 3))]) for _ in range(12)]
        f = ffpoly.add(ring, product, tuple(ffpoly.mul(ring.field, (0, 1), c) for c in r))  # + t r
        rf = residue_factorization(f, BT3)
        lifted = hensel_lift(f, rf, BT3, k)
        assert len(lifted.factors) == 4
        assert lifted.factors == hensel_lift_oracle(f, rf, BT3, k)
        assert cross_resultant_check(lifted, BT3)


def test_pinned_precisions_agree_past_the_old_byte_bound(capsys):
    argv = ["verify", "--base", "Fq", "--p", "3", "--pi", "t", "--poly", DEGREE_12, "--assume-irreducible"]
    outputs = []
    for k in (4, 8):
        assert main(argv + ["--precision", str(k)]) == 0
        out = capsys.readouterr().out
        assert f"precision: {k}\n" in out
        outputs.append(out.replace(f"precision: {k}\n", ""))
    assert outputs[0] == outputs[1]
    assert outputs[0].count(": pass\n") == 4 and "verify: all identities hold\n" in outputs[0]


# verify --precision k stdout of the implementation that packed F_p[t]/t^m in bytes and lifted
# past that bound on tuples
PASS_HALF = "l = 2, deg phi = 1, nu(Res) = 1, omega = 1/2, l*omega = 1: pass"
PINNED = [
    (2, "x^3 + x^2 + t", 255, ["poly: x^3 + x^2 + t", "precision: 255", f"identity [0]: {PASS_HALF}"]),
    (
        3,
        DEGREE_12,
        32,
        [
            "poly: x^12 + 2*x^11 + x^8 + 2*x^7 + x^4 + 2*x^3 + t",
            "precision: 32",
            "identity [0]: l = 3, deg phi = 1, nu(Res) = 1, omega = 1/3, l*omega = 1: pass",
            f"identity [1]: {PASS_HALF}",
            "identity [2]: l = 3, deg phi = 1, nu(Res) = 1, omega = 1/3, l*omega = 1: pass",
            "identity [3]: l = 2, deg phi = 2, nu(Res) = 2, omega = 1/2, l*omega = 1: pass",
        ],
    ),
    (101, "(x+1)^2*(x+2) + t", 200, ["poly: x^3 + 4*x^2 + 5*x + t + 2", "precision: 200", f"identity [0]: {PASS_HALF}"]),
]


@pytest.mark.parametrize("p, poly, k, lines", PINNED, ids=["F2-k255", "F3-degree12-k32", "F101-k200"])
def test_pinned_lifts_past_the_old_byte_bound(p, poly, k, lines, capsys):
    base = ValuedBase.function_field(p, 1, (0, 1))
    f = parse_poly(poly, base)
    rf = residue_factorization(f, base)
    lifted = hensel_lift(f, rf, base, k)
    assert lifted.factors == hensel_lift_oracle(f, rf, base, k)
    argv = ["verify", "--base", "Fq", "--p", str(p), "--pi", "t", "--poly", poly, "--assume-irreducible"]
    assert main(argv + ["--precision", str(k)]) == 0
    stdout = [f"base: F_{p}(t) at pi = t"] + lines + ["verify: all identities hold", ""]
    assert capsys.readouterr().out == "\n".join(stdout)


def test_verify_at_the_precision_cap_over_f2(capsys):
    # two branches, x^2 and x + 1, lifted to t^1024
    argv = ["verify", "--base", "Fq", "--p", "2", "--pi", "t", "--poly", "x^3 + x^2 + t"]
    assert main(argv + ["--precision", "1024"]) == 0
    out = capsys.readouterr().out
    assert "precision: 1024\n" in out and "verify: all identities hold\n" in out


@pytest.mark.parametrize("k, packed", [(127, True), (128, False)])
def test_rational_lift_matches_oracle_on_both_sides_of_the_packing_bound(k, packed):
    # Z/2^k packs whole polynomials while 2^k has at most 128 bits
    rng = random.Random(46)
    lifted_any = 0
    for _ in range(12):
        f = tuple(rng.randint(-40, 40) for _ in range(rng.randint(2, 7))) + (1,)
        assert isinstance(B2.ring.polys(k, k, len(f)), ffpoly._Packed) == packed
        rf = residue_factorization(f, B2)
        lifted = hensel_lift(f, rf, B2, k)
        assert lifted.factors == hensel_lift_oracle(f, rf, B2, k)
        assert cross_resultant_check(lifted, B2)
        lifted_any += len(rf.factors) > 1
    assert lifted_any >= 6


@pytest.mark.parametrize(
    "prime, poly, want",
    [
        (
            "2",
            "(x^2+x+1)^4*(x+1)^3 + 2",
            "base: Q at p = 2\n"
            "poly: x^11 + 7*x^10 + 25*x^9 + 59*x^8 + 101*x^7 + 131*x^6 + 131*x^5 + 101*x^4"
            " + 59*x^3 + 25*x^2 + 7*x + 3\n"
            "precision: 1024\n"
            "identity [0]: l = 3, deg phi = 1, nu(Res) = 1, omega = 1/3, l*omega = 1: pass\n"
            "identity [1]: l = 4, deg phi = 2, nu(Res) = 2, omega = 1/4, l*omega = 1: pass\n"
            "verify: all identities hold\n",
        ),
        (
            "1000003",
            "(x+1)^2*(x+2) + 1000003",
            "base: Q at p = 1000003\n"
            "poly: x^3 + 4*x^2 + 5*x + 1000005\n"
            "precision: 1024\n"
            "identity [0]: l = 2, deg phi = 1, nu(Res) = 1, omega = 1/2, l*omega = 1: pass\n"
            "verify: all identities hold\n",
        ),
    ],
)
def test_verify_at_the_precision_cap_over_q(capsys, prime, poly, want):
    # past the packing bound the lift runs on tuples over Z/p^1024
    assert main(["verify", "--prime", prime, "--poly", poly, "--precision", "1024"]) == 0
    assert capsys.readouterr().out == want


def test_rational_verify_takes_the_packed_path():
    # no element product of Z/p^m: every lift and the classical check run on packed ints
    cases = [((-3, 0, 1), B2), ((-2, 0, 0, 1), B3), ((1, 1, 1, 1, 1), B5), (parse_poly("(x^2+x+1)^4*(x+1)^3 + 2", B2), B2)]
    with patch.object(IntegersModPrimePow, "mul", side_effect=AssertionError("tuple path taken")):
        for f, base in cases:
            report = verify_valuation_identities(f, base, assume_irreducible=True)
            assert report.passed and report.entries

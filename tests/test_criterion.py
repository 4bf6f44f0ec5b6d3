import math
import random

import pytest

from maxorder.criterion import (
    classical_check,
    count_extensions,
    dedekind_verdict,
    frobenius_descent,
    require_no_reducibility_witness,
    split_prime,
)
from maxorder.errors import (
    DegreeError,
    InputError,
    NonMonicError,
    ReduciblePolynomialError,
    VerdictFalseError,
)
from maxorder.residue import residue_factorization
from maxorder.rings import ValuedBase

B2 = ValuedBase.rational(2)
B3 = ValuedBase.rational(3)
B5 = ValuedBase.rational(5)
B11 = ValuedBase.rational(11)
BT2 = ValuedBase.function_field(2, 1, (0, 1))
BT3 = ValuedBase.function_field(3, 1, (0, 1))

T = (0, 1)
T2 = (0, 0, 1)
T3 = (0, 0, 0, 1)


def test_sqrt5_at_2_not_closed():
    v = dedekind_verdict((-5, 0, 1), B2)
    assert not v.integrally_closed
    (w,) = v.witnesses
    assert w.index == 0
    assert w.phi == (1, 1)
    assert w.multiplicity == 2
    assert w.remainder == (-4,)
    assert w.valuation == 2


def test_sqrt5_at_2_classical_cofactor_frozen():
    rf = residue_factorization((-5, 0, 1), B2)
    c = classical_check((-5, 0, 1), B2, rf)
    assert not c.integrally_closed
    assert c.cofactor == (3, 1)  # (g* h* - f) / 2 = x + 3


def test_sqrt3_at_2_closed():
    v = dedekind_verdict((-3, 0, 1), B2)
    assert v.integrally_closed
    (w,) = v.witnesses
    assert w.remainder == (-2,)
    assert w.valuation == 1


def test_cbrt2_at_3_closed():
    v = dedekind_verdict((-2, 0, 0, 1), B3)
    assert v.integrally_closed
    (w,) = v.witnesses
    assert w.phi == (1, 1)
    assert w.multiplicity == 3
    assert w.valuation == 1


def test_cyclotomic_at_5_closed():
    v = dedekind_verdict((1, 1, 1, 1, 1), B5)
    assert v.integrally_closed
    (w,) = v.witnesses
    assert w.phi == (4, 1)
    assert w.multiplicity == 4
    assert w.remainder == (205,)
    assert w.valuation == 1


def test_sqrt_t_char_2_closed():
    v = dedekind_verdict(((0, 1), (), (1,)), BT2)
    assert v.integrally_closed
    (w,) = v.witnesses
    assert w.multiplicity == 2
    assert w.remainder == ((0, 1),)
    assert w.valuation == 1


def test_t_cubed_char_2_not_closed():
    f = ((0, 0, 0, 1), (), (1,))  # x^2 + t^3 = x^2 - t^3 in char 2
    v = dedekind_verdict(f, BT2, assume_irreducible=True)
    assert not v.integrally_closed
    (w,) = v.witnesses
    assert w.valuation == 3


def test_multiplicity_one_is_always_closed():
    v = dedekind_verdict((-5, 0, 1), B11)
    assert v.integrally_closed
    assert v.witnesses == ()
    assert v.repeated_indices == ()


def test_split_two_ideals():
    s = split_prime((-5, 0, 1), B11)
    assert len(s.ideals) == 2
    assert [(i.lift, i.e, i.f) for i in s.ideals] == [
        ((4, 1), 1, 1),
        ((7, 1), 1, 1),
    ]


def test_split_totally_ramified():
    s = split_prime((-3, 0, 1), B2)
    (ideal,) = s.ideals
    assert (ideal.lift, ideal.e, ideal.f) == ((1, 1), 2, 1)
    s5 = split_prime((1, 1, 1, 1, 1), B5)
    (i5,) = s5.ideals
    assert (i5.lift, i5.e, i5.f) == ((4, 1), 4, 1)
    s8 = split_prime((-2, 0, 0, 0, 0, 1), B2)  # x^5 - 2 at p = 2
    (i8,) = s8.ideals
    assert (i8.lift, i8.e, i8.f) == ((0, 1), 5, 1)


def test_split_inert_residue_degree():
    # x^2 + x + 1 is irreducible mod 2: one ideal, e = 1, f = 2
    s = split_prime((1, 1, 1), B2)
    (ideal,) = s.ideals
    assert (ideal.e, ideal.f) == (1, 2)


def test_split_refuses_false_verdict():
    with pytest.raises(VerdictFalseError):
        split_prime((-5, 0, 1), B2)


def test_count_known_split_case():
    c = count_extensions((-5, 0, 1), B11)
    assert (c.status, c.t, c.descent_depth) == ("known", 2, 0)
    assert [b.rule for b in c.branches] == ["multiplicity-one", "multiplicity-one"]
    assert all(b.certified for b in c.branches)


def test_count_known_ramified_case():
    c = count_extensions(((0, 1), (), (1,)), BT2)
    assert (c.status, c.t, c.descent_depth) == ("known", 1, 0)
    (b,) = c.branches
    assert b.rule == "remainder-valuation-one"
    assert b.remainder_valuation == 1


def test_count_unknown_without_descent():
    c = count_extensions((-5, 0, 1), B2)
    assert (c.status, c.t, c.descent_depth) == ("unknown", None, 0)
    (b,) = c.branches
    assert (b.rule, b.certified, b.remainder_valuation) == ("none", False, 2)


def test_count_recovers_through_descent():
    # x^2 - t^3 fails the remainder test but equals g(x^2), g = x - t^3
    f = ((0, 0, 0, 1), (), (1,))
    c = count_extensions(f, BT2, assume_irreducible=True)
    assert (c.status, c.t, c.descent_depth) == ("known", 1, 1)


def test_frobenius_descent():
    assert frobenius_descent((-5, 0, 1), B2).depth == 0
    f = ((1,), (), (1,), (), (1,))  # x^4 + x^2 + 1 over F_2(t)
    d = frobenius_descent(f, BT2)
    assert d.depth == 1
    assert d.inner == ((1,), (1,), (1,))
    d2 = frobenius_descent(((0, 1), (), (), (), (1,)), BT2)
    assert d2.depth == 2  # x^4 - t = g(x^(2^2)), g = x - t
    assert d2.inner == ((0, 1), (1,))


def test_reducible_constant_term_zero():
    with pytest.raises(ReduciblePolynomialError, match="constant term is zero"):
        dedekind_verdict((0, -2, 1), B3)


def test_reducible_pth_power():
    f = (T2, (), (1,))  # x^2 + t^2 = (x + t)^2 in char 2
    with pytest.raises(ReduciblePolynomialError, match="p-th power"):
        dedekind_verdict(f, BT2)


def test_reducible_zero_discriminant():
    with pytest.raises(ReduciblePolynomialError, match="repeated factor"):
        dedekind_verdict((1, -2, 1), B3)  # (x - 1)^2


def test_reducible_inner_descent_discriminant():
    # f = g(x^3) with g = (x - t)^2; f is not itself a p-th power
    g2 = (T2, tuple((-1 * a) % 3 for a in (0, 2)), (1,))  # x^2 - 2 t x + t^2
    f = (g2[0], (), (), g2[1], (), (), (1,))
    with pytest.raises(ReduciblePolynomialError, match="inseparability descent"):
        dedekind_verdict(f, BT3)


def test_reducible_rational_root():
    with pytest.raises(ReduciblePolynomialError, match="is a root"):
        dedekind_verdict((-4, 0, 1), B3)


def test_reducible_polynomial_root_over_fqt():
    f = (tuple((-a) % 3 for a in T2), (), (1,))  # x^2 - t^2 over F_3(t)
    with pytest.raises(ReduciblePolynomialError, match="is a root"):
        dedekind_verdict(f, BT3)


def test_assume_irreducible_skips_screen():
    v = dedekind_verdict((-4, 0, 1), B3, assume_irreducible=True)
    assert v.integrally_closed  # multiplicity one mod 3, screen skipped


def test_input_validation():
    with pytest.raises(NonMonicError):
        dedekind_verdict((1, 0, 2), B3)
    with pytest.raises(DegreeError):
        dedekind_verdict((7,), B3)
    assert issubclass(NonMonicError, InputError)
    assert issubclass(DegreeError, InputError)


def test_lift_invariance_explicit():
    base_v = dedekind_verdict((1, 1, 1, 1, 1), B5)
    rf0 = residue_factorization((1, 1, 1, 1, 1), B5)
    shifted = ((9, 1),)  # x + 9 also reduces to x + 4 mod 5
    v = dedekind_verdict((1, 1, 1, 1, 1), B5, lifts=shifted)
    assert v.integrally_closed == base_v.integrally_closed
    (w,) = v.witnesses
    assert w.phi == (9, 1)
    assert w.remainder == (5905,)  # different remainder ...
    assert w.valuation == 1  # ... same valuation
    v2 = dedekind_verdict((-5, 0, 1), B2, assume_irreducible=True, lifts=((3, 1),))
    assert not v2.integrally_closed
    assert v2.witnesses[0].valuation == 2


def test_seed_independence():
    rng = random.Random(30)
    for _ in range(20):
        f = tuple(rng.randint(-20, 20) for _ in range(rng.randint(1, 5))) + (1,)
        try:
            a = dedekind_verdict(f, B2, seed=0, assume_irreducible=True)
            b = dedekind_verdict(f, B2, seed=424242, assume_irreducible=True)
        except InputError:
            continue
        assert a == b


def test_screen_passes_quietly_on_irreducible():
    require_no_reducibility_witness((-5, 0, 1), B2)
    require_no_reducibility_witness(((0, 1), (), (1,)), BT2)

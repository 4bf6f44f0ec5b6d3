import random
from itertools import count, islice
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxorder import criterion, ffpoly, rings
from maxorder.cli import main, parse_poly
from maxorder.criterion import (
    AUX_PLACES,
    _aux_place,
    _fq_root_candidates,
    _reducibility_witness,
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
    InternalInvariantError,
    NonMonicError,
    ReduciblePolynomialError,
    VerdictFalseError,
)
from maxorder.fields import extension_field, irreducibles
from maxorder.residue import residue_factorization
from maxorder.rings import ValuedBase
from oracles import classical_check_oracle, fq_root_candidates_unfiltered

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
    assert not classical_check((-5, 0, 1), B2, rf)


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


# squarefree, but x^2 + t over F_2(t) and x^3 + t over F_3(t) are inseparable,
# so the discriminant is zero
INSEPARABLE_FACTOR_CASES = [
    (2, "(x^2 + t)*(x^2 + x + 1)"),
    (3, "(x^3 + t)*(x^2 + x + 2)"),
]


@pytest.mark.parametrize("p, text", INSEPARABLE_FACTOR_CASES)
def test_reducible_inseparable_factor_char_p(p, text):
    base = _at_t(p, 1)
    f = parse_poly(text, base)
    with pytest.raises(ReduciblePolynomialError, match="repeated or inseparable factor"):
        dedekind_verdict(f, base)
    # the screen alone rejects it: the verdict on the product is affirmative
    assert dedekind_verdict(f, base, assume_irreducible=True).integrally_closed


def test_reducible_rational_root():
    with pytest.raises(ReduciblePolynomialError, match="is a root"):
        dedekind_verdict((-4, 0, 1), B3)


def test_reducible_polynomial_root_over_fqt():
    f = (tuple((-a) % 3 for a in T2), (), (1,))  # x^2 - t^2 over F_3(t)
    with pytest.raises(ReduciblePolynomialError, match="is a root"):
        dedekind_verdict(f, BT3)


@pytest.mark.parametrize("p, text, root", [
    (3, "x^6 + 2*t^2", "t"),  # (x^3 - t)(x^3 + t), with no root in F_3(t)
    (2, "x^4 + x^2 + t^2 + t", "t"),  # (x^2 + t)(x^2 + t + 1), with no root in F_2(t)
])
def test_reducible_root_of_inner_descent_polynomial(p, text, root):
    base = _at_t(p, 1)
    with pytest.raises(ReduciblePolynomialError) as e:
        dedekind_verdict(parse_poly(text, base), base)
    assert f"y = {root} is a root of the inner polynomial g(y) of the descent" in str(e.value)
    assert f"f = g(x^{p})" in str(e.value)
    # an inner polynomial of degree 1 always has a root, but proves nothing
    require_no_reducibility_witness(parse_poly(f"x^{p} + t", base), base)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([B2, B3, B5]),
    st.integers(-10**12, 10**12),
    st.lists(st.integers(-50, 50), min_size=1, max_size=4),
)
def test_screen_finds_large_rational_roots(base, c, g):
    f = ffpoly.mul(base, (-c, 1), tuple(g) + (1,))
    with pytest.raises(ReduciblePolynomialError) as e:
        require_no_reducibility_witness(f, base)
    # the integer roots of g lie within Cauchy's bound 1 + 50
    roots = {c} | {r for r in range(-51, 52) if ffpoly.evaluate(base, tuple(g) + (1,), r) == 0}
    if 0 in roots:
        assert "x divides" in str(e.value)
    elif "zero discriminant" not in str(e.value):
        assert f"x = {min(roots, key=lambda r: (abs(r), r < 0))} is a root" in str(e.value)


def test_root_search_lifts_packed_at_pi_t(capsys):
    # the auxiliary place of this input over F_5(t) at t^2 + 2 is t over F_5, so the
    # Newton lift runs on packed ints and takes no product of the element ring
    base = ValuedBase.function_field(5, 1, (2, 0, 1))
    poly = "(x - t^3 - 2*t - 1)*(x^2 + t + 2)"
    assert _aux_place(parse_poly(poly, base), base).pi == (0, 1)
    broken = AssertionError("element product taken")
    with patch.object(rings.TruncatedFunctionRing, "mul", side_effect=broken):
        assert main(["check", "--base", "Fq", "--p", "5", "--pi", "t^2+2", "--poly", poly]) == 2
    err = capsys.readouterr().err
    assert "error[E_REDUCIBLE]" in err and "x = t^3 + 2*t + 1 is a root" in err


def test_root_search_above_2_to_the_128_lifts_on_tuples(capsys):
    root = 1361129467683753853853498429727072845825  # above 2^128
    assert root > 1 << 128
    pack = rings._QuotientTuples.pack
    with patch.object(rings._QuotientTuples, "pack", autospec=True, side_effect=pack) as spy:
        assert main(["check", "--prime", "5", "--poly", f"(x - {root})*(x^2+3)"]) == 2
    assert spy.call_count > 0
    err = capsys.readouterr().err
    assert "error[E_REDUCIBLE]" in err and f"x = {root} is a root" in err


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


_F4 = extension_field(2, 2)
CLASSICAL_BASES = [
    B2, B3, B5, BT2, BT3,
    ValuedBase.function_field(3, 1, (1, 1)),  # F_3(t) at t + 1
    ValuedBase.function_field(3, 1, (1, 0, 1)),  # F_3(t) at t^2 + 1
    ValuedBase.function_field(2, 2, (_F4.zero, _F4.one)),  # F_4(t) at t
]


def _small_poly(rng, base, n):
    """n random coefficients of size at most 9 over Z, of t-degree at most 3 over F_q[t]."""
    if base.kind == "Q":
        return tuple(rng.randint(-9, 9) for _ in range(n))
    field = base.field
    return tuple(
        ffpoly.trim(field, [field.element(rng.randrange(field.q)) for _ in range(rng.randint(0, 4))])
        for _ in range(n)
    )


@pytest.mark.parametrize("base", CLASSICAL_BASES, ids=lambda b: b.describe())
def test_classical_check_matches_exact_ring_oracle(base, monkeypatch):
    # f = g^2 h + prime^e r: e = 1 mostly gives affirmative verdicts, e = 2 negative ones
    def unused(*args):
        raise AssertionError("the classical check takes no remainder and no resultant")

    monkeypatch.setattr(criterion, "poly_divmod_monic", unused)
    monkeypatch.setattr(rings, "resultant", unused)
    rng = random.Random(12)
    ring = base
    seen = set()
    for _ in range(60):
        g = _small_poly(rng, base, rng.randint(1, 2)) + (ring.one,)
        h = _small_poly(rng, base, rng.randint(0, 3)) + (ring.one,)
        gh = ffpoly.mul(ring, ffpoly.mul(ring, g, g), h)
        pe = ring.elem_pow(base.prime_element, rng.randint(1, 2))
        r = _small_poly(rng, base, len(gh) - 1)
        f = ffpoly.add(ring, gh, ffpoly.trim(ring, [ring.mul(c, pe) for c in r]))
        rf = residue_factorization(f, base)
        # lifts off the canonical representatives: phi + prime^2 * s, which changes no verdict
        shift = ring.elem_pow(base.prime_element, 2)

        def moved(phi):
            s = _small_poly(rng, base, len(phi) - 1)
            return ffpoly.add(ring, phi, ffpoly.trim(ring, [ring.mul(c, shift) for c in s]))

        lifts = tuple(map(moved, rf.lifts))
        for rf in (rf, residue_factorization(f, base, lifts=lifts)):
            got = classical_check(f, base, rf)
            assert got == classical_check_oracle(f, base, rf)
            seen.add(got)
    assert seen == {True, False}


@pytest.mark.parametrize("base", CLASSICAL_BASES, ids=lambda b: b.describe())
def test_classical_check_on_squarefree_residue_matches_oracle(base):
    # f_bar squarefree, so h*_bar = 1 and the check holds without the gcd with g*_bar
    rng = random.Random(14)
    ring = base
    field = base.residue_field
    checked = 0
    for _ in range(40):
        f = _small_poly(rng, base, rng.randint(1, 5)) + (ring.one,)
        rf = residue_factorization(f, base)
        if rf.repeated_indices:
            continue
        assert classical_check(f, base, rf) is classical_check_oracle(f, base, rf) is True
        g = rings.reduce_mod(f, base)
        assert ffpoly.gcd(field, g, ffpoly.derivative(field, g)) == (field.one,)
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("base", CLASSICAL_BASES, ids=lambda b: b.describe())
def test_classical_check_takes_no_power_on_a_squarefree_residue(base, monkeypatch):
    # h*_bar multiplies the repeated factors only, so a squarefree f_bar needs no power
    rng = random.Random(15)
    ring = base
    cases = []
    for _ in range(40):
        f = _small_poly(rng, base, rng.randint(1, 5)) + (ring.one,)
        rf = residue_factorization(f, base)
        if not rf.repeated_indices:
            assert classical_check(f, base, rf)  # builds the ring's cached quotients first
            cases.append((f, rf))
    assert len(cases) >= 10

    def unused(*args):
        raise AssertionError("ffpoly.pow_ called on a squarefree residue")

    monkeypatch.setattr(ffpoly, "pow_", unused)
    for f, rf in cases:
        assert classical_check(f, base, rf) is True


@pytest.mark.parametrize("base", CLASSICAL_BASES, ids=lambda b: b.describe())
def test_classical_check_refuses_a_factorization_that_does_not_multiply_back(base):
    ring = base
    f = _small_poly(random.Random(13), base, 4) + (ring.one,)
    rf = residue_factorization(f, base)
    wrong = ffpoly.add(ring, f, (ring.one,))  # reduces to f_bar + 1
    for check in (classical_check, classical_check_oracle):
        with pytest.raises(InternalInvariantError, match="does not reduce"):
            check(wrong, base, rf)


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


# ---------------------------------------------------------------------------
# the screen's candidate roots over F_q(t)


def _at_t(p, e):
    F = extension_field(p, e)
    return ValuedBase.function_field(p, e, (F.zero, F.one))


SCREEN_BASES = [_at_t(3, 1), _at_t(2, 2), _at_t(5, 1), _at_t(3, 2)]  # F_3, F_4, F_5, F_9


@st.composite
def _poly_with_root(draw):
    """f = (x - c) g over F_q[t], with c and the coefficients of g of t-degree <= 2."""
    base = draw(st.sampled_from(SCREEN_BASES))
    ring, field = base, base.field

    def tpoly():
        digits = draw(st.lists(st.integers(0, field.q - 1), min_size=1, max_size=3))
        return ffpoly.trim(field, [field.element(i) for i in digits])

    c = tpoly()
    g = tuple(tpoly() for _ in range(draw(st.integers(1, 3)))) + (ring.one,)
    return base, ffpoly.mul(ring, (ring.neg(c), ring.one), g)


@settings(max_examples=200, deadline=None)
@given(_poly_with_root())
def test_screen_candidates_keep_every_root(case):
    base, f = case
    ring = base
    with pytest.raises(ReduciblePolynomialError) as screened:
        require_no_reducibility_witness(f, base)
    message = str(screened.value)
    if not f[0]:
        assert "x divides" in message
        return
    roots = [c for c in fq_root_candidates_unfiltered(f, base) if ring.is_zero(ffpoly.evaluate(ring, f, c))]
    roots.sort(key=lambda c: ffpoly.sort_key(ring.field, c))
    assert roots
    place = _aux_place(f, base)
    if place is not None:
        candidates = _fq_root_candidates(f, base, place)
        assert len(candidates) <= ffpoly.deg(f) and all(c in candidates for c in roots)
    if frobenius_descent(f, base).depth == 0 and "zero discriminant" not in message:
        assert f"x = {rings.element_to_text(roots[0], base)} is a root" in message


def test_screen_candidates_do_not_grow_with_q(capsys):
    text = "x^3 + t*x + t^2 + 1"
    for p in (101, 100003):
        base = _at_t(p, 1)
        f = parse_poly(text, base)
        assert len(_fq_root_candidates(f, base, _aux_place(f, base))) <= ffpoly.deg(f)
    assert main(["check", "--base", "Fq", "--p", "100003", "--pi", "t", "--poly", text]) == 0
    assert capsys.readouterr().out.endswith("verdict: R[alpha] is integrally closed\n")


# ---------------------------------------------------------------------------
# the screen's nonzero-discriminant certificate at auxiliary places


CERTIFICATE_BASES = [
    B2, B3, B5, _at_t(2, 1), _at_t(3, 1), _at_t(3, 2), ValuedBase.function_field(5, 1, (2, 0, 1))
]


@st.composite
def _screen_input(draw):
    """A monic product of small factors, often with a squared or an inseparable one."""
    base = draw(st.sampled_from(CERTIFICATE_BASES))
    ring = base

    if base.kind == "Q":
        coefficient = st.integers(-6, 6)
    else:
        field = ring.field
        coefficient = st.lists(st.integers(0, field.q - 1), max_size=3).map(
            lambda digits: ffpoly.trim(field, [field.element(i) for i in digits])
        )

    def monic(d):
        return tuple(draw(coefficient) for _ in range(d)) + (ring.one,)

    f = (ring.one,)
    for _ in range(draw(st.integers(1, 2))):
        f = ffpoly.mul(ring, f, monic(draw(st.integers(1, 3))))
    g = monic(1)
    extra = draw(st.sampled_from(["none", "none", "square", "frobenius"]))
    if extra == "square":
        f = ffpoly.mul(ring, f, g)
    elif extra == "frobenius" and base.char:  # g(x^p), inseparable unless g is a p-th power
        spread = [ring.zero] * (base.char + 1)
        spread[:: base.char] = g
        g = tuple(spread)
    if extra != "none":
        f = ffpoly.mul(ring, f, g)
    return base, f


@settings(max_examples=150, deadline=None)
@given(_screen_input())
def test_aux_place_certificate_is_sound_and_changes_no_result(case):
    base, f = case
    ring = base
    if _aux_place(f, base) is not None:
        assert not ring.is_zero(rings.discriminant(f, ring))
    fast = _reducibility_witness(f, base)
    with patch.object(criterion, "_aux_place", lambda g, base, shared=None: None):
        assert _reducibility_witness(f, base) == fast


def test_places_are_built_once_per_base():
    # g = (x^2 + t)(x^2 + x + 1) is not squarefree at any place of F_2(t): every screen tries four
    base = _at_t(2, 1)
    f = parse_poly("(x^2 + t)*(x^2 + x + 1)", base)
    with patch.object(rings, "FunctionRing", wraps=rings.FunctionRing) as built:
        first = _reducibility_witness(f, base)
        assert built.call_count == AUX_PLACES
        assert _reducibility_witness(f, base) == first
        assert built.call_count == AUX_PLACES
    places = list(islice(base.places(), AUX_PLACES + 2))
    assert all(P is Q for P, Q in zip(places, base.places()))
    in_order = (pi for d in count(1) for pi in irreducibles(base.field, d))
    assert [P.pi for P in places] == list(islice(in_order, AUX_PLACES + 2))
    assert [P.p for P in islice(B5.places(), 5)] == [2, 3, 5, 7, 11]


def _discriminant_calls(f, base, monkeypatch):
    calls = []

    def spy(g, ring):
        calls.append(g)
        return rings.discriminant(g, ring)

    monkeypatch.setattr(criterion, "discriminant", spy)
    try:
        require_no_reducibility_witness(f, base)
    except ReduciblePolynomialError:
        pass
    return len(calls)


def test_exact_discriminant_only_without_certificate(monkeypatch):
    b101 = _at_t(101, 1)
    assert _discriminant_calls(parse_poly("x^3 + t*x + t^2 + 1", b101), b101, monkeypatch) == 0
    b2 = _at_t(2, 1)
    assert _discriminant_calls(parse_poly("(x^2 + t)*(x^2 + x + 1)", b2), b2, monkeypatch) == 1


# ---------------------------------------------------------------------------
# the screen and the verdict share one residue factorization


SHARED = [
    (_at_t(101, 1), "x^3 + t*x + t^2 + 1"),  # f_bar = (x + 1)(x^2 - x + 1): one residue root
    (_at_t(3, 2), "x^3 + t*x - x - 1"),  # f_bar = x^3 - x - 1, irreducible
    (B2, "x^2 + x + 2"),  # f_bar = x (x + 1): two residue roots
]


@pytest.mark.parametrize("base, text", SHARED)
def test_one_factorization_per_screened_verdict(base, text, monkeypatch):
    """At the base's own place the screen factors f once, for itself and the verdict, and takes no x^Q."""
    f = parse_poly(text, base)
    list(islice(base.places(), AUX_PLACES))  # built once per base, before counting
    factor_monic, pow_mod = ffpoly.factor_monic, ffpoly._Polys.pow_mod
    calls, inside, stray = [], [], []

    def counted(*args, **kwargs):
        calls.append(args)
        inside.append(True)
        try:
            return factor_monic(*args, **kwargs)
        finally:
            inside.pop()

    def watched(self, a, n, m):
        if not inside:
            stray.append(n)
        return pow_mod(self, a, n, m)

    monkeypatch.setattr(ffpoly, "factor_monic", counted)
    monkeypatch.setattr(ffpoly._Polys, "pow_mod", watched)
    verdict = dedekind_verdict(f, base, seed=3)
    assert all(l == 1 for _, l in verdict.factorization.factors)
    assert len(calls) == 1 and stray == []
    monkeypatch.undo()
    assert verdict == dedekind_verdict(f, base, seed=3, assume_irreducible=True)


def _divides(c, a, base):
    if base.kind == "Q":
        return c != 0 and a % c == 0
    return bool(c) and not ffpoly.rem(base.field, a, c)


@pytest.mark.parametrize("base", [B2, _at_t(101, 1), _at_t(3, 2), _at_t(5, 1)])
def test_a_candidate_that_does_not_divide_g0_is_not_evaluated(base, monkeypatch):
    # irreducible, with residue roots whose Newton lifts have degree 1 in t (Q: the lifts 2 and -3 mod 8)
    f = parse_poly("x^2 + x + 2" if base.kind == "Q" else "x^2 + t*x + t + 1", base)
    candidates, evaluated = [], []
    find, evaluate = criterion._fq_root_candidates, ffpoly.evaluate

    def recorded(*args):
        out = find(*args)
        candidates.extend(out)
        return out

    def watched(field, a, x0):
        if field is base:
            evaluated.append(x0)
        return evaluate(field, a, x0)

    monkeypatch.setattr(criterion, "_fq_root_candidates", recorded)
    monkeypatch.setattr(ffpoly, "evaluate", watched)
    assert _reducibility_witness(f, base) is None
    assert evaluated == [c for c in candidates if _divides(c, f[0], base)]
    assert len(evaluated) < len(candidates)


@pytest.mark.parametrize("base, text", [(B5, "(x - 1)*(x^2 + 2)"), (_at_t(101, 1), "(x - t)*(x^2 + t + 1)")])
def test_reducible_with_bad_lifts_is_refused_before_the_lifts_are_checked(base, text):
    f = parse_poly(text, base)
    with pytest.raises(ReduciblePolynomialError):
        dedekind_verdict(f, base, lifts=((base.one,),))
    with pytest.raises(InputError):
        dedekind_verdict(f, base, lifts=((base.one,),), assume_irreducible=True)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_screen_input(), _poly_with_root()), st.integers(0, 9))
def test_sharing_the_factorization_changes_no_result(case, seed):
    base, f = case
    shared = {"seed": seed}
    witness = _reducibility_witness(f, base, shared)
    assert witness == _reducibility_witness(f, base)
    if "rf" in shared:
        assert frobenius_descent(f, base).depth == 0
        assert shared["rf"] == residue_factorization(f, base)
    if witness is None:
        assert dedekind_verdict(f, base, seed) == dedekind_verdict(f, base, seed, assume_irreducible=True)

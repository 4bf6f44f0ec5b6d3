"""Metamorphic tests: a change of variable that moves the place must not change any answer.

Over F_p(t) the substitution t -> t + c takes f at pi = t to f(t + c) at
pi = t + c, so the same computation runs once on the packed lift
(``ffpoly._PackedSeries``, at t) and once on the tuple lift
(``rings._QuotientTuples`` over ``TruncatedFunctionRing``, at t + c). The
residue factors and their canonical lifts are the same at both places, so
every report must agree entry by entry. Over Q the Taylor shift
x -> x + c keeps Z[alpha] = Z[alpha - c] but moves the residue factors,
so the splitting and the identities are compared as multisets.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxorder import ffpoly
from maxorder.criterion import count_extensions, dedekind_verdict, split_prime
from maxorder.errors import VerdictFalseError
from maxorder.fields import PrimeField
from maxorder.hensel import verify_valuation_identities
from maxorder.rings import ValuedBase


def shift(domain, a, c):
    """a(y + c) for a polynomial a in y over ``domain``, by Horner's rule."""
    out = ()
    for coeff in reversed(a):
        out = ffpoly.add(domain, ffpoly.mul(domain, out, ffpoly.trim(domain, (c, domain.one))), (coeff,))
    return out


def reports(f, base):
    """Everything the four commands report on f, with the witnesses' remainders left out."""
    verdict = dedekind_verdict(f, base, assume_irreducible=True)
    witnesses = [(w.index, w.phi, w.multiplicity, w.valuation) for w in verdict.witnesses]
    count = count_extensions(f, base, assume_irreducible=True)
    if not verdict.integrally_closed:
        with pytest.raises(VerdictFalseError):
            verify_valuation_identities(f, base, _verdict=verdict)
        return verdict.integrally_closed, witnesses, count, None, None
    split = split_prime(f, base, _verdict=verdict).ideals
    return verdict.integrally_closed, witnesses, count, split, verify_valuation_identities(f, base, _verdict=verdict)


@st.composite
def residue_and_perturbation(draw, domain, residues, small):
    """f_bar = phi^l psi over ``domain`` with monic phi and psi, l >= 2, degree <= 4; and n lower terms."""
    def monic(d):
        return tuple(draw(st.lists(residues, min_size=d, max_size=d))) + (domain.one,)

    d = draw(st.integers(1, 2))
    l = draw(st.integers(2, 4 // d))
    fbar = ffpoly.mul(domain, ffpoly.pow_(domain, monic(d), l), monic(draw(st.integers(0, 4 - l * d))))
    return fbar[:-1], [draw(small) for _ in fbar[:-1]]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_moving_the_place_from_t_to_t_plus_c_changes_nothing(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    field = PrimeField(p)
    digits = st.integers(0, p - 1)
    fbar, lower = data.draw(residue_and_perturbation(field, digits, st.lists(digits, max_size=3)))
    # f = f_bar + t u(x, t) with u of t-degree below 3, so f_bar is f at t = 0
    f = tuple(ffpoly.trim(field, (a,) + tuple(u)) for a, u in zip(fbar, lower)) + ((1,),)
    c = data.draw(st.integers(1, p - 1))
    at_t = ValuedBase.function_field(p, 1, (0, 1))
    at_t_plus_c = ValuedBase.function_field(p, 1, (c, 1))
    assert reports(f, at_t) == reports(tuple(shift(field, a, c) for a in f), at_t_plus_c)


def multisets(f, base):
    verdict = dedekind_verdict(f, base, assume_irreducible=True)
    if not verdict.integrally_closed:
        return False, None, None
    split = split_prime(f, base, _verdict=verdict).ideals
    report = verify_valuation_identities(f, base, _verdict=verdict)
    return (
        True,
        Counter((ideal.e, ideal.f) for ideal in split),
        Counter(entry[1:] for entry in report.entries),  # all but the index of the residue factor
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_taylor_shift_over_q_changes_no_multiset(data):
    base = ValuedBase.rational(data.draw(st.sampled_from([2, 3, 5])))
    fbar, lower = data.draw(residue_and_perturbation(base.ring, st.integers(-4, 4), st.integers(-9, 9)))
    f = tuple(a + base.prime * u for a, u in zip(fbar, lower)) + (1,)
    c = data.draw(st.integers(-3, 3).filter(bool))
    assert multisets(f, base) == multisets(shift(base.ring, f, c), base)

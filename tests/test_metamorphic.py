"""Metamorphic tests: a change of variable that moves the place must not change any answer.

Over F_q(t) the substitution t -> t + c takes f at pi = t to f(t + c) at
pi = t + c, so the same computation runs once at t and once at t + c. Over
F_p the lift at t is packed (``ffpoly._PackedSeries``); over F_4 and F_9 it
is ``rings._QuotientTuples`` over ``TruncatedFunctionRing``, which truncates
at t and reduces by (t + c)^m at t + c. The residue factors and their
canonical lifts are the same at both places, so every report must agree.
The Frobenius map u -> u^p on the coefficients in F_{p^e} is a field
automorphism: it takes f at pi to its image at the image of pi, and every
report to its image. Over Q the Taylor shift x -> x + c keeps
Z[alpha] = Z[alpha - c] but moves the residue factors, so the splitting
and the identities are compared as multisets.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxorder import ffpoly
from maxorder.criterion import count_extensions, dedekind_verdict, split_prime
from maxorder.errors import VerdictFalseError
from maxorder.fields import extension_field
from maxorder.hensel import verify_valuation_identities
from maxorder.rings import FunctionRing, ValuedBase

FIELDS = [extension_field(p, e) for p, e in ((2, 1), (3, 1), (5, 1), (2, 2), (3, 2))]


def shift(domain, a, c):
    """a(y + c) for a polynomial a in y over ``domain``, by Horner's rule."""
    out = ()
    for coeff in reversed(a):
        out = ffpoly.add(domain, ffpoly.mul(domain, out, ffpoly.trim(domain, (c, domain.one))), (coeff,))
    return out


def reports(f, base, image=lambda P: P):
    """The order of the lifts, and everything the four commands report on f keyed by lift.

    ``image`` is applied to every polynomial. Each witness, branch, ideal
    and identity entry is keyed by the image of its factor's lift, so every
    value stays paired with its factor; the order of the residue factors and
    of the branches comes first, apart, because a field automorphism may
    reorder them. The witnesses' remainders are left out, because t -> t + c
    changes them.
    """
    verdict = dedekind_verdict(f, base, assume_irreducible=True)
    lifts = [image(phi) for phi in verdict.factorization.lifts]
    witnesses = {image(w.phi): (w.multiplicity, w.valuation) for w in verdict.witnesses}
    count = count_extensions(f, base, assume_irreducible=True)
    branches = {image(b.phi): b[2:] for b in count.branches}
    order = tuple(lifts), tuple(map(image, (b.phi for b in count.branches)))
    if not verdict.integrally_closed:
        with pytest.raises(VerdictFalseError):
            verify_valuation_identities(f, base, _verdict=verdict)
        return order, (False, frozenset(lifts), witnesses, count[:3], branches)
    split = {image(ideal.lift): (ideal.e, ideal.f) for ideal in split_prime(f, base, _verdict=verdict).ideals}
    report = verify_valuation_identities(f, base, _verdict=verdict)
    entries = {lifts[e.index]: e[1:] for e in report.entries}
    return order, (True, frozenset(lifts), witnesses, count[:3], branches, split, entries, report[1:])


def perturbed(data, field, elements):
    """f = f_bar + t u(x, t) over F_q[t] with u of t-degree below 3, so f_bar is f at t = 0."""
    fbar, lower = data.draw(residue_and_perturbation(field, elements, st.lists(elements, max_size=3)))
    return tuple(ffpoly.trim(field, (a,) + tuple(u)) for a, u in zip(fbar, lower)) + ((field.one,),)


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
    field = data.draw(st.sampled_from(FIELDS))
    elements = st.integers(0, field.q - 1).map(field.element)
    f = perturbed(data, field, elements)
    c = data.draw(elements.filter(lambda a: a != field.zero))
    at_t = FunctionRing(field, (field.zero, field.one))
    at_t_plus_c = FunctionRing(field, (c, field.one))
    assert reports(f, at_t) == reports(tuple(shift(field, a, c) for a in f), at_t_plus_c)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_frobenius_on_the_coefficients_changes_nothing(data):
    field = data.draw(st.sampled_from(FIELDS[3:]))  # on F_p the map is the identity
    elements = st.integers(0, field.q - 1).map(field.element)
    c = data.draw(elements)
    f = tuple(shift(field, a, c) for a in perturbed(data, field, elements))  # f_bar is f at t = -c

    def frobenius(a):
        """u -> u^p on the F_q coefficients of a polynomial in t."""
        return tuple(field.pow(b, field.p) for b in a)

    def image(P):
        return tuple(map(frobenius, P))

    pi = (c, field.one)
    assert reports(f, FunctionRing(field, pi), image)[1] == reports(image(f), FunctionRing(field, frobenius(pi)))[1]


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
    fbar, lower = data.draw(residue_and_perturbation(base, st.integers(-4, 4), st.integers(-9, 9)))
    f = tuple(a + base.p * u for a, u in zip(fbar, lower)) + (1,)
    c = data.draw(st.integers(-3, 3).filter(bool))
    assert multisets(f, base) == multisets(shift(base, f, c), base)

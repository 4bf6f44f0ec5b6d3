"""Integral closedness of R[alpha] from one remainder per repeated factor.

Let R be the ring of integers of a valued base, f monic over R, and
alpha a root of f. Factor the reduction f_bar = prod phibar_i^{l_i}
into monic irreducibles over the residue field and pick one monic lift
phi_i per factor. The engine decides whether R[alpha] is integrally
closed by a valuation test on Euclidean remainders: writing r_i for
f mod phi_i and nu for the coefficientwise minimum valuation, R[alpha]
is integrally closed exactly when every index with l_i >= 2 has
nu(r_i) = 1 (the least positive value of the value group of the base).

No separability is assumed anywhere: the test is stated and computed
the same way over Q and over rational function fields in positive
characteristic. A classical gcd formulation is evaluated alongside as a
cross-check, the affirmative answer is turned into the splitting of the
place, and an inseparability descent extends a best-effort count of the
extensions of the valuation to K(alpha).
"""

import random
from collections import namedtuple
from itertools import islice

from . import ffpoly, rings
from .errors import (
    DegreeError,
    InternalInvariantError,
    NonMonicError,
    ReduciblePolynomialError,
    VerdictFalseError,
)
from .residue import residue_factorization
from .rings import (
    MINUS_INF,
    discriminant,
    gauss_valuation,
    poly_divmod_monic,
    poly_to_text,
    reduce_mod,
)

AUX_PLACES = 4  # the places _aux_place tries before the exact discriminant


Witness = namedtuple("Witness", "index phi multiplicity remainder valuation")
Witness.__doc__ = "Remainder data for one repeated residue factor."


class CriterionVerdict(
    namedtuple("CriterionVerdict", "integrally_closed witnesses factorization")
):
    __slots__ = ()

    @property
    def repeated_indices(self):
        return self.factorization.repeated_indices


IdealFactor = namedtuple("IdealFactor", "lift e f")
IdealFactor.__doc__ = "One maximal ideal above the place: (base.prime_element, lift(alpha))."
SplittingReport = namedtuple("SplittingReport", "ideals")
InseparabilityDescent = namedtuple("InseparabilityDescent", "depth inner")
InseparabilityDescent.__doc__ = (
    "f(x) = inner(x^(p^depth)) with depth maximal (depth 0 outside char p)."
)
BranchCertificate = namedtuple(
    "BranchCertificate", "index phi multiplicity degree rule certified remainder_valuation"
)
BranchCertificate.__doc__ = "Why one residue branch contributes exactly one extension, if known."
ExtensionCount = namedtuple("ExtensionCount", "status t descent_depth branches")


def _validate(f, base):
    ring = base.ring
    f = ffpoly.trim(ring, f)
    d = ffpoly.deg(f)
    if d is MINUS_INF or d < 1:
        raise DegreeError("a polynomial of degree >= 1 is required")
    if not ffpoly.is_monic(ring, f):
        raise NonMonicError("a monic polynomial is required")
    return f


# ---------------------------------------------------------------------------
# best-effort reducibility detection (positives are proofs, silence is not)


def _is_pth_power(f, base):
    """In char p: every x-exponent and every inner t-exponent divisible by p."""
    p = base.char
    for i, c in enumerate(f):
        if base.ring.is_zero(c):
            continue
        if i % p:
            return False
        for j, a in enumerate(c):
            if a != base.ring.field.zero and j % p:
                return False
    return True


def frobenius_descent(f, base):
    """Peel x -> x^p as long as only p-th powers of x occur in f."""
    if base.char == 0:
        return InseparabilityDescent(0, f)
    p = base.char
    ring = base.ring
    cur = f
    depth = 0
    while ffpoly.deg(cur) >= p:
        if any(i % p and not ring.is_zero(c) for i, c in enumerate(cur)):
            break
        cur = cur[::p]
        depth += 1
    return InseparabilityDescent(depth, cur)


def _aux_place(g, base):
    """The first of the first AUX_PLACES places where monic g is squarefree.

    As g is monic, disc(g) maps to the discriminant of its image at
    every place, so a place found proves that disc(g) is nonzero. None
    proves nothing.
    """
    for place in islice(base.places(), AUX_PLACES):
        field = place.residue_field
        gbar = reduce_mod(g, place)
        if ffpoly.gcd(field, gbar, ffpoly.derivative(field, gbar)) == (field.one,):
            return place
    return None


def _fq_root_candidates(g, base, place):
    """At most deg g candidates that include every root of monic g over R.

    g must be squarefree at the auxiliary ``place``, so every root of g
    reduces to a simple root there, read off gcd(g, x^Q - x), and is the
    unique Newton lift of it, computed on polynomials of length 1 of
    ``polys``. The lift stops once a residue pins the
    root: over Z mod ell^k > 2 (1 + max |a_i|), Cauchy's bound, then the
    symmetric residue; over F_q[t] mod pi^k with k deg pi > deg_t c,
    where deg_t c <= deg_t a_i / (n - i) for some i, or nothing could
    cancel c^n. Sorted by (|c|, c < 0) over Z and by ``ffpoly.sort_key``.
    It serves both bases; the name stays because the benchmark's tracer
    (bench/tracing.py) wraps ``criterion._fq_root_candidates``.
    """
    aux, field = place.ring, place.residue_field
    gbar = reduce_mod(g, place)
    x = ffpoly.x_poly(field)
    split = ffpoly.gcd(field, gbar, ffpoly.sub(field, ffpoly.pow_mod(field, x, field.q, gbar), x))
    if len(split) < 2:
        return []
    if base.kind == "Q":
        bound = 2 * (1 + max(abs(a) for a in g[:-1]))
        need, modulus = 1, aux.p
        while modulus <= bound:
            need, modulus = need + 1, modulus * aux.p
    else:
        n = len(g) - 1
        top = max(((len(a) - 1) // (n - i) for i, a in enumerate(g[:-1]) if a), default=0)
        need = top // aux.pi_degree + 1
    dg = ffpoly.derivative(base.ring, g)
    dgbar = ffpoly.derivative(field, gbar)
    out = []
    top = aux.polys(need, need, 1)  # an element is a polynomial of length 1
    for h in [split] if len(split) == 2 else ffpoly.equal_degree_split(field, split, 1, random.Random(0)):
        root = field.neg(h[0])
        r, s = (top.pack((aux.lift(c),)) for c in (root, field.inv(ffpoly.evaluate(field, dgbar, root))))
        m = 1
        while m < need:  # r is a root and s is 1/g'(r) mod prime^m
            m = min(2 * m, need)
            T = aux.polys(m, need, 1)
            r = T.sub(r, T.mul(ffpoly.evaluate(T, [T.pack((a,)) for a in g], r), s))
            if m < need:
                d = ffpoly.evaluate(T, [T.pack((a,)) for a in dg], r)
                s = T.add(s, T.mul(s, T.sub(T.one, T.mul(d, s))))
        r = (top.unpack(r) or (aux.zero,))[0]
        out.append(r - modulus if base.kind == "Q" and 2 * r > modulus else r)
    if base.kind == "Q":
        return sorted(out, key=lambda c: (abs(c), c < 0))
    return sorted(out, key=lambda c: ffpoly.sort_key(base.ring.field, c))


def _reducibility_witness(f, base):
    """A human-readable proof of reducibility, or None if none was found.

    Every returned witness is sound. A repeated factor and a root over K
    are always found, of f or, when f = g(x^(p^d)) with d >= 1, of the
    inner polynomial g; None says nothing about other factors.
    """
    ring = base.ring
    if ffpoly.deg(f) < 2:
        return None
    if ring.is_zero(f[0]):
        return "the constant term is zero, so x divides the polynomial"
    if base.char and _is_pth_power(f, base):
        return f"the polynomial is a p-th power (p = {base.char})"
    desc = frobenius_descent(f, base)
    g = desc.inner
    if ffpoly.deg(g) < 2:  # x^(p^d) - c is a p-th power or irreducible
        return None
    whose = "inner polynomial of the inseparability descent" if desc.depth else "polynomial"
    place = _aux_place(g, base)
    if place is None:
        disc = discriminant(g, ring)
        if ring.is_zero(disc):
            # in char p an irreducible factor with zero derivative also zeroes it
            factor = "repeated or inseparable factor" if base.char else "repeated factor"
            return f"the {whose} has a {factor} (zero discriminant)"
        place = next(P for P in base.places() if P.ring.reduce(disc) != P.residue_field.zero)
    for c in _fq_root_candidates(g, base, place):
        if ring.is_zero(ffpoly.evaluate(ring, g, c)):
            root = rings.element_to_text(c, base)
            if desc.depth:
                n = base.char ** desc.depth
                return f"y = {root} is a root of the inner polynomial g(y) of the descent f = g(x^{n})"
            return f"x = {root} is a root"
    return None


def require_no_reducibility_witness(f, base):
    w = _reducibility_witness(f, base)
    if w is not None:
        raise ReduciblePolynomialError(
            f"polynomial is reducible over the base field: {w} "
            "(pass assume_irreducible to skip this screen)"
        )


# ---------------------------------------------------------------------------
# the verdict


def classical_check(f, base, rf):
    """gcd formulation: with g* = prod of lifts and h* a lift of
    prod phibar_i^(l_i - 1), write g* h* - f = prime * T; the order is
    integrally closed iff gcd(T_bar, g*_bar, h*_bar) = 1.

    Only T_bar = T mod prime enters, and it depends only on g* h* - f
    modulo prime^2. So the products are taken over R/prime^2
    (``polys(2, 2, len f)``) where a polynomial there is one int, over
    Z/p^2 for p below 2^64 and F_p[t]/t^2 at pi = t, and each product
    is one int product. On tuples, reducing every coefficient costs more
    than it saves on the small canonical lifts, and the products stay
    exact in R. T_bar is read off the representatives of g* h* - f by
    ``reduce_over_prime``. h*_bar is the product over the repeated
    factors only, and the gcd with it comes first: when f_bar is
    squarefree, h*_bar = 1 and the gcd of degree deg f with g*_bar is
    never taken.
    """
    ring = base.ring
    field = base.residue_field
    P = ring.polys(2, 2, len(f))
    if isinstance(P, rings._QuotientTuples):
        P = ffpoly._Tuples(ring)
    gstar = P.one
    for phi in rf.lifts:
        gstar = P.mul(gstar, P.pack(phi))
    hbar = (field.one,)
    for i in rf.repeated_indices:
        phibar, l = rf.factors[i]
        hbar = ffpoly.mul(field, hbar, ffpoly.pow_(field, phibar, l - 1))
    hstar = P.pack(rings.lift_residue_poly(hbar, base))
    diff = P.unpack(P.sub(P.mul(gstar, hstar), P.pack(f)))
    if diff and gauss_valuation(diff, base) < 1:
        raise InternalInvariantError(
            "g* h* does not reduce to the residue factorization"
        )
    tbar = ffpoly.trim(field, [ring.reduce_over_prime(c) for c in diff])
    one = (field.one,)
    g1 = ffpoly.gcd(field, hbar, tbar)
    return g1 == one or ffpoly.gcd(field, g1, reduce_mod(P.unpack(gstar), base)) == one


def dedekind_verdict(f, base, seed=0, *, assume_irreducible=False, lifts=None, _rf=None):
    """Decide whether R[alpha] is integrally closed, with witnesses.

    The verdict itself is a pure function of f and the base; the seed
    only feeds the internal factorization randomness and the optional
    ``lifts`` override the canonical monic lifts (the verdict does not
    depend on the choice).
    """
    f = _validate(f, base)
    if not assume_irreducible and _rf is None:
        require_no_reducibility_witness(f, base)
    rf = _rf if _rf is not None else residue_factorization(f, base, seed=seed, lifts=lifts)
    ring = base.ring
    witnesses = []
    ok = True
    for i in rf.repeated_indices:
        phibar, l = rf.factors[i]
        phi = rf.lifts[i]
        _, r = poly_divmod_monic(f, phi, ring)
        v = gauss_valuation(r, base)
        witnesses.append(
            Witness(index=i, phi=phi, multiplicity=l, remainder=r, valuation=v)
        )
        if v != base.sigma:
            ok = False
    if classical_check(f, base, rf) != ok:
        raise InternalInvariantError(
            "remainder test and gcd test disagree on "
            f"{poly_to_text(f, base)} over {base.describe()}"
        )
    return CriterionVerdict(
        integrally_closed=ok,
        witnesses=tuple(witnesses),
        factorization=rf,
    )


# ---------------------------------------------------------------------------
# splitting of the place


def split_prime(f, base, seed=0, *, assume_irreducible=False, lifts=None, _verdict=None):
    """Splitting of the place in K(alpha) when R[alpha] is integrally closed.

    Each residue factor phibar_i of multiplicity l_i yields one maximal
    ideal (prime, phi_i(alpha)) with ramification index l_i and residue
    degree deg phibar_i; the sum of e*f equals deg f, so the place is
    defectless in K(alpha).
    """
    verdict = _verdict if _verdict is not None else dedekind_verdict(
        f, base, seed, assume_irreducible=assume_irreducible, lifts=lifts
    )
    if not verdict.integrally_closed:
        raise VerdictFalseError(
            "R[alpha] is not integrally closed, so the remainder data does "
            "not describe the splitting; no splitting is reported"
        )
    rf = verdict.factorization
    ideals = tuple(
        IdealFactor(lift=rf.lifts[i], e=l, f=ffpoly.deg(phibar))
        for i, (phibar, l) in enumerate(rf.factors)
    )
    total = sum(ideal.e * ideal.f for ideal in ideals)
    if total != ffpoly.deg(f):
        raise InternalInvariantError("sum of e*f does not match the degree")
    return SplittingReport(ideals=ideals)


# ---------------------------------------------------------------------------
# counting extensions of the valuation


def _branches_from(verdict):
    wmap = {w.index: w for w in verdict.witnesses}
    out = []
    for i, (phibar, l) in enumerate(verdict.factorization.factors):
        if l == 1:
            rule, certified, v = "multiplicity-one", True, None
        else:
            v = wmap[i].valuation
            certified = v == 1
            rule = "remainder-valuation-one" if certified else "none"
        out.append(
            BranchCertificate(
                index=i,
                phi=verdict.factorization.lifts[i],
                multiplicity=l,
                degree=ffpoly.deg(phibar),
                rule=rule,
                certified=certified,
                remainder_valuation=v,
            )
        )
    return tuple(out)


def count_extensions(f, base, seed=0, *, assume_irreducible=False):
    """Number of extensions of the valuation to K(alpha), when decidable.

    If the verdict holds for f the count is the number of residue
    factors. Otherwise the inseparability descent f(x) = g(x^(p^d)) is
    exact on counts, because a purely inseparable step extends each
    valuation uniquely, so the verdict is retried on g. When both fail
    the per-branch certificates decide single branches only and the
    total stays unknown.
    """
    f = _validate(f, base)
    verdict = dedekind_verdict(f, base, seed, assume_irreducible=assume_irreducible)
    chosen, depth = verdict, 0
    if not verdict.integrally_closed:
        desc = frobenius_descent(f, base)
        if desc.depth >= 1:
            inner = dedekind_verdict(desc.inner, base, seed, assume_irreducible=True)
            chosen, depth = inner, desc.depth
    branches = _branches_from(chosen)
    if chosen.integrally_closed:
        return ExtensionCount(
            status="known",
            t=len(branches),
            descent_depth=depth,
            branches=branches,
        )
    if all(b.certified for b in branches):
        raise InternalInvariantError(
            "all branches certified although the remainder test failed"
        )
    return ExtensionCount(status="unknown", t=None, descent_depth=depth, branches=branches)

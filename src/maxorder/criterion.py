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

from dataclasses import dataclass

from . import ffpoly, rings
from .errors import (
    DegreeError,
    InternalInvariantError,
    NonMonicError,
    ReduciblePolynomialError,
    VerdictFalseError,
)
from .residue import ResidueFactorization, residue_factorization
from .rings import (
    MINUS_INF,
    discriminant,
    gauss_valuation,
    poly_divmod_monic,
    poly_to_text,
    reduce_mod,
)

ROOT_SEARCH_BOUND = 10_000
DIVISOR_COMBO_CAP = 256


@dataclass(frozen=True)
class Witness:
    """Remainder data for one repeated residue factor."""

    index: int
    phi: tuple
    multiplicity: int
    remainder: tuple
    valuation: float


@dataclass(frozen=True)
class ClassicalCheck:
    """The gcd formulation evaluated on the same lifts."""

    integrally_closed: bool
    cofactor: tuple


@dataclass(frozen=True)
class CriterionVerdict:
    integrally_closed: bool
    witnesses: tuple
    factorization: ResidueFactorization
    classical_agrees: bool

    @property
    def repeated_indices(self):
        return self.factorization.repeated_indices


@dataclass(frozen=True)
class IdealFactor:
    """One maximal ideal above the place: generated by (prime, phi(alpha))."""

    prime: object
    lift: tuple
    e: int
    f: int


@dataclass(frozen=True)
class SplittingReport:
    ideals: tuple
    defectless: bool


@dataclass(frozen=True)
class InseparabilityDescent:
    """f(x) = inner(x^(p^depth)) with depth maximal (depth 0 outside char p)."""

    depth: int
    inner: tuple


@dataclass(frozen=True)
class BranchCertificate:
    """Why one residue branch contributes exactly one extension, if known."""

    index: int
    phi: tuple
    multiplicity: int
    degree: int
    rule: str
    certified: bool
    remainder_valuation: object


@dataclass(frozen=True)
class ExtensionCount:
    status: str
    t: object
    descent_depth: int
    branches: tuple


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


def _int_root_candidates(a0):
    """Divisors of |a0| found by trial division, both signs."""
    a0 = abs(a0)
    out = set()
    d = 1
    while d * d <= a0 and d <= ROOT_SEARCH_BOUND:
        if a0 % d == 0:
            out.update((d, -d, a0 // d, -(a0 // d)))
        d += 1
    return out


def _fq_root_candidates(a0, base):
    """Unit multiples of monic divisors of a0 in F_q[t], capped."""
    ring = base.ring
    field = ring.field
    lc = a0[-1]
    monic = ffpoly.scale(field, a0, field.inv(lc))
    divisors = [ring.one]
    if ffpoly.deg(monic) >= 1:
        for g, e in ffpoly.factor_monic(field, monic, seed=0):
            grown = []
            for d in divisors:
                cur = d
                for _ in range(e + 1):
                    grown.append(cur)
                    cur = ring.mul(cur, g)
            divisors = grown[:DIVISOR_COMBO_CAP]
    units = [field.element(i) for i in range(1, field.q)]
    return [ffpoly.scale(field, d, u) for d in divisors for u in units]


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


def _reducibility_witness(f, base):
    """A human-readable proof of reducibility, or None if none was found.

    Every returned witness is sound; the search is incomplete, so None
    only means no cheap obstruction turned up.
    """
    ring = base.ring
    if ffpoly.deg(f) < 2:
        return None
    if ring.is_zero(f[0]):
        return "the constant term is zero, so x divides the polynomial"
    if base.char and _is_pth_power(f, base):
        return f"the polynomial is a p-th power (p = {base.char})"
    desc = frobenius_descent(f, base)
    if ffpoly.deg(desc.inner) >= 2 and ring.is_zero(discriminant(desc.inner, ring)):
        if desc.depth:
            return (
                "the inner polynomial of the inseparability descent has a "
                "repeated factor (zero discriminant)"
            )
        return "the polynomial has a repeated factor (zero discriminant)"
    if base.kind == "Q":
        candidates = _int_root_candidates(f[0])
    else:
        candidates = _fq_root_candidates(f[0], base)
    for c in candidates:
        if ring.is_zero(ffpoly.evaluate(ring, f, c)):
            return f"x = {rings.element_to_text(c, base)} is a root"
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
    integrally closed iff gcd(T_bar, g*_bar, h*_bar) = 1."""
    ring = base.ring
    field = base.residue_field
    gstar = (ring.one,)
    for phi in rf.lifts:
        gstar = ffpoly.mul(ring, gstar, phi)
    hbar = (field.one,)
    for phibar, l in rf.factors:
        hbar = ffpoly.mul(field, hbar, ffpoly.pow_(field, phibar, l - 1))
    hstar = rings.lift_residue_poly(hbar, base)
    diff = ffpoly.sub(ring, ffpoly.mul(ring, gstar, hstar), f)
    if diff and gauss_valuation(diff, base) < 1:
        raise InternalInvariantError(
            "g* h* does not reduce to the residue factorization"
        )
    cofactor = tuple(ring.exact_div(c, base.prime_element) for c in diff)
    g1 = ffpoly.gcd(field, reduce_mod(cofactor, base), reduce_mod(gstar, base))
    g2 = ffpoly.gcd(field, g1, hbar)
    return ClassicalCheck(integrally_closed=g2 == (field.one,), cofactor=cofactor)


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
    classical = classical_check(f, base, rf)
    if classical.integrally_closed != ok:
        raise InternalInvariantError(
            "remainder test and gcd test disagree on "
            f"{poly_to_text(f, base)} over {base.describe()}"
        )
    return CriterionVerdict(
        integrally_closed=ok,
        witnesses=tuple(witnesses),
        factorization=rf,
        classical_agrees=True,
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
        IdealFactor(
            prime=base.prime_element,
            lift=rf.lifts[i],
            e=l,
            f=ffpoly.deg(phibar),
        )
        for i, (phibar, l) in enumerate(rf.factors)
    )
    total = sum(ideal.e * ideal.f for ideal in ideals)
    if total != ffpoly.deg(f):
        raise InternalInvariantError("sum of e*f does not match the degree")
    return SplittingReport(ideals=ideals, defectless=True)


# ---------------------------------------------------------------------------
# counting extensions of the valuation


def _branches_from(verdict):
    wmap = {w.index: w for w in verdict.witnesses}
    out = []
    for i, (phibar, l) in enumerate(verdict.factorization.factors):
        if l == 1:
            out.append(
                BranchCertificate(
                    index=i,
                    phi=verdict.factorization.lifts[i],
                    multiplicity=1,
                    degree=ffpoly.deg(phibar),
                    rule="multiplicity-one",
                    certified=True,
                    remainder_valuation=None,
                )
            )
        else:
            v = wmap[i].valuation
            certified = v == 1
            out.append(
                BranchCertificate(
                    index=i,
                    phi=verdict.factorization.lifts[i],
                    multiplicity=l,
                    degree=ffpoly.deg(phibar),
                    rule="remainder-valuation-one" if certified else "none",
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
    if not assume_irreducible:
        require_no_reducibility_witness(f, base)
    verdict = dedekind_verdict(f, base, seed, assume_irreducible=True)
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

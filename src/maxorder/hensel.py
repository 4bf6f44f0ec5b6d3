"""Branch factorizations modulo prime powers and valuation identities.

The reduction f_bar = prod phibar_i^(l_i) is a coprime factorization
into the branch reductions phibar_i^(l_i), so it lifts to a branch
factorization f = prod F_i modulo any power of the prime, computed in
R/prime^k and checked branch by branch in the residue field. The lift
uses only the polynomial ops that the base's ``polys(m, k, len f)``
gives: one int per polynomial over Z/p^m for p^k below 2^128 and
over F_p[t]/t^m at pi = t for every p, where a product is one int
product and one reduction pass, and tuples over the other quotients.

Quantities read off a branch F_i, such as the valuation of a resultant
against the lift phi_i, are exact whenever they come out strictly below
the working precision; otherwise the precision is doubled and the lift
rerun.

On the affirmative verdict the branches are irreducible over the
henselization, every root alpha_i of F_i satisfies
l_i * nu(phi_i(alpha_i)) = 1, and equivalently the resultant
Res(F_i, phi_i) has valuation deg phi_i. The verification here recomputes
both sides from the lifted branches and reports each comparison.
"""

from collections import namedtuple
from fractions import Fraction

from . import ffpoly, rings
from .criterion import dedekind_verdict
from .errors import (
    InputError,
    InternalInvariantError,
    PrecisionExhaustedError,
    VerdictFalseError,
)
from .rings import reduce_mod, resultant

PRECISION_CAP = 1024


LiftedFactorization = namedtuple("LiftedFactorization", "precision factors rf powers")
LiftedFactorization.__doc__ = """Branches F_i with f = prod F_i modulo prime^precision.

``powers`` holds the branch powers phibar_i^l_i that the F_i lift,
built once per lift. With one branch, the branch is f itself reduced
at the working precision and no lifting happens.
"""
IdentityEntry = namedtuple(
    "IdentityEntry", "index multiplicity degree resultant_valuation omega lhs passed"
)
VerificationReport = namedtuple("VerificationReport", "entries precision passed")


def _lift_pair(fk, gbar, hbar, base, k, length):
    """Factor fk = g*h modulo prime^k from the coprime pair (gbar, hbar).

    Quadratic iteration; each round doubles the precision m, up to k,
    and computes in R/prime^m only, with the polynomial ops of
    ``polys(m, k, length)``. Both factors stay monic, the h-update
    follows the classical correction by the remainder of s*e, and g is
    recovered as the exact quotient of f by the monic h, which pins its
    degree and leading coefficient. The Bezout pair is updated after
    every round but the last; its cofactor degrees stay below the
    opposite factor. Every round's ops share the representation of
    R/prime^k, so g, h, s and t are packed once, here.
    """
    field = base.residue_field
    d, sbar, tbar = ffpoly.egcd(field, gbar, hbar)
    if d != (field.one,):
        raise InternalInvariantError("branch reductions are not coprime")
    top = base.polys(k, k, length)
    g, h, s, t = (top.pack(rings.lift_residue_poly(u, base)) for u in (gbar, hbar, sbar, tbar))
    m = 1
    while m < k:
        m = min(2 * m, k)
        P = base.polys(m, k, length)
        f = P.pack(fk)
        e = P.sub(f, P.mul(g, h))
        h = P.add(h, P.divmod(P.mul(s, e), h)[1])
        g, rem = P.divmod(f, h)
        if rem:
            raise InternalInvariantError("corrected factor does not divide at precision")
        if m == k:
            break
        b = P.sub(P.add(P.mul(s, g), P.mul(t, h)), P.one)
        c, dd = P.divmod(P.mul(s, b), h)
        s = P.sub(s, dd)
        t = P.sub(P.sub(t, P.mul(t, b)), P.mul(c, g))
    return g, h


def _lift_tree(fk, bars, base, k, length):
    if len(bars) == 1:
        return [fk]
    mid = len(bars) // 2
    F = ffpoly._Tuples(base.residue_field)
    g, h = _lift_pair(fk, F.product(bars[:mid]), F.product(bars[mid:]), base, k, length)
    return _lift_tree(g, bars[:mid], base, k, length) + _lift_tree(h, bars[mid:], base, k, length)


def hensel_lift(f, rf, base, k):
    """Branch factorization of monic f at precision k (k >= 1)."""
    if k < 1:
        raise InputError("precision must be at least 1")
    field = base.residue_field
    P = base.polys(k, k, len(f))
    fk = P.pack(f)
    powers = tuple(ffpoly.pow_(field, phibar, l) for phibar, l in rf.factors)
    factors = _lift_tree(fk, powers, base, k, len(f))
    if P.product(factors) != fk:
        raise InternalInvariantError("lifted branches do not multiply back to f")
    return LiftedFactorization(
        precision=k, factors=tuple(map(P.unpack, factors)), rf=rf, powers=powers
    )


def cross_resultant_check(lifted, base):
    """Each F_i must reduce to phibar_i^l_i; anything else is a bug.

    Distinct irreducible phibar_i make these reductions pairwise coprime,
    so every Res(F_i, F_j) is a unit, and each branch is pinned to its
    residue factor. The name stays because the benchmark's tracer
    (bench/tracing.py) wraps ``hensel.cross_resultant_check``.
    """
    if tuple(reduce_mod(F, base) for F in lifted.factors) != lifted.powers:
        raise InternalInvariantError("the branches do not reduce to the residue factor powers")
    return True


def lift_root_valuation(lifted, index, base):
    """nu(Res(F_i, phi_i)) for a repeated residue factor, or None.

    The value read off the representative is exact when it lands
    strictly below the precision, since the true resultant differs from
    the representative's by a multiple of prime^precision; otherwise
    None asks for more precision. The common valuation of phi_i at the
    roots of F_i is this value over l_i * deg phi_i.
    """
    _, l = lifted.rf.factors[index]
    if l < 2:
        raise InputError("root valuation is read off repeated residue factors")
    v = base.valuation(resultant(lifted.factors[index], lifted.rf.lifts[index], base))
    return v if v < lifted.precision else None


def auto_precision(rf):
    """Working precision 1 + max deg phibar_i over the repeated residue factors.

    Under the affirmative verdict nu(Res(F_i, phi_i)) = deg phi_i for
    every repeated branch, so this precision resolves every resultant
    valuation in one round. A failing identity shows as a valuation that
    is unresolved, and the caller doubles the precision, or as one that
    differs from deg phi_i.
    """
    return 1 + max(ffpoly.deg(rf.factors[i][0]) for i in rf.repeated_indices)


def verify_valuation_identities(
    f, base, seed=0, *, precision=None, assume_irreducible=False, lifts=None, _verdict=None
):
    """Check l_i * omega_i = 1 per repeated branch on an affirmative verdict.

    omega_i is the valuation of phi_i at any root of branch F_i,
    recovered as nu(Res(F_i, phi_i)) / (l_i * deg phi_i); the identity is
    equivalent to nu(Res(F_i, phi_i)) = deg phi_i. Raises when the
    verdict is negative (the identities are asserted only under it).
    A pinned precision is used as-is; automatic precision retries by
    doubling up to a cap when a resultant valuation is out of range.
    """
    verdict = _verdict if _verdict is not None else dedekind_verdict(
        f, base, seed, assume_irreducible=assume_irreducible, lifts=lifts
    )
    if not verdict.integrally_closed:
        raise VerdictFalseError(
            "R[alpha] is not integrally closed; the valuation identities "
            "are asserted only under the affirmative verdict"
        )
    pinned = precision is not None
    if pinned and not 2 <= precision <= PRECISION_CAP:
        raise InputError(f"precision must be at least 2 and at most {PRECISION_CAP}")
    rf = verdict.factorization
    repeated = rf.repeated_indices
    if not repeated:
        return VerificationReport(entries=(), precision=0, passed=True)
    k = precision if pinned else auto_precision(rf)
    while True:
        lifted = hensel_lift(f, rf, base, k)
        cross_resultant_check(lifted, base)
        entries = []
        for i in repeated:
            v = lift_root_valuation(lifted, i, base)
            if v is None:
                break
            phibar, l = rf.factors[i]
            m = ffpoly.deg(phibar)
            entries.append(
                IdentityEntry(
                    index=i,
                    multiplicity=l,
                    degree=m,
                    resultant_valuation=v,
                    omega=Fraction(v, l * m),
                    lhs=Fraction(v, m),
                    passed=v == m,
                )
            )
        else:
            return VerificationReport(
                entries=tuple(entries),
                precision=k,
                passed=all(e.passed for e in entries),
            )
        if pinned or k >= PRECISION_CAP:
            raise PrecisionExhaustedError(
                f"resultant valuation not resolved at precision {k}"
            )
        k = min(2 * k, PRECISION_CAP)

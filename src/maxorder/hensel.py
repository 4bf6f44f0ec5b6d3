"""Branch factorizations modulo prime powers and valuation identities.

The reduction f_bar = prod phibar_i^(l_i) is a coprime factorization
into the branch reductions phibar_i^(l_i), so it lifts to a branch
factorization f = prod F_i modulo any power of the prime, computed in
R/prime^k and checked branch by branch in the residue field. Quantities
read off a branch F_i, such as the valuation of a resultant against the
lift phi_i, are exact whenever they come out strictly below the working
precision; otherwise the precision is doubled and the lift rerun.

On the affirmative verdict the branches are irreducible over the
henselization, every root alpha_i of F_i satisfies
l_i * nu(phi_i(alpha_i)) = 1, and equivalently the resultant
Res(F_i, phi_i) has valuation deg phi_i. The verification here recomputes
both sides from the lifted branches and reports each comparison.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import ffpoly, rings
from .criterion import dedekind_verdict
from .errors import (
    InputError,
    InternalInvariantError,
    PrecisionExhaustedError,
    VerdictFalseError,
)
from .rings import poly_divmod_monic, reduce_mod, resultant

PRECISION_CAP = 1024


@dataclass(frozen=True)
class LiftedFactorization:
    """Branches F_i with f = prod F_i modulo prime^precision.

    With one branch, the branch is f itself reduced at the working
    precision and no lifting happens.
    """

    precision: int
    factors: tuple
    rf: object


@dataclass(frozen=True)
class IdentityEntry:
    index: int
    multiplicity: int
    degree: int
    resultant_valuation: int
    omega: Fraction
    lhs: Fraction
    passed: bool


@dataclass(frozen=True)
class VerificationReport:
    entries: tuple
    precision: int
    passed: bool


def _image(P, ring):
    """P's coefficients as representatives of the truncated ``ring``."""
    return ffpoly.trim(ring, [ring.mod(c) for c in P])


def _lift_pair(fk, gbar, hbar, base, k):
    """Factor fk = g*h modulo prime^k from the coprime pair (gbar, hbar).

    Quadratic iteration; each round doubles the precision m, up to k,
    and computes in R/prime^m only. Both factors stay monic, the h-update
    follows the classical correction by the remainder of s*e, and g is
    recovered as the exact quotient of f by the monic h, which pins its
    degree and leading coefficient. The Bezout pair is updated after
    every round but the last; its cofactor degrees stay below the
    opposite factor.
    """
    field = base.residue_field
    d, sbar, tbar = ffpoly.egcd(field, gbar, hbar)
    if d != (field.one,):
        raise InternalInvariantError("branch reductions are not coprime")
    g, h, s, t = (rings.lift_residue_poly(u, base) for u in (gbar, hbar, sbar, tbar))
    m = 1
    while m < k:
        m = min(2 * m, k)
        R = base.ring.truncated(m)
        f = _image(fk, R)
        e = ffpoly.sub(R, f, ffpoly.mul(R, g, h))
        h = ffpoly.add(R, h, ffpoly.rem(R, ffpoly.mul(R, s, e), h))
        g, rem = poly_divmod_monic(f, h, R)
        if rem:
            raise InternalInvariantError("corrected factor does not divide at precision")
        if m == k:
            break
        sg_th = ffpoly.add(R, ffpoly.mul(R, s, g), ffpoly.mul(R, t, h))
        b = ffpoly.sub(R, sg_th, (R.one,))
        c, dd = poly_divmod_monic(ffpoly.mul(R, s, b), h, R)
        s = ffpoly.sub(R, s, dd)
        t = ffpoly.sub(R, ffpoly.sub(R, t, ffpoly.mul(R, t, b)), ffpoly.mul(R, c, g))
    return g, h


def _lift_tree(fk, bars, base, k):
    if len(bars) == 1:
        return [fk]
    mid = len(bars) // 2
    field = base.residue_field
    gbar = (field.one,)
    for u in bars[:mid]:
        gbar = ffpoly.mul(field, gbar, u)
    hbar = (field.one,)
    for u in bars[mid:]:
        hbar = ffpoly.mul(field, hbar, u)
    g, h = _lift_pair(fk, gbar, hbar, base, k)
    return _lift_tree(g, bars[:mid], base, k) + _lift_tree(h, bars[mid:], base, k)


def hensel_lift(f, rf, base, k):
    """Branch factorization of monic f at precision k (k >= 1)."""
    if k < 1:
        raise InputError("precision must be at least 1")
    field = base.residue_field
    R = base.ring.truncated(k)
    fk = _image(f, R)
    bars = [ffpoly.pow_(field, phibar, l) for phibar, l in rf.factors]
    factors = _lift_tree(fk, bars, base, k)
    prod = (R.one,)
    for F in factors:
        prod = ffpoly.mul(R, prod, F)
    if prod != fk:
        raise InternalInvariantError("lifted branches do not multiply back to f")
    return LiftedFactorization(precision=k, factors=tuple(factors), rf=rf)


def cross_resultant_check(lifted, base):
    """Each F_i must reduce to phibar_i^l_i; anything else is a bug.

    Distinct irreducible phibar_i make these reductions pairwise coprime,
    so every Res(F_i, F_j) is a unit, and each branch is pinned to its
    residue factor. The name stays because the benchmark's tracer
    (bench/tracing.py) wraps ``hensel.cross_resultant_check``.
    """
    field = base.residue_field
    reductions = [reduce_mod(F, base) for F in lifted.factors]
    if reductions != [ffpoly.pow_(field, phibar, l) for phibar, l in lifted.rf.factors]:
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
    ring = base.ring
    v = ring.valuation(resultant(lifted.factors[index], lifted.rf.lifts[index], ring))
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
    rf = verdict.factorization
    repeated = rf.repeated_indices
    if not repeated:
        return VerificationReport(entries=(), precision=0, passed=True)
    pinned = precision is not None
    k = precision if pinned else auto_precision(rf)
    if k < 2 or pinned and k > PRECISION_CAP:
        raise InputError(f"precision must be at least 2 and at most {PRECISION_CAP}")
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

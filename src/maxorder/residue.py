"""Residue-field factorization of a reduced polynomial, with lifts.

Given monic f over the ring of integers of a valued base, the engine
needs the monic irreducible factors phi_bar_i of the reduction f_bar,
their multiplicities l_i, and one monic lift phi_i over the ring for
each factor. Factors are kept in a canonical order (degree, then
coefficient indices from the leading end down) so that output is a pure
function of the input and the seed only feeds the internal splitting
randomness, never the result.
"""

from collections import namedtuple

from . import ffpoly, rings
from .errors import InputError


class ResidueFactorization(namedtuple("ResidueFactorization", "factors lifts")):
    """Factorization of the reduced polynomial plus chosen monic lifts.

    factors: tuple of (phi_bar, multiplicity) in canonical order.
    lifts:   tuple of monic polynomials over the ring, one per factor,
             congruent to the corresponding phi_bar.
    """

    __slots__ = ()

    @property
    def repeated_indices(self):
        return tuple(i for i, (_, l) in enumerate(self.factors) if l >= 2)


def check_lift(phi, phibar, base):
    """Validate a caller-supplied lift: monic, right degree, right image."""
    if not ffpoly.is_monic(base, phi):
        raise InputError("lift must be monic")
    if ffpoly.deg(phi) != ffpoly.deg(phibar):
        raise InputError("lift must have the same degree as the residue factor")
    if rings.reduce_mod(phi, base) != phibar:
        raise InputError("lift does not reduce to the residue factor")
    return phi


def residue_factorization(f, base, seed=0, lifts=None):
    """Factor the reduction of monic f and attach monic lifts.

    ``lifts`` optionally overrides the canonical lifts; it must supply
    one monic lift per factor, in the canonical factor order.
    """
    if len(f) < 2 or not ffpoly.is_monic(base, f):
        raise InputError("polynomial must be monic of degree >= 1 over the ring of integers")
    factors = ffpoly.factor_monic(base.residue_field, rings.reduce_mod(f, base), seed=seed)
    if lifts is None:
        # representatives of 1 are 1, so the canonical lifts are monic
        chosen = tuple(rings.lift_residue_poly(phibar, base) for phibar, _ in factors)
    else:
        if len(lifts) != len(factors):
            raise InputError("one lift per residue factor is required")
        chosen = tuple(
            check_lift(phi, phibar, base)
            for phi, (phibar, _) in zip(lifts, factors)
        )
    return ResidueFactorization(factors=tuple(factors), lifts=chosen)


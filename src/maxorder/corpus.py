"""Randomized cross-validation of the engine over seeded instance streams.

Each instance is a random monic polynomial over a chosen base. Four
suites run over the stream:

* oracle: the remainder verdict and the classical gcd verdict are both
  computed on every instance (inside ``dedekind_verdict``) and must
  agree.
* lifts: the verdict is recomputed with randomly perturbed monic lifts
  phi_i + prime * U_i and must not change.
* splits: on every affirmative verdict the splitting report is built and
  its sum of e*f must equal the degree.
* identities: on every affirmative verdict with a repeated residue
  factor the valuation identities are recomputed from lifted branches
  and must all hold.

Any violation raises ``CorpusDisagreementError`` carrying a one-line
reproducer (seed, base, instance index, and the polynomial itself).
The whole run is a pure function of the seed and the suite selection.
"""

import random
from collections import namedtuple

from . import ffpoly, rings
from .criterion import dedekind_verdict, split_prime
from .errors import (
    CorpusDisagreementError,
    InternalInvariantError,
    PrecisionExhaustedError,
)
from .hensel import verify_valuation_identities

SUITES = ("oracle", "lifts", "splits", "identities")
LIFT_PERTURBATION_BOUND = 3
COEFFICIENT_T_DEGREE = 3


# the counters that each base's report and the totals carry, in this order
Counts = (
    "instances",
    "verdict_true",
    "verdict_false",
    "repeated",
    "lift_checks",
    "splits_checked",
    "identities_checked",
)
BaseReport = namedtuple("BaseReport", Counts + ("label",))
CorpusReport = namedtuple("CorpusReport", Counts + ("seed", "max_deg", "suites", "per_base"))


def random_coefficient(rng, base, t_degree=COEFFICIENT_T_DEGREE):
    if base.kind == "Q":
        bound = 4 * base.p * base.p
        return rng.randint(-bound, bound)
    field = base.field
    return ffpoly.trim(
        field, [field.element(rng.randrange(field.q)) for _ in range(t_degree + 1)]
    )


def random_monic_poly(rng, base, max_deg):
    d = rng.randint(1, max_deg)
    coeffs = [random_coefficient(rng, base) for _ in range(d)]
    coeffs.append(base.one)
    return tuple(coeffs)


def perturbed_lifts(rng, rf, base):
    """Replace each canonical lift phi by phi + prime * U, deg U < deg phi."""
    out = []
    for phi in rf.lifts:
        m = ffpoly.deg(phi)
        if base.kind == "Q":
            U = [rng.randint(-LIFT_PERTURBATION_BOUND, LIFT_PERTURBATION_BOUND) for _ in range(m)]
        else:
            U = [random_coefficient(rng, base, 1) for _ in range(m)]
        shift = ffpoly.scale(base, ffpoly.trim(base, U), base.prime_element)
        out.append(ffpoly.add(base, phi, shift))
    return tuple(out)


def run_corpus(pairs, max_deg=8, seed=0, lifts_per_instance=2, suites=SUITES):
    """Run the selected suites over ``pairs`` of (base, instance count)."""
    unknown = set(suites) - set(SUITES)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    rng = random.Random(seed)
    reports = []
    for base, count in pairs:
        label = base.describe()
        vt = vf = rep = lc = sc = ic = 0
        for index in range(count):
            f = random_monic_poly(rng, base, max_deg)
            try:
                verdict = dedekind_verdict(f, base, seed=index, assume_irreducible=True)
                if verdict.integrally_closed:
                    vt += 1
                else:
                    vf += 1
                if verdict.repeated_indices:
                    rep += 1
                if "lifts" in suites:
                    for _ in range(lifts_per_instance):
                        rf2 = verdict.factorization._replace(
                            lifts=perturbed_lifts(rng, verdict.factorization, base)
                        )
                        v2 = dedekind_verdict(f, base, seed=index, _rf=rf2)
                        if v2.integrally_closed != verdict.integrally_closed:
                            raise InternalInvariantError("verdict changed under a perturbed lift")
                        lc += 1
                if "splits" in suites and verdict.integrally_closed:
                    split_prime(f, base, _verdict=verdict)
                    sc += 1
                if (
                    "identities" in suites
                    and verdict.integrally_closed
                    and verdict.repeated_indices
                ):
                    report = verify_valuation_identities(f, base, _verdict=verdict)
                    if not report.passed:
                        raise InternalInvariantError(
                            "a valuation identity failed on lifted branches"
                        )
                    ic += 1
            except (InternalInvariantError, PrecisionExhaustedError) as exc:
                raise CorpusDisagreementError(
                    f"{exc}; reproduce with seed={seed} base='{label}' instance={index} "
                    f"poly='{rings.poly_to_text(f, base)}'"
                ) from exc
        reports.append(
            BaseReport(
                label=label,
                instances=count,
                verdict_true=vt,
                verdict_false=vf,
                repeated=rep,
                lift_checks=lc,
                splits_checked=sc,
                identities_checked=ic,
            )
        )
    totals = {name: sum(getattr(r, name) for r in reports) for name in Counts}
    return CorpusReport(
        seed=seed, max_deg=max_deg, suites=tuple(suites), per_base=tuple(reports), **totals
    )

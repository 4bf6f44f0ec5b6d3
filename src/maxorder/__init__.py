"""Integral closedness of monogenic orders over valued fields.

The package decides, for a monic polynomial f over the ring of integers
R of a valued base (Q with a p-adic place, or F_q(t) with the place of
a monic irreducible pi), whether R[alpha] is integrally closed for a
root alpha of f. The affirmative answer comes with the splitting of the
place in K(alpha), valuation identities recomputed from branch
factorizations modulo prime powers, and a best-effort count of the
extensions of the valuation that also handles inseparable defining
polynomials through a descent. A randomized corpus cross-validates the
remainder test against the classical gcd formulation.
"""

__version__ = "0.1.0"

from .corpus import run_corpus
from .criterion import count_extensions, dedekind_verdict, split_prime
from .errors import (
    CorpusDisagreementError,
    DegreeError,
    EngineError,
    InputError,
    InternalInvariantError,
    NonMonicError,
    PolyParseError,
    PrecisionExhaustedError,
    ReduciblePolynomialError,
    VerdictFalseError,
)
from .hensel import verify_valuation_identities
from .rings import ValuedBase

__all__ = [
    "__version__",
    "ValuedBase",
    "dedekind_verdict",
    "split_prime",
    "count_extensions",
    "verify_valuation_identities",
    "run_corpus",
    "EngineError",
    "InputError",
    "PolyParseError",
    "NonMonicError",
    "DegreeError",
    "ReduciblePolynomialError",
    "VerdictFalseError",
    "PrecisionExhaustedError",
    "InternalInvariantError",
    "CorpusDisagreementError",
]

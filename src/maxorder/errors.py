"""Exception types shared by the engine and the command line front end.

Every error carries a short machine-readable ``code`` so the CLI can emit a
stable diagnostic line and pick the right exit status.
"""


class EngineError(Exception):
    """Base class for failures raised by this package."""

    code = "E_ENGINE"


class InputError(EngineError):
    """Unusable input: bad polynomial, bad base data, bad arguments."""

    code = "E_INPUT"


class UsageError(InputError):
    """A command line that argparse refuses: unknown, missing or malformed options."""

    code = "E_USAGE"


class PolyParseError(InputError):
    """Syntax error in a polynomial expression; knows its position."""

    code = "E_PARSE"

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonMonicError(InputError):
    code = "E_NONMONIC"


class DegreeError(InputError):
    code = "E_DEGREE"


class ReduciblePolynomialError(InputError):
    """The input polynomial was proven reducible over the ground field."""

    code = "E_REDUCIBLE"


class VerdictFalseError(InputError):
    """Raised by operations that are only meaningful on a true verdict."""

    code = "E_VERDICT_FALSE"


class PrecisionExhaustedError(EngineError):
    """A valuation could not be certified at the working precision."""

    code = "E_PRECISION"


class InternalInvariantError(EngineError):
    """A structural invariant the engine guarantees was violated: a bug."""

    code = "E_INTERNAL"


class CorpusDisagreementError(InternalInvariantError):
    """Two supposedly equivalent computations disagreed on an instance."""

    code = "E_CORPUS"

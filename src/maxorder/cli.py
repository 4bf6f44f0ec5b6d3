"""Command line front end.

Subcommands: ``check`` (is R[alpha] integrally closed), ``split``
(splitting of the place on an affirmative check), ``verify`` (valuation
identities recomputed from lifted branches), ``count-extensions``
(number of extensions of the valuation, when decidable), and ``corpus``
(randomized cross-validation).

Polynomials are written in the variables ``x`` (always), ``t`` (over
function field bases), and ``u`` (the coefficient field generator when
e > 1), with integer literals, ``+ - * ^`` and parentheses; there is no
implicit multiplication. Output is plain text or, with ``--json``, one
canonical JSON document on stdout. For a fixed invocation and seed the
output is byte-identical across runs.

Exit status: 0 on success (and on an affirmative check), 1 on a
negative check, 2 on unusable input (usage errors, which include
abbreviated options, syntax errors, composite characteristic, a
reducible polynomial, refusals on a negative verdict, exhausted
precision), 3 on an internal invariant violation or any other
unexpected error. Every error is one ``error[E_...]`` line on stderr.
"""

import argparse
import json
import math
import sys

from . import __version__, corpus as corpus_mod, ffpoly, rings
from .criterion import count_extensions, dedekind_verdict, split_prime
from .errors import EngineError, InputError, InternalInvariantError, PolyParseError, UsageError
from .fields import extension_field
from .hensel import verify_valuation_identities
from .rings import FunctionRing, ValuedBase, poly_to_text

EXPONENT_CAP = 4096
DEGREE_CAP = 4096  # in x, and in t for the coefficients over F_q[t]
COEFFICIENT_BITS_CAP = 16384  # over Z
WORK_CAP = 1 << 23  # nonzero terms x terms x coefficient words of one product
FQ_WORK_CAP = 1 << 19  # F_p operations of one product over F_q[t]
FQ_CALL_COST = 20  # F_p operations that take as long as one coefficient step over F_q[t]
DEFAULT_CORPUS_PRIMES = "2,3,5,7,11,13"


# ---------------------------------------------------------------------------
# polynomial expressions


def _tokenize(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j]), i))
            i = j
            continue
        if c in "xtu":
            if i + 1 < n and (text[i + 1].isalnum() or text[i + 1] == "_"):
                raise PolyParseError(
                    "names are single letters and multiplication needs an "
                    "explicit '*'",
                    i,
                )
            toks.append(("name", c, i))
            i += 1
            continue
        if c in "+-*^()":
            toks.append((c, c, i))
            i += 1
            continue
        raise PolyParseError(f"unexpected character {c!r}", i)
    toks.append(("end", None, n))
    return toks


class _Parser:
    """expr := ['-'] term (('+'|'-') term)*
    term := factor ('*' factor)*
    factor := atom ['^' INT]
    atom := INT | NAME | '(' expr ')'

    Values are polynomials over ``domain`` (a field or a ring of ``rings``),
    computed with ``ffpoly``. ``atoms`` maps the names in scope to their
    values; ``missing`` maps every other name to the reason it is not.

    A product or power is refused before it is computed when a bound on
    its size exceeds a cap: its degree, and the size of its coefficients,
    which is the degree in t over F_q[t] and log2 of the sum of the
    absolute values over Z. Both bounds add up under products. So is one
    whose work exceeds WORK_CAP: the nonzero terms of one factor times the
    terms of the other times the 64-bit words of a coefficient of each.
    Over F_q[t] it is the field operations of ``ffpoly.mul``, capped at
    FQ_WORK_CAP: per pair of nonzero terms, the nonzero t-terms of one
    coefficient times the t-length of the other, each weighted by the
    field's ``op_cost``, plus FQ_CALL_COST per coefficient step. A power
    counts as the product of its two halves.
    """

    def __init__(self, toks, domain, atoms, missing):
        self.toks = toks
        self.pos = 0
        self.domain = domain
        self.atoms = atoms
        self.missing = missing
        kind = getattr(domain, "kind", None)
        self.word_size = 1
        self.kind = kind
        if kind == "Q":
            self.coefficient_size = lambda P: math.log2(max(1, sum(map(abs, P))))
            self.coefficient_cap = (COEFFICIENT_BITS_CAP, "coefficient size in bits")
            self.word_size = 64
        elif kind == "Fq":
            self.coefficient_size = lambda P: max((len(c) - 1 for c in P), default=0)
            self.coefficient_cap = (DEGREE_CAP, "degree in t")
        else:
            self.coefficient_size = lambda P: 0
            self.coefficient_cap = (0, None)

    def check_size(self, factors, at):
        """Refuse the product of two ``factors``, (polynomial, power) pairs."""
        degree = sum(n * (len(P) - 1) for P, n in factors)
        if degree > DEGREE_CAP:
            raise PolyParseError(f"the degree of the result exceeds the cap of {DEGREE_CAP}", at)
        cap, name = self.coefficient_cap
        if sum(n * self.coefficient_size(P) for P, n in factors) > cap:
            raise PolyParseError(f"the {name} of the result exceeds the cap of {cap}", at)
        (A, i), (B, j) = factors
        nonzero_a, _, words_a = self.shape(A, i)
        nonzero_b, terms_b, words_b = self.shape(B, j)
        cap, work = WORK_CAP, nonzero_a * terms_b * words_a * words_b
        if self.kind == "Fq":  # words are t-lengths; a t-exponent of A^i sums i of A's
            zero = self.domain.field.zero
            exponents = {k for c in A for k, a in enumerate(c) if a != zero}
            t_terms = min(words_a, math.comb(len(exponents) + i - 1, i))
            ops = self.domain.field.op_cost * nonzero_b * t_terms * words_b
            cap, work = FQ_WORK_CAP, nonzero_a * (FQ_CALL_COST * terms_b + ops)
        if work > cap:
            raise PolyParseError(f"the work of the result exceeds the cap of {cap}", at)

    def shape(self, P, n):
        """Bounds on the nonzero terms, terms and coefficient words of P^n."""
        if not P:
            return 0, 0, 0
        terms = n * (len(P) - 1) + 1
        nonzero = sum(c != self.domain.zero for c in P)
        # a monomial of P^n picks n of P's nonzero terms, with repetition
        nonzero = min(terms, math.comb(nonzero + n - 1, n))
        return nonzero, terms, 1 + int(n * self.coefficient_size(P)) // self.word_size

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        kind, _, at = self.peek()
        if kind != "end":
            raise PolyParseError("unexpected trailing input", at)
        return value

    def expr(self):
        negate = False
        if self.peek()[0] == "-":
            self.take()
            negate = True
        value = self.term()
        if negate:
            value = ffpoly.neg(self.domain, value)
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            combine = ffpoly.add if op == "+" else ffpoly.sub
            value = combine(self.domain, value, rhs)
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] == "*":
            at = self.take()[2]
            rhs = self.factor()
            self.check_size([(value, 1), (rhs, 1)], at)
            value = ffpoly.mul(self.domain, value, rhs)
        return value

    def factor(self):
        value = self.atom()
        if self.peek()[0] == "^":
            at = self.take()[2]
            kind, n, at_n = self.take()
            if kind != "int":
                raise PolyParseError("an integer exponent must follow '^'", at_n)
            if n > EXPONENT_CAP:
                raise PolyParseError(f"exponent exceeds the cap of {EXPONENT_CAP}", at_n)
            self.check_size([(value, n - n // 2), (value, n // 2)], at)
            value = ffpoly.pow_(self.domain, value, n)
        return value

    def atom(self):
        kind, val, at = self.take()
        if kind == "int":
            return ffpoly.constant(self.domain, self.domain.from_int(val))
        if kind == "name":
            if val not in self.atoms:
                raise PolyParseError(self.missing[val], at)
            return self.atoms[val]
        if kind == "(":
            value = self.expr()
            kind2, _, at2 = self.take()
            if kind2 != ")":
                raise PolyParseError("missing closing parenthesis", at2)
            return value
        raise PolyParseError(
            "a number, a variable, or a parenthesized expression is required", at
        )


_NO_U = "the generator 'u' requires a proper coefficient extension (e > 1)"


def _t_atoms(field, e):
    """t, and u when e > 1, as polynomials in t over the coefficient field."""
    atoms = {"t": ffpoly.x_poly(field)}
    if e > 1:
        atoms["u"] = (field.element(field.base.p),)
    return atoms


def parse_poly(text, base):
    """Parse a polynomial in x over the base's ring of integers."""
    atoms = {"x": ffpoly.x_poly(base)}
    if base.kind == "Q":
        missing = {
            "t": "the variable 't' is only available over function field bases",
            "u": "the generator 'u' is only available over function field bases",
        }
    else:
        atoms.update((name, (c,)) for name, c in _t_atoms(base.field, base.e).items())
        missing = {"u": _NO_U}
    return _Parser(_tokenize(text), base, atoms, missing).parse()


def parse_place(text, field, e):
    """Parse the place polynomial pi(t) over the coefficient field."""
    missing = {"x": "the variable 'x' cannot appear in the place polynomial pi(t)", "u": _NO_U}
    return _Parser(_tokenize(text), field, _t_atoms(field, e), missing).parse()


def make_base(args):
    if args.base == "Q":
        if args.prime is None:
            raise InputError("--prime is required for base Q")
        if args.p is not None or args.pi is not None or args.e is not None:
            raise InputError("--p, --e, and --pi apply to base Fq only")
        return ValuedBase.rational(args.prime)
    if args.prime is not None:
        raise InputError("--prime applies to base Q only; use --p for base Fq")
    if args.p is None:
        raise InputError("--p is required for base Fq")
    if args.pi is None:
        raise InputError("--pi is required for base Fq")
    e = args.e if args.e is not None else 1
    if e < 1:
        raise InputError("--e must be at least 1")
    field = extension_field(args.p, e)
    return FunctionRing(field, parse_place(args.pi, field, e))


# ---------------------------------------------------------------------------
# report schema (draft-07); every --json document validates against it

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "maxorder report",
    "type": "object",
    "required": ["command", "version"],
    "additionalProperties": False,
    "properties": {
        "command": {
            "enum": ["check", "split", "verify", "count-extensions", "corpus"]
        },
        "version": {"type": "string"},
        "seed": {"type": "integer"},
        "base": {"type": "string"},
        "poly": {"type": "string"},
        "max_deg": {"type": "integer", "minimum": 1},
        "suites": {"type": "array", "items": {"type": "string"}},
        "verdict": {
            "type": "object",
            "required": ["integrally_closed", "witnesses", "classical_agrees"],
            "additionalProperties": False,
            "properties": {
                "integrally_closed": {"type": "boolean"},
                "classical_agrees": {"type": "boolean"},
                "witnesses": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["i", "phi", "l", "r", "nu_r"],
                        "additionalProperties": False,
                        "properties": {
                            "i": {"type": "integer", "minimum": 0},
                            "phi": {"type": "string"},
                            "l": {"type": "integer", "minimum": 2},
                            "r": {"type": "string"},
                            "nu_r": {
                                "oneOf": [{"type": "integer"}, {"const": "inf"}]
                            },
                        },
                    },
                },
            },
        },
        "splitting": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["gens", "e", "f"],
                "additionalProperties": False,
                "properties": {
                    "gens": {
                        "type": "array",
                        "items": {"type": "string"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                    "e": {"type": "integer", "minimum": 1},
                    "f": {"type": "integer", "minimum": 1},
                },
            },
        },
        "defectless": {"type": "boolean"},
        "verify": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["i", "lhs", "rhs", "pass"],
                "additionalProperties": False,
                "properties": {
                    "i": {"type": "integer", "minimum": 0},
                    "l": {"type": "integer", "minimum": 2},
                    "deg_phi": {"type": "integer", "minimum": 1},
                    "nu_res": {"type": "integer", "minimum": 0},
                    "omega": {"type": "string"},
                    "lhs": {"type": "string"},
                    "rhs": {"type": "string"},
                    "pass": {"type": "boolean"},
                },
            },
        },
        "precision": {"type": "integer", "minimum": 0},
        "count": {
            "type": "object",
            "required": ["status", "t", "certificate"],
            "additionalProperties": False,
            "properties": {
                "status": {"enum": ["known", "unknown"]},
                "t": {"type": ["integer", "null"]},
                "descent_depth": {"type": "integer", "minimum": 0},
                "certificate": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["i", "phi", "l", "rule", "certified"],
                        "additionalProperties": False,
                        "properties": {
                            "i": {"type": "integer", "minimum": 0},
                            "phi": {"type": "string"},
                            "l": {"type": "integer", "minimum": 1},
                            "degree": {"type": "integer", "minimum": 1},
                            "rule": {
                                "enum": [
                                    "multiplicity-one",
                                    "remainder-valuation-one",
                                    "none",
                                ]
                            },
                            "certified": {"type": "boolean"},
                            "nu_r": {
                                "oneOf": [
                                    {"type": "integer"},
                                    {"const": "inf"},
                                    {"type": "null"},
                                ]
                            },
                        },
                    },
                },
            },
        },
        "corpus": {
            "type": "object",
            "required": ["instances", "disagreements"],
            "additionalProperties": False,
            "properties": {
                "instances": {"type": "integer", "minimum": 0},
                "verdict_true": {"type": "integer", "minimum": 0},
                "verdict_false": {"type": "integer", "minimum": 0},
                "repeated": {"type": "integer", "minimum": 0},
                "lift_checks": {"type": "integer", "minimum": 0},
                "splits_checked": {"type": "integer", "minimum": 0},
                "identities_checked": {"type": "integer", "minimum": 0},
                "disagreements": {"type": "integer", "minimum": 0, "maximum": 0},
                "bases": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["base", "instances"],
                        "additionalProperties": False,
                        "properties": {
                            "base": {"type": "string"},
                            "instances": {"type": "integer", "minimum": 0},
                            "verdict_true": {"type": "integer", "minimum": 0},
                            "verdict_false": {"type": "integer", "minimum": 0},
                            "repeated": {"type": "integer", "minimum": 0},
                            "lift_checks": {"type": "integer", "minimum": 0},
                            "splits_checked": {"type": "integer", "minimum": 0},
                            "identities_checked": {"type": "integer", "minimum": 0},
                        },
                    },
                },
            },
        },
    },
}


# ---------------------------------------------------------------------------
# reports: one payload per command, rendered as JSON or as text lines


def _emit(args, payload, lines):
    """Print the report: the payload as one JSON line with --json, else the lines."""
    if args.json:
        payload.update(command=args.command, seed=args.seed, version=__version__)
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print("\n".join(lines))


def _nu(v):
    return "inf" if v == rings.INF else int(v)


def _read_poly(args):
    """Base, polynomial and the report's common fields for a --poly command."""
    base = make_base(args)
    f = parse_poly(args.poly, base)
    return base, f, {"base": base.describe(), "poly": poly_to_text(f, base)}


def _header(payload):
    return [f"base: {payload['base']}", f"poly: {payload['poly']}"]


def _verdict(args, base, f):
    return dedekind_verdict(
        f, base, seed=args.seed, assume_irreducible=args.assume_irreducible
    )


def _verdict_payload(verdict, base):
    return {
        "integrally_closed": verdict.integrally_closed,
        # a verdict is returned only when the gcd test agrees
        "classical_agrees": True,
        "witnesses": [
            {
                "i": w.index,
                "phi": poly_to_text(w.phi, base),
                "l": w.multiplicity,
                "r": poly_to_text(w.remainder, base),
                "nu_r": _nu(w.valuation),
            }
            for w in verdict.witnesses
        ],
    }


# ---------------------------------------------------------------------------
# commands


def run_check(args):
    base, f, payload = _read_poly(args)
    verdict = _verdict(args, base, f)
    verdict_json = payload["verdict"] = _verdict_payload(verdict, base)
    rf = verdict.factorization
    factors = " * ".join(
        f"({poly_to_text(lift, base)})" + (f"^{l}" if l > 1 else "")
        for (_, l), lift in zip(rf.factors, rf.lifts)
    )
    lines = _header(payload) + [f"residue factors: {factors}"]
    lines += [
        f"witness [{w['i']}]: phi = {w['phi']}, l = {w['l']}, r = {w['r']}, "
        f"nu(r) = {w['nu_r']}"
        for w in verdict_json["witnesses"]
    ] or ["witnesses: none (no repeated residue factor)"]
    lines.append("classical cross-check: agrees")
    closed = verdict_json["integrally_closed"]
    lines.append(f"verdict: R[alpha] is {'' if closed else 'NOT '}integrally closed")
    _emit(args, payload, lines)
    return 0 if closed else 1


def run_split(args):
    base, f, payload = _read_poly(args)
    verdict = _verdict(args, base, f)
    report = split_prime(f, base, _verdict=verdict)
    payload["verdict"] = _verdict_payload(verdict, base)
    prime = rings.element_to_text(base.prime_element, base)
    payload["splitting"] = [
        {
            "gens": [prime, poly_to_text(ideal.lift, base)],
            "e": ideal.e,
            "f": ideal.f,
        }
        for ideal in report.ideals
    ]
    # split_prime checks that sum e*f = deg f
    payload["defectless"] = True
    lines = _header(payload) + [
        f"ideal [{i}]: gens = ({', '.join(d['gens'])}), e = {d['e']}, f = {d['f']}"
        for i, d in enumerate(payload["splitting"])
    ]
    total = sum(d["e"] * d["f"] for d in payload["splitting"])
    lines.append(f"defectless: sum e*f = {total} = deg f")
    _emit(args, payload, lines)
    return 0


def run_verify(args):
    base, f, payload = _read_poly(args)
    verdict = _verdict(args, base, f)
    report = verify_valuation_identities(
        f, base, seed=args.seed, precision=args.precision, _verdict=verdict
    )
    payload["precision"] = report.precision
    payload["verify"] = [
        {
            "i": e.index,
            "l": e.multiplicity,
            "deg_phi": e.degree,
            "nu_res": e.resultant_valuation,
            "omega": str(e.omega),
            "lhs": str(e.lhs),
            "rhs": "1",
            "pass": e.passed,
        }
        for e in report.entries
    ]
    lines = _header(payload) + [f"precision: {payload['precision']}"]
    lines += [
        f"identity [{e['i']}]: l = {e['l']}, deg phi = {e['deg_phi']}, "
        f"nu(Res) = {e['nu_res']}, omega = {e['omega']}, l*omega = {e['lhs']}: "
        + ("pass" if e["pass"] else "FAIL")
        for e in payload["verify"]
    ] or ["identities: none (no repeated residue factor)"]
    passed = all(e["pass"] for e in payload["verify"])
    lines.append("verify: all identities hold" if passed else "verify: FAILURE")
    _emit(args, payload, lines)
    return 0 if passed else 3


def run_count(args):
    base, f, payload = _read_poly(args)
    result = count_extensions(
        f, base, seed=args.seed, assume_irreducible=args.assume_irreducible
    )
    count = payload["count"] = {
        "status": result.status,
        "t": result.t,
        "descent_depth": result.descent_depth,
        "certificate": [
            {
                "i": b.index,
                "phi": poly_to_text(b.phi, base),
                "l": b.multiplicity,
                "degree": b.degree,
                "rule": b.rule,
                "certified": b.certified,
                "nu_r": None if b.remainder_valuation is None else _nu(b.remainder_valuation),
            }
            for b in result.branches
        ],
    }
    lines = _header(payload) + [f"descent depth: {count['descent_depth']}"]
    lines += [
        f"branch [{b['i']}]: phi = {b['phi']}, l = {b['l']}, rule = {b['rule']}, "
        + ("certified" if b["certified"] else f"undecided (nu(r) = {b['nu_r']})")
        for b in count["certificate"]
    ]
    lines.append(f"extensions: {count['t'] if count['status'] == 'known' else 'unknown'}")
    _emit(args, payload, lines)
    return 0


def _counts(report):
    return {name: getattr(report, name) for name in corpus_mod.Counts}


def run_corpus(args):
    try:
        primes = [int(piece) for piece in args.primes.split(",") if piece.strip()]
    except ValueError as exc:
        raise InputError(f"--primes must be a comma-separated list of primes: {exc}")
    if not primes:
        raise InputError("--primes must name at least one prime")
    if args.count < 1:
        raise InputError("--count must be at least 1")
    if not 1 <= args.max_deg <= DEGREE_CAP:
        raise InputError(f"--max-deg must be at least 1 and at most {DEGREE_CAP}")
    pairs = [(ValuedBase.rational(p), args.count) for p in primes]
    report = corpus_mod.run_corpus(pairs, max_deg=args.max_deg, seed=args.seed)
    bases = [{"base": r.label, **_counts(r)} for r in report.per_base]
    totals = _counts(report)
    payload = {
        "max_deg": args.max_deg,
        "suites": list(report.suites),
        "corpus": {**totals, "disagreements": 0, "bases": bases},
    }
    lines = [
        f"corpus: seed = {args.seed}, max degree = {args.max_deg}, "
        f"suites = {','.join(payload['suites'])}"
    ]
    lines += [
        f"base {b['base']}: instances = {b['instances']}, "
        f"true = {b['verdict_true']}, false = {b['verdict_false']}, "
        f"repeated = {b['repeated']}, lift checks = {b['lift_checks']}, "
        f"splits = {b['splits_checked']}, identities = {b['identities_checked']}"
        for b in bases
    ]
    lines.append(f"total: {totals['instances']} instances, 0 disagreements")
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


VALUE_OPTIONS = ("--poly", "--pi", "--primes")

POLY_COMMANDS = (  # (name, run, help) of the commands that read --poly
    ("check", run_check, "decide whether R[alpha] is integrally closed"),
    ("split", run_split, "splitting of the place on an affirmative check"),
    ("verify", run_verify, "recompute valuation identities from lifted branches"),
    ("count-extensions", run_count, "count the extensions of the valuation, when decidable"),
)


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``UsageError``, so they exit 2 with one line."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        # argparse quotes most values with repr, but not the unrecognized arguments
        raise UsageError(f"{self.prog}: {message}".replace("\n", "\\n"))


def build_parser():
    parser = _ArgumentParser(
        prog="maxorder",
        description=(
            "Decide whether R[alpha] is integrally closed for a monic "
            "polynomial over a valued field, split the place, verify "
            "valuation identities, and count extensions of the valuation."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = _ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="randomness seed")
    common.add_argument(
        "--json", action="store_true", help="emit one canonical JSON document"
    )

    base_args = _ArgumentParser(add_help=False)
    base_args.add_argument(
        "--base", choices=["Q", "Fq"], default="Q", help="ground field kind"
    )
    base_args.add_argument("--prime", type=int, help="prime p of the place (base Q)")
    base_args.add_argument("--p", type=int, help="characteristic (base Fq)")
    base_args.add_argument(
        "--e", type=int, help="coefficient field is F_{p^e} (base Fq, default 1)"
    )
    base_args.add_argument(
        "--pi", help="monic irreducible pi(t) defining the place (base Fq)"
    )

    poly_args = _ArgumentParser(add_help=False)
    poly_args.add_argument("--poly", required=True, help="monic polynomial in x")
    poly_args.add_argument(
        "--assume-irreducible",
        action="store_true",
        help="skip the best-effort reducibility screen",
    )

    for name, func, text in POLY_COMMANDS:
        sub.add_parser(name, parents=[base_args, common, poly_args], help=text).set_defaults(func=func)
    sub.choices["verify"].add_argument(
        "--precision",
        type=int,
        help="pin the working precision (default: automatic with retries)",
    )

    p_corpus = sub.add_parser(
        "corpus", parents=[common], help="randomized cross-validation over Q bases"
    )
    p_corpus.add_argument(
        "--primes",
        default=DEFAULT_CORPUS_PRIMES,
        help=f"comma-separated primes (default {DEFAULT_CORPUS_PRIMES})",
    )
    p_corpus.add_argument(
        "--count", type=int, default=200, help="instances per prime (default 200)"
    )
    p_corpus.add_argument(
        "--max-deg", type=int, default=8, help="maximum degree (default 8)"
    )
    p_corpus.set_defaults(func=run_corpus)

    return parser


def main(argv=None):
    parser = build_parser()
    # argparse reads a value such as "-2+x^2" as an option, but "--poly=-2+x^2" as the value
    joined = []
    for arg in sys.argv[1:] if argv is None else argv:
        if joined and joined[-1] in VALUE_OPTIONS and arg.startswith("-") and not arg.startswith("--"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    try:
        args = parser.parse_args(joined)
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 3
    except EngineError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a bug outside the engine's own checks; exit 1 would read as a negative verdict
        print(f"error[E_INTERNAL]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

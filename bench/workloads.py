"""Seeded inputs, operations and correctness checks of the four workloads.

Inputs are generated here, from the run's seed, with this file's own
arithmetic; the package receives only polynomials and bases. Every
workload yields an endless stream of items, one per operation, and its
``call`` is the only code the timer wraps. ``inspect`` runs afterwards, untimed, and
returns the invariant part of the result (what the golden digest covers)
together with the list of theorem-level checks it failed.

A polynomial is a tuple of coefficients, constant term first. Over Q
the coefficients are ints; over F_q(t) they are tuples of F_q elements
(a polynomial in t), exactly as the package represents them.
"""

import json
import os
import random
import shlex
import subprocess
import sys
from time import monotonic
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement, count

INF = "inf"
CHILD_TIMEOUT = 60  # seconds; a hung child is killed and counts as a failed operation


class HarnessError(Exception):
    """The benchmark cannot run or cannot measure what it promises."""


# ---------------------------------------------------------------------------
# dense polynomials over small finite fields (the benchmark's own arithmetic)


class PrimeF:
    """F_p with elements as ints in [0, p)."""

    def __init__(self, p):
        self.p = self.q = p
        self.zero, self.one = 0, 1

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def element(self, i):
        return i % self.p


class QuadF:
    """F_p[u]/(u^2 + m1*u + m0), elements as pairs (c0, c1)."""

    def __init__(self, p, modulus):
        m0, m1, lead = modulus
        if lead != 1:
            raise ValueError("modulus must be monic")
        self.p, self.q = p, p * p
        self.m0, self.m1 = m0, m1
        self.zero, self.one = (0, 0), (1, 0)

    def add(self, a, b):
        return ((a[0] + b[0]) % self.p, (a[1] + b[1]) % self.p)

    def mul(self, a, b):
        c0 = a[0] * b[0]
        c1 = a[0] * b[1] + a[1] * b[0]
        c2 = a[1] * b[1]
        # u^2 = -m1*u - m0
        return ((c0 - c2 * self.m0) % self.p, (c1 - c2 * self.m1) % self.p)

    def element(self, i):
        return (i % self.p, i // self.p % self.p)


def ptrim(F, a):
    a = list(a)
    while a and a[-1] == F.zero:
        a.pop()
    return tuple(a)


def pmul(F, a, b):
    if not a or not b:
        return ()
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add(out[i + j], F.mul(x, y))
    return ptrim(F, out)


def ppow(F, a, n):
    out = (F.one,)
    for _ in range(n):
        out = pmul(F, out, a)
    return out


def prem_monic(p, a, b):
    """Remainder of a by monic b over F_p (ints)."""
    r = [c % p for c in a]
    db = len(b) - 1
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            for j in range(db + 1):
                r[i - db + j] = (r[i - db + j] - c * b[j]) % p
    return ptrim(PrimeF(p), r[:db])


def irreducibles_upto3(p):
    """Monic irreducibles of degree 1..3 over F_p: exactly those without a root."""
    out = []
    for d in (1, 2, 3):
        for idx in range(p ** d):
            coeffs = [idx // p ** k % p for k in range(d)] + [1]
            if d == 1 or all(
                sum(c * pow(x, k, p) for k, c in enumerate(coeffs)) % p for x in range(p)
            ):
                out.append(tuple(coeffs))
    return out


def zmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


# ---------------------------------------------------------------------------
# bases as the benchmark sees them: the package object plus reduction data


@dataclass
class Base:
    label: str
    obj: object  # the package's ValuedBase
    kind: str  # "Q" or "Fq"
    p: int
    coeff: object  # coefficient field of F_q(t) (PrimeF / QuadF); None over Q
    residue: object  # residue field (PrimeF / QuadF)
    pi: tuple = ()  # place over F_q(t); () over Q

    def reduce(self, c):
        """Image of one ring element in the residue field."""
        if self.kind == "Q":
            return c % self.p
        if len(self.pi) == 2:  # pi = t: evaluate at 0
            return c[0] if c else self.coeff.zero
        r = prem_monic(self.p, c, self.pi)
        return r + (0,) * (2 - len(r))

    def reduce_poly(self, f):
        return ptrim(self.residue, [self.reduce(c) for c in f])


def rational(pkg, p):
    F = PrimeF(p)
    return Base(f"Q@{p}", pkg.ValuedBase.rational(p), "Q", p, None, F)


def function_field(pkg, p, e, pi):
    """F_{p^e}(t) at pi, with e <= 2 and pi = t or a quadratic over F_p."""
    coeff_obj = pkg.fields.extension_field(p, e)
    coeff = PrimeF(p) if e == 1 else QuadF(p, tuple(coeff_obj.modulus))
    obj = pkg.ValuedBase.function_field(p, e, tuple(coeff_obj.element(c) for c in pi))
    residue = coeff if len(pi) == 2 else QuadF(p, pi)
    name = "t" if pi == (0, 1) else "t2"
    return Base(f"F{p ** e}@{name}", obj, "Fq", p, coeff, residue, tuple(pi))


def random_coefficient(rng, base, t_degree=3):
    """C4's distribution: ints in +-4p^2 over Q, t-degree <= 3 over F_q(t)."""
    if base.kind == "Q":
        bound = 4 * base.p * base.p
        return rng.randint(-bound, bound)
    F = base.coeff
    return ptrim(F, [F.element(rng.randrange(F.q)) for _ in range(t_degree + 1)])


def one(base):
    return 1 if base.kind == "Q" else (base.coeff.one,)


def random_monic(rng, base, d):
    return tuple(random_coefficient(rng, base) for _ in range(d)) + (one(base),)


def product_check(base, f, factors):
    """prod phibar^l must equal the reduction of f (the benchmark's arithmetic)."""
    F = base.residue
    prod = (F.one,)
    for phibar, l in factors:
        prod = pmul(F, prod, ppow(F, tuple(phibar), l))
    return prod == base.reduce_poly(f)


def nu(v):
    return INF if v == float("inf") else int(v)


def verdict_invariant(verdict):
    rf = verdict.factorization
    return (
        bool(verdict.integrally_closed),
        tuple(nu(w.valuation) for w in verdict.witnesses),
        tuple((l, len(phibar) - 1) for phibar, l in rf.factors),
    )


def verdict_errors(base, f, verdict):
    errs = []
    rf = verdict.factorization
    factors = rf.factors
    if sum(l * (len(phibar) - 1) for phibar, l in factors) != len(f) - 1:
        errs.append("sum of l*deg over residue factors != deg f")
    if [w.index for w in verdict.witnesses] != [i for i, (_, l) in enumerate(factors) if l >= 2]:
        errs.append("witnesses do not match the repeated residue factors")
    if bool(verdict.integrally_closed) != all(w.valuation == 1 for w in verdict.witnesses):
        errs.append("verdict disagrees with the witness valuations")
    if not product_check(base, f, factors):
        errs.append("residue factors do not multiply back to the reduction of f")
    return errs


# ---------------------------------------------------------------------------
# affirmative (and, for the CLI, negative) inputs by construction


@dataclass
class Construction:
    f: tuple
    factors: tuple  # ((phibar as F_p ints), l), as drawn
    negative: bool = False

    @property
    def repeated(self):
        return sorted((l, len(phi) - 1) for phi, l in self.factors if l >= 2)

    @property
    def ef(self):
        return sorted((l, len(phi) - 1) for phi, l in self.factors)


def shapes(degree, irreducibles):
    """Factor shapes ((deg phi, l), ...) of f: the first repeated, at most three factors.

    A shape sets most of what an identities operation costs, so streams
    cycle through the shapes of each degree in a fixed order.
    """
    have = Counter(len(phi) - 1 for phi in irreducibles)
    parts = [(m, l) for m in (1, 2, 3) for l in (1, 2, 3)]
    out = set()
    for m, l in ((m, l) for m in (1, 2, 3) for l in (2, 3, 4)):
        for k in range(3):
            for rest in combinations_with_replacement(parts, k):
                shape = ((m, l),) + rest
                used = Counter(d for d, _ in shape)
                if sum(d * e for d, e in shape) == degree and all(used[d] <= have[d] for d in used):
                    out.add(shape)
    ordered = sorted(out)
    random.Random(f"shapes:{degree}:{len(irreducibles)}").shuffle(ordered)
    return ordered


def construct(rng, base, irreducibles, shape, negative=False):
    """f = prod phi_j^l_j + pi*r with distinct phi_j of the shape's degrees (pi^2*r when negative).

    With r mod phibar_j != 0 for every repeated j, f mod phi_j = pi*(r mod
    phi_j) has valuation exactly 1, so the verdict is affirmative; with
    pi^2 it is at least 2, so the verdict is negative.
    """
    p = base.p
    degree = sum(m * l for m, l in shape)
    phis = []
    for m, _ in shape:
        phis.append(rng.choice([phi for phi in irreducibles if len(phi) - 1 == m and phi not in phis]))
    ls = [l for _, l in shape]
    P = (1,)  # exact over Z, so phi_j divides it exactly
    for phi, l in zip(phis, ls):
        for _ in range(l):
            P = zmul(P, phi)
    while True:
        if base.kind == "Q":
            bound = 4 * p * p
            r = [rng.randint(-bound, bound) for _ in range(degree)]
            rbar = [c % p for c in r]
        else:
            r = [[rng.randrange(p) for _ in range(3)] for _ in range(degree)]
            rbar = [c[0] for c in r]
        if negative or all(
            prem_monic(p, rbar, phi) for phi, l in zip(phis, ls) if l >= 2
        ):
            break
    shift = 2 if negative else 1
    if base.kind == "Q":
        f = tuple(P[i] + p ** shift * r[i] for i in range(degree)) + (1,)
    else:
        F = base.coeff
        f = tuple(ptrim(F, [P[i] % p] + [0] * (shift - 1) + r[i]) for i in range(degree)) + ((1,),)
    return Construction(f, tuple(zip(phis, ls)), negative)


def weighted_rounds(rng, slots, degrees):
    """Endless (base, degree) pairs in shuffled rounds that each hold every pair once.

    Stratifying by base and degree keeps the mix, and so the mean cost of
    an operation, nearly the same from seed to seed.
    """
    while True:
        block = [(b, d) for b in slots for d in degrees]
        rng.shuffle(block)
        yield from block


# ---------------------------------------------------------------------------
# the workloads


@dataclass
class Workload:
    name: str
    why: str
    setup_items: int  # inputs generated during set-up; the rest are drawn between operations
    digest_items: int  # the golden digest covers items [0, digest_items)
    tail_percentile: float
    expected_spans: tuple = ()
    forbidden_spans: tuple = ()
    in_process: bool = True


class VerdictStream(Workload):
    """dedekind_verdict on the C4 stream; the screen is skipped."""

    def __init__(self):
        super().__init__(
            name="verdict-stream",
            why="the corpus and batch path: one remainder verdict per random monic f of "
            "degree <= 8 over Q at six primes and F_2(t), F_3(t) at t",
            setup_items=3000,
            digest_items=2000,
            # p99.9 would be set by scheduler interruptions of a shared machine
            tail_percentile=99.0,
            expected_spans=(
                "residue.factorization", "ffpoly.sqf", "ffpoly.ddf", "ffpoly.edf",
                "criterion.classical", "criterion.remainder",
            ),
            forbidden_spans=("criterion.screen", "criterion.discriminant", "hensel.", "rings."),
        )

    def setup(self, pkg):
        self.pkg = pkg
        qs = [rational(pkg, p) for p in (2, 3, 5, 7, 11, 13)]
        fs = [function_field(pkg, 2, 1, (0, 1)), function_field(pkg, 3, 1, (0, 1))]
        # C4 draws 1700 instances per prime and 1000 per function field
        self.slots = qs * 17 + fs * 10

    def stream(self, rng):
        for b, d in weighted_rounds(rng, self.slots, range(1, 9)):
            yield b, random_monic(rng, b, d)

    def call(self, item, seed):
        base, f = item
        return self.pkg.dedekind_verdict(f, base.obj, seed=seed, assume_irreducible=True)

    def inspect(self, item, res):
        base, f = item
        return verdict_invariant(res), verdict_errors(base, f, res)

    def describe(self, item):
        return f"base={item[0].label} f={item[1]}"


class Identities(Workload):
    """verify_valuation_identities on affirmative inputs with a repeated factor."""

    def __init__(self):
        super().__init__(
            name="identities",
            why="the verify path: Hensel lifting and resultants on affirmative inputs "
            "with a repeated residue factor, built so that the verdict is known",
            setup_items=300,
            digest_items=300,
            tail_percentile=99.0,
            expected_spans=(
                "residue.factorization", "ffpoly.sqf", "ffpoly.ddf", "ffpoly.edf",
                "criterion.classical", "criterion.remainder", "hensel.auto_precision",
                "hensel.lift", "hensel.cross_resultant", "hensel.root_valuation",
                "rings.resultant.hensel",
            ),
            forbidden_spans=(
                "criterion.screen", "criterion.discriminant", "rings.resultant.screen",
            ),
        )

    def setup(self, pkg):
        self.pkg = pkg
        self.bases = [rational(pkg, p) for p in (2, 3, 5)] + [
            function_field(pkg, 2, 1, (0, 1)), function_field(pkg, 3, 1, (0, 1))
        ]
        self.irr = {p: irreducibles_upto3(p) for p in (2, 3, 5)}
        self.cycles = {(p, d): shapes(d, self.irr[p]) for p in self.irr for d in range(2, 13)}

    def stream(self, rng):
        seen = Counter()
        for b, d in weighted_rounds(rng, self.bases, range(2, 13)):
            cycle = self.cycles[b.p, d]
            yield b, construct(rng, b, self.irr[b.p], cycle[seen[b.label, d] % len(cycle)])
            seen[b.label, d] += 1

    def call(self, item, seed):
        base, c = item
        return self.pkg.verify_valuation_identities(
            c.f, base.obj, seed=seed, assume_irreducible=True
        )

    def inspect(self, item, report):
        base, c = item
        entries = tuple(
            (e.multiplicity, e.degree, e.resultant_valuation, str(e.omega), bool(e.passed))
            for e in report.entries
        )
        errs = []
        if not report.passed or not all(e[4] for e in entries):
            errs.append("a valuation identity failed")
        if any(e[2] != e[1] for e in entries):
            errs.append("nu(Res) != deg phi on an affirmative verdict")
        if sorted((e[0], e[1]) for e in entries) != c.repeated:
            errs.append("identity entries do not match the constructed repeated factors")
        return (bool(report.passed), entries), errs

    def describe(self, item):
        return f"base={item[0].label} f={item[1].f}"


class FqScreen(Workload):
    """dedekind_verdict with the reducibility screen on, over F_q(t)."""

    def __init__(self):
        super().__init__(
            name="fq-screen",
            why="the default check path over F_q(t): reducibility screen, discriminants "
            "and factoring over F_9, F_101 and the residue field F_25 of t^2+2",
            setup_items=200,
            digest_items=200,
            tail_percentile=95.0,
            expected_spans=(
                "criterion.screen", "criterion.discriminant", "rings.resultant.screen",
                "residue.factorization", "ffpoly.sqf", "ffpoly.ddf", "ffpoly.edf",
                "criterion.classical",
            ),
            forbidden_spans=("hensel.", "rings.resultant.hensel"),
        )

    def setup(self, pkg):
        self.pkg = pkg
        self.reducible_error = pkg.ReduciblePolynomialError
        self.bases = [
            function_field(pkg, 3, 2, (0, 1)),
            function_field(pkg, 101, 1, (0, 1)),
            function_field(pkg, 5, 1, (2, 0, 1)),
        ]

    def stream(self, rng):
        for k, (b, d) in enumerate(weighted_rounds(rng, self.bases, range(2, 7))):
            if k % 4 == 3:
                # a known root c: the screen must report the polynomial reducible
                root = random_coefficient(rng, b, 1)
                g = random_monic(rng, b, d - 1)
                yield b, pmul_ring(b, (neg_t(b, root), one(b)), g), True
            else:
                yield b, random_monic(rng, b, d), False

    def call(self, item, seed):
        base, f, _ = item
        try:
            return self.pkg.dedekind_verdict(f, base.obj, seed=seed)
        except self.reducible_error:
            return None

    def inspect(self, item, res):
        base, f, has_root = item
        if res is None:
            return ("reducible",), []
        errs = verdict_errors(base, f, res)
        if has_root:
            errs.append("the screen missed a known root")
        return verdict_invariant(res), errs

    def describe(self, item):
        return f"base={item[0].label} f={item[1]}"


def neg_t(base, c):
    F = base.coeff
    return ptrim(F, [F.mul(F.element(F.p - 1), x) for x in c])


def pmul_ring(base, a, b):
    """Product of two polynomials in x over F_q[t]."""
    F = base.coeff
    out = [()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = tadd(F, out[i + j], pmul(F, x, y))
    return tuple(out)


def tadd(F, a, b):
    if len(a) < len(b):
        a, b = b, a
    return ptrim(F, [F.add(x, b[k]) if k < len(b) else x for k, x in enumerate(a)])


# ---------------------------------------------------------------------------
# the command line, one process per operation


def poly_text(base, f):
    """f in the CLI grammar: a sum of (coefficient)*x^i terms."""
    terms = []
    for i, c in enumerate(f):
        if base.kind == "Q":
            if c:
                terms.append(f"({c})*x^{i}")
        elif c:
            t = " + ".join(f"{a}*t^{j}" for j, a in enumerate(c) if a)
            terms.append(f"({t})*x^{i}")
    return " + ".join(terms)


def base_args(base):
    if base.kind == "Q":
        return ["--prime", str(base.p)]
    return ["--base", "Fq", "--p", str(base.p), "--pi", "t"]


SPLIT_MARK = b"\nbench-clock "
SPLIT_CHILD = f"""\
import time
t = [time.monotonic()]
import maxorder.cli
t.append(time.monotonic())
import runpy, sys
try:
    runpy.run_module("maxorder", run_name="__main__", alter_sys=True)
finally:
    sys.stdout.flush()
    sys.stderr.write({SPLIT_MARK.decode()!r} + " ".join(map(repr, t)))
"""


@dataclass
class CliItem:
    command: str
    argv: list
    code: int  # the expected exit status
    expect: object  # what the construction says the report must contain


class Cli(Workload):
    """One ``python -m maxorder <command> --json`` process per operation."""

    COMMANDS = ("check", "split", "verify", "count-extensions", "corpus")
    CORPUS_COUNT = 10

    def __init__(self):
        super().__init__(
            name="cli",
            why="interpreter start, import and report rendering: the five commands as "
            "processes, cycled, each on a constructed input with a known answer",
            setup_items=60,
            digest_items=10,
            tail_percentile=90.0,
            expected_spans=tuple(f"cli.command.{c}" for c in self.COMMANDS)
            + ("cli.interpreter", "cli.import"),
            in_process=False,
        )

    def setup(self, pkg):
        try:
            # jsonschema comes with the package's "test" extra
            import jsonschema
        except ImportError as exc:
            raise HarnessError(f"the cli workload validates reports with jsonschema: {exc}") from exc
        self.validate = jsonschema.Draft7Validator(pkg.cli.REPORT_SCHEMA).iter_errors
        src = os.path.dirname(os.path.dirname(pkg.__file__))
        self.env = dict(os.environ, PYTHONPATH=src)
        self.qs = [rational(pkg, p) for p in (2, 3, 5, 7)]
        self.fs = [function_field(pkg, 2, 1, (0, 1)), function_field(pkg, 3, 1, (0, 1))]
        irr = {p: irreducibles_upto3(p) for p in (2, 3, 5, 7)}
        self.irr = irr
        self.shapes = {(p, d): shapes(d, irr[p]) for p in irr for d in range(2, 9)}

    def stream(self, rng):
        for k in count():
            cmd = self.COMMANDS[k % len(self.COMMANDS)]
            if cmd == "corpus":
                seed = rng.randrange(10 ** 6)
                argv = ["corpus", "--primes", "2,3", "--count", str(self.CORPUS_COUNT),
                        "--max-deg", "6", "--seed", str(seed)]
                yield CliItem(cmd, argv, 0, 2 * self.CORPUS_COUNT)
                continue
            base = rng.choice(self.fs if cmd == "count-extensions" else self.qs)
            negative = cmd == "check" and k % 2 == 1
            shape = rng.choice(self.shapes[base.p, rng.randint(2, 8)])
            c = construct(rng, base, self.irr[base.p], shape, negative=negative)
            argv = [cmd, *base_args(base), "--poly", poly_text(base, c.f), "--assume-irreducible"]
            yield CliItem(cmd, argv, 1 if negative else 0, c)

    def call(self, item, seed):
        return subprocess.run(
            [sys.executable, "-m", "maxorder", *item.argv, "--json"],
            capture_output=True,
            env=self.env,
            timeout=CHILD_TIMEOUT,
        )

    def call_split(self, item, seed):
        """``call`` with the child's own clock readings: (start, import, command) seconds.

        The child runs ``maxorder.__main__`` as ``-m`` would, and reads the
        system-wide monotonic clock on its first statement and after
        importing ``maxorder.cli``. Start is from spawn to the first
        statement; command is from the end of the import until the child
        has exited, so the three add up to the operation.
        """
        t_spawn = monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", SPLIT_CHILD, *item.argv, "--json"],
            capture_output=True,
            env=self.env,
            timeout=CHILD_TIMEOUT,
        )
        t_end = monotonic()
        head, sep, tail = proc.stderr.rpartition(SPLIT_MARK)
        if not sep:
            raise HarnessError("the child printed no clock readings")
        t_start, t_import = map(float, tail.split())
        proc.stderr = head
        proc.split = (t_start - t_spawn, t_import - t_start, t_end - t_import)
        return proc

    def bare_interpreter(self):
        """Wall time of ``python -c pass`` with the operations' interpreter and environment."""
        t0 = monotonic()
        subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True, timeout=CHILD_TIMEOUT)
        return monotonic() - t0

    def inspect(self, item, proc):
        if proc.returncode != item.code:
            return None, [f"exit {proc.returncode}, expected {item.code}: {proc.stderr[-300:]!r}"]
        lines = proc.stdout.decode().splitlines()
        if proc.stderr or len(lines) != 1:
            return None, ["expected one JSON line on stdout and nothing on stderr"]
        doc = json.loads(lines[0])
        errs = [f"schema: {e.message}" for e in self.validate(doc)]
        if errs:
            return None, errs
        return getattr(self, "_" + item.command.replace("-", "_"))(doc, item.expect)

    @staticmethod
    def _check(doc, c):
        v = doc["verdict"]
        nus = tuple(w["nu_r"] for w in v["witnesses"])
        errs = []
        if v["integrally_closed"] == c.negative:
            errs.append("verdict differs from the construction")
        if len(nus) != len(c.repeated):
            errs.append("one witness per constructed repeated factor expected")
        if any((n != 1) != c.negative for n in nus):
            errs.append("witness valuations differ from the construction")
        return (v["integrally_closed"], nus), errs

    @staticmethod
    def _split(doc, c):
        ef = sorted((i["e"], i["f"]) for i in doc["splitting"])
        errs = [] if ef == c.ef and doc["defectless"] else ["(e, f) differ from the construction"]
        if sum(e * f for e, f in ef) != len(c.f) - 1:
            errs.append("sum of e*f != deg f")
        return tuple(ef), errs

    @staticmethod
    def _verify(doc, c):
        entries = sorted((e["l"], e["deg_phi"], e["nu_res"], e["pass"]) for e in doc["verify"])
        errs = []
        if sorted((l, m) for l, m, _, _ in entries) != c.repeated:
            errs.append("identity entries differ from the construction")
        if not all(ok and nu_res == m for _, m, nu_res, ok in entries):
            errs.append("a valuation identity failed")
        return tuple(entries), errs

    @staticmethod
    def _count_extensions(doc, c):
        got = (doc["count"]["status"], doc["count"]["t"])
        errs = [] if got == ("known", len(c.factors)) else ["count differs from the construction"]
        return got, errs

    @staticmethod
    def _corpus(doc, instances):
        got = doc["corpus"]
        errs = []
        if got["instances"] != instances or got["disagreements"] != 0:
            errs.append("corpus did not run every instance cleanly")
        return None, errs  # corpus.py draws its own inputs, so they stay out of the digest

    def describe(self, item):
        return "maxorder " + shlex.join(item.argv)


WORKLOADS = {w.name: w for w in (VerdictStream(), Identities(), FqScreen(), Cli())}

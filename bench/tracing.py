"""Span recorder for the traced run, installed from outside the package.

Each layer function is replaced by a timing wrapper at the module
attribute its caller looks it up by: ``criterion`` binds
``residue_factorization`` and ``discriminant`` with ``from ... import``,
so those are patched on ``criterion``, while ``ffpoly.factor_monic``
finds its stages as ``ffpoly`` globals. A patch on the defining module
alone would never fire for a name bound by ``from .rings import``.

Spans nest on one stack. A span's self time is its duration minus the
durations of its direct children, accumulated as each span ends, so
nothing is kept per call. The per-layer metrics are totals divided by
the number of traced operations.
"""

from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span): plain timing spans; install() adds the counting ones
SPANS = (
    ("criterion", "classical_check", "criterion.classical"),
    ("criterion", "poly_divmod_monic", "criterion.remainder"),
    ("criterion", "discriminant", "criterion.discriminant"),
    ("hensel", "auto_precision", "hensel.auto_precision"),
    ("hensel", "cross_resultant_check", "hensel.cross_resultant"),
    ("hensel", "lift_root_valuation", "hensel.root_valuation"),
    ("ffpoly", "squarefree_decomposition", "ffpoly.sqf"),
    ("ffpoly", "distinct_degree_split", "ffpoly.ddf"),
    ("ffpoly", "equal_degree_split", "ffpoly.edf"),
)

# the enclosing span that a resultant is charged to, innermost first
RESULTANT_PARENTS = (("criterion.screen", "screen"), ("hensel.", "hensel"))

# (metric, unit, better): every per-layer metric, in output order
METRICS = (
    ("ffpoly.sqf.self_s", "s/op", "lower"),
    ("ffpoly.ddf.self_s", "s/op", "lower"),
    ("ffpoly.edf.self_s", "s/op", "lower"),
    ("ffpoly.ddf.calls", "1/op", "lower"),
    ("ffpoly.edf.calls", "1/op", "lower"),
    ("residue.factorization_s", "s/op", "lower"),
    ("residue.factors_per_call", "1/call", "lower"),
    ("criterion.classical.self_s", "s/op", "lower"),
    ("criterion.remainder.self_s", "s/op", "lower"),
    ("criterion.screen.self_s", "s/op", "lower"),
    ("criterion.screen.discriminant_s", "s/op", "lower"),
    ("criterion.screen.candidates", "1/op", "lower"),
    ("criterion.screen.reducible", "count", "higher"),
    ("criterion.screen.ops", "count", "higher"),
    ("rings.resultant.screen.self_s", "s/op", "lower"),
    ("rings.resultant.screen.calls", "1/op", "lower"),
    ("rings.resultant.screen.mean_degree", "degree", "lower"),
    ("rings.resultant.hensel.self_s", "s/op", "lower"),
    ("rings.resultant.hensel.calls", "1/op", "lower"),
    ("rings.resultant.hensel.mean_degree", "degree", "lower"),
    ("hensel.auto_precision.self_s", "s/op", "lower"),
    ("hensel.auto_precision_s", "s/op", "lower"),
    ("hensel.lift.self_s", "s/op", "lower"),
    ("hensel.cross_resultant_s", "s/op", "lower"),
    ("hensel.root_valuation_s", "s/op", "lower"),
    ("hensel.rounds_per_verify", "1/verify", "lower"),
    ("hensel.start_precision", "exponent", "lower"),
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.command_ms.check", "ms", "lower"),
    ("cli.command_ms.split", "ms", "lower"),
    ("cli.command_ms.verify", "ms", "lower"),
    ("cli.command_ms.count-extensions", "ms", "lower"),
    ("cli.command_ms.corpus", "ms", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)


class MissingLayer(Exception):
    """A function the recorder wraps is gone, or an expected span never fired."""


class Recorder:
    def __init__(self):
        self.stack = []  # [span, summed duration of its children]
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.lifted = False  # has the current operation run its first lift yet

    def begin_op(self):
        self.lifted = False

    def span(self, name, fn, before=None):
        """Wrap fn in a span; ``name`` may be a function of the open stack."""
        stack = self.stack

        def wrapped(*args, **kwargs):
            span = name() if callable(name) else name
            if before is not None:
                before(span, args)
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self.self_s[span] += dur - frame[1]
                self.total_s[span] += dur
                self.calls[span] += 1
                if stack:
                    stack[-1][1] += dur

        return wrapped

    def install(self, pkg):
        """Patch every layer function; returns the list that ``uninstall`` undoes."""
        span = self.span
        targets = [(m, a, lambda orig, s=s: span(s, orig)) for m, a, s in SPANS] + [
            ("criterion", "residue_factorization",
             lambda orig: span("residue.factorization", self._count_factors(orig))),
            ("criterion", "require_no_reducibility_witness",
             lambda orig: span("criterion.screen", self._count_screen(orig, pkg))),
            ("criterion", "_fq_root_candidates", self._count_candidates),
            ("hensel", "hensel_lift", lambda orig: span("hensel.lift", orig, self._first_lift)),
            ("hensel", "resultant", self._resultant),
            ("rings", "resultant", self._resultant),
        ]
        undo = []
        for module_name, attr, make in targets:
            module = getattr(pkg, module_name)
            if not hasattr(module, attr):
                self.uninstall(undo)
                raise MissingLayer(f"{module_name}.{attr} is gone; the traced run cannot see its layer")
            orig = getattr(module, attr)
            undo.append((module, attr, orig))
            setattr(module, attr, make(orig))
        return undo

    def _count_factors(self, orig):
        def wrapped(*args, **kwargs):
            rf = orig(*args, **kwargs)
            self.counts["residue.factors"] += len(rf.factors)
            return rf
        return wrapped

    def _count_screen(self, orig, pkg):
        reducible = pkg.ReduciblePolynomialError

        def wrapped(*args, **kwargs):
            self.counts["criterion.screen.ops"] += 1
            try:
                return orig(*args, **kwargs)
            except reducible:
                self.counts["criterion.screen.reducible"] += 1
                raise
        return wrapped

    def _count_candidates(self, orig):
        def wrapped(*args, **kwargs):
            out = orig(*args, **kwargs)
            self.counts["criterion.screen.candidates"] += len(out)
            return out
        return wrapped

    def _first_lift(self, span, args):
        # hensel_lift(f, rf, base, k): the first call of an operation is its first round
        if not self.lifted:
            self.lifted = True
            self.counts["hensel.first_rounds"] += 1
            self.counts["hensel.start_precision"] += args[3]

    def _resultant(self, orig):
        def degree(span, args):
            self.counts[span + ".degree"] += len(args[0]) + len(args[1]) - 2
        return self.span(self._resultant_span, orig, degree)

    def _resultant_span(self):
        for frame in reversed(self.stack):
            for prefix, group in RESULTANT_PARENTS:
                if frame[0].startswith(prefix):
                    return f"rings.resultant.{group}"
        return "rings.resultant.other"

    @staticmethod
    def uninstall(undo):
        for module, attr, orig in reversed(undo):
            setattr(module, attr, orig)

    def fired(self):
        return {span for span, n in self.calls.items() if n}

    def metrics(self, ops):
        """Per-layer values over ``ops`` traced operations (zero where nothing fired)."""
        per = lambda x: x / ops
        s, t, n, c = self.self_s, self.total_s, self.calls, self.counts
        out = {
            "ffpoly.sqf.self_s": per(s["ffpoly.sqf"]),
            "ffpoly.ddf.self_s": per(s["ffpoly.ddf"]),
            "ffpoly.edf.self_s": per(s["ffpoly.edf"]),
            "ffpoly.ddf.calls": per(n["ffpoly.ddf"]),
            "ffpoly.edf.calls": per(n["ffpoly.edf"]),
            "residue.factorization_s": per(t["residue.factorization"]),
            "residue.factors_per_call": _ratio(c["residue.factors"], n["residue.factorization"]),
            "criterion.classical.self_s": per(s["criterion.classical"]),
            "criterion.remainder.self_s": per(s["criterion.remainder"]),
            "criterion.screen.self_s": per(s["criterion.screen"]),
            "criterion.screen.discriminant_s": per(t["criterion.discriminant"]),
            "criterion.screen.candidates": _ratio(
                c["criterion.screen.candidates"], c["criterion.screen.ops"]
            ),
            "criterion.screen.reducible": c["criterion.screen.reducible"],
            "criterion.screen.ops": c["criterion.screen.ops"],
            "hensel.auto_precision.self_s": per(s["hensel.auto_precision"]),
            "hensel.auto_precision_s": per(t["hensel.auto_precision"]),
            "hensel.lift.self_s": per(s["hensel.lift"]),
            "hensel.cross_resultant_s": per(t["hensel.cross_resultant"]),
            "hensel.root_valuation_s": per(t["hensel.root_valuation"]),
            "hensel.rounds_per_verify": _ratio(n["hensel.lift"], c["hensel.first_rounds"]),
            "hensel.start_precision": _ratio(
                c["hensel.start_precision"], c["hensel.first_rounds"]
            ),
        }
        for group in ("screen", "hensel"):
            span = f"rings.resultant.{group}"
            out[f"{span}.self_s"] = per(s[span])
            out[f"{span}.calls"] = per(n[span])
            out[f"{span}.mean_degree"] = _ratio(c[span + ".degree"], n[span])
        return out


def _ratio(num, den):
    return num / den if den else 0.0


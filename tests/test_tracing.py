"""The benchmark's span recorder still finds every layer it wraps.

``bench/tracing.py`` patches package functions by module and attribute
name, so renaming one breaks only the traced benchmark run. This test
installs the recorder on the package the way ``bench/run.py`` does, runs
one operation per traced path, and uninstalls it again.
"""

import importlib.util
import os

import pytest

import maxorder
from maxorder import ReduciblePolynomialError, ValuedBase
from maxorder.cli import parse_poly

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorder_installs_fires_and_uninstalls():
    rec = _tracing().Recorder()
    undo = rec.install(maxorder)
    patched = {(module.__name__, attr): getattr(module, attr) for module, attr, _ in undo}
    try:
        maxorder.verify_valuation_identities((1, 1, 1, 1, 1), ValuedBase.rational(5))
        maxorder.dedekind_verdict((-2, 0, 1), ValuedBase.rational(7))  # x^2 - 2 = (x - 3)(x - 4) mod 7
        with pytest.raises(ReduciblePolynomialError, match="zero discriminant"):
            maxorder.dedekind_verdict((1, -2, 1), ValuedBase.rational(3))  # (x - 1)^2
        b9 = ValuedBase.function_field(3, 2, ((0, 0), (1, 0)))
        with pytest.raises(ReduciblePolynomialError, match="is a root"):
            maxorder.dedekind_verdict(parse_poly("(x + t + 1)*(x^2 + t)", b9), b9)
    finally:
        rec.uninstall(undo)
    assert {
        "criterion.screen", "criterion.discriminant", "rings.resultant.screen",
        "residue.factorization", "criterion.classical", "criterion.remainder",
        "hensel.lift", "hensel.auto_precision", "hensel.cross_resultant",
        "hensel.root_valuation", "rings.resultant.hensel", "ffpoly.sqf", "ffpoly.ddf", "ffpoly.edf",
    } <= rec.fired()
    assert rec.counts["criterion.screen.candidates"] > 0
    for module, attr, orig in undo:
        assert getattr(module, attr) is orig
        assert patched[(module.__name__, attr)] is not orig

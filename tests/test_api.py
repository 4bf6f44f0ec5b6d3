import contextlib
import io
import os
import re
import json
import shlex

import jsonschema
import pytest

import maxorder
from maxorder.cli import main

PUBLIC = [
    "CorpusDisagreementError",
    "DegreeError",
    "EngineError",
    "InputError",
    "InternalInvariantError",
    "NonMonicError",
    "PolyParseError",
    "PrecisionExhaustedError",
    "ReduciblePolynomialError",
    "ValuedBase",
    "VerdictFalseError",
    "__version__",
    "count_extensions",
    "dedekind_verdict",
    "run_corpus",
    "split_prime",
    "verify_valuation_identities",
]

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_public_names():
    assert sorted(maxorder.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(maxorder, name), name


def test_readme_library_snippet_runs(capsys):
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Library", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(snippet, "README.md", "exec"), {})
    assert capsys.readouterr().out == "(4, 1) 1 1\n(7, 1) 1 1\n"


def test_readme_cli_examples_replay():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    examples = re.findall(r"```\n\$ maxorder (.*?)```", text, re.S)
    assert len(examples) == 7
    for example in examples:
        command, *expected = example.splitlines()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(shlex.split(command))
        assert (out.getvalue() + err.getvalue()).splitlines() == expected, command


def test_benchmark_entry_points(capsys):
    """The calls that bench/workloads.py makes, made as it makes them."""
    F9 = maxorder.fields.extension_field(3, 2)
    assert tuple(F9.modulus) == (1, 0, 1) and F9.element(3) == (0, 1)
    t, u = (F9.zero, F9.one), F9.element(3)
    bases = [maxorder.ValuedBase.rational(5), maxorder.ValuedBase.function_field(3, 2, t)]
    for base, f in zip(bases, [(-5, 0, 1), ((F9.zero, F9.element(2)), (), (F9.one,))]):  # x^2 - 5, x^2 - t
        verdict = maxorder.dedekind_verdict(f, base, seed=3, assume_irreducible=True)
        assert verdict.integrally_closed and [w.index for w in verdict.witnesses] == [0]
        assert [(len(phibar) - 1, l) for phibar, l in verdict.factorization.factors] == [(1, 2)]
        assert maxorder.dedekind_verdict(f, base, seed=3) == verdict  # the screen finds no root
        report = maxorder.verify_valuation_identities(f, base, seed=3, assume_irreducible=True)
        assert report.passed and [(e.multiplicity, e.degree, e.resultant_valuation) for e in report.entries] == [(2, 1, 1)]
    with pytest.raises(maxorder.ReduciblePolynomialError):  # x^2 - u^2 t^2 has the root u t
        maxorder.dedekind_verdict(((F9.zero, F9.zero, F9.neg(F9.mul(u, u))), (), (F9.one,)), bases[1], seed=3)
    assert main(["check", "--prime", "5", "--poly", "x^2 - 5", "--assume-irreducible", "--json"]) == 0
    jsonschema.Draft7Validator(maxorder.cli.REPORT_SCHEMA).validate(json.loads(capsys.readouterr().out))

import contextlib
import io
import os
import re
import shlex

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

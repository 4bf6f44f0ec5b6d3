"""Byte-for-byte replay of the command line against recorded output.

``cli_golden.json`` holds the exit code, stdout and stderr of
``cli.main`` for every argv in CASES: the four polynomial commands in
text and JSON over Q, F_2(t) at t and at t^2 + t + 1, F_9(t), F_3(t) and
F_5(t), the error exits, and two corpus runs. After an intended change
of output, re-record with ``PYTHONPATH=src python tests/test_cli_golden.py``,
which prints the argv of every case that is new or whose output changed,
and say why in the change log.
"""

import contextlib
import io
import json
import os
import sys

from maxorder.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")

COMMANDS = ("check", "split", "verify", "count-extensions")

F2_AT_T = ("--base", "Fq", "--p", "2", "--pi", "t")
F2_AT_QUADRATIC = ("--base", "Fq", "--p", "2", "--pi", "t^2 + t + 1")
F9 = ("--base", "Fq", "--p", "3", "--e", "2", "--pi", "t^2 + u + u^2")
F3_AT_T = ("--base", "Fq", "--p", "3", "--pi", "t")
F5_AT_T = ("--base", "Fq", "--p", "5", "--pi", "t")

# (base arguments, polynomial, extra flags), each run by every command
INPUTS = (
    (("--prime", "2"), "x^2 - 5", ()),
    (("--prime", "2"), "x^2 - 3", ()),
    (("--prime", "11"), "x^2 - 5", ()),
    (("--prime", "3"), "x^2", ("--assume-irreducible",)),
    (("--prime", "5"), "x^4 + x^3 + x^2 + x + 1", ()),
    (("--prime", "3"), "x^3 - 3", ()),
    (("--prime", "7"), "x^2 - 7", ("--seed", "99")),
    (("--prime", "2"), "x^4 + 2*x^3 + 3*x^2 + 4*x + 1", ("--assume-irreducible",)),
    (("--prime", "3"), "x^2 - 4", ()),
    (("--prime", "4"), "x", ()),
    (F2_AT_T, "x^2 - t", ()),
    (F2_AT_T, "x^2 + t^2*x + t + 1", ()),
    (F2_AT_T, "x^2 + t^3 + t^2", ()),
    (F2_AT_QUADRATIC, "x^2 - t", ()),
    (F9, "x^2 - t", ()),
    (F9, "x^3 + u*t*x + t", ()),
    (F3_AT_T, "x^3 - t", ()),
    (F3_AT_T, "x^3 + t^2", ()),
    (F5_AT_T, "x^2 - t", ()),
    (F5_AT_T, "x^4 + t*x + t^2", ()),
    (("--prime", "2"), "x^2 - 200022*x + 10002200057", ()),  # the roots 100003 and 100019
    (F3_AT_T, "x^6 + 2*t^2", ()),  # (x^3 - t)(x^3 + t), with no root in F_3(t)
)

EXTRA = (
    ("verify", "--prime", "2", "--poly", "x^4 + 2*x^3 + 3*x^2 + 4*x + 1",
     "--precision", "2", "--assume-irreducible"),
    ("verify", "--prime", "2", "--poly", "x^2 - 3", "--precision", "4", "--json"),
    ("check", "--prime", "2", "--poly", "x^2 -"),
    ("check", "--prime", "2", "--poly", "(x + 1"),
    ("check", "--prime", "2", "--poly", "2 x"),
    ("check", "--prime", "2", "--poly", "x^5000"),
    ("check", "--prime", "2", "--poly", "x - t"),
    ("check", "--prime", "2", "--poly", "x - u"),
    ("check", *F2_AT_T, "--poly", "x - u"),
    ("check", "--base", "Fq", "--p", "2", "--pi", "t + x", "--poly", "x"),
    ("check", "--base", "Fq", "--p", "2", "--pi", "t + u", "--poly", "x"),
    ("check", "--base", "Fq", "--p", "2", "--pi", "t^2", "--poly", "x"),
    ("check", "--base", "Fq", "--p", "2", "--poly", "x^2 - t"),
    ("check", "--base", "Q", "--prime", "5", "--p", "2", "--poly", "x"),
    ("check", "--prime", "2", "--poly", "2*x^2 + 1"),
    ("check", "--prime", "2", "--poly", "7"),
    ("corpus", "--primes", "2,3", "--count", "3"),
    ("corpus", "--primes", "2,3,5", "--count", "4", "--max-deg", "5", "--seed", "7", "--json"),
)

CASES = [
    [cmd, *base, "--poly", poly, *flags, *json_flag]
    for base, poly, flags in INPUTS
    for cmd in COMMANDS
    for json_flag in ((), ("--json",))
] + [list(argv) for argv in EXTRA]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "code": code, "out": out.getvalue(), "err": err.getvalue()}


def test_cli_output_matches_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert [case["argv"] for case in golden] == CASES
    mismatched = [case["argv"] for case in golden if _run(case["argv"]) != case]
    assert mismatched == []


if __name__ == "__main__":
    old = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            old = {tuple(case["argv"]): case for case in json.load(fh)}
    cases = [_run(argv) for argv in CASES]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for case in cases:
        before = old.get(tuple(case["argv"]))
        if before != case:
            print("new" if before is None else "changed", case["argv"])
    print(f"recorded {len(CASES)} cases to {GOLDEN}", file=sys.stderr)

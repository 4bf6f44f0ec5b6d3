"""Acceptance suite: nine numbered criteria, one summary line each.

Run ``pytest -s -v tests/test_acceptance.py`` to see the per-criterion
lines; each test prints exactly one ``C<n> ...: PASS`` line on success
and a ``... FAIL`` line before the assertion details otherwise. Time
budgets are asserted with ``time.perf_counter``.
"""

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt

import jsonschema
import pytest

from maxorder.cli import REPORT_SCHEMA, parse_poly
from maxorder.corpus import run_corpus
from maxorder.criterion import count_extensions, dedekind_verdict, split_prime
from maxorder.errors import ReduciblePolynomialError
from maxorder.hensel import verify_valuation_identities
from maxorder.rings import ValuedBase

PRIMES_SMALL = (2, 3, 5, 7, 11, 13)
PRIMES_97 = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)
PRIMES_50 = PRIMES_97[:15]


@contextmanager
def criterion_line(label, budget):
    t0 = time.perf_counter()
    box = {}
    try:
        yield box
    except BaseException:
        print(f"{label}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    detail = box.get("detail", "")
    sep = ", " if detail else ""
    print(f"{label}: {detail}{sep}{elapsed:.2f}s: PASS")
    assert elapsed < budget, f"{label} exceeded the {budget}s budget: {elapsed:.2f}s"


def squarefree(n):
    n = abs(n)
    if n == 0:
        return False
    for q in range(2, isqrt(n) + 1):
        if n % (q * q) == 0:
            return False
    return True


def test_c1_quadratic_law():
    base = ValuedBase.rational(2)
    with criterion_line("C1 quadratic law for x^2 - d at p = 2, |d| <= 200", 1.0) as box:
        cases = 0
        for d in range(-200, 201):
            if not squarefree(d):
                continue
            if d == 1:
                with pytest.raises(ReduciblePolynomialError):
                    dedekind_verdict((-d, 0, 1), base)
                continue
            verdict = dedekind_verdict((-d, 0, 1), base)
            assert verdict.integrally_closed == (d % 4 in (2, 3)), d
            cases += 1
        box["detail"] = f"{cases} squarefree d"


def test_c1_quadratic_law_odd_primes():
    with criterion_line("C1b quadratic law at odd p: always true on squarefree d", 2.0) as box:
        cases = 0
        for p in (3, 5, 7):
            base = ValuedBase.rational(p)
            for d in range(-50, 51):
                if d in (0, 1) or not squarefree(d):
                    continue
                verdict = dedekind_verdict((-d, 0, 1), base, assume_irreducible=True)
                assert verdict.integrally_closed, (p, d)
                cases += 1
        box["detail"] = f"{cases} cases"


def test_c2_cyclotomic_family():
    with criterion_line("C2 cyclotomic x^(p-1)+...+1 at p for p <= 97", 2.0) as box:
        for p in PRIMES_97:
            base = ValuedBase.rational(p)
            f = (1,) * p  # (x^p - 1)/(x - 1)
            verdict = dedekind_verdict(f, base)
            assert verdict.integrally_closed, p
            if p > 2:
                (w,) = verdict.witnesses
                assert w.valuation == 1, p
            report = split_prime(f, base, _verdict=verdict)
            (ideal,) = report.ideals
            assert ideal.lift == (p - 1, 1), p
            assert (ideal.e, ideal.f) == (p - 1, 1), p
        box["detail"] = f"{len(PRIMES_97)} primes"


def test_c3_eisenstein_family():
    with criterion_line("C3 Eisenstein x^n - p for n <= 12, p <= 50", 5.0) as box:
        cases = 0
        for n in range(1, 13):
            for p in PRIMES_50:
                base = ValuedBase.rational(p)
                f = (-p,) + (0,) * (n - 1) + (1,)
                verdict = dedekind_verdict(f, base)
                assert verdict.integrally_closed, (n, p)
                report = split_prime(f, base, _verdict=verdict)
                (ideal,) = report.ideals
                assert (ideal.e, ideal.f) == (n, 1), (n, p)
                identities = verify_valuation_identities(f, base, _verdict=verdict)
                assert identities.passed, (n, p)
                for entry in identities.entries:
                    assert entry.lhs == Fraction(1), (n, p)
                    assert entry.omega == Fraction(1, n), (n, p)
                cases += 1
        box["detail"] = f"{cases} pairs (n, p)"


def _oracle_pairs():
    pairs = [(ValuedBase.rational(p), 1700) for p in PRIMES_SMALL]
    pairs.append((ValuedBase.function_field(2, 1, (0, 1)), 1000))
    pairs.append((ValuedBase.function_field(3, 1, (0, 1)), 1000))
    return pairs


def test_c4_oracle_agreement():
    with criterion_line("C4 remainder verdict vs classical gcd verdict", 60.0) as box:
        report = run_corpus(_oracle_pairs(), max_deg=8, seed=0, suites=("oracle",))
        assert report.instances == 12_200
        assert report.instances >= 10_000 + 2 * 1_000
        assert all(r.instances >= 1_000 for r in report.per_base[-2:])
        box["detail"] = f"{report.instances} instances, 0 disagreements"


def test_c5_lift_invariance():
    with criterion_line("C5 verdict invariance under perturbed monic lifts", 30.0) as box:
        pairs = [
            (ValuedBase.rational(2), 250),
            (ValuedBase.rational(3), 250),
            (ValuedBase.function_field(2, 1, (0, 1)), 250),
            (ValuedBase.function_field(3, 1, (0, 1)), 250),
        ]
        report = run_corpus(
            pairs, max_deg=8, seed=0, suites=("oracle", "lifts"), lifts_per_instance=5
        )
        assert report.instances == 1_000
        assert report.lift_checks == 5 * report.instances
        box["detail"] = f"{report.instances} instances x 5 lifts"


def test_c6_valuation_identities():
    with criterion_line("C6 l*omega = 1 on affirmative repeated-factor instances", 60.0) as box:
        # same pairs, seed, and draw pattern as C4, so the same stream
        report = run_corpus(
            _oracle_pairs(), max_deg=8, seed=0, suites=("oracle", "identities")
        )
        assert report.instances == 12_200
        assert report.identities_checked >= 500
        box["detail"] = f"{report.identities_checked} instances with repeated factors"


def test_c7_inseparable_family():
    with criterion_line("C7 x^p - t and x^p - t^(p+1) over F_p(t)", 1.0) as box:
        for p in (2, 3, 5):
            base = ValuedBase.function_field(p, 1, (0, 1))
            f = parse_poly(f"x^{p} - t", base)
            verdict = dedekind_verdict(f, base)
            assert verdict.integrally_closed, p
            (w,) = verdict.witnesses
            assert w.valuation == 1, p
            counted = count_extensions(f, base)
            assert (counted.status, counted.t) == ("known", 1), p
            report = split_prime(f, base, _verdict=verdict)
            (ideal,) = report.ideals
            assert (ideal.e, ideal.f) == (p, 1), p

            g = parse_poly(f"x^{p} - t^{p + 1}", base)
            bad = dedekind_verdict(g, base)
            assert not bad.integrally_closed, p
            (wb,) = bad.witnesses
            assert wb.valuation == p + 1, p
        box["detail"] = "p in {2, 3, 5}"


def test_c8_defectlessness():
    with criterion_line("C8 sum of e*f equals deg f on every reported splitting", 30.0) as box:
        splits = 0

        def check_split(f, base):
            nonlocal splits
            report = split_prime(f, base, assume_irreducible=True)
            total = sum(i.e * i.f for i in report.ideals)
            assert total == len(f) - 1
            splits += 1

        base2 = ValuedBase.rational(2)
        for d in range(-200, 201):
            if d not in (0, 1) and squarefree(d) and d % 4 in (2, 3):
                check_split((-d, 0, 1), base2)
        for p in PRIMES_97:
            check_split((1,) * p, ValuedBase.rational(p))
        for n in range(1, 13):
            for p in PRIMES_50:
                check_split((-p,) + (0,) * (n - 1) + (1,), ValuedBase.rational(p))
        for p in (2, 3, 5):
            base = ValuedBase.function_field(p, 1, (0, 1))
            check_split(parse_poly(f"x^{p} - t", base), base)
        # and every affirmative random instance over the oracle bases
        report = run_corpus(
            [(b, 300) for b, _ in _oracle_pairs()],
            max_deg=8,
            seed=0,
            suites=("oracle", "splits"),
        )
        box["detail"] = f"{splits} family splits + {report.splits_checked} random splits"


CLI_CASES = (
    (("check", "--prime", "2", "--poly", "x^2 - 5"), 1),
    (("split", "--prime", "11", "--poly", "x^2 - 5"), 0),
    (("verify", "--prime", "2", "--poly", "x^2 - 3"), 0),
    (("count-extensions", "--base", "Fq", "--p", "2", "--pi", "t", "--poly", "x^2 - t"), 0),
    (("corpus", "--primes", "2,3,5", "--count", "30", "--seed", "7"), 0),
)


def _child_env():
    """The environment with this checkout's src/ first on the child's import path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


def test_c9_json_determinism():
    with criterion_line("C9 byte-identical JSON on repeated runs, schema-valid", 60.0) as box:
        env = _child_env()
        for argv, expected_code in CLI_CASES:
            cmd = [sys.executable, "-m", "maxorder", *argv, "--json"]
            first = subprocess.run(cmd, capture_output=True, env=env)
            second = subprocess.run(cmd, capture_output=True, env=env)
            assert first.returncode == expected_code, argv
            assert second.returncode == expected_code, argv
            assert first.stdout == second.stdout, argv
            assert first.stderr == b"" and second.stderr == b""
            lines = first.stdout.decode().splitlines()
            assert len(lines) == 1, argv
            payload = json.loads(lines[0])
            jsonschema.validate(payload, REPORT_SCHEMA)
            assert lines[0] == json.dumps(payload, sort_keys=True, separators=(",", ":"))
        box["detail"] = f"{len(CLI_CASES)} commands x 2 runs"

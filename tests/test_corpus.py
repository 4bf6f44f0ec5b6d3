import dataclasses

import pytest

import maxorder.criterion as criterion
from maxorder.corpus import SUITES, run_corpus
from maxorder.errors import CorpusDisagreementError
from maxorder.fields import extension_field
from maxorder.rings import ValuedBase

B2 = ValuedBase.rational(2)
B3 = ValuedBase.rational(3)
BT2 = ValuedBase.function_field(2, 1, (0, 1))


def _b4():
    k = extension_field(2, 2)
    return ValuedBase.function_field(2, 2, (k.zero, k.one))


def test_totals_add_up():
    report = run_corpus([(B2, 20), (B3, 20)], seed=1)
    assert report.instances == 40
    assert report.verdict_true + report.verdict_false == 40
    assert [r.instances for r in report.per_base] == [20, 20]
    assert report.lift_checks == 2 * 40
    assert report.splits_checked == report.verdict_true
    assert report.suites == tuple(SUITES)
    # p = 2 sees plenty of repeated residue factors on random input
    assert report.per_base[0].repeated > 0


def test_determinism():
    pairs = [(B2, 15), (BT2, 15)]
    a = run_corpus(pairs, seed=7)
    b = run_corpus(pairs, seed=7)
    assert a == b
    c = run_corpus(pairs, seed=8)
    assert c.instances == a.instances


def test_suite_selection():
    report = run_corpus([(B2, 10)], seed=2, suites=("oracle",))
    assert report.lift_checks == 0
    assert report.splits_checked == 0
    assert report.identities_checked == 0
    assert report.instances == 10
    with pytest.raises(ValueError, match="unknown suites"):
        run_corpus([(B2, 1)], suites=("oracle", "nonsense"))


def test_extension_coefficient_base():
    report = run_corpus([(_b4(), 25)], seed=3, max_deg=5)
    assert report.instances == 25
    assert report.per_base[0].label == "F_4(t) at pi = t"


def test_identities_only_on_repeated_true_instances():
    report = run_corpus([(B2, 60)], seed=4)
    b = report.per_base[0]
    assert b.identities_checked <= b.verdict_true
    assert b.identities_checked <= b.repeated
    assert b.identities_checked > 0


def test_disagreement_wraps_with_reproducer(monkeypatch):
    real = criterion.classical_check

    def flipped(f, base, rf):
        out = real(f, base, rf)
        return dataclasses.replace(out, integrally_closed=not out.integrally_closed)

    monkeypatch.setattr(criterion, "classical_check", flipped)
    with pytest.raises(CorpusDisagreementError) as e:
        run_corpus([(B2, 5)], seed=5, suites=("oracle",))
    msg = str(e.value)
    assert "reproduce with seed=5 base='Q at p = 2' instance=0 poly='" in msg


def test_reported_poly_reproduces(monkeypatch):
    # the reproducer names a polynomial that the normal engine accepts
    seen = {}
    real = criterion.classical_check

    def spy(f, base, rf):
        seen.setdefault("f", f)
        return real(f, base, rf)

    monkeypatch.setattr(criterion, "classical_check", spy)
    run_corpus([(B3, 1)], seed=6, suites=("oracle",))
    assert "f" in seen

import json
import math

import jsonschema
import pytest

from maxorder import cli
from maxorder.cli import REPORT_SCHEMA, main, parse_poly
from maxorder.errors import PolyParseError
from maxorder.rings import ValuedBase

B2 = ValuedBase.rational(2)
B7 = ValuedBase.rational(7)
BT2 = ValuedBase.function_field(2, 1, (0, 1))
BT5 = ValuedBase.function_field(5, 1, (0, 1))
BT101 = ValuedBase.function_field(101, 1, (0, 1))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# expression parser


def test_parse_basics():
    assert parse_poly("x^2 - 5", B2) == (-5, 0, 1)
    assert parse_poly("x", B2) == (0, 1)
    assert parse_poly("7", B2) == (7,)
    assert parse_poly("0", B2) == ()
    assert parse_poly("-x", B2) == (0, -1)
    assert parse_poly("(x + 1)^3", B2) == (1, 3, 3, 1)
    assert parse_poly("2*x^3 - 3*x + 11", B2) == (11, -3, 0, 2)
    assert parse_poly("(x + 1)*(x - 1)", B2) == (-1, 0, 1)
    assert parse_poly("x^2 + 2*2", B2) == (4, 0, 1)


def test_parse_precedence_and_unary_minus():
    # '^' binds tighter than '*', which binds tighter than '+'/'-'
    assert parse_poly("2*x^2", B2) == (0, 0, 2)
    assert parse_poly("-x^2", B2) == (0, 0, -1)
    assert parse_poly("1 - 2 - 3", B2) == (-4,)
    assert parse_poly("2 - (-3)", B2) == (5,)
    with pytest.raises(PolyParseError):
        parse_poly("2 - -3", B2)  # unary minus only leads an expression


def test_parse_function_field_variables():
    assert parse_poly("x^2 - t", BT5) == ((0, 4), (), (1,))
    assert parse_poly("t^3*x", BT5) == ((), (0, 0, 0, 1))
    assert parse_poly("x^2 + t^2*x + t + 1", BT2) == ((1, 1), (0, 0, 1), (1,))


def test_parse_errors_carry_positions():
    with pytest.raises(PolyParseError) as e:
        parse_poly("x^2 -", B2)
    assert e.value.position == 5
    with pytest.raises(PolyParseError) as e:
        parse_poly("x^2 + $", B2)
    assert e.value.position == 6
    with pytest.raises(PolyParseError) as e:
        parse_poly("(x + 1", B2)
    assert e.value.position == 6
    with pytest.raises(PolyParseError) as e:
        parse_poly("2 x", B2)  # no implicit multiplication
    assert e.value.position == 2
    with pytest.raises(PolyParseError) as e:
        parse_poly("x^(2)", B2)  # exponent must be a literal integer
    assert e.value.position == 2
    with pytest.raises(PolyParseError):
        parse_poly("", B2)


def test_parse_exponent_cap():
    with pytest.raises(PolyParseError, match="cap"):
        parse_poly("x^5000", B2)
    parse_poly("x^4096", B2)  # at the cap: fine


def test_parse_size_caps():
    # nesting cannot get round the caps, and the result is never built
    with pytest.raises(PolyParseError, match="degree of the result exceeds the cap") as e:
        parse_poly("(x^64)^128", B2)
    assert e.value.position == 6  # the outer '^'
    with pytest.raises(PolyParseError, match="degree of the result exceeds the cap") as e:
        parse_poly("x^4096 * x", B2)
    assert e.value.position == 7  # the '*'
    with pytest.raises(PolyParseError, match="degree in t of the result exceeds the cap"):
        parse_poly("(t^64)^128", BT2)
    with pytest.raises(PolyParseError, match="degree in t of the result exceeds the cap"):
        parse_poly("t^4096 * t", BT2)
    with pytest.raises(PolyParseError, match="coefficient size in bits"):
        parse_poly("10^4096 * 10^4096", B2)
    with pytest.raises(PolyParseError, match="coefficient size in bits"):
        parse_poly("(10^4096)^2", B2)
    assert parse_poly("10^4096", B2) == (10**4096,)
    assert parse_poly("t^4096 * x", BT2)[1] == (0,) * 4096 + (1,)


def test_parse_work_cap():
    # refused at the operator before any product is computed
    with pytest.raises(PolyParseError, match="work of the result exceeds the cap") as e:
        parse_poly("(x + 10)^4096", B2)
    assert e.value.position == 8
    with pytest.raises(PolyParseError, match="work of the result exceeds the cap") as e:
        parse_poly("(t*x + t + 1)^4096", BT5)
    assert e.value.position == 13
    with pytest.raises(PolyParseError, match="work of the result exceeds the cap") as e:
        parse_poly("(x + 10)^256 * (x + 10)^256", B2)
    assert e.value.position == 13  # the '*': each factor alone is under the cap
    assert parse_poly("x^4096", B2) == (0,) * 4096 + (1,)
    assert parse_poly("(x + 1)^64", B2)[32] == math.comb(64, 32)


def test_parse_work_cap_prices_field_operations():
    # over F_q[t] the work counts t-terms: sparse in t is cheap, dense in t is refused
    P = parse_poly("(x^2048 + t^2048)*(x^2048 + t^2048)", BT2)
    assert (P[0], P[2048], P[4096]) == ((0,) * 4096 + (1,), (), (1,))
    with pytest.raises(PolyParseError, match=f"work of the result exceeds the cap of {cli.FQ_WORK_CAP}") as e:
        parse_poly("(t*x + t + 1)^105", BT101)
    assert e.value.position == 13


@pytest.mark.parametrize("p, e, kind, accepted, refused", [
    (101, 1, "PrimeField", 50, 105),
    (3, 2, "TableField", 50, 105),  # lookups cost what F_p operations cost
    (37, 2, "QuotientField", 20, 50),  # each operation is a product and a reduction
])
def test_parse_work_cap_weights_field_operations(p, e, kind, accepted, refused):
    base = ValuedBase.function_field(p, e, (0, 1) if e == 1 else ((0, 0), (1, 0)))
    field = base.ring.field
    assert type(field).__name__ == kind and (field.op_cost == 1) == (kind != "QuotientField")
    assert len(parse_poly(f"(t*x + t + 1)^{accepted}", base)) == accepted + 1
    with pytest.raises(PolyParseError, match="work of the result exceeds the cap") as refusal:
        parse_poly(f"(t*x + t + 1)^{refused}", base)
    assert refusal.value.position == 13


def test_work_cap_exits_2(capsys):
    code, out, err = run(capsys, "check", "--prime", "2", "--poly", "(x + 10)^4096")
    assert (code, out) == (2, "")
    assert err.startswith(f"error[E_PARSE]: the work of the result exceeds the cap of {cli.WORK_CAP}")


def test_nested_power_exits_2(capsys):
    code, out, err = run(capsys, "check", "--prime", "2", "--poly", "(x^64)^128")
    assert (code, out) == (2, "")
    assert err.startswith("error[E_PARSE]: the degree of the result exceeds the cap of 4096")


def test_parse_variable_scoping():
    with pytest.raises(PolyParseError, match="'t' is only available"):
        parse_poly("x - t", B2)
    with pytest.raises(PolyParseError, match="'u' is only available"):
        parse_poly("x - u", B2)
    with pytest.raises(PolyParseError, match="requires a proper coefficient extension"):
        parse_poly("x - u", BT2)  # e = 1: no generator u


# ---------------------------------------------------------------------------
# command output, frozen


def test_check_human_output_false(capsys):
    code, out, err = run(capsys, "check", "--prime", "2", "--poly", "x^2 - 5")
    assert code == 1
    assert err == ""
    assert out == (
        "base: Q at p = 2\n"
        "poly: x^2 - 5\n"
        "residue factors: (x + 1)^2\n"
        "witness [0]: phi = x + 1, l = 2, r = -4, nu(r) = 2\n"
        "classical cross-check: agrees\n"
        "verdict: R[alpha] is NOT integrally closed\n"
    )


def test_check_human_output_true(capsys):
    code, out, _ = run(capsys, "check", "--prime", "2", "--poly", "x^2 - 3")
    assert code == 0
    assert out.endswith("verdict: R[alpha] is integrally closed\n")
    assert "witness [0]: phi = x + 1, l = 2, r = -2, nu(r) = 1\n" in out


def test_check_function_field_output(capsys):
    code, out, _ = run(
        capsys, "check", "--base", "Fq", "--p", "2", "--pi", "t", "--poly", "x^2 - t"
    )
    assert code == 0
    assert "base: F_2(t) at pi = t\n" in out
    assert "witness [0]: phi = x, l = 2, r = t, nu(r) = 1\n" in out


def test_split_human_output(capsys):
    code, out, _ = run(capsys, "split", "--prime", "11", "--poly", "x^2 - 5")
    assert code == 0
    assert "ideal [0]: gens = (11, x + 4), e = 1, f = 1\n" in out
    assert "ideal [1]: gens = (11, x + 7), e = 1, f = 1\n" in out
    assert out.endswith("defectless: sum e*f = 2 = deg f\n")


def test_verify_human_output(capsys):
    code, out, _ = run(capsys, "verify", "--prime", "2", "--poly", "x^2 - 3")
    assert code == 0
    assert "precision: 2\n" in out
    assert (
        "identity [0]: l = 2, deg phi = 1, nu(Res) = 1, omega = 1/2, l*omega = 1: pass\n"
        in out
    )
    assert out.endswith("verify: all identities hold\n")


def test_count_human_output(capsys):
    code, out, _ = run(capsys, "count-extensions", "--prime", "11", "--poly", "x^2 - 5")
    assert code == 0
    assert "branch [0]: phi = x + 4, l = 1, rule = multiplicity-one, certified\n" in out
    assert out.endswith("extensions: 2\n")
    code, out, _ = run(capsys, "count-extensions", "--prime", "2", "--poly", "x^2 - 5")
    assert code == 0
    assert "branch [0]: phi = x + 1, l = 2, rule = none, undecided (nu(r) = 2)\n" in out
    assert out.endswith("extensions: unknown\n")


def test_corpus_human_output(capsys):
    code, out, _ = run(capsys, "corpus", "--primes", "2,3", "--count", "3")
    assert code == 0
    assert out.startswith(
        "corpus: seed = 0, max degree = 8, suites = oracle,lifts,splits,identities\n"
    )
    assert out.endswith("total: 6 instances, 0 disagreements\n")


# ---------------------------------------------------------------------------
# json output


def _json_of(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 1  # exactly one line of json
    payload = json.loads(lines[0])
    jsonschema.validate(payload, REPORT_SCHEMA)
    return code, lines[0], payload


def test_json_check(capsys):
    code, raw, payload = _json_of(capsys, "check", "--prime", "2", "--poly", "x^2 - 5")
    assert code == 1
    assert payload["verdict"]["integrally_closed"] is False
    assert payload["verdict"]["witnesses"] == [
        {"i": 0, "l": 2, "nu_r": 2, "phi": "x + 1", "r": "-4"}
    ]
    assert raw == json.dumps(payload, sort_keys=True, separators=(",", ":"))


def test_json_split(capsys):
    code, _, payload = _json_of(capsys, "split", "--prime", "11", "--poly", "x^2 - 5")
    assert code == 0
    assert payload["splitting"] == [
        {"e": 1, "f": 1, "gens": ["11", "x + 4"]},
        {"e": 1, "f": 1, "gens": ["11", "x + 7"]},
    ]
    assert payload["defectless"] is True


def test_json_verify(capsys):
    code, _, payload = _json_of(capsys, "verify", "--prime", "2", "--poly", "x^2 - 3")
    assert code == 0
    assert payload["precision"] == 2
    assert payload["verify"] == [
        {
            "deg_phi": 1,
            "i": 0,
            "l": 2,
            "lhs": "1",
            "nu_res": 1,
            "omega": "1/2",
            "pass": True,
            "rhs": "1",
        }
    ]


def test_json_count(capsys):
    code, _, payload = _json_of(
        capsys,
        "count-extensions",
        "--base",
        "Fq",
        "--p",
        "2",
        "--pi",
        "t",
        "--poly",
        "x^2 - t",
    )
    assert code == 0
    assert payload["count"]["status"] == "known"
    assert payload["count"]["t"] == 1
    assert payload["count"]["certificate"][0]["rule"] == "remainder-valuation-one"


def test_json_corpus(capsys):
    code, _, payload = _json_of(capsys, "corpus", "--primes", "2,3", "--count", "5")
    assert code == 0
    assert payload["corpus"]["instances"] == 10
    assert payload["corpus"]["disagreements"] == 0
    assert len(payload["corpus"]["bases"]) == 2


def test_json_infinite_valuation(capsys):
    # x^2 reduces to x-bar^2 with remainder 0: nu(r) serializes as "inf"
    code, _, payload = _json_of(
        capsys, "check", "--prime", "3", "--poly", "x^2", "--assume-irreducible"
    )
    assert code == 1
    assert payload["verdict"]["witnesses"][0]["nu_r"] == "inf"


def test_json_byte_determinism(capsys):
    argv = ("corpus", "--primes", "2,3,5", "--count", "4")
    _, raw1, _ = _json_of(capsys, *argv)
    _, raw2, _ = _json_of(capsys, *argv)
    assert raw1 == raw2


# ---------------------------------------------------------------------------
# flags and exit codes


def test_composite_prime_exits_2(capsys):
    # a strong pseudoprime to all 12 Miller-Rabin bases
    code, out, err = run(
        capsys, "check", "--prime", "3317044064679887385961981", "--poly", "x^2 - 5"
    )
    assert (code, out) == (2, "")
    assert err == "error[E_INPUT]: prime expected, got 3317044064679887385961981\n"


@pytest.mark.parametrize("option, value, rest, code", [
    ("--poly", "-2+x^2", ["check", "--prime", "5"], 0),
    ("--poly", "-x+x^3-t", ["verify", "--base", "Fq", "--p", "3", "--pi", "t"], 0),
    ("--pi", "-1+t", ["check", "--base", "Fq", "--p", "3", "--poly", "x^2 + t"], 0),
    ("--primes", "-2,3", ["corpus", "--count", "1"], 2),
])
def test_value_with_a_leading_minus_reads_as_the_option_value(capsys, option, value, rest, code):
    # argparse reads "-2+x^2" as an option unless it is joined to its option with "="
    joined = run(capsys, *rest, f"{option}={value}")
    spaced = run(capsys, *rest, option, value)
    assert spaced == joined
    assert spaced[0] == code and ("error[E_" in spaced[2]) == (code == 2)


def test_exit_codes_and_stderr(capsys):
    code, out, err = run(capsys, "check", "--prime", "4", "--poly", "x")
    assert (code, out) == (2, "")
    assert err == "error[E_INPUT]: prime expected, got 4\n"

    code, _, err = run(capsys, "check", "--prime", "2", "--poly", "x^2 -")
    assert code == 2
    assert err.startswith("error[E_PARSE]:")
    assert "(at position 5)" in err

    code, _, err = run(capsys, "check", "--prime", "3", "--poly", "x^2 - 4")
    assert code == 2
    assert err.startswith("error[E_REDUCIBLE]:")

    code, _, err = run(capsys, "split", "--prime", "2", "--poly", "x^2 - 5")
    assert code == 2
    assert err.startswith("error[E_VERDICT_FALSE]:")

    code, _, err = run(
        capsys,
        "verify",
        "--prime",
        "2",
        "--poly",
        "x^4 + 2*x^3 + 3*x^2 + 4*x + 1",
        "--precision",
        "2",
        "--assume-irreducible",
    )
    assert code == 2
    assert err.startswith("error[E_PRECISION]:")


def test_verify_precision_cap_exits_2(capsys):
    argv = ["verify", "--base", "Fq", "--p", "3", "--pi", "t^2 + 1", "--poly", "x^2 - t^2 - 1"]
    code, out, err = run(capsys, *argv, "--precision", "1025")
    assert (code, out) == (2, "")
    assert err == "error[E_INPUT]: precision must be at least 2 and at most 1024\n"
    code, out, _ = run(capsys, *argv, "--precision", "1024")
    assert code == 0 and "precision: 1024\n" in out
    # f_bar = x^2 + 2 has no repeated factor at 5, so no lift would run
    for precision in ("-7", "100000"):
        code, out, err = run(
            capsys, "verify", "--prime", "5", "--poly", "x^2 + 2", "--precision", precision
        )
        assert (code, out) == (2, "")
        assert err == "error[E_INPUT]: precision must be at least 2 and at most 1024\n"


def test_corpus_max_deg_cap_exits_2(capsys):
    for max_deg in ("0", "4097", "100000"):
        code, out, err = run(
            capsys, "corpus", "--primes", "2", "--count", "1", "--max-deg", max_deg
        )
        assert (code, out) == (2, "")
        assert err == "error[E_INPUT]: --max-deg must be at least 1 and at most 4096\n"


def test_unexpected_exception_exits_3(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "dedekind_verdict", broken)
    code, out, err = run(capsys, "check", "--prime", "2", "--poly", "x^2 - 5")
    assert (code, out) == (3, "")
    assert err == "error[E_INTERNAL]: RuntimeError: boom\n"


def test_assume_irreducible_flag(capsys):
    code, _, err = run(
        capsys, "check", "--prime", "3", "--poly", "x^2 - 4", "--assume-irreducible"
    )
    assert code == 0
    assert err == ""


def test_base_flag_validation(capsys):
    code, _, err = run(capsys, "check", "--base", "Fq", "--p", "2", "--poly", "x^2 - t")
    assert code == 2
    assert "--pi is required" in err

    code, _, err = run(capsys, "check", "--base", "Q", "--poly", "x")
    assert code == 2
    assert "--prime is required" in err

    code, _, err = run(
        capsys, "check", "--base", "Q", "--prime", "5", "--p", "2", "--poly", "x"
    )
    assert code == 2
    assert "apply to base Fq only" in err

    code, _, err = run(
        capsys,
        "check", "--base", "Fq", "--p", "2", "--pi", "t", "--prime", "3",
        "--poly", "x^2 - t",
    )
    assert code == 2
    assert "applies to base Q only" in err

    code, _, err = run(
        capsys, "check", "--base", "Fq", "--p", "2", "--pi", "t^2", "--poly", "x"
    )
    assert code == 2
    assert "pi must be irreducible" in err


def test_degree_two_place(capsys):
    code, out, _ = run(
        capsys,
        "check", "--base", "Fq", "--p", "2", "--pi", "t^2 + t + 1",
        "--poly", "x^2 - t",
    )
    assert code == 0
    assert "base: F_2(t) at pi = t^2 + t + 1\n" in out
    assert "witness [0]: phi = x + t + 1, l = 2, r = t^2 + t + 1, nu(r) = 1\n" in out


def test_extension_coefficient_field(capsys):
    code, out, _ = run(
        capsys,
        "check", "--base", "Fq", "--p", "3", "--e", "2", "--pi", "t^2 + u + u^2",
        "--poly", "x^2 - t", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["base"] == "F_9(t) at pi = t^2 + u + 2"
    assert payload["verdict"]["integrally_closed"] is True


def test_seed_flag_changes_nothing(capsys):
    for cmd in (("check",), ("split",), ("count-extensions",)):
        a = run(capsys, *cmd, "--prime", "7", "--poly", "x^2 - 7", "--seed", "0")
        b = run(capsys, *cmd, "--prime", "7", "--poly", "x^2 - 7", "--seed", "99")
        assert a == b

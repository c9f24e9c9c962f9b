import json
from decimal import Decimal
from fractions import Fraction

import pytest

from qkoorn.cli import main
from qkoorn.ratfield import KOORN_VARS, ParamRat
from qkoorn.spectra import eigenvalue_Ern
from qkoorn.weightfn import (DEFAULT_POINT, WeightFunctionSpec,
                             gram_schmidt_oracle)


def run(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


def coeffs(data):
    return {tuple(c["weight"]): ParamRat.parse(KOORN_VARS, c["value"])
            for c in data["coeffs"]}


def test_apply_reads_poly_output(tmp_path):
    run(tmp_path, ["poly", "--n", "2", "--weight", "1,0"], "p.json")
    img = run(tmp_path, ["apply", "--op", '{"kind":"Dr","n":2,"r":1}',
                         "--in", str(tmp_path / "p.json")])
    p = coeffs(json.loads((tmp_path / "p.json").read_text()))
    ev = eigenvalue_Ern(1, 2, (1, 0))
    got = coeffs(img)
    assert set(got) == set(p)
    for mu, c in p.items():
        assert got[mu] == c * ev


@pytest.mark.parametrize("value", ["2qh", "(qh+1)/(0)"])
def test_apply_rejects_malformed_coefficient(tmp_path, value):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"n": 1, "weight": [1], "coeffs": [
        {"weight": [1], "value": value}]}))
    with pytest.raises(SystemExit) as exc:
        main(["apply", "--op", '{"kind":"Dr","n":1,"r":1}', "--in", str(src)])
    assert exc.value.code == 2


def _fraction(text):
    # Decimal reads integers past the interpreter's int-from-str digit limit
    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


def test_gram_schmidt_output_past_int_digit_limit(tmp_path):
    data = run(tmp_path, ["poly", "--n", "1", "--weight", "2", "--method",
                          "gs", "--trunc", "6"])
    assert max(len(c["value"]) for c in data["coeffs"]) > 4300
    want = gram_schmidt_oracle((2,), WeightFunctionSpec(1, M=6,
                                                        point=DEFAULT_POINT))
    assert {tuple(c["weight"]): _fraction(c["value"])
            for c in data["coeffs"]} == want.coeffs


def test_limits_suite_honours_maxdeg(tmp_path):
    totals = [run(tmp_path, ["verify", "--suite", "limits", "--n", "1",
                             "--maxdeg", d])["total"] for d in ("1", "2")]
    assert totals == [8, 12]


def test_symmetry_suite_pairs_the_zero_weight(tmp_path):
    # D_r m_0 = 0, so the pairings with the zero weight are plain rationals
    data = run(tmp_path, ["verify", "--suite", "symmetry", "--n", "1",
                          "--maxdeg", "2", "--trunc", "4"])
    assert (data["passed"], data["total"]) == (9, 9)


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


BAD_INPUTS = {
    "q-out-of-range": (["poly", "--n", "1", "--weight", "2", "--numeric",
                        "q=2,t=1/2,a=1/2,b=-1/3,c=1/5,d=-1/7"], 2),
    "numeric-garbage": (["poly", "--n", "1", "--weight", "2", "--numeric",
                         "garbage"], 2),
    "unknown-parameter": (["poly", "--n", "1", "--weight", "2", "--params",
                           '{"zz":"1"}'], 2),
    "unknown-family": (["poly", "--n", "1", "--weight", "2", "--method",
                        "family", "--family", "Xn"], 2),
    "weight-not-integers": (["poly", "--n", "2", "--weight", "a,b"], 2),
    "zero-parameter-image": (["poly", "--n", "1", "--weight", "2",
                              "--params", '{"th":"ga-ga"}'], 2),
    # a property of the parameter point, not of the command line
    "divergent-series": (["poly", "--n", "1", "--weight", "1", "--method",
                          "gs", "--trunc", "3", "--numeric",
                          "q=1/4,t=1/2,a=1,b=-1/3,c=1,d=-1/7"], 3),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_with_one_error_line(tmp_path, capsys, case):
    argv, code = BAD_INPUTS[case]
    out = tmp_path / "out.json"
    assert exit_code(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


SUITES = (
    ["families", "--n", "1"],
    ["commute", "--n", "2", "--maxdeg", "1"],
    ["forms", "--n", "1", "--maxdeg", "2"],
    ["appendixB", "--max", "2"],
    ["orthogonality", "--n", "1", "--maxdeg", "2", "--trunc", "4"],
    ["triangularity", "--n", "2", "--maxdeg", "2"],
    ["eigenvalues", "--n", "2", "--maxdeg", "2"],
    ["decouple", "--n", "2", "--maxdeg", "1"],
    ["limits", "--n", "1", "--maxdeg", "1"],
)


# symmetry runs in test_symmetry_suite_pairs_the_zero_weight
@pytest.mark.parametrize("args", SUITES, ids=lambda args: args[0])
def test_every_suite_passes(tmp_path, args):
    data = run(tmp_path, ["verify", "--suite"] + args)
    assert data["suite"] == args[0]
    assert 0 < data["passed"] == data["total"]


POLY_METHODS = {
    "eigen": [],
    "eigen-numeric": ["--numeric", "q=1/4,t=1/2,a=1/2,b=-1/3,c=1/5,d=-1/7"],
    "gs": ["--method", "gs", "--trunc", "3"],
    "jacobi": ["--method", "jacobi"],
    "an": ["--method", "an"],
    "family": ["--method", "family", "--family", "Bn:Cn"],
}


@pytest.mark.parametrize("method", sorted(POLY_METHODS))
def test_every_poly_method_is_monic(tmp_path, method):
    data = run(tmp_path, ["poly", "--n", "2", "--weight", "1,0"]
               + POLY_METHODS[method])
    assert [c["value"] for c in data["coeffs"]
            if c["weight"] == [1, 0]] == ["1"]

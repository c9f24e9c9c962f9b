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

import json
import math
from decimal import Decimal
from fractions import Fraction
from itertools import permutations, product

import pytest

from qkoorn import cli
from qkoorn.cli import main
from qkoorn.errors import NotDivisible
from qkoorn.ratfield import JACOBI_VARS, KOORN_VARS, ParamRat
from qkoorn.spectra import eigenvalue_Ern, eigenvalue_jacobi
from qkoorn.weightfn import (DEFAULT_POINT, WeightFunctionSpec,
                             gram_schmidt_oracle)


def run(tmp_path, argv, name="out.json"):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


def coeffs(data, pvars=KOORN_VARS):
    return {tuple(c["weight"]): ParamRat.parse(pvars, c["value"])
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


def test_apply_reads_jacobi_output(tmp_path):
    run(tmp_path, ["poly", "--n", "2", "--weight", "1,0", "--method",
                   "jacobi"], "p.json")
    img = run(tmp_path, ["apply", "--op",
                         '{"kind":"Jacobi_D10","n":2,"group":"BC"}',
                         "--in", str(tmp_path / "p.json")])
    p = coeffs(json.loads((tmp_path / "p.json").read_text()), JACOBI_VARS)
    ev = eigenvalue_jacobi(1, 2, (1, 0))
    got = coeffs(img, JACOBI_VARS)
    assert set(got) == set(p)
    for mu, c in p.items():
        assert got[mu] == c * ev


def test_apply_cancels_the_input_denominators(tmp_path):
    # the image of p_(1,0) is E p_(1,0); E = 2g+tg0+tg1+1 is the
    # denominator of the (0,0) coefficient, which the image cancels
    run(tmp_path, ["poly", "--n", "2", "--weight", "1,0", "--method",
                   "jacobi"], "p.json")
    img = run(tmp_path, ["apply", "--op", '{"kind":"Jacobi_D10","n":2}',
                         "--in", str(tmp_path / "p.json")])
    text = {tuple(c["weight"]): c["value"] for c in img["coeffs"]}
    assert text == {(1, 0): "2*g+tg0+tg1+1", (0, 0): "4*tg0-4*tg1"}


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or build())
    for w in ("1", "2"):
        run(tmp_path, ["poly", "--n", "1", "--weight", w])
    assert built == [1]


def _signed_orbit(lam, even):
    """Signed permutations of lam, with an even number of sign changes
    when ``even``, as a set."""
    return {tuple(s * x for s, x in zip(signs, p))
            for p in permutations(lam)
            for signs in product((1, -1), repeat=len(lam))
            if not even or math.prod(signs) == 1}


def _orbit_sum(lam, z, even=False):
    return sum(math.prod(x ** k for x, k in zip(z, e))
               for e in _signed_orbit(lam, even))


def _param_at(text, values):
    rat = ParamRat.parse(KOORN_VARS, text)

    def at(poly):
        assert poly.scale == 1
        return sum(c * math.prod(v ** k for v, k in zip(values, e))
                   for e, c in poly.terms.items())
    return at(rat.num) / at(rat.den)


@pytest.mark.parametrize("kind", ["Dn_plus", "Dn_minus"])
@pytest.mark.parametrize("lam", [(1, 0), (1, 0, 0), (2, 0, 0), (1, 1, 1)])
def test_half_spin_operator_image(tmp_path, kind, lam):
    # the image of the BC monomial m_lam, read back over D_n orbits, against
    # the product formula at a rational point: the sum over sign vectors of
    # product +1 (plus) or -1 (minus) of prod_{j<k} v_a(z_j^e_j z_k^e_k)
    # times m_lam(q^(e/2) z)
    n = len(lam)
    src = tmp_path / "m.json"
    src.write_text(json.dumps({"n": n, "weight": list(lam), "coeffs": [
        {"weight": list(lam), "value": "1"}]}))
    img = run(tmp_path, ["apply", "--op", json.dumps(
        {"kind": kind, "n": n, "group": "D"}), "--in", str(src)])
    qh, th = Fraction(2, 7), Fraction(3, 5)
    z = (Fraction(5, 3), Fraction(-7, 4), Fraction(11, 6))[:n]

    def va(w):
        return (th * w - 1 / th) / (w - 1)
    sign = 1 if kind == "Dn_plus" else -1
    want = 0
    for eps in product((1, -1), repeat=n):
        if math.prod(eps) == sign:
            zz = [x ** e for x, e in zip(z, eps)]
            want += math.prod(va(zz[j] * zz[k])
                              for j in range(n) for k in range(j + 1, n)) \
                * _orbit_sum(lam, [qh * x ** e for x, e in zip(z, eps)])
    point = (qh, th, 1, 1, 1, 1)
    got = sum(_param_at(c["value"], point)
              * _orbit_sum(c["weight"], z, even=True)
              for c in img["coeffs"])
    assert got == want


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


@pytest.mark.parametrize("args,total", [
    (["triangularity", "--n", "1", "--maxdeg", "0"], 1),
    (["triangularity", "--n", "2", "--maxdeg", "0"], 2),
    (["limits", "--n", "1", "--maxdeg", "0"], 4),
    (["appendixB", "--max", "1"], 12),
    (["orthogonality", "--n", "1", "--maxdeg", "1", "--trunc", "0"], 1),
], ids=lambda v: "".join(v).replace("--", "-") if isinstance(v, list)
   else str(v))
def test_verify_honours_the_least_sizes(tmp_path, args, total):
    # a size at its least value is run as given, not replaced by a default
    data = run(tmp_path, ["verify", "--suite"] + args)
    assert data["passed"] == data["total"] == total


def test_empty_suite_names_the_suite_and_sizes(capsys):
    assert exit_code(["verify", "--suite", "commute", "--n", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: suite commute has no checks at n=1, maxdeg=3\n")


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


# polynomials that ``apply`` reads: an argument "@name" stands for a file
# holding INPUTS[name]
INPUTS = {
    "m10": {"n": 2, "weight": [1, 0],
            "coeffs": [{"weight": [1, 0], "value": "1"}]},
    "m100+m000": {"n": 3, "weight": [1, 0, 0], "group": "A",
                  "coeffs": [{"weight": [1, 0, 0], "value": "1"},
                             {"weight": [0, 0, 0], "value": "1"}]},
    "qh*m10": {"n": 2, "weight": [1, 0],
               "coeffs": [{"weight": [1, 0], "value": "qh"}]},
    # z_1 + z_2 + z_3: invariant under permutations, not under sign changes
    "m100 over A": {"n": 3, "weight": [1, 0, 0], "group": "A",
                    "coeffs": [{"weight": [1, 0, 0], "value": "1"}]},
    "sum-beside-quotient*m10": {
        "n": 2, "weight": [1, 0],
        "coeffs": [{"weight": [1, 0], "value": "qh*th + 1/(qh*th)"}]},
}


def with_inputs(tmp_path, argv):
    out = []
    for arg in argv:
        if arg.startswith("@"):
            path = tmp_path / ("in_%d.json" % len(out))
            path.write_text(json.dumps(INPUTS[arg[1:]]))
            arg = str(path)
        out.append(arg)
    return out


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
    # routes that take no parameter substitution refuse one
    "params-with-numeric": (["poly", "--n", "1", "--weight", "2", "--numeric",
                             "q=1/4,t=1/2,a=1/2,b=-1/3,c=1/5,d=-1/7",
                             "--params", '{"gb":"1","gc":"1","gd":"1"}'], 2),
    "params-with-gs": (["poly", "--n", "1", "--weight", "2", "--method", "gs",
                        "--trunc", "3", "--params", '{"gb":"1"}'], 2),
    "params-with-jacobi": (["poly", "--n", "1", "--weight", "2", "--method",
                            "jacobi", "--params", '{"gb":"1"}'], 2),
    "params-with-family": (["poly", "--n", "1", "--weight", "2", "--method",
                            "family", "--family", "Bn:Cn", "--params",
                            '{"gb":"1"}'], 2),
    # routes that run at no numeric point refuse one
    "numeric-with-jacobi": (["poly", "--n", "1", "--weight", "2", "--method",
                             "jacobi", "--numeric",
                             "q=1/4,t=1/2,a=1/2,b=-1/3,c=1/5,d=-1/7"], 2),
    "numeric-with-an": (["poly", "--n", "1", "--weight", "2", "--method",
                         "an", "--numeric",
                         "q=1/4,t=1/2,a=1/2,b=-1/3,c=1/5,d=-1/7"], 2),
    "numeric-with-family": (["poly", "--n", "1", "--weight", "2", "--method",
                             "family", "--family", "Bn:Bn", "--numeric",
                             "q=1/4,t=1/2,a=1/2,b=-1/3,c=1/5,d=-1/7"], 2),
    # a property of the parameter point, not of the command line
    "divergent-series": (["poly", "--n", "1", "--weight", "1", "--method",
                          "gs", "--trunc", "3", "--numeric",
                          "q=1/4,t=1/2,a=1,b=-1/3,c=1,d=-1/7"], 3),
    "centered-not-homogeneous": (["apply", "--op", '{"kind":"A_Dr_centered",'
                                  '"n":3,"r":1,"group":"A"}',
                                  "--in", "@m100+m000"], 2),
    "coefficient-outside-jacobi-ring": (["apply", "--op",
                                         '{"kind":"Jacobi_D10","n":2}',
                                         "--in", "@qh*m10"], 2),
    "operator-and-input-sizes-differ": (["apply", "--op",
                                         '{"kind":"Dr","n":3,"r":1}',
                                         "--in", "@m10"], 2),
    "input-not-invariant-c-spin": (["apply", "--op",
                                    '{"kind":"C_spin","n":3,"group":"BC"}',
                                    "--in", "@m100 over A"], 2),
    "input-not-invariant-dr": (["apply", "--op",
                                '{"kind":"Dr","n":3,"r":1,"group":"BC"}',
                                "--in", "@m100 over A"], 2),
    # sizes below their least value
    "verify-n-0": (["verify", "--suite", "triangularity", "--n", "0"], 2),
    "verify-maxdeg-negative": (["verify", "--suite", "triangularity",
                                "--maxdeg", "-1"], 2),
    "verify-max-0": (["verify", "--suite", "appendixB", "--max", "0"], 2),
    "verify-trunc-negative": (["verify", "--suite", "orthogonality", "--n",
                               "1", "--maxdeg", "1", "--trunc", "-3"], 2),
    "poly-trunc-negative": (["poly", "--n", "1", "--weight", "1", "--method",
                             "gs", "--trunc", "-1"], 2),
    # options that the chosen suite does not read
    "verify-numeric-not-read": (["verify", "--suite", "forms", "--n", "1",
                                 "--maxdeg", "1", "--numeric", "garbage",
                                 "--max", "99"], 2),
    "verify-trunc-not-read": (["verify", "--suite", "triangularity",
                               "--trunc", "3"], 2),
    "verify-max-not-read": (["verify", "--suite", "orthogonality", "--n", "1",
                             "--maxdeg", "1", "--max", "2"], 2),
    "coefficient-sum-beside-quotient": (["apply", "--op",
                                         '{"kind":"Dr","n":2,"r":1}',
                                         "--in", "@sum-beside-quotient*m10"],
                                        2),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_with_one_error_line(tmp_path, capsys, case):
    argv, code = BAD_INPUTS[case]
    out = tmp_path / "out.json"
    assert exit_code(with_inputs(tmp_path, argv) + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


# apply to m_(1/2,1/2) at n = 2: a half-lattice input is admissible exactly
# when every sigma = +1 v_b shape of the kind (gb, and gd for Dr) maps to 1;
# the kinds without v_b take any map
BN_BN = {"gb": "1", "gc": "1", "gd": "1"}
HALF_LATTICE = [
    ("Dr", 1, {}, "gb and gd"),
    ("Dr", 1, {"gb": "1"}, "gd"),
    ("Dr", 1, {"gd": "1"}, "gb"),
    ("Dr", 1, {"ga": "1", "gc": "1"}, "gb and gd"),
    ("Dr", 1, {"gb": "1", "gd": "1"}, None),
    ("Dr", 1, BN_BN, None),
    ("Dr", 2, BN_BN, None),
    ("C_spin", None, {}, "gb"),
    ("C_spin", None, {"ga": "1"}, "gb"),
    ("C_spin", None, {"gd": "1"}, "gb"),
    ("C_spin", None, {"gb": "1"}, None),
    ("C_spin", None, BN_BN, None),
    ("Dn_plus", None, {}, None),
    ("Dn_plus", None, {"ga": "1"}, None),
    ("Dn_plus", None, {"gb": "1"}, None),
    ("Dn_plus", None, {"gd": "1"}, None),
    ("Dn_minus", None, {}, None),
]


def _half_lattice_apply(tmp_path, kind, r, params):
    src = tmp_path / "m.json"
    src.write_text(json.dumps({"n": 2, "weight": [1, 1], "half_lattice": True,
                               "coeffs": [{"weight": [1, 1], "value": "1"}]}))
    op = {"kind": kind, "n": 2, "params": params,
          "group": "D" if kind.startswith("Dn") else "BC"}
    if r is not None:
        op["r"] = r
    return ["apply", "--op", json.dumps(op), "--in", str(src),
            "--out", str(tmp_path / "out.json")]


@pytest.mark.parametrize("kind,r,params,needs", HALF_LATTICE, ids=[
    "%s-r%s-%s" % (k, r, "-".join("%s=1" % g for g in p) or "none")
    for k, r, p, _ in HALF_LATTICE])
def test_half_lattice_input_is_refused_unless_admissible(
        tmp_path, capsys, kind, r, params, needs):
    argv = _half_lattice_apply(tmp_path, kind, r, params)
    assert exit_code(argv) == (0 if needs is None else 2)
    err = capsys.readouterr().err
    if needs is None:
        assert err == ""
        assert json.loads((tmp_path / "out.json").read_text())["half_lattice"]
    else:
        assert err.count("\n") == 1
        assert err.startswith("error: a half-lattice input needs %s mapped "
                              "to 1" % needs)


def test_not_divisible_on_an_admissible_input_stays_a_contract_fault(
        tmp_path, capsys, monkeypatch):
    def fail(spec, f):
        raise NotDivisible("line through z^(1/2, 1/2)")
    monkeypatch.setattr(cli, "apply_operator", fail)
    argv = _half_lattice_apply(tmp_path, "Dr", 1, BN_BN)
    assert exit_code(argv) == 4
    assert capsys.readouterr().err.startswith(
        "error: internal contract violation")


SUITES = (
    ["families", "--n", "1"],
    ["commute", "--n", "2", "--maxdeg", "1"],
    ["forms", "--n", "1", "--maxdeg", "2"],
    ["forms", "--n", "3", "--maxdeg", "1"],
    ["appendixB", "--max", "2"],
    ["orthogonality", "--n", "1", "--maxdeg", "2", "--trunc", "4"],
    ["triangularity", "--n", "2", "--maxdeg", "2"],
    ["eigenvalues", "--n", "2", "--maxdeg", "2"],
    ["decouple", "--n", "2", "--maxdeg", "1"],
    ["limits", "--n", "1", "--maxdeg", "1"],
)


# symmetry runs in test_symmetry_suite_pairs_the_zero_weight; a suite listed
# again is told apart by its --n
@pytest.mark.parametrize("args", SUITES, ids=[
    args[0] if all(a[0] != args[0] for a in SUITES[:i])
    else "%s-n%s" % (args[0], args[2]) for i, args in enumerate(SUITES)])
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


def test_text_format_and_standard_output(capsys):
    # without --out the result goes to standard output; --format text lists
    # a suite's checks and writes any other payload as JSON
    assert main(["verify", "--suite", "appendixB", "--max", "1",
                 "--format", "text"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "suite appendixB: %d/%d passed" % (
        len(lines) - 1, len(lines) - 1)
    assert all(line.startswith("PASS   ") for line in lines[:-1])
    outputs = []
    for fmt in ("json", "text"):
        assert main(["poly", "--n", "1", "--weight", "1",
                     "--format", fmt]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    data = json.loads(outputs[0])
    assert data["weight"] == [1] and [c["weight"] for c in data["coeffs"]] \
        == [[0], [1]]

"""Each benchmark check accepts qkoorn's real output and rejects the same
output with one coefficient perturbed.

Run with ``PYTHONPATH=src python -m pytest qkbench``.
"""

import json
import random
from fractions import Fraction

import pytest

import run
import textbook as tb
import workloads as wl

cli = pytest.importorskip("qkoorn.cli")


def _run(argv, tmp_path):
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_text()


def _render_sum(terms):
    parts = []
    for key, coeff in terms.items():
        factors = ["%s^(%d/%d)" % (name, e.numerator, e.denominator)
                   if e.denominator != 1 else "%s^%d" % (name, int(e))
                   for name, e in key]
        parts.append("*".join([str(coeff)] + factors))
    text = "+".join(parts) or "0"
    return text.replace("+-", "-")


def _perturb_symbolic(text, mu, shift=Fraction(1, 7)):
    """The same JSON with the coefficient of m_mu increased by ``shift``."""
    data = json.loads(text)
    for item in data["coeffs"]:
        if tuple(item["weight"]) == mu:
            c = tb.parse_coeff(item["value"])
            num = dict(c.num)
            for key, v in c.den.items():
                num[key] = num.get(key, 0) + shift * v
            item["value"] = "(%s)/(%s)" % (_render_sum(num),
                                           _render_sum(c.den))
            return json.dumps(data)
    raise AssertionError("no coefficient at %s" % (mu,))


def _perturb_rational(text, mu):
    """The same JSON with the coefficient of m_mu moved by about 1e-3."""
    data = json.loads(text)
    for item in data["coeffs"]:
        if tuple(item["weight"]) == mu:
            c = Fraction(item["value"])
            item["value"] = str(c + max(abs(c), 1) / 1000)
            return json.dumps(data)
    raise AssertionError("no coefficient at %s" % (mu,))


def test_parse_coeff_forms():
    half = {"qh": Fraction(2), "th": Fraction(3), "gb": Fraction(5)}
    cases = {
        "3/2*qh^2*th^-1-gb+1": Fraction(3, 2) * 4 / 3 - 5 + 1,
        "-1/2": Fraction(-1, 2),
        "(qh+1)/(th-2)": Fraction(3, 1),
        "-1/2/(qh-th)": Fraction(1, 2),
        "qh^(1/2)*gb": None,
    }
    for text, want in cases.items():
        c = tb.parse_coeff(text)
        if want is None:
            with pytest.raises(ValueError):
                c.evaluate(half)
        else:
            assert c.evaluate(half) == want
    assert tb.parse_coeff("qh^(1/2)").evaluate({"qh": Fraction(9, 4)}) == \
        Fraction(3, 2)
    for bad in ("", "qh^x", "2**qh", "(qh+1)/(0)"):
        with pytest.raises(ValueError):
            tb.parse_coeff(bad)


def test_quadrature_truncation_is_trivial_at_trivial_couplings():
    # a = 1, b = -1, c = q^(1/2), d = -q^(1/2): the one-variable truncated
    # weight is exactly 1 only if its numerator carries 2M factors, so the
    # monomials come out orthonormal up to orbit size
    qh = Fraction(1, 2)
    quad = tb.TorusQuadrature(1, 3, (qh * qh, 1, 1, -1, qh, -qh), 24)
    m1, m2 = tb.Expansion({(1,): 1.0}), tb.Expansion({(2,): 1.0})
    one = tb.Expansion({(0,): 1.0})
    assert abs(quad.inner(m1, m1) - 2) < 1e-12
    assert abs(quad.inner(one, one) - 1) < 1e-12
    assert abs(quad.inner(m1, one)) < 1e-12
    assert abs(quad.inner(m2, m1)) < 1e-12


@pytest.mark.parametrize("n,lam,family", [(1, (3,), None),
                                          (2, (1, 1), "BCn:Cn")])
def test_poly_check(tmp_path, n, lam, family):
    argv = ["poly", "--n", str(n), "--weight", ",".join(map(str, lam))]
    if family:
        argv += ["--params", json.dumps(wl.FAMILIES[family])]
    text = _run(argv, tmp_path)
    meta = {"lam": lam, "family": family}
    assert wl.check_poly({"p": (meta, text)}, random.Random(1)) == []
    lower = (0,) * n if n == 1 else (1, 0)
    bad = _perturb_symbolic(text, lower)
    assert wl.check_poly({"p": (meta, bad)}, random.Random(1))
    assert wl.check_poly({"p": (meta, _perturb_symbolic(text, lam))},
                         random.Random(1))


def test_repeated_request_checks_each_distinct_answer(tmp_path):
    # the cold-cache answer of a repeated request is wrong, the warm one
    # right: the round keeps both and the check rejects the first
    text = _run(["poly", "--n", "1", "--weight", "3"], tmp_path)
    answers = [_perturb_symbolic(text, (1,)), text]

    def main(argv):
        with open(argv[argv.index("--out") + 1], "w") as fh:
            fh.write(answers.pop(0))
        return 0

    req = wl.Request(("poly", 1, (3,), None), ["poly"],
                     {"lam": (3,), "family": None})
    _, outs, failed, _ = run.run_round(main, [req, req], str(tmp_path),
                                       None, 0)
    assert failed == 0 and len(outs[req.key][1]) == 2
    errors = run.check("poly-symbolic", [outs], random.Random(1))
    assert len(errors) == 1 and errors[0].startswith(repr(req.key))


@pytest.fixture(scope="module")
def apply_outputs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("apply")
    requests, files = wl.apply_round(str(workdir), top=(1, 1))
    for path, body in files.items():
        with open(path, "w") as fh:
            fh.write(body)
    return {req.key: (req.meta, _run(req.argv, workdir)) for req in requests}


def test_apply_check_accepts(apply_outputs):
    assert wl.check_apply(apply_outputs, random.Random(2)) == []


@pytest.mark.parametrize("r,lam,mu,what", [
    (1, (1, 0), (0, 0), "Koornwinder's operator"),
    (2, (1, 1), (1, 1), "2^r E_{r,n}"),
    (2, (1, 1), (0, 0), "D_1 D_2 m != D_2 D_1 m"),
    (1, (1, 1), (1, 0), "Koornwinder's operator"),
])
def test_apply_check_rejects(apply_outputs, r, lam, mu, what):
    outs = dict(apply_outputs)
    meta, text = outs[("apply", r, lam)]
    outs[("apply", r, lam)] = (meta, _perturb_symbolic(text, mu))
    errors = wl.check_apply(outs, random.Random(2))
    assert errors and what in errors[0]


@pytest.mark.parametrize("route,lam", [("eigen", (2,)), ("eigen", (2, 1)),
                                       ("gs", (3,)), ("gs", (1, 1))])
def test_numeric_check(tmp_path, route, lam):
    argv = ["poly", "--n", str(len(lam)), "--weight",
            ",".join(map(str, lam)), "--numeric", wl.NUMERIC_TEXT]
    if route == "gs":
        argv += ["--method", "gs", "--trunc", str(wl.NUMERIC_M)]
    text = _run(argv, tmp_path)
    meta = {"lam": lam, "route": route}
    assert wl.check_numeric({"p": (meta, text)}, random.Random(3)) == []
    lower = sorted(tb.dominant_below(lam))[-2]
    bad = _perturb_rational(text, lower)
    errors = wl.check_numeric({"p": (meta, bad)}, random.Random(3))
    assert errors
    assert ("eigen-equation" if route == "eigen" else "relative") \
        in errors[0]

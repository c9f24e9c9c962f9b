import random
from fractions import Fraction

import pytest

from qkoorn.errors import DenominatorVanishes
from qkoorn.koornwinder import _constant_value
from qkoorn.laurent import LaurentRat, canonical_binomial, torus_vars
from qkoorn.operators import ParamMap, va_factor, vb_factor
from qkoorn.ratfield import KOORN_VARS, QQ, ParamPoly, ParamRat
from qkoorn.spectra import ch_of_monomial, eigenvalue_An_leading
from qkoorn.weightfn import (NumericPoint, WeightFunctionSpec, delta_truncate,
                             gram_schmidt_oracle)

VARS = ("th", "w")


def rand_poly(rng, vars_=VARS, terms=4, span=3):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randint(-span, span) for _ in vars_)
        out[e] = QQ(rng.randint(-6, 6))
    return ParamPoly(vars_, out)


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * ParamPoly.one(VARS) == a
        assert a + ParamPoly.zero(VARS) == a


def test_rat_field_ops():
    rng = random.Random(11)
    for _ in range(25):
        a, b = rand_poly(rng), rand_poly(rng)
        if b.is_zero():
            continue
        r = ParamRat(a, b)
        assert r * ParamRat(b, ParamPoly.one(VARS)) == a
        assert (r - r).is_zero()
        if not a.is_zero():
            assert (r / r).is_one()


def test_cross_multiplication_equality():
    a = ParamPoly.variable(VARS, "th")
    one = ParamPoly.one(VARS)
    # th/(th^2) == 1/th without any gcd reduction
    assert ParamRat(a, a * a) == ParamRat(one, a)


def test_substitute_identity():
    rng = random.Random(3)
    f = ParamRat(rand_poly(rng), rand_poly(rng) + ParamPoly.one(VARS) * 7)
    assert f.substitute({}) == f
    assert f.substitute({"th": ParamPoly.variable(VARS, "th")}) == f


def test_substitute_homomorphism():
    rng = random.Random(5)
    sigma = {"th": ParamPoly.variable(VARS, "w", 2)}
    for _ in range(15):
        f = ParamRat.from_poly(rand_poly(rng))
        g = ParamRat.from_poly(rand_poly(rng))
        assert (f * g).substitute(sigma) == \
            f.substitute(sigma) * g.substitute(sigma)
        assert (f + g).substitute(sigma) == \
            f.substitute(sigma) + g.substitute(sigma)


def test_trivial_coupling_collapses_pair_ratio():
    # (th^2 w - 1)/(th (w - 1)) becomes 1 when th -> 1
    th = ParamPoly.variable(VARS, "th")
    w = ParamPoly.variable(VARS, "w")
    f = ParamRat(th * th * w - 1, th * (w - 1))
    out = f.substitute({"th": 1})
    assert out.is_one()


def test_shift_unit_limit_with_cancellation():
    # num and den share a (qh - 1) factor; the limit qh -> 1 cancels it
    V6 = KOORN_VARS
    qh = ParamPoly.variable(V6, "qh")
    th = ParamPoly.variable(V6, "th")
    f = ParamRat((qh - 1) * (th + 2), (qh - 1) * th)
    out = f.substitute({"qh": 1})
    assert out == ParamRat(th + 2, th)
    # univariate division oracle in the shift unit: ((qh^2-1)/(qh-1)) -> 2
    g = ParamRat(qh * qh - 1, qh - 1)
    assert g.substitute({"qh": 1}) == ParamRat.const(V6, 2)


def test_rational_values_pin_one_entry_at_a_time():
    # x = 1 cancels a removable factor that y = 2 alone would not
    x = ParamPoly.variable(("x", "y"), "x")
    y = ParamPoly.variable(("x", "y"), "y")
    f = ParamRat((x - 1) * y, (x - 1) * (y + 1))
    assert f.substitute({"x": 1, "y": 2}) == ParamRat.const(("x", "y"),
                                                            QQ(2, 3))
    assert f.substitute({"y": 2, "x": QQ(1)}) == QQ(2, 3)
    with pytest.raises(DenominatorVanishes):
        ParamRat(y, x - 1).substitute({"y": 2, "x": 1})


@pytest.mark.parametrize("image", [0.1, 2.0, "x"])
def test_substitution_refuses_an_image_of_another_type(image):
    # an exact field takes no float, whose binary expansion is not the
    # rational it was written as
    x = ParamPoly.variable(("x", "y"), "x")
    y = ParamPoly.variable(("x", "y"), "y")
    with pytest.raises(TypeError):
        (x * y + 1).substitute({"x": image})
    with pytest.raises(TypeError):
        ParamRat(x * y + 1, y + 2).substitute({"x": image})
    with pytest.raises(TypeError):
        ParamRat(x, y + 2).substitute({"x": image, "y": 1})


def test_genuine_pole_raises():
    V6 = KOORN_VARS
    qh = ParamPoly.variable(V6, "qh")
    f = ParamRat(ParamPoly.one(V6), qh - 1)
    with pytest.raises(DenominatorVanishes):
        f.substitute({"qh": 1})


def test_fractional_lattice_monomials():
    V6 = KOORN_VARS
    half = ParamPoly.variable(V6, "qh", (1, 2))
    assert half * half == ParamPoly.variable(V6, "qh")
    third = ParamPoly.variable(V6, "qh", (1, 3))
    assert third ** 3 == ParamPoly.variable(V6, "qh")
    assert (half * third).scale == 6


def test_render_deterministic():
    V6 = KOORN_VARS
    f = ParamRat(ParamPoly.variable(V6, "qh", 2) * 3 - 1,
                 ParamPoly.variable(V6, "th") + 1)
    assert f.render() == "(3*qh^2-1)/(th+1)"
    assert f.render() == f.render()


def test_parse_reads_render():
    rng = random.Random(29)
    V6 = KOORN_VARS
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(-3, 3) for _ in V6)
            terms[e] = QQ(rng.randint(-9, 9), rng.randint(1, 5))
        num = ParamPoly(V6, terms, rng.choice([1, 1, 2, 3]))
        den = ParamPoly(V6, {(0,) * 6: QQ(1), (1, 0, 2, 0, 0, 0): QQ(-3, 2)})
        for value in (ParamRat.from_poly(num), ParamRat(num, den)):
            assert ParamRat.parse(V6, value.render()) == value
    assert ParamRat.parse(V6, "qh/th") == ParamRat(
        ParamPoly.variable(V6, "qh"), ParamPoly.variable(V6, "th"))


@pytest.mark.parametrize("text", ["", "2qh", "qh^", "qh+", "x", "qh^(1/0)",
                                  "(qh)/(0)", "1/0", "qh**2"])
def test_parse_rejects_malformed(text):
    with pytest.raises((ValueError, ZeroDivisionError)):
        ParamRat.parse(KOORN_VARS, text)


@pytest.mark.parametrize("text", ["qh*th + 1/(qh*th)", "1/(qh*th)+qh*th",
                                  "qh+1/th", "(qh+1)/th+1"])
def test_parse_refuses_a_sum_beside_a_quotient(text):
    # render parenthesises each side of a quotient that is a sum, so a sum
    # with an unparenthesised quotient in it is not its text
    with pytest.raises(ValueError, match="quotient"):
        ParamRat.parse(KOORN_VARS, text)


def test_parse_reads_a_term_over_a_sum():
    V6 = KOORN_VARS
    th1 = ParamPoly.variable(V6, "th") + 1
    assert ParamRat.parse(V6, "-3/4*qh^-1/(th+1)") == ParamRat(
        ParamPoly.variable(V6, "qh", -1) * QQ(-3, 4), th1)
    assert ParamRat.parse(V6, "qh^(1/2)/(th+1)") == ParamRat(
        ParamPoly.variable(V6, "qh", (1, 2)), th1)


def rand_coeff(rng, kind):
    """A nonzero rational: an integer (up to 40 digits), a non-integer (small
    or 21-digit denominator), or either for kind 'mixed'."""
    if kind == "mixed":
        kind = rng.choice(["int", "frac"])
    sign = rng.choice([-1, 1])
    if kind == "int":
        return QQ(sign * rng.randint(1, 9) * 10 ** rng.randint(0, 40))
    while True:
        c = QQ(sign * rng.randint(1, 60),
               rng.choice([2, 3, 4, 6, 9, 10 ** 20 + 1]))
        if c.denominator != 1:
            return c


def rand_terms(rng, kind, n=2, terms=5, span=2):
    return {tuple(rng.randint(-span, span) for _ in range(n)):
            rand_coeff(rng, kind) for _ in range(terms)}


def fraction_mul(a, b):
    """Reference product of two term dicts, one Fraction at a time."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return {e: c for e, c in out.items() if c}


@pytest.mark.parametrize("seed,kinds", [
    (1, ("int", "int")), (2, ("frac", "frac")), (3, ("mixed", "mixed")),
    (4, ("int", "frac")), (5, ("frac", "mixed"))])
def test_mul_matches_fraction_reference(seed, kinds):
    rng = random.Random(seed)
    for _ in range(40):
        a, b = (rand_terms(rng, k) for k in kinds)
        got = ParamPoly(VARS, a) * ParamPoly(VARS, b)
        assert got.terms == fraction_mul(a, b)
        types = (int,) if kinds == ("int", "int") else (int, QQ)
        assert all(type(c) in types for c in got.terms.values())


def test_mul_drops_cancelled_terms():
    c = QQ(7, 3)
    w = ParamPoly.variable(VARS, "w")
    got = (w + c) * (w - c)
    assert got.terms == {(0, 2): QQ(1), (0, 0): -c * c}


def test_mul_across_lattices_matches_reference():
    rng = random.Random(6)
    for _ in range(20):
        a, b = rand_terms(rng, "mixed"), rand_terms(rng, "mixed")
        got = ParamPoly(VARS, a, 2) * ParamPoly(VARS, b, 3)
        want = fraction_mul({tuple(3 * x for x in e): c for e, c in a.items()},
                            {tuple(2 * x for x in e): c for e, c in b.items()})
        assert got == ParamPoly(VARS, want, 6)


def test_public_constructors_drop_zero_coefficients():
    # kernel results skip the zero filter; the public constructors keep it
    terms = {(1, 0): QQ(0), (0, 2): QQ(3), (2, 2): QQ(0)}
    assert ParamPoly(VARS, terms).terms == {(0, 2): QQ(3)}
    assert ParamPoly(VARS, {(2, 4): QQ(0)}, 2).terms == {}
    assert ParamPoly.monomial(VARS, (1, 1), 0).terms == {}
    assert ParamPoly.const(VARS, 0).terms == {}
    assert ParamPoly.variable(VARS, "w") * 0 == ParamPoly.zero(VARS)


def test_kernel_results_hold_no_zero_coefficients():
    rng = random.Random(12)
    for _ in range(30):
        a, b = rand_poly(rng), rand_poly(rng)
        for got in (a + b, a - b, -a, a * b, a - a, a * b - b * a,
                    a.mul_monomial((1, -2), QQ(-2, 3))):
            assert all(got.terms.values())
            assert got == ParamPoly(VARS, dict(got.terms), got.scale)


def coeff_types(x):
    """The types of every rational coefficient inside x."""
    if isinstance(x, (int, float, Fraction)):
        return {type(x)}
    if isinstance(x, ParamRat):
        return coeff_types(x.num) | coeff_types(x.den)
    if isinstance(x, ParamPoly):
        return set().union(*map(coeff_types, x.terms.values()))
    if isinstance(x, LaurentRat):
        return coeff_types(x.num)
    return set().union(*map(coeff_types, x))


def test_exact_division_sites_take_ints():
    # each site divides two coefficients that may both be ints; int / int
    # would be a float.  The quotients have odd denominators: a float of a
    # dyadic rational would convert back exactly and hide the slip
    K = KOORN_VARS
    qh = ParamPoly.variable(K, "qh")
    th = ParamPoly.variable(K, "th")
    zero = (0,) * len(K)
    got = [ParamRat(ParamPoly.one(K), 3 * qh),
           ParamRat(ParamPoly.one(K), 3 * qh + 6)]
    assert got[0].num.terms == {(-1, 0, 0, 0, 0, 0): QQ(1, 3)}
    assert got[1].num.terms == {zero: QQ(1, 3)}
    assert got[1].den == qh + 2
    _, b, _, cu, _ = canonical_binomial(torus_vars(1), ((1,), 3), ((0,), 2))
    assert b.terms == {(1,): 1, (0,): QQ(2, 3)} and cu == 3
    pb = canonical_binomial(torus_vars(1), ((1,), 3 * qh),
                            ((0,), ParamPoly.const(K, 2)))[1]
    assert pb.terms[(0,)].terms == {(-1, 0, 0, 0, 0, 0): QQ(2, 3)}
    r = LaurentRat(ParamPoly.const(torus_vars(1), 1)).with_binomial_factor(
        ((1,), 3), ((0,), 2))
    assert r.num.terms == {(0,): QQ(1, 3)}
    got += [b, pb, r]
    pm = ParamMap({"th": "3*th", "gb": "5/3", "gc": "5"})
    assert pm.image("gc") == (zero, 5) and pm.image("th")[1] == 3
    assert pm.image("gb") == (zero, QQ(5, 3))
    assert type(ParamMap({"gd": QQ(7)}).image("gd")[1]) is int
    va = va_factor(torus_vars(1) + K, 1, (1,), 0, pm)
    vb = vb_factor(torus_vars(1) + K, 1, 0, 1, pm, shapes=(("gc", 1, -1),))
    assert set(va.num.terms.values()) == {3, QQ(-1, 3)}
    assert set(vb.num.terms.values()) == {5, QQ(-1, 5)}
    ev = eigenvalue_An_leading(1, (1, 0, 0), {"th": 3 * th})
    assert ev.render() == "9*qh^2*th^2+1+1/9*th^-2"
    ev_q = (th.mul_monomial((-2, 0, 0, 0, 0, 0)) + 3).eval_var("qh", 3)
    assert ev_q.render() == "1/9*th+3"
    ch = ch_of_monomial(3 * qh)
    assert ch.render() == "3/2*qh+1/6*qh^-1"
    third = ParamRat(ParamPoly.const(K, 2), ParamPoly.const(K, 3), True)
    assert _constant_value(third) == QQ(2, 3)
    got += [va, vb, ev, ev_q, ch, _constant_value(third)]
    # at trivial couplings the truncated weight is exactly 1, so every
    # inner product of the Gram-Schmidt projection is an int (and every
    # projection coefficient 0)
    spec = WeightFunctionSpec(1, M=2, point=NumericPoint(
        QQ(1, 4), 1, 1, -1, QQ(1, 2), QQ(-1, 2)))
    assert delta_truncate(spec) == ({(0,): 1}, 1)
    gs = gram_schmidt_oracle((2,), spec)
    assert gs.coeffs == {(2,): 1}
    got.append(list(gs.coeffs.values()))
    assert float not in coeff_types(got)


def test_denominator_unit_on_a_coarser_lattice():
    # x^(1/2) + x^(3/2) = x^(1/2) (1 + x): the unit comes out at its own
    # exponent although the rest of the denominator is on lattice 1
    x = ParamPoly.variable(("x",), "x")
    h = ParamPoly.variable(("x",), "x", (1, 2))
    r = ParamRat(ParamPoly.one(("x",)), h + h * x)
    assert r.render() == "x^(-1/2)/(x+1)"
    assert r * (h + h * x) == 1

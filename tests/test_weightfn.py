import random

import pytest

from qkoorn.errors import ZeroDenominator
from qkoorn.koornwinder import koornwinder_triangular
from qkoorn.operators import OperatorSpec
from qkoorn.ratfield import QQ
from qkoorn.weightfn import (DEFAULT_POINT, NumericPoint, QuadExt,
                             WeightFunctionSpec, delta_truncate,
                             gram_schmidt_oracle, inner_product,
                             koornwinder_numeric,
                             monomial_numeric, numeric_apply_to_monomial,
                             tol)
from qkoorn.weights import worbit


def test_quadext_arithmetic():
    H = QQ(7, 2)
    a = QuadExt(QQ(1, 3), QQ(2), H)
    b = QuadExt(QQ(-1), QQ(1, 2), H)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * QuadExt.rational(1, H) == a
    assert (a - a).sign() == 0
    assert QuadExt(0, 1, H).sign() == 1
    assert QuadExt(0, -1, H).sign() == -1
    # 2 - sqrt(7/2) > 0 since 4 > 7/2
    assert QuadExt(2, -1, H).sign() == 1
    assert QuadExt(QQ(-9, 5), 1, H).sign() > 0
    # -19/10 + sqrt(7/2) is about 0.0292
    assert QuadExt(QQ(-19, 10), 1, H).abs_leq(QQ(3, 100))
    assert not QuadExt(QQ(-19, 10), 1, H).abs_leq(QQ(2, 100))


def test_numeric_point_validation():
    with pytest.raises(ValueError):
        NumericPoint(QQ(1, 3), QQ(1, 2), QQ(1, 2), QQ(-1, 3), QQ(1, 5),
                     QQ(-1, 7))  # q not a rational square
    with pytest.raises(ValueError):
        NumericPoint(QQ(1, 4), QQ(3, 2), QQ(1, 2), QQ(-1, 3), QQ(1, 5),
                     QQ(-1, 7))  # |t| > 1


def test_specialize_eigenvalue():
    # rank-one eigenvalue at the default point: q h + 1/(q h) - h - 1/h
    from qkoorn.spectra import eigenvalue_Ern
    pt = DEFAULT_POINT
    ev = pt.specialize(eigenvalue_Ern(1, 1, (1,)))
    q = pt.q
    want_x = QQ(0)
    want_y = q + QQ(1) / (q * pt.H) - 1 - QQ(1) / pt.H
    assert ev == QuadExt(0, want_y, pt.H)


def values(terms, den):
    """The weight's coefficients from its integer numerators."""
    return {e: QQ(c, den) for e, c in terms.items()}


def test_delta_m0_and_trivial():
    spec0 = WeightFunctionSpec(2, M=0, point=DEFAULT_POINT, zbox=6)
    assert delta_truncate(spec0) == ({(0, 0): 1}, 1)
    qh = QQ(1, 2)
    triv = NumericPoint(QQ(1, 4), 1, 1, -1, qh, -qh)
    for n in (1, 2):
        spec = WeightFunctionSpec(n, M=4, point=triv, zbox=8)
        assert delta_truncate(spec) == ({(0,) * n: 1}, 1)


def test_delta_refuses_divergent_series():
    # a = c = 1: one (1 - z) cancels against the numerator, the other is
    # left in the denominator, and so is (1 - 1/z)
    pt = NumericPoint(QQ(1, 4), QQ(1, 2), 1, QQ(-1, 3), 1, QQ(-1, 7))
    with pytest.raises(ValueError, match="divergent series"):
        delta_truncate(WeightFunctionSpec(1, M=3, point=pt, zbox=9))


def test_delta_independent_of_factor_and_line_order():
    from qkoorn.weightfn import _lines_product, _weight_lines
    spec = WeightFunctionSpec(2, M=3, point=DEFAULT_POINT, zbox=12)
    want = values(*delta_truncate(spec))
    lines = sorted(_weight_lines(spec).items())
    rng = random.Random(7)
    orders = [[(prim, fac[::-1]) for prim, fac in reversed(lines)]]
    for _ in range(2):
        shuffled = [(prim, rng.sample(fac, len(fac))) for prim, fac in lines]
        rng.shuffle(shuffled)
        orders.append(shuffled)
    for order in orders:
        assert values(*_lines_product(2, order, spec.zbox)) == want


def test_delta_against_naive_series_oracle():
    # independent multiplication of the same factor content: every
    # denominator becomes its geometric series cut at j <= B, and the
    # product of these finitely many Laurent polynomials is taken exactly,
    # with no intermediate cut, so it does not depend on the order of the
    # factors; at n = 1 (one line) it agrees exactly with delta_truncate on
    # the box
    from qkoorn.weightfn import _weight_factors
    pt = DEFAULT_POINT
    spec = WeightFunctionSpec(1, M=3, point=pt, zbox=9)
    d = delta_truncate(spec)
    num, den = _weight_factors(spec)
    B = spec.zbox
    terms = {(0,): QQ(1)}

    def mul(A, P):
        out = {}
        for e1, c1 in A.items():
            for e2, c2 in P.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                v = out.get(e, QQ(0)) + c1 * c2
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
        return out

    for (coeff, step), mult in sorted(num.items()):
        for _ in range(mult):
            terms = mul(terms, {(0,): QQ(1), step: -coeff})
    for (coeff, step), mult in sorted(den.items()):
        geo = {(0,): QQ(1)}
        e, c = (0,), QQ(1)
        while True:
            e = tuple(x + y for x, y in zip(e, step))
            c = c * coeff
            if any(abs(x) > B for x in e):
                break
            geo[e] = c
        for _ in range(mult):
            terms = mul(terms, geo)
    for k in range(-3, 4):
        assert terms.get((k,), QQ(0)) == QQ(d.terms.get((k,), 0), d.den)


def test_inner_product_flat_weight():
    spec = WeightFunctionSpec(2, M=0, point=DEFAULT_POINT, zbox=6)
    m11 = monomial_numeric((1, 1))
    m20 = monomial_numeric((2, 0))
    one = monomial_numeric((0, 0))
    assert inner_product(one, one, spec) == 1
    assert inner_product(m11, m11, spec) == len(worbit((1, 1)))
    assert inner_product(m11, m20, spec) == 0


def test_first_order_difference_equation_truncated():
    # d^+(w q^2) (1 - t w q^M)(1 - w) == d^+(w)(1 - t w)(1 - w q^M) after
    # clearing, i.e. the shift relation holds up to the boundary factor
    q, t = QQ(1, 4), QQ(1, 2)
    M = 6

    def planes(scale):
        num = {0: QQ(1)}
        den = {0: QQ(1)}

        def mul(poly, c):
            out = dict(poly)
            for k, v in poly.items():
                out[k + 1] = out.get(k + 1, QQ(0)) - c * v
            return {k: v for k, v in out.items() if v}

        for m in range(M):
            num = mul(num, scale * q ** m)
            den = mul(den, scale * t * q ** m)
        return num, den

    def polymul(a, b):
        out = {}
        for i, x in a.items():
            for j, y in b.items():
                out[i + j] = out.get(i + j, QQ(0)) + x * y
        return {k: v for k, v in out.items() if v}

    n1, d1 = planes(QQ(1))
    nq, dq = planes(q)
    lin = lambda c: {0: QQ(1), 1: -c}
    lhs = polymul(polymul(nq, d1), polymul(lin(QQ(1)), lin(t * q ** M)))
    rhs = polymul(polymul(n1, dq), polymul(lin(t), lin(q ** M)))
    assert lhs == rhs
    # numerically the boundary factor is 1 + O(q^M) on the torus
    import cmath
    for z in (0.3, 1.2, 2.5):
        w = cmath.exp(1j * z)
        ratio = (1 - complex(t) * w * float(q) ** M) / \
            (1 - w * float(q) ** M)
        assert abs(ratio - 1) < 4 * float(q) ** M


def test_symmetry_defect_within_tolerance():
    pt = DEFAULT_POINT
    M = 10
    spec = WeightFunctionSpec(2, M=M, point=pt, zbox=2 * M + 4)
    op = OperatorSpec("koornwinder", 2, 1)
    for la, mu in (((1, 0), (1, 1)), ((2, 0), (1, 0))):
        a = numeric_apply_to_monomial(op, la, pt)
        b = numeric_apply_to_monomial(op, mu, pt)
        lhs = inner_product(a, monomial_numeric(mu), spec)
        rhs = inner_product(monomial_numeric(la), b, spec)
        assert (lhs - rhs).abs_leq(tol(pt, M, sum(la) + sum(mu)))
        assert not (lhs - rhs).abs_leq(QQ(1, 10 ** 12))  # truncation is real


def test_gram_schmidt_matches_eigen_route():
    pt = DEFAULT_POINT
    M = 10
    spec = WeightFunctionSpec(1, M=M, point=pt, zbox=2 * M + 4)
    for lam in ((1,), (2,)):
        gs = gram_schmidt_oracle(lam, spec)
        eig = koornwinder_numeric(lam, pt)
        for mu, v in eig.coeffs.items():
            got = gs.coeffs.get(mu, QQ(0))
            assert (v - QuadExt.rational(got, pt.H)).abs_leq(
                tol(pt, M, 2 * sum(lam)))


def test_gram_schmidt_near_orthogonality():
    pt = DEFAULT_POINT
    M = 10
    spec = WeightFunctionSpec(1, M=M, point=pt, zbox=2 * M + 4)
    cache = {}
    p1 = gram_schmidt_oracle((1,), spec, cache)
    m0 = monomial_numeric((0,))
    val = inner_product(p1.to_laurent(one=QQ(1)), m0, spec)
    assert QuadExt.rational(val, pt.H).abs_leq(tol(pt, M, 1))


def test_gram_schmidt_order_refinement_agreement():
    pt = DEFAULT_POINT
    M = 10
    spec = WeightFunctionSpec(2, M=M, point=pt, zbox=2 * M + 4)
    lam = (2, 0)
    a = gram_schmidt_oracle(lam, spec)
    b = gram_schmidt_oracle(lam, spec, style="lex")
    for mu in set(a.coeffs) | set(b.coeffs):
        x = a.coeffs.get(mu, QQ(0))
        y = b.coeffs.get(mu, QQ(0))
        assert QuadExt.rational(x - y, pt.H).abs_leq(tol(pt, M, 2 * sum(lam)))

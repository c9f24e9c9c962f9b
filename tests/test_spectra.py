import math
import random
from itertools import product

from qkoorn.ratfield import JACOBI_VARS, KOORN_VARS, QQ, ParamPoly, ParamRat
from qkoorn.spectra import (a_type_exponentials, ch_lambda_rho, ch_rho,
                            cp_check, eigenvalue_An, eigenvalue_core,
                            eigenvalue_core_recursive, eigenvalue_Ern,
                            eigenvalue_jacobi, elementary,
                            evaluate_generator_poly, F_solve, hc_lift,
                            jacobi_rho, linear_system_residual,
                            monotonicity_check, rho_monomials)


def tvars(n, extra=()):
    return tuple("t%d" % i for i in range(1, n + 1)) + tuple(extra)


def test_F_examples():
    V = tvars(3)
    ts = [ParamPoly.variable(V, v) for v in V]
    one = ParamPoly.one(V)
    for m in range(0, 4):
        assert F_solve(m, 0, ts[:m], one) == one
    t1, t2 = ts[0], ts[1]
    assert F_solve(2, 1, ts[:2], one) == -(t1 + t2)
    assert F_solve(3, 2, ts, one) == t1 * t1 + t1 * t2 + t2 * t2


def test_linear_system_symbolic():
    for n in range(1, 7):
        V = tvars(n)
        ts = [ParamPoly.variable(V, v) for v in V]
        one = ParamPoly.one(V)
        for r in range(1, n + 1):
            assert linear_system_residual(r, n, ts, one).is_zero()


def _sym_vals(n):
    V = tvars(n, tuple("p%d" % i for i in range(1, n + 1)))
    ts = [ParamPoly.variable(V, "t%d" % i) for i in range(1, n + 1)]
    ps = [ParamPoly.variable(V, "p%d" % i) for i in range(1, n + 1)]
    return ts, ps, ParamPoly.one(V)


def test_eigenvalue_recursion_agreement():
    for n in range(1, 6):
        ts, ps, one = _sym_vals(n)
        for r in range(1, n + 1):
            direct = eigenvalue_core(r, ts, ps[r - 1:], one)
            rec = eigenvalue_core_recursive(r, ts, ps[r - 1:], one)
            assert direct == rec


def test_top_order_product_formula():
    for n in range(1, 6):
        ts, ps, one = _sym_vals(n)
        prod = one
        for t in ts:
            prod = prod * (t - ps[-1])
        assert eigenvalue_core(n, ts, [ps[-1]], one) == prod


def test_eigenvalue_vanishes_at_zero_weight():
    for n in range(1, 6):
        for r in range(1, n + 1):
            assert eigenvalue_Ern(r, n, (0,) * n).is_zero()


def test_rank_one_eigenvalue_closed_form():
    for n in (1, 2, 3):
        for lam in [(2,) + (0,) * (n - 1), (1,) * n]:
            chl = ch_lambda_rho(lam)
            chr_ = ch_rho(n)
            want = ParamPoly.zero(KOORN_VARS)
            for a, b in zip(chl, chr_):
                want = want + (a - b) * 2
            assert eigenvalue_Ern(1, n, lam) == want


def test_decoupled_spectrum_elementary_form():
    # at vanishing internal coupling the eigenvalue is an elementary
    # symmetric function of the rank-one differences
    th1 = {"th": ParamPoly.one(KOORN_VARS)}
    n = 3
    for lam in [(1, 1, 0), (2, 1, 1)]:
        chl = ch_lambda_rho(lam, th1)
        chr_ = ch_rho(n, th1)
        diffs = [(a - b) * 2 for a, b in zip(chl, chr_)]
        one = ParamPoly.one(KOORN_VARS)
        for r in range(1, n + 1):
            assert eigenvalue_Ern(r, n, lam, th1) == \
                elementary(r, diffs, one)


def test_cp_values():
    assert cp_check(0) == 1
    assert cp_check(1) == -1
    assert cp_check(2) == 1
    for p in range(0, 9):
        assert cp_check(p) == (-1) ** p


def test_hc_lift_constant_and_rank_one():
    n = 2
    one = ParamRat.one(KOORN_VARS)
    const = {(0, 0): one}
    Q = hc_lift(const, n)
    assert Q == {(0, 0): one}
    # first power sum: e_1 = X_1 / 2 + sum ch(beta rho_j)
    e1 = {(1, 0): one, (0, 1): one}
    Q1 = hc_lift(e1, n)
    want_const = ParamRat.zero(KOORN_VARS)
    for c in ch_rho(n):
        want_const = want_const + c
    assert Q1[(1, 0)] == ParamRat.const(KOORN_VARS, QQ(1, 2))
    assert Q1[(0, 0)] == want_const


def test_hc_round_trip_random():
    rng = random.Random(21)
    for n in (2, 3):
        exps = [tuple(sorted((rng.randint(0, 2) for _ in range(n)),
                             reverse=True)) for _ in range(2)]
        S = {}
        for alpha in exps:
            for perm in set(__import__("itertools").permutations(alpha)):
                S[perm] = ParamRat.const(KOORN_VARS, 3)
        Q = hc_lift(S, n)
        for _ in range(5):
            lam = tuple(sorted((rng.randint(0, 3) for _ in range(n)),
                               reverse=True))
            evs = [ParamRat.from_poly(eigenvalue_Ern(r, n, lam))
                   for r in range(1, n + 1)]
            chv = [ParamRat.from_poly(c) for c in ch_lambda_rho(lam)]
            assert evaluate_generator_poly(Q, evs) == \
                evaluate_generator_poly(S, chv)


def test_a_type_eigenvalues():
    th = ParamPoly.variable(KOORN_VARS, "th")
    thi = ParamPoly.monomial(KOORN_VARS, (0, -1, 0, 0, 0, 0), 1)
    qh = ParamPoly.variable(KOORN_VARS, "qh")
    qhi = ParamPoly.monomial(KOORN_VARS, (-1, 0, 0, 0, 0, 0), 1)
    assert eigenvalue_An(1, 2, (0, 0)) == ParamRat.from_poly(th + thi)
    # center-of-mass prefactor is exp(+beta r |lam| / n) = qh^(-2r|lam|/n)
    assert eigenvalue_An(1, 2, (1, 0)) == \
        ParamRat.from_poly(qh * th + qhi * thi)
    # translation invariance: lam and lam + (1,..,1) give equal values
    for lam in [(1, 0), (2, 1), (0, 0)]:
        shifted = tuple(x + 1 for x in lam)
        assert eigenvalue_An(1, 2, lam) == eigenvalue_An(1, 2, shifted)
    assert eigenvalue_An(2, 3, (2, 1, 0)) == eigenvalue_An(2, 3, (3, 2, 1))


def test_jacobi_eigenvalue():
    n = 2
    rho = jacobi_rho(n)
    for lam in [(1, 0), (2, 1)]:
        want = ParamPoly.zero(JACOBI_VARS)
        for j in range(n):
            want = want + (rho[j] + lam[j]) ** 2 - rho[j] ** 2
        assert eigenvalue_jacobi(1, n, lam) == want
    for nn in range(1, 5):
        for r in range(1, nn + 1):
            assert eigenvalue_jacobi(r, nn, (0,) * nn).is_zero()


def test_jacobi_eigenvalue_positive_at_positive_params():
    rng = random.Random(31)
    for _ in range(10):
        g, t0, t1 = (QQ(rng.randint(1, 9), rng.randint(1, 4))
                     for _ in range(3))
        for lam in [(1, 0), (2, 1), (1, 1)]:
            val = eigenvalue_jacobi(1, 2, lam)
            spec = val.eval_var("g", g).eval_var("tg0", t0).eval_var("tg1", t1)
            num = spec.terms.get((0, 0, 0), QQ(0))
            assert num > 0


def test_monotonicity_examples():
    assert monotonicity_check((2, 0), (1, 1), 1.0, 1.0, 0.5, 0.5, 0.5, 0.5)
    assert monotonicity_check((1, 0), (0, 0), 1.0, 1.0, 0.5, 0.5, 0.5, 0.5)
    assert monotonicity_check((1, 1), (1, 1), 1.0, 1.0, 0.5, 0.5, 0.5, 0.5)


def test_rho_monomials_shape():
    us = rho_monomials(3)
    # u_j = th^(2(n-j)) ga gb gc gd
    assert us[2] == ParamPoly.monomial(KOORN_VARS, (0, 0, 1, 1, 1, 1), 1)
    assert us[0] == ParamPoly.monomial(KOORN_VARS, (0, 4, 1, 1, 1, 1), 1)
    es = a_type_exponentials((1, 0), None)
    assert es[0] == ParamPoly.monomial(KOORN_VARS, (2, 1, 0, 0, 0, 0), 1)
    assert es[1] == ParamPoly.monomial(KOORN_VARS, (0, -1, 0, 0, 0, 0), 1)

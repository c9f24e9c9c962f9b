"""Closed-form spectra of the difference operators and the combinatorial
identities behind them.

Everything multiplicative: ch(beta*x) is always encoded as (u + 1/u)/2 with
u = exp(-beta*x) a monomial in the half-parameter field, so eigenvalues are
honest Laurent polynomials in (qh, th, ga, gb, gc, gd).
"""

from __future__ import annotations

import math
from itertools import combinations

from .laurent import torus_vars
from .ratfield import (JACOBI_VARS, KOORN_VARS, QQ, ParamPoly, ParamRat,
                       _qq)

HALF = QQ(1, 2)


# ---------------------------------------------------------------------------
# generic symmetric-function helpers over any commutative ring elements


def elementary_all(values, one):
    """e_0..e_len as a list, computed by the product recurrence."""
    es = [one]
    for v in values:
        new = [es[0]]
        for k in range(1, len(es) + 1):
            prev = es[k] if k < len(es) else None
            term = es[k - 1] * v
            new.append(term if prev is None else prev + term)
        es = new
    return es


def elementary(k, values, one):
    if k < 0 or k > len(values):
        raise ValueError("bad elementary index")
    return elementary_all(values, one)[k]


def complete_homogeneous(k, values, one):
    """h_k of the given values (sum over weakly increasing index tuples)."""
    if k == 0:
        return one
    if not values:
        return one - one
    # DP over h_j of growing prefixes
    hs = [one] + [None] * k
    for v in values:
        for j in range(1, k + 1):
            term = hs[j - 1] * v
            hs[j] = term if hs[j] is None else hs[j] + term
    return hs[k]


# ---------------------------------------------------------------------------
# multiplicative rho vectors and ch encodings


def rho_monomials(n, params=None):
    """u_j = exp(-beta*rho_j) = th^(2(n-j)) * ga*gb*gc*gd, j = 1..n, with
    the substitution params (name -> monomial image) applied if given."""
    out = [ParamPoly.monomial(KOORN_VARS, (0, 2 * (n - j), 1, 1, 1, 1))
           for j in range(1, n + 1)]
    return [u.substitute(params) for u in out] if params else out


def ch_of_monomial(u):
    """(u + 1/u)/2 for a unit monomial u."""
    e, c, s = u.monomial_parts()
    inv = ParamPoly.monomial(u.vars, tuple(-x for x in e), _qq(1, c), s)
    return (u + inv) * HALF


def ch_lambda_rho(lam, params=None):
    """ch(beta*(lam_j + rho_j)) for j = 1..n, as Laurent polynomials."""
    n = len(lam)
    q = ParamPoly.variable(KOORN_VARS, "qh", 2)
    out = []
    for j, u in enumerate(rho_monomials(n, params)):
        out.append(ch_of_monomial(q ** lam[j] * u))
    return out


def ch_rho(n, params=None):
    return [ch_of_monomial(u) for u in rho_monomials(n, params)]


# ---------------------------------------------------------------------------
# the spectrum


def eigenvalue_core(r, ts, ps, one):
    """E_{r,n}(t; p) by the alternating double sum.

    ts has length n; ps is the list (p_r, ..., p_n) of length n - r + 1.
    """
    n = len(ts)
    es = elementary_all(ts, one)
    total = None
    for s in range(0, r + 1):
        hpart = complete_homogeneous(r - s, ps, one)
        term = es[s] * hpart
        if (r + s) % 2:
            term = -term
        total = term if total is None else total + term
    return total


def eigenvalue_core_recursive(r, ts, ps, one):
    """Same E_{r,n} by the two-term recursion (unique solution)."""
    n = len(ts)
    if r == 0:
        return one
    if n < r:
        return one - one
    first = (ts[-1] - ps[-1]) * eigenvalue_core_recursive(r - 1, ts[:-1], ps, one)
    rest = eigenvalue_core_recursive(r, ts[:-1], ps[:-1], one)
    return first + rest


def eigenvalue_Ern(r, n, lam, params=None):
    """Diagonal matrix element of the r-th operator on the weight lam:
    2^r E_{r,n}(ch beta(lam+rho); ch beta rho_r..rho_n)."""
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    one = ParamPoly.one(KOORN_VARS)
    ts = ch_lambda_rho(lam, params)
    ps = ch_rho(n, params)[r - 1:]
    return eigenvalue_core(r, ts, ps, one) * QQ(2 ** r)


def F_solve(m, p, ts, one=None):
    """F_{m,p} = (-1)^p h_p(t_1..t_{m-p+1}); solves the triangular linear
    system tying the operator coefficients to the spectrum."""
    if not 0 <= p <= m:
        raise ValueError("need 0 <= p <= m")
    if one is None:
        one = ParamPoly.one(ts[0].vars) if ts else ParamPoly.one(KOORN_VARS)
    if p == 0:
        return one
    val = complete_homogeneous(p, ts[: m - p + 1], one)
    return -val if p % 2 else val


def linear_system_residual(r, n, ts, one):
    """sum_{|J|=s<=r} (prod_J t) F_{n-s,r-s}; identically zero."""
    total = None
    for s in range(0, r + 1):
        for J in combinations(range(n), s):
            prod = one
            for j in J:
                prod = prod * ts[j]
            term = prod * F_solve(n - s, r - s, ts, one)
            total = term if total is None else total + term
    return total


def surjection_count(p, s):
    """Number of ways to spread p labelled objects over s labelled
    nonempty slots."""
    total = 0
    for i in range(s + 1):
        total += (-1) ** i * math.comb(s, i) * (s - i) ** p
    return total


def cp_check(p):
    """c_p = sum_s (-1)^s N_{p,s}; equals (-1)^p."""
    if p == 0:
        return 1
    return sum((-1) ** s * surjection_count(p, s) for s in range(1, p + 1))


# ---------------------------------------------------------------------------
# Harish-Chandra lift: symmetric functions of the ch variables rewritten in
# the eigenvalue generators


def symmetric_to_elementary(S, n):
    """Rewrite a symmetric polynomial in c_1..c_n (dict exponent->coeff)
    in the elementary symmetric basis (dict e-exponent->coeff)."""
    one = ParamPoly.one(KOORN_VARS)
    cs = torus_vars(n)
    # c-polynomials of the elementary symmetric functions e_1..e_n
    basis = []
    for k in range(1, n + 1):
        terms = {}
        for J in combinations(range(n), k):
            e = [0] * n
            for j in J:
                e[j] = 1
            terms[tuple(e)] = one
        basis.append(ParamPoly(cs, terms))
    rem = ParamPoly(cs, S)
    out = {}
    while rem:
        alpha = max(rem.terms)
        if list(alpha) != sorted(alpha, reverse=True):
            raise ValueError("input is not symmetric")
        coeff = rem.terms[alpha]
        mono = tuple(alpha[i] - (alpha[i + 1] if i + 1 < n else 0)
                     for i in range(n))
        out[mono] = coeff
        prod = ParamPoly.const(cs, coeff)
        for i, m in enumerate(mono):
            for _ in range(m):
                prod = prod * basis[i]
        rem = rem - prod
    return out


def generator_relations(n, params=None):
    """e_r as a linear combination of the eigenvalue generators X_1..X_n.

    X_r is the operator symbol 2^r E_{r,n}(c; ch beta rho_r..rho_n) viewed as
    linear in e_0..e_r(c); invert the unitriangular relation.
    Returns a list rel[r] (r = 1..n): dict X-exponent -> ParamRat.
    """
    one = ParamPoly.one(KOORN_VARS)
    ps = ch_rho(n, params)
    xs = torus_vars(n)
    rel = [ParamPoly.const(xs, ParamRat.one(KOORN_VARS))]
    for r in range(1, n + 1):
        # X_r = 2^r sum_{s<=r} (-1)^{r+s} K_{r,s} e_s  with K_{r,r} = 1
        xvec = [0] * n
        xvec[r - 1] = 1
        acc = ParamPoly.monomial(xs, xvec,
                                 ParamRat.const(KOORN_VARS, QQ(1, 2 ** r)))
        for s in range(0, r):
            K = complete_homogeneous(r - s, ps[r - 1:], one)
            c = ParamRat.from_poly(K)
            if (r + s) % 2:
                c = -c
            acc = acc - rel[s].scalar_mul(c)
        rel.append(acc)
    return [p.terms for p in rel]


def hc_lift(S, n, params=None):
    """Express a symmetric polynomial of the ch variables in the commuting
    generators; returns dict X-exponent -> ParamRat."""
    S = {k: (v if isinstance(v, ParamRat) else ParamRat.from_poly(v))
         for k, v in S.items() if v}
    ebasis = symmetric_to_elementary(S, n)
    xs = torus_vars(n)
    rel = [ParamPoly(xs, r) for r in generator_relations(n, params)]
    out = ParamPoly.zero(xs)
    for mono, coeff in ebasis.items():
        prod = ParamPoly.const(xs, ParamRat.one(KOORN_VARS))
        for i, m in enumerate(mono):
            for _ in range(m):
                prod = prod * rel[i + 1]
        out = out + prod.scalar_mul(coeff)
    return out.terms


def evaluate_generator_poly(Q, values):
    """Evaluate a dict exponent -> ParamPoly / ParamRat coefficient (the
    generators' ``hc_lift`` form, or a symmetric polynomial of the ch
    variables) at the given values."""
    total = ParamRat.zero(KOORN_VARS)
    for e, c in Q.items():
        term = c if isinstance(c, ParamRat) else ParamRat.from_poly(c)
        for x, k in zip(values, e):
            for _ in range(k):
                term = term * x
        total = total + term
    return total


# ---------------------------------------------------------------------------
# A-type and differential-branch eigenvalues


def a_type_exponentials(lam, params=None):
    """exp(-beta(lam_j + rho'_j)) = qh^(2 lam_j) th^(n+1-2j), j = 1..n, with
    the substitution params applied if given."""
    n = len(lam)
    out = [ParamPoly.monomial(KOORN_VARS, (2 * lam[j - 1], n + 1 - 2 * j,
                                           0, 0, 0, 0))
           for j in range(1, n + 1)]
    return [u.substitute(params) for u in out] if params else out


def eigenvalue_An_leading(r, lam, params=None):
    """Eigenvalue of the plain A-type operator on the leading polynomial:
    S_r of the exponentials exp(-beta(lam+rho'))."""
    one = ParamPoly.one(KOORN_VARS)
    return elementary(r, a_type_exponentials(lam, params), one)


def eigenvalue_An(r, n, lam, params=None):
    """Centered A-type eigenvalue: the center-of-mass prefactor
    exp(beta r |lam| / n) times S_r(exp(-beta(lam+rho'))).

    The prefactor is qh^(-2 r |lam| / n); fractional powers are carried on
    the parameter lattice, so the value is translation invariant in lam."""
    core = eigenvalue_An_leading(r, lam, params)
    size = sum(lam)
    num, den = -2 * r * size, n
    g = math.gcd(abs(num), den) or 1
    pref = ParamPoly.variable(KOORN_VARS, "qh", (num // g, den // g))
    return ParamRat.from_poly(core * pref)


def jacobi_rho(n):
    """rho_j = (n-j) g + (tg0+tg1)/2 in the additive 3-parameter ring."""
    g = ParamPoly.variable(JACOBI_VARS, "g")
    t0 = ParamPoly.variable(JACOBI_VARS, "tg0")
    t1 = ParamPoly.variable(JACOBI_VARS, "tg1")
    half = (t0 + t1) * HALF
    return [g * (n - j) + half for j in range(1, n + 1)]


def eigenvalue_jacobi(r, n, lam):
    """E_{r,n}((lam+rho)^2; rho_r^2..rho_n^2) over the (g, tg0, tg1) ring."""
    if not 1 <= r <= n:
        raise ValueError("need 1 <= r <= n")
    one = ParamPoly.one(JACOBI_VARS)
    rho = jacobi_rho(n)
    ts = [(rho[j] + lam[j]) ** 2 for j in range(n)]
    ps = [rho[j] ** 2 for j in range(r - 1, n)]
    return eigenvalue_core(r, ts, ps, one)


# ---------------------------------------------------------------------------
# spectral monotonicity at positive numeric parameters


def monotonicity_check(lam, lam_p, beta, g, g0, g1, g0p, g1p):
    """F_beta(lam+rho) > F_beta(lam'+rho) for dominance-comparable pairs."""
    n = len(lam)
    half_sum = (g0 + g1 + g0p + g1p) / 2.0
    rho = [(n - j) * g + half_sum for j in range(1, n + 1)]
    f1 = sum(math.cosh(beta * (lam[j] + rho[j])) for j in range(n))
    f2 = sum(math.cosh(beta * (lam_p[j] + rho[j])) for j in range(n))
    if lam == lam_p:
        return f1 == f2
    return f1 > f2

"""Koornwinder polynomials and their degenerations.

The polynomials are produced as unitriangular joint-eigenvector expansions in
the monomial symmetric basis (back-substitution against the rank-one operator
matrix), fully symbolically over the half-parameter field.  The same solver
drives the differential branch over the additive (g, tg0, tg1) ring, the
q -> 1 limit for integer exponent specializations, the A-type extraction and
the classical-family parameter specializations.

Each coefficient is a numerator over a factored product of eigenvalue gaps.
Every gap is split into binomials z^d - 1, z^d + 1 and one cofactor, and
every binomial factor and cofactor of a coefficient's denominator is divided
out of its numerator wherever it divides.  So no binomial factor is left that
divides its numerator, nor the cofactor of a gap where it divides; a product
of cofactors, or a factor of a cofactor, may still be shared (the
coefficients are not reduced by a multivariate gcd).

One step of the solve (``_factored_step``) packs its operands once and
unpacks its numerator once (``laurent.cancel_sum``): the lifts of the
couplings, their sum, the division by the gap's unit and every binomial
trial run on one packing, and only the cofactors' exact division runs on
exponent tuples.  Most binomial trials fail, above all those of factors
inherited from the couplings; each is refused by probing one line of the
numerator (``laurent._line_vanishes``) before it walks the whole of it.
"""

from __future__ import annotations

import json

from .errors import NotEigenfunction, ZeroDenominator
from .laurent import (LaurentRat, _clear_coeffs, cancel_sum, lift_to,
                      merge_max, missing_factors, split_binomials)
from .operators import (IDENTITY, OperatorSpec, ParamMap, apply_operator,
                        operator_matrix)
from .ratfield import (JACOBI_VARS, KOORN_VARS, ParamPoly, ParamRat, _common,
                       _qq, _qq_text)
from .spectra import (ch_of_monomial, eigenvalue_An_leading, eigenvalue_Ern,
                      eigenvalue_jacobi, rho_monomials)
from .weights import (HYPEROCTAHEDRAL, PERMUTATIONS_ONLY, linear_refinement,
                      monomial_symmetric)


class OrthoPoly:
    """Unitriangular expansion p = m_lam + sum_{mu < lam} c_mu m_mu."""

    __slots__ = ("n", "weight", "coeffs", "group", "scale")

    def __init__(self, weight, coeffs, group=HYPEROCTAHEDRAL, scale=1):
        self.n = len(weight)
        self.weight = tuple(weight)
        self.coeffs = dict(coeffs)
        self.group = group
        self.scale = scale

    def to_laurent(self, one=None):
        total = None
        for mu, c in self.coeffs.items():
            m = monomial_symmetric(mu, self.group, one, self.scale)
            m = m.map_coeff(lambda unit, c=c: c * unit)
            total = m if total is None else total + m
        return total

    def leading_is_monic(self):
        c = self.coeffs.get(self.weight)
        if c is None:
            return False
        return c == 1 if not hasattr(c, "is_one") else c.is_one()

    def to_json(self):
        coeffs = []
        for mu in sorted(self.coeffs):
            v = self.coeffs[mu]
            if isinstance(v, (ParamRat, ParamPoly)):
                text = v.render()
            else:
                text = _qq_text(v)
            coeffs.append({"weight": list(mu), "value": text})
        return {"n": self.n, "weight": list(self.weight), "basis": "monomial",
                "half_lattice": self.scale == 2, "group": self.group,
                "coeffs": coeffs}

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True)

    def __repr__(self):
        return "OrthoPoly(%s; %d terms)" % (self.weight, len(self.coeffs))


def _back_substitute(matrix, lam, evalue, one, step):
    """Back-substitute the unitriangular eigenproblem of ``matrix`` for the
    target eigenvalue: c_lam = ``one`` and, down the dominance order,
    c_mu = sum_nu c_nu M[nu][mu] / (evalue - M[mu][mu]), each quotient being
    ``step(couplings, gap)`` on the (c_nu, M[nu][mu]) of the nonzero c_nu
    coupled to mu.  Returns {mu: c_mu} without the zeros."""
    order = linear_refinement(list(matrix), "lex")[::-1]
    coeffs = {lam: one}
    for mu in order:
        if mu == lam:
            continue
        couplings = [(c, matrix[nu][mu]) for nu, c in coeffs.items()
                     if mu in matrix[nu]]
        if not couplings:
            continue
        # a coupled weight with the target eigenvalue leaves the expansion
        # undetermined even when the coupling sums to zero
        gap = evalue - matrix[mu].get(mu, 0)
        if not gap:
            raise ZeroDenominator(
                "eigenvalue collision between %s and %s" % (lam, mu))
        c = step(couplings, gap)
        if c:
            coeffs[mu] = c
    return coeffs


def _factored_step(couplings, gap):
    """One step of the symbolic solve over factored denominators.

    The numerator is the sum of every coupling times its matrix entry and
    the factors of the couplings' union (``merge_max``) that it is missing
    (``missing_factors``), over the unit of the gap; the gap is split into
    binomials z^d -+ 1 and one cofactor (``split_binomials``).  Every
    factor of the step's denominator, the gap's and the union's, is then
    divided out of the numerator as often as it divides: every binomial
    factor, and the cofactor wherever it divides.

    All of it but the split runs in ``laurent.cancel_sum``, on one packing
    chosen for the whole step: the operands are packed once, multiplied,
    summed, divided by the unit and tried against every binomial on packed
    terms, each trial after a probe of one line that refuses most failing
    trials without a walk over the numerator, and the numerator is unpacked
    once, before the cofactors' exact division.  Returns a LaurentRat, or
    None for 0."""
    union = {}
    for c, _ in couplings:
        merge_max(union, c.den)
    lifts = [(c.num, [entry] + missing_factors(c.den, union))
             for c, entry in couplings]
    unit, factors = split_binomials(gap)
    for k, (b, m) in factors.items():
        union[k] = (b, union[k][1] + m) if k in union else (b, m)
    got = cancel_sum(lifts, unit, union)
    return None if got is None else LaurentRat(*got)


def _triangular(spec, lam, evalue, vars_):
    """The unitriangular expansion of lam against the matrix of ``spec`` and
    its target eigenvalue, each coefficient a ParamRat over ``vars_`` whose
    denominator is the product of the factors ``_factored_step`` left."""
    one = ParamPoly.one(vars_)
    coeffs = _back_substitute(operator_matrix(spec, lam), lam, evalue,
                              LaurentRat(one), _factored_step)
    return OrthoPoly(lam, {mu: ParamRat(c.num, lift_to(one, {}, c.den))
                           for mu, c in coeffs.items()})


def koornwinder_triangular(lam, params=None, verify=False):
    """The Koornwinder polynomial attached to a dominant weight, by the
    triangular eigenproblem of the rank-one operator.

    With ``verify`` set, the expansion is checked to satisfy the joint
    eigen-equations for every operator order r = 1..n through the cached
    operator matrices.
    """
    params = params or IDENTITY
    n = len(lam)
    p = _triangular(OperatorSpec("koornwinder", n, 1, params), lam,
                    eigenvalue_Ern(1, n, lam, params),
                    KOORN_VARS)
    if verify:
        for r in range(1, n + 1):
            verify_joint_eigen(p, r, params)
    return p


def verify_joint_eigen(p, r, params=None):
    """Assert D_r p = E_r(lam) p through the operator matrix; returns the
    eigenvalue."""
    params = params or IDENTITY
    ev = eigenvalue_Ern(r, p.n, p.weight, params)
    _eigen_check(OperatorSpec("koornwinder", p.n, r, params), p, ev)
    return ev


def _eigen_check(spec, p, ev):
    """Check sum_nu N_nu M[nu][mu] = ev N_mu for every mu, M the matrix of
    ``spec`` and N the coefficients of p cleared over one denominator (any
    common multiple keeps the check exact), entirely in the polynomial
    ring."""
    matrix = operator_matrix(spec, p.weight)
    _, nums = _clear_coeffs(p.coeffs)
    zero = ParamPoly.zero(ev.vars)
    for mu in matrix:
        lhs = zero
        for nu, num in nums.items():
            entry = matrix[nu].get(mu)
            if entry is not None and num:
                lhs = lhs + num * entry
        rhs = nums.get(mu, zero) * ev
        if not (lhs == rhs):
            raise NotEigenfunction("eigen-equation fails at %s" % (mu,))


def jacobi_triangular(lam, verify=False):
    """The hypergeometric-operator eigenproblem over the additive
    (g, tg0, tg1) coefficient ring."""
    n = len(lam)
    spec = OperatorSpec("jacobi", n)
    evalue = eigenvalue_jacobi(1, n, lam)
    p = _triangular(spec, lam, evalue, JACOBI_VARS)
    if verify:
        _eigen_check(spec, p, evalue)
    return p


def qh1_limit(p, g, g0, g1, g0p, g1p):
    """Exact q -> 1 limit of a symbolic Koornwinder expansion at integer
    coupling exponents: substitute th = qh^g, ga = qh^g0, ..., cancel the
    shared (qh - 1) powers and evaluate at qh = 1.

    The result matches the differential-branch polynomial with
    tg0 = g0 + g0' and tg1 = g1 + g1'.
    """
    sub = ParamMap({name: ParamPoly.variable(KOORN_VARS, "qh", k)
                    for name, k in zip(("th", "ga", "gb", "gc", "gd"),
                                       (g, g0, g1, g0p, g1p))})
    out = {mu: _constant_value(c.substitute(sub).substitute({"qh": 1}))
           for mu, c in p.coeffs.items()}
    return OrthoPoly(p.weight, out, p.group, p.scale)


def _constant_value(rat):
    num, den = rat.num, rat.den
    nv = 0 if num.is_zero() else num.terms[(0,) * len(num.vars)]
    dv = den.terms[(0,) * len(den.vars)]
    return _qq(nv, dv)


def evaluate_jacobi_coeffs(p, g, tg0, tg1):
    """Specialize a differential-branch expansion at integer couplings.

    Variables are pinned one at a time so that removable zeros of the
    shared denominator cancel before evaluation."""
    out = {}
    for mu, c in p.coeffs.items():
        for name, val in (("g", g), ("tg0", tg0), ("tg1", tg1)):
            c = c.substitute({name: val})
        out[mu] = _constant_value(c)
    return OrthoPoly(p.weight, out, p.group, p.scale)


def macdonald_An_extract(p):
    """Keep the top-degree coefficients and reread them against the
    permutation-orbit monomials: the translation-reduced A-type polynomial."""
    size = sum(p.weight)
    coeffs = {mu: c for mu, c in p.coeffs.items() if sum(mu) == size}
    return OrthoPoly(p.weight, coeffs, PERMUTATIONS_ONLY, p.scale)


def a_type_eigen_check(p_lead, r, params=None):
    """Verify the plain A-type operator eigen-equation on a leading-part
    expansion; returns the eigenvalue S_r(exp(-beta(lam+rho')))."""
    params = params or IDENTITY
    n = p_lead.n
    spec = OperatorSpec("a_type", n, r, params)
    f = p_lead.to_laurent()
    img = apply_operator(spec, f)
    ev = eigenvalue_An_leading(r, p_lead.weight, params)
    want = f.map_coeff(lambda c: c * ParamRat.from_poly(ev))
    if not (img == want):
        raise NotEigenfunction("A-type eigen-equation fails, r=%d" % r)
    return ev


# ---------------------------------------------------------------------------
# classical families


_PAIR_TABLE = {
    ("Bn", "Bn"): {"gb": "1", "gc": "1", "gd": "1"},
    ("Bn", "Cn"): {"gb": "1", "gc": "ga", "gd": "1"},
    ("Cn", "Bn"): {"ga": "gb", "gc": "1", "gd": "1"},
    ("Cn", "Cn"): {"ga": "gb", "gc": "gb", "gd": "gb"},
    ("BCn", "Bn"): {"gc": "1", "gd": "1"},
    ("BCn", "Cn"): {"gc": "ga", "gd": "gb"},
    ("Dn", "Dn"): {"ga": "1", "gb": "1", "gc": "1", "gd": "1"},
    ("An", "An"): {},
}

FAMILY_PAIRS = tuple(sorted(_PAIR_TABLE))


def family_specialize(pair):
    """Parameter substitution realizing an admissible pair (R, S).

    The reparametrization mu_0 = nu_1 + nu_2, mu_1 = nu_2 (primed alike)
    reads multiplicatively as ga = k1*k2, gb = k2, gc = k1'*k2', gd = k2';
    the table constraints then pin the half-parameters to each other."""
    if isinstance(pair, str):
        if ":" in pair:
            pair = tuple(pair.split(":", 1))
        else:
            pair = (pair, pair)
    if pair not in _PAIR_TABLE:
        raise ValueError("unknown family pair %r" % (pair,))
    return ParamMap(_PAIR_TABLE[pair])


def anti_periodic_params(S):
    """Parameters of the Koornwinder factor of the anti-periodic sector of
    the (Bn, S) family: the second external coupling is pushed to the shift
    unit (gb = qh)."""
    if S == "Bn":
        return ParamMap({"gb": "qh", "gc": "1", "gd": "1"})
    if S == "Cn":
        return ParamMap({"gb": "qh", "gc": "ga", "gd": "1"})
    raise ValueError("S must be Bn or Cn")


def spin_monomial(n, one=None):
    """m at the spin weight (1/2, ..., 1/2): the product of the half-angle
    cosines, on the doubled exponent lattice."""
    return monomial_symmetric((1,) * n, HYPEROCTAHEDRAL, one, scale=2)


def bn_antiperiodic(lam, S):
    """The anti-periodic member attached to lam: the spin monomial times the
    Koornwinder polynomial at the pushed parameters."""
    n = len(lam)
    params = anti_periodic_params(S)
    p = koornwinder_triangular(lam, params)
    f = p.to_laurent()
    out = spin_monomial(n) * f
    return out, p, params


def relm_constant(n, S):
    """The additive constant of the spin-conjugation identity:
    2 sum_j (ch beta(rho_j + 1/2) - ch beta rho_j) at (Bn, S) parameters."""
    qh = ParamPoly.variable(KOORN_VARS, "qh")
    total = ParamPoly.zero(KOORN_VARS)
    for u in rho_monomials(n):
        total = (total + ch_of_monomial(u * qh) * 2
                 + (-(ch_of_monomial(u) * 2)))
    return total.substitute(family_specialize(("Bn", S)))


def dn_combine(lam, delta):
    """Even combinations of the D-family polynomials: the Koornwinder
    polynomial at vanishing external couplings (delta = 0), or the spin
    monomial times the polynomial at gb = qh (delta = 1)."""
    n = len(lam)
    if delta == 0:
        p = koornwinder_triangular(lam, family_specialize(("Dn", "Dn")))
        return p.to_laurent(), p
    params = ParamMap({"ga": "1", "gb": "qh", "gc": "1", "gd": "1"})
    p = koornwinder_triangular(lam, params)
    return spin_monomial(n) * p.to_laurent(), p


def halfspin_eigencheck(which, lam, pair=None, params=None):
    """Apply a spin operator to the family polynomial of lam and assert
    proportionality; returns the eigenvalue.

    The minus/plus half-spin operators fix the even sector only for weights
    with lam_n = 0; the order-n spin operator accepts any weight at its
    S = Cn family parameters.
    """
    if params is None:
        if pair is None:
            pair = ("Cn", "Cn") if which == "c_spin" else ("Dn", "Dn")
        params = family_specialize(pair)
    n = len(lam)
    if which in ("dn_minus", "dn_plus") and lam[-1] != 0:
        raise ValueError("the split components mix unless lam_n = 0")
    p = koornwinder_triangular(lam, params)
    f = p.to_laurent()
    spec = OperatorSpec(which, n, params=params)
    img = apply_operator(spec, f)
    return proportionality_factor(img, f)


def proportionality_factor(img, f):
    """img == mu * f with mu in the coefficient field; NotEigenfunction
    otherwise."""
    if f.is_zero():
        raise ValueError("zero candidate")
    if img.is_zero():
        return ParamRat.zero(KOORN_VARS)
    _, a, b = _common(img, f)
    e = max(b)
    ca = a.get(e)
    if ca is None:
        raise NotEigenfunction("supports differ")
    cb = b[e]
    ca = ca if isinstance(ca, ParamRat) else ParamRat.from_poly(ca)
    cb = cb if isinstance(cb, ParamRat) else ParamRat.from_poly(cb)
    mu = ca / cb
    want = f.map_coeff(lambda c: (
        c if isinstance(c, ParamRat) else ParamRat.from_poly(c)) * mu)
    got = img.map_coeff(lambda c: (
        c if isinstance(c, ParamRat) else ParamRat.from_poly(c)))
    if not (got == want):
        raise NotEigenfunction("image is not proportional to the input")
    return mu

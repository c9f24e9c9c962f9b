"""Sparse Laurent polynomials in the torus variables z_1..z_n.

Coefficients are arbitrary exact ring elements (usually ``ParamPoly`` /
``ParamRat``, rationals in numeric mode); zero coefficients are never stored.
A poly carries an integer ``scale``: stored exponents are multiplied by it,
so half-integer (spin) weights live on scale 2 with exact integer arithmetic.

Rational functions of the torus variables are kept with their denominators in
factored form (``LaurentRat``): the only denominators produced by the
difference operators are products of known binomials, and exact division then
proceeds binomial by binomial, avoiding any multivariate gcd.
"""

from __future__ import annotations

from math import gcd

from .errors import NotDivisible
from .ratfield import (QQ, ParamPoly, ParamRat, _QQ_TYPE, _cleared, _common,
                       _lifted, _reduced, _sparse_add, _sparse_eq, _sparse_mul,
                       _sparse_mul_monomial, _sparse_neg, _uncleared)


def _times_qh(c, num, den):
    """Multiply a coefficient by qh^(num/den) (parameter monomial)."""
    if num == 0:
        return c
    g = gcd(abs(num), den)
    num, den = num // g, den // g
    if isinstance(c, ParamPoly):
        e = [0] * len(c.vars)
        e[c.vars.index("qh")] = num
        return c.mul_monomial(tuple(e), 1, den)
    if isinstance(c, ParamRat):
        mono = ParamPoly.variable(c.vars, "qh", (num, den))
        return c * ParamRat.from_poly(mono)
    raise TypeError("shift needs parameter-valued coefficients")


class LaurentPoly:
    """Sparse Laurent polynomial; ``terms`` maps scaled exponent tuples to
    nonzero coefficients."""

    __slots__ = ("n", "scale", "terms")

    def __init__(self, n, terms, scale=1):
        self.n = n
        self.terms, self.scale = _reduced(terms, scale)

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def const(cls, n, c):
        return cls(n, {(0,) * n: c})

    @classmethod
    def monomial(cls, n, exps, coeff, scale=1):
        return cls(n, {tuple(exps): coeff}, scale)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __add__(self, other):
        return LaurentPoly(self.n, *_sparse_add(self, other))

    def __neg__(self):
        return LaurentPoly(self.n, _sparse_neg(self), self.scale)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return LaurentPoly(self.n, *_sparse_mul(self, other))

    def scalar_mul(self, c):
        if not c:
            return LaurentPoly.zero(self.n)
        return LaurentPoly(self.n, {e: v * c for e, v in self.terms.items()},
                           self.scale)

    def mul_monomial(self, exps, coeff, scale=1):
        return LaurentPoly(self.n,
                           *_sparse_mul_monomial(self, exps, coeff, scale))

    def __eq__(self, other):
        if isinstance(other, int) and other == 0:
            return not self.terms
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _sparse_eq(self, other)

    def map_coeff(self, fn):
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            if v:
                out[e] = v
        return LaurentPoly(self.n, out, self.scale)

    def permuted(self, perm):
        """Apply z_i -> z_{perm[i]} (perm is a tuple image of indices)."""
        return LaurentPoly(self.n,
                           {tuple(e[perm[i]] for i in range(self.n)): c
                            for e, c in self.terms.items()}, self.scale)

    def inverted(self, idx):
        """Flip z_j -> z_j^{-1} for every j in idx."""
        sw = set(idx)
        return LaurentPoly(self.n,
                           {tuple(-x if i in sw else x for i, x in enumerate(e)): c
                            for e, c in self.terms.items()}, self.scale)

    def __repr__(self):
        items = sorted(self.terms)[:6]
        body = ", ".join("%s: %r" % (e, self.terms[e]) for e in items)
        more = "..." if len(self.terms) > 6 else ""
        return "LaurentPoly<%d;%d>{%s%s}" % (self.n, self.scale, body, more)


def shift_var(f, j, k):
    """Shift z_j by k half-steps: z_j^m picks up the factor qh^(k*m).

    A full translation step (z_j -> q z_j) is k = 2; the spin operators use
    k = +-1.  Exact for any lattice: fractional qh powers are carried on the
    parameter lattice when they arise.
    """
    if k == 0:
        return f
    out = {}
    for e, c in f.terms.items():
        out[e] = _times_qh(c, k * e[j], f.scale)
    return LaurentPoly(f.n, out, f.scale)


# ---------------------------------------------------------------------------
# canonical binomial factors and exact division


def canonical_binomial(n, t1, t2, scale=1):
    """Normalize c1*z^e1 + c2*z^e2 to unit leading coefficient and
    componentwise-minimal exponent zero.

    Returns (key, binom, unit_exps, unit_coeff, unit_scale): the original
    binomial equals binom * unit_coeff * z^unit_exps (exponents on
    ``unit_scale``).  Coefficients of the canonical form are a 1 at the lex
    leading exponent and a unit monomial at the trailing one.
    """
    (e1, c1), (e2, c2) = t1, t2
    if e1 == e2:
        raise ValueError("not a binomial")
    m = tuple(map(min, e1, e2))
    e1 = tuple(a - b for a, b in zip(e1, m))
    e2 = tuple(a - b for a, b in zip(e2, m))
    if e1 < e2:
        e1, e2, c1, c2 = e2, e1, c2, c1
    # c1 is the lex-leading coefficient; it must be a unit
    if isinstance(c1, ParamPoly):
        eu, cu, su = c1.monomial_parts()
        inv_exp = tuple(-x for x in eu)
        one = ParamPoly.one(c1.vars)
        trail = c2.mul_monomial(inv_exp, 1 / cu, su)
        unit_coeff = c1
    else:
        one = QQ(1)
        trail = c2 / c1
        unit_coeff = c1
    binom = LaurentPoly(n, {e1: one, e2: trail}, scale)
    key = (n, binom.scale, e1, e2, _freeze_coeff(trail))
    return key, binom, m, unit_coeff, scale


def _freeze_coeff(c):
    if isinstance(c, ParamPoly):
        return (c.vars, c.scale, frozenset(c.terms.items()))
    return c


def divide_binomial(f, binom):
    """Exact division of f by a canonical binomial; raises NotDivisible.

    Splits the support into lines parallel to the binomial direction; along
    each line the relation f = q * (z^eL + cS z^eS) is a two-term linear
    recurrence solved top-down, with one leftover consistency equation per
    line deciding exact divisibility.

    When cS is an integer and every coefficient of f a plain rational, f's
    denominators are cleared once and the recurrence and the consistency
    check run on integer numerators; the quotient is put back over the
    common denominator at the end.  Other coefficients (``ParamPoly``,
    ``QuadExt``, a non-integer cS) run the same loop on the ring elements.
    """
    if f.is_zero():
        return f
    s, terms, bt = _common(f, binom)
    (eL, eS) = sorted(bt, reverse=True)
    cS = bt[eS]
    den = None
    if type(cS) is _QQ_TYPE and cS.denominator == 1:
        cleared = _cleared(terms)
        if cleared is not None:
            terms, den = cleared
            cS = cS.numerator
    d = tuple(a - b for a, b in zip(eL, eS))
    i0 = next(i for i, x in enumerate(d) if x)
    di = d[i0]
    if di < 0:  # lex order guarantees the first nonzero difference > 0
        raise AssertionError("binomial not in canonical order")
    ai, bi = eL[i0], eS[i0]
    # group the support into lines e = base + k*d via a cross-product key
    classes = {}
    for e, c in terms.items():
        t = e[i0]
        key = (t % di,) + tuple(e[j] * di - t * d[j]
                                for j in range(len(e)) if j != i0)
        cl = classes.get(key)
        if cl is None:
            classes[key] = [(e, t, {t: c})]
        else:
            cl[0][2][t] = c
            if t < cl[0][1]:
                classes[key][0] = (e, t, cl[0][2])
    quo = {}
    for cl in classes.values():
        base_e, base_t, pos = cl[0]
        tmax = max(pos)
        tmin = min(pos)
        q = {}
        m = tmax - ai
        stop = tmin - bi
        while m >= stop:
            val = pos.get(m + ai)
            carry = q.get(m + di)
            if carry is not None:
                val = (val - cS * carry) if val is not None else (-cS * carry)
            if val:
                q[m] = val
            m -= di
        # the single unused relation per line: p[tmin] = cS * q[tmin - bi]
        lhs = pos.get(tmin)
        rhs = q.get(tmin - bi)
        if rhs is None:
            ok = lhs is None or not lhs
        else:
            ok = lhs is not None and not (lhs - cS * rhs)
        if not ok:
            raise NotDivisible("line through z^%s" % (base_e,))
        for m, c in q.items():
            k = (m + ai - base_t) // di
            quo[tuple(x + k * y - a for x, y, a in zip(base_e, d, eL))] = c
    if den is not None:
        quo = _uncleared(quo, den)
    return LaurentPoly(f.n, quo, s)


def exact_divide(numer, denom_factors):
    """Divide by a factored denominator: iterable of (binom, multiplicity).

    The quotient must be exact; a nonzero remainder raises NotDivisible,
    which inside operator application signals a violated pole-cancellation
    claim (an implementation bug, never expected input).
    """
    out = numer
    for binom, mult in denom_factors:
        for _ in range(mult):
            out = divide_binomial(out, binom)
    return out


# A factored denominator is a dict mapping canonical-binomial keys to
# (binom, multiplicity); the three operations below are all that sums and
# quotients over such denominators need.


def merge_max(den, extra):
    """Raise den in place to the least common multiple of den and extra."""
    for k, (b, m) in extra.items():
        if k in den:
            den[k] = (b, max(den[k][1], m))
        else:
            den[k] = (b, m)


def lift_to(num, own, union):
    """Rewrite num/own over the larger denominator union: multiply num by
    every factor own is missing."""
    for k, (b, m) in union.items():
        have = own[k][1] if k in own else 0
        for _ in range(m - have):
            num = num * b
    return num


def divide_factors(num, den):
    """Exact division by a factored denominator, factors in key order."""
    return exact_divide(num, (bm for _, bm in sorted(den.items())))


class LaurentRat:
    """Rational function with a factored denominator.

    den maps a canonical-binomial key to (binom, multiplicity).  Numerator
    units absorbed during canonicalization keep the denominator entries
    monic, so division never needs coefficient inverses.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = num
        self.den = den or {}

    @classmethod
    def one(cls, n, coeff_one):
        return cls(LaurentPoly.const(n, coeff_one))

    def is_zero(self):
        return self.num.is_zero()

    def __mul__(self, other):
        den = dict(self.den)
        for k, (b, m) in other.den.items():
            if k in den:
                den[k] = (b, den[k][1] + m)
            else:
                den[k] = (b, m)
        return LaurentRat(self.num * other.num, den)

    def mul_poly(self, p):
        return LaurentRat(self.num * p, dict(self.den))

    def scalar_mul(self, c):
        return LaurentRat(self.num.scalar_mul(c), dict(self.den))

    def with_binomial_factor(self, n, t1, t2, scale=1):
        """Multiply by 1/(c1 z^e1 + c2 z^e2), keeping the den factored."""
        key, binom, m, cu, su = canonical_binomial(n, t1, t2, scale)
        if isinstance(cu, ParamPoly):
            eu, c0, s0 = cu.monomial_parts()
            num = self.num.map_coeff(
                lambda c: c.mul_monomial(tuple(-x for x in eu), 1 / c0, s0))
        else:
            num = self.num.scalar_mul(QQ(1) / cu)
        num = num.mul_monomial(tuple(-x for x in m), _coeff_one_like(num), su)
        den = dict(self.den)
        if key in den:
            den[key] = (binom, den[key][1] + 1)
        else:
            den[key] = (binom, 1)
        return LaurentRat(num, den)

    def __add__(self, other):
        den = dict(self.den)
        merge_max(den, other.den)
        return LaurentRat(lift_to(self.num, self.den, den)
                          + lift_to(other.num, other.den, den), den)

    def collapse(self):
        """Carry out the factored division; the result must be polynomial."""
        return exact_divide(self.num, self.den.values())

    def __eq__(self, other):
        if not isinstance(other, LaurentRat):
            return NotImplemented
        diff = self + other._negated()
        return diff.num.is_zero()

    def _negated(self):
        return LaurentRat(-self.num, dict(self.den))


# ---------------------------------------------------------------------------
# flat form: torus exponents and parameter exponents in one tuple, rational
# coefficients.  The operator engine works here; the layered form with
# ParamPoly coefficients is the public surface.


def flatten(f, pvars):
    """Layered poly (ParamPoly coefficients over pvars) -> flat poly."""
    scale = f.scale
    for c in f.terms.values():
        scale = scale * c.scale // gcd(scale, c.scale)
    width = f.n + len(pvars)
    out = {}
    fz = scale // f.scale
    for e, c in f.terms.items():
        base = tuple(x * fz for x in e)
        for pe, q in _lifted(c, scale).items():
            out[base + pe] = q
    return LaurentPoly(width, out, scale)


def unflatten(flat, n, pvars):
    """Flat poly -> layered poly with ParamPoly coefficients."""
    split = {}
    for e, q in flat.terms.items():
        split.setdefault(e[:n], {})[e[n:]] = q
    terms = {te: ParamPoly(pvars, pt, flat.scale) for te, pt in split.items()}
    return LaurentPoly(n, terms, flat.scale)


def flat_shift(f, steps, n, qh_slot):
    """Translate z_j by steps[j] half-steps on a flat poly.

    z_j^m picks up qh^(steps[j]*m); in flat form that is a pure exponent
    shift on the qh slot, exact on any lattice.
    """
    if not any(steps):
        return f
    out = {}
    for e, c in f.terms.items():
        d = 0
        for j, k in enumerate(steps):
            if k:
                d += k * e[j]
        if d:
            e = e[:qh_slot] + (e[qh_slot] + d,) + e[qh_slot + 1:]
        out[e] = c
    return LaurentPoly(f.n, out, f.scale)


def _coeff_one_like(poly):
    for c in poly.terms.values():
        if isinstance(c, ParamPoly):
            return ParamPoly.one(c.vars)
        if isinstance(c, ParamRat):
            return ParamRat.one(c.vars)
        return QQ(1)
    return QQ(1)

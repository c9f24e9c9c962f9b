"""Truncated weight function, constant-term inner products and the
Gram-Schmidt route, at exact rational parameter points.

The torus weight is a product of q-shifted factorials; for numeric work each
infinite product is truncated to its first M factors (indices m >= 0).
Identical numerator/denominator factors cancel as multisets before any
expansion, which keeps degenerate specializations (all couplings trivial)
exactly 1.  Every denominator factor (1 - c z^step)^-1 left over needs
|c| < 1 and becomes its geometric series cut at j <= zbox.  The factors are
grouped by line (direction up to sign); each line's product is taken exactly
and cut to |k| <= zbox, and the product of the line series is taken exactly
on the box |e_i| <= zbox.  The truncated weight is thus one fixed Laurent
polynomial, independent of the order of its factors, and inner products are
exact rationals that approximate the true pairing to q-order M.

Half-parameters are generally irrational at a rational (q,t,a,b,c,d) point;
they enter only through h = ga*gb*gc*gd with h^2 = abcd/q, so specialized
operator data lives in the exact quadratic extension QuadExt = Q(sqrt(abcd/q))
and all tolerance comparisons are decided exactly there.
"""

from __future__ import annotations

from collections import namedtuple
from math import isqrt, lcm
from operator import sub

from .errors import DegenerateNorm, DenominatorVanishes, DivergentSeries
from .ratfield import QQ, _qq_text
from .weights import (HYPEROCTAHEDRAL, linear_refinement, monomial_symmetric,
                      weights_below)
from .koornwinder import OrthoPoly, _back_substitute
from .operators import OperatorSpec, operator_matrix
from .spectra import eigenvalue_Ern


class QuadExt:
    """x + y*sqrt(H) with rational x, y and fixed rational H > 0."""

    __slots__ = ("x", "y", "H")

    def __init__(self, x, y, H):
        self.x = QQ(x)
        self.y = QQ(y)
        self.H = H

    @classmethod
    def rational(cls, x, H):
        return cls(x, 0, H)

    def __bool__(self):
        return bool(self.x) or bool(self.y)

    def __add__(self, other):
        other = self._coerce(other)
        return QuadExt(self.x + other.x, self.y + other.y, self.H)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.x, -self.y, self.H)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        return QuadExt(self.x * other.x + self.y * other.y * self.H,
                       self.x * other.y + self.y * other.x, self.H)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        nrm = other.x * other.x - other.y * other.y * self.H
        if not nrm:
            raise ZeroDivisionError("division by zero in QuadExt")
        inv = QuadExt(other.x / nrm, -other.y / nrm, self.H)
        return self * inv

    def __eq__(self, other):
        other = self._coerce(other)
        return self.x == other.x and self.y == other.y

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            return other
        return QuadExt(other, 0, self.H)

    def sign(self):
        sx = (self.x > 0) - (self.x < 0)
        sy = (self.y > 0) - (self.y < 0)
        if sy == 0:
            return sx
        if sx == 0:
            return sy
        if sx == sy:
            return sx
        # opposite signs: compare x^2 against y^2 H
        diff = self.x * self.x - self.y * self.y * self.H
        big = (diff > 0) - (diff < 0)
        return sx * big

    def abs_leq(self, bound):
        """|self| <= bound, decided exactly (bound rational)."""
        hi = self._coerce(bound) - self
        lo = self + self._coerce(bound)
        return hi.sign() >= 0 and lo.sign() >= 0

    def __repr__(self):
        if not self.y:
            return _qq_text(self.x)
        return "(%s + %s*sqrt(%s))" % (_qq_text(self.x), _qq_text(self.y),
                                       _qq_text(self.H))


def _sqrt_rational(v):
    """Exact square root of a nonnegative rational, or None."""
    num, den = int(v.numerator), int(v.denominator)
    if num < 0:
        return None
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return QQ(rn, rd)


def _integer_numerators(terms):
    """(integer numerators, their denominator) of a term dict whose
    coefficients are all rational; any other term dict (QuadExt
    coefficients) comes back unchanged over 1."""
    if not all(type(c) is int or type(c) is QQ for c in terms.values()):
        return terms, 1
    den = lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (den // c.denominator)
            for e, c in terms.items()}, den


class NumericPoint:
    """A rational parameter point (q, t, a, b, c, d) with 0 < |q| < 1.

    q must be a square of a rational so the shift unit qh is rational;
    everything else specializes into Q(sqrt(abcd/q)).
    """

    def __init__(self, q, t, a, b, c, d):
        self.q = QQ(q)
        self.t = QQ(t)
        self.a, self.b, self.c, self.d = QQ(a), QQ(b), QQ(c), QQ(d)
        if not 0 < self.q < 1:
            raise ValueError("need 0 < q < 1")
        # |.| <= 1 keeps the box expansion meaningful; at the boundary a
        # denominator factor either cancels (trivial couplings telescope
        # exactly) or would need a divergent series, which delta_truncate
        # refuses.
        for name, v in (("t", self.t), ("a", self.a), ("b", self.b),
                        ("c", self.c), ("d", self.d)):
            if abs(v) > 1:
                raise ValueError("|%s| must be <= 1 for the torus weight"
                                 % name)
        qh = _sqrt_rational(self.q)
        if qh is None:
            raise ValueError("numeric mode needs q to be a rational square")
        self.qh = qh
        self.H = self.a * self.b * self.c * self.d / self.q
        if not self.H:
            raise ValueError("abcd must be nonzero")

    def key(self):
        return (self.q, self.t, self.a, self.b, self.c, self.d)

    # the four squared half-parameters with their sign conventions:
    # ga^2 = a, gb^2 = -b, gc^2 = c/qh, gd^2 = -d/qh
    def _gsquares(self):
        return (self.a, -self.b, self.c / self.qh, -self.d / self.qh)

    def specialize(self, poly):
        """ParamPoly (over the half-parameters) -> QuadExt.

        One pass over the terms on integers: each base v = p/d (qh, t and
        the four squared half-parameters) gets a table of the numerators
        v^m = p^(m-lo) d^(hi-m) / (p^(-lo) d^hi) over the exponents used
        (lo <= 0 <= hi), the coefficients are cleared once, and the sums of
        the rational and the sqrt(H) terms are divided once at the end."""
        if poly.scale != 1:
            raise ValueError("fractional parameter powers at a numeric point")
        if not poly.terms:
            return QuadExt.rational(0, self.H)
        terms, den = _integer_numerators(poly.terms)
        # t^(beta/2) and (gX^2)^((k - parity)/2): both exponents are k >> 1
        tables = []
        for v, col, half, name in zip((self.qh, self.t) + self._gsquares(),
                                      zip(*terms), (0, 1, 1, 1, 1, 1),
                                      poly.vars):
            used = set(col)
            lo = min(min(used) >> half, 0)
            hi = max(max(used) >> half, 0)
            p, d = v.numerator, v.denominator
            if lo and not p:
                raise DenominatorVanishes("a negative power of %s, which is "
                                          "0 at the point" % name)
            tables.append({k: p ** ((k >> half) - lo) * d ** (hi - (k >> half))
                           for k in used})
            den *= p ** -lo * d ** hi
        tq, tt, t0, t1, t2, t3 = tables
        x = y = 0
        for (alpha, beta, k0, k1, k2, k3), c in terms.items():
            if beta & 1:
                raise ValueError("odd power of th at a numeric point")
            if ((k0 ^ k1) | (k0 ^ k2) | (k0 ^ k3)) & 1:
                raise ValueError("unmatched external half-parameter parity")
            v = c * tq[alpha] * tt[beta] * t0[k0] * t1[k1] * t2[k2] * t3[k3]
            if k0 & 1:
                y += v
            else:
                x += v
        return QuadExt(QQ(x, den), QQ(y, den), self.H)


DEFAULT_POINT = NumericPoint(QQ(1, 4), QQ(1, 2), QQ(1, 2), QQ(-1, 3),
                             QQ(1, 5), QQ(-1, 7))


def tol(point, M, deg):
    """Truncation tolerance 10 |q|^(M - deg)."""
    return 10 * abs(point.q) ** (M - deg)


# ---------------------------------------------------------------------------
# the truncated weight


class WeightFunctionSpec:
    """Truncation order and numeric parameter point for the Koornwinder
    torus weight.  zbox is where each geometric series is cut (j <= zbox), each
    line series is cut (|k| <= zbox), and the box |e_i| <= zbox on which
    delta_truncate gives the exact product of those series."""

    def __init__(self, n, M=16, point=DEFAULT_POINT, zbox=None):
        self.n = n
        self.M = M
        self.point = point
        self.zbox = zbox if zbox is not None else max(2 * M + 6, 12)

    def key(self):
        return (self.n, self.M, self.zbox, self.point.key())


def _weight_factors(spec):
    """Numerator and denominator factor multisets (coeff, direction) of the
    truncated weight, with exact multiset cancellation and square splitting.

    Every factor means (1 - coeff * z^direction).
    """
    n, M, p = spec.n, spec.M, spec.point
    num, den = {}, {}

    def add(target, coeff, step):
        if not coeff:
            return
        key = (coeff, step)
        target[key] = target.get(key, 0) + 1

    def unit(j, s):
        e = [0] * n
        e[j] = s
        return tuple(e)

    def pair(j, k, sj, sk):
        e = [0] * n
        e[j] += sj
        e[k] += sk
        return tuple(e)

    directions = []
    for j in range(n):
        for k in range(j + 1, n):
            directions += [pair(j, k, 1, 1), pair(j, k, -1, -1),
                           pair(j, k, 1, -1), pair(j, k, -1, 1)]
    for step in directions:
        for m in range(M):
            qm = p.q ** m
            add(num, qm, step)
            add(den, p.t * qm, step)
    # the external factor in its fully split form: the numerator (w^2; q)
    # appears as (w, -w, qh w, -qh w; q), which aligns the truncation with
    # the four denominator families so that trivial couplings telescope to
    # exactly 1
    for j in range(n):
        for s in (1, -1):
            e = unit(j, s)
            for m in range(M):
                qm = p.q ** m
                for r in (QQ(1), QQ(-1), p.qh, -p.qh):
                    add(num, r * qm, e)
                for x in (p.a, p.b, p.c, p.d):
                    add(den, x * qm, e)
    # multiset cancellation
    for key in list(num):
        if key in den:
            m = min(num[key], den[key])
            num[key] -= m
            den[key] -= m
            if not num[key]:
                del num[key]
            if not den[key]:
                del den[key]
    return num, den


_DELTA_CACHE = {}


def _weight_lines(spec):
    """The factors of the truncated weight grouped by line: {primitive
    direction: [(coeff, s, invert), ...]}, one entry per factor.

    A factor is (1 - coeff u^s) along its line, u = z^prim and s = +-1, or
    with ``invert`` the inverse of that; refuses an inverse with |coeff| >= 1,
    whose series diverges on the torus."""
    num, den = _weight_factors(spec)
    lines = {}
    for source, invert in ((num, False), (den, True)):
        for (coeff, step), mult in sorted(source.items()):
            if invert and abs(coeff) >= 1:
                raise DivergentSeries(
                    "divergent series: the denominator factor (1 - %s z^%s) "
                    "has |coeff| >= 1" % (_qq_text(coeff), list(step)))
            prim, s = step, 1
            if next(x for x in step if x) < 0:
                prim, s = tuple(-x for x in step), -1
            lines.setdefault(prim, []).extend([(coeff, s, invert)] * mult)
    return lines


def _times_geometric(terms, p, q, s, L, stop):
    """terms * sum_{j<=L} p^j q^(L-j) u^(sj) on integer numerators, up to
    s*k <= stop: the product with q^(L+1) - p^(L+1) u^(s(L+1)) divided
    exactly by q - p u^s, one recurrence step per exponent."""
    lo = min(s * k for k in terms)
    hi = max(s * k for k in terms)
    qL, pL = q ** (L + 1), p ** (L + 1)
    out = {}
    prev = 0
    for k in range(lo, min(hi + L, stop) + 1):
        t = p * prev + qL * terms.get(s * k, 0) \
            - pL * terms.get(s * (k - L - 1), 0)
        prev = t // q
        if prev:
            out[s * k] = prev
    return out


def _line_product(factors, box):
    """Exact product of one line's factors, cut to |k| <= box, as (integer
    numerators, denominator).

    A denominator factor enters as its geometric series cut at j <= box.  An
    intermediate term is dropped only where the factors still to come cannot
    bring it back to the box, so the result does not depend on the order of
    the factors."""
    def width(invert):
        return box if invert else 1

    # reach toward +k and toward -k of the factors still to come
    up = sum(width(inv) for _, s, inv in factors if s > 0)
    down = sum(width(inv) for _, s, inv in factors if s < 0)
    terms, den = {0: 1}, 1
    for coeff, s, invert in factors:
        if s > 0:
            up -= width(invert)
        else:
            down -= width(invert)
        p, q = coeff.numerator, coeff.denominator
        lo, hi = -box - up, box + down
        if invert:
            terms = _times_geometric(terms, p, q, s, box,
                                     hi if s > 0 else -lo)
            den *= q ** box
        else:
            out = {k: q * v for k, v in terms.items()}
            for k, v in terms.items():
                out[k + s] = out.get(k + s, 0) - p * v
            terms = out
            den *= q
        terms = {k: v for k, v in terms.items() if v and lo <= k <= hi}
    return terms, den


def _lines_product(n, lines, box):
    """Exact product of the line series, cut to the box |e_i| <= box, as
    (integer numerators, denominator); lines is a sequence of (primitive
    direction, factors).  A coordinate is kept while the line series still
    to come can bring it back to the box."""
    terms, total_den = {(0,) * n: 1}, 1
    for idx, (prim, factors) in enumerate(lines):
        series, den = _line_product(factors, box)
        total_den *= den
        bound = [box * (1 + sum(abs(p[i]) for p, _ in lines[idx + 1:]))
                 for i in range(n)]
        out = {}
        for e, c in terms.items():
            for k, v in series.items():
                t = tuple(x + k * y for x, y in zip(e, prim))
                if all(abs(x) <= b for x, b in zip(t, bound)):
                    out[t] = out.get(t, 0) + c * v
        terms = {e: c for e, c in out.items() if c}
    return terms, total_den


TruncatedWeight = namedtuple("TruncatedWeight", "terms den")
TruncatedWeight.__doc__ = """The truncated weight as integer numerators
{exponent: int} over one positive denominator ``den``."""


def delta_truncate(spec):
    """The truncated weight as an exact Laurent polynomial on the box
    |e_i| <= zbox, as a ``TruncatedWeight``.

    Each denominator factor (1 - c z^step)^-1, |c| < 1, becomes its
    geometric series cut at j <= zbox.  The factors are grouped by line
    (direction up to sign); each line's product is taken exactly and cut to
    |k| <= zbox, and the product of the line series is taken exactly on the
    box.  The result is therefore the same for every order of the factors
    and of the lines."""
    key = spec.key()
    got = _DELTA_CACHE.get(key)
    if got is not None:
        return got
    lines = _weight_lines(spec)
    got = TruncatedWeight(*_lines_product(spec.n, sorted(lines.items()),
                                          spec.zbox))
    _DELTA_CACHE[key] = got
    return got


def inner_product(f, g, spec):
    """Constant-term pairing CT[f(z) g(1/z) Delta_M(z)], normalized by the
    torus volume; exact in the coefficient field of f and g.

    Rational f and g are paired on their integer numerators against the
    weight's, and the sum is divided once."""
    weight, den = delta_truncate(spec)
    at = weight.get
    fn, fd = _integer_numerators(f.terms)
    gn, gd = _integer_numerators(g.terms)
    gitems = list(gn.items())
    total = 0
    for ef, cf in fn.items():
        inner = 0
        for eg, cg in gitems:
            w = at(tuple(map(sub, eg, ef)))
            if w is not None:
                inner += cg * w
        total += cf * inner
    return total * QQ(1, fd * gd * den)


def monomial_numeric(lam, group=HYPEROCTAHEDRAL):
    return monomial_symmetric(lam, group, one=QQ(1))


def gram_schmidt_oracle(lam, spec, _cache=None, style="graded"):
    """Orthogonalize the monomial basis below lam against the truncated
    weight, in the order ``linear_refinement`` gives for ``style``;
    classical projection recursion, exact rational coefficients.  A cache
    serves one spec and one style."""
    order = linear_refinement(weights_below(lam), style)
    polys = {}
    for mu in order:
        if _cache is not None and mu in _cache:
            polys[mu] = _cache[mu]
            continue
        f = monomial_numeric(mu)
        for nu in order:
            if nu == mu:
                break
            p_nu, norm = polys[nu]
            if not norm:
                raise DegenerateNorm("vanishing truncated norm at %s" % (nu,))
            c = QQ(inner_product(monomial_numeric(mu), p_nu, spec), norm)
            if c:
                f = f + p_nu.scalar_mul(-c)
        norm = inner_product(f, f, spec)
        polys[mu] = (f, norm)
        if _cache is not None:
            _cache[mu] = polys[mu]
    f, _ = polys[lam]
    coeffs = {}
    for e, c in f.terms.items():
        mu = tuple(sorted((abs(x) for x in e), reverse=True))
        if mu not in coeffs:
            coeffs[mu] = c
    return OrthoPoly(lam, coeffs)


# ---------------------------------------------------------------------------
# numeric operator work in the quadratic extension


def numeric_matrix(spec_op, lam, point):
    """Specialize the symbolic operator matrix at a numeric point."""
    sym = operator_matrix(spec_op, lam)
    out = {}
    for mu, row in sym.items():
        out[mu] = {nu: point.specialize(v) for nu, v in row.items()}
    return out


def koornwinder_numeric(lam, point):
    """Back-substituted expansion at a numeric point; raises ZeroDenominator
    on an eigenvalue collision (never perturbs silently)."""
    n = len(lam)
    spec_op = OperatorSpec("koornwinder", n, 1)
    matrix = numeric_matrix(spec_op, lam, point)
    ev = point.specialize(eigenvalue_Ern(1, n, lam))
    return OrthoPoly(lam, _back_substitute(
        matrix, lam, ev, QuadExt.rational(1, point.H), _field_step))


def _field_step(couplings, gap):
    """One step of the back-substitution in the field QuadExt."""
    acc = None
    for c, entry in couplings:
        t = c * entry
        acc = t if acc is None else acc + t
    return acc / gap


def numeric_apply_to_monomial(spec_op, lam, point):
    """D_r m_lam at a numeric point: specialize the cached symbolic image."""
    from .operators import apply_to_monomial
    img = apply_to_monomial(spec_op, lam)
    return img.map_coeff(point.specialize)

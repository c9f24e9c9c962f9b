"""Reference mathematics for checking qkoorn's outputs, written apart from
the package: nothing here imports qkoorn.

* ``parse_coeff`` reads the coefficient text qkoorn emits (a rational
  constant, or a sum of monomials in named parameters, or a quotient of two
  such sums) and ``evaluate`` computes it exactly at rational values.
* ``koornwinder_apply`` is Koornwinder's q-difference operator (Koornwinder
  1992, "Askey-Wilson polynomials for root systems of type BC") applied
  pointwise to a function of the torus variables, and
  ``koornwinder_eigenvalue`` is his eigenvalue.
* ``paper_eigenvalue`` is the closed form 2^r E_{r,n} of the r-th operator's
  diagonal entry.
* ``TorusQuadrature`` integrates against the truncated weight on a grid of
  the torus, in floating point.

Half-parameters map to Koornwinder's parameters as q = qh^2, t = th^2,
a = ga^2, b = -gb^2, c = gc^2*qh, d = -gd^2*qh.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction
from itertools import permutations

HALF_NAMES = ("qh", "th", "ga", "gb", "gc", "gd")

# ---------------------------------------------------------------------------
# coefficient text

_TERM_SPLIT = re.compile(r"(?<![\^(])(?=[+-])")
_FACTOR = re.compile(r"^([A-Za-z_]\w*)(?:\^(?:(-?\d+)|\((-?\d+)/(\d+)\)))?$")


def _number(text):
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den)) if den else Fraction(int(num))


def _parse_sum(text):
    """'3/2*qh^2*th^-1-gb+qh^(1/2)' -> {((name, exp), ...): coeff}."""
    terms = {}
    for piece in _TERM_SPLIT.split(text.strip()):
        if not piece:
            continue
        sign = 1
        if piece[0] in "+-":
            sign = -1 if piece[0] == "-" else 1
            piece = piece[1:]
        coeff = Fraction(sign)
        powers = {}
        for factor in piece.split("*"):
            if not factor:
                raise ValueError("empty factor in %r" % text)
            if factor[0].isdigit():
                coeff *= _number(factor)
                continue
            m = _FACTOR.match(factor)
            if m is None:
                raise ValueError("bad factor %r" % factor)
            name, whole, num, den = m.groups()
            if whole is not None:
                exp = int(whole)
            elif num is not None:
                exp = Fraction(int(num), int(den))
            else:
                exp = 1
            powers[name] = powers.get(name, 0) + exp
        key = tuple(sorted((k, v) for k, v in powers.items() if v))
        terms[key] = terms.get(key, 0) + coeff
    return {k: v for k, v in terms.items() if v}


def _split_quotient(text):
    """Split 'A/B' at a top-level slash that is not inside a rational
    constant: qkoorn writes a quotient as '(num)/(den)', 'num/(den)' or
    '(num)/den'."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            left, right = text[:i], text[i + 1:]
            if left.endswith(")") or right.startswith("("):
                return left, right
    return text, None


def _strip_parens(text):
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        depth = 0
        for i, ch in enumerate(text):
            depth += ch == "("
            depth -= ch == ")"
            if depth == 0 and i < len(text) - 1:
                return text
        return text[1:-1]
    return text


class Coeff:
    """An exact rational function of named parameters, read from text."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den

    def evaluate(self, values):
        den = _eval_sum(self.den, values)
        if not den:
            raise ZeroDivisionError("coefficient denominator vanishes")
        return _eval_sum(self.num, values) / den


def parse_coeff(text):
    """Parse one emitted coefficient; raises ValueError on foreign text."""
    if not isinstance(text, str) or not text.strip():
        raise ValueError("coefficient must be non-empty text")
    num_text, den_text = _split_quotient(text.strip())
    num = _parse_sum(_strip_parens(num_text))
    den = _parse_sum(_strip_parens(den_text)) if den_text is not None \
        else {(): Fraction(1)}
    if not den:
        raise ValueError("zero denominator in %r" % text)
    return Coeff(num, den)


def _power(value, exp):
    if exp.denominator == 1:
        return value ** int(exp)
    root = _exact_root(value, exp.denominator)
    return root ** exp.numerator


def _exact_root(value, k):
    value = Fraction(value)
    if value < 0 and k % 2 == 0:
        raise ValueError("even root of a negative value")
    sign = -1 if value < 0 else 1
    num = _int_root(abs(value.numerator), k)
    den = _int_root(value.denominator, k)
    return sign * Fraction(num, den)


def _int_root(x, k):
    if k != 2:
        raise ValueError("only square roots of parameters are supported")
    r = math.isqrt(x)
    if r * r != x:
        raise ValueError("no exact square root")
    return r


def _eval_sum(terms, values):
    """Exact value of a parsed sum at rational ``values``; each distinct
    power is computed once."""
    powers = {}
    total = Fraction(0)
    for key, coeff in terms.items():
        val = coeff
        for factor in key:
            p = powers.get(factor)
            if p is None:
                name, exp = factor
                p = powers[factor] = _power(Fraction(values[name]),
                                            Fraction(exp))
            val *= p
        total += val
    return total


# ---------------------------------------------------------------------------
# parameters, weights and symmetric monomials


def koornwinder_params(half):
    """(q, t, a, b, c, d) from the six half-parameters."""
    qh, th = half["qh"], half["th"]
    return (qh * qh, th * th, half["ga"] ** 2, -half["gb"] ** 2,
            half["gc"] ** 2 * qh, -half["gd"] ** 2 * qh)


def operator_scale(half, n):
    """qkoorn's D_1 is Koornwinder's operator divided by this constant."""
    return half["ga"] * half["gb"] * half["gc"] * half["gd"] * \
        half["th"] ** (2 * n - 2)


def dominates(mu, lam):
    """mu <= lam in dominance order (partial sums bounded)."""
    if len(mu) != len(lam):
        return False
    s1 = s2 = 0
    for a, b in zip(mu, lam):
        s1 += a
        s2 += b
        if s1 > s2:
            return False
    return True


def dominant_below(lam):
    """Every dominant weight mu <= lam."""
    n, size = len(lam), sum(lam)
    out = []

    def rec(prefix, left):
        if len(prefix) == n:
            if not left and dominates(tuple(prefix), lam):
                out.append(tuple(prefix))
            return
        hi = left if not prefix else min(left, prefix[-1])
        for v in range(hi, -1, -1):
            rec(prefix + [v], left - v)

    for total in range(size + 1):
        rec([], total)
    return sorted(set(out))


_ORBITS = {}


def bc_orbit(mu):
    """Distinct images of mu under permutations and sign changes."""
    got = _ORBITS.get(mu)
    if got is None:
        seen = set()
        for p in set(permutations(mu)):
            nz = [i for i, x in enumerate(p) if x]
            for mask in range(1 << len(nz)):
                v = list(p)
                for b, i in enumerate(nz):
                    if mask >> b & 1:
                        v[i] = -v[i]
                seen.add(tuple(v))
        got = _ORBITS[mu] = tuple(sorted(seen))
    return got


def monomial_value(mu, z):
    """m_mu(z): the sum of z^e over the orbit of mu."""
    total = 0
    for e in bc_orbit(mu):
        term = 1
        for zj, k in zip(z, e):
            if k:
                term = term * zj ** k
        total = total + term
    return total


class Expansion:
    """sum_mu c_mu m_mu with coefficients already evaluated to numbers."""

    def __init__(self, coeffs):
        self.coeffs = dict(coeffs)

    def __call__(self, z):
        return sum((c * monomial_value(mu, z)
                    for mu, c in self.coeffs.items() if c), Fraction(0))


# ---------------------------------------------------------------------------
# Koornwinder's operator and eigenvalue


def _phi(j, z, q, t, a, b, c, d):
    zj = z[j]
    val = (1 - a * zj) * (1 - b * zj) * (1 - c * zj) * (1 - d * zj)
    val /= (1 - zj * zj) * (1 - q * zj * zj)
    for k, zk in enumerate(z):
        if k == j:
            continue
        val *= (1 - t * zj * zk) * (1 - t * zj / zk)
        val /= (1 - zj * zk) * (1 - zj / zk)
    return val


def koornwinder_apply(f, z, params):
    """(D f)(z) for Koornwinder's operator
    D = sum_j Phi_j(z) (T_j - 1) + Phi_j(1/z) (T_j^-1 - 1), with
    Phi_j(z) = prod_{x in a,b,c,d} (1 - x z_j) / ((1 - z_j^2)(1 - q z_j^2))
               * prod_{k != j} (1 - t z_j z_k)(1 - t z_j/z_k)
                               / ((1 - z_j z_k)(1 - z_j/z_k))
    and T_j z_j = q z_j.  ``f`` is any callable on tuples of numbers."""
    q, t, a, b, c, d = params
    z = tuple(z)
    zinv = tuple(1 / x for x in z)
    base = f(z)
    total = 0
    for j in range(len(z)):
        up = z[:j] + (q * z[j],) + z[j + 1:]
        down = z[:j] + (z[j] / q,) + z[j + 1:]
        total += _phi(j, z, q, t, a, b, c, d) * (f(up) - base)
        total += _phi(j, zinv, q, t, a, b, c, d) * (f(down) - base)
    return total


def koornwinder_eigenvalue(lam, params):
    """Koornwinder's eigenvalue
    E_lam = sum_j q^-1 abcd t^(2n-j-1) (q^lam_j - 1)
                  + t^(j-1) (q^-lam_j - 1)."""
    q, t, a, b, c, d = params
    n = len(lam)
    total = Fraction(0)
    for j, lj in enumerate(lam, start=1):
        total += a * b * c * d / q * t ** (2 * n - j - 1) * (q ** lj - 1)
        total += t ** (j - 1) * (Fraction(1) / q ** lj - 1)
    return total


def _elementary(k, xs):
    es = [Fraction(1)] + [Fraction(0)] * len(xs)
    for x in xs:
        for i in range(len(xs), 0, -1):
            es[i] += es[i - 1] * x
    return es[k]


def _complete(k, xs):
    hs = [Fraction(1)] + [Fraction(0)] * k
    for x in xs:
        for i in range(1, k + 1):
            hs[i] += hs[i - 1] * x
    return hs[k]


def paper_eigenvalue(r, lam, half):
    """2^r E_{r,n}(x; y_r..y_n) with
    E_{r,n} = sum_{s=0}^{r} (-1)^(r+s) e_s(x_1..x_n) h_{r-s}(y_r..y_n),
    x_j = ch(beta(lam_j + rho_j)), y_j = ch(beta rho_j), where
    2 ch(beta rho_j) = u_j + 1/u_j with u_j = th^(2(n-j)) ga gb gc gd and the
    shift lam_j multiplies u_j by q^lam_j."""
    n = len(lam)
    q = half["qh"] ** 2
    h = half["ga"] * half["gb"] * half["gc"] * half["gd"]
    us = [h * half["th"] ** (2 * (n - j)) for j in range(1, n + 1)]
    xs = [(u * q ** l + 1 / (u * q ** l)) / 2 for u, l in zip(us, lam)]
    ys = [(u + 1 / u) / 2 for u in us][r - 1:]
    total = Fraction(0)
    for s in range(r + 1):
        term = _elementary(s, xs) * _complete(r - s, ys)
        total += -term if (r + s) % 2 else term
    return total * 2 ** r


# ---------------------------------------------------------------------------
# the truncated weight by quadrature on the torus


def _qpoch_m(x, q, m):
    out = 1.0
    for i in range(m):
        out *= 1.0 - x * q ** i
    return out


class TorusQuadrature:
    """Normalized torus integral of f(z) g(1/z) Delta_M(z) by the
    trapezoidal rule on an N^n grid (exact for Laurent polynomials of
    degree < N, geometrically convergent for the analytic weight).

    Delta_M is the weight in the truncation that qkoorn documents: with
    (x; q)_M = prod_{m<M} (1 - x q^m),
      prod_j (z_j^2, z_j^-2; q)_{2M}
             / (a z_j^+-1, b z_j^+-1, c z_j^+-1, d z_j^+-1; q)_M
      * prod_{j<k} (z_j^+-1 z_k^+-1; q)_M / (t z_j^+-1 z_k^+-1; q)_M.
    The external numerator carries 2M factors because qkoorn truncates
    (w^2; q) in its split form (w, -w, q^(1/2) w, -q^(1/2) w; q), M factors
    each, which equals (w^2; q)_{2M}."""

    def __init__(self, n, M, point, N):
        q, t, a, b, c, d = (float(x) for x in point)
        self.n = n
        self.points = []
        self.weights = []
        angles = [2 * math.pi * (k + 0.5) / N for k in range(N)]
        grid = [()]
        for _ in range(n):
            grid = [g + (cmath.exp(1j * th),) for g in grid for th in angles]
        for z in grid:
            w = 1.0
            for zj in z:
                for s in (zj, 1 / zj):
                    w *= _qpoch_m(s * s, q, 2 * M)
                    for x in (a, b, c, d):
                        w /= _qpoch_m(x * s, q, M)
            for j in range(n):
                for k in range(j + 1, n):
                    for sj in (z[j], 1 / z[j]):
                        for sk in (z[k], 1 / z[k]):
                            w *= _qpoch_m(sj * sk, q, M)
                            w /= _qpoch_m(t * sj * sk, q, M)
            self.points.append(z)
            self.weights.append(w / N ** n)

    def inner(self, f, g):
        """<f, g> = integral of f(z) g(1/z) Delta_M(z); f and g callables."""
        total = 0j
        for z, w in zip(self.points, self.weights):
            zi = tuple(1 / x for x in z)
            total += f(z) * g(zi) * w
        return total

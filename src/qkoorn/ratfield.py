"""Exact coefficient field: sparse Laurent polynomials and rational functions
in a tuple of named commuting indeterminates.

The default tuple ``KOORN_VARS`` holds the six half-parameters
(qh, th, ga, gb, gc, gd).  In the multiplicative encoding

    q = qh^2,  t = th^2,  a = ga^2,  b = -gb^2,  c = gc^2*qh,  d = -gd^2*qh,

every trigonometric coefficient ratio of the difference operators becomes an
honest rational function, so no root extensions are ever needed.  ``ParamPoly``
is the one sparse polynomial class: other tuples give the symbolic t/p
vectors of the eigenvalue identities, the additive (g, tg0, tg1) ring of the
differential-operator branch, the torus variables z1..zn (whose polys carry
ParamPoly or ParamRat coefficients) and the flat polys of the operator
engine (torus names followed by parameter names).

Exponents may be negative (Laurent) and may sit on a refined lattice: a poly
carries an integer ``scale`` and stores exponents multiplied by it, so e.g.
qh^(1/3) is representable exactly.  All arithmetic is exact.

A poly keys its terms on exponent tuples; the hot kernels run on packed
exponents instead, each exponent tuple packed into one int (``_packing``).
The product has one inner loop, ``_packed_product``, which keys each term
product on the sum of two packed ints.  ``_product`` (``ParamPoly.__mul__``,
and the lift of a numerator by every factor it is missing,
``laurent.lift_to``) packs its operands once, runs it and unpacks once; a
step of the Koornwinder solve (``laurent.cancel_sum``) runs it on operands
packed for the whole step.  The divisions of ``laurent`` (``exact_divide``,
the binomial trials, ``sparse_divide``) pack the same way.

A parameter substitution (a classical family, th = qh^g before q -> 1) is a
dict name -> nonzero monomial (``operators.ParamMap``), one exponent map per
term (``ParamPoly.substitute``).  Pinning variables to rational values
(``ParamRat.substitute``) differentiates numerator and denominator while
both vanish there, so removable poles cancel and nothing is divided.

An exact rational coefficient has one representation: a Python ``int`` when
it is integral and a ``Fraction`` (``QQ``) otherwise, never a float.  The
public constructors and the product write an integral ``Fraction`` as its
``int``; sums are not rescanned, so a sum of true ``Fraction`` operands may
leave an integral ``Fraction`` behind, which is just as exact.  Since
``int / int`` is a float, every exact division goes through ``_qq(a, b)``.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction as QQ
from functools import cache
from math import gcd
from operator import add as _add
from operator import lshift
from struct import Struct

from .errors import DenominatorVanishes

KOORN_VARS = ("qh", "th", "ga", "gb", "gc", "gd")
JACOBI_VARS = ("g", "tg0", "tg1")


def _qq(x, d=1):
    """The exact rational x / d: an int when integral, else a QQ (x may
    also be a float or decimal string when d is 1)."""
    if d != 1:
        x = QQ(x, d)
    elif type(x) is not int and type(x) is not QQ:
        x = QQ(x)
    return x.numerator if x.denominator == 1 else x


def _content(coeffs):
    """gcd of a list of rationals, normalized positive."""
    num = 0
    den = 1
    for c in coeffs:
        cn, cd = c.numerator, c.denominator
        num = gcd(num, abs(cn))
        den = den * cd // gcd(den, cd)
    if num == 0:
        return 1
    return _qq(num, den)


def _qq_text(c):
    """Decimal text of a rational, however many digits it has (``str``
    refuses integers past the interpreter's digit limit)."""
    try:
        return str(c)
    except ValueError:
        num, den = c.numerator, c.denominator
        text = str(Decimal(num))
        return text if den == 1 else "%s/%s" % (text, Decimal(den))


# ---------------------------------------------------------------------------
# sparse polynomials.  A polynomial is its ``terms`` dict (exponent tuples in
# units of 1/scale -> nonzero coefficients) and its integer ``scale``; the
# arithmetic runs one loop on the coefficients as they are, so it serves any
# exact coefficient ring (integral rationals are ints, so that loop is
# integer arithmetic wherever the data allow).  Add, negate and multiply
# never leave a zero coefficient (nor does a rational monomial multiply), so
# their results go through a private constructor that only coarsens the
# lattice (``_coarsened``); the public constructor drops zeros and writes
# integral rationals as ints (``_reduced``).


def _reduced(terms, scale):
    """Drop zero coefficients, write an integral QQ as its int and move to
    the coarsest lattice holding every exponent: returns (terms, scale)."""
    return _coarsened({e: c.numerator if type(c) is QQ and c.denominator == 1
                       else c for e, c in terms.items() if c}, scale)


def _coarsened(clean, scale):
    """Move a term dict that holds no zero coefficient (every sum or product)
    to the coarsest lattice holding every exponent: returns (terms, scale)."""
    if scale > 1 and clean:
        g = scale
        for e in clean:
            for x in e:
                g = gcd(g, x)
                if g == 1:
                    break
            if g == 1:
                break
        if g > 1:
            clean = {tuple(x // g for x in e): c for e, c in clean.items()}
            scale //= g
    return clean, (scale if clean else 1)


def _lifted(p, scale):
    """The terms of p with exponents on the finer lattice ``scale``."""
    if scale == p.scale:
        return p.terms
    f = scale // p.scale
    return {tuple(x * f for x in e): c for e, c in p.terms.items()}


def _common(p, q):
    """(scale, terms of p, terms of q) on the lattice holding both."""
    s = p.scale * q.scale // gcd(p.scale, q.scale)
    return s, _lifted(p, s), _lifted(q, s)


_STRUCT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _packing(n, bound):
    """Pack exponent vectors of length n with entries in [-bound, bound]
    into one int each: (width, zero, pack, unpack).

    pack(e) is the sum over i of (e[i] + half) * 2^(width*(n-1-i)), with
    width a whole number of bytes and half = 2^(width-1) > bound: balanced
    digits, as in Monagan & Pearce, "Polynomial division using dynamic
    arrays, heaps, and packed exponent vectors" (CASC 2007).  Every field
    stays in [0, 2^width), so lex order of the vectors is integer order,
    pack(a) + pack(b) - zero = pack(a + b) while a + b stays in range
    (zero = pack of the zero vector), and a packed difference drops zero.

    Fields of up to 8 bytes are written and read whole by ``struct`` (XOR
    with zero flips each field's top bit, turning e[i] + half into the two's
    complement of e[i]); it unpacks three times as fast as shifts and masks,
    which wider fields use.  The result depends on n and the field's bytes
    alone, and is built once for each such pair.
    """
    nbytes = 1
    while bound >= 1 << (8 * nbytes - 1):
        nbytes *= 2
    return _fields(n, nbytes)


@cache
def _fields(n, nbytes):
    """``_packing`` of n fields of ``nbytes`` bytes each."""
    width = 8 * nbytes
    half = 1 << (width - 1)
    shifts = tuple(range(width * (n - 1), -1, -width))
    zero = sum(half << t for t in shifts)
    code = _STRUCT_CODES.get(nbytes)
    if code is None:
        mask = (1 << width) - 1

        def pack(e):
            return sum(map(lshift, e, shifts), zero)

        def unpack(u):
            return tuple([((u >> t) & mask) - half for t in shifts])
    else:
        fmt = Struct(">%d%s" % (n, code))
        fpack, funpack, size = fmt.pack, fmt.unpack, fmt.size

        def pack(e):
            return int.from_bytes(fpack(*e), "big") ^ zero

        def unpack(u):
            return funpack((u ^ zero).to_bytes(size, "big"))
    return width, zero, pack, unpack


def _top(terms, n):
    """The largest absolute exponent of a nonzero term dict over n names."""
    return max(max(map(max, terms)), -min(map(min, terms))) if n else 0


def _product(p, factors):
    """p times every poly of ``factors`` (over p's names), on one packed
    copy: the operands are lifted to one lattice and every exponent tuple
    is packed into one int (``_packing``), with fields as wide as the sum
    of the operands' largest absolute exponents, so that no partial
    product's exponent leaves its field.  The product runs on the packed
    terms (``_packed_product``) and is unpacked once.  Zeros are dropped
    and an integral QQ is written as its int; the coefficients may lie in
    any exact ring."""
    if not factors:
        return p
    if not p or not all(factors):
        return ParamPoly.zero(p.vars)
    s = p.scale
    for f in factors:
        s = s * f.scale // gcd(s, f.scale)
    n = p.n
    terms = _lifted(p, s)
    lifted = [_lifted(f, s) for f in factors]
    bound = _top(terms, n)
    for t in lifted:
        bound += _top(t, n)
    _, zero, pack, unpack = _packing(n, bound)
    acc = _packed_product({pack(e): c for e, c in terms.items()},
                          [[(pack(e) - zero, c) for e, c in t.items()]
                           for t in lifted])
    # a ring with zero divisors (QuadExt at a square H) can make a first
    # product vanish, and a Fraction operand an integral product
    return ParamPoly._of(p.vars, {
        unpack(u): v.numerator if type(v) is QQ and v.denominator == 1 else v
        for u, v in acc.items() if v}, s)


def _packed_product(acc, factors):
    """The packed terms ``acc`` times each factor of ``factors``, a factor
    being a list of (packed exponent less ``zero``, coefficient) pairs:
    each product keys its terms on the sum of two packed ints.  The caller
    sizes the packing so that no partial product's exponent leaves its
    field.  A sum that cancels is dropped; a first product that vanishes
    (a ring with zero divisors) is not."""
    for t in factors:
        items = list(acc.items())
        acc = {}
        get = acc.get
        for u2, c2 in t:
            for u1, c1 in items:
                u = u1 + u2
                v = get(u)
                if v is None:
                    acc[u] = c1 * c2
                else:
                    v = v + c1 * c2
                    if v:
                        acc[u] = v
                    else:
                        del acc[u]
    return acc


class ParamPoly:
    """Sparse Laurent polynomial in a tuple of named indeterminates: the
    parameters (``KOORN_VARS``, ``JACOBI_VARS``, ...), the torus variables
    z1..zn (``laurent.torus_vars``), or the torus variables followed by the
    parameters (a flat poly, ``laurent.flatten``).

    terms: dict mapping exponent tuples (ints, in units of 1/scale) to
    nonzero coefficients: exact rationals, or the elements of another exact
    ring (a torus poly may carry ParamPoly or ParamRat coefficients).
    """

    __slots__ = ("vars", "scale", "terms", "_hash")

    def __init__(self, vars_, terms, scale=1):
        self.vars = vars_
        self.terms, self.scale = _reduced(terms, scale)
        self._hash = None

    @classmethod
    def _of(cls, vars_, terms, scale):
        """A poly on a term dict that holds no zero coefficient."""
        self = object.__new__(cls)
        self.vars = vars_
        self.terms, self.scale = _coarsened(terms, scale)
        self._hash = None
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars_):
        return cls(vars_, {})

    @classmethod
    def const(cls, vars_, c):
        return cls(vars_, {(0,) * len(vars_): c})

    @classmethod
    def one(cls, vars_):
        return cls.const(vars_, 1)

    @classmethod
    def monomial(cls, vars_, exps, coeff=1, scale=1):
        return cls(vars_, {tuple(exps): coeff}, scale)

    @classmethod
    def variable(cls, vars_, name, power=1):
        e = [0] * len(vars_)
        if isinstance(power, tuple):
            num, den = power
        else:
            num, den = power, 1
        e[vars_.index(name)] = num
        return cls(vars_, {tuple(e): 1}, den)

    # -- helpers -----------------------------------------------------------

    @property
    def n(self):
        """The number of variables."""
        return len(self.vars)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_one(self):
        if len(self.terms) != 1:
            return False
        (e, c), = self.terms.items()
        return c == 1 and not any(e)

    def is_monomial(self):
        return len(self.terms) == 1

    def monomial_parts(self):
        (e, c), = self.terms.items()
        return e, c, self.scale

    def __len__(self):
        return len(self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, QQ)):
            other = ParamPoly.const(self.vars, other)
        elif isinstance(other, ParamRat):
            return ParamRat.from_poly(self) + other
        s, a, b = _common(self, other)
        out = dict(a)
        for e, c in b.items():
            if e in out:
                v = out[e] + c
                if v:
                    out[e] = v
                else:
                    del out[e]
            else:
                out[e] = c
        return ParamPoly._of(self.vars, out, s)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly._of(self.vars,
                             {e: -c for e, c in self.terms.items()},
                             self.scale)

    def __sub__(self, other):
        if isinstance(other, (int, QQ)):
            other = ParamPoly.const(self.vars, other)
        elif isinstance(other, ParamRat):
            return ParamRat.from_poly(self) - other
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, QQ)):
            return self.scalar_mul(_qq(other))
        if isinstance(other, ParamRat):
            return ParamRat.from_poly(self) * other
        if len(self.terms) < len(other.terms):
            return _product(other, (self,))
        return _product(self, (other,))

    __rmul__ = __mul__

    def scalar_mul(self, c):
        """self times an element c of its coefficient ring."""
        if not c:
            return ParamPoly.zero(self.vars)
        # a rational factor can make a Fraction integral (2 * 1/2)
        return ParamPoly(self.vars, {e: v * c for e, v in self.terms.items()},
                         self.scale)

    def mul_monomial(self, exps, coeff=1, scale=1):
        """Fast multiply by coeff * x^exps (exps in units of 1/scale)."""
        c = _qq(coeff)
        if not c:
            return ParamPoly.zero(self.vars)
        s = self.scale * scale // gcd(self.scale, scale)
        f = s // scale
        e0 = tuple(x * f for x in exps)
        return ParamPoly._of(self.vars,
                             {tuple(map(_add, e, e0)): v * c
                              for e, v in _lifted(self, s).items()}, s)

    def map_coeff(self, fn):
        """The poly whose coefficients are fn of self's (zeros dropped)."""
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            if v:
                out[e] = v
        return ParamPoly._of(self.vars, out, self.scale)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial; use ParamRat")
        out = ParamPoly.one(self.vars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, QQ)):
            other = ParamPoly.const(self.vars, other)
        if isinstance(other, ParamRat):
            return ParamRat.from_poly(self) == other
        if not isinstance(other, ParamPoly):
            return NotImplemented
        _, a, b = _common(self, other)
        return a == b

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, self.scale, frozenset(self.terms.items())))
        return self._hash

    # -- structure ---------------------------------------------------------

    def eval_var(self, name, value):
        """Substitute one variable by a rational value; stays a ParamPoly."""
        i = self.vars.index(name)
        value = QQ(value)
        out = {}
        for e, c in self.terms.items():
            k = e[i]
            if k % self.scale:
                raise ValueError("fractional exponent in eval_var")
            v = c * value ** (k // self.scale)
            e2 = e[:i] + (0,) + e[i + 1:]
            w = out.get(e2, 0) + v
            if w:
                out[e2] = w
            else:
                out.pop(e2, None)
        return ParamPoly(self.vars, out, self.scale)

    def derivative(self, name):
        """The partial derivative in one variable, whose powers must be
        integers (``eval_var`` checks that)."""
        i = self.vars.index(name)
        s = self.scale
        return ParamPoly(self.vars, {e[:i] + (e[i] - s,) + e[i + 1:]:
                                     c * (e[i] // s)
                                     for e, c in self.terms.items() if e[i]},
                         s)

    def substitute(self, sigma):
        """The image of self when each variable named in sigma is replaced
        by a nonzero monomial (see ``_monomial_image``); unlisted variables
        stay.  One pass maps every term's exponents onto the lattice
        ``scale * lcm(image scales)`` and its coefficient; a fractional
        power of an image needs a unit coefficient."""
        images = [(self.vars.index(name), _monomial_image(self.vars, v))
                  for name, v in sigma.items()]
        lcm = 1
        for _, (_, _, s) in images:
            lcm = lcm * s // gcd(lcm, s)
        out = {}
        for e, c in self.terms.items():
            new = [x * lcm for x in e]
            for i, (ie, ic, s) in images:
                k = e[i]
                if not k:
                    continue
                new[i] -= k * lcm
                f = k * (lcm // s)
                new = [x + y * f for x, y in zip(new, ie)]
                if ic != 1:
                    if k % self.scale:
                        raise ValueError("fractional power needs a "
                                         "unit-coefficient monomial")
                    c = c * QQ(ic) ** (k // self.scale)
            new = tuple(new)
            out[new] = out.get(new, 0) + c
        return ParamPoly(self.vars, out, self.scale * lcm)

    def render(self):
        """Canonical text form: sum of monomials in a fixed term order."""
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = []
            for name, k in zip(self.vars, e):
                if not k:
                    continue
                if k % self.scale == 0:
                    p = k // self.scale
                    factors.append(name if p == 1 else "%s^%d" % (name, p))
                else:
                    factors.append("%s^(%d/%d)" % (name, k, self.scale))
            body = "*".join(factors)
            if not body:
                parts.append(_qq_text(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append("%s*%s" % (_qq_text(c), body))
        s = parts[0]
        for p in parts[1:]:
            s += p if p.startswith("-") else "+" + p
        return s

    def __repr__(self):
        return "ParamPoly(%s)" % self.render()


def _monomial_image(vars_, val):
    """(exponents, coefficient, scale) of a substitution image: a nonzero
    rational, a nonzero ParamPoly monomial, or a ParamRat equal to one of
    these (its constructor moves a monomial denominator into the
    numerator); the exponents are in units of 1/scale.  Any other type, a
    float among them, is refused with TypeError."""
    if isinstance(val, ParamRat):
        if not val.den.is_one():
            raise ValueError("parameter images must be plain monomials")
        val = val.num
    elif isinstance(val, (int, QQ)):
        val = ParamPoly.const(vars_, val)
    elif not isinstance(val, ParamPoly):
        raise TypeError("bad parameter image %r" % (val,))
    if not val:
        raise ValueError("parameter images must be invertible")
    if not val.is_monomial():
        raise ValueError("parameter images must be plain monomials")
    e, c, s = val.monomial_parts()
    return e, _qq(c), s


def _unit_part(p):
    """(exponents, coefficient) of the monomial unit u of a nonzero poly p
    such that p / u is monomial-free, of content 1 and with a positive
    lex-leading coefficient; the exponents are on p's lattice."""
    mins = tuple(map(min, zip(*p.terms)))
    c = _content(p.terms.values())
    return mins, (-c if p.terms[max(p.terms)] < 0 else c)


def _as_rat(vars_, v):
    if isinstance(v, ParamRat):
        return v
    if isinstance(v, ParamPoly):
        return ParamRat.from_poly(v)
    return ParamRat.from_poly(ParamPoly.const(vars_, v))


class ParamRat:
    """Fraction of two ``ParamPoly`` over the same variable tuple.

    Normalization keeps a monomial-free denominator with content 1 and a
    positive lex-leading coefficient; a monomial denominator is folded into
    the numerator (monomials are units of the Laurent ring).  Full
    multivariate gcd reduction is out of scope, so a fraction is not in a
    canonical form.  Equality compares numerators when the two normalized
    denominators are equal, and otherwise still cross-multiplies: the
    Koornwinder coefficients of one expansion have distinct denominators
    (``koornwinder._factored_step``), and a parsed or substituted value need
    not be in lowest terms.  Sums over different denominators multiply them.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den, _normalized=False):
        if _normalized:
            self.num, self.den = num, den
            self._hash = None
            return
        if den.is_zero():
            raise DenominatorVanishes("zero denominator")
        if num.is_zero():
            self.num = num
            self.den = ParamPoly.one(num.vars)
            self._hash = None
            return
        if den.is_monomial():
            e, c, s = den.monomial_parts()
            num = num.mul_monomial(tuple(-x for x in e), _qq(1, c), s)
            den = ParamPoly.one(num.vars)
        else:
            # pull the monomial unit out of the denominator
            mins, c = _unit_part(den)
            if any(mins) or c != 1:
                inv, c = tuple(-x for x in mins), _qq(1, c)
                num = num.mul_monomial(inv, c, den.scale)
                den = den.mul_monomial(inv, c, den.scale)
            if num == den:
                num = ParamPoly.one(num.vars)
                den = ParamPoly.one(num.vars)
        self.num = num
        self.den = den
        self._hash = None

    @classmethod
    def from_poly(cls, p):
        return cls(p, ParamPoly.one(p.vars), _normalized=not p.is_zero())

    @classmethod
    def zero(cls, vars_):
        return cls.from_poly(ParamPoly.zero(vars_))

    @classmethod
    def one(cls, vars_):
        return cls.from_poly(ParamPoly.one(vars_))

    @classmethod
    def const(cls, vars_, c):
        return cls.from_poly(ParamPoly.const(vars_, c))

    @property
    def vars(self):
        return self.num.vars

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_one(self):
        return self.num == self.den

    def __add__(self, other):
        other = _as_rat(self.vars, other)
        if self.den == other.den:
            return ParamRat(self.num + other.num, self.den)
        return ParamRat(self.num * other.den + other.num * self.den,
                        self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return ParamRat(-self.num, self.den, _normalized=True)

    def __sub__(self, other):
        return self + (-_as_rat(self.vars, other))

    def __mul__(self, other):
        other = _as_rat(self.vars, other)
        return ParamRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rat(self.vars, other)
        if other.num.is_zero():
            raise DenominatorVanishes("division by zero")
        return ParamRat(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        if isinstance(other, ParamPoly):
            other = ParamRat.from_poly(other)
        elif isinstance(other, (int, QQ)):
            other = ParamRat.const(self.vars, other)
        elif not isinstance(other, ParamRat):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        # hash only monomial-normalized values; general equal-by-crossmult
        # elements must not be used as dict keys.
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def substitute(self, sigma):
        """Replace the variables named in sigma by nonzero monomials (see
        ``ParamPoly.substitute``); raises DenominatorVanishes when the
        denominator's image is zero.

        Variables pinned to plain rationals (every value an ``int`` or
        ``QQ``) take the limit instead, one entry at a time (``_pin``; this
        is how q->1 limits are taken), which raises DenominatorVanishes only
        on a genuine pole.
        """
        if all(isinstance(v, (int, QQ)) for v in sigma.values()):
            out = self
            for name, v in sigma.items():
                out = out._pin(name, _qq(v))
            return out
        return ParamRat(self.num.substitute(sigma), self.den.substitute(sigma))

    def _pin(self, name, value):
        """The limit at name = value: while the denominator vanishes there,
        the numerator must too (else the pole is genuine), and both are
        replaced by their derivatives in name.  A shared factor
        (name - value)^m leaves m! on both sides, which normalizing drops."""
        num, den = self.num, self.den
        dv = den.eval_var(name, value)
        while dv.is_zero():
            if num.eval_var(name, value):
                raise DenominatorVanishes("pole at %s=%s" % (name, value))
            num, den = num.derivative(name), den.derivative(name)
            dv = den.eval_var(name, value)
        return ParamRat(num.eval_var(name, value), dv)

    def render(self):
        n = self.num.render()
        if self.den.is_one():
            return n
        d = self.den.render()
        if len(self.num.terms) > 1:
            n = "(%s)" % n
        if len(self.den.terms) > 1:
            d = "(%s)" % d
        return "%s/%s" % (n, d)

    @classmethod
    def parse(cls, vars_, text):
        """Read the text ``render`` writes: a sum of monomials, or a quotient
        of two such sums with either side in parentheses.  Raises
        ValueError (or ZeroDivisionError) on text it cannot read."""
        num, den = _split_quotient("".join(text.split()))
        num = _parse_sum(vars_, num)
        if den is None:
            return cls.from_poly(num)
        return cls(num, _parse_sum(vars_, den))

    def __repr__(self):
        return "ParamRat(%s)" % self.render()


_NUMBER = r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?(?:/\d+)?"
_POWER = r"[A-Za-z_]\w*(?:\^(?:-?\d+|\(-?\d+/[1-9]\d*\)))?"
_TERM = re.compile(r"([+-]?)((?:%s|%s)(?:\*(?:%s|%s))*)"
                   % ((_NUMBER, _POWER) * 2))


def _split_quotient(text):
    """(numerator, denominator or None): split at the top-level slash that
    does not sit between the digits of a rational constant, and drop the
    parentheses around either side, which must be parenthesised or one term,
    as ``render`` writes them: "a+1/b" is refused, not read as (a+1)/b."""
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and not depth and not (
                text[i - 1:i].isdigit() and text[i + 1:i + 2].isdigit()):
            sides = text[:i], text[i + 1:]
            if not all(_unwrap(x) != x or _TERM.fullmatch(x) for x in sides):
                raise ValueError("a side of the quotient %r is neither "
                                 "parenthesised nor one term" % text)
            return tuple(map(_unwrap, sides))
    return _unwrap(text), None


def _unwrap(text):
    return text[1:-1] if text[:1] == "(" and text[-1:] == ")" else text


def _parse_sum(vars_, text):
    """The ParamPoly whose ``render`` is text."""
    if not text:
        raise ValueError("empty coefficient text")
    out = ParamPoly.zero(vars_)
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or (pos and not m.group(1)):
            raise ValueError("cannot parse %r" % text)
        term = ParamPoly.const(vars_, -1 if m.group(1) == "-" else 1)
        for factor in m.group(2).split("*"):
            if factor[0].isdigit():
                term = term * QQ(factor)
                continue
            name, _, power = factor.partition("^")
            if not power:
                power = 1
            elif power[0] == "(":
                num, den = power[1:-1].split("/")
                power = (int(num), int(den))
            else:
                power = int(power)
            term = term * ParamPoly.variable(vars_, name, power)
        out = out + term
        pos = m.end()
    return out

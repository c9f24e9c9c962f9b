"""Laurent polynomials and rational functions in the torus variables.

A Laurent polynomial in z_1..z_n is a ``ratfield.ParamPoly`` over the names
z1..zn (``torus_vars``), whose coefficients are exact ring elements (usually
``ParamPoly`` / ``ParamRat``, rationals in numeric mode).  Its integer
``scale`` puts half-integer (spin) weights on scale 2 with exact integer
arithmetic.

Rational functions of the torus variables are kept with their denominators in
factored form (``LaurentRat``): the only denominators produced by the
difference operators are products of known binomials, so exact division needs
no multivariate gcd.  A sum of products of such fractions is given as lifts,
(numerator, factors) pairs over one factored denominator (``common_lifts``).
It has one strict division, ``exact_divide``, and one trial division,
``cancel_sum``, which divides each factor out as often as it divides (one
step of the Koornwinder solve, and ``apply`` on fractional coefficients).
Both form the sum on the packing of their own division (``_packed_sum``,
exponents packed into single ints by ``ratfield._packing``): the products
run on packed terms, are summed there, and each binomial is divided out of
the packed sum (``_divide_packed``, and the trials of ``_trial_divide``)
with the coefficients as they are (integral rationals are ints, so rational
data mostly divide in integer arithmetic); the quotient is unpacked once.
``split_binomials`` tries its candidates on one packing the same way, and
``sparse_divide``, the division by a cofactor, packs both of its operands.
A signed sum whose operands overlap, so that packing each would cost more
than the sum, stays on exponent tuples (``_grouped_sum``, each term lifted
to the union by ``lift_to``).

A trial that cannot succeed costs a few dict lookups: before it walks the
whole numerator, ``_trial_divide`` reads the line through one term along
the binomial (``_line_vanishes``).  z^eL + cS z^eS divides only if every
such line's one-variable polynomial vanishes at -cS, so a line that does
not, or that holds one term, ends the trials of that binomial.  This is a
necessary condition only: a trial that passes it still divides exactly, so
no quotient changes.

The operator engine works on flat polys, whose exponent tuples hold the torus
exponents followed by the parameter exponents (``flatten``, ``unflatten``); a
q-shift of a torus variable is then an exponent shift on the qh slot
(``flat_shift``).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, isqrt

from .errors import NotDivisible
from .ratfield import (QQ, ParamPoly, _common, _lifted, _packed_product,
                       _packing, _product, _qq, _top, _unit_part, _unpacked)


def torus_vars(n):
    """The names z1..zn of the torus variables of a ``ParamPoly``."""
    return tuple("z%d" % i for i in range(1, n + 1))


# ---------------------------------------------------------------------------
# canonical binomial factors and exact division


def canonical_binomial(vars_, t1, t2, scale=1):
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
        trail = c2.mul_monomial(inv_exp, _qq(1, cu), su)
    else:
        one = 1
        trail = _qq(c2, c1)
    binom = ParamPoly(vars_, {e1: one, e2: trail}, scale)
    # keyed on the binomial's own lattice, so that equal binomials built on
    # different lattices get one key
    f = scale // binom.scale
    key = (binom.scale, tuple(x // f for x in e1), tuple(x // f for x in e2),
           trail)
    return key, binom, m, c1, scale


def exact_divide(lifts, den):
    """The sum over (num, factors) of ``lifts`` of num times every poly of
    factors, divided by the factored denominator den (``LaurentRat.den``),
    its canonical binomials taken in key order.

    The quotient must be exact; a nonzero remainder raises NotDivisible,
    which inside operator application signals a violated pole-cancellation
    claim (an implementation bug, never expected input).

    The sum is formed on the packing of the division (``_packed_sum``),
    every binomial is divided out in turn on its packed terms, whatever
    their coefficient ring, and the quotient is unpacked once at the end.
    """
    s, unpack, quo, steps, _ = _packed_sum(
        lifts, [b for _, (b, m) in sorted(den.items()) for _ in range(m)])

    def where(u):
        return _exponent_text(unpack(u), s)

    for step in steps:
        quo = _divide_packed(quo, *step, where)
    return _unpacked(lifts[0][0].vars, quo, unpack, s)


def _packed_sum(lifts, binoms, unit=None):
    """The sum over (num, factors) of ``lifts`` of num times every poly of
    factors, over the monomial ``unit`` when one is given, on one lattice
    and one packing that also serve its division by the canonical
    binomials ``binoms``: returns (scale, unpack, packed terms, steps,
    top), steps as ``_chain_packing`` gives them and top a bound on the
    absolute exponents of the sum's terms.

    No product exponent exceeds the sum of its operands' largest absolute
    exponents, and no quotient leaves the sum's box, so those sums, plus
    the unit's, size the fields.  The products run on packed terms
    (``ratfield._packed_product``) and are summed there.  A product keeps
    a first product that vanishes, so the coefficients of a lift with
    factors must lie in a ring without zero divisors, as rationals do."""
    n = lifts[0][0].n
    lifts = [(num, fs) for num, fs in lifts if num and all(fs)]
    s = 1 if unit is None else unit.scale
    for p in [q for num, fs in lifts for q in [num] + fs] + binoms:
        s = s * p.scale // gcd(s, p.scale)
    lifts = [(_lifted(num, s), [_lifted(f, s) for f in fs])
             for num, fs in lifts]
    top = max((_top(t, n) + sum(_top(f, n) for f in fs) for t, fs in lifts),
              default=0)
    if unit is not None:
        ue, uc, us = unit.monomial_parts()
        ue = tuple(x * (s // us) for x in ue)
        top += max(map(abs, ue))
    zero, pack, unpack, steps = _chain_packing(n, top, binoms, s)
    total = {}
    for t, fs in lifts:
        prod = _packed_product({pack(e): c for e, c in t.items()},
                               [[(pack(e) - zero, c) for e, c in f.items()]
                                for f in fs])
        if not total:
            total = prod
            continue
        for u, c in prod.items():
            v = total.get(u)
            if v is None:
                total[u] = c
            else:
                v = v + c
                if v:
                    total[u] = v
                else:
                    del total[u]
    if unit is not None:
        shift = pack(ue) - zero
        inv = _qq(1, uc)
        total = {u - shift: c * inv for u, c in total.items()}
    return s, unpack, total, steps, top


def _chain_packing(n, top, binoms, s):
    """A packing for numerators on lattice s whose absolute exponents are
    at most top, and the steps of dividing them by the canonical binomials
    z^eL + cS z^eS of ``binoms``: returns (zero, pack, unpack, steps), a
    step being the arguments of ``_divide_packed`` after the terms and
    before ``where``.

    With d = eL - eS and i0 its first nonzero entry, the fields hold every
    exponent a quotient meets (it lies in the numerator's box), every line
    key e - (e[i0] // d[i0]) * d of a point e of the box, and every point
    e + j * d that the line probe (``_line_vanishes``) reads, those with
    e[i0] + j * d[i0] in [-top, top], so |j| <= 2 * top // d[i0]."""
    bound = top
    raw = []
    for b in binoms:
        bt = _lifted(b, s)
        eL, eS = sorted(bt, reverse=True)
        d = tuple(x - y for x, y in zip(eL, eS))
        i0 = next(i for i, x in enumerate(d) if x)
        raw.append((eL, d, i0, bt[eS]))
        bound = max(bound, top + (2 * top // d[i0] + 3) * max(map(abs, d)))
    width, zero, pack, unpack = _packing(n, bound)
    steps = [(cS, pack(d) - zero, pack(eL) - zero, d[i0],
              width * (n - 1 - i0), width) for eL, d, i0, cS in raw]
    return zero, pack, unpack, steps


def _exponent_text(e, scale):
    """An exponent tuple stored on lattice ``scale``, written as a tuple of
    its exact values: the same text on every lattice."""
    parts = [str(QQ(x, scale)) for x in e]
    return "(%s)" % (parts[0] + "," if len(parts) == 1 else ", ".join(parts))


def _divide_packed(terms, cS, D, EL, di, shift, width, where):
    """Quotient of a packed term dict by z^eL + cS z^eS: D = eL - eS and EL
    = eL packed without offset, di > 0 the first nonzero entry of eL - eS,
    at bit ``shift`` of a packed exponent.

    Splits the support into lines parallel to eL - eS, keyed by the point
    e - k*(eL - eS) with k = e[i0] // di; along each line, with f_k the
    coefficient at key + k*D, the relation f = q * binom is the two-term
    recurrence q_k = f_k - cS*q_(k+1), solved top-down, with one leftover
    equation f_kmin = cS*q_(kmin+1) per line deciding exact divisibility.
    q_k sits at key + k*D - EL.  The walk visits only the terms of f: across
    an empty stretch of g exponents below a nonzero q_k it carries
    q_k (-cS)^(g+1) in one step, and writes the stretch out only once the
    line's closing equation holds, so an exact quotient costs the terms of
    f and of q and a line that does not divide costs the terms of f alone.
    A failing line is named by ``where`` of its lowest point.
    """
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    lines = {}
    get = lines.get
    for u, c in terms.items():
        k = (((u >> shift) & mask) - half) // di
        key = u - k * D
        line = get(key)
        if line is None:
            lines[key] = {k: c}
        else:
            line[k] = c
    negc = -cS
    powers = {}
    quo = {}
    # the empty stretches of the current line below a nonzero q_k:
    # (q_k, its packed exponent, their length g); they hold
    # q_(k-j) = q_k (-cS)^j for 0 < j <= g
    gaps = []
    for key, line in lines.items():
        ks = sorted(line)
        base = key - EL
        i = len(ks) - 1
        k = ks[i]
        carry = None
        while i:
            i -= 1
            below = ks[i]
            val = line[k] if carry is None else line[k] + carry
            if val:
                e = base + k * D
                quo[e] = val
                g = k - below - 1
                if g:
                    gaps.append((val, e, g))
                    step = powers.get(g + 1)
                    if step is None:
                        step = powers[g + 1] = negc ** (g + 1)
                    carry = val * step
                else:
                    carry = val * negc
            else:
                carry = None
            k = below
        if line[k] if carry is None else line[k] + carry:
            raise NotDivisible("line through z^%s" % where(key + k * D))
        if gaps:
            for val, e, g in gaps:
                for _ in range(g):
                    val = val * negc
                    e -= D
                    quo[e] = val
            gaps.clear()
    return quo


def _trial_divide(terms, steps, limits, top):
    """Divide the packed terms of a nonzero numerator, whose absolute
    exponents are at most top, by each binomial of ``steps``
    (``_chain_packing``) in turn, as often as it divides and at most
    ``limits[i]`` times (None: no limit): returns (packed quotient, [times
    each binomial divided]).

    Each trial first probes one line (``_line_vanishes``), a necessary
    condition that costs a lookup per point of the line; only a trial that
    passes it walks the whole numerator (``_divide_packed``), so a probe
    changes no quotient, only the cost of a binomial that does not
    divide."""
    counts = []
    for step, limit in zip(steps, limits):
        k = 0
        while k != limit and len(terms) > 1 and _line_vanishes(terms, step,
                                                                top):
            try:
                # a failed trial is no error: name its line by the packed int
                terms = _divide_packed(terms, *step, str)
            except NotDivisible:
                break
            k += 1
        counts.append(k)
    return terms, counts


def _line_vanishes(terms, step, top):
    """Whether the line through one term u of ``terms`` along the binomial
    z^eL + cS z^eS of ``step`` holds more than one term and its
    coefficients f_j, at the points u + j * (eL - eS), make
    g(w) = sum f_j w^j vanish at w = -cS.

    z^eL + cS z^eS divides a Laurent polynomial exactly when (w + cS)
    divides g on every line, and then g(-cS) = 0 (in any commutative ring:
    Horner's rule below evaluates w^(-jmin) g).  A line of one term is
    refused by ``_divide_packed`` too.  So this is a necessary condition
    only.  The points read are those whose entry i0, the first nonzero
    entry of eL - eS, lies in [-top, top]: one dict lookup per point of
    the line inside the numerator's box, which holds every term of the
    line.  ``_chain_packing`` keeps every one of them inside the packing's
    fields."""
    cS, D, _, di, shift, width = step
    u = next(iter(terms))
    e = ((u >> shift) & ((1 << width) - 1)) - (1 << (width - 1))
    w = -cS
    val = 0
    seen = 0
    get = terms.get
    v = u + ((top - e) // di) * D
    lo = u - ((top + e) // di) * D
    while v >= lo:
        val = val * w
        c = get(v)
        if c is not None:
            val = val + c
            seen += 1
        v -= D
    return seen > 1 and not val


def sparse_divide(numer, denom):
    """The exact quotient numer / denom of two polys over one tuple of
    names with rational coefficients; NotDivisible when denom does not
    divide numer.  An integral quotient coefficient is an int.

    Sparse division on packed exponents with a heap of the remainder's
    exponents (Monagan & Pearce, "Sparse polynomial division using a heap",
    J. Symbolic Comput. 46, 2011): the remainder's lex-leading term over
    denom's gives the next quotient term, highest first.  Every exponent
    vector of a Laurent ring is a unit, so the stop is a box: in each
    variable the degree range of a product is the sum of its factors', so
    every quotient exponent lies in numer's range less denom's, and a
    quotient term outside that box shows that denom does not divide.  Every
    remainder exponent then stays in numer's box."""
    if numer.is_zero():
        return numer
    s, a, b = _common(numer, denom)
    alo, ahi = [list(map(f, zip(*a))) for f in (min, max)]
    blo, bhi = [list(map(f, zip(*b))) for f in (min, max)]
    qlo = [x - y for x, y in zip(alo, blo)]
    qhi = [x - y for x, y in zip(ahi, bhi)]
    bound = max(max(ahi), -min(alo)) + max(max(bhi), -min(blo))
    _, zero, pack, unpack = _packing(numer.n, bound)
    (eL, lc), *rest = sorted(b.items(), reverse=True)
    L = pack(eL) - zero
    rest = [(pack(e) - zero, -c) for e, c in rest]
    rem = {pack(e): c for e, c in a.items()}
    heap = [-u for u in rem]
    heapify(heap)
    quo = {}
    while heap:
        u = -heappop(heap)
        c = rem.pop(u, None)
        if c is None:
            continue        # cancelled, or pushed twice
        t = u - L
        e = unpack(t)
        if not all(x <= y <= z for x, y, z in zip(qlo, e, qhi)):
            raise NotDivisible("quotient term z^%s outside the degree box"
                               % _exponent_text(e, s))
        q = quo[t] = _qq(c, lc)
        for v, negc in rest:
            w = t + v
            old = rem.get(w)
            if old is None:
                rem[w] = q * negc
                heappush(heap, -w)
            else:
                old = old + q * negc
                if old:
                    rem[w] = old
                else:
                    del rem[w]
    return _unpacked(numer.vars, quo, unpack, s)


def split_binomials(p):
    """Split a nonzero poly into binomial factors z^d - 1 and z^d + 1 and
    one cofactor: returns (unit, factors), p being the monomial ``unit``
    times the product of b^m over (b, m) in ``factors.values()``.

    ``factors`` is a factored denominator (``LaurentRat.den``): each
    binomial keyed by ``canonical_binomial``, and the cofactor, unless it is
    a monomial, by itself (monomial-free, content 1, positive lex-leading
    coefficient).  z^d - c divides p only if some line along d holds two
    terms of p, so the candidates d are the pairwise differences of p's
    exponents and their integer divisors.  They are tried smallest first on
    one packed copy of p (``_trial_divide``), so z^(2d) - 1 comes out as
    (z^d - 1)(z^d + 1), each as often as it divides."""
    zero = (0,) * p.n
    cands = set()
    exps = list(p.terms)
    for i, a in enumerate(exps):
        for b in exps[:i]:
            v = tuple(x - y for x, y in zip(a, b))
            if v < zero:
                v = tuple(-x for x in v)
            g = gcd(*v)
            for k in range(1, isqrt(g) + 1):
                if not g % k:
                    cands.add(tuple(x // k for x in v))
                    cands.add(tuple(x * k // g for x in v))
    binoms = []
    for d in sorted(cands, key=lambda d: (sum(map(abs, d)), d)):
        # on the coarsest lattice holding d, so that equal binomials get
        # equal keys
        h = gcd(p.scale, *d)
        d = tuple(x // h for x in d)
        for c in (-1, 1):
            binoms.append(canonical_binomial(p.vars, (d, 1), (zero, c),
                                             p.scale // h)[:2])
    s, unpack, terms, steps, top = _packed_sum([(p, [])],
                                               [b for _, b in binoms])
    terms, counts = _trial_divide(terms, steps, [None] * len(binoms), top)
    quo = _unpacked(p.vars, terms, unpack, s)
    factors = {key: (b, k) for (key, b), k in zip(binoms, counts) if k}
    if len(quo) == 1:
        return quo, factors
    m, c = _unit_part(quo)
    unit = ParamPoly.monomial(p.vars, m, c, quo.scale)
    quo = over_unit(quo, unit)
    factors[quo] = (quo, 1)
    return unit, factors


def over_unit(num, unit):
    """num divided by the monomial ``unit``."""
    e, c, s = unit.monomial_parts()
    return num.mul_monomial(tuple(-x for x in e), _qq(1, c), s)


def merge_max(den, extra):
    """Raise den in place to the least common multiple of den and extra."""
    for k, (b, m) in extra.items():
        if k in den:
            den[k] = (b, max(den[k][1], m))
        else:
            den[k] = (b, m)


def lift_to(num, own, union):
    """Rewrite num/own over the larger denominator union: num times every
    factor own is missing, on one packed copy of num
    (``ratfield._product``)."""
    return _product(num, missing_factors(own, union))


def missing_factors(own, union):
    """The factors of the denominator union that own lacks, each repeated
    as often as it is missing."""
    out = []
    for k, (b, m) in union.items():
        out += [b] * (m - (own[k][1] if k in own else 0))
    return out


def common_lifts(terms):
    """A sum of products of factored fractions as the input of
    ``exact_divide`` and ``cancel_sum``: ``terms`` is a list of (LaurentRat,
    factors); returns (union, lifts), union the least common multiple of
    their denominators and each lift (num, factors and every factor of
    union its denominator lacks)."""
    union = {}
    for t, _ in terms:
        merge_max(union, t.den)
    return union, [(t.num, fs + missing_factors(t.den, union))
                   for t, fs in terms]


def cancel_sum(lifts, unit, den):
    """The sum over (num, factors) of ``lifts`` of num times every poly of
    factors, over the monomial ``unit`` times the factored denominator den,
    in lower terms: returns (quotient, the factors left), each factor of
    den divided out as often as it divides and its multiplicity allows, or
    None when the sum is 0.

    The sum, over the unit, is formed on the packing of the binomials'
    trials (``_packed_sum``); the binomials of den are tried in key order
    on its packed terms (``_trial_divide``), and the quotient is unpacked
    once, before each cofactor's ``sparse_divide``."""
    keys = [k for k in den if isinstance(k, tuple)]
    s, unpack, terms, steps, top = _packed_sum(
        lifts, [den[k][0] for k in keys], unit)
    if not terms:
        return None
    terms, counts = _trial_divide(terms, steps, [den[k][1] for k in keys],
                                  top)
    num = _unpacked(unit.vars, terms, unpack, s)
    left = {k: (den[k][0], den[k][1] - c)
            for k, c in zip(keys, counts) if den[k][1] > c}
    for k, (f, m) in den.items():
        if isinstance(k, tuple):
            continue
        while m:
            try:
                num = sparse_divide(num, f)
            except NotDivisible:
                break
            m -= 1
        if m:
            left[k] = (f, m)
    return num, left


def _grouped_sum(signed):
    """Sum a list of (key, sign, LaurentRat) terms by key over the union of
    their denominators: returns (union, {key: numerator}), each term lifted
    to the union (``lift_to``) and added to its key's numerator in list
    order."""
    union = {}
    for _, _, t in signed:
        merge_max(union, t.den)
    sums = {}
    for key, sign, t in signed:
        num = lift_to(t.num, t.den, union)
        if sign < 0:
            num = -num
        sums[key] = sums[key] + num if key in sums else num
    return union, sums


def _clear_coeffs(coeffs):
    """Clear a dict of ParamPoly / ParamRat values over one denominator:
    returns (union, {key: ParamPoly numerator}) as ``_grouped_sum`` does,
    each value being its numerator over the product of the union's factors.
    Each denominator is split into binomials and a cofactor
    (``split_binomials``, once per distinct denominator) and its unit moved
    to the numerator, so the union is the least common multiple of the
    factored denominators."""
    signed = []
    splits = {}
    for key, c in coeffs.items():
        if isinstance(c, ParamPoly):
            rat = LaurentRat(c)
        elif c.den.is_one():
            rat = LaurentRat(c.num)
        else:
            split = splits.get(c.den)
            if split is None:
                split = splits[c.den] = split_binomials(c.den)
            unit, factors = split
            rat = LaurentRat(over_unit(c.num, unit), factors)
        signed.append((key, 1, rat))
    return _grouped_sum(signed)


class LaurentRat:
    """Rational function with a factored denominator.

    den maps a canonical-binomial key to (binom, multiplicity).  Numerator
    units absorbed during canonicalization keep the denominator entries
    monic, so division never needs coefficient inverses.  A fraction of
    parameter polys (``_clear_coeffs``, the Koornwinder solve) keys its
    binomial factors the same way and a cofactor by itself
    (``split_binomials``).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = num
        self.den = den or {}

    def __mul__(self, other):
        den = dict(self.den)
        for k, (b, m) in other.den.items():
            if k in den:
                den[k] = (b, den[k][1] + m)
            else:
                den[k] = (b, m)
        return LaurentRat(self.num * other.num, den)

    def with_binomial_factor(self, t1, t2, scale=1):
        """Multiply by 1/(c1 z^e1 + c2 z^e2), keeping the den factored; the
        numerator and both binomial coefficients are rational."""
        key, binom, m, cu, su = canonical_binomial(self.num.vars, t1, t2,
                                                   scale)
        num = self.num.scalar_mul(_qq(1, cu))
        num = num.mul_monomial(tuple(-x for x in m), 1, su)
        den = dict(self.den)
        if key in den:
            den[key] = (binom, den[key][1] + 1)
        else:
            den[key] = (binom, 1)
        return LaurentRat(num, den)


# ---------------------------------------------------------------------------
# flat form: torus exponents and parameter exponents in one tuple, rational
# coefficients.  The operator engine works here; the layered form with
# ParamPoly coefficients is the public surface.


def flatten(f, pvars):
    """Torus poly with ParamPoly coefficients over pvars -> flat poly over
    the torus variables followed by pvars."""
    scale = f.scale
    for c in f.terms.values():
        scale = scale * c.scale // gcd(scale, c.scale)
    out = {}
    fz = scale // f.scale
    for e, c in f.terms.items():
        base = tuple(x * fz for x in e)
        for pe, q in _lifted(c, scale).items():
            out[base + pe] = q
    return ParamPoly._of(f.vars + pvars, out, scale)


def unflatten(flat, n):
    """Flat poly -> torus poly over its first n variables, with ParamPoly
    coefficients over the rest."""
    tvars, pvars = flat.vars[:n], flat.vars[n:]
    split = {}
    for e, q in flat.terms.items():
        split.setdefault(e[:n], {})[e[n:]] = q
    terms = {te: ParamPoly._of(pvars, pt, flat.scale)
             for te, pt in split.items()}
    return ParamPoly._of(tvars, terms, flat.scale)


def flat_shift(f, steps, qh_slot):
    """Translate z_j by steps[j] half-steps on a flat poly.

    z_j^m picks up qh^(steps[j]*m); in flat form that is a pure exponent
    shift on the qh slot, exact on any lattice.  A full translation step
    (z_j -> q z_j) is 2 half-steps; the spin operators use +-1.
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
    return ParamPoly._of(f.vars, out, f.scale)

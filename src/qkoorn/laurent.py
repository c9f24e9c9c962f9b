"""Laurent polynomials and rational functions in the torus variables.

A Laurent polynomial in z_1..z_n is a ``ratfield.ParamPoly`` over the names
z1..zn (``torus_vars``), whose coefficients are exact ring elements (usually
``ParamPoly`` / ``ParamRat``, rationals in numeric mode).  Its integer
``scale`` puts half-integer (spin) weights on scale 2 with exact integer
arithmetic.

Rational functions of the torus variables are kept with their denominators in
factored form (``LaurentRat``): the only denominators produced by the
difference operators are products of known binomials, so exact division needs
no multivariate gcd.  A signed sum of such fractions is ``_grouped_sum`` and
the division of its numerator is ``divide_factors``, one function each.

Exponents are packed into single ints (``ratfield._packing``) wherever a
numerator meets a chain of factors.  ``lift_to`` packs a numerator once,
multiplies in every factor it is missing on the packed terms
(``ratfield._product``) and unpacks once.  ``exact_divide`` and the trial
divisions (``_trial_divide``) lift the numerator to the chain's lattice and
pack it once (``_packed_chain``); each binomial is then divided out on those
packed terms, with the coefficients as they are (integral rationals are
ints, so rational data mostly divide in integer arithmetic), and the
quotient is unpacked once at the end.  ``sparse_divide`` packs both of its
operands.

The operator engine works on flat polys, whose exponent tuples hold the torus
exponents followed by the parameter exponents (``flatten``, ``unflatten``); a
q-shift of a torus variable is then an exponent shift on the qh slot
(``flat_shift``).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, isqrt

from .errors import NotDivisible
from .ratfield import (QQ, ParamPoly, _common, _lifted, _packing, _product,
                       _qq, _top, _unit_part)


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


def divide_binomial(f, binom):
    """Exact division of f by a canonical binomial: ``exact_divide`` on a
    chain of one.  Raises NotDivisible."""
    return exact_divide(f, ((binom, 1),))


def exact_divide(numer, denom_factors):
    """Divide by a factored denominator: iterable of (binom, multiplicity),
    each binom canonical (see ``canonical_binomial``).

    The quotient must be exact; a nonzero remainder raises NotDivisible,
    which inside operator application signals a violated pole-cancellation
    claim (an implementation bug, never expected input).

    The numerator is converted once for the whole chain (``_packed_chain``)
    and every binomial is divided out in turn on the packed terms, whatever
    their coefficient ring; the quotient is unpacked once at the end.
    """
    chain = [b for b, mult in denom_factors for _ in range(mult)]
    if not chain or numer.is_zero():
        return numer
    s, unpack, quo, steps = _packed_chain(numer, chain)

    def where(u):
        return _exponent_text(unpack(u), s)

    for step in steps:
        quo = _divide_packed(quo, *step, where)
    return ParamPoly._of(numer.vars, {unpack(u): c for u, c in quo.items()}, s)


def _packed_chain(numer, binoms):
    """Put a nonzero numerator and canonical binomials on one lattice and
    one packing: returns (scale, unpack, packed terms of numer, steps), a
    step being the arguments of ``_divide_packed`` after the terms and
    before ``where``, one per binomial.

    The numerator is lifted to the lattice of every binomial and each
    exponent tuple packed into one int (``_packing``), wide enough for
    every exponent and line key that dividing by the binomials in any
    order and number meets."""
    s = numer.scale
    for b in binoms:
        s = s * b.scale // gcd(s, b.scale)
    terms = _lifted(numer, s)
    raw = []
    for b in binoms:
        bt = _lifted(b, s)
        eL, eS = sorted(bt, reverse=True)
        d = tuple(x - y for x, y in zip(eL, eS))
        raw.append((eL, d, next(i for i, x in enumerate(d) if x), bt[eS]))
    # every exponent a quotient meets lies in the numerator's box, and the
    # line key e - (e[i0] // d[i0]) * d of a point e within ``bound``
    top = _top(terms, numer.n)
    bound = top
    for _, d, i0, _ in raw:
        bound = max(bound, top + (top // d[i0] + 1) * max(map(abs, d)))
    n = numer.n
    width, zero, pack, unpack = _packing(n, bound)
    steps = [(cS, pack(d) - zero, pack(eL) - zero, d[i0],
              width * (n - 1 - i0), width) for eL, d, i0, cS in raw]
    return s, unpack, {pack(e): c for e, c in terms.items()}, steps


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


def _trial_divide(numer, binoms, limits):
    """Divide a nonzero numer by each canonical binomial of ``binoms`` in
    turn, as often as it divides and at most ``limits[i]`` times (None: no
    limit), on one packed copy (``_packed_chain``): returns (quotient,
    [times each binomial divided])."""
    s, unpack, quo, steps = _packed_chain(numer, binoms)
    counts = []
    for step, limit in zip(steps, limits):
        k = 0
        while k != limit and len(quo) > 1:
            try:
                # a failed trial is no error: name its line by the packed int
                quo = _divide_packed(quo, *step, str)
            except NotDivisible:
                break
            k += 1
        counts.append(k)
    return ParamPoly._of(numer.vars, {unpack(u): c for u, c in quo.items()},
                         s), counts


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
    return ParamPoly._of(numer.vars, {unpack(t): c for t, c in quo.items()},
                         s)


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
    quo, counts = _trial_divide(p, [b for _, b in binoms],
                                [None] * len(binoms))
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


def cancel_factors(num, den):
    """num over the factored denominator den in lower terms: returns
    (quotient, the factors left), each factor divided out of num as often as
    it divides and its multiplicity allows.  The binomials are tried on one
    packed copy of num (``_trial_divide``), a cofactor keyed by itself by
    ``sparse_divide``."""
    if num.is_zero():
        return num, {}
    left = {}
    keys = [k for k in den if isinstance(k, tuple)]
    if keys:
        num, counts = _trial_divide(num, [den[k][0] for k in keys],
                                    [den[k][1] for k in keys])
        for k, c in zip(keys, counts):
            b, m = den[k]
            if m > c:
                left[k] = (b, m - c)
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


# A factored denominator is a dict mapping canonical-binomial keys to
# (binom, multiplicity).  ``merge_max`` and ``lift_to`` put two fractions over
# one denominator, ``_grouped_sum`` is the one signed sum and
# ``divide_factors`` the one division.  The sum merges pairwise and balanced:
# a partial sum is lifted only to the union of its two halves.  Lifting every
# term serially to the union of all terms multiplies each numerator by every
# factor the others bring; when W and the nucleus sums were still sums over
# chains of index sets, summing them that way took
# test_form_equivalence_small from 20.8 to 36.4 s and
# test_W_reduction_at_trivial_internal_coupling from 11.2 to 19.4 s (one run
# each, on a shared 2-CPU machine).


def merge_max(den, extra):
    """Raise den in place to the least common multiple of den and extra."""
    for k, (b, m) in extra.items():
        if k in den:
            den[k] = (b, max(den[k][1], m))
        else:
            den[k] = (b, m)


def lift_to(num, own, union, first=None):
    """Rewrite num/own over the larger denominator union: num times
    ``first``, when given, and every factor own is missing, on one packed
    copy of num (``ratfield._product``)."""
    factors = [] if first is None else [first]
    for k, (b, m) in union.items():
        have = own[k][1] if k in own else 0
        factors += [b] * (m - have)
    return _product(num, factors)


def _grouped_sum(signed):
    """Sum a list of (key, sign, LaurentRat) terms by key over the union of
    their denominators: returns (union, {key: numerator}).

    Each key's terms are summed by balanced pairwise merging (neighbours in
    list order, an odd last term carried up a level), and the key sums are
    then lifted to the union of their denominators.  The union and the
    numerators are those of lifting every term to the union of all terms
    and adding them in list order."""
    groups = {}
    for key, sign, t in signed:
        groups.setdefault(key, []).append(
            t if sign > 0 else LaurentRat(-t.num, t.den))
    sums = {}
    union = {}
    for key, items in groups.items():
        while len(items) > 1:
            pairs = [items[i] + items[i + 1]
                     for i in range(0, len(items) - 1, 2)]
            items = pairs + items[2 * len(pairs):]
        sums[key] = items[0]
        merge_max(union, items[0].den)
    return union, {key: lift_to(t.num, t.den, union)
                   for key, t in sums.items()}


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


def divide_factors(num, den):
    """Exact division by a factored denominator, factors in key order."""
    return exact_divide(num, (bm for _, bm in sorted(den.items())))


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

    def mul_poly(self, p):
        return LaurentRat(self.num * p, dict(self.den))

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

    def __add__(self, other):
        den = dict(self.den)
        merge_max(den, other.den)
        return LaurentRat(lift_to(self.num, self.den, den)
                          + lift_to(other.num, other.den, den), den)


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

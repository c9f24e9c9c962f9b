"""Algebraic laws of the sparse-term kernels on random inputs.

Products and sums of ``ParamPoly`` over parameter and torus names against a
Fraction reference, the packed product against the tuple-keyed product on
every field width and on any coefficient ring, the packed lift chain against
one product per factor, exact division by chains of canonical binomials, the
exact division of a sum of products against the division of its sum and
against the trial division where every factor divides, the general sparse
exact division, the split of a poly into binomials z^d -+ 1 and one
cofactor, canonical binomials under a signed permutation of the torus
variables, the grouped signed sum of factored fractions against the serial
sum over one union, the q-shift of a flat poly, the coefficient parser
against the renderer, parameter substitution by monomial images against
multiplication and evaluation, the pin of one variable against cancelling a
shared factor by hand, and the one representation of a rational coefficient:
an int when integral, a Fraction otherwise; the numeric route's
specialisation at a rational point and its constant-term pairing against
their term-by-term Fraction forms.
"""

from fractions import Fraction
from math import gcd
from operator import itemgetter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qkoorn.errors import DenominatorVanishes, NotDivisible
from qkoorn.laurent import (LaurentRat, _grouped_sum, canonical_binomial,
                            cancel_sum, exact_divide, flat_shift, lift_to,
                            merge_max, over_unit, sparse_divide,
                            split_binomials, torus_vars)
from qkoorn.operators import _mapped
from qkoorn.ratfield import KOORN_VARS, QQ, ParamPoly, ParamRat
from qkoorn.weightfn import (DEFAULT_POINT, NumericPoint, QuadExt,
                             WeightFunctionSpec, delta_truncate,
                             inner_product)

LAWS = settings(derandomize=True, database=None, deadline=None,
                max_examples=40)
KINDS = ("int", "frac", "mixed")
VARS = ("x", "y", "w")

_ints = st.integers(-10 ** 25, 10 ** 25).filter(bool)
_fracs = st.builds(QQ, st.integers(-60, 60).filter(bool),
                   st.sampled_from([2, 3, 12, 2 ** 67])).filter(
    lambda c: c.denominator != 1)


def coeffs(kind):
    """Nonzero rationals; integral ones come as an int or as a QQ."""
    ints = st.one_of(_ints, _ints.map(QQ))
    return {"int": ints, "frac": _fracs,
            "mixed": st.one_of(ints, _fracs)}[kind]


def term_dicts(n, kind, span=3, size=5):
    exps = st.tuples(*[st.integers(-span, span)] * n)
    return st.dictionaries(exps, coeffs(kind), max_size=size)


@st.composite
def operands(draw, nops=2):
    """(n, all integral, [(terms, scale)] * nops) on lattices 1, 2, 3."""
    n = draw(st.integers(1, 3))
    kinds = [draw(st.sampled_from(KINDS)) for _ in range(nops)]
    ops = [(draw(term_dicts(n, k)), draw(st.sampled_from([1, 2, 3])))
           for k in kinds]
    return n, all(k == "int" for k in kinds), ops


def exact(terms, scale):
    """A term dict with exponents as exact values and Fraction
    coefficients."""
    out = {}
    for e, c in terms.items():
        key = tuple(QQ(x, scale) for x in e)
        out[key] = out.get(key, Fraction(0)) + Fraction(c)
    return {e: c for e, c in out.items() if c}


def reference(op, a, b):
    a, b = exact(*a), exact(*b)
    if op == "add":
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, Fraction(0)) + c
    else:
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def integral(poly):
    return all(Fraction(c).denominator == 1 for c in poly.terms.values())


def check_representation(poly, ints_in):
    """Every coefficient is an int or a Fraction, and an int when every
    input coefficient was an integer."""
    types = {type(c) for c in poly.terms.values()}
    assert types <= ({int} if ints_in else {int, QQ})


def check_canonical(poly):
    """A public constructor writes every integral coefficient as an int."""
    for c in poly.terms.values():
        assert type(c) is int or (type(c) is QQ and c.denominator != 1)


def build(names, n, terms, scale):
    """A poly over parameter names (``ParamPoly``) or torus names."""
    if names == "ParamPoly":
        return ParamPoly(VARS[:n], terms, scale)
    return ParamPoly(torus_vars(n), terms, scale)


@pytest.mark.parametrize("names", ["ParamPoly", "torus"])
@pytest.mark.parametrize("op", ["add", "mul"])
@LAWS
@given(data=operands())
def test_add_and_mul_match_fraction_reference(names, op, data):
    n, ints_in, (a, b) = data
    pa, pb = build(names, n, *a), build(names, n, *b)
    check_canonical(pa)
    check_canonical(pb)
    got = pa + pb if op == "add" else pa * pb
    assert exact(got.terms, got.scale) == reference(op, a, b)
    check_representation(got, ints_in)
    if op == "mul":
        # an integral product is an int, whatever its factors were
        check_canonical(got)


def tuple_product(p, q):
    """The product keyed on exponent tuples, one term pair at a time, on the
    lattice holding both operands: the reference of the packed product,
    over any coefficient ring."""
    s = p.scale * q.scale // gcd(p.scale, q.scale)
    fp, fq = s // p.scale, s // q.scale
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(x * fp + y * fq for x, y in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return ParamPoly(p.vars, out, s)


def same(got, want):
    assert (got.vars, got.scale, got.terms) == \
        (want.vars, want.scale, want.terms)


# the largest absolute exponent of each operand: products that need the
# next field width (1 byte up to 127, then 2, 4, 8 bytes, and shifts and
# masks past 2^63), and operands that need it by themselves
TOPS = (100, 200, 2 ** 15 - 1, 2 ** 15 + 1, 2 ** 31 - 1, 2 ** 31 + 1,
        2 ** 63 - 1, 2 ** 63 + 1)


def wide_terms(n, top, ring):
    edge = st.sampled_from([top, -top, top - 1, 1 - top, 0, 1, -1])
    exps = st.tuples(*[st.one_of(edge, st.integers(-top, top))] * n)
    return st.dictionaries(exps, ring, min_size=1, max_size=5)


@pytest.mark.parametrize("top", TOPS)
@LAWS
@given(data=st.data())
def test_packed_product_matches_tuple_product(top, data):
    n = data.draw(st.integers(1, 3))
    a, b = (ParamPoly(VARS[:n], data.draw(wide_terms(n, top,
                                                     coeffs("mixed"))),
                      data.draw(st.sampled_from([1, 2, 3])))
            for _ in range(2))
    same(a * b, tuple_product(a, b))
    same(b * a, tuple_product(a, b))


def test_packed_product_on_lattices_two_and_three():
    a = ParamPoly(VARS[:2], {(2 ** 40, -1): 3, (-5, 7): QQ(1, 2)}, 2)
    b = ParamPoly(VARS[:2], {(1, 2 ** 40): -2, (0, 0): 5}, 3)
    got = a * b
    assert got.scale == 6
    same(got, tuple_product(a, b))


@LAWS
@given(data=st.data())
def test_packed_product_of_torus_polys_over_parampoly(data):
    n = data.draw(st.integers(1, 3))
    ring = st.builds(lambda t, s: ParamPoly(VARS[:2], t, s),
                     term_dicts(2, "mixed", size=3),
                     st.sampled_from([1, 2])).filter(bool)
    a, b = (ParamPoly(torus_vars(n), data.draw(wide_terms(n, 200, ring)),
                      data.draw(st.sampled_from([1, 2, 3])))
            for _ in range(2))
    same(a * b, tuple_product(a, b))


def test_packed_product_cancels_to_zero():
    # QuadExt at a square H has zero divisors: (2 + sqrt 4)(2 - sqrt 4) = 0
    # term by term, so the product is the zero poly
    H = 4
    a = ParamPoly(VARS, {(1, 0, 0): QuadExt(2, 1, H),
                         (0, 300, 0): QuadExt(4, 2, H)})
    b = ParamPoly(VARS, {(0, 0, 1): QuadExt(2, -1, H),
                         (-2 ** 20, 0, 0): QuadExt(-6, 3, H)})
    assert (a * b).is_zero() and tuple_product(a, b).is_zero()
    assert (a * b).scale == 1
    assert (a * ParamPoly.zero(VARS)).is_zero()


@st.composite
def lifts(draw):
    """(num, own, union, first): a numerator, two factored denominators of
    canonical binomials z^d - c (c one of +-1, 2, -1/3) on lattices 1, 2, 3,
    own and union = lcm(own, the other), and a factor of the numerator or
    None."""
    n, _, [(terms, scale), (ft, fs)] = draw(operands(2))
    vars_ = VARS[:n]
    zero = (0,) * n
    dens = []
    for _ in range(2):
        den = {}
        for _ in range(draw(st.integers(0, 3))):
            d = draw(st.tuples(*[st.integers(-3, 3)] * n).filter(any))
            c = draw(st.sampled_from([1, -1, 2, QQ(-1, 3)]))
            key, b = canonical_binomial(vars_, (d, 1), (zero, c),
                                        draw(st.sampled_from([1, 2, 3])))[:2]
            m = draw(st.integers(1, 2))
            den[key] = (b, den[key][1] + m) if key in den else (b, m)
        dens.append(den)
    own, other = dens
    union = dict(own)
    merge_max(union, other)
    first = draw(st.sampled_from([None, ParamPoly(vars_, ft, fs)]))
    return ParamPoly(vars_, terms, scale), own, union, first


@LAWS
@given(data=lifts())
def test_lift_chain_matches_one_product_per_factor(data):
    num, own, union, first = data
    if first is not None:
        num = num * first
    want = num
    for k, (b, m) in union.items():
        for _ in range(m - (own[k][1] if k in own else 0)):
            want = want * b
    same(lift_to(num, own, union), want)


@LAWS
@given(data=operands(1), k=st.integers(2, 12))
def test_rational_scalar_multiple_is_canonical(data, k):
    # 1/k then k: every coefficient of the result is integral again
    n, _, [a] = data
    p = build("ParamPoly", n, *a)
    back = p * QQ(1, k) * k
    assert back == p
    check_canonical(back)


@st.composite
def chains(draw):
    """(p, chain): a numerator and one to three canonical binomials
    z^eL + c z^eS on lattices 1, 2, 3."""
    n, _, [(terms, scale)] = draw(operands(1))
    chain = []
    for _ in range(draw(st.integers(1, 3))):
        e2 = draw(st.tuples(*[st.integers(-2, 2)] * n))
        d = draw(st.tuples(*[st.integers(-2, 2)] * n).filter(any))
        trail = draw(coeffs(draw(st.sampled_from(KINDS))))
        e1 = tuple(x + y for x, y in zip(e2, d))
        chain.append(canonical_binomial(torus_vars(n), (e1, 1), (e2, trail),
                                        draw(st.sampled_from([1, 2, 3])))[1])
    return ParamPoly(torus_vars(n), terms, scale), chain


def divide_chain(num, chain):
    """``exact_divide`` of num alone by the binomials of ``chain`` in their
    list order: the keys of its den sort so."""
    return exact_divide([(num, [])],
                        {(i,): (b, 1) for i, b in enumerate(chain)})


@LAWS
@given(data=chains())
def test_exact_divide_undoes_the_product(data):
    p, chain = data
    prod = p
    for b in chain:
        prod = prod * b
    q = divide_chain(prod, chain)
    assert q == p
    check_representation(q, all(map(integral, [p] + chain)))


@LAWS
@given(data=chains(), e=st.tuples(*[st.integers(-3, 3)] * 3),
       c=coeffs("mixed"))
def test_added_monomial_is_not_divisible(data, e, c):
    # a multiple of a binomial is zero or has two terms or more; every term
    # lies in a small box, so no line of the walk is long
    p, chain = data
    prod = p
    for b in chain:
        prod = prod * b
    bad = prod + ParamPoly.monomial(p.vars, e[:p.n], c)
    with pytest.raises(NotDivisible):
        divide_chain(bad, chain)


@st.composite
def chain_sums(draw):
    """(lifts, chain): one to three lifts (num, factors) over torus names,
    with zero operands among them, and a chain of canonical binomials
    (``chains``) each of which divides every lift's product: a lift takes
    each binomial as one of its factors or multiplied into its
    numerator."""
    p, chain = draw(chains())
    n = p.n
    polys = st.builds(lambda t, s: ParamPoly(torus_vars(n), t, s),
                      term_dicts(n, "mixed", span=2, size=3),
                      st.sampled_from([1, 2, 3]))
    lifts = []
    for num in [p] + draw(st.lists(polys, max_size=2)):
        fs = draw(st.lists(polys, max_size=2))
        for b in chain:
            if draw(st.booleans()):
                fs.append(b)
            else:
                num = num * b
        lifts.append((num, fs))
    return lifts, chain


def tuple_sum(lifts):
    """The sum of the lifts' products, formed on exponent tuples."""
    total = ParamPoly.zero(lifts[0][0].vars)
    for num, fs in lifts:
        for f in fs:
            num = num * f
        total = total + num
    return total


@LAWS
@given(data=chain_sums())
def test_exact_divide_of_lifts_divides_their_sum(data):
    lifts, chain = data
    den = {(i,): (b, 1) for i, b in enumerate(chain)}
    got = exact_divide(lifts, den)
    same(got, exact_divide([(tuple_sum(lifts), [])], den))
    check_representation(got, False)


@LAWS
@given(data=chain_sums(), e=st.tuples(*[st.integers(-3, 3)] * 3),
       c=coeffs("mixed"), s=st.sampled_from([1, 2]))
def test_cancel_sum_divides_out_every_dividing_factor(data, e, c, s):
    # every factor of den divides the sum as often as its multiplicity:
    # the trials leave none, and the quotient is the strict division's
    # over the unit
    lifts, chain = data
    den = {}
    for b in chain:
        key = canonical_binomial(b.vars, *b.terms.items(), b.scale)[0]
        den[key] = (b, den[key][1] + 1) if key in den else (b, 1)
    unit = ParamPoly.monomial(chain[0].vars, e[:chain[0].n], c, s)
    got = cancel_sum(lifts, unit, den)
    want = exact_divide(lifts, den)
    if not want:
        assert got is None
    else:
        q, left = got
        assert left == {}
        same(q, over_unit(want, unit))


@st.composite
def divisions(draw):
    """(p, g): a poly and a divisor of two terms or more over one name
    tuple, on lattices 1, 2, 3."""
    n, _, [(pt, ps), (gt, gs)] = draw(operands(2))
    g = build("ParamPoly", n, gt, gs)
    assume(len(g) > 1)
    return build("ParamPoly", n, pt, ps), g


@LAWS
@given(data=divisions())
def test_sparse_divide_undoes_the_product(data):
    p, g = data
    q = sparse_divide(p * g, g)
    assert q == p
    check_canonical(q)


@LAWS
@given(data=divisions(), e=st.tuples(*[st.integers(-4, 4)] * 3),
       c=coeffs("mixed"))
def test_sparse_divide_refuses_an_added_monomial(data, e, c):
    # a poly of two terms or more is no unit, so it divides no monomial
    p, g = data
    with pytest.raises(NotDivisible):
        sparse_divide(p * g + ParamPoly.monomial(p.vars, e[:p.n], c), g)


@st.composite
def gaps(draw):
    """A poly built as a product of binomials z^d -+ 1, of z^d - c for a
    rational c other than +-1, and of a random poly, on lattice 1 or 2."""
    n = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1, 2]))
    vars_ = VARS[:n]
    zero = (0,) * n
    p = build("ParamPoly", n, draw(term_dicts(n, "mixed", span=2, size=3)),
              scale)
    assume(p)
    for _ in range(draw(st.integers(0, 4))):
        d = draw(st.tuples(*[st.integers(-3, 3)] * n).filter(any))
        c = draw(st.sampled_from([1, -1, 2, QQ(-1, 3)]))
        p = p * ParamPoly(vars_, {d: 1, zero: c}, scale)
    return p


@LAWS
@given(p=gaps())
def test_split_multiplies_back_to_the_gap(p):
    unit, factors = split_binomials(p)
    assert unit.is_monomial()
    prod = unit
    cofactors = 0
    for key, (f, m) in factors.items():
        assert m >= 1
        prod = prod * f ** m
        if isinstance(key, tuple):
            # z^d -+ 1, keyed by its canonical form
            assert canonical_binomial(f.vars, *f.terms.items(),
                                      f.scale)[0] == key
            assert sorted(f.terms.values()) in ([-1, 1], [1, 1])
        else:
            cofactors += 1
            assert key == f and m == 1 and len(f) > 1
            assert all(min(col) == 0 for col in zip(*f.terms))
            assert f.terms[max(f.terms)] > 0
    assert cofactors <= 1
    assert prod == p


@st.composite
def mapped_binomials(draw):
    """(b, m, image): a canonical flat binomial z^eL + c z^eS on width n + 6
    with an int trailing coefficient c, a multiplicity m, and a signed
    permutation of the n torus slots (parameter slots fixed), which may swap
    eL and eS in lex order, as a map of exponent tuples."""
    n = draw(st.integers(2, 3))
    width = n + len(KOORN_VARS)
    torus = st.tuples(*[st.integers(-2, 2)] * n)
    params = st.tuples(*[st.integers(-2, 2)] * len(KOORN_VARS))
    t1 = draw(torus)
    p1 = draw(params)
    # distinct torus parts put the lex order in the mapped slots
    e1 = t1 + p1
    e2 = draw(torus.filter(lambda t: t != t1)) + draw(
        st.one_of(st.just(p1), params))
    trail = draw(st.integers(-6, 6).filter(bool))
    b = canonical_binomial(torus_vars(n) + KOORN_VARS, (max(e1, e2), 1),
                           (min(e1, e2), trail),
                           draw(st.sampled_from([1, 2])))[1]
    perm = tuple(draw(st.permutations(range(n)))) + tuple(range(n, width))
    flips = tuple(draw(st.sets(st.integers(0, n - 1))))
    signs = tuple(-1 if i in flips else 1 for i in range(width))
    return b, draw(st.integers(1, 2)), \
        lambda e: tuple(x * y for x, y in zip(itemgetter(*perm)(e), signs))


def mapped_poly(p, emap):
    """The flat poly p under the exponent map emap."""
    return ParamPoly(p.vars, {emap(e): c for e, c in p.terms.items()}, p.scale)


@LAWS
@given(data=mapped_binomials())
def test_permuted_binomial_recanonicalises(data):
    b, m, emap = data
    pb = mapped_poly(b, emap)
    key, binom, mm, cu, su = canonical_binomial(pb.vars, *pb.terms.items(),
                                                pb.scale)
    assert binom.mul_monomial(mm, cu, su) == pb
    assert _mapped(LaurentRat(b, {None: (b, m)}), emap).den == {
        key: (binom, m)}


@LAWS
@given(data=mapped_binomials(), draw=st.data())
def test_permuted_cell_divides_to_permuted_quotient(data, draw):
    # sigma(p * b^m) over the re-canonicalised sigma(b)^m, with the unit
    # folded into the numerator, is sigma(p)
    b, m, emap = data
    p = ParamPoly(b.vars, draw.draw(term_dicts(b.n, "mixed", span=2, size=4)),
                    draw.draw(st.sampled_from([1, 2, 3])))
    num = p
    for _ in range(m):
        num = num * b
    rat = _mapped(LaurentRat(num, {None: (b, m)}), emap)
    assert exact_divide([(rat.num, [])], rat.den) == mapped_poly(p, emap)


def binomial_pool(n):
    """(key, binom) of a few canonical binomials in n torus variables, so
    that random denominators share factors."""
    z = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    zero = (0,) * n
    raw = [(z[0], zero, -1), (z[0], zero, 1), (z[-1], zero, QQ(-1, 3)),
           (tuple(map(sum, zip(z[0], z[-1]))), zero, -2)]
    if n > 1:
        raw.append((z[0], z[1], -1))
    return [canonical_binomial(torus_vars(n), (e1, 1), (e2, c))[:2]
            for e1, e2, c in raw]


@st.composite
def signed_fractions(draw):
    """A list of (key, sign, LaurentRat): keys repeat, both signs occur, and
    denominator factors come with multiplicity 1 or 2."""
    n = draw(st.integers(1, 2))
    pool = binomial_pool(n)
    out = []
    for _ in range(draw(st.integers(1, 7))):
        num = ParamPoly(torus_vars(n),
                        draw(term_dicts(n, "mixed", span=2, size=3)))
        den = {}
        for i in sorted(draw(st.sets(st.integers(0, len(pool) - 1),
                                     max_size=3))):
            key, binom = pool[i]
            den[key] = (binom, draw(st.integers(1, 2)))
        out.append((draw(st.sampled_from("abc")),
                    draw(st.sampled_from((1, -1))), LaurentRat(num, den)))
    return out


def serial_grouped_sum(signed):
    """The serial algorithm: the union of every denominator first, then
    each term lifted to it and added to its key's numerator in list
    order."""
    union = {}
    for _, _, t in signed:
        for key, (binom, m) in t.den.items():
            if m > union.get(key, (binom, 0))[1]:
                union[key] = (binom, m)
    groups = {}
    for key, sign, t in signed:
        num = t.num if sign > 0 else -t.num
        for k, (binom, m) in union.items():
            for _ in range(m - (t.den[k][1] if k in t.den else 0)):
                num = num * binom
        groups[key] = groups[key] + num if key in groups else num
    return union, groups


@LAWS
@given(signed=signed_fractions())
def test_grouped_sum_matches_serial_sum(signed):
    union, groups = _grouped_sum(signed)
    want_union, want_groups = serial_grouped_sum(signed)
    assert union == want_union
    assert groups == want_groups


@st.composite
def flat_polys(draw):
    """(n, a flat poly over n torus and the KOORN_VARS parameter slots) on
    lattice 1 or 2."""
    n = draw(st.integers(1, 2))
    width = n + len(KOORN_VARS)
    terms = draw(term_dicts(width, "mixed", span=2, size=4))
    return n, ParamPoly(torus_vars(n) + KOORN_VARS, terms,
                        draw(st.sampled_from([1, 2])))


@LAWS
@given(data=flat_polys(), draw=st.data())
def test_flat_shift_round_trip_and_qh_power(data, draw):
    n, f = data
    slot = n + KOORN_VARS.index("qh")
    steps = draw.draw(st.tuples(*[st.integers(-3, 3)] * n))
    g = flat_shift(f, steps, slot)
    assert flat_shift(g, tuple(-k for k in steps), slot) == f
    # z^m picks up qh^(k m), in exact exponents
    want = {}
    for e, c in exact(f.terms, f.scale).items():
        d = sum(k * m for k, m in zip(steps, e))
        want[e[:slot] + (e[slot] + d,) + e[slot + 1:]] = c
    assert exact(g.terms, g.scale) == want


def param_polys(vars_=KOORN_VARS, nonzero=False, lattices=(1, 2, 3)):
    exps = st.tuples(*[st.integers(-2, 2)] * len(vars_))
    terms = st.dictionaries(exps, coeffs("mixed"), min_size=int(nonzero),
                            max_size=4)
    return st.builds(lambda t, s: ParamPoly(vars_, t, s), terms,
                     st.sampled_from(lattices))


@LAWS
@given(num=param_polys(), den=param_polys(nonzero=True))
def test_parse_reads_render(num, den):
    x = ParamRat(num, den)
    got = ParamRat.parse(KOORN_VARS, x.render())
    assert got == x
    assert got.render() == x.render()
    ints_in = integral(x.num) and integral(x.den)
    check_representation(got.num, ints_in)
    check_representation(got.den, ints_in)


def monomials(lattices=(1, 2), unit=False):
    """Nonzero ParamPoly monomials over VARS with a rational coefficient
    (1 when ``unit``)."""
    return st.builds(lambda e, c, s: ParamPoly.monomial(VARS, e, c, s),
                     st.tuples(*[st.integers(-2, 2)] * len(VARS)),
                     st.just(1) if unit else coeffs("mixed"),
                     st.sampled_from(lattices))


def images(lattices=(1, 2), unit=False):
    """Substitution images: a nonzero rational, a ParamPoly monomial, or a
    ParamRat quotient of two monomials."""
    mono = monomials(lattices, unit)
    return st.one_of(st.just(1) if unit else coeffs("mixed"), mono,
                     st.builds(ParamRat, mono, mono))


def substitutions(lattices=(1, 2), unit=False):
    return st.dictionaries(st.sampled_from(VARS), images(lattices, unit),
                           min_size=1)


def value(x, at):
    """x (a rational, a ParamPoly on the integer lattice or a ParamRat of
    such) at the point ``at`` (name -> nonzero Fraction)."""
    if isinstance(x, ParamRat):
        return value(x.num, at) / value(x.den, at)
    if not isinstance(x, ParamPoly):
        return Fraction(x)
    total = Fraction(0)
    for e, c in x.terms.items():
        term = Fraction(c)
        for name, k in zip(x.vars, e):
            assert k % x.scale == 0
            term *= at[name] ** (k // x.scale)
        total += term
    return total


@LAWS
@given(f=param_polys(VARS, lattices=(1, 2)),
       g=param_polys(VARS, lattices=(1, 2)), draw=st.data())
def test_substitute_is_a_ring_homomorphism(f, g, draw):
    # a fractional power of an image needs a unit coefficient
    sigma = draw.draw(substitutions(unit=f.scale > 1 or g.scale > 1))
    fs, gs = f.substitute(sigma), g.substitute(sigma)
    assert (f * g).substitute(sigma) == fs * gs
    assert (f + g).substitute(sigma) == fs + gs
    for p in (fs, gs):
        check_canonical(p)


_points = st.builds(QQ, st.integers(-5, 5).filter(bool), st.integers(1, 4))


@LAWS
@given(f=param_polys(VARS, lattices=(1,)), sigma=substitutions((1,)),
       point=st.tuples(*[_points] * len(VARS)))
def test_substitute_agrees_with_evaluation(f, sigma, point):
    at = dict(zip(VARS, point))
    moved = dict(at)
    for name, v in sigma.items():
        moved[name] = value(v, at)
    got = f.substitute(sigma)
    check_canonical(got)
    assert value(got, at) == value(f, moved)


def non_images():
    """Values no substitution accepts: zero, or not a quotient of two
    monomials."""
    mono = monomials()
    two = st.builds(lambda a, b: a + b, mono, mono).filter(
        lambda p: len(p) == 2)
    zeros = [0, QQ(0), ParamPoly.zero(VARS), ParamRat.zero(VARS)]
    return st.one_of(st.sampled_from(zeros), two,
                     st.builds(ParamRat, mono, two),
                     st.builds(ParamRat, two, mono))


@LAWS
@given(f=param_polys(VARS, lattices=(1, 2)), name=st.sampled_from(VARS),
       bad=non_images())
def test_substitute_refuses_non_monomial_and_zero_images(f, name, bad):
    with pytest.raises(ValueError, match="invertible|plain monomials"):
        f.substitute({name: bad})


@LAWS
@given(g=param_polys(VARS, nonzero=True, lattices=(1,)),
       name=st.sampled_from(VARS), image=images(unit=True),
       c=coeffs("mixed").filter(lambda c: c != 1))
def test_fractional_power_needs_a_unit_coefficient(g, name, image, c):
    # every term of f holds an odd power of name^(1/2)
    f = g.mul_monomial(tuple(int(v == name) for v in VARS), 1, 2)
    with pytest.raises(ValueError, match="unit-coefficient"):
        f.substitute({name: image * c})


def pin(f, v):
    """The render of f at x = v, or None at a pole."""
    try:
        return f.substitute({"x": v}).render()
    except DenominatorVanishes:
        return None


@LAWS
@given(a=param_polys(VARS, nonzero=True, lattices=(1,)),
       b=param_polys(VARS, nonzero=True, lattices=(1,)), v=_points,
       m1=st.integers(0, 3), m2=st.integers(0, 3))
def test_pin_cancels_every_power_of_a_shared_factor(a, b, v, m1, m2):
    # the pin of a (x-v)^m1 / (b (x-v)^m2) at x = v: a (x-v)^(m1-m2) / b
    # pinned when m1 >= m2, and a pole when m1 < m2 and a(v) != 0
    at_v = ParamPoly.variable(VARS, "x") - v
    got = pin(ParamRat(a * at_v ** m1, b * at_v ** m2), v)
    if m1 >= m2:
        assert got == pin(ParamRat(a * at_v ** (m1 - m2), b), v)
    elif a.eval_var("x", v):
        assert got is None


# ---------------------------------------------------------------------------
# the numeric route's two kernels against their term-by-term forms

# qh = 1/2 and the squared half-parameters 1/2, 1/3, 2/5, 2/7: numerators
# +-1 among them; then a point where no base has numerator +-1 (qh = 3/4,
# t = -2/3, and 2/5, 3/7, 4/5, 8/9)
POINTS = (DEFAULT_POINT,
          NumericPoint(QQ(9, 16), QQ(-2, 3), QQ(2, 5), QQ(-3, 7), QQ(3, 5),
                       QQ(-2, 3)))


def specialize_oracle(point, poly):
    """NumericPoint.specialize term by term, in Fraction arithmetic."""
    if poly.scale != 1:
        raise ValueError("fractional parameter powers at a numeric point")
    gsq = point._gsquares()
    tot = QuadExt.rational(0, point.H)
    for e, coeff in poly.terms.items():
        alpha, beta = e[0], e[1]
        gexp = e[2:]
        if beta % 2:
            raise ValueError("odd power of th at a numeric point")
        par = gexp[0] % 2
        if any(x % 2 != par for x in gexp):
            raise ValueError("unmatched external half-parameter parity")
        val = QQ(coeff) * point.t ** (beta // 2)
        for gs, k in zip(gsq, gexp):
            val = val * gs ** ((k - par) // 2)
        val = val * point.qh ** alpha
        if par:
            tot = tot + QuadExt(0, val, point.H)
        else:
            tot = tot + QuadExt(val, 0, point.H)
    return tot


@st.composite
def point_exponents(draw):
    """An exponent tuple over KOORN_VARS that specializes: an even power of
    th and one parity for ga, gb, gc, gd; negative powers included."""
    par = draw(st.integers(0, 1))
    small = st.integers(-3, 3)
    return (draw(small), 2 * draw(small)) + tuple(
        2 * draw(small) + par for _ in range(4))


def point_polys(min_size=0):
    return st.builds(lambda t: ParamPoly(KOORN_VARS, t),
                     st.dictionaries(point_exponents(), coeffs("mixed"),
                                     min_size=min_size, max_size=6))


@LAWS
@given(poly=point_polys(), point=st.sampled_from(POINTS))
def test_specialize_matches_term_by_term(poly, point):
    got = point.specialize(poly)
    want = specialize_oracle(point, poly)
    assert (got.x, got.y) == (want.x, want.y)


@st.composite
def unspecializable(draw):
    """(poly, reason): a specializable poly with one term added that has a
    fractional power, an odd power of th, or mixed half-parameter parity."""
    kind = draw(st.sampled_from(["fractional", "odd power", "unmatched"]))
    poly = draw(point_polys())
    e = list(draw(point_exponents()))
    if kind == "fractional":
        bad = ParamPoly.monomial(KOORN_VARS, e, 1, 2) if any(
            x % 2 for x in e) else ParamPoly.monomial(
                KOORN_VARS, [1] + e[1:], 1, 2)
    elif kind == "odd power":
        e[1] += 1
        bad = ParamPoly.monomial(KOORN_VARS, e, 1)
    else:
        e[2 + draw(st.integers(0, 3))] += 1
        bad = ParamPoly.monomial(KOORN_VARS, e, 1)
    return poly + bad, kind


@LAWS
@given(data=unspecializable(), point=st.sampled_from(POINTS))
def test_specialize_refuses_as_term_by_term(data, point):
    poly, kind = data
    with pytest.raises(ValueError, match=kind):
        specialize_oracle(point, poly)
    with pytest.raises(ValueError, match=kind):
        point.specialize(poly)


def pairing_oracle(f, g, spec):
    """inner_product Fraction by Fraction over the weight's coefficients."""
    terms, den = delta_truncate(spec)
    total = None
    for ef, cf in f.terms.items():
        for eg, cg in g.terms.items():
            e = tuple(y - x for x, y in zip(ef, eg))
            w = terms.get(e)
            if w is None:
                continue
            term = cf * cg * QQ(w, den)
            total = term if total is None else total + term
    return QQ(0) if total is None else total


SPECS = {1: WeightFunctionSpec(1, M=2, point=DEFAULT_POINT, zbox=6),
         2: WeightFunctionSpec(2, M=1, point=DEFAULT_POINT, zbox=4)}


@LAWS
@given(n=st.sampled_from(sorted(SPECS)), quad=st.booleans(), draw=st.data())
def test_inner_product_matches_fraction_pairing(n, quad, draw):
    # rational f and g, or QuadExt f against a rational g; exponents reach
    # past the weight's box
    f = ParamPoly(torus_vars(n),
                  draw.draw(term_dicts(n, "mixed", span=5, size=6)))
    g = ParamPoly(torus_vars(n),
                  draw.draw(term_dicts(n, "mixed", span=5, size=6)))
    if quad:
        H = DEFAULT_POINT.H
        f = ParamPoly(torus_vars(n), {e: QuadExt(c, c / 3, H)
                            for e, c in f.terms.items()})
    got = inner_product(f, g, SPECS[n])
    assert got == pairing_oracle(f, g, SPECS[n])
    assert isinstance(got, QuadExt) == (quad and bool(f.terms))

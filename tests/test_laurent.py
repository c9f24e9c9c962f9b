import cmath
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qkoorn
from qkoorn.errors import NotDivisible
from qkoorn.laurent import (_clear_coeffs, _divide_packed, _line_vanishes,
                            _packed_chain, _packing, _trial_divide,
                            cancel_factors, canonical_binomial,
                            divide_binomial, exact_divide, flat_shift,
                            flatten, merge_max, sparse_divide,
                            split_binomials, torus_vars, unflatten)
from qkoorn.ratfield import KOORN_VARS, QQ, ParamPoly, ParamRat
from qkoorn.weightfn import QuadExt


def P(c):
    return ParamPoly.const(KOORN_VARS, c)


def test_divide_simple_binomial():
    # (z^2 - 1) / (z - 1) = z + 1
    num = ParamPoly(torus_vars(1), {(2,): P(1), (0,): P(-1)})
    key, binom, m, cu, s = canonical_binomial(torus_vars(1), ((1,), P(1)),
                                              ((0,), P(-1)))
    q = divide_binomial(num, binom)
    assert q == ParamPoly(torus_vars(1), {(1,): P(1), (0,): P(1)})


def test_divide_not_divisible():
    num = ParamPoly(torus_vars(1), {(2,): P(1), (0,): P(1)})
    _, binom, _, _, _ = canonical_binomial(torus_vars(1), ((1,), P(1)),
                                           ((0,), P(-1)))
    with pytest.raises(NotDivisible):
        divide_binomial(num, binom)


def rand_laurent(rng, n, terms=4, span=3, scale=1):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randint(-span, span) for _ in range(n))
        c = rng.randint(-5, 5)
        if c:
            out[e] = P(c)
    return ParamPoly(torus_vars(n), out, scale)


def rand_binomial(rng, n):
    while True:
        e1 = tuple(rng.randint(-2, 2) for _ in range(n))
        e2 = tuple(rng.randint(-2, 2) for _ in range(n))
        if e1 != e2:
            break
    return ParamPoly(torus_vars(n),
                     {e1: P(1), e2: P(rng.choice([1, -1, 2, -3]))})


def test_divide_product_roundtrip():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.choice([1, 2, 3])
        a = rand_laurent(rng, n)
        if a.is_zero():
            continue
        b = rand_binomial(rng, n)
        key, binom, m, cu, s = canonical_binomial(
            torus_vars(n), *((e, c) for e, c in b.terms.items()))
        prod = a * b
        # undo the canonicalization unit so prod = (a * unit) * binom
        q = divide_binomial(prod, binom)
        assert q * binom == prod


def test_exact_divide_multiple_factors():
    rng = random.Random(23)
    n = 2
    a = rand_laurent(rng, n, terms=5)
    factors = []
    prod = a
    for _ in range(3):
        b = rand_binomial(rng, n)
        _, binom, _, _, _ = canonical_binomial(
            torus_vars(n), *((e, c) for e, c in b.terms.items()))
        factors.append((binom, 1))
        prod = prod * binom
    assert exact_divide(prod, factors) == a


def shift_var(f, j, k):
    """Translate z_j by k half-steps through the flat form."""
    steps = tuple(k if i == j else 0 for i in range(f.n))
    g = flat_shift(flatten(f, KOORN_VARS), steps,
                   f.n + KOORN_VARS.index("qh"))
    return unflatten(g, f.n)


def test_shift_full_step_multiplies_by_q_power():
    # z^m picks up q^m under one full translation step (two half steps)
    f = ParamPoly(torus_vars(1), {(3,): P(1), (0,): P(5), (-2,): P(1)})
    g = shift_var(f, 0, 2)
    q = ParamPoly.variable(KOORN_VARS, "qh", 2)
    qinv = ParamPoly.variable(KOORN_VARS, "qh", -2)
    assert g.terms[(3,)] == q ** 3
    assert g.terms[(0,)] == P(5)
    assert g.terms[(-2,)] == qinv ** 2


def test_shift_roundtrip():
    rng = random.Random(5)
    for _ in range(20):
        f = rand_laurent(rng, 2, scale=rng.choice([1, 2]))
        j = rng.randint(0, 1)
        k = rng.randint(-3, 3)
        assert shift_var(shift_var(f, j, k), j, -k) == f


def test_shift_matches_exponential_identity():
    # numeric: f(x + i*beta) multiplies e^{i m x} by e^{-beta m}
    rng = random.Random(9)
    for _ in range(10):
        beta = rng.uniform(0.3, 1.5)
        x = rng.uniform(-2.0, 2.0)
        m = rng.randint(-4, 4)
        qh = cmath.exp(-beta / 2)
        lhs = cmath.exp(1j * m * (x + 1j * beta))
        rhs = qh ** (2 * m) * cmath.exp(1j * m * x)
        assert abs(lhs - rhs) < 1e-12


def test_half_lattice_scale_arithmetic():
    # (z^{1/2} + z^{-1/2})^2 = z + 2 + z^{-1}
    f = ParamPoly(torus_vars(1), {(1,): P(1), (-1,): P(1)}, scale=2)
    sq = f * f
    assert sq == ParamPoly(torus_vars(1),
                           {(1,): P(1), (0,): P(2), (-1,): P(1)})


def test_flatten_unflatten_roundtrip():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.choice([1, 2])
        terms = {}
        for _ in range(4):
            e = tuple(rng.randint(-2, 2) for _ in range(n))
            pe = tuple(rng.randint(-2, 2) for _ in range(len(KOORN_VARS)))
            terms.setdefault(e, {})[pe] = QQ(rng.randint(1, 4))
        f = ParamPoly(torus_vars(n), {e: ParamPoly(KOORN_VARS, pt)
                            for e, pt in terms.items()})
        flat = flatten(f, KOORN_VARS)
        back = unflatten(flat, n)
        assert back == f


def test_flat_shift_moves_qh_slot():
    n = 2
    f = ParamPoly(torus_vars(n) + KOORN_VARS,
                  {(1, 2, 0, 0, 0, 0, 0, 0): QQ(1)})
    g = flat_shift(f, (2, -2), n)
    assert g.terms == {(1, 2, 2 - 4, 0, 0, 0, 0, 0): QQ(1)}


# -- integer kernels against the generic ones --------------------------------


def rand_rational(rng, kind):
    if kind == "mixed":
        kind = rng.choice(["int", "frac"])
    sign = rng.choice([-1, 1])
    if kind == "int":
        return QQ(sign * rng.randint(1, 9) * 10 ** rng.randint(0, 30))
    while True:
        c = QQ(sign * rng.randint(1, 60), rng.choice([2, 3, 5, 12, 2 ** 67]))
        if c.denominator != 1:
            return c


def rand_rational_laurent(rng, n, kind, terms=5, span=3):
    return ParamPoly(torus_vars(n),
                     {tuple(rng.randint(-span, span) for _ in range(n)):
                      rand_rational(rng, kind) for _ in range(terms)})


def rational_binomial(rng, n, trail):
    """A canonical binomial z^eL + trail z^eS with rational coefficients."""
    while True:
        e1 = tuple(rng.randint(-2, 2) for _ in range(n))
        e2 = tuple(rng.randint(-2, 2) for _ in range(n))
        if e1 > e2:
            break
    binom = canonical_binomial(torus_vars(n), (e1, QQ(1)), (e2, trail))[1]
    assert trail in binom.terms.values()
    return binom


def fraction_terms(f):
    return {e: Fraction(c) for e, c in f.terms.items()}


@pytest.mark.parametrize("kind", ["int", "frac", "mixed"])
@pytest.mark.parametrize("trail", [QQ(-1), QQ(3), QQ(-1, 3)])
def test_rational_divide_roundtrip(kind, trail):
    rng = random.Random(31)
    types = (int,) if kind == "int" and trail.denominator == 1 else (int, QQ)
    for _ in range(25):
        n = rng.choice([1, 2, 3])
        p = rand_rational_laurent(rng, n, kind)
        binom = rational_binomial(rng, n, trail)
        prod = p * binom
        want = {}
        for e1, c1 in p.terms.items():
            for e2, c2 in binom.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                want[e] = want.get(e, Fraction(0)) + Fraction(c1) * c2
        assert fraction_terms(prod) == {e: c for e, c in want.items() if c}
        q = divide_binomial(prod, binom)
        assert q == p
        for c in list(prod.terms.values()) + list(q.terms.values()):
            assert type(c) in types


def test_not_divisible_on_integer_path():
    rng = random.Random(37)
    for _ in range(20):
        n = rng.choice([1, 2])
        binom = rational_binomial(rng, n, QQ(rng.choice([-2, -1, 1, 5])))
        prod = rand_rational_laurent(rng, n, "mixed") * binom
        # a monomial is never a multiple of a binomial
        bad = prod + ParamPoly.monomial(torus_vars(n), (7,) * n, QQ(1, 2))
        with pytest.raises(NotDivisible):
            divide_binomial(bad, binom)


def param_lift(f):
    return ParamPoly(f.vars, {e: P(c) for e, c in f.terms.items()}, f.scale)


def test_param_coefficients_take_generic_path():
    rng = random.Random(41)
    for _ in range(15):
        n = rng.choice([1, 2])
        p = rand_rational_laurent(rng, n, "mixed")
        binom = rational_binomial(rng, n, QQ(rng.choice([-1, 2])))
        prod = param_lift(p) * param_lift(binom)
        assert prod == param_lift(p * binom)
        pbinom = canonical_binomial(
            torus_vars(n), *((e, P(c)) for e, c in binom.terms.items()))[1]
        assert divide_binomial(prod, pbinom) == param_lift(p)


def test_quadext_coefficients_take_generic_path():
    rng = random.Random(43)
    H = QQ(5, 4)
    for _ in range(15):
        n = rng.choice([1, 2])
        x = rand_rational_laurent(rng, n, "mixed")
        y = x * ParamPoly.const(torus_vars(n), QQ(-2, 3))
        f = ParamPoly(torus_vars(n), {e: QuadExt(c, y.terms[e], H)
                            for e, c in x.terms.items()})
        binom = rational_binomial(rng, n, QQ(rng.choice([-1, 4])))
        prod = f * binom
        q = divide_binomial(prod, binom)
        for c in list(prod.terms.values()) + list(q.terms.values()):
            assert isinstance(c, QuadExt)
        assert {e: c.x for e, c in prod.terms.items() if c.x} \
            == (x * binom).terms
        assert {e: c.y for e, c in prod.terms.items() if c.y} \
            == (y * binom).terms
        assert {e: (c.x, c.y) for e, c in q.terms.items()} \
            == {e: (c, y.terms[e]) for e, c in x.terms.items()}


def test_integer_kernels_return_rationals():
    # integer inputs give int coefficients, and ParamRat's normalization
    # still inverts them exactly
    mono = ParamPoly.variable(KOORN_VARS, "qh") * ParamPoly.const(KOORN_VARS, 3)
    assert all(type(c) is int for c in mono.terms.values())
    r = ParamRat(ParamPoly.one(KOORN_VARS), mono)
    assert r.num.terms == {(-1, 0, 0, 0, 0, 0): QQ(1, 3)}
    binom = canonical_binomial(torus_vars(1), ((1,), QQ(1)), ((0,), QQ(-2)))[1]
    prod = binom * ParamPoly.const(torus_vars(1), QQ(2))
    q = divide_binomial(prod, binom)
    assert q.terms == {(0,): QQ(2)}
    for c in list(prod.terms.values()) + list(q.terms.values()):
        assert type(c) is int


def test_public_constructors_drop_zero_coefficients():
    f = ParamPoly(torus_vars(2), {(1, 0): QQ(0), (0, -1): QQ(2)}, 2)
    assert f.terms == {(0, -1): QQ(2)} and f.scale == 2
    assert ParamPoly.monomial(torus_vars(2), (3, 1), QQ(0)).terms == {}
    assert ParamPoly.const(torus_vars(2), QQ(0)).terms == {}
    assert ParamPoly(torus_vars(1), {(0,): P(0), (1,): P(1)}).terms == {
        (1,): P(1)}


def test_zero_divisor_products_leave_no_zero_coefficient():
    # at a square H, QuadExt has zero divisors: (1 + 1*1)(1 - 1*1) = 0
    a = ParamPoly(torus_vars(1), {(0,): QuadExt(1, 1, QQ(1)),
                                  (1,): QuadExt(1, 0, QQ(1))})
    b = ParamPoly(torus_vars(1), {(0,): QuadExt(1, -1, QQ(1))})
    prod = a * b
    assert prod.terms == {(1,): QuadExt(1, -1, QQ(1))}


# -- chains of binomials through exact_divide --------------------------------


def chain_binomial(rng, n, trail, step=None, scale=1):
    """A canonical binomial z^eL + trail z^eS, exponents in units of
    1/scale (it lands on a coarser lattice when they share a factor with
    scale); ``step`` fixes the first nonzero entry of eL - eS."""
    e2 = tuple(rng.randint(-2, 2) for _ in range(n))
    i0 = rng.randrange(n)
    d = [0] * i0 + [step or rng.randint(1, 3)] + [
        rng.randint(-2, 2) for _ in range(n - i0 - 1)]
    e1 = tuple(x + y for x, y in zip(e2, d))
    return canonical_binomial(torus_vars(n), (e1, QQ(1)), (e2, trail),
                              scale)[1]


@pytest.mark.parametrize("kind", ["int", "frac", "mixed"])
def test_chain_divide_roundtrip(kind):
    rng = random.Random(53)
    types = (int,) if kind == "int" else (int, QQ)
    lattices = set()
    for _ in range(25):
        n = rng.choice([1, 2, 3, 4])
        p = rand_rational_laurent(rng, n, kind, span=6)
        p = ParamPoly(torus_vars(n), dict(p.terms), rng.choice([1, 2]))
        chain = [chain_binomial(rng, n, QQ(rng.choice([-1, 1, 2, -3])),
                                step=rng.choice([None, 2]),
                                scale=rng.choice([1, 2, 3]))
                 for _ in range(3)]
        chain[0] = chain_binomial(rng, n, QQ(-1), step=2,
                                  scale=rng.choice([1, 2, 3]))
        prod = p * chain[0] * chain[1] * chain[2]
        q = exact_divide(prod, [(b, 1) for b in chain])
        assert q == p
        assert all(type(c) in types for c in q.terms.values())
        lattices.add(tuple(b.scale for b in chain))
    # chains on one lattice and chains mixing two or three
    assert {len(set(t)) for t in lattices} == {1, 2, 3}


def test_chain_divide_multiplicities_match_one_at_a_time():
    rng = random.Random(59)
    for _ in range(20):
        n = rng.choice([2, 3])
        p = rand_rational_laurent(rng, n, "mixed")
        b1 = chain_binomial(rng, n, QQ(-1))
        b2 = chain_binomial(rng, n, QQ(2), scale=2)
        prod = p * b1 * b1 * b2 * b1
        q = exact_divide(prod, [(b1, 3), (b2, 1)])
        assert q == p
        step = divide_binomial(divide_binomial(prod, b2), b1)
        assert divide_binomial(divide_binomial(step, b1), b1) == q


@pytest.mark.parametrize("big", [10 ** 4, 3 * 10 ** 5, 10 ** 20])
def test_chain_divide_large_exponents(big):
    # the field width comes from the chain's exponent bound: 10^4 needs two
    # bytes a field, 3*10^5 four and 10^20 more than struct holds; the terms
    # sit close together so that lines stay short
    rng = random.Random(big % 1000)
    for _ in range(10):
        n = rng.choice([1, 2, 3])
        far = [rng.choice([-big, big]) for _ in range(n)]
        p = ParamPoly(torus_vars(n),
                      {tuple(x + rng.randint(-5, 5) for x in far):
                       rand_rational(rng, "mixed") for _ in range(4)})
        chain = [chain_binomial(rng, n, QQ(rng.choice([-1, 3])), step=2),
                 chain_binomial(rng, n, QQ(1))]
        prod = p * chain[0] * chain[1]
        assert exact_divide(prod, [(b, 1) for b in chain]) == p
        assert exact_divide(prod * chain[1], [(chain[1], 2),
                                              (chain[0], 1)]) == p


@pytest.mark.parametrize("p", [
    {(10 ** 20,): 1, (0,): 1},
    {(10 ** 20,): 3, (7,): QQ(-1, 2), (-5,): 2, (-10 ** 20,): -1}])
def test_exact_divide_jumps_across_empty_stretches(p):
    # the walk down a line jumps where the quotient vanishes, so its cost is
    # the terms of the line and of the quotient, not the 2*10^20 exponents
    # between them
    p = ParamPoly(torus_vars(1), p)
    binom = canonical_binomial(torus_vars(1), ((1,), 1), ((0,), -1))[1]
    prod = p * binom
    tracemalloc.start()
    start = time.process_time()
    try:
        assert divide_binomial(prod, binom) == p
        assert time.process_time() - start < 0.5
        assert tracemalloc.get_traced_memory()[1] < 10 ** 5
    finally:
        tracemalloc.stop()
    # a term just below the line's lowest one: the walk jumps straight to it
    low = min(prod.terms)[0] - 1
    with pytest.raises(NotDivisible, match=r"^line through z\^\(%d,\)$" % low):
        divide_binomial(prod + ParamPoly.monomial(torus_vars(1), (low,), 1),
                        binom)


GAP_CHILD = """
import resource
import sys
from fractions import Fraction
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from qkoorn.errors import NotDivisible
from qkoorn.laurent import canonical_binomial, divide_binomial, torus_vars
from qkoorn.ratfield import ParamPoly
N = 10 ** 20
binom = canonical_binomial(torus_vars(1), ((1,), 1), ((0,), -1))[1]
p = ParamPoly(torus_vars(1),
              {(N,): 3, (7,): Fraction(-1, 2), (-5,): 2, (-N,): -1})
try:
    divide_binomial(p * binom + ParamPoly.monomial(torus_vars(1), (3,), 1),
                    binom)
except NotDivisible as exc:
    print(exc)
"""


def test_not_divisible_line_builds_no_gap():
    # z^3 sits inside the gap below z^7, so the quotient's carry crosses the
    # 10^20 empty exponents down to z^-N before the line fails; the child's
    # address space is capped so that a dense partial quotient fails this
    # test instead of exhausting the machine
    src = os.path.dirname(os.path.dirname(os.path.abspath(qkoorn.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", GAP_CHILD, str(2 ** 30)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "line through z^(-%d,)\n" % 10 ** 20


@pytest.mark.parametrize("n,bound,width", [(1, 0, 8), (3, 127, 8),
                                           (3, 128, 16), (9, 10 ** 4, 16),
                                           (2, 2 ** 31, 64), (2, 2 ** 63, 128)])
def test_packing_orders_adds_and_round_trips(n, bound, width):
    # fields of up to 8 bytes go through struct, wider ones through shifts;
    # both must give the balanced-digit int
    got, zero, pack, unpack = _packing(n, bound)
    assert got == width
    half = 1 << (width - 1)
    rng = random.Random(bound % 97)
    edge = (-bound, bound, 0)
    vecs = [tuple(rng.choice(edge) if rng.random() < 0.3
                  else rng.randint(-bound, bound) for _ in range(n))
            for _ in range(60)]
    assert pack((0,) * n) == zero
    for a in vecs:
        assert pack(a) == sum((x + half) << (width * (n - 1 - i))
                              for i, x in enumerate(a))
        assert unpack(pack(a)) == a
        b = vecs[rng.randrange(len(vecs))]
        assert (pack(a) < pack(b)) == (a < b)
        s = tuple(x + y for x, y in zip(a, b))
        if all(abs(x) <= bound for x in s):
            assert pack(a) + pack(b) - zero == pack(s)


def test_line_keys_fit_the_packing_width():
    # every exponent fits one byte, but the line key (65,-123) - 32*(2,4)
    # = (1,-251) does not: packed into bytes it would equal the key (0,5) of
    # the line through (-62,-119), and the walk down the merged line would
    # cancel the lone top term against the bottom one
    binom = canonical_binomial(torus_vars(2), ((2, 4), QQ(1)),
                               ((0, 0), QQ(-1)))[1]
    f = ParamPoly(torus_vars(2), {(65, -123): QQ(1), (-62, -119): QQ(-1)})
    with pytest.raises(NotDivisible):
        exact_divide(f, [(binom, 1)])
    with pytest.raises(NotDivisible):
        exact_divide(ParamPoly(torus_vars(2),
                               {e: P(c) for e, c in f.terms.items()}),
                     [(canonical_binomial(torus_vars(2), ((2, 4), P(1)),
                                          ((0, 0), P(-1)))[1], 1)])


def test_not_divisible_at_second_binomial_names_exponent_tuple():
    rng = random.Random(61)
    for trail in (QQ(-1), QQ(1, 3)):
        for _ in range(10):
            n = rng.choice([2, 3])
            b1 = chain_binomial(rng, n, trail, step=2)
            b2 = chain_binomial(rng, n, QQ(-1))
            e = tuple(rng.randint(-40, 40) for _ in range(n))
            prod = ParamPoly.monomial(torus_vars(n), e, QQ(5, 7)) * b1
            assert divide_binomial(prod, b1).terms == {e: QQ(5, 7)}
            with pytest.raises(NotDivisible) as err:
                exact_divide(prod, [(b1, 1), (b2, 1)])
            # the lone term left after b1 is its own line through z^e
            assert str(err.value) == "line through z^%s" % (e,)


def test_not_divisible_names_exponents_whatever_the_lattice():
    # z^(5/2, -2) times z_1^(1/2) - 1 leaves a lone term after the first
    # binomial; the second fails on it, on the chain's lattice of 2 or 6,
    # and the message gives the exponents as exact values either way
    b1 = canonical_binomial(torus_vars(2), ((1, 0), QQ(1)), ((0, 0), QQ(-1)),
                            2)[1]
    prod = ParamPoly.monomial(torus_vars(2), (5, -4), QQ(3), 2) * b1
    for scale in (1, 3):
        b2 = canonical_binomial(torus_vars(2), ((0, 1), QQ(1)),
                                ((0, 0), QQ(-1)),
                                scale)[1]
        with pytest.raises(NotDivisible) as err:
            exact_divide(prod, [(b1, 1), (b2, 1)])
        assert str(err.value) == "line through z^(5/2, -2)"
    # one variable: the text is still a tuple
    b1 = canonical_binomial(torus_vars(1), ((1,), QQ(1)), ((0,), QQ(-1)), 2)[1]
    b2 = canonical_binomial(torus_vars(1), ((1,), QQ(1)), ((0,), QQ(-1)), 3)[1]
    with pytest.raises(NotDivisible, match=r"^line through z\^\(5/2,\)$"):
        exact_divide(ParamPoly.monomial(torus_vars(1), (5,), QQ(3), 2) * b1,
                     [(b1, 1), (b2, 1)])


def test_chain_generic_paths():
    rng = random.Random(67)
    H = QQ(7, 2)
    for _ in range(10):
        n = rng.choice([1, 2, 3])
        p = rand_rational_laurent(rng, n, "mixed")
        chain = [chain_binomial(rng, n, QQ(-1), step=2),
                 chain_binomial(rng, n, QQ(rng.choice([2, -1])), scale=2)]
        # a non-integer trailing coefficient
        frac = chain + [chain_binomial(rng, n, QQ(-2, 3))]
        prod = p * frac[0] * frac[1] * frac[2]
        q = exact_divide(prod, [(b, 1) for b in frac])
        assert q == p
        assert all(type(c) in (int, QQ) for c in q.terms.values())
        # ParamPoly coefficients and binomials
        pchain = [canonical_binomial(
            torus_vars(n), *((e, P(c)) for e, c in b.terms.items()),
            b.scale)[1]
            for b in chain]
        pprod = param_lift(p * chain[0] * chain[1])
        assert exact_divide(pprod, [(b, 1) for b in pchain]) == param_lift(p)
        # QuadExt coefficients over rational binomials
        f = ParamPoly(torus_vars(n), {e: QuadExt(c, -c / 3, H)
                            for e, c in p.terms.items()})
        prod = f * chain[0] * chain[1]
        q = exact_divide(prod, [(b, 1) for b in chain])
        assert {e: (c.x, c.y) for e, c in q.terms.items()} \
            == {e: (c, -c / 3) for e, c in p.terms.items()}
        with pytest.raises(NotDivisible, match=r"line through z\^\(-?\d"):
            exact_divide(prod + ParamPoly.monomial(
                torus_vars(n), (9,) * n, QuadExt(1, 1, H)),
                [(b, 1) for b in chain])


def test_split_finds_the_binomials_of_a_gap():
    # the gap E(3) - E(0) of the n = 1 rank-one operator, with A = ga*gb*gc*gd:
    # (qh^6 - 1)(A + qh^-6/A) = qh^-6/A (qh-1)(qh+1)(qh^6 A^2 + 1)(qh^4+qh^2+1)
    v = {name: ParamPoly.variable(KOORN_VARS, name) for name in KOORN_VARS}
    qh = v["qh"]
    A = v["ga"] * v["gb"] * v["gc"] * v["gd"]
    gap = (qh ** 6 - 1) * (A + ParamRat(ParamPoly.one(KOORN_VARS),
                                        qh ** 6 * A).num)
    unit, factors = split_binomials(gap)
    got = sorted(f.render() for f, m in factors.values() for _ in range(m))
    assert got == sorted(["qh-1", "qh+1", "qh^6*ga^2*gb^2*gc^2*gd^2+1",
                          "qh^4+qh^2+1"])
    assert unit.render() == "qh^-6*ga^-1*gb^-1*gc^-1*gd^-1"


def test_split_keeps_multiplicities_and_smallest_binomials():
    x = ParamPoly.variable(("x", "y"), "x")
    y = ParamPoly.variable(("x", "y"), "y")
    # (x^2 - 1)^2 (x y - 1) * 3 x: x^2 - 1 comes out as (x - 1)(x + 1)
    p = (x * x - 1) ** 2 * (x * y - 1) * x * 3
    unit, factors = split_binomials(p)
    assert unit == x * 3
    assert sorted((f.render(), m) for f, m in factors.values()) == [
        ("x*y-1", 1), ("x+1", 2), ("x-1", 2)]


def test_split_keys_equal_binomials_alike_on_any_lattice():
    # x + 1 times x^(1/2) is stored on lattice 2; neither x^(1/2) - 1 nor
    # x^(1/2) + 1 divides it, and x + 1 gets the key it has on lattice 1
    x = ParamPoly.variable(("x",), "x")
    h = ParamPoly.variable(("x",), "x", (1, 2))
    whole_unit, whole = split_binomials(x + 1)
    half_unit, half = split_binomials((x + 1) * h)
    assert whole.keys() == half.keys()
    assert (whole_unit, half_unit) == (1, h)
    # on lattice 2, x - 1 = (x^(1/2) - 1)(x^(1/2) + 1)
    _, half = split_binomials((x - 1) * h)
    assert sorted(f.render() for f, _ in half.values()) == [
        "x^(1/2)+1", "x^(1/2)-1"]


def test_canonical_binomial_keys_on_its_own_lattice():
    # x^(2/2) - 1 built on lattice 2 is x - 1: one key, one union factor
    k2, b2 = canonical_binomial(("x",), ((2,), 1), ((0,), -1), 2)[:2]
    k1, b1 = canonical_binomial(("x",), ((1,), 1), ((0,), -1), 1)[:2]
    assert k2 == k1 and b2 == b1
    union = {k2: (b2, 1)}
    merge_max(union, {k1: (b1, 1)})
    assert [(b.render(), m) for b, m in union.values()] == [("x-1", 1)]


def test_cancel_divides_each_factor_that_divides():
    x = ParamPoly.variable(("x", "y"), "x")
    y = ParamPoly.variable(("x", "y"), "y")
    cof = x * x + x * y + y * y
    _, den = split_binomials((x - 1) ** 2 * (x + 1) * cof)
    num = (x - 1) * cof * (y + 2)
    q, left = cancel_factors(num, den)
    assert q == y + 2
    assert sorted((f.render(), m) for f, m in left.values()) == [
        ("x+1", 1), ("x-1", 1)]
    assert cancel_factors(ParamPoly.zero(("x", "y")), den)[1] == {}


def test_clear_coeffs_clears_over_the_lcm():
    qh = ParamPoly.variable(KOORN_VARS, "qh")
    one = ParamPoly.one(KOORN_VARS)
    coeffs = {"a": ParamRat(one, qh * qh - 1), "b": ParamRat(one, qh - 1),
              "c": qh}
    union, nums = _clear_coeffs(coeffs)
    assert sorted((f.render(), m) for f, m in union.values()) == [
        ("qh+1", 1), ("qh-1", 1)]
    assert nums == {"a": one, "b": qh + 1, "c": qh * (qh * qh - 1)}


# -- the line probe of the binomial trials -----------------------------------


PROBE_VARS = ("x", "y", "w")


def trials_without_probe(terms, steps, limits):
    """``_trial_divide`` as it ran before the line probe: every trial walks
    the whole numerator."""
    counts = []
    for step, limit in zip(steps, limits):
        k = 0
        while k != limit and len(terms) > 1:
            try:
                terms = _divide_packed(terms, *step, str)
            except NotDivisible:
                break
            k += 1
        counts.append(k)
    return terms, counts


def cancel_without_probe(num, den):
    """``cancel_factors`` on ``trials_without_probe``."""
    keys = [k for k in den if isinstance(k, tuple)]
    s, unpack, terms, steps, _ = _packed_chain(num, [den[k][0] for k in keys])
    terms, counts = trials_without_probe(terms, steps,
                                         [den[k][1] for k in keys])
    num = ParamPoly(num.vars, {unpack(u): c for u, c in terms.items()}, s)
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


class ReadLog(dict):
    """A term dict that records every key read through ``get``."""

    def __init__(self, terms):
        super().__init__(terms)
        self.read = []

    def get(self, key, default=None):
        self.read.append(key)
        return super().get(key, default)


def probe_reference(terms, unpack, cS, d):
    """The probe's answer from exponent tuples: the line through the first
    term along d holds two terms or more, and sum f_j w^j over its points
    e0 + j d vanishes at w = -cS."""
    e0 = unpack(next(iter(terms)))
    i0 = next(i for i, x in enumerate(d) if x)
    line = {}
    for u, c in terms.items():
        e = unpack(u)
        j, r = divmod(e[i0] - e0[i0], d[i0])
        if not r and all(x == y + j * z for x, y, z in zip(e, e0, d)):
            line[j] = c
    low = min(line)
    value = sum(QQ(c) * QQ(-cS) ** (j - low) for j, c in line.items())
    return len(line) > 1 and value == 0


def edge_top(vars_, binoms, s, field):
    """The largest top that packs numerators on lattice s and the chain of
    binoms into fields of ``field`` bits (the exponent -1 keeps a numerator
    of the search on lattice s)."""
    n = len(vars_)
    lo, hi = 1, 2 ** field
    while hi - lo > 1:
        mid = (lo + hi) // 2
        f = ParamPoly(vars_, {(mid,) + (0,) * (n - 1): 1,
                              (-1,) + (0,) * (n - 1): 1}, s)
        width = _packed_chain(f, binoms)[3][0][-1]
        lo, hi = (mid, hi) if width <= field else (lo, mid)
    return lo


def probe_checked(terms, step, top, unpack, d):
    """``_line_vanishes`` on terms, checked against ``probe_reference``;
    every key it reads must be the packed form of a point of the line that
    lies inside the packing's fields, so that none aliases another
    exponent."""
    log = ReadLog(terms)
    got = _line_vanishes(log, step, top)
    assert got == probe_reference(terms, unpack, step[0], d)
    u = next(iter(terms))
    first = unpack(u)
    half = 1 << (step[-1] - 1)
    for v in log.read:
        j = (v - u) // step[1]
        point = tuple(x + j * y for x, y in zip(first, d))
        assert all(-half <= x < half for x in point)
        assert unpack(v) == point
    return got


def probe_binomial(draw, n, scale):
    i0 = draw(st.integers(0, n - 1))
    d = [0] * i0 + [draw(st.integers(1, 3))] + [
        draw(st.integers(-2, 2)) for _ in range(n - i0 - 1)]
    trail = draw(st.sampled_from([QQ(-1), QQ(1), -1, 1, QQ(-2, 3), QQ(3),
                                  QQ(5, 2)]))
    return canonical_binomial(PROBE_VARS[:n], (tuple(d), 1),
                              ((0,) * n, trail), scale)[1]


@st.composite
def probe_cases(draw):
    """(f, binomials, multiplicities): f = p b^k, plus one stray term or
    not, moved so that its largest absolute exponent is the largest that
    still packs the chain into one-byte fields, or into two-byte ones; the
    binomials are b and one more that may not divide."""
    n = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1, 2]))
    vars_ = PROBE_VARS[:n]
    b = probe_binomial(draw, n, scale)
    other = probe_binomial(draw, n, draw(st.sampled_from([1, 2])))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(-3, 3)] * n),
        st.sampled_from([1, -1, 2, QQ(1, 3), QQ(-7, 5)]),
        min_size=1, max_size=4))
    f = ParamPoly(vars_, terms, scale) * b ** draw(st.integers(0, 3))
    if draw(st.booleans()):
        stray = draw(st.tuples(*[st.integers(-4, 4)] * n))
        f = f + ParamPoly.monomial(vars_, stray, draw(st.sampled_from(
            [1, -1, QQ(2, 3)])), scale)
    assume(len(f) > 1)
    binoms = [b, other] if draw(st.booleans()) else [other, b]
    # put f at the largest top that packs the chain into fields of the
    # chosen width
    s = _packed_chain(f, binoms)[0]
    lo = edge_top(vars_, binoms, s, draw(st.sampled_from([8, 16])))
    # move f along one axis until its largest or least exponent there is
    # +lo or -lo on lattice s
    axis = draw(st.integers(0, n - 1))
    along = [e[axis] * (s // f.scale) for e in f.terms]
    move = [0] * n
    move[axis] = lo - max(along) if draw(st.booleans()) else -lo - min(along)
    f = f.mul_monomial(tuple(move), 1, s)
    assume(max(abs(x) for e in f.terms for x in e) * (s // f.scale) == lo)
    # the probe starts from the first term
    first = draw(st.sampled_from(sorted(f.terms)))
    f = ParamPoly(vars_, {first: f.terms[first], **f.terms}, f.scale)
    limits = [draw(st.sampled_from([None, 1, 2, 4])) for _ in binoms]
    return f, binoms, limits


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(case=probe_cases())
def test_line_probe_changes_no_trial(case):
    f, binoms, limits = case
    s, unpack, terms, steps, top = _packed_chain(f, binoms)
    width = steps[0][-1]
    # the numerator reaches the largest top its fields allow
    assert max(abs(x) for e in map(unpack, terms) for x in e) == top
    bigger = f + ParamPoly.monomial(f.vars, (top + 1,) + (0,) * (f.n - 1),
                                    1, s)
    assert _packed_chain(bigger, binoms)[3][0][-1] > width
    # the probe's answer, and the keys it reads, on every quotient of the
    # chain
    quo = terms
    for b, step, limit in zip(binoms, steps, limits):
        eL, eS = sorted(b.terms, reverse=True)
        d = tuple((x - y) * (s // b.scale) for x, y in zip(eL, eS))
        for _ in range(limit or 4):
            got = probe_checked(quo, step, top, unpack, d)
            try:
                quo = _divide_packed(quo, *step, str)
            except NotDivisible:
                break
            # a binomial that divides passes the probe
            assert got
    # the quotient and the counts are those of walking every trial
    assert _trial_divide(dict(terms), steps, limits, top) == \
        trials_without_probe(dict(terms), steps, limits)
    # and so are cancel_factors', here with a cofactor too
    den = {}
    for b, m in zip(binoms, limits):
        key = canonical_binomial(f.vars, *b.terms.items(), b.scale)[0]
        if key not in den:
            den[key] = (b, m or 3)
    cof = ParamPoly(f.vars, {(0,) * f.n: 1, (1,) + (0,) * (f.n - 1): 1,
                             (0,) * (f.n - 1) + (2,): 1})
    den[cof] = (cof, 1)
    got, left = cancel_factors(f * cof, den)
    want, want_left = cancel_without_probe(f * cof, den)
    assert got == want and got.scale == want.scale
    assert list(left.items()) == list(want_left.items())


@pytest.mark.parametrize("d,field", [((1, 2), 8), ((1, 2), 16), ((2, -2), 8),
                                     ((1, 0, -2), 8), ((3, 1, 1), 16)])
def test_line_probe_reads_inside_the_fields_at_their_edge(d, field):
    # the probe starts at the corner of the box from which the line along d
    # runs farthest: its entry i0 = 0 at -top and every other entry at the
    # top on the side d moves it away from
    n = len(d)
    vars_ = PROBE_VARS[:n]
    b = canonical_binomial(vars_, (d, 1), ((0,) * n, -1))[1]
    top = edge_top(vars_, [b], 1, field)
    corner = (-top,) + tuple(top if x > 0 else -top for x in d[1:])
    f = ParamPoly(vars_, {corner: 1, tuple(-x for x in corner): 1})
    s, unpack, terms, steps, got_top = _packed_chain(f, [b])
    assert (s, got_top, steps[0][-1]) == (1, top, field)
    assert unpack(next(iter(terms))) == corner
    assert not probe_checked(terms, steps[0], top, unpack, d)
    # two terms on one line: b itself, moved to the corner
    line = b.mul_monomial(corner)
    s, unpack, terms, steps, got_top = _packed_chain(line, [b])
    assert probe_checked(terms, steps[0], got_top, unpack, d)

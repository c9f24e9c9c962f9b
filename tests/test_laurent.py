import cmath
import random
from fractions import Fraction

import pytest

from qkoorn import laurent, ratfield
from qkoorn.errors import NotDivisible
from qkoorn.laurent import (LaurentPoly, canonical_binomial, divide_binomial,
                            exact_divide, flat_shift, flatten, shift_var,
                            unflatten)
from qkoorn.ratfield import KOORN_VARS, QQ, ParamPoly, ParamRat
from qkoorn.weightfn import QuadExt


def P(c):
    return ParamPoly.const(KOORN_VARS, c)


def test_divide_simple_binomial():
    # (z^2 - 1) / (z - 1) = z + 1
    num = LaurentPoly(1, {(2,): P(1), (0,): P(-1)})
    key, binom, m, cu, s = canonical_binomial(1, ((1,), P(1)), ((0,), P(-1)))
    q = divide_binomial(num, binom)
    assert q == LaurentPoly(1, {(1,): P(1), (0,): P(1)})


def test_divide_not_divisible():
    num = LaurentPoly(1, {(2,): P(1), (0,): P(1)})
    _, binom, _, _, _ = canonical_binomial(1, ((1,), P(1)), ((0,), P(-1)))
    with pytest.raises(NotDivisible):
        divide_binomial(num, binom)


def rand_laurent(rng, n, terms=4, span=3, scale=1):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randint(-span, span) for _ in range(n))
        c = rng.randint(-5, 5)
        if c:
            out[e] = P(c)
    return LaurentPoly(n, out, scale)


def rand_binomial(rng, n):
    while True:
        e1 = tuple(rng.randint(-2, 2) for _ in range(n))
        e2 = tuple(rng.randint(-2, 2) for _ in range(n))
        if e1 != e2:
            break
    return LaurentPoly(n, {e1: P(1), e2: P(rng.choice([1, -1, 2, -3]))})


def test_divide_product_roundtrip():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.choice([1, 2, 3])
        a = rand_laurent(rng, n)
        if a.is_zero():
            continue
        b = rand_binomial(rng, n)
        key, binom, m, cu, s = canonical_binomial(
            n, *((e, c) for e, c in b.terms.items()))
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
            n, *((e, c) for e, c in b.terms.items()))
        factors.append((binom, 1))
        prod = prod * binom
    assert exact_divide(prod, factors) == a


def test_shift_full_step_multiplies_by_q_power():
    # z^m picks up q^m under one full translation step (two half steps)
    f = LaurentPoly(1, {(3,): P(1), (0,): P(5), (-2,): P(1)})
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
    f = LaurentPoly(1, {(1,): P(1), (-1,): P(1)}, scale=2)
    sq = f * f
    assert sq == LaurentPoly(1, {(1,): P(1), (0,): P(2), (-1,): P(1)})


def test_flatten_unflatten_roundtrip():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.choice([1, 2])
        terms = {}
        for _ in range(4):
            e = tuple(rng.randint(-2, 2) for _ in range(n))
            pe = tuple(rng.randint(-2, 2) for _ in range(len(KOORN_VARS)))
            terms.setdefault(e, {})[pe] = QQ(rng.randint(1, 4))
        f = LaurentPoly(n, {e: ParamPoly(KOORN_VARS, pt)
                            for e, pt in terms.items()})
        flat = flatten(f, KOORN_VARS)
        back = unflatten(flat, n, KOORN_VARS)
        assert back == f


def test_flat_shift_moves_qh_slot():
    n = 2
    f = LaurentPoly(n + len(KOORN_VARS), {(1, 2, 0, 0, 0, 0, 0, 0): QQ(1)})
    g = flat_shift(f, (2, -2), n, n)
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
    return LaurentPoly(n, {tuple(rng.randint(-span, span) for _ in range(n)):
                           rand_rational(rng, kind) for _ in range(terms)})


def rational_binomial(rng, n, trail):
    """A canonical binomial z^eL + trail z^eS with rational coefficients."""
    while True:
        e1 = tuple(rng.randint(-2, 2) for _ in range(n))
        e2 = tuple(rng.randint(-2, 2) for _ in range(n))
        if e1 > e2:
            break
    binom = canonical_binomial(n, (e1, QQ(1)), (e2, trail))[1]
    assert trail in binom.terms.values()
    return binom


@pytest.fixture
def cleared(monkeypatch):
    """Record, for every kernel call, whether it took the integer path."""
    seen = []
    original = ratfield._cleared

    def spy(terms):
        got = original(terms)
        seen.append(got is not None)
        return got
    monkeypatch.setattr(ratfield, "_cleared", spy)
    monkeypatch.setattr(laurent, "_cleared", spy)
    return seen


def fraction_terms(f):
    return {e: Fraction(c) for e, c in f.terms.items()}


@pytest.mark.parametrize("kind", ["int", "frac", "mixed"])
@pytest.mark.parametrize("trail", [QQ(-1), QQ(3), QQ(-1, 3)])
def test_rational_divide_roundtrip(kind, trail, cleared):
    rng = random.Random(31)
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
            assert type(c) is QQ
    assert all(cleared)


def test_not_divisible_on_integer_path(cleared):
    rng = random.Random(37)
    for _ in range(20):
        n = rng.choice([1, 2])
        binom = rational_binomial(rng, n, QQ(rng.choice([-2, -1, 1, 5])))
        prod = rand_rational_laurent(rng, n, "mixed") * binom
        # a monomial is never a multiple of a binomial
        bad = prod + LaurentPoly.monomial(n, (7,) * n, QQ(1, 2))
        del cleared[:]
        with pytest.raises(NotDivisible):
            divide_binomial(bad, binom)
        assert cleared == [True]


def param_lift(f):
    return LaurentPoly(f.n, {e: P(c) for e, c in f.terms.items()}, f.scale)


def test_param_coefficients_take_generic_path():
    rng = random.Random(41)
    for _ in range(15):
        n = rng.choice([1, 2])
        p = rand_rational_laurent(rng, n, "mixed")
        binom = rational_binomial(rng, n, QQ(rng.choice([-1, 2])))
        prod = param_lift(p) * param_lift(binom)
        assert prod == param_lift(p * binom)
        pbinom = canonical_binomial(
            n, *((e, P(c)) for e, c in binom.terms.items()))[1]
        assert divide_binomial(prod, pbinom) == param_lift(p)


def test_quadext_coefficients_take_generic_path():
    rng = random.Random(43)
    H = QQ(5, 4)
    for _ in range(15):
        n = rng.choice([1, 2])
        x = rand_rational_laurent(rng, n, "mixed")
        y = x * LaurentPoly.const(n, QQ(-2, 3))
        f = LaurentPoly(n, {e: QuadExt(c, y.terms[e], H)
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
    # an int leaking out of a kernel would turn 1 / c into float division
    # in ParamRat's normalization
    mono = ParamPoly.variable(KOORN_VARS, "qh") * ParamPoly.const(KOORN_VARS, 3)
    assert all(type(c) is QQ for c in mono.terms.values())
    r = ParamRat(ParamPoly.one(KOORN_VARS), mono)
    assert r.num.terms == {(-1, 0, 0, 0, 0, 0): QQ(1, 3)}
    binom = canonical_binomial(1, ((1,), QQ(1)), ((0,), QQ(-2)))[1]
    prod = binom * LaurentPoly.const(1, QQ(2))
    q = divide_binomial(prod, binom)
    assert q.terms == {(0,): QQ(2)}
    for c in list(prod.terms.values()) + list(q.terms.values()):
        assert type(c) is QQ
        assert type(1 / c) is QQ

import math
import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkoorn.errors import NotInvariant
from qkoorn.laurent import torus_vars
from qkoorn.ratfield import KOORN_VARS, ParamPoly
from qkoorn.weights import (EVEN_SIGNS, HYPEROCTAHEDRAL, PERMUTATIONS_ONLY,
                            dominance_leq, dominant_rep, expand_in_monomials,
                            linear_refinement, monomial_symmetric,
                            weights_below, worbit)


def test_dominance_examples():
    assert dominance_leq((1, 1), (2, 0))
    assert not dominance_leq((2, 0), (1, 1))
    for lam in [(0,), (3, 1), (2, 2, 1)]:
        assert dominance_leq(lam, lam)


def test_dominance_partial_order_random():
    rng = random.Random(4)
    pool = [tuple(sorted((rng.randint(0, 4) for _ in range(3)), reverse=True))
            for _ in range(40)]
    for a in pool:
        for b in pool:
            if dominance_leq(a, b) and dominance_leq(b, a):
                assert a == b
            for c in pool:
                if dominance_leq(a, b) and dominance_leq(b, c):
                    assert dominance_leq(a, c)


def brute_weights_below(lam):
    n = len(lam)
    top = sum(lam)
    out = []
    for cand in product(range(top + 1), repeat=n):
        if list(cand) != sorted(cand, reverse=True):
            continue
        if dominance_leq(cand, lam):
            out.append(tuple(cand))
    return sorted(out)


def test_weights_below_brute_force():
    for lam in [(2, 0), (3, 1), (2, 1, 0), (2, 2), (4,), (1, 1, 1)]:
        assert weights_below(lam) == brute_weights_below(lam)


def test_weights_below_examples():
    assert weights_below((2, 0)) == [(0, 0), (1, 0), (1, 1), (2, 0)]
    assert weights_below((0, 0, 0)) == [(0, 0, 0)]
    assert weights_below((3,)) == [(0,), (1,), (2,), (3,)]


def test_weights_below_downward_closed():
    for lam in [(2, 1), (2, 1, 0)]:
        below = weights_below(lam)
        for mu in below:
            for nu in weights_below(mu):
                assert nu in below


def test_orbits():
    assert worbit((1, 0)) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert worbit((1, 1), PERMUTATIONS_ONLY) == [(1, 1)]
    assert len(worbit((2, 1))) == 8
    # brute check against signed permutations
    seen = set()
    for perm in [(2, 1), (1, 2)]:
        for s1 in (1, -1):
            for s2 in (1, -1):
                seen.add((s1 * perm[0], s2 * perm[1]))
    assert set(worbit((2, 1))) == seen


def test_orbit_size_divides_group_order():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.choice([1, 2, 3])
        w = tuple(rng.randint(0, 3) for _ in range(n))
        size = len(worbit(w))
        assert (2 ** n * math.factorial(n)) % size == 0


def test_even_sign_orbit():
    orb = worbit((1, 1), EVEN_SIGNS)
    assert (1, 1) in orb and (-1, -1) in orb and (1, -1) not in orb
    assert worbit((1, -1), EVEN_SIGNS) == [(-1, 1), (1, -1)]
    # a zero entry makes an odd number of sign changes free
    assert worbit((1, 0), EVEN_SIGNS) == worbit((1, 0))
    assert len(worbit((2, 1, 0), EVEN_SIGNS)) == 24
    assert dominant_rep((-1, 2), EVEN_SIGNS) == (2, -1)
    assert dominant_rep((-1, -2), EVEN_SIGNS) == (2, 1)
    assert dominant_rep((0, -2), EVEN_SIGNS) == (2, 0)


GROUPS = (HYPEROCTAHEDRAL, PERMUTATIONS_ONLY, EVEN_SIGNS)
ORBITS = settings(derandomize=True, database=None, deadline=None,
                  max_examples=60)
_points = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(tuple)


def _group_orbit(e, group):
    """The orbit of e straight from the group's elements: permutations,
    with every sign vector (BC), none (A) or those of product 1 (D)."""
    signs = [s for s in product((1, -1), repeat=len(e))
             if group == HYPEROCTAHEDRAL
             or group == EVEN_SIGNS and math.prod(s) == 1
             or not any(x < 0 for x in s)]
    return {tuple(s[i] * x for i, x in enumerate(p))
            for p in permutations(e) for s in signs}


@ORBITS
@given(_points, st.sampled_from(GROUPS))
def test_orbit_is_the_group_orbit(e, group):
    orb = worbit(e, group)
    assert set(orb) == _group_orbit(e, group)
    if group == EVEN_SIGNS:
        # the BC orbit, or half of it when no entry is 0
        bc = len(worbit(e))
        assert len(orb) == (bc if 0 in e else bc // 2)


@ORBITS
@given(_points, st.sampled_from(GROUPS))
def test_dominant_rep_is_constant_on_the_orbit(e, group):
    lam = dominant_rep(e, group)
    assert lam in worbit(e, group)
    assert {dominant_rep(x, group) for x in worbit(e, group)} == {lam}


@ORBITS
@given(_points, st.sampled_from(GROUPS))
def test_monomial_expands_to_itself(e, group):
    lam = dominant_rep(e, group)
    one = ParamPoly.one(KOORN_VARS)
    assert expand_in_monomials(monomial_symmetric(lam, group),
                               group) == {lam: one}


def test_monomial_symmetric():
    one = ParamPoly.one(KOORN_VARS)
    m0 = monomial_symmetric((0, 0))
    assert m0 == ParamPoly(torus_vars(2), {(0, 0): one})
    m1 = monomial_symmetric((1,))
    assert m1 == ParamPoly(torus_vars(1), {(1,): one, (-1,): one})
    m11 = monomial_symmetric((1, 1))
    assert set(m11.terms) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_expand_in_monomials():
    one = ParamPoly.one(KOORN_VARS)
    m = monomial_symmetric((2, 1))
    assert expand_in_monomials(m) == {(2, 1): one}
    # (z + 1/z)^2 = m_(2) + 2 m_(0)
    m1 = monomial_symmetric((1,))
    sq = m1 * m1
    exp = expand_in_monomials(sq)
    assert exp == {(2,): one, (0,): one + one}


def test_expand_roundtrip_random():
    rng = random.Random(12)
    for _ in range(10):
        weights = {tuple(sorted((rng.randint(0, 3) for _ in range(2)),
                                reverse=True)) for _ in range(3)}
        combo = None
        want = {}
        for w in weights:
            c = ParamPoly.const(KOORN_VARS, rng.randint(1, 5))
            want[w] = c
            piece = monomial_symmetric(w).map_coeff(lambda u, c=c: c * u)
            combo = piece if combo is None else combo + piece
        assert expand_in_monomials(combo) == want


def test_expand_rejects_non_invariant():
    one = ParamPoly.one(KOORN_VARS)
    z1 = ParamPoly(torus_vars(2), {(1, 0): one})
    with pytest.raises(NotInvariant):
        expand_in_monomials(z1)


@pytest.mark.parametrize("n,terms,group", [
    # a ragged orbit: both members present, coefficients unequal
    (1, {(1,): 1, (-1,): 2}, HYPEROCTAHEDRAL),
    (2, {(1, 0): 1, (0, 1): 2}, PERMUTATIONS_ONLY),
    # sign-invariant but not permutation-invariant
    (2, {(1, 0): 1, (-1, 0): 1}, HYPEROCTAHEDRAL),
    (2, {(2, 1): 1, (1, 2): 1, (0, 0): 3, (1, 0): 1}, PERMUTATIONS_ONLY),
])
def test_expand_peel_decides_invariance(n, terms, group):
    one = ParamPoly.one(KOORN_VARS)
    f = ParamPoly(torus_vars(n), {e: one * c for e, c in terms.items()})
    with pytest.raises(NotInvariant):
        expand_in_monomials(f, group)


def test_linear_refinement():
    assert linear_refinement([(2, 0), (1, 1)]) == [(1, 1), (2, 0)]
    assert linear_refinement([(3, 1)]) == [(3, 1)]
    ws = weights_below((3, 1))
    for style in ("lex", "graded"):
        order = linear_refinement(ws, style)
        for i, a in enumerate(order):
            for b in order[i + 1:]:
                # nothing later is strictly below anything earlier
                assert not (dominance_leq(b, a) and a != b)
    # the two refinements genuinely differ somewhere
    ws2 = weights_below((4, 0)) + [(2, 2)]
    ws2 = sorted(set(ws2))
    assert linear_refinement(ws2, "lex") != linear_refinement(ws2, "graded")

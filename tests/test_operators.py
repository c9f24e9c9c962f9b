import cmath
import json
import math
import random
from itertools import combinations, product

import pytest

from qkoorn.errors import NotInvariant
from qkoorn.laurent import (LaurentRat, _grouped_sum, divide_factors,
                            flat_shift, flatten, merge_max, torus_vars)
from qkoorn.operators import (IDENTITY, OperatorSpec, ParamMap,
                              apply_operator, apply_one_var, apply_to_monomial,
                              commutator_on_basis, elementary_symmetric_apply,
                              operator_matrix, point_value, pointwise_apply,
                              va_factor, vb_factor, _QH, _VB_SHAPES,
                              _apply_staged, _engine, _support)
from qkoorn.ratfield import JACOBI_VARS, KOORN_VARS, QQ, ParamPoly, ParamRat
from qkoorn.spectra import eigenvalue_Ern, eigenvalue_jacobi
from qkoorn.weights import (HYPEROCTAHEDRAL, PERMUTATIONS_ONLY, dominance_leq,
                            expand_in_monomials, is_invariant,
                            monomial_symmetric, weights_below)

FLAT1 = torus_vars(1) + KOORN_VARS


def _rat_value(rat, zvals, pvals):
    """Evaluate a flat-coefficient LaurentRat numerically (complex)."""
    def poly_val(p):
        tot = 0j
        for e, c in p.terms.items():
            term = complex(c)
            for x, k in zip(zvals + pvals, e):
                term *= x ** (QQ(k) / p.scale)
            tot += term
        return tot

    val = poly_val(rat.num)
    for _, (b, m) in rat.den.items():
        for _ in range(m):
            val /= poly_val(b)
    return val


def test_va_trivial_and_closed_form():
    th1 = ParamMap({"th": "1"})
    one = va_factor(FLAT1, 1, (1,), 0, th1)
    assert one.num == ParamPoly.const(FLAT1, QQ(1)) and not one.den
    rng = random.Random(42)
    for _ in range(20):
        beta = rng.uniform(0.2, 1.2)
        g = rng.uniform(0.1, 2.0)
        z = rng.uniform(0.2, 2.8)
        th = math.exp(-beta * g / 2)
        w = cmath.exp(1j * z)
        va = va_factor(FLAT1, 1, (1,), 0, IDENTITY)
        got = _rat_value(va, [w], [math.exp(-beta / 2), th, 1, 1, 1, 1])
        want = cmath.sin((1j * beta * g + z) / 2) / cmath.sin(z / 2)
        assert abs(got - want) < 1e-9


def test_va_shifted_argument_is_q_times_w():
    # the half-period-shifted ratio equals the plain one at argument q*w
    va0 = va_factor(FLAT1, 1, (1,), 0, IDENTITY)
    va1 = va_factor(FLAT1, 1, (1,), 1, IDENTITY)
    rng = random.Random(3)
    for _ in range(10):
        beta, g, z = rng.uniform(0.2, 1.0), rng.uniform(0.1, 2.0), \
            rng.uniform(0.3, 2.5)
        qh = math.exp(-beta / 2)
        th = math.exp(-beta * g / 2)
        w = cmath.exp(1j * z)
        pv = [qh, th, 1, 1, 1, 1]
        assert abs(_rat_value(va1, [w], pv) -
                   _rat_value(va0, [qh * qh * w], pv)) < 1e-9


def test_vb_trivial_and_closed_form():
    triv = ParamMap({"ga": "1", "gb": "1", "gc": "1", "gd": "1"})
    one = vb_factor(FLAT1, 1, 0, 1, triv)
    assert one.num == ParamPoly.const(FLAT1, QQ(1)) and not one.den
    rng = random.Random(7)
    for _ in range(20):
        beta = rng.uniform(0.2, 1.0)
        g0, g1, g0p, g1p = (rng.uniform(0.1, 1.5) for _ in range(4))
        z = rng.uniform(0.3, 2.7)
        pv = [math.exp(-beta / 2), 1.0, math.exp(-beta * g0 / 2),
              math.exp(-beta * g1 / 2), math.exp(-beta * g0p / 2),
              math.exp(-beta * g1p / 2)]
        w = [cmath.exp(1j * z)]
        gamma = 1j * beta / 2
        mus = [1j * beta * g0, 1j * beta * g1, 1j * beta * g0p,
               1j * beta * g1p]
        wants = [cmath.sin((mus[0] + z) / 2) / cmath.sin(z / 2),
                 cmath.cos((mus[1] + z) / 2) / cmath.cos(z / 2),
                 cmath.sin((mus[2] + gamma + z) / 2)
                 / cmath.sin((gamma + z) / 2),
                 cmath.cos((mus[3] + gamma + z) / 2)
                 / cmath.cos((gamma + z) / 2)]
        # each of the four ratios on its own, then their product
        for shape, want in zip(_VB_SHAPES, wants):
            got = _rat_value(vb_factor(FLAT1, 1, 0, 1, IDENTITY,
                                       shapes=(shape,)), w, pv)
            assert abs(got - want) < 1e-8
        vb = vb_factor(FLAT1, 1, 0, 1, IDENTITY)
        assert abs(_rat_value(vb, w, pv) - math.prod(wants)) < 1e-8


def test_vb_half_period_covariance():
    # w -> -w is the swap ga<->gb, gc<->gd
    vb = vb_factor(FLAT1, 1, 0, 1, IDENTITY)

    def negate_odd(p):
        out = {}
        for e, c in p.terms.items():
            sign = -1 if e[0] % 2 else 1
            out[e] = c * sign
        return ParamPoly(p.vars, out, p.scale)

    def swap(p):
        # exchange the ga/gb and gc/gd exponent slots
        out = {}
        for e, c in p.terms.items():
            e2 = (e[0], e[1], e[2], e[4], e[3], e[6], e[5])
            out[e2] = c
        return ParamPoly(p.vars, out, p.scale)

    lhs = LaurentRat(negate_odd(vb.num),
                     dict(vb.den))
    # compare as rational functions: cross-multiply numerators against the
    # swapped denominators
    rhs_num = swap(vb.num)
    lhs_num = negate_odd(vb.num)
    den_prod = ParamPoly.const(FLAT1, QQ(1))
    for _, (b, m) in vb.den.items():
        for _ in range(m):
            den_prod = den_prod * b
    swapped_den = swap(den_prod)
    neg_den = negate_odd(den_prod)
    assert lhs_num * swapped_den == rhs_num * neg_den


# ---------------------------------------------------------------------------
# the chain-sum oracle: the translator-free coefficients written literally
# as alternating sums over chains of index sets


def ordered_set_partitions(elems):
    """All chains of strictly increasing subsets ending at the full set,
    listed as tuples of blocks, deterministic order."""
    elems = tuple(elems)
    if not elems:
        return []
    out = []
    idx = list(range(len(elems)))

    def rec(rest, acc):
        if not rest:
            out.append(tuple(acc))
            return
        for r in range(1, len(rest) + 1):
            for block in combinations(rest, r):
                remaining = tuple(x for x in rest if x not in block)
                acc.append(block)
                rec(remaining, acc)
                acc.pop()

    rec(elems, [])
    return out


def _random_point(rng, n):
    """Random nonzero rationals for z_1..z_n and the six half-parameters."""
    return tuple(QQ(rng.choice((1, -1)) * rng.randint(1, 97),
                    rng.randint(2, 89)) for _ in range(n + len(KOORN_VARS)))


def _poly_at(p, point):
    assert p.scale == 1
    total = QQ(0)
    for e, c in p.terms.items():
        term = QQ(c)
        for x, k in zip(point, e):
            if k:
                term *= x ** k
        total += term
    return total


def _rat_at(rat, point):
    """A flat LaurentRat at a rational point: the numerator over each
    denominator binomial, every one evaluated on its own."""
    val = _poly_at(rat.num, point)
    for b, m in rat.den.values():
        d = _poly_at(b, point)
        assert d, "the point is a pole"
        val /= d ** m
    return val


def _factors_at(eng, point):
    """The engine's factors at the point, each evaluated once: a function
    of ("inner", J, eps, shift), ("vb", j, e) or ("couplings", j, e, K)."""
    build = {"inner": eng.inner, "couplings": eng.couplings,
             "vb": lambda j, e: vb_factor(eng.vars, eng.n, j, e, eng.params)}
    memo = {}

    def at(*key):
        if key not in memo:
            memo[key] = _rat_at(build[key[0]](*key[1:]), point)
        return memo[key]
    return at


def _V_at(at, J, eps, K, shift=1):
    """``eng.V(J, eps, K, shift)`` at the point, factor by factor."""
    val = at("inner", J, eps, shift)
    for j, e in zip(J, eps):
        val *= at("vb", j, e) * at("couplings", j, e, K)
    return val


def _chain_sum_at(at, L, eps, K, nucleus=None, externals=True):
    """The alternating sum over chains (B_1, ..., B_k) of L, B_1 = nucleus
    when one is given, of (-1)^k times the product of the V(B_i, eps,
    K minus (B_1 u ... u B_i)), at the point; without the externals v_b
    when ``externals`` is false."""
    emap = dict(zip(L, eps))
    total = QQ(0)
    for chain in ordered_set_partitions(L):
        if nucleus is not None and chain[0] != nucleus:
            continue
        term = QQ((-1) ** len(chain))
        seen = []
        for block in chain:
            seen.extend(block)
            rest = tuple(x for x in K if x not in seen)
            beps = tuple(emap[b] for b in block)
            if externals:
                term *= _V_at(at, block, beps, rest)
            else:
                term *= at("inner", block, beps, 1)
                for b, e in zip(block, beps):
                    term *= at("couplings", b, e, rest)
        total += term
    return total


def _nested_at(spec, f, point):
    """D_r f at the point through the nested-chain form: the sum over cells
    J, sign configurations eps and ordered block chains of J of the V
    products along the chain, with the translator acting on the first block
    only, each V evaluated factor by factor."""
    n, r = spec.n, spec.r
    z, halfparams = point[:n], point[n:]
    q = halfparams[0] ** 2
    at = _factors_at(_engine(n, spec.params), point)
    f_at_z = point_value(f, z, halfparams)
    total = QQ(0)
    for J in combinations(range(n), r):
        for eps in product((1, -1), repeat=r):
            emap = dict(zip(J, eps))
            for chain in ordered_set_partitions(J):
                coeff = QQ(1 if len(chain) % 2 else -1)
                seen = []
                for block in chain:
                    seen.extend(block)
                    comp = tuple(x for x in range(n) if x not in seen)
                    coeff *= _V_at(at, block, tuple(emap[b] for b in block),
                                   comp)
                moved = [x * q ** emap[j] if j in chain[0] else x
                         for j, x in enumerate(z)]
                total += coeff * (point_value(f, moved, halfparams) - f_at_z)
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("params", [IDENTITY,
                                    ParamMap({"gc": "ga", "gd": "gb"})],
                         ids=["identity", "BCn:Cn"])
def test_chain_sum_is_one_closed_product(n, params):
    # for every L in K = {1..n} and signs eps on L, the chain sum over L
    # equals (-1)^|L| V(L, eps, K minus L) with the reflected pairs
    eng = _engine(n, params)
    rng = random.Random(1000 + n)
    K = tuple(range(n))
    for _ in range(2):
        at = _factors_at(eng, _random_point(rng, n))
        for size in range(1, n + 1):
            for L in combinations(K, size):
                rest = tuple(x for x in K if x not in L)
                for eps in product((1, -1), repeat=size):
                    closed = (-1) ** size * _V_at(at, L, eps, rest, -1)
                    assert _chain_sum_at(at, L, eps, K) == closed


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("params", [IDENTITY,
                                    ParamMap({"gc": "ga", "gd": "gb"})],
                         ids=["identity", "BCn:Cn"])
def test_closed_forms_match_chain_sums(n, params):
    # the engine's nucleus sums, against the chain sums they replace
    eng = _engine(n, params)
    point = _random_point(random.Random(2000 + n), n)
    at = _factors_at(eng, point)
    K = tuple(range(n))
    for size in range(1, n + 1):
        for J in combinations(K, size):
            for eps in product((1, -1), repeat=size):
                den, groups = eng.nucleus_groups(J, eps)
                assert set(groups) == {B[0] for B in ordered_set_partitions(J)}
                dval = _rat_at(LaurentRat(ParamPoly.const(eng.vars, 1),
                                          den), point)
                for I, num in groups.items():
                    assert _poly_at(num, point) * dval == -_chain_sum_at(
                        at, J, eps, J, nucleus=I, externals=False)


def test_ordered_set_partitions_counts():
    assert len(ordered_set_partitions((0,))) == 1
    assert len(ordered_set_partitions((0, 1))) == 3
    assert len(ordered_set_partitions((0, 1, 2))) == 13
    assert len(ordered_set_partitions((0, 1, 2, 3))) == 75


def test_W_reduction_at_trivial_internal_coupling():
    # at th = 1 the chain sums collapse to (-1)^p times the plain sum of
    # external products over p-subsets (the sign-sum lemma)
    th1 = ParamMap({"th": "1"})
    rng = random.Random(11)
    for n in (2, 3):
        at = _factors_at(_engine(n, th1), _random_point(rng, n))
        K = tuple(range(n))
        for p in range(1, n + 1):
            chains = externals = QQ(0)
            for L in combinations(K, p):
                for eps in product((1, -1), repeat=p):
                    chains += _chain_sum_at(at, L, eps, K)
                    externals += math.prod(at("vb", j, e)
                                           for j, e in zip(L, eps))
            assert chains == (-1) ** p * externals


def test_annihilates_constants():
    for n in (1, 2, 3):
        one = monomial_symmetric((0,) * n)
        for r in range(1, n + 1):
            spec = OperatorSpec("koornwinder", n, r)
            assert apply_operator(spec, one).is_zero()


def test_rank_one_eigen_n1():
    spec = OperatorSpec("koornwinder", 1, 1)
    img = apply_operator(spec, monomial_symmetric((1,)))
    exp = expand_in_monomials(img)
    assert set(exp) == {(0,), (1,)}
    assert exp[(1,)] == eigenvalue_Ern(1, 1, (1,))


def test_decoupling_to_elementary_symmetric():
    th1 = ParamMap({"th": "1"})
    n = 2
    for lam in [(1, 1), (2, 0), (2, 1)]:
        m = monomial_symmetric(lam)
        for r in (1, 2):
            lhs = apply_operator(OperatorSpec("koornwinder", n, r, th1), m)
            rhs = elementary_symmetric_apply(r, m, th1)
            assert lhs == rhs


def test_operator_matrix_shape():
    spec = OperatorSpec("koornwinder", 2, 1)
    m0 = operator_matrix(spec, (0, 0))
    assert list(m0) == [(0, 0)] and not m0[(0, 0)]
    lam = (2, 1)
    for r in (1, 2):
        mat = operator_matrix(OperatorSpec("koornwinder", 2, r), lam)
        for mu, row in mat.items():
            for nu, val in row.items():
                assert dominance_leq(nu, mu)
                if nu == mu:
                    assert val == eigenvalue_Ern(r, 2, mu)


def test_commutators_vanish():
    c = commutator_on_basis(OperatorSpec("koornwinder", 2, 1),
                            OperatorSpec("koornwinder", 2, 2), (1, 1))
    assert c.is_zero()
    c = commutator_on_basis(OperatorSpec("a_type", 3, 1),
                            OperatorSpec("a_type", 3, 2), (1, 1, 0))
    assert c.is_zero()
    c = commutator_on_basis(OperatorSpec("koornwinder", 2, 1),
                            OperatorSpec("koornwinder", 2, 1), (2, 0))
    assert c.is_zero()


def test_form_equivalence_small():
    # the staged image against the pointwise U V T form at random points,
    # and against the nested-chain form at the same points
    rng = random.Random(5)
    for top in ((2,), (2, 1), (2, 0, 0)):
        n = len(top)
        for lam in weights_below(top):
            m = monomial_symmetric(lam)
            for r in range(1, n + 1):
                spec = OperatorSpec("koornwinder", n, r)
                image = apply_operator(spec, m)
                checked = 0
                while checked < 2:
                    point = _random_point(rng, n)
                    z, halfparams = point[:n], point[n:]
                    try:
                        want = pointwise_apply(spec, m, z, halfparams)
                    except ZeroDivisionError:  # a pole of some term
                        continue
                    got = point_value(image, z, halfparams)
                    assert got == want
                    if sum(lam) <= 2:
                        assert got == _nested_at(spec, m, point)
                    checked += 1


@pytest.mark.parametrize("mapping", [
    {"gc": "ga", "gd": "gb"}, {"th": "1"}, {"gb": "qh", "gd": "5/3"},
    {"ga": "1", "gb": "1", "gc": "1", "gd": "1"}])
def test_pointwise_apply_reads_the_parameter_map(mapping):
    # the evaluator takes each parameter's image from the map, as the staged
    # path substitutes it
    params = ParamMap(mapping)
    rng = random.Random(7)
    for lam in ((1, 0), (1, 1), (2, 0)):
        m = monomial_symmetric(lam)
        for r in (1, 2):
            spec = OperatorSpec("koornwinder", 2, r, params)
            image = apply_operator(spec, m)
            point = _random_point(rng, 2)
            assert point_value(image, point[:2], point[2:]) == \
                pointwise_apply(spec, m, point[:2], point[2:])


def _staged_cell_branches(eng, J, f_flat):
    """The staged cell with no symmetry used: every one of the 2^r sign
    branches built from its own nucleus sums, and the signs summed out one
    variable at a time over a state per remaining sign tuple.  Returns
    (numerator, cross-cell factors)."""
    n = eng.n
    r = len(J)
    Jc = tuple(x for x in range(n) if x not in J)

    def vb_split(j, e):
        rat = vb_factor(eng.vars, n, j, e, eng.params)
        zunit, qhunit = {}, {}
        for k, bm in rat.den.items():
            (qhunit if _support(k, n)[1] else zunit)[k] = bm
        return rat.num, zunit, qhunit

    reduced = []
    for eps in product((1, -1), repeat=r):
        den, groups = eng.nucleus_groups(J, eps)
        emap = dict(zip(J, eps))
        num = None
        for nucleus, gnum in groups.items():
            steps = [0] * n
            for j in nucleus:
                steps[j] = 2 * emap[j]
            piece = gnum * (flat_shift(f_flat, tuple(steps), n + _QH)
                            + (-f_flat))
            num = piece if num is None else num + piece
        plain, qpairs = {}, {}
        for k, bm in den.items():
            (qpairs if _support(k, n)[1] else plain)[k] = bm
        for j, e in zip(J, eps):
            qpairs.update(vb_split(j, e)[2])
        reduced.append((eps, 1, LaurentRat(divide_factors(num, qpairs),
                                           plain)))
    pending_pairs, state = _grouped_sum(reduced)
    cross_den = {}
    for pos, j in enumerate(J):
        branches = {e: (vb_split(j, e), eng.couplings(j, e, Jc))
                    for e in (1, -1)}
        (_, zdiv, _), couple = branches[1]
        assert set(branches[-1][0][1]) == set(zdiv)
        assert set(branches[-1][1].den) == set(couple.den)
        merge_max(cross_den, couple.den)
        done = set(J[: pos + 1])
        ready = {k: bm for k, bm in pending_pairs.items()
                 if done.issuperset(_support(k, n)[0])}
        for k in ready:
            del pending_pairs[k]
        newstate = {}
        for rest in product((1, -1), repeat=r - pos - 1):
            total = None
            for e in (1, -1):
                (vnum, _, _), crat = branches[e]
                piece = state[(e,) + rest] * vnum * crat.num
                total = piece if total is None else total + piece
            newstate[rest] = divide_factors(total, {**zdiv, **ready})
        state = newstate
    return divide_factors(state[()], pending_pairs), cross_den


@pytest.mark.parametrize("params", [IDENTITY,
                                    ParamMap({"gc": "ga", "gd": "gb"})],
                         ids=["identity", "BCn:Cn"])
def test_staged_orbit_matches_every_cell(params):
    # one sign branch of one cell, mapped to the rest, against every cell
    # and every sign branch computed from scratch and summed over the cells'
    # union
    eng = _engine(3, params)
    for lam in ((1, 1, 0), (2, 0, 0), (1, 1, 1)):
        flat = flatten(monomial_symmetric(lam), KOORN_VARS)
        for r in (1, 2, 3):
            union, total = _grouped_sum([
                (None, 1, LaurentRat(*_staged_cell_branches(eng, J, flat)))
                for J in combinations(range(3), r)])
            spec = OperatorSpec("koornwinder", 3, r, params)
            assert _apply_staged(spec, flat) == divide_factors(total[None],
                                                               union)


@pytest.mark.parametrize("value", ["0", "0*ga", "ga-ga"])
def test_zero_parameter_image_is_refused(value):
    with pytest.raises(ValueError, match="invertible"):
        ParamMap({"th": value})


def test_parameter_map_refusals_and_json_round_trip():
    for mapping, error, match in (
            ({"qh": "1"}, ValueError, "scale parameter"),
            ({"gb": 1.5}, TypeError, "bad parameter image"),
            ({"gb": "ga+1"}, ValueError, "plain monomials"),
            ({"gb": "qh^(1/2)"}, ValueError, "plain monomials")):
        with pytest.raises(error, match=match):
            ParamMap(mapping)
    spec = OperatorSpec("koornwinder", 2, 1,
                        ParamMap({"gb": "5/3", "gc": "ga", "th": "th"}))
    data = spec.to_json()
    assert data["params"] == {"gb": "5/3", "gc": "ga"}
    back = OperatorSpec.from_json(json.loads(json.dumps(data)))
    assert back.key == spec.key and back.params == spec.params
    assert back.params.image("gb") == ((0,) * 6, QQ(5, 3))


def test_staged_path_refuses_non_permutation_invariant_input():
    # z_1 + 1/z_1 is invariant under z_1 -> 1/z_1, not under z_1 <-> z_2
    one = ParamPoly.one(KOORN_VARS)
    f = ParamPoly(torus_vars(3), {(1, 0, 0): one, (-1, 0, 0): one})
    with pytest.raises(NotInvariant):
        apply_operator(OperatorSpec("koornwinder", 3, 1), f)


def test_staged_path_refuses_non_flip_invariant_input():
    # z_1 + z_2 + z_3 is invariant under permutations, not under z_1 -> 1/z_1
    one = ParamPoly.one(KOORN_VARS)
    f = ParamPoly(torus_vars(3),
                  {(1, 0, 0): one, (0, 1, 0): one, (0, 0, 1): one})
    with pytest.raises(NotInvariant):
        apply_operator(OperatorSpec("koornwinder", 3, 1), f)


def test_output_invariance_and_polynomiality():
    for lam in [(2, 0), (2, 1)]:
        for r in (1, 2):
            img = apply_to_monomial(OperatorSpec("koornwinder", 2, r), lam)
            assert is_invariant(img, HYPEROCTAHEDRAL, 2)


def test_rejects_non_invariant_input():
    z1 = ParamPoly(torus_vars(2), {(1, 0): ParamPoly.one(KOORN_VARS)})
    with pytest.raises(NotInvariant):
        apply_operator(OperatorSpec("koornwinder", 2, 1), z1)


def test_a_type_top_order_is_pure_translation():
    # the order-n operator of the permutation family translates every
    # variable: the image of a degree-d leading polynomial is q^d times it
    for n, lam in ((2, (2, 1)), (3, (1, 1, 0))):
        f = monomial_symmetric(lam, PERMUTATIONS_ONLY)
        img = apply_operator(OperatorSpec("a_type", n, n), f)
        q_d = ParamPoly.variable(KOORN_VARS, "qh", 2 * sum(lam))
        assert img == f.map_coeff(lambda c: c * q_d)


def test_one_var_operator_matches_rank_one_at_n1():
    m = monomial_symmetric((2,))
    assert apply_one_var(m, 0) == apply_operator(
        OperatorSpec("koornwinder", 1, 1), m)


def test_jacobi_operator_n1():
    spec = OperatorSpec("jacobi", 1)
    m1 = monomial_symmetric((1,), one=ParamPoly.one(JACOBI_VARS))
    img = apply_operator(spec, m1)
    exp = expand_in_monomials(img)
    assert exp[(1,)] == eigenvalue_jacobi(1, 1, (1,))
    # theta^2 + couplings: the zero-weight coefficient is 2(tg0 - tg1)
    t0 = ParamPoly.variable(JACOBI_VARS, "tg0")
    t1 = ParamPoly.variable(JACOBI_VARS, "tg1")
    assert exp[(0,)] == (t0 - t1) * 2


def test_jacobi_matrix_diagonal():
    lam = (2, 1)
    mat = operator_matrix(OperatorSpec("jacobi", 2), lam)
    for mu in mat:
        diag = mat[mu].get(mu, ParamPoly.zero(JACOBI_VARS))
        assert diag == eigenvalue_jacobi(1, 2, mu)


def test_operator_spec_json_roundtrip():
    spec = OperatorSpec("koornwinder", 2, 2, ParamMap({"th": "1"}))
    data = spec.to_json()
    assert data["kind"] == "Dr" and data["r"] == 2 and data["group"] == "BC"
    back = OperatorSpec.from_json(data)
    assert back.key == spec.key
    spin = OperatorSpec("c_spin", 3)
    assert OperatorSpec.from_json(spin.to_json()).key == spin.key

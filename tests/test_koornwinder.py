import random
from itertools import product

import pytest

from qkoorn.errors import NotEigenfunction, ZeroDenominator
from qkoorn.koornwinder import (FAMILY_PAIRS, OrthoPoly, a_type_eigen_check,
                                anti_periodic_params, bn_antiperiodic,
                                dn_combine, evaluate_jacobi_coeffs,
                                family_specialize, halfspin_eigencheck,
                                jacobi_triangular, koornwinder_triangular,
                                macdonald_An_extract, proportionality_factor,
                                qh1_limit, relm_constant, spin_monomial,
                                verify_joint_eigen)
from qkoorn.operators import (IDENTITY, OperatorSpec, ParamMap,
                              apply_operator, operator_matrix)
from qkoorn.ratfield import JACOBI_VARS, KOORN_VARS, QQ, ParamPoly, ParamRat
from qkoorn.spectra import (ch_rho, eigenvalue_An, eigenvalue_Ern,
                            eigenvalue_jacobi, evaluate_generator_poly,
                            hc_lift)
from qkoorn.weights import (linear_refinement, monomial_symmetric,
                            weights_below)

toR = lambda c: c if isinstance(c, ParamRat) else ParamRat.from_poly(c)


def test_p0_is_one():
    for n in (1, 2):
        p = koornwinder_triangular((0,) * n)
        assert list(p.coeffs) == [(0,) * n]
        assert p.leading_is_monic()


def test_unitriangular_and_joint_eigen():
    for lam in [(1,), (2,), (1, 0), (1, 1), (2, 1)]:
        p = koornwinder_triangular(lam, verify=True)
        assert p.leading_is_monic()
        for mu in p.coeffs:
            assert mu in weights_below(lam)


def test_eigen_check_catches_a_perturbed_coefficient():
    # D_2 vanishes on the span of m_(0,0) and m_(1,0), so only r = 1 can
    # see a change below (1, 0); below (1, 1) both orders see it
    for lam, orders in (((1, 0), (1,)), ((1, 1), (1, 2))):
        p = koornwinder_triangular(lam)
        assert set(p.coeffs) == set(weights_below(lam))
        for r in (1, 2):
            verify_joint_eigen(p, r)
        for mu in p.coeffs:
            if mu == lam:
                continue
            coeffs = dict(p.coeffs)
            coeffs[mu] = coeffs[mu] + 1
            for r in orders:
                with pytest.raises(NotEigenfunction):
                    verify_joint_eigen(OrthoPoly(lam, coeffs), r)


def test_eigen_check_over_distinct_denominators():
    # one coefficient written over an unreduced, different denominator:
    # the check clears over the product and stays exact
    p = koornwinder_triangular((1, 1))
    k = ParamPoly.variable(KOORN_VARS, "qh") + 2
    coeffs = dict(p.coeffs)
    c = coeffs[(1, 0)]
    coeffs[(1, 0)] = ParamRat(c.num * k, c.den * k)
    assert not (coeffs[(1, 0)].den == coeffs[(0, 0)].den)
    for r in (1, 2):
        verify_joint_eigen(OrthoPoly((1, 1), coeffs), r)


def test_rank_one_solve_matches_direct_ratio():
    # single back-substitution step: c_0 = [D]_{(1),(0)} / E(1)
    from qkoorn.operators import operator_matrix
    mat = operator_matrix(OperatorSpec("koornwinder", 1, 1), (1,))
    p = koornwinder_triangular((1,))
    ev = eigenvalue_Ern(1, 1, (1,))
    assert p.coeffs[(0,)] == ParamRat.from_poly(mat[(1,)][(0,)]) / ev


def test_decoupling_product_structure():
    # at vanishing internal coupling, p_(1,1) is the product of the two
    # one-variable polynomials
    th1 = ParamMap({"th": "1"})
    p2 = koornwinder_triangular((1, 1), th1)
    p1 = koornwinder_triangular((1,))
    c0 = p1.coeffs[(0,)]
    # (z1 + 1/z1 + c0)(z2 + 1/z2 + c0) expanded over the invariant basis:
    # m_(1,1) + c0 m_(1,0) + c0^2 m_(0,0)
    want = {(1, 1): ParamRat.one(KOORN_VARS), (1, 0): c0, (0, 0): c0 * c0}
    assert set(p2.coeffs) == set(want)
    for k, v in want.items():
        assert p2.coeffs[k] == v


def test_eigenvalue_collision_raises():
    # abcd = 1 makes the rank-one eigenvalues of (1) and (0) collide at
    # q = 1/4 (h = 2 solves q h = 1/h); the numeric solve must fail loudly
    from qkoorn.weightfn import NumericPoint, koornwinder_numeric
    pt = NumericPoint(QQ(1, 4), QQ(1, 2), 1, -1, 1, -1)
    with pytest.raises(ZeroDenominator):
        koornwinder_numeric((1,), pt)


def jacobi_moments(kmax):
    """Symbolic one-variable moments of |sin(x/2)|^(2 tg0) |cos(x/2)|^(2 tg1)
    normalized to M_0 = 1, over the rational function field in (tg0, tg1).

    The recurrence (s+c+k+1) M_{k+1} + 2(s-c) M_k + (s+c-k+1) M_{k-1} = 0
    follows from integrating the derivative of weight * z^k * (z^2-1)/z.
    """
    s = ParamPoly.variable(JACOBI_VARS, "tg0")
    c = ParamPoly.variable(JACOBI_VARS, "tg1")
    one = ParamPoly.one(JACOBI_VARS)
    # with D_k = prod_{j<=k}(s+c+j) the numerators N_k = M_k D_k satisfy a
    # polynomial two-term recurrence, keeping denominators in factored form
    nums = [one, c - s]
    for k in range(1, kmax):
        nxt = -((s - c) * 2 * nums[k] + (s + c - k + 1) * (s + c + k)
                * nums[k - 1])
        nums.append(nxt)
    moments = []
    den = one
    for k in range(kmax + 1):
        if k:
            den = den * (s + c + k)
        moments.append(ParamRat(nums[k], den))
    return moments


def jacobi_moment_orthogonality(p, moments):
    """Check a one-variable differential-branch expansion against the moment
    oracle: the pairing with every lower monomial must vanish.

    Together with unitriangularity this pins the polynomial down completely,
    so it is a full independent characterization."""
    m = p.weight[0]
    zero = ParamRat.zero(JACOBI_VARS)
    for k in range(0, m):
        total = zero
        for (j,), c in p.coeffs.items():
            g_jk = moments[abs(j - k)] + moments[j + k]
            if j:
                g_jk = g_jk * 2
            total = total + c * g_jk
        if not total.is_zero():
            return False
    return True


def test_jacobi_triangular_and_moments():
    moments = jacobi_moments(10)
    for m in (1, 2, 3):
        p = jacobi_triangular((m,), verify=True)
        assert jacobi_moment_orthogonality(p, moments)
    p = jacobi_triangular((1, 1), verify=True)
    assert p.leading_is_monic()


def test_qh1_limit_matches_differential_branch():
    for lam in [(0,), (1,), (2,), (1, 0), (1, 1)]:
        n = len(lam)
        psym = koornwinder_triangular(lam)
        jac = jacobi_triangular(lam)
        for exps in ((0, 1, 0, 0, 0), (1, 0, 0, 0, 1), (1, 1, 1, 0, 0)):
            g, g0, g1, g0p, g1p = exps
            lim = qh1_limit(psym, *exps)
            ref = evaluate_jacobi_coeffs(jac, g, g0 + g0p, g1 + g1p)
            assert lim.coeffs == ref.coeffs


def test_a_type_extraction():
    p0 = koornwinder_triangular((0, 0))
    assert macdonald_An_extract(p0).coeffs == {(0, 0): ParamRat.one(KOORN_VARS)}
    # single dominant weight of its size below (1,0)
    p10 = macdonald_An_extract(koornwinder_triangular((1, 0)))
    assert list(p10.coeffs) == [(1, 0)]
    for lam in [(1, 0), (2, 0), (1, 1)]:
        pa = macdonald_An_extract(koornwinder_triangular(lam))
        a_type_eigen_check(pa, 1)


def test_a_type_centered_eigen():
    pa = macdonald_An_extract(koornwinder_triangular((2, 0)))
    spec = OperatorSpec("a_type_centered", 2, 1)
    f = pa.to_laurent()
    img = apply_operator(spec, f)
    ev = eigenvalue_An(1, 2, (2, 0))
    want = f.map_coeff(lambda c: toR(c) * ev)
    assert img.map_coeff(toR) == want


def test_family_table():
    dn = family_specialize("Dn")
    assert dn == {k: ParamPoly.one(KOORN_VARS)
                             for k in ("ga", "gb", "gc", "gd")}
    bb = family_specialize(("Bn", "Bn"))
    assert set(bb) == {"gb", "gc", "gd"}
    cc = family_specialize(("Cn", "Cn"))
    gb = ParamPoly.variable(KOORN_VARS, "gb")
    assert cc["ga"] == gb and cc["gc"] == gb and cc["gd"] == gb
    with pytest.raises(ValueError):
        family_specialize(("En", "En"))


def test_families_joint_eigenfunctions():
    for pair in FAMILY_PAIRS:
        if pair == ("An", "An"):
            continue
        fam = family_specialize(pair)
        for lam in [(1, 0), (1, 1)]:
            p = koornwinder_triangular(lam, fam)
            for r in (1, 2):
                verify_joint_eigen(p, r, fam)


def test_spin_conjugation_identity():
    # conjugating the rank-one operator by the spin monomial matches the
    # pushed-parameter operator plus the displayed additive constant
    n = 2
    for S in ("Bn", "Cn"):
        fam = family_specialize(("Bn", S))
        parcon = anti_periodic_params(S)
        spin = spin_monomial(n)
        m10 = monomial_symmetric((1, 0))
        lhs = apply_operator(OperatorSpec("koornwinder", n, 1, fam),
                             spin * m10)
        rhs_core = apply_operator(OperatorSpec("koornwinder", n, 1, parcon),
                                  m10)
        const = relm_constant(n, S)
        rhs = spin * (rhs_core + m10.map_coeff(lambda c: c * const))
        assert lhs == rhs


def test_spin_monomial_is_eigenfunction_at_zero_weight():
    n = 2
    for S in ("Bn", "Cn"):
        fam = family_specialize(("Bn", S))
        spin = spin_monomial(n)
        img = apply_operator(OperatorSpec("koornwinder", n, 1, fam), spin)
        mu = proportionality_factor(img, spin)
        assert mu == ParamRat.from_poly(relm_constant(n, S))


def test_antiperiodic_member_eigen():
    out, p, params = bn_antiperiodic((1, 0), "Bn")
    assert out.scale == 2
    # the product with the spin monomial stays an eigenfunction of the
    # family operator, with the conjugation constant added
    fam = family_specialize(("Bn", "Bn"))
    img = apply_operator(OperatorSpec("koornwinder", 2, 1, fam), out)
    mu = proportionality_factor(img, out)
    ev = eigenvalue_Ern(1, 2, (1, 0), params)
    assert mu == ParamRat.from_poly(ev + relm_constant(2, "Bn"))


def test_dn_combinations():
    f0, p0 = dn_combine((1, 0), 0)
    assert p0.coeffs == koornwinder_triangular(
        (1, 0), family_specialize("Dn")).coeffs
    f0b, p0b = dn_combine((1, 1), 0)
    for r in (1, 2):
        verify_joint_eigen(p0b, r, family_specialize("Dn"))
    f1, p1 = dn_combine((1, 0), 1)
    assert f1.scale == 2
    # the spin-sector combination is an eigenfunction of the family operator
    img = apply_operator(OperatorSpec("koornwinder", 2, 1,
                                      family_specialize("Dn")), f1)
    mu = proportionality_factor(img, f1)
    qh = ParamPoly.variable(KOORN_VARS, "qh")
    th = ParamPoly.variable(KOORN_VARS, "th")
    # 2 sum_j ch beta(lam_j + 1/2 + rho_j) - ch beta rho_j at vanishing
    # couplings, lam = (1,0): units qh^3 th^2 and qh
    def ch2(u):
        e, c, s = u.monomial_parts()
        return u + ParamPoly.monomial(KOORN_VARS, tuple(-x for x in e),
                                      1 / c, s)
    want = (ch2(qh ** 3 * th ** 2) + ch2(qh) - ch2(th ** 2)
            - ch2(ParamPoly.one(KOORN_VARS)))
    assert mu == ParamRat.from_poly(want)


def test_halfspin_eigenchecks():
    mu = halfspin_eigencheck("c_spin", (0, 0), ("Cn", "Cn"))
    # prod_j (w_j + 1/w_j) with w_j = th^(n-j) gb^2
    th = ParamPoly.variable(KOORN_VARS, "th")
    gb = ParamPoly.variable(KOORN_VARS, "gb")

    def inv(u):
        e, c, s = u.monomial_parts()
        return ParamPoly.monomial(KOORN_VARS, tuple(-x for x in e), 1 / c, s)

    w1 = th * gb ** 2
    w2 = gb ** 2
    want = (w1 + inv(w1)) * (w2 + inv(w2))
    assert mu == ParamRat.from_poly(want)
    # applying the operator twice scales by the square
    fam = family_specialize(("Cn", "Cn"))
    p0 = monomial_symmetric((0, 0))
    spec = OperatorSpec("c_spin", 2, params=fam)
    twice = apply_operator(spec, apply_operator(spec, p0))
    assert proportionality_factor(twice, p0) == mu * mu

    mu_p = halfspin_eigencheck("dn_plus", (0, 0))
    assert mu_p == ParamRat.from_poly(th + inv(th))
    mu_m = halfspin_eigencheck("dn_minus", (1, 0))
    with pytest.raises(ValueError):
        halfspin_eigencheck("dn_plus", (1, 1))


def test_halfspin_squares_in_commuting_algebra():
    n = 2
    for which, pair, scalefac in (("c_spin", ("Cn", "Cn"), 1),
                                  ("c_spin", ("Bn", "Cn"), 1),
                                  ("dn_plus", ("Dn", "Dn"), QQ(1, 4)),
                                  ("dn_minus", ("Dn", "Dn"), QQ(1, 4))):
        fam = family_specialize(pair)
        for lam in [(0, 0), (1, 0), (2, 0)]:
            mu = halfspin_eigencheck(which, lam, pair)
            S = {e: ParamRat.const(KOORN_VARS, QQ(2 ** n) * scalefac)
                 for e in product((0, 1), repeat=n)}
            Q = hc_lift(S, n, fam)
            evs = [ParamRat.from_poly(eigenvalue_Ern(r, n, lam, fam))
                   for r in range(1, n + 1)]
            assert evaluate_generator_poly(Q, evs) == mu * mu


def test_trivial_spin_operator_counts_sign_terms():
    triv = ParamMap({"th": "1", "ga": "1", "gb": "1", "gc": "1", "gd": "1"})
    for n in (1, 2, 3):
        one = monomial_symmetric((0,) * n)
        img = apply_operator(OperatorSpec("c_spin", n, params=triv), one)
        assert img == one.map_coeff(lambda c: c * (2 ** n))


def test_ortho_poly_json():
    p = koornwinder_triangular((1,))
    data = p.to_json()
    assert data["n"] == 1 and data["weight"] == [1]
    assert data["half_lattice"] is False
    assert data["coeffs"][-1]["value"] == "1"
    assert p.dumps() == p.dumps()


# ---------------------------------------------------------------------------
# the factored solve against the fraction-free one


def fraction_free_solve(matrix, lam, evalue, one):
    """The oracle: back-substitution over one shared denominator, every
    numerator multiplied by every later gap and nothing cancelled; returns
    ({mu: numerator}, denominator)."""
    order = linear_refinement(list(matrix), "lex")[::-1]
    zero = evalue - evalue
    nums = {lam: one}
    den = one
    for mu in order:
        if mu == lam:
            continue
        acc = None
        for nu, nval in nums.items():
            entry = matrix[nu].get(mu)
            if entry is None or not nval:
                continue
            term = nval * entry
            acc = term if acc is None else acc + term
        if acc is None or not acc:
            nums[mu] = zero
            continue
        gap = evalue - matrix[mu].get(mu, 0)
        for nu in nums:
            nums[nu] = nums[nu] * gap
        nums[mu] = acc
        den = den * gap
    return nums, den


# the classical-family maps of the benchmark's symbolic workload
FAMILY_MAPS = {
    "Bn:Bn": {"gb": "1", "gc": "1", "gd": "1"},
    "BCn:Cn": {"gc": "ga", "gd": "gb"},
    "Cn:Cn": {"ga": "gb", "gc": "gb", "gd": "gb"},
}
SOLVE_WEIGHTS = [(1,), (2,), (3,), (1, 0), (1, 1), (2, 0), (2, 1)]


def assert_same_rational_functions(p, nums, den):
    assert set(p.coeffs) == {mu for mu, v in nums.items() if v}
    for mu, c in p.coeffs.items():
        assert c == ParamRat(nums[mu], den)


@pytest.mark.parametrize("family", [None] + sorted(FAMILY_MAPS))
@pytest.mark.parametrize("lam", SOLVE_WEIGHTS)
def test_factored_solve_matches_fraction_free_solve(family, lam):
    params = ParamMap(FAMILY_MAPS[family]) if family else IDENTITY
    n = len(lam)
    evalue = eigenvalue_Ern(1, n, lam, params)
    matrix = operator_matrix(OperatorSpec("koornwinder", n, 1, params), lam)
    nums, den = fraction_free_solve(matrix, lam, evalue,
                                    ParamPoly.one(KOORN_VARS))
    assert_same_rational_functions(koornwinder_triangular(lam, params),
                                   nums, den)


@pytest.mark.parametrize("lam", SOLVE_WEIGHTS + [(4,)])
def test_factored_solve_matches_fraction_free_solve_jacobi(lam):
    n = len(lam)
    evalue = eigenvalue_jacobi(1, n, lam)
    matrix = operator_matrix(OperatorSpec("jacobi", n), lam)
    nums, den = fraction_free_solve(matrix, lam, evalue,
                                    ParamPoly.one(JACOBI_VARS))
    assert_same_rational_functions(jacobi_triangular(lam), nums, den)


def test_factored_solve_sizes():
    # terms of numerator and denominator summed over the coefficients; the
    # shared-denominator solve gave 1662, 29274, 425, 6083 and 3904, and
    # lowest terms (a multivariate gcd) are 547, 8823, 77, 293 and 289
    cases = [((3,), None, 548), ((5,), None, 8824), ((1, 1), None, 78),
             ((2, 1), "BCn:Cn", 294), ((2, 2), "Bn:Bn", 290)]
    for lam, family, most in cases:
        params = ParamMap(FAMILY_MAPS[family]) if family else None
        p = koornwinder_triangular(lam, params)
        assert sum(len(c.num) + len(c.den)
                   for c in p.coeffs.values()) <= most, (lam, family)

"""The commuting difference operators, their coefficient functions, and
exact application to invariant Laurent polynomials.

Coefficient building blocks: one elementary ratio
(g^2 w + sigma) / (g (w + sigma)) (``_ratio``), of which the one-pair ratio
v_a is one v_b-shape factor (g = th, sigma = -1) and the external ratio v_b
the product of four (g = ga, gb, gc, gd); the in-cell pair products
(``_Engine.inner``), q-shifted or reflected; and a cell's translator-free
sums per nucleus, each a signed product of such factors.

The hyperoctahedral operators are applied by the staged path
(``_apply_staged``), which divides out poles cell by cell.  It builds one
sign branch of one cell and maps the rest: each sign branch is the all-plus
branch with some z_j inverted, and each cell the first one with the torus
variables permuted (``_mapped``), so its input must be invariant under the
whole hyperoctahedral group.  The staged path is checked against
``pointwise_apply``, the paper's sum of U V T terms evaluated in rationals
at one point, which shares none of its code.
The A-type and spin operators go through their normal form
(``_apply_normal_form``: the translates of the input against numerators over
one shared denominator).

Internally everything runs on flat polynomials (torus and parameter exponents
in one tuple, rational coefficients); every signed sum of coefficients is
``laurent._grouped_sum``, and pole cancellation is enforced by exact binomial
division (``laurent.divide_factors``) of the assembled numerator over the
factored common denominator.
"""

from __future__ import annotations

from itertools import combinations, product
from math import gcd, prod
from operator import add, itemgetter

from .errors import NotInvariant
from .laurent import (LaurentRat, _clear_coeffs, _grouped_sum,
                      canonical_binomial, cancel_factors, divide_factors,
                      flat_shift, flatten, lift_to, merge_max, torus_vars,
                      unflatten)
from .ratfield import (JACOBI_VARS, KOORN_VARS, QQ, ParamPoly, ParamRat,
                       _lifted, _monomial_image, _qq)
from .weights import (EVEN_SIGNS, HYPEROCTAHEDRAL, PERMUTATIONS_ONLY,
                      expand_in_monomials, is_invariant, monomial_symmetric,
                      weights_below)

_NP = len(KOORN_VARS)
_QH, _TH, _GA, _GB, _GC, _GD = range(_NP)


_UNITS = {name: ParamPoly.variable(KOORN_VARS, name) for name in KOORN_VARS}


class ParamMap(dict):
    """Substitution of half-parameters by nonzero monomials on the integer
    lattice (e.g. th -> 1, gb -> qh, gc -> ga, or a rational constant), as
    the dict name -> ParamPoly monomial that ``ParamPoly.substitute`` reads;
    identity images are left out.  qh itself is never substituted."""

    __slots__ = ("key",)

    def __init__(self, mapping=None):
        super().__init__()
        for name, val in (mapping or {}).items():
            if name == "qh":
                raise ValueError("qh is the scale parameter; not substitutable")
            if isinstance(val, str):
                val = ParamRat.parse(KOORN_VARS, val)
            e, c, s = _monomial_image(KOORN_VARS, val)
            if s != 1:
                raise ValueError("parameter images must be plain monomials")
            if name not in _UNITS:
                raise ValueError("unknown parameter %r" % (name,))
            image = ParamPoly(KOORN_VARS, {e: c})
            if image != _UNITS[name]:
                self[name] = image
        self.key = tuple(sorted((name, self.image(name)) for name in self))

    def image(self, name):
        """(exponent vector over parameter slots, rational coefficient)."""
        return self.get(name, _UNITS[name]).monomial_parts()[:2]

    def __repr__(self):
        return "ParamMap(%r)" % {k: v.render() for k, v in self.items()}


IDENTITY = ParamMap()


# ---------------------------------------------------------------------------
# flat coefficient factors


def _flat_rat_one(vars_):
    return LaurentRat(ParamPoly.one(vars_))


def _ratio(vars_, n, w, image, sigma):
    """(g^2 w + sigma) / (g (w + sigma)) at the flat exponent tuple w, for
    g the parameter monomial ``image`` (exponent vector, coefficient), with
    the 1/g unit folded into the numerator; None when g is 1."""
    ge, gc = image
    if not any(ge) and gc == 1:
        return None
    zero = (0,) * len(vars_)
    gpad = zero[:n] + ge
    num = ParamPoly(vars_, {tuple(x + y for x, y in zip(w, gpad)): gc,
                            tuple(-x for x in gpad): _qq(sigma, gc)})
    return LaurentRat(num).with_binomial_factor((w, 1), (zero, sigma))


def va_factor(vars_, n, w_exps, qpow, params):
    """v_a at the composite variable w = q^qpow * z^w_exps: the v_b-shape
    ratio (th^2 w - 1) / (th (w - 1)) = (th w - 1/th) / (w - 1), that is
    ``_ratio`` at g = th and sigma = -1.

    Collapses to 1 when the substituted th is 1.
    """
    w = list(w_exps) + [0] * (len(vars_) - n)
    w[n + _QH] += 2 * qpow
    rat = _ratio(vars_, n, tuple(w), params.image("th"), -1)
    return _flat_rat_one(vars_) if rat is None else rat


_VB_SHAPES = (("ga", 0, -1), ("gb", 0, 1), ("gc", 1, -1), ("gd", 1, 1))
# the v_b shapes of each kind whose operator holds v_b; C_spin drops the
# half-period-shifted pair
_KIND_SHAPES = {"koornwinder": _VB_SHAPES, "c_spin": _VB_SHAPES[:2]}


def vb_factor(vars_, n, j, eps, params, shapes=_VB_SHAPES):
    """v_b at w = z_j^eps: the product of four ``_ratio`` factors
    (g^2 q^s w + sigma) / (g (q^s w + sigma)) with (g, s, sigma) running over
    (ga,0,-1), (gb,0,+1), (gc,1/2,-1), (gd,1/2,+1).  Factors with g = 1
    collapse."""
    out = _flat_rat_one(vars_)
    for name, qh_pow, sigma in shapes:
        w = [0] * len(vars_)
        w[j] = eps
        w[n + _QH] += qh_pow
        rat = _ratio(vars_, n, tuple(w), params.image(name), sigma)
        if rat is not None:
            out = out * rat
    return out


def half_lattice_poles(spec):
    """The names of the sigma = +1 v_b shapes of ``spec`` that do not
    collapse (their g does not map to 1).  Such a shape's ``_ratio`` has a
    pole at w = -1 (z_j = -1 for gb, z_j = -q^(-1/2) for gd) that invariance
    under z -> 1/z cancels on the integer lattice and not on the half
    lattice, so a half-lattice input is admissible exactly when there is
    none."""
    return [name for name, _, sigma in _KIND_SHAPES.get(spec.kind, ())
            if sigma > 0 and spec.params.get(name) != 1]


class _Engine:
    """Cached flat-coefficient machinery at a fixed (n, params)."""

    def __init__(self, n, params):
        self.n = n
        self.vars = torus_vars(n) + KOORN_VARS
        self.params = params
        self._va = {}
        self._vb = {}
        self._couple = {}
        self._inner = {}
        self._nucleus = {}

    def va(self, j1, e1, j2, e2, qpow=0):
        """v_a at w = q^qpow z_j1^e1 z_j2^e2."""
        w = [0] * self.n
        w[j1] += e1
        w[j2] += e2
        key = (tuple(w), qpow)
        got = self._va.get(key)
        if got is None:
            got = self._va[key] = va_factor(self.vars, self.n, w, qpow,
                                            self.params)
        return got

    def vb_split(self, j):
        """v_b(z_j) as (numerator, z-unit factors, qh-unit factors)."""
        got = self._vb.get(j)
        if got is None:
            rat = vb_factor(self.vars, self.n, j, 1, self.params)
            zunit, qhunit = {}, {}
            for k, bm in rat.den.items():
                (qhunit if _support(k, self.n)[1] else zunit)[k] = bm
            got = self._vb[j] = (rat.num, zunit, qhunit)
        return got

    def couplings(self, j, eps, K):
        key = (j, eps, K)
        got = self._couple.get(key)
        if got is None:
            out = _flat_rat_one(self.vars)
            for k in K:
                out = out * self.va(j, eps, k, 1) * self.va(j, eps, k, -1)
            got = self._couple[key] = out
        return got

    def inner(self, J, eps, shift=1):
        """The in-cell pair products of the cell J with signs eps: for every
        pair of J, at w = z_j1^e1 z_j2^e2, v_a(w) v_a(q w) (shift 1) or the
        reflected v_a(w) v_a(1/(q w)) (shift -1)."""
        key = (J, eps, shift)
        got = self._inner.get(key)
        if got is None:
            out = _flat_rat_one(self.vars)
            for (j1, e1), (j2, e2) in combinations(zip(J, eps), 2):
                out = (out * self.va(j1, e1, j2, e2)
                       * self.va(j1, shift * e1, j2, shift * e2, shift))
            got = self._inner[key] = out
        return got

    def nucleus_groups(self, J, eps):
        """The translator-free sums of a cell grouped by nucleus, cleared
        over one common in-cell denominator: returns (den, {nucleus:
        numerator}).  The nucleus I, a nonempty subset of J, carries
        (-1)^|R| times its q-shifted pairs, its couplings into the rest
        R = J minus I, and the reflected pairs of R."""
        key = (J, eps)
        got = self._nucleus.get(key)
        if got is not None:
            return got
        emap = dict(zip(J, eps))
        signed = []
        for size in range(1, len(J) + 1):
            for I in combinations(J, size):
                R = tuple(x for x in J if x not in I)
                coeff = (self.inner(I, tuple(emap[i] for i in I))
                         * self.inner(R, tuple(emap[x] for x in R), -1))
                for i in I:
                    coeff = coeff * self.couplings(i, emap[i], R)
                signed.append((I, (-1) ** len(R), coeff))
        got = self._nucleus[key] = _grouped_sum(signed)
        return got


_ENGINES = {}


def _engine(n, params):
    key = (n, params.key)
    eng = _ENGINES.get(key)
    if eng is None:
        eng = _ENGINES[key] = _Engine(n, params)
    return eng


# ---------------------------------------------------------------------------
# operator specifications and normal forms


_KINDS = {
    "koornwinder": HYPEROCTAHEDRAL,
    "a_type": PERMUTATIONS_ONLY,
    "a_type_centered": PERMUTATIONS_ONLY,
    "jacobi": HYPEROCTAHEDRAL,
    "c_spin": HYPEROCTAHEDRAL,
    "dn_minus": EVEN_SIGNS,
    "dn_plus": EVEN_SIGNS,
}

_JSON_KINDS = {
    "koornwinder": "Dr", "a_type": "A_Dr", "a_type_centered": "A_Dr_centered",
    "jacobi": "Jacobi_D10", "c_spin": "C_spin", "dn_minus": "Dn_minus",
    "dn_plus": "Dn_plus",
}
_JSON_GROUPS = {HYPEROCTAHEDRAL: "BC", PERMUTATIONS_ONLY: "A", EVEN_SIGNS: "D"}


class OperatorSpec:
    """A named operator: kind, order r where applicable, variable count and
    a parameter substitution."""

    __slots__ = ("kind", "r", "n", "params")

    def __init__(self, kind, n, r=None, params=None):
        if kind not in _KINDS:
            raise ValueError("unknown operator kind %r" % kind)
        if kind in ("koornwinder", "a_type", "a_type_centered"):
            if r is None or not 1 <= r <= n:
                raise ValueError("r must satisfy 1 <= r <= n")
        else:
            r = None
        self.kind = kind
        self.r = r
        self.n = n
        self.params = params or IDENTITY

    @property
    def group(self):
        return _KINDS[self.kind]

    @property
    def key(self):
        return (self.kind, self.r, self.n, self.params.key)

    def to_json(self):
        out = {"kind": _JSON_KINDS[self.kind], "n": self.n,
               "group": _JSON_GROUPS[self.group]}
        if self.r is not None:
            out["r"] = self.r
        if self.params:
            out["params"] = {k: v.render()
                             for k, v in sorted(self.params.items())}
        return out

    @classmethod
    def from_json(cls, data):
        rev = {v: k for k, v in _JSON_KINDS.items()}
        kind = rev[data["kind"]]
        params = ParamMap(data.get("params") or {})
        return cls(kind, int(data["n"]), data.get("r"), params)

    def __repr__(self):
        return "OperatorSpec(%s, n=%d%s)" % (
            self.kind, self.n, "" if self.r is None else ", r=%d" % self.r)


_NORMAL_FORMS = {}


def _normal_form(spec):
    """The operator cleared to a common factored denominator: the shared
    denominator, and a map from translator steps (half-step counts per
    variable) to flat numerators."""
    got = _NORMAL_FORMS.get(spec.key)
    if got is not None:
        return got
    n = spec.n
    eng = _engine(n, spec.params)
    terms = []
    if spec.kind in ("a_type", "a_type_centered"):
        r = spec.r
        for J in combinations(range(n), r):
            Jc = tuple(x for x in range(n) if x not in J)
            coeff = _flat_rat_one(eng.vars)
            for j in J:
                for k in Jc:
                    coeff = coeff * eng.va(j, 1, k, -1)
            steps = tuple(2 if j in J else 0 for j in range(n))
            terms.append((steps, 1, coeff))
    elif spec.kind in ("c_spin", "dn_minus", "dn_plus"):
        want = {"c_spin": None, "dn_plus": 1, "dn_minus": -1}[spec.kind]
        for eps in product((1, -1), repeat=n):
            if want is not None and prod(eps) != want:
                continue
            coeff = _flat_rat_one(eng.vars)
            if spec.kind == "c_spin":
                # v_b without the half-period-shifted pair
                for j in range(n):
                    coeff = coeff * vb_factor(eng.vars, n, j, eps[j],
                                              spec.params,
                                              shapes=_KIND_SHAPES["c_spin"])
            for j1, j2 in combinations(range(n), 2):
                coeff = coeff * eng.va(j1, eps[j1], j2, eps[j2])
            terms.append((eps, 1, coeff))
    else:
        raise ValueError("no difference normal form for %r" % spec.kind)
    out = _NORMAL_FORMS[spec.key] = _grouped_sum(terms)
    return out


def _apply_normal_form(spec, flat):
    """Apply an operator through its normal form to a flat polynomial: sum
    the translates of ``flat`` against the numerators and divide by the
    shared denominator."""
    den, groups = _normal_form(spec)
    n = spec.n
    total = None
    for steps, num in groups.items():
        piece = num * flat_shift(flat, steps, n + _QH)
        total = piece if total is None else total + piece
    if spec.kind == "a_type_centered":
        total = _center_prefactor(total, spec, flat)
    return divide_factors(total, den)


# ---------------------------------------------------------------------------
# staged application for the hyperoctahedral family
#
# Clearing every term of D_r over one global denominator explodes
# combinatorially with n.  The staged path instead follows
# the pole-cancellation structure, on one branch per hyperoctahedral orbit.
# D_r commutes with the hyperoctahedral group, so on an invariant input the
# sign branch eps of a cell is its all-plus branch with z_j inverted wherever
# eps_j = -1, and the cell J is the first cell with z_J0 renamed z_J.  Only
# the all-plus branch of the first cell is built.  Its translator-free sum
# (external factors excluded) is already regular at the half-period-shifted
# poles, so those factors divide out while it is small.  The sign of each
# z_j is then summed out: the running cell times v_b(z_j) and the couplings
# of z_j, plus its own image under z_j -> 1/z_j, is regular at the
# unit-circle poles of z_j, and exchange symmetry cancels each in-cell pair
# pole once both of its variables are summed.  Only the cross-cell pair
# factors survive to the final division, of the sum of the cell's permuted
# images.  Every division is exact and raises NotDivisible if any of these
# cancellation or symmetry claims ever failed.


def _support(key, n):
    """The torus variables of a canonical binomial, and whether qh is one of
    its variables: a z-unit or pair factor, or a qh-unit or q-shifted pair
    factor."""
    _, e1, e2, _ = key
    return (tuple(i for i in range(n) if e1[i] or e2[i]),
            bool(e1[n + _QH] or e2[n + _QH]))


def _mapped(rat, emap):
    """A factored fraction under a signed permutation of the torus
    variables, ``emap`` taking an exponent tuple to its image.  Each mapped
    factor is re-canonicalised; the units that split off are folded into
    the map of the numerator, which passes over its terms once."""
    vars_ = rat.num.vars
    shift, scale, unit = (0,) * rat.num.n, 1, 1
    den = {}
    for b, m in rat.den.values():
        key, binom, mm, cu, su = canonical_binomial(
            vars_, *((emap(e), c) for e, c in b.terms.items()), b.scale)
        den[key] = (binom, m)
        s = scale * su // gcd(scale, su)
        shift = tuple(x * (s // scale) - m * y * (s // su)
                      for x, y in zip(shift, mm))
        scale, unit = s, unit * cu ** m
    num = rat.num
    s = num.scale * scale // gcd(num.scale, scale)
    e0 = tuple(x * (s // scale) for x in shift)
    c = _qq(1, unit)
    terms = _lifted(num, s).items()
    if any(e0):
        out = {tuple(map(add, emap(e), e0)): v * c for e, v in terms}
    else:
        out = {emap(e): v * c for e, v in terms}
    # a unit coefficient +-1 leaves every coefficient in its canonical form
    build = ParamPoly._of if c in (1, -1) else ParamPoly
    return LaurentRat(build(vars_, out, s), den)


def _staged_cell(eng, J, f_flat):
    """One cell's contribution over its cross-cell pair factors: the
    all-plus sign branch, then the sign of each z_j in J summed out."""
    n = eng.n
    Jc = tuple(x for x in range(n) if x not in J)
    den, groups = eng.nucleus_groups(J, (1,) * len(J))
    num = None
    for nucleus, gnum in groups.items():
        steps = tuple(2 if j in nucleus else 0 for j in range(n))
        piece = gnum * (flat_shift(f_flat, steps, n + _QH) + (-f_flat))
        num = piece if num is None else num + piece

    def divided(rat, ready):
        now = {k: bm for k, bm in rat.den.items() if ready(*_support(k, n))}
        return LaurentRat(divide_factors(rat.num, now),
                          {k: bm for k, bm in rat.den.items() if k not in now})

    # the qh-unit factors of v_b are regular already, like the q-shifted
    # pairs (their keys differ in their torus support)
    for j in J:
        den = {**den, **eng.vb_split(j)[2]}
    cell = divided(LaurentRat(num, den), lambda torus, qh: qh)
    done = set()
    for j in J:
        vnum, zunit, _ = eng.vb_split(j)
        cell = (LaurentRat(cell.num * vnum, {**cell.den, **zunit})
                * eng.couplings(j, 1, Jc))

        def flip(e, j=j):
            return e[:j] + (-e[j],) + e[j + 1:]

        cell = cell + _mapped(cell, flip)
        # z_j's unit factors, and the in-cell pairs whose variables are all
        # summed, are now regular
        done.add(j)
        cell = divided(cell, lambda torus, qh: done.issuperset(torus))
    return cell


def _apply_staged(spec, f_flat):
    """D_r applied to a flat polynomial: the sum of the cells J (index sets
    of size r) over the union of their cross-cell factors, divided exactly.

    The input is invariant under the hyperoctahedral group (as
    ``apply_operator`` checks), so only the cell J0 = (0..r-1) is computed;
    the cell J is its image with z_J0 renamed z_J and z_J0c renamed z_Jc.
    The union comes from mapping the factors alone, the cell is lifted to it
    once, and its images are summed and divided once."""
    n, r = spec.n, spec.r
    eng = _engine(n, spec.params)
    cell = _staged_cell(eng, tuple(range(r)), f_flat)
    images = []
    for J in combinations(range(n), r):
        perm = list(range(len(eng.vars)))
        for i, j in enumerate(J + tuple(x for x in range(n) if x not in J)):
            perm[j] = i
        images.append(itemgetter(*perm))
    factors = LaurentRat(ParamPoly.one(eng.vars), cell.den)
    union = {}
    for image in images:
        merge_max(union, _mapped(factors, image).den)
    lifted = LaurentRat(lift_to(cell.num, cell.den, union), union)
    total = None
    for image in images:
        t = _mapped(lifted, image)
        total = t if total is None else total + t
    return divide_factors(total.num, total.den)


# ---------------------------------------------------------------------------
# application


def apply_operator(spec, f):
    """Apply an operator to a Laurent polynomial invariant under its group
    (NotInvariant otherwise).

    The result is again a polynomial: the assembled numerator divides
    exactly by the factored denominator (NotDivisible would flag a violated
    pole-cancellation claim).  Coefficients of f may be ParamPoly or
    ParamRat over the operator's parameter field, ``JACOBI_VARS`` for the
    differential branch and ``KOORN_VARS`` otherwise (ParamRat denominators
    are cleared up front over their least common multiple, and each image
    coefficient is then divided by every factor of it that divides).
    """
    pvars = JACOBI_VARS if spec.kind == "jacobi" else KOORN_VARS
    dens, nums = _clear_coeffs(f.terms)
    flat = flatten(ParamPoly(f.vars, nums, f.scale), pvars)
    if not is_invariant(flat, spec.group, spec.n):
        raise NotInvariant("input not invariant under %s" % spec.group)
    if spec.kind == "jacobi":
        quot = _apply_jacobi(spec, flat)
    elif spec.kind == "koornwinder":
        quot = _apply_staged(spec, flat)
    else:
        quot = _apply_normal_form(spec, flat)
    out = unflatten(quot, spec.n)
    if dens:
        one = ParamPoly.one(pvars)

        def restored(c):
            num, left = cancel_factors(c, dens)
            return ParamRat(num, lift_to(one, {}, left))
        out = out.map_coeff(restored)
    return out


# ---------------------------------------------------------------------------
# the pointwise reference for the hyperoctahedral family


def point_value(p, z, halfparams):
    """A torus poly with ParamPoly coefficients over ``KOORN_VARS`` at the
    torus point z and the half-parameters (qh, th, ga, gb, gc, gd), by one
    ``eval_var`` per variable."""
    def at(c):
        for name, x in zip(KOORN_VARS, halfparams):
            c = c.eval_var(name, x)
        return sum(c.terms.values(), QQ(0))
    p = p.map_coeff(at)
    for name, x in zip(p.vars, z):
        p = p.eval_var(name, x)
    return sum(p.terms.values(), QQ(0))


def pointwise_apply(spec, f, z, halfparams):
    """D_r f at one rational point, as the paper's sum of U V T terms: the
    sum over J, |J| <= r, and signs eps on J of
    W_{J^c, r-|J|} V_{eps J, J^c} f(q^{eps J} z).

    V_{eps J, K} is the product of v_b(w_j) and v_a(w_j z_k^+-1) over j in
    J, k in K (w_j = z_j^eps_j), and of v_a(w) v_a(q w) over the pairs
    w = w_j1 w_j2 of J.  W_{K, p} is (-1)^p times the sum over p-subsets L
    of K and signs on L of V_{eps L, K minus L}, each v_a(q w) reflected
    to v_a(1/(q w)).  v_a and v_b are the scalar formulas of ``va_factor``
    and ``vb_factor`` at ``spec.params``' images of the half-parameters.
    Only rationals are multiplied and divided, so nothing is shared with
    the staged path this checks; a pole of a term raises ZeroDivisionError.
    """
    if spec.kind != "koornwinder":
        raise ValueError("the pointwise form is that of D_r")
    n, r = spec.n, spec.r
    z = [QQ(x) for x in z]
    halfparams = [QQ(x) for x in halfparams]

    def image(name):
        e, c = spec.params.image(name)
        return c * prod(x ** k for x, k in zip(halfparams, e))
    qh, th, ga, gb, gc, gd = map(image, KOORN_VARS)
    q = qh * qh

    def va(w):
        return (th * w - 1 / th) / (w - 1)

    def vb(w):
        return prod((g * x + s / g) / (x + s) for g, x, s in (
            (ga, w, -1), (gb, w, 1), (gc, qh * w, -1), (gd, qh * w, 1)))

    def V(J, eps, K, reflect=False):
        ws = [z[j] ** e for j, e in zip(J, eps)]
        out = QQ(1)
        for w in ws:
            out *= vb(w)
            for k in K:
                out *= va(w * z[k]) * va(w / z[k])
        for w1, w2 in combinations(ws, 2):
            w = w1 * w2
            out *= va(w) * va(1 / (q * w) if reflect else q * w)
        return out

    def W(K, p):
        return (-1) ** p * sum(V(L, eps, [k for k in K if k not in L], True)
                               for L in combinations(K, p)
                               for eps in product((1, -1), repeat=p))

    total = QQ(0)
    for size in range(r + 1):
        for J in combinations(range(n), size):
            Jc = [k for k in range(n) if k not in J]
            w = W(Jc, r - size)
            for eps in product((1, -1), repeat=size):
                emap = dict(zip(J, eps))
                moved = [x * q ** emap.get(j, 0) for j, x in enumerate(z)]
                total += w * V(J, eps, Jc) * point_value(f, moved, halfparams)
    return total


def _center_prefactor(total, spec, flat_input):
    """Multiply by q^(-r*d/n) for the center-of-mass reduced operator,
    d being the (homogeneous) degree of the input."""
    degs = {sum(e[: spec.n]) for e in flat_input.terms}
    if not degs:
        return total
    if len(degs) > 1:
        raise ValueError("centered operator needs a homogeneous input")
    d, = degs
    if flat_input.scale != total.scale and d:
        d = d * total.scale // flat_input.scale
    e = [0] * (spec.n + _NP)
    e[spec.n + _QH] = -2 * spec.r * d
    return total.mul_monomial(tuple(e), 1, spec.n * total.scale)


def apply_one_var(f, j, params=None):
    """The rank-one operator acting in the variable z_j alone:
    v_b(z_j) (T_j - 1) + v_b(1/z_j) (T_j^{-1} - 1)."""
    params = params or IDENTITY
    n = f.n
    eng = _engine(n, params)
    flat = flatten(f, KOORN_VARS)
    signed = []
    for eps in (1, -1):
        coeff = vb_factor(eng.vars, n, j, eps, params)
        steps = tuple(2 * eps if i == j else 0 for i in range(n))
        moved = flat_shift(flat, steps, n + _QH) + (-flat)
        signed.append((None, 1, coeff.mul_poly(moved)))
    den, total = _grouped_sum(signed)
    return unflatten(divide_factors(total[None], den), n)


def elementary_symmetric_apply(r, f, params=None):
    """S_r of the commuting one-variable operators, applied to f."""
    n = f.n
    total = None
    for J in combinations(range(n), r):
        g = f
        for j in J:
            g = apply_one_var(g, j, params)
        total = g if total is None else total + g
    return total if total is not None else ParamPoly.zero(f.vars)


# ---------------------------------------------------------------------------
# the differential (q -> 1) branch


def _apply_jacobi(spec, flat):
    """The second-order hypergeometric operator on the torus, applied to a
    flat polynomial over ``JACOBI_VARS``: Euler-square part plus cotangent
    one- and two-body terms written as exact rational multipliers."""
    if flat.scale != 1:
        raise ValueError("the differential branch lives on the integer lattice")
    n = spec.n
    vars_ = flat.vars
    width = flat.n
    g_e = tuple(1 if i == n else 0 for i in range(width))
    t0_e = tuple(1 if i == n + 1 else 0 for i in range(width))
    t1_e = tuple(1 if i == n + 2 else 0 for i in range(width))
    zero = (0,) * width

    def euler(p, j):
        return ParamPoly(p.vars, {e: c * e[j] for e, c in p.terms.items()
                                  if e[j]}, p.scale)

    signed = []
    # sum_j theta_j^2
    acc = ParamPoly(vars_, {e: c * sum(x * x for x in e[:n])
                            for e, c in flat.terms.items()})
    signed.append((None, 1, LaurentRat(acc)))
    # pair terms: g (z_j z_k + 1)/(z_j z_k - 1) (theta_j + theta_k)
    #           + g (z_j + z_k)/(z_j - z_k)     (theta_j - theta_k)
    for j, k in combinations(range(n), 2):
        ejk = tuple((1 if i in (j, k) else 0) for i in range(width))
        ej = tuple((1 if i == j else 0) for i in range(width))
        ek = tuple((1 if i == k else 0) for i in range(width))
        tp = euler(flat, j) + euler(flat, k)
        tm = euler(flat, j) + (-euler(flat, k))
        if tp:
            num = (ParamPoly(vars_, {ejk: 1, zero: 1})
                   .mul_monomial(g_e, 1) * tp)
            signed.append((None, 1, LaurentRat(num).with_binomial_factor(
                (ejk, 1), (zero, -1))))
        if tm:
            num = (ParamPoly(vars_, {ej: 1, ek: 1})
                   .mul_monomial(g_e, 1) * tm)
            signed.append((None, 1, LaurentRat(num).with_binomial_factor(
                (ej, 1), (ek, -1))))
    # one-body terms: [tg0 (z+1)/(z-1) + tg1 (z-1)/(z+1)] theta_j
    for j in range(n):
        ej = tuple((1 if i == j else 0) for i in range(width))
        tj = euler(flat, j)
        if not tj:
            continue
        num0 = (ParamPoly(vars_, {ej: 1, zero: 1})
                .mul_monomial(t0_e, 1) * tj)
        signed.append((None, 1, LaurentRat(num0).with_binomial_factor(
            (ej, 1), (zero, -1))))
        num1 = (ParamPoly(vars_, {ej: 1, zero: -1})
                .mul_monomial(t1_e, 1) * tj)
        signed.append((None, 1, LaurentRat(num1).with_binomial_factor(
            (ej, 1), (zero, 1))))
    den, total = _grouped_sum(signed)
    return divide_factors(total[None], den)


# ---------------------------------------------------------------------------
# matrices and commutators


_MONO_CACHE = {}


def apply_to_monomial(spec, lam):
    key = (spec.key, tuple(lam))
    got = _MONO_CACHE.get(key)
    if got is None:
        one = ParamPoly.one(JACOBI_VARS if spec.kind == "jacobi"
                            else KOORN_VARS)
        got = apply_operator(spec, monomial_symmetric(lam, spec.group, one))
        _MONO_CACHE[key] = got
    return got


def operator_matrix(spec, lam):
    """Matrix of the operator on the span of m_mu, mu below lam, in the
    monomial basis: entry [mu][nu] is the m_nu coefficient of the image of
    m_mu.  Triangularity makes every entry with nu not below mu vanish."""
    below = weights_below(lam)
    matrix = {}
    for mu in below:
        img = apply_to_monomial(spec, mu)
        matrix[mu] = expand_in_monomials(img, spec.group)
    return matrix


def _apply_by_linearity(spec, coeffs):
    """Apply an operator to sum(c_mu * m_mu) through cached monomial
    applications; coeffs maps weights to ParamPoly coefficients."""
    total = None
    for mu, c in coeffs.items():
        img = apply_to_monomial(spec, mu).scalar_mul(c)
        total = img if total is None else total + img
    if total is None:
        total = ParamPoly.zero(torus_vars(spec.n))
    return total


def commutator_on_basis(spec_a, spec_b, lam):
    """[A, B] m_lam, exactly.

    Both compositions expand the inner image in the monomial basis and
    reuse cached single applications (the operators are linear over the
    coefficient field)."""
    a_lam = expand_in_monomials(apply_to_monomial(spec_a, lam), spec_a.group)
    b_lam = expand_in_monomials(apply_to_monomial(spec_b, lam), spec_a.group)
    ab = _apply_by_linearity(spec_a, b_lam)
    ba = _apply_by_linearity(spec_b, a_lam)
    return ab + (-ba)

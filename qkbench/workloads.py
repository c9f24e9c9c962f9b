"""The three request workloads and the checks of their outputs.

A workload is a fixed list of ``qkoorn`` command lines (one round), the
same for every seed; the seed picks the random points the checks evaluate
at.  Every check compares against ``textbook`` computations, never against
stored output.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import textbook as tb

# Classical-family substitutions of the half-parameters passed to
# ``qkoorn poly --params`` (pairs (R, S) of the paper's classification).
FAMILIES = {
    "Bn:Bn": {"gb": "1", "gc": "1", "gd": "1"},
    "BCn:Cn": {"gc": "ga", "gd": "gb"},
    "Cn:Cn": {"ga": "gb", "gc": "gb", "gd": "gb"},
}

# (n, weight, family or None for the full field, copies per round).
# Six requests run faster than the four Bn:Bn (2,2) and (3,0) copies
# (0.2 s to 0.35 s each) and six run slower, so the median latency is the
# middle of those four copies' samples.  Keep it inside one group: at the
# gap between two groups the median is the slowest sample of one averaged
# with the fastest of the next, and it spread by a quarter over ten seeds.
POLY_MENU = (
    (1, (3,), None, 1),
    (1, (4,), None, 2),
    (1, (5,), None, 1),
    (1, (6,), "Bn:Bn", 1),
    (1, (6,), "Cn:Cn", 1),
    (2, (1, 1), None, 1),
    (2, (2, 0), None, 1),
    (2, (2, 1), None, 2),
    (2, (2, 1), "BCn:Cn", 1),
    (2, (2, 2), "Bn:Bn", 2),
    (2, (2, 2), "Cn:Cn", 1),
    (2, (3, 0), "Bn:Bn", 2),
)

APPLY_TOP = (2, 0, 0)      # n = 3; every dominant weight below it, r = 1..n

# one rational point (q, t, a, b, c, d); q is a rational square as the
# numeric route requires
NUMERIC_POINT = (Fraction(1, 4), Fraction(1, 2), Fraction(1, 2),
                 Fraction(-1, 3), Fraction(1, 5), Fraction(-1, 7))
NUMERIC_TEXT = ",".join("%s=%s" % kv for kv in zip("qtabcd", NUMERIC_POINT))
NUMERIC_M = 3
GS_WEIGHTS = ((1,), (2,), (3,), (4,), (5,), (1, 0), (1, 1), (2, 0))
EIGEN_WEIGHTS = tuple((k,) for k in range(1, 9)) + tuple(
    tb.dominant_below((3, 3)) + [(4, 0)])

# Relative tolerance of the Gram-Schmidt orthogonality check:
# |<P, m_mu>| <= GS_RTOL * sqrt(<P, P> <m_mu, m_mu>) under the quadrature.
GS_RTOL = 1e-6
QUAD_POINTS = {1: 96, 2: 48}

# random half-parameter points per output, and torus points per parameter
# point, at which the symbolic checks evaluate; torus points of the eigen
# route at the numeric point
PARAM_POINTS = 2
TORUS_POINTS = 2
NUMERIC_TORUS_POINTS = 3


class Request:
    __slots__ = ("key", "argv", "meta")

    def __init__(self, key, argv, meta):
        self.key = key
        self.argv = argv
        self.meta = meta


def _wtext(lam):
    return ",".join(str(x) for x in lam)


def poly_round():
    """The round's requests, the same in every round and for every seed:
    one pass over the menu, then a second pass over the entries with two
    copies.  Requests for one family share operator matrices, and a
    shuffled order moved the cold-matrix cost onto the requests near the
    median, which then moved by a tenth from seed to seed."""
    passes = [[], []]
    for n, lam, fam, copies in POLY_MENU:
        argv = ["poly", "--n", str(n), "--weight", _wtext(lam)]
        if fam:
            argv += ["--params", json.dumps(FAMILIES[fam])]
        req = Request(("poly", n, lam, fam), argv,
                      {"lam": lam, "family": fam})
        for k in range(copies):
            passes[k].append(req)
    return passes[0] + passes[1]


def apply_round(workdir, top=APPLY_TOP):
    """Requests plus the input files (m_lam as qkoorn JSON) they read.

    The requests are the same in every round and for every seed: ascending
    lam, then r, as a client filling the operator matrix sends them.  Seeded
    variations (a shuffled order, a rational multiple of m_lam) moved the
    round time by up to a third, as the cold caches and the coefficient
    sizes landed on different requests; the seed picks the check points."""
    n = len(top)
    out = []
    files = {}
    for lam in tb.dominant_below(top):
        path = os.path.join(workdir, "m_%s.json" % "".join(map(str, lam)))
        files[path] = json.dumps({
            "n": n, "weight": list(lam), "basis": "monomial",
            "half_lattice": False, "group": "BC",
            "coeffs": [{"weight": list(lam), "value": "1"}]})
        for r in range(1, n + 1):
            op = json.dumps({"kind": "Dr", "n": n, "r": r, "group": "BC"})
            out.append(Request(("apply", r, lam),
                               ["apply", "--op", op, "--in", path],
                               {"lam": lam, "r": r}))
    return out, files


def numeric_round():
    """The round's requests, the same in every round and for every seed:
    by n, then weight, each weight's Gram-Schmidt request before its eigen
    request.  The eigen requests share operator matrices, so a shuffled
    order moved the cold-matrix cost between requests and the median
    latency by a quarter from seed to seed; the seed picks the check
    points."""
    out = []
    for lam in GS_WEIGHTS:
        argv = ["poly", "--n", str(len(lam)), "--weight", _wtext(lam),
                "--method", "gs", "--numeric", NUMERIC_TEXT,
                "--trunc", str(NUMERIC_M)]
        out.append(Request(("gs", lam), argv, {"lam": lam, "route": "gs"}))
    for lam in EIGEN_WEIGHTS:
        argv = ["poly", "--n", str(len(lam)), "--weight", _wtext(lam),
                "--numeric", NUMERIC_TEXT]
        out.append(Request(("eigen", lam), argv,
                           {"lam": lam, "route": "eigen"}))
    out.sort(key=lambda req: (len(req.meta["lam"]), req.meta["lam"],
                              req.meta["route"] == "eigen"))
    return out


def numeric_weight_dims():
    """The (n, M) truncated weights the numeric requests share."""
    return sorted({(len(lam), NUMERIC_M) for lam in GS_WEIGHTS})


# ---------------------------------------------------------------------------
# random check points


def _rand_rational(rng, lo=2, hi=9):
    while True:
        v = Fraction(rng.randint(1, hi), rng.randint(lo, hi))
        if v != 1:
            return v if rng.random() < 0.5 else -v


def random_half(rng, family=None):
    """Random rational half-parameters, with a family's substitution."""
    free = {name: _rand_rational(rng) for name in tb.HALF_NAMES}
    if not family:
        return free
    half = dict(free)
    for name, image in FAMILIES[family].items():
        half[name] = tb.parse_coeff(image).evaluate(free)
    return half


def random_torus_point(rng, n, q):
    """Rational z avoiding every pole of Koornwinder's coefficients."""
    while True:
        z = tuple(_rand_rational(rng, 2, 13) for _ in range(n))
        bad = any(x * x == 1 or q * x * x == 1 or x * x == q for x in z)
        for j in range(n):
            for k in range(n):
                if j != k and (z[j] * z[k] == 1 or z[j] == z[k]):
                    bad = True
        if not bad:
            return z


# ---------------------------------------------------------------------------
# output parsing shared by the checks


class Failure(Exception):
    """An output failed a check."""


def _read_poly(text, lam, rational=False):
    """Parsed {mu: Coeff or Fraction} of an emitted expansion, after the
    structural checks every workload shares."""
    data = json.loads(text)
    if tuple(data["weight"]) != lam:
        raise Failure("weight %s, asked for %s" % (data["weight"], lam))
    coeffs = {}
    for item in data["coeffs"]:
        mu = tuple(item["weight"])
        if mu in coeffs:
            raise Failure("weight %s listed twice" % (mu,))
        if len(mu) != len(lam) or list(mu) != sorted(mu, reverse=True) \
                or min(mu) < 0:
            raise Failure("%s is not a dominant weight" % (mu,))
        if not tb.dominates(mu, lam):
            raise Failure("%s is not below %s in dominance" % (mu, lam))
        try:
            coeffs[mu] = (Fraction(item["value"]) if rational
                          else tb.parse_coeff(item["value"]))
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise Failure("coefficient of %s: %s" % (mu, exc))
    return coeffs


def _point_values(table, rng, family=None):
    """Random half-parameters and every coefficient of ``table`` (a dict of
    {mu: Coeff} expansions) evaluated there; a point on a pole of some
    coefficient is drawn again."""
    for _ in range(20):
        half = random_half(rng, family)
        try:
            return half, {k: {mu: c.evaluate(half) for mu, c in coeffs.items()}
                          for k, coeffs in table.items()}
        except ZeroDivisionError:
            continue
    raise Failure("no random parameter point avoids the poles")


def _check_eigen(values, lam, params, rng, points):
    """Koornwinder's eigen-equation at ``points`` random torus points."""
    p = tb.Expansion(values)
    ev = tb.koornwinder_eigenvalue(lam, params)
    for _ in range(points):
        z = random_torus_point(rng, len(lam), params[0])
        if tb.koornwinder_apply(p, z, params) != ev * p(z):
            raise Failure("eigen-equation fails at z=%s" % (z,))


def _check_monic(values, lam):
    if values.get(lam) != 1:
        raise Failure("leading coefficient is %s, not 1" % values.get(lam))


# ---------------------------------------------------------------------------
# per-workload checks; each returns a list of failure messages


def check_poly(outputs, rng):
    """outputs: {request key: (meta, emitted text)}."""
    errors = []
    for key in sorted(outputs, key=repr):
        meta, text = outputs[key]
        lam, fam = meta["lam"], meta["family"]
        try:
            coeffs = _read_poly(text, lam)
            for _ in range(PARAM_POINTS):
                half, values = _point_values({0: coeffs}, rng, fam)
                values = values[0]
                _check_monic(values, lam)
                _check_eigen(values, lam, tb.koornwinder_params(half), rng,
                             TORUS_POINTS)
        except (Failure, ValueError, KeyError) as exc:
            errors.append("%s: %s" % (key, exc))
    return errors


def check_apply(outputs, rng):
    """Support, diagonal against 2^r E_{r,n}, r = 1 against Koornwinder's
    operator, r >= 2 by commutation with D_1 through the returned images."""
    errors = []
    images = {}
    for key, (meta, text) in outputs.items():
        try:
            images[(meta["r"], meta["lam"])] = _read_poly(text, meta["lam"])
        except (Failure, ValueError, KeyError) as exc:
            errors.append("%s: %s" % (key, exc))
    if errors or not images:
        return errors
    n = len(next(iter(images))[1])
    for _ in range(PARAM_POINTS):
        half, values = _point_values(images, rng)
        params = tb.koornwinder_params(half)
        scale = tb.operator_scale(half, n)
        zs = [random_torus_point(rng, n, params[0])
              for _ in range(TORUS_POINTS)]
        for (r, lam), vals in sorted(values.items()):
            try:
                _check_image(r, lam, vals, values, half, params, scale, zs)
            except Failure as exc:
                errors.append("%s: %s" % (("apply", r, lam), exc))
        if errors:
            break
    return errors


def _check_image(r, lam, vals, values, half, params, scale, zs):
    if vals.get(lam, 0) != tb.paper_eigenvalue(r, lam, half):
        raise Failure("diagonal entry differs from 2^r E_{r,n}")
    img = tb.Expansion(vals)
    for z in zs:
        if r == 1:
            ref = tb.koornwinder_apply(tb.Expansion({lam: 1}), z, params)
            if img(z) != ref / scale:
                raise Failure("image differs from Koornwinder's operator "
                              "at z=%s" % (z,))
            continue
        # an image missing here belongs to a request that failed, which
        # the run already counts; the commutation is then not checkable
        d1 = values.get((1, lam))
        if d1 is None or any((r, nu) not in values for nu in d1):
            return
        lhs = tb.koornwinder_apply(img, z, params) / scale
        rhs = 0
        for nu, c in d1.items():
            rhs += c * tb.Expansion(values[(r, nu)])(z)
        if lhs != rhs:
            raise Failure("D_1 D_%d m != D_%d D_1 m at z=%s" % (r, r, z))


def check_numeric(outputs, rng):
    """Eigen route: rational and exactly Koornwinder's eigenfunction at the
    point.  Gram-Schmidt route: orthogonal to each lower monomial under the
    benchmark's own quadrature of the truncated weight."""
    errors = []
    quadratures = {}
    for key in sorted(outputs, key=repr):
        meta, text = outputs[key]
        lam = meta["lam"]
        try:
            values = _read_poly(text, lam, rational=True)
            _check_monic(values, lam)
            if meta["route"] == "eigen":
                _check_eigen(values, lam, NUMERIC_POINT, rng,
                             NUMERIC_TORUS_POINTS)
                continue
            n = len(lam)
            quad = quadratures.get(n)
            if quad is None:
                quad = quadratures[n] = tb.TorusQuadrature(
                    n, NUMERIC_M, NUMERIC_POINT, QUAD_POINTS[n])
            _check_orthogonal(values, lam, quad)
        except (Failure, ValueError, KeyError) as exc:
            errors.append("%s: %s" % (key, exc))
    return errors


def _check_orthogonal(values, lam, quad):
    p = tb.Expansion({mu: float(c) for mu, c in values.items()})
    pp = quad.inner(p, p).real
    for mu in tb.dominant_below(lam):
        if mu == lam:
            continue
        m = tb.Expansion({mu: 1.0})
        val = abs(quad.inner(p, m))
        scale = (pp * quad.inner(m, m).real) ** 0.5
        if not val <= GS_RTOL * scale:
            raise Failure("<P, m_%s> = %.3g exceeds %.0e relative"
                          % (mu, val / scale, GS_RTOL))

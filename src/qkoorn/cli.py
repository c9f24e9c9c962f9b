"""Command-line surface: compute polynomials, apply operators, run the
verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 degenerate parameters, 4 internal contract violation.  Every input is
checked where it is parsed, and a bad one exits 2 through ``_usage``; every
other failure a request raises is mapped to its exit code in one place,
``main``.  Each failure prints one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .errors import (DegenerateNorm, DenominatorVanishes, DivergentSeries,
                     NotDivisible, NotEigenfunction, NotInvariant,
                     ZeroDenominator)
from .koornwinder import (OrthoPoly, evaluate_jacobi_coeffs, family_specialize,
                          jacobi_triangular, koornwinder_triangular,
                          macdonald_An_extract, qh1_limit)
from .operators import (OperatorSpec, ParamMap, apply_operator,
                        apply_to_monomial, commutator_on_basis,
                        half_lattice_poles, point_value, pointwise_apply)
from .ratfield import JACOBI_VARS, KOORN_VARS, QQ, ParamPoly, ParamRat
from .spectra import (cp_check, eigenvalue_Ern, eigenvalue_core,
                      eigenvalue_core_recursive, linear_system_residual)
from .weights import (dominance_leq, expand_in_monomials, monomial_symmetric,
                      weights_below)
from . import weightfn

USAGE_ERROR = 2
DEGENERATE = 3
CONTRACT = 4


def _usage(message):
    """Refuse a bad input: one error line and the usage exit code."""
    print("error: %s" % message, file=sys.stderr)
    raise SystemExit(USAGE_ERROR)


def _check_sizes(args, *lows):
    """Refuse an option given below its least value (name, least)."""
    for name, low in lows:
        value = getattr(args, name)
        if value is not None and value < low:
            _usage("--%s must be at least %d" % (name, low))


def _parse_weight(text, n):
    if n < 1:
        _usage("--n must be at least 1")
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        parts = ()
    if len(parts) != n or any(x < 0 for x in parts) or \
            list(parts) != sorted(parts, reverse=True):
        _usage("weight must be a dominant length-%d vector" % n)
    return parts


def _parse_numeric(text):
    vals = {}
    try:
        for piece in text.split(","):
            key, _, val = piece.partition("=")
            vals[key.strip()] = QQ(val.strip())
        return weightfn.NumericPoint(*(vals[k] for k in "qtabcd"))
    except KeyError:
        _usage("numeric point needs q,t,a,b,c,d")
    except (ValueError, ZeroDivisionError) as exc:
        _usage("bad numeric point %r: %s" % (text, exc))


def _load_params(args):
    if not args.params:
        return None
    text = args.params
    try:
        if os.path.exists(text):
            with open(text) as fh:
                data = json.load(fh)
        else:
            data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("not a JSON object")
        return ParamMap(data)
    except (OSError, ValueError, TypeError, ZeroDivisionError) as exc:
        _usage("bad --params: %s" % exc)


def _emit(payload, args):
    if args.format == "json":
        body = json.dumps(payload, sort_keys=True, indent=2)
    else:
        body = _as_text(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body + "\n")
    else:
        print(body)


def _as_text(payload):
    if isinstance(payload, dict) and "checks" in payload:
        lines = []
        for c in payload["checks"]:
            lines.append("%-6s %s" % ("PASS" if c["pass"] else "FAIL",
                                      c["id"]))
        lines.append("suite %s: %d/%d passed" %
                     (payload["suite"], payload["passed"], payload["total"]))
        return "\n".join(lines)
    return json.dumps(payload, sort_keys=True, indent=2)


def cmd_poly(args):
    _check_sizes(args, ("trunc", 0))
    n = args.n
    lam = _parse_weight(args.weight, n)
    # only the symbolic eigen and an routes take a parameter substitution
    if args.params and (args.method in ("gs", "jacobi", "family")
                        or args.method == "eigen" and args.numeric):
        _usage("--params does not apply to %s" % (
            "--numeric" if args.method == "eigen" else
            "--method " + args.method))
    # only the eigen and gs routes run at a numeric point
    if args.numeric and args.method in ("jacobi", "an", "family"):
        _usage("--numeric does not apply to --method %s" % args.method)
    params = _load_params(args)
    if args.method == "eigen":
        if args.numeric:
            point = _parse_numeric(args.numeric)
            p = weightfn.koornwinder_numeric(lam, point)
            payload = _numeric_json(p)
        else:
            p = koornwinder_triangular(lam, params)
            payload = p.to_json()
    elif args.method == "gs":
        point = _parse_numeric(args.numeric) if args.numeric \
            else weightfn.DEFAULT_POINT
        spec = weightfn.WeightFunctionSpec(n, M=args.trunc, point=point)
        p = weightfn.gram_schmidt_oracle(lam, spec)
        payload = p.to_json()
    elif args.method == "jacobi":
        p = jacobi_triangular(lam)
        payload = p.to_json()
    elif args.method == "an":
        p = koornwinder_triangular(lam, params)
        payload = macdonald_An_extract(p).to_json()
    else:  # "family", the last of the parser's choices
        if not args.family:
            _usage("--family required")
        try:
            fam = family_specialize(args.family)
        except ValueError as exc:
            _usage(str(exc))
        p = koornwinder_triangular(lam, fam)
        payload = p.to_json()
        payload["family"] = args.family
    _emit(payload, args)
    return 0


def _numeric_json(p):
    coeffs = []
    for mu in sorted(p.coeffs):
        coeffs.append({"weight": list(mu), "value": repr(p.coeffs[mu])})
    return {"n": p.n, "weight": list(p.weight), "basis": "monomial",
            "half_lattice": False, "coeffs": coeffs}


def _poly_from_json(data, pvars):
    """The polynomial of a ``poly`` output, its coefficients read over the
    parameter names ``pvars``."""
    scale = 2 if data.get("half_lattice") else 1
    group = data.get("group", "BC")
    coeffs = {}
    for item in data["coeffs"]:
        mu = tuple(item["weight"])
        coeffs[mu] = _parse_value(item["value"], pvars)
    return OrthoPoly(data.get("weight") and tuple(data["weight"]) or
                     max(coeffs), coeffs, group, scale)


def _parse_value(text, pvars):
    try:
        # str(): a hand-written file may give a rational as a JSON number
        return ParamRat.parse(pvars, str(text))
    except (ValueError, ZeroDivisionError):
        _usage("cannot parse coefficient %r over %s" % (text, ",".join(pvars)))


def cmd_apply(args):
    try:
        if os.path.exists(args.op):
            with open(args.op) as fh:
                op_data = json.load(fh)
        else:
            op_data = json.loads(args.op)
        spec = OperatorSpec.from_json(op_data)
    except (KeyError, ValueError) as exc:
        _usage("bad operator spec: %s" % exc)
    pvars = JACOBI_VARS if spec.kind == "jacobi" else KOORN_VARS
    try:
        with open(args.infile) as fh:
            data = json.load(fh)
        p = _poly_from_json(data, pvars)
    except (OSError, KeyError, ValueError) as exc:
        _usage("bad input polynomial: %s" % exc)
    if p.n != spec.n:
        _usage("the operator acts on %d variables, the input has %d"
               % (spec.n, p.n))
    f = p.to_laurent(ParamPoly.one(pvars))
    if spec.kind == "a_type_centered" and \
            len({sum(e) for e in f.terms}) > 1:
        _usage("the centered operator needs a homogeneous input")
    poles = half_lattice_poles(spec) if f.scale > 1 else ()
    if poles:
        _usage("a half-lattice input needs %s mapped to 1: the v_b shape "
               "(g^2 w + 1)/(g (w + 1)) keeps its pole at w = -1 for g = %s"
               % (" and ".join(poles), ", ".join(poles)))
    try:
        img = apply_operator(spec, f)
    except NotInvariant:
        _usage("the input is not invariant under the operator's group %s"
               % spec.group)
    coeffs = expand_in_monomials(img, spec.group)
    out = OrthoPoly(p.weight, coeffs, spec.group, p.scale)
    _emit(out.to_json(), args)
    return 0


# ---------------------------------------------------------------------------
# verification suites


def _suite_checks(args, maxdeg):
    suite, n = args.suite, args.n
    checks = []

    def add(cid, ok, detail=""):
        checks.append({"id": cid, "pass": bool(ok), "detail": detail})

    if suite in ("symmetry", "orthogonality"):
        point = _parse_numeric(args.numeric) if args.numeric \
            else weightfn.DEFAULT_POINT
        M = args.trunc
        spec = weightfn.WeightFunctionSpec(n, M=M, point=point)

    if suite == "appendixB":
        for nn in range(1, args.max + 1):
            tvars = tuple("t%d" % i for i in range(1, nn + 1))
            ts = [ParamPoly.variable(tvars, v) for v in tvars]
            one = ParamPoly.one(tvars)
            for r in range(1, nn + 1):
                res = linear_system_residual(r, nn, ts, one)
                add("linear-system n=%d r=%d" % (nn, r), res.is_zero(),
                    "the triangular system for the translator-free limits")
        for nn in range(1, min(args.max, 5) + 1):
            allvars = tuple("t%d" % i for i in range(1, nn + 1)) + \
                tuple("p%d" % i for i in range(1, nn + 1))
            ts = [ParamPoly.variable(allvars, "t%d" % i)
                  for i in range(1, nn + 1)]
            ps = [ParamPoly.variable(allvars, "p%d" % i)
                  for i in range(1, nn + 1)]
            one = ParamPoly.one(allvars)
            for r in range(1, nn + 1):
                direct = eigenvalue_core(r, ts, ps[r - 1:], one)
                rec = eigenvalue_core_recursive(r, ts, ps[r - 1:], one)
                add("eigenvalue-recursion n=%d r=%d" % (nn, r), direct == rec)
            prod = one
            for t in ts:
                prod = prod * (t - ps[-1])
            add("top-order product n=%d" % nn,
                eigenvalue_core(nn, ts, [ps[-1]], one) == prod)
        for p in range(0, 9):
            add("sign-sum c_%d" % p, cp_check(p) == (-1) ** p)
    elif suite == "commute":
        lams = _all_weights(n, maxdeg)
        for ra in range(1, n + 1):
            for rb in range(ra + 1, n + 1):
                for lam in lams:
                    c = commutator_on_basis(OperatorSpec("koornwinder", n, ra),
                                            OperatorSpec("koornwinder", n, rb),
                                            lam)
                    add("commutator D%d,D%d lam=%s" % (ra, rb, lam),
                        c.is_zero(), "the operators mutually commute")
    elif suite in ("triangularity", "eigenvalues"):
        for lam in _all_weights(n, maxdeg):
            for r in range(1, n + 1):
                img = apply_to_monomial(OperatorSpec("koornwinder", n, r), lam)
                exp = expand_in_monomials(img)
                if suite == "triangularity":
                    add("triangular r=%d lam=%s" % (r, lam),
                        all(dominance_leq(nu, lam) for nu in exp),
                        "image supported below the input weight")
                else:
                    diag = exp.get(lam)
                    ev = eigenvalue_Ern(r, n, lam)
                    add("spectrum r=%d lam=%s" % (r, lam),
                        diag == ev if diag is not None else ev.is_zero(),
                        "diagonal entry equals the closed-form eigenvalue")
    elif suite == "symmetry":
        lams = _all_weights(n, maxdeg)
        monomials = {la: weightfn.monomial_numeric(la) for la in lams}
        for r in range(1, n + 1):
            op = OperatorSpec("koornwinder", n, r)
            images = {la: weightfn.numeric_apply_to_monomial(op, la, point)
                      for la in lams}
            for la in lams:
                for mu in lams:
                    lhs = weightfn.inner_product(images[la], monomials[mu],
                                                 spec)
                    rhs = weightfn.inner_product(monomials[la], images[mu],
                                                 spec)
                    bound = weightfn.tol(point, M, sum(la) + sum(mu))
                    diff = lhs - rhs
                    if not isinstance(diff, weightfn.QuadExt):
                        # D_r m_0 = 0 pairs to a plain rational zero
                        diff = weightfn.QuadExt.rational(diff, point.H)
                    add("symmetry r=%d %s|%s" % (r, la, mu),
                        diff.abs_leq(bound))
    elif suite == "orthogonality":
        cache = {}
        lams = _all_weights(n, maxdeg)
        ps = {lam: weightfn.gram_schmidt_oracle(lam, spec, cache)
              for lam in lams}
        for la in lams:
            for mu in lams:
                if la >= mu:
                    continue
                val = weightfn.inner_product(ps[la].to_laurent(one=QQ(1)),
                                             ps[mu].to_laurent(one=QQ(1)),
                                             spec)
                bound = weightfn.tol(point, M, sum(la) + sum(mu))
                qe = weightfn.QuadExt.rational(val, point.H)
                add("orthogonal %s|%s" % (la, mu), qe.abs_leq(bound))
    elif suite == "decouple":
        from .operators import elementary_symmetric_apply
        th1 = ParamMap({"th": "1"})
        for lam in _all_weights(n, maxdeg):
            m = monomial_symmetric(lam)
            for r in range(1, n + 1):
                lhs = apply_operator(OperatorSpec("koornwinder", n, r, th1), m)
                rhs = elementary_symmetric_apply(r, m, th1)
                add("decoupling r=%d lam=%s" % (r, lam), lhs == rhs,
                    "reduces to elementary symmetric function of rank-one "
                    "operators at vanishing internal coupling")
        for p in range(0, 9):
            add("sign-sum c_%d" % p, cp_check(p) == (-1) ** p)
    elif suite == "limits":
        for lam in _all_weights(n, maxdeg):
            psym = koornwinder_triangular(lam)
            jac = jacobi_triangular(lam)
            for exps in ((0, 1, 0, 0, 0), (1, 0, 0, 0, 0), (0, 0, 1, 0, 1),
                         (1, 1, 0, 1, 0)):
                g, g0, g1, g0p, g1p = exps
                lim = qh1_limit(psym, g, g0, g1, g0p, g1p)
                ref = evaluate_jacobi_coeffs(jac, g, g0 + g0p, g1 + g1p)
                add("limit lam=%s exps=%s" % (lam, exps),
                    lim.coeffs == ref.coeffs,
                    "shift unit to 1 matches the differential branch")
    elif suite == "families":
        from .koornwinder import FAMILY_PAIRS, verify_joint_eigen
        for pair in FAMILY_PAIRS:
            if pair == ("An", "An"):
                continue
            fam = family_specialize(pair)
            lam = tuple([1] + [0] * (n - 1))
            try:
                p = koornwinder_triangular(lam, fam)
                for r in range(1, n + 1):
                    verify_joint_eigen(p, r, fam)
                add("family %s:%s joint eigenfunctions" % pair, True)
            except Exception as exc:  # noqa: BLE001 - reported, not raised
                add("family %s:%s joint eigenfunctions" % pair, False,
                    str(exc))
    elif suite == "forms":
        for lam in _all_weights(n, maxdeg):
            m = monomial_symmetric(lam)
            for r in range(1, n + 1):
                sp = OperatorSpec("koornwinder", n, r)
                cid = "form-equivalence r=%d lam=%s" % (r, lam)
                add(cid, _agrees_at_points(sp, m, apply_operator(sp, m),
                                           random.Random(cid)),
                    "the staged image equals pointwise_apply at %d random "
                    "points, z_j and half-parameters +-a/b with "
                    "1 <= a, b <= %d, seeded by this id" % _FORMS_DRAW)
    else:
        _usage("unknown suite %r" % suite)
    return checks


# points per check, and the bound on the numerators and denominators drawn
_FORMS_DRAW = (3, 97)


def _agrees_at_points(spec, f, image, rng):
    """Whether ``image`` equals D_r f by ``pointwise_apply`` at random
    rational points (Schwartz-Zippel: a nonzero difference vanishes at few
    of them).  A point on a pole of some term is drawn again."""
    k, box = _FORMS_DRAW
    for _ in range(10 * k):
        z, h = ([QQ(rng.choice((1, -1)) * rng.randint(1, box),
                    rng.randint(1, box)) for _ in range(size)]
                for size in (spec.n, len(KOORN_VARS)))
        try:
            want = pointwise_apply(spec, f, z, h)
        except ZeroDivisionError:
            continue
        if point_value(image, z, h) != want:
            return False
        k -= 1
        if not k:
            return True
    return False


def _all_weights(n, maxdeg):
    """Every dominant weight of length n and size at most maxdeg, ascending:
    those below (maxdeg, 0, ..., 0)."""
    return weights_below((maxdeg,) + (0,) * (n - 1))


def cmd_verify(args):
    _check_sizes(args, ("n", 1), ("maxdeg", 0), ("max", 1), ("trunc", 0))
    # limits solves a full-field polynomial per check: degree 2 unless asked
    maxdeg = args.maxdeg if args.maxdeg is not None else \
        2 if args.suite == "limits" else 3
    checks = _suite_checks(args, maxdeg)
    if not checks:
        _usage("suite %s has no checks at n=%d, maxdeg=%d"
               % (args.suite, args.n, maxdeg))
    checks.sort(key=lambda c: c["id"])
    passed = sum(1 for c in checks if c["pass"])
    payload = {"suite": args.suite, "checks": checks, "passed": passed,
               "total": len(checks)}
    _emit(payload, args)
    return 0 if passed == len(checks) else 1


def build_parser():
    ap = argparse.ArgumentParser(
        prog="qkoorn",
        description="Exact commuting q-difference operators and their "
                    "polynomial eigenfunctions")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="compute an orthogonal polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--method", default="eigen",
                   choices=["eigen", "gs", "jacobi", "an", "family"])
    p.add_argument("--params")
    p.add_argument("--numeric")
    p.add_argument("--trunc", type=int, default=16)
    p.add_argument("--family")
    p.add_argument("--out")
    p.add_argument("--format", default="json", choices=["json", "text"])
    p.set_defaults(func=cmd_poly)

    a = sub.add_parser("apply", help="apply an operator to a polynomial")
    a.add_argument("--op", required=True, help="operator spec JSON or file")
    a.add_argument("--in", dest="infile", required=True)
    a.add_argument("--out")
    a.add_argument("--format", default="json", choices=["json", "text"])
    a.set_defaults(func=cmd_apply)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True,
                   choices=["triangularity", "eigenvalues", "commute",
                            "symmetry", "orthogonality", "decouple",
                            "limits", "families", "appendixB", "forms"])
    v.add_argument("--n", type=int, default=2)
    v.add_argument("--maxdeg", type=int)
    v.add_argument("--max", type=int, default=6)
    v.add_argument("--numeric")
    v.add_argument("--trunc", type=int, default=16)
    v.add_argument("--out")
    v.add_argument("--format", default="json", choices=["json", "text"])
    v.set_defaults(func=cmd_verify)
    return ap


_PARSER = None


def main(argv=None):
    # the parser is built on the first call, not at import, and kept
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ZeroDenominator, DegenerateNorm, DenominatorVanishes,
            DivergentSeries) as exc:
        print("error: degenerate parameters: %s" % exc, file=sys.stderr)
        return DEGENERATE
    except (NotDivisible, NotInvariant, NotEigenfunction) as exc:
        print("error: internal contract violation: %s" % exc, file=sys.stderr)
        return CONTRACT


if __name__ == "__main__":
    sys.exit(main())

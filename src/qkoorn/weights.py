"""Weight lattice P = Z^n, dominance order, Weyl orbits and the monomial
symmetric basis.

Weights are plain int tuples; spin/half-spin weights use doubled entries
together with a torus ``scale`` of 2 on the polynomials they index.  Groups
are named "BC" (permutations and sign flips), "A" (permutations only) and
"D" (permutations and even numbers of sign flips).
"""

from __future__ import annotations

from itertools import permutations
from operator import itemgetter

from .errors import NotInvariant
from .laurent import torus_vars
from .ratfield import KOORN_VARS, ParamPoly

HYPEROCTAHEDRAL = "BC"
PERMUTATIONS_ONLY = "A"
EVEN_SIGNS = "D"


def dominance_leq(lam_p, lam):
    """Partial order: every leading partial sum of lam_p is bounded."""
    if len(lam_p) != len(lam):
        raise ValueError("length mismatch")
    s1 = s2 = 0
    for a, b in zip(lam_p, lam):
        s1 += a
        s2 += b
        if s1 > s2:
            return False
    return True


def weights_below(lam):
    """All dominant weights below lam, ascending lexicographic order.

    Enumerates by bounded partial sums: mu_k ranges over
    0..min(mu_{k-1}, S_k - sum so far) where S_k is lam's k-th partial sum.
    """
    n = len(lam)
    bounds = []
    s = 0
    for a in lam:
        s += a
        bounds.append(s)
    out = []

    def rec(k, prefix, acc):
        if k == n:
            out.append(tuple(prefix))
            return
        hi = bounds[k] - acc
        if k > 0:
            hi = min(hi, prefix[-1])
        for v in range(0, hi + 1):
            prefix.append(v)
            rec(k + 1, prefix, acc + v)
            prefix.pop()

    rec(0, [], 0)
    out.sort()
    return out


def worbit(w, group=HYPEROCTAHEDRAL):
    """Deduplicated Weyl orbit of a weight, deterministic order.  Under D an
    odd number of sign changes is reached only when some entry is 0, whose
    sign change is free."""
    seen = set()
    for p in permutations(w):
        if group == PERMUTATIONS_ONLY:
            seen.add(p)
            continue
        support = [i for i, x in enumerate(p) if x]
        even_only = group == EVEN_SIGNS and len(support) == len(p)
        for mask in range(1 << len(support)):
            if even_only and bin(mask).count("1") % 2:
                continue
            v = list(p)
            for b, i in enumerate(support):
                if mask >> b & 1:
                    v[i] = -v[i]
            seen.add(tuple(v))
    return sorted(seen)


def dominant_rep(e, group):
    """The dominant member of the orbit of e: entries decreasing, and
    nonnegative except, under D, the last one, which carries the sign of
    the product of the entries when none is 0."""
    if group == PERMUTATIONS_ONLY:
        return tuple(sorted(e, reverse=True))
    out = sorted((abs(x) for x in e), reverse=True)
    if group == EVEN_SIGNS and out and out[-1] and \
            sum(x < 0 for x in e) % 2:
        out[-1] = -out[-1]
    return tuple(out)


def monomial_symmetric(lam, group=HYPEROCTAHEDRAL, one=None, scale=1):
    """m_lam: the orbit sum with unit coefficients."""
    if one is None:
        one = ParamPoly.one(KOORN_VARS)
    return ParamPoly(torus_vars(len(lam)),
                     {e: one for e in worbit(lam, group)}, scale)


def _generators(n, group, width):
    """Generators of the group on the first n of ``width`` variables, as
    maps of exponent tuples: a transposition of neighbours, and the sign
    flip of the first variable (BC) or of the first two (D)."""
    gens = []
    for i in range(n - 1):
        perm = list(range(width))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append(itemgetter(*perm))
    if group == HYPEROCTAHEDRAL and n >= 1:
        gens.append(lambda e: (-e[0],) + e[1:])
    elif group == EVEN_SIGNS and n >= 2:
        gens.append(lambda e: (-e[0], -e[1]) + e[2:])
    return gens


def is_invariant(f, group, n):
    """Whether f is invariant under the group acting on its first n torus
    variables; the parameter slots of a flat poly stay as they are.  Each
    generator maps the term dict, which must come back unchanged."""
    terms = f.terms
    for gen in _generators(n, group, f.n):
        if {gen(e): c for e, c in terms.items()} != terms:
            return False
    return True


def expand_in_monomials(f, group=HYPEROCTAHEDRAL):
    """Write an invariant polynomial as sum of c_lam * m_lam.

    Peels the lexicographically maximal dominant weight of the support, with
    its whole orbit.  Raises NotInvariant if the support is not a union of
    equal-coefficient orbits, which is exactly when f is not invariant.
    """
    rem = dict(f.terms)
    coeffs = {}
    while rem:
        lam = dominant_rep(max(rem), group)
        c = rem.get(lam)
        for o in worbit(lam, group):
            v = rem.pop(o, None)
            if c is None or v is None or v != c:
                raise NotInvariant("orbit of %s has unequal coefficients"
                                   % (lam,))
        coeffs[lam] = c
    return coeffs


def linear_refinement(weights, style="lex"):
    """Total order extending dominance; ascending (smallest first).

    "lex" is plain lexicographic; "graded" sorts by weight size first.  Both
    refine the dominance order.
    """
    if style == "lex":
        return sorted(weights)
    if style == "graded":
        return sorted(weights, key=lambda w: (sum(w), w))
    raise ValueError("unknown refinement %r" % style)

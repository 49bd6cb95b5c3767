"""Reference computations that several test files compare the library against.

None of these is reached by a command or a replay, so they live with the
tests: the Heisenberg Lie-algebra maps and commutators (oracles of `heis_mul`
and `heis_inv`), the product formula over `padic_valuation` and
`eval_embedding`, the patch-scope power cover (an oracle of the translates
that `cps certify` writes), the seven-candidate patch kappa of the growth
search that `heis hull` once ran (an oracle of the hull it reads from the
window), polynomial evaluation, and builders of field elements and
Heisenberg points.
"""

from collections import namedtuple
from fractions import Fraction

from meyerlab import heis, verify
from meyerlab.exactnum import (
    RATIONAL_FIELD,
    NFElem,
    abs_embedding_leq,
    eval_embedding,
    frac_str,
    iv_abs,
    padic_valuation,
    prime_factors,
)


def elem(field, coeffs):
    """The element of `field` with power-basis coordinates `coeffs` (missing ones are 0)."""
    return field.elem_from_json([frac_str(Fraction(c)) for c in coeffs])


def heis_point(field, x, y, z):
    """(x, y, z) as elements of `field`; rationals are coerced."""
    return tuple(v if isinstance(v, NFElem) else field.from_rational(Fraction(v)) for v in (x, y, z))


def poly_apply(poly, x):
    """P(x) by Horner's rule, for coefficients in increasing degree."""
    acc = x.field.zero()
    for c in reversed(list(poly)):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# The Heisenberg group H3 and its Lie algebra.  An algebra element
# a X + b Y + c Z is the tuple (a, b, c).
# ---------------------------------------------------------------------------


def heis_identity(field):
    zero = field.zero()
    return (zero, zero, zero)


def commutator(p, q):
    return heis.heis_mul(heis.heis_mul(heis.heis_mul(p, q), heis.heis_inv(p)), heis.heis_inv(q))


def bracket(u, v):
    zero = u[0].field.zero()
    return (zero, zero, u[0] * v[1] - v[0] * u[1])


def heis_exp(v):
    a, b, c = v
    return (a, b, c + a * b * Fraction(1, 2))


def heis_log(p):
    x, y, z = p
    return (x, y, z - x * y * Fraction(1, 2))


def bch2(u, v):
    """u + v + [u,v]/2; exact (all higher brackets vanish in a 2-step algebra)."""
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2] + bracket(u, v)[2] * Fraction(1, 2))


def commutator_map(xi, patch):
    """(homomorphism exact, trivial, Delone report of the image or None) of
    phi_xi(u) = [xi, u] = (0, 0, x_xi y_u - y_xi x_u) over the patch.

    The z-component is bilinear, so phi_xi is a homomorphism into the centre;
    the identity phi_xi(uv) = phi_xi(u) phi_xi(v) is checked exactly on every
    pair of patch points.
    """
    images = [xi[0] * u[1] - xi[1] * u[0] for u in patch.points]
    hom_ok = all(
        commutator(xi, heis.heis_mul(u, v)) == heis.heis_mul(commutator(xi, u), commutator(xi, v))
        for u in patch.points
        for v in patch.points
    )
    distinct = sorted(set(images), key=lambda e: e.coeffs)
    trivial = all(e.is_zero for e in distinct)
    report = None
    if not trivial and len(distinct) >= 2:
        report = verify.delone_certify([distinct], patch.scheme.physical_place, patch.radius / 2)
    return hom_ok, trivial, report


def window_contains_internal(scheme, p) -> bool:
    """Whether the internal image of the Heisenberg point p lies in the scheme's box window."""
    place = scheme.internal_place
    return all(abs_embedding_leq(v, place, c) for v, c in zip(p, scheme.window))


# ---------------------------------------------------------------------------
# The product formula.
# ---------------------------------------------------------------------------

ProductFormula = namedtuple("ProductFormula", "contributions exact_product norm_abs holds")


def product_formula(x) -> ProductFormula:
    """Over Q: the exact product of |x|_v over the places where |x|_v != 1 is 1.

    Over a quadratic field: |N(x)| is the exact product of the archimedean
    absolute values, so the embedding intervals must bracket it; x is a unit
    iff |N(x)| = 1.
    """
    if not isinstance(x, NFElem):
        x = RATIONAL_FIELD.from_rational(Fraction(x))
    if x.is_zero:
        raise ValueError("the product formula needs a nonzero element")
    field = x.field
    if field.degree == 1:
        q = x.coeffs[0]
        contributions = [("arch:0", abs(q))]
        prod = abs(q)
        for p in sorted(set(prime_factors(q.numerator)) | set(prime_factors(q.denominator))):
            value = Fraction(p) ** (-padic_valuation(q, p))
            contributions.append((f"p:{p}", value))
            prod *= value
        return ProductFormula(contributions, prod, abs(q), prod == 1)
    norm_abs = abs(x.norm())
    contributions = []
    lo_prod, hi_prod = Fraction(1), Fraction(1)
    for i, root in enumerate(field.real_roots()):
        lo, hi = iv_abs(eval_embedding(x, root, 64))
        contributions.append((f"arch:{i}", (lo + hi) / 2))
        lo_prod *= lo
        hi_prod *= hi
    return ProductFormula(contributions, None, norm_abs, lo_prod <= norm_abs <= hi_prod)


# ---------------------------------------------------------------------------
# Power covers at patch scope.
# ---------------------------------------------------------------------------

PowerCover = namedtuple("PowerCover", "translates bound checked witness")


def approx_power_cover(patch_points, k, f_translates, group, patch_radius) -> PowerCover:
    """F_k = F^(k-1) with Lambda^k inside F_k * Lambda, checked on the inner ball.

    |F_k| <= |F|^(k-1) holds by construction and is asserted.  The patch-scope
    Lambda^k is the set of k-fold products of patch points; inclusion is
    checked for every such point inside the boundary-safe inner ball.  The
    witness is the first point that no translate covers, or None.
    """
    if k < 2:
        raise ValueError("power cover needs k >= 2")
    mul, inv, key = group.mul, group.inv, group.sort_key
    base = sorted(set(patch_points), key=key)
    fs = sorted(set(f_translates), key=key)
    f_k = fs
    for _ in range(k - 2):
        f_k = sorted({mul(f, g) for f in f_k for g in fs}, key=key)
    bound = len(fs) ** (k - 1)
    assert len(f_k) <= bound, "power cover exceeded |F|^(k-1)"
    power = base
    for _ in range(k - 1):
        power = sorted({mul(p, q) for p in power for q in base}, key=key)
    place = group.physical_place
    margin = max((verify.point_norm_hi(f, place) for f in f_k), default=Fraction(0))
    inner = Fraction(patch_radius) - margin
    patch_set = set(base)
    checked = 0
    for x in verify.points_within(power, group, inner):
        checked += 1
        if not any(mul(inv(f), x) in patch_set for f in f_k):
            return PowerCover(f_k, bound, checked, x)
    return PowerCover(f_k, bound, checked, None)


# ---------------------------------------------------------------------------
# Patch kappa of every coordinate subgroup.
# ---------------------------------------------------------------------------

HULL_CANDIDATES = {
    "trivial": (),
    "center": (2,),
    "x-axis": (0,),
    "y-axis": (1,),
    "x-center": (0, 2),
    "y-center": (1, 2),
    "full": (0, 1, 2),
}


def candidate_kappas(factors, radius, place) -> dict:
    """Per coordinate subgroup U', the patch bound kappa(U') of the product of
    the 1-D `factors` of a patch of this radius, as its NORM_BITS ceiling.

    kappa(U') is the larger of the patch-to-U' distance, max |x_k| off U', and
    the distance from the points of U' in [-R/2, R/2] to the patch: the
    covering radius on the axes of U', and dist(0, P_k) <= max |x_k| off them.
    """
    key = verify.exact_key(place)
    r = Fraction(radius) / 2
    ends, covs = [], []
    for xs in (sorted(f, key=key) for f in factors):
        ends.append(max(-xs[0], xs[-1], key=key))
        covs.append(verify.axis_covering_radius(xs, r, place))
    return {
        name: verify.dyadic_bounds(
            max((covs[k] if k in axes else ends[k] for k in range(3)), key=key), place
        )[1]
        for name, axes in HULL_CANDIDATES.items()
    }

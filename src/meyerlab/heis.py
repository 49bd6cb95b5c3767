"""The 3-dimensional Heisenberg group over exact coefficient rings.

Group law (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x*y'), centre the z-axis.
Everything is polynomial with integer coefficients, so applying either real
embedding coordinatewise is a group homomorphism and H3(O_K) embeds as a
lattice in H3(R) x H3(R).  A point is an (x, y, z) tuple of field elements,
and all operations below are exact.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from fractions import Fraction

from . import cps, verify
from .errors import UsageError
from .exactnum import (
    NFElem,
    NumberField,
    Record,
    abs_embedding_leq,
    eval_embedding,
    frac_str,
    iv_abs,
    str_frac,
)


def point(field: NumberField, x, y, z) -> tuple:
    """(x, y, z) as elements of `field`; rationals are coerced."""
    return tuple(v if isinstance(v, NFElem) else field.from_rational(Fraction(v)) for v in (x, y, z))


def heis_mul(p: tuple, q: tuple) -> tuple:
    x, y, z = p
    u, v, w = q
    return (x + u, y + v, z + w + x * v)


def heis_inv(p: tuple) -> tuple:
    x, y, z = p
    return (-x, -y, -z + x * y)


def heis_identity(field: NumberField) -> tuple:
    zero = field.zero()
    return (zero, zero, zero)


def commutator(p: tuple, q: tuple) -> tuple:
    return heis_mul(heis_mul(heis_mul(p, q), heis_inv(p)), heis_inv(q))


# ---------------------------------------------------------------------------
# Lie algebra, exp/log, degree-2 BCH (exact for a 2-step group).  An algebra
# element a X + b Y + c Z is the tuple (a, b, c).
# ---------------------------------------------------------------------------


def bracket(u: tuple, v: tuple) -> tuple:
    zero = u[0].field.zero()
    return (zero, zero, u[0] * v[1] - v[0] * u[1])


def heis_exp(v: tuple) -> tuple:
    a, b, c = v
    return (a, b, c + a * b * Fraction(1, 2))


def heis_log(p: tuple) -> tuple:
    x, y, z = p
    return (x, y, z - x * y * Fraction(1, 2))


def bch2(u: tuple, v: tuple) -> tuple:
    """u + v + [u,v]/2; exact (all higher brackets vanish in a 2-step algebra)."""
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2] + bracket(u, v)[2] * Fraction(1, 2))


# ---------------------------------------------------------------------------
# Schemes and patches.
# ---------------------------------------------------------------------------


class HeisScheme(cps.QuadraticScheme):
    """H3(O_K) cut along (sigma_1, sigma_2) with a coordinate box window.

    Window halfwidths (c_x, c_y, c_z); c_z must be positive, c_x and c_y may
    be zero (degenerate central schemes).  The window belongs to the scheme,
    so its patches carry none of their own.  A point is an (x, y, z) tuple of
    field elements.
    """

    kind = "heis"
    patch_type = "heis_patch"
    coords = ("x", "y", "z")

    def __init__(
        self,
        field: NumberField,
        window: Sequence,
        physical_root_index: int | None = None,
    ):
        if field.degree != 2 or field.real_root_count() != 2:
            raise UsageError("Heisenberg schemes need a totally real quadratic field")
        if len(window) != 3:
            raise UsageError(f"a Heisenberg window is cx,cy,cz, not {len(window)} half-widths")
        cx, cy, cz = (Fraction(c) for c in window)
        if cx < 0 or cy < 0 or cz <= 0:
            raise UsageError("window needs c_x, c_y >= 0 and c_z > 0")
        self.field = field
        self.window = (cx, cy, cz)
        self.physical_root_index = 1 if physical_root_index is None else physical_root_index
        if self.physical_root_index not in (0, 1):
            raise UsageError("physical_root_index must be 0 or 1")

    def __repr__(self):
        return f"HeisScheme({self.field!r}, window={tuple(map(str, self.window))})"

    # heis_mul and heis_inv are looked up when called, so a tracer that wraps
    # them sees the calls made through group_ops
    def mul(self, p: tuple, q: tuple) -> tuple:
        return heis_mul(p, q)

    def inv(self, p: tuple) -> tuple:
        return heis_inv(p)

    def model_set(self, window, radius) -> cps.Patch:
        # the scheme carries the window, so a Heisenberg patch's own is None
        return heis_model_set(self, radius)

    def product_window(self) -> tuple[Fraction, Fraction, Fraction]:
        """Box bound on W * W under the group law: z picks up the shear c_x c_y."""
        cx, cy, cz = self.window
        return (2 * cx, 2 * cy, 2 * cz + cx * cy)

    def window_contains_internal(self, p: tuple) -> bool:
        place = self.internal_place
        return all(abs_embedding_leq(v, place, c) for v, c in zip(p, self.window))

    def to_dict(self) -> dict:
        return {
            "kind": "heis",
            "field": self.field.to_dict(),
            "window": [frac_str(c) for c in self.window],
            "physical_root_index": self.physical_root_index,
        }


def heis_model_set(scheme: HeisScheme, radius) -> cps.Patch:
    """All points of H3(O_K) with physical box-norm <= R and internal in the window.

    The constraints are coordinatewise, so the patch is the product of three
    1-dimensional window enumerations and completeness is inherited.
    """
    radius = Fraction(radius)
    if radius <= 0:
        raise UsageError("radius must be positive")
    return cps.Patch(scheme, None, radius, tuple(cps.box_points(scheme, scheme.window, radius)))


def symmetrize(points: Sequence[tuple]) -> list[tuple]:
    """Lambda ∩ Lambda^-1: the minimal exact fix for box windows not being
    inverse-closed under (x,y,z)^-1 = (-x,-y,-z+xy)."""
    s = set(points)
    return sorted((p for p in points if heis_inv(p) in s), key=HeisScheme.sort_key)


# ---------------------------------------------------------------------------
# Global covering certificate for Lambda(W) * Lambda(W) inside F * Lambda(W).
# ---------------------------------------------------------------------------


class HeisCoverCertificate(Record):
    """W*W covered by group translates t*W of lattice internal images.

    Membership in t*W reads t^-1 w = (w1-t1, w2-t2, w3-t3-t1(w2-t2)); after
    fixing x- and y-translates, the shear contributes at most M*c_y to the
    z-target, with M a certified bound on |sigma_int(t1)| over the x-cover.
    """

    __slots__ = ("scheme", "x_cover", "y_cover", "z_cover", "shear_bound")

    @property
    def translates(self) -> list[tuple]:
        covers = (self.x_cover, self.y_cover, self.z_cover)
        return sorted(itertools.product(*(c.elements for c in covers)), key=HeisScheme.sort_key)

    def replay(self) -> tuple[bool, str]:
        """Check the three interval covers, and |sigma(t1)| <= shear_bound exactly;
        (ok, what was checked or which check failed).

        Take w in the product box.  The x chain gives t1 with
        |w1 - sigma(t1)| <= c_x and the y chain t2 with |w2 - sigma(t2)| <= c_y.
        Since |sigma(t1)| <= shear_bound, the z target
        w3 - sigma(t1)(w2 - sigma(t2)) lies in +-(w_z + shear_bound * c_y),
        which the z chain covers, so some t3 puts t^-1 w in W.
        """
        scheme = self.scheme
        place = scheme.internal_place
        cx, cy, cz = scheme.window
        wx, wy, wz = scheme.product_window()
        for name, cover, tile, needed in (
            ("x_cover", self.x_cover, cx, wx),
            ("y_cover", self.y_cover, cy, wy),
            ("z_cover", self.z_cover, cz, wz + self.shear_bound * cy),
        ):
            if cover.tile_halfwidth != tile:
                return False, f"the {name} tiles are not the window's half-width {tile}"
            if cover.target_hi < needed or cover.target_lo > -needed:
                return False, f"the {name} target does not reach +-{needed}"
            if not cover.replay(place):
                return False, f"the {name} is not a chain of lattice tiles over its target"
        if not all(abs_embedding_leq(t1, place, self.shear_bound) for t1 in self.x_cover.elements):
            return False, "an x translate exceeds the shear bound"
        return True, f"{len(self.translates)} translates"

    def to_dict(self) -> dict:
        return {
            "type": "heis_cover",
            "scheme": self.scheme.to_dict(),
            "x_cover": self.x_cover.to_dict(),
            "y_cover": self.y_cover.to_dict(),
            "z_cover": self.z_cover.to_dict(),
            "shear_bound": frac_str(self.shear_bound),
        }

    @staticmethod
    def from_dict(data: dict) -> "HeisCoverCertificate":
        scheme = cps.scheme_from_dict(data["scheme"], "heis")
        field = scheme.field
        return HeisCoverCertificate(
            scheme=scheme,
            x_cover=cps.DimCover.from_dict(data["x_cover"], field),
            y_cover=cps.DimCover.from_dict(data["y_cover"], field),
            z_cover=cps.DimCover.from_dict(data["z_cover"], field),
            shear_bound=str_frac(data["shear_bound"]),
        )


def heis_covering_certificate(scheme: HeisScheme) -> HeisCoverCertificate:
    """F finite with Lambda(W) Lambda(W) inside F Lambda(W), globally.

    Internal coordinates of a lattice product multiply inside W*W (sigma_int is
    a homomorphism), so covering the product window by translate tiles gives
    the global claim; the certificate replays from its three interval covers
    and the shear bound.
    """
    cx, cy, cz = scheme.window
    wx, wy, wz = scheme.product_window()
    field = scheme.field
    phys, internal = scheme.physical_place, scheme.internal_place
    x_cover = cps.cover_dimension(field, phys, internal, wx, cx)
    y_cover = cps.cover_dimension(field, phys, internal, wy, cy)
    shear = Fraction(0)
    for t1 in x_cover.elements:
        _, hi = iv_abs(eval_embedding(t1, internal, 96))
        shear = max(shear, hi)
    z_cover = cps.cover_dimension(field, phys, internal, wz + shear * cy, cz)
    cert = HeisCoverCertificate(scheme, x_cover, y_cover, z_cover, shear)
    ok, why = cert.replay()
    if not ok:
        raise AssertionError(f"freshly built Heisenberg cover failed to replay: {why}")
    return cert


# ---------------------------------------------------------------------------
# Centre intersection and commutator maps.
# ---------------------------------------------------------------------------


class CenterIntersection(Record):
    __slots__ = ("scheme", "radius", "z_values", "report")

    @property
    def conclusive(self) -> bool:
        return self.report is not None


def center_intersection(scheme: HeisScheme, radius) -> CenterIntersection:
    """Lambda(W)^2 ∩ centre as exact z-coordinates, with Delone constants.

    Central products are exactly the pairs gamma = (u,v,w), delta = (-u,-v,w')
    with product (0,0, w+w'-uv).  The patch is a coordinate product, so the
    z-fibre over every (u,v) is one list and the central set factors into
    {w+w'} - {uv}, computed on deduplicated exact values.
    """
    radius = Fraction(radius)
    cx, cy, cz = scheme.window
    field = scheme.field
    phys, internal = scheme.physical_place, scheme.internal_place
    xs, ys, zs = (
        cps.enumerate_window_elements(field, phys, internal, radius, c)
        for c in (cx, cy, cz)
    )
    sums = {w + wp for w in zs for wp in zs}
    prods = set()
    for u in xs:
        for v in ys:
            p = u * v
            # only products within reach of the z-ball can matter
            if abs_embedding_leq(p, phys, 3 * radius + 2 * cz):
                prods.add(p)
    seen = set()
    out = []
    for s in sums:
        for p in prods:
            z = s - p
            if z in seen:
                continue
            seen.add(z)
            if abs_embedding_leq(z, phys, radius):
                out.append(z)
    out.sort(key=lambda e: e.coeffs)
    report = None
    if len(out) >= 2:
        # the centre is a line: its z-values are measured as 1-tuples
        centre = cps.GaloisScheme(field, 1, scheme.physical_root_index)
        report = verify.delone_certify(
            [(z,) for z in out], centre.group_ops(), radius / 2, patch_radius=radius
        )
    return CenterIntersection(scheme, radius, out, report)


class CommutatorMapResult(Record):
    __slots__ = ("homomorphism_exact", "trivial", "report")


def commutator_map(xi: tuple, patch: cps.Patch) -> CommutatorMapResult:
    """phi_xi(u) = [xi, u] = (0, 0, x_xi y_u - y_xi x_u) over the patch.

    The z-component is bilinear, so phi_xi is a homomorphism into the centre;
    the identity phi_xi(uv) = phi_xi(u) phi_xi(v) is checked exactly on every
    pair of patch points.
    """
    if xi[0].field != patch.scheme.field:
        raise UsageError("xi and patch from different fields")
    images = [xi[0] * u[1] - xi[1] * u[0] for u in patch.points]
    hom_ok = True
    pts = patch.points
    for u in pts:
        for v in pts:
            lhs = commutator(xi, heis_mul(u, v))
            rhs = heis_mul(commutator(xi, u), commutator(xi, v))
            if lhs != rhs:
                hom_ok = False
                break
        if not hom_ok:
            break
    distinct = sorted(set(images), key=lambda e: e.coeffs)
    trivial = all(e.is_zero for e in distinct)
    report = None
    if not trivial and len(distinct) >= 2:
        scheme = patch.scheme
        centre = cps.GaloisScheme(scheme.field, 1, scheme.physical_root_index)
        report = verify.delone_certify([(e,) for e in distinct], centre.group_ops(), patch.radius / 2)
    return CommutatorMapResult(hom_ok, trivial, report)


# ---------------------------------------------------------------------------
# Schreiber hull search over coordinate subgroups.
# ---------------------------------------------------------------------------

HULL_CANDIDATES: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("trivial", ()),
    ("center", (2,)),
    ("x-axis", (0,)),
    ("y-axis", (1,)),
    ("x-center", (0, 2)),
    ("y-center", (1, 2)),
    ("full", (0, 1, 2)),
)

GROWTH_TOLERANCE = Fraction(11, 10)


def _axis_kappas(patch: cps.Patch) -> list[tuple]:
    """Per axis k of a product patch, exactly: (the largest |x_k| over the patch,
    the covering radius of factor k on [-R/2, R/2])."""
    ops = patch.group_ops()
    key = verify.exact_key(ops.place)
    return [
        (max(-xs[0], xs[-1], key=key), verify.axis_covering_radius(xs, patch.radius / 2, ops.place))
        for xs in verify.factors(patch.points, ops)
    ]


class HullReport(Record):
    """subgroup is the chosen candidate, or None when no candidate is stable;
    table maps each candidate to its (kappa_small, kappa_large)."""

    __slots__ = ("subgroup", "table")

    @property
    def aligned(self) -> bool:
        return self.subgroup is not None


def schreiber_hull(patch_small: cps.Patch, patch_large: cps.Patch) -> HullReport:
    """Minimal coordinate subgroup U' with a stable patch bound kappa.

    kappa(U') bounds both the distance from every patch point to U' and the
    distance from every point of U' in the inner ball to the patch; U' is the
    smallest candidate whose kappa does not grow (factor 11/10, plus an
    allowance) from the small patch to the large one.  Both patches must be
    coordinate products, and every kappa is the NORM_BITS ceiling of its
    exact value.
    """
    if patch_small.scheme.field != patch_large.scheme.field:
        raise UsageError("patches from different fields")
    if patch_large.radius < 2 * patch_small.radius:
        raise UsageError("need R2 >= 2 R1 to test stabilisation")
    place = patch_small.scheme.physical_place
    key = verify.exact_key(place)
    per_axis = [_axis_kappas(patch) for patch in (patch_small, patch_large)]
    table = {}
    for name, axes in sorted(HULL_CANDIDATES, key=lambda c: (len(c[1]), c[0])):
        # kappa(U') is the larger of the patch-to-U' distance, max |x_k| off U',
        # and the U'-ball-to-patch distance: the covering radius on the axes of
        # U', and dist(0, P_k) <= max |x_k| off them
        table[name] = tuple(
            verify.dyadic_bounds(
                max((cov if k in axes else end for k, (end, cov) in enumerate(kappas)), key=key),
                place,
            )[1]
            for kappas in per_axis
        )
    # kappa grows from one radius to the next by more than the factor wherever
    # a larger ball meets a larger gap of a factor, which is a bounded change;
    # on the README hull (sqrt2 1,1,1, R1 = 3, R2 = 6) kappa(full) grows from
    # 1/2 to sqrt2/2.  So the test also allows a quarter of the small radius,
    # while the distance to a subgroup that misses the set grows with R.
    allowance = patch_small.radius / 4
    stable = (name for name, (k1, k2) in table.items() if k2 <= GROWTH_TOLERANCE * k1 + allowance)
    return HullReport(next(stable, None), table)


# ---------------------------------------------------------------------------
# Two-way patch commensurability.
# ---------------------------------------------------------------------------


class MeyerCommensurability(Record):
    """verdict is COMMENSURABLE-AT-SCALE or NOT-COMMENSURABLE-AT-SCALE."""

    __slots__ = ("cover_ab", "cover_ba", "scope_radius", "verdict", "witness")


def meyer_commensurability(
    points_a: Sequence[tuple],
    points_b: Sequence[tuple],
    ops: verify.GroupOps,
    scope_radius,
    max_translates: int | None = None,
) -> MeyerCommensurability:
    """Two-way patch covers A ⊂ F1 B and B ⊂ F2 A, restricted to the inner ball.

    Covers always exist at patch scope; a NOT-COMMENSURABLE-AT-SCALE verdict is
    produced when max_translates caps the translate count, with the witness
    point that forced the excess.
    """
    scope_radius = Fraction(scope_radius)
    a_in = verify.points_within(points_a, ops, scope_radius)
    b_in = verify.points_within(points_b, ops, scope_radius)
    cover_ab, witness = verify.greedy_cover(a_in, points_b, ops, max_translates)
    if cover_ab is None:
        return MeyerCommensurability(None, None, scope_radius, "NOT-COMMENSURABLE-AT-SCALE", witness)
    cover_ba, witness = verify.greedy_cover(b_in, points_a, ops, max_translates)
    if cover_ba is None:
        return MeyerCommensurability(cover_ab, None, scope_radius, "NOT-COMMENSURABLE-AT-SCALE", witness)
    return MeyerCommensurability(cover_ab, cover_ba, scope_radius, "COMMENSURABLE-AT-SCALE", None)


# ---------------------------------------------------------------------------
# Coordinate dilation automorphisms.
# ---------------------------------------------------------------------------


def dilation_automorphism(scheme: HeisScheme, u: NFElem, v: NFElem):
    """(x, y, z) -> (u x, v y, u v z) for units u, v of O_K; maps H3(O_K) onto itself."""
    for w in (u, v):
        if w.field != scheme.field:
            raise UsageError("unit from a different field")
        if w.trace().denominator != 1 or w.norm().denominator != 1 or abs(w.norm()) != 1:
            raise UsageError("dilation parameters must be units of O_K")

    def apply(p: tuple) -> tuple:
        x, y, z = p
        return (u * x, v * y, u * v * z)

    return apply

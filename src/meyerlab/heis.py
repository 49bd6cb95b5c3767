"""The 3-dimensional Heisenberg group over exact coefficient rings.

Group law (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x*y'), centre the z-axis.
Everything is polynomial with integer coefficients, so applying either real
embedding coordinatewise is a group homomorphism and H3(O_K) embeds as a
lattice in H3(R) x H3(R).  All operations below are exact.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from fractions import Fraction

from . import cps, verify
from .errors import UsageError
from .exactnum import (
    NFElem,
    NumberField,
    abs_embedding_leq,
    embedding_intervals,
    eval_embedding,
    frac_str,
    iv_abs,
    str_frac,
)


class HeisPoint:
    __slots__ = ("x", "y", "z")

    def __init__(self, x: NFElem, y: NFElem, z: NFElem):
        if x.field != y.field or y.field != z.field:
            raise UsageError("Heisenberg coordinates from different fields")
        self.x = x
        self.y = y
        self.z = z

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.x, self.y, self.z) == (other.x, other.y, other.z)

    def __hash__(self):
        return hash((self.x, self.y, self.z))

    def __repr__(self):
        return f"HeisPoint(x={self.x!r}, y={self.y!r}, z={self.z!r})"

    @property
    def field(self) -> NumberField:
        return self.x.field

    def __mul__(self, other: "HeisPoint") -> "HeisPoint":
        return heis_mul(self, other)

    def __iter__(self):
        return iter((self.x, self.y, self.z))

    def sort_key(self):
        return self.x.coeffs + self.y.coeffs + self.z.coeffs


def point(field: NumberField, x, y, z) -> HeisPoint:
    def coerce(v):
        if isinstance(v, NFElem):
            return v
        return field.from_rational(Fraction(v))

    return HeisPoint(coerce(x), coerce(y), coerce(z))


def heis_mul(p: HeisPoint, q: HeisPoint) -> HeisPoint:
    if p.field != q.field:
        raise UsageError("Heisenberg points from different fields")
    return HeisPoint(p.x + q.x, p.y + q.y, p.z + q.z + p.x * q.y)


def heis_inv(p: HeisPoint) -> HeisPoint:
    return HeisPoint(-p.x, -p.y, -p.z + p.x * p.y)


def heis_identity(field: NumberField) -> HeisPoint:
    zero = field.zero()
    return HeisPoint(zero, zero, zero)


def commutator(p: HeisPoint, q: HeisPoint) -> HeisPoint:
    return heis_mul(heis_mul(heis_mul(p, q), heis_inv(p)), heis_inv(q))


# ---------------------------------------------------------------------------
# Lie algebra, exp/log, degree-2 BCH (exact for a 2-step group).
# ---------------------------------------------------------------------------


class HeisAlgebraElem:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: NFElem, b: NFElem, c: NFElem):
        self.a = a
        self.b = b
        self.c = c

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.a, self.b, self.c) == (other.a, other.b, other.c)

    def __hash__(self):
        return hash((self.a, self.b, self.c))

    def __repr__(self):
        return f"HeisAlgebraElem(a={self.a!r}, b={self.b!r}, c={self.c!r})"

    @property
    def field(self) -> NumberField:
        return self.a.field

    def __add__(self, other: "HeisAlgebraElem") -> "HeisAlgebraElem":
        return HeisAlgebraElem(self.a + other.a, self.b + other.b, self.c + other.c)

    def __neg__(self):
        return HeisAlgebraElem(-self.a, -self.b, -self.c)

    def sort_key(self):
        return self.a.coeffs + self.b.coeffs + self.c.coeffs


def algebra_elem(field: NumberField, a, b, c) -> HeisAlgebraElem:
    def coerce(v):
        if isinstance(v, NFElem):
            return v
        return field.from_rational(Fraction(v))

    return HeisAlgebraElem(coerce(a), coerce(b), coerce(c))


def bracket(u: HeisAlgebraElem, v: HeisAlgebraElem) -> HeisAlgebraElem:
    zero = u.field.zero()
    return HeisAlgebraElem(zero, zero, u.a * v.b - v.a * u.b)


def heis_exp(v: HeisAlgebraElem) -> HeisPoint:
    return HeisPoint(v.a, v.b, v.c + v.a * v.b * Fraction(1, 2))


def heis_log(p: HeisPoint) -> HeisAlgebraElem:
    return HeisAlgebraElem(p.x, p.y, p.z - p.x * p.y * Fraction(1, 2))


def bch2(u: HeisAlgebraElem, v: HeisAlgebraElem) -> HeisAlgebraElem:
    """u + v + [u,v]/2; exact (all higher brackets vanish in a 2-step algebra)."""
    w = bracket(u, v)
    return HeisAlgebraElem(
        u.a + v.a, u.b + v.b, u.c + v.c + w.c * Fraction(1, 2)
    )


# ---------------------------------------------------------------------------
# Schemes and patches.
# ---------------------------------------------------------------------------


class HeisScheme(cps.QuadraticScheme):
    """H3(O_K) cut along (sigma_1, sigma_2) with a coordinate box window.

    Window halfwidths (c_x, c_y, c_z); c_z must be positive, c_x and c_y may
    be zero (degenerate central schemes).  The window belongs to the scheme,
    so its patches carry none of their own.  A point is a HeisPoint.
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

    sort_key = staticmethod(HeisPoint.sort_key)

    def point(self, coords) -> HeisPoint:
        return HeisPoint(*coords)

    def group_ops(self) -> verify.GroupOps:
        return verify.GroupOps(
            mul=heis_mul,
            inv=heis_inv,
            identity=heis_identity(self.field),
            sort_key=self.sort_key,
            coord_intervals=embedding_intervals(self.physical_place),
            dim=3,
        )

    def model_set(self, window, radius) -> cps.Patch:
        # the scheme carries the window, so a Heisenberg patch's own is None
        return heis_model_set(self, radius)

    def product_window(self) -> tuple[Fraction, Fraction, Fraction]:
        """Box bound on W * W under the group law: z picks up the shear c_x c_y."""
        cx, cy, cz = self.window
        return (2 * cx, 2 * cy, 2 * cz + cx * cy)

    def window_contains_internal(self, p: HeisPoint) -> bool:
        cx, cy, cz = self.window
        place = self.internal_place
        return (
            abs_embedding_leq(p.x, place, cx)
            and abs_embedding_leq(p.y, place, cy)
            and abs_embedding_leq(p.z, place, cz)
        )

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


def symmetrize(points: Sequence[HeisPoint]) -> list[HeisPoint]:
    """Lambda ∩ Lambda^-1: the minimal exact fix for box windows not being
    inverse-closed under (x,y,z)^-1 = (-x,-y,-z+xy)."""
    s = set(points)
    out = [p for p in points if heis_inv(p) in s]
    out.sort(key=lambda p: p.sort_key())
    return out


# ---------------------------------------------------------------------------
# Global covering certificate for Lambda(W) * Lambda(W) inside F * Lambda(W).
# ---------------------------------------------------------------------------


class HeisCoverCertificate:
    """W*W covered by group translates t*W of lattice internal images.

    Membership in t*W reads t^-1 w = (w1-t1, w2-t2, w3-t3-t1(w2-t2)); after
    fixing x- and y-translates, the shear contributes at most M*c_y to the
    z-target, with M a certified bound on |sigma_int(t1)| over the x-cover.
    """

    __slots__ = ("scheme", "x_cover", "y_cover", "z_cover", "shear_bound", "grid_mesh")

    def __init__(
        self,
        scheme: HeisScheme,
        x_cover: cps.DimCover,
        y_cover: cps.DimCover,
        z_cover: cps.DimCover,
        shear_bound: Fraction,
        grid_mesh: Fraction,
    ):
        self.scheme = scheme
        self.x_cover = x_cover
        self.y_cover = y_cover
        self.z_cover = z_cover
        self.shear_bound = shear_bound
        self.grid_mesh = grid_mesh

    @property
    def translates(self) -> list[HeisPoint]:
        out = [
            HeisPoint(t1, t2, t3)
            for t1 in self.x_cover.elements
            for t2 in self.y_cover.elements
            for t3 in self.z_cover.elements
        ]
        out.sort(key=lambda p: p.sort_key())
        return out

    def replay(self) -> bool:
        """Check the three interval covers, and |sigma(t1)| <= shear_bound exactly.

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
        for cover, tile, needed in (
            (self.x_cover, cx, wx),
            (self.y_cover, cy, wy),
            (self.z_cover, cz, wz + self.shear_bound * cy),
        ):
            if cover.tile_halfwidth != tile:
                return False
            if cover.target_hi < needed or cover.target_lo > -needed:
                return False
            if not cover.replay(place):
                return False
        return all(abs_embedding_leq(t1, place, self.shear_bound) for t1 in self.x_cover.elements)

    def to_dict(self) -> dict:
        return {
            "type": "heis_cover",
            "scheme": self.scheme.to_dict(),
            "x_cover": self.x_cover.to_dict(),
            "y_cover": self.y_cover.to_dict(),
            "z_cover": self.z_cover.to_dict(),
            "shear_bound": frac_str(self.shear_bound),
            "grid_mesh": frac_str(self.grid_mesh),
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
            grid_mesh=str_frac(data["grid_mesh"]),
        )


def _box_grid(halfwidths, mesh: Fraction):
    axes = []
    for h in halfwidths:
        if h == 0:
            axes.append([Fraction(0)])
            continue
        steps = max(1, math.ceil(h / mesh))
        step = Fraction(h) / steps
        axes.append([k * step for k in range(-steps, steps + 1)])
    return itertools.product(*axes)


def heis_covering_certificate(scheme: HeisScheme) -> HeisCoverCertificate:
    """F finite with Lambda(W) Lambda(W) inside F Lambda(W), globally.

    Internal coordinates of a lattice product multiply inside W*W (sigma_int is
    a homomorphism), so covering the product window by translate tiles gives
    the global claim; the certificate replays from its three interval covers
    and the shear bound.  `grid_mesh` is carried in the artifact only.
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
    grid_mesh = max(wx, wy, wz) / 4
    cert = HeisCoverCertificate(scheme, x_cover, y_cover, z_cover, shear, grid_mesh)
    if not cert.replay():
        raise AssertionError("freshly built Heisenberg cover failed to replay")
    return cert


# ---------------------------------------------------------------------------
# Centre intersection and commutator maps.
# ---------------------------------------------------------------------------


def _central_ops(field: NumberField, physical_place) -> verify.GroupOps:
    intervals = embedding_intervals(physical_place)
    return verify.GroupOps(
        mul=lambda a, b: a + b,
        inv=lambda a: -a,
        identity=field.zero(),
        sort_key=lambda a: a.coeffs,
        coord_intervals=lambda a, bits: intervals((a,), bits),
        dim=1,
    )


class CenterIntersection:
    __slots__ = ("scheme", "radius", "z_values", "report")

    def __init__(
        self,
        scheme: HeisScheme,
        radius: Fraction,
        z_values: list[NFElem],
        report: verify.DeloneReport | None,
    ):
        self.scheme = scheme
        self.radius = radius
        self.z_values = z_values
        self.report = report

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
        report = verify.delone_certify(
            out, _central_ops(field, phys), radius / 2, patch_radius=radius
        )
    return CenterIntersection(scheme, radius, out, report)


class CommutatorMapResult:
    __slots__ = ("xi", "image_z", "homomorphism_exact", "trivial", "report")

    def __init__(
        self,
        xi: HeisPoint,
        image_z: list[NFElem],
        homomorphism_exact: bool,
        trivial: bool,
        report: verify.DeloneReport | None,
    ):
        self.xi = xi
        self.image_z = image_z
        self.homomorphism_exact = homomorphism_exact
        self.trivial = trivial
        self.report = report


def commutator_map(xi: HeisPoint, patch: cps.Patch) -> CommutatorMapResult:
    """phi_xi(u) = [xi, u] = (0, 0, x_xi y_u - y_xi x_u) over the patch.

    The z-component is bilinear, so phi_xi is a homomorphism into the centre;
    the identity phi_xi(uv) = phi_xi(u) phi_xi(v) is checked exactly on every
    pair of patch points.
    """
    if xi.field != patch.scheme.field:
        raise UsageError("xi and patch from different fields")
    images = []
    for u in patch.points:
        images.append(xi.x * u.y - xi.y * u.x)
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
        ops = _central_ops(patch.scheme.field, patch.scheme.physical_place)
        sep, witness = verify.min_separation(distinct, ops)
        cov = verify.covering_radius(
            distinct, ops, patch.radius / 2
        )
        report = verify.DeloneReport(min_separation=sep, min_sep_witness=witness, covering=cov)
    return CommutatorMapResult(xi, distinct, hom_ok, trivial, report)


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


def _hull_kappa(scan: verify.NearestScan, axes, inner: Fraction, mesh: Fraction):
    """Patch bound kappa for one coordinate subgroup: patch->subgroup distance
    plus subgroup-grid->patch distance on the inner ball."""
    off = [i for i in range(3) if i not in axes]
    part1 = Fraction(0)
    for ivs in scan.ivs:
        for i in off:
            _, hi = iv_abs(ivs[i])
            part1 = max(part1, hi)
    part2 = Fraction(0)
    if axes:
        sub_grid = _box_grid(tuple(inner for _ in axes), mesh)
        for g in sub_grid:
            full = [Fraction(0)] * 3
            for axis, value in zip(axes, g):
                full[axis] = value
            d = scan.dist_hi(tuple(full))
            part2 = max(part2, d)
    else:
        part2 = scan.dist_hi((Fraction(0),) * 3)
    return max(part1, part2 + mesh / 2)


class HullReport:
    __slots__ = ("subgroup", "axes", "kappa_small", "kappa_large", "aligned", "table")

    def __init__(
        self,
        subgroup: str | None,
        axes: tuple[int, ...] | None,
        kappa_small: Fraction | None,
        kappa_large: Fraction | None,
        aligned: bool,
        table: dict,
    ):
        self.subgroup = subgroup
        self.axes = axes
        self.kappa_small = kappa_small
        self.kappa_large = kappa_large
        self.aligned = aligned
        self.table = table


def schreiber_hull(patch_small: cps.Patch, patch_large: cps.Patch) -> HullReport:
    """Minimal coordinate subgroup U' with a stable patch bound kappa.

    kappa(U') bounds both the distance from every patch point to U' and the
    distance from every U'-grid point in the inner ball to the patch; U' is
    the smallest candidate whose kappa does not grow (factor 11/10) from the
    small patch to the large one.
    """
    if patch_small.scheme.field != patch_large.scheme.field:
        raise UsageError("patches from different fields")
    if patch_large.radius < 2 * patch_small.radius:
        raise UsageError("need R2 >= 2 R1 to test stabilisation")
    ops = patch_small.group_ops()
    inner_small = patch_small.radius / 2
    inner_large = patch_large.radius / 2
    # one fixed mesh for both radii so the stabilisation comparison is clean
    mesh = inner_small / 2
    scan_small, scan_large = (
        verify.NearestScan([ops.coord_intervals(p, 64) for p in patch.points])
        for patch in (patch_small, patch_large)
    )
    table = {}
    chosen = None
    for name, axes in sorted(HULL_CANDIDATES, key=lambda c: (len(c[1]), c[0])):
        k1 = _hull_kappa(scan_small, axes, inner_small, mesh)
        k2 = _hull_kappa(scan_large, axes, inner_large, mesh)
        table[name] = (k1, k2)
        # grid quantisation can move kappa by up to one mesh cell, so the
        # stabilisation test allows that additive noise on top of the factor
        if chosen is None and k2 <= GROWTH_TOLERANCE * k1 + mesh:
            chosen = (name, axes, k1, k2)
    if chosen is None:
        return HullReport(None, None, None, None, False, table)
    name, axes, k1, k2 = chosen
    return HullReport(name, axes, k1, k2, True, table)


# ---------------------------------------------------------------------------
# Two-way patch commensurability.
# ---------------------------------------------------------------------------


class MeyerCommensurability:
    __slots__ = ("cover_ab", "cover_ba", "scope_radius", "verdict", "witness")

    def __init__(
        self,
        cover_ab: verify.GreedyCover | None,
        cover_ba: verify.GreedyCover | None,
        scope_radius: Fraction,
        verdict: str,  # COMMENSURABLE-AT-SCALE | NOT-COMMENSURABLE-AT-SCALE
        witness: HeisPoint | None,
    ):
        self.cover_ab = cover_ab
        self.cover_ba = cover_ba
        self.scope_radius = scope_radius
        self.verdict = verdict
        self.witness = witness


def meyer_commensurability(
    points_a: Sequence[HeisPoint],
    points_b: Sequence[HeisPoint],
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
    a_in = [p for p in points_a if verify.point_norm_hi(p, ops) <= scope_radius]
    b_in = [p for p in points_b if verify.point_norm_hi(p, ops) <= scope_radius]
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

    def apply(p: HeisPoint) -> HeisPoint:
        return HeisPoint(u * p.x, v * p.y, u * v * p.z)

    return apply

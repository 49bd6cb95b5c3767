"""The 3-dimensional Heisenberg group over exact coefficient rings.

Group law (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x*y'), centre the z-axis.
Everything is polynomial with integer coefficients, so applying either real
embedding coordinatewise is a group homomorphism and H3(O_K) embeds as a
lattice in H3(R) x H3(R).  A point is an (x, y, z) tuple of field elements,
and all operations below are exact.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from . import cps, verify
from .errors import UsageError
from .exactnum import (
    NumberField,
    Record,
    abs_embedding_leq,
    eval_embedding,
    frac_str,
    iv_abs,
)


def heis_mul(p: tuple, q: tuple) -> tuple:
    x, y, z = p
    u, v, w = q
    return (x + u, y + v, z + w + x * v)


def heis_inv(p: tuple) -> tuple:
    x, y, z = p
    return (-x, -y, -z + x * y)


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
    cover_type = "heis_cover"
    coords = ("x", "y", "z")

    def __init__(
        self,
        field: NumberField,
        window: Sequence,
        physical_root_index: int | None = None,
    ):
        if field.degree != 2 or field.real_root_count() != 2:
            raise UsageError("Heisenberg schemes need a totally real quadratic field")
        self.field = field
        self.window = tuple(Fraction(c) for c in window)
        self.validate_window(cps.Window(self.window))
        self.physical_root_index = 1 if physical_root_index is None else physical_root_index
        if self.physical_root_index not in (0, 1):
            raise UsageError("physical_root_index must be 0 or 1")

    def __repr__(self):
        return f"HeisScheme({self.field!r}, window={tuple(map(str, self.window))})"

    # heis_mul and heis_inv are looked up when called, so a tracer that wraps
    # them sees the calls made through the scheme
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

    def square_windows(self) -> tuple[cps.Window, cps.Window]:
        """(box(W * W), W): the windows of the cover of Lambda(W) Lambda(W)."""
        return cps.Window(self.product_window()), cps.Window(self.window)

    @staticmethod
    def validate_window(window: cps.Window):
        widths = window.real_halfwidths
        if window.padic_balls or len(widths) != 3:
            raise UsageError(f"a Heisenberg window is cx,cy,cz, not {len(widths)} half-widths")
        cx, cy, cz = widths
        if cx < 0 or cy < 0 or cz <= 0:
            raise UsageError("window needs c_x, c_y >= 0 and c_z > 0")

    def cover_target(self, w1: cps.Window, w2: cps.Window, covers) -> Fraction:
        """W1's half-width, and on z also the shear.

        t^-1 w = (w_x - t_x, w_y - t_y, w_z - t_z - t_x (w_y - t_y)).  Once the x
        and y covers fix t_x and t_y, the shear t_x (w_y - t_y) is at most
        M c2_y, with M the 96-bit ceiling of max |sigma_int(t_x)| over the x
        cover, so the z cover must reach c1_z + M c2_y.
        """
        k = len(covers)
        if k < 2:
            return w1.real_halfwidths[k]
        xs = covers[0].elements
        shear = max(iv_abs(eval_embedding(t, self.internal_place, 96))[1] for t in xs)
        return w1.real_halfwidths[2] + shear * w2.real_halfwidths[1]

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
    return cps.box_patch(scheme, None, scheme.window, radius)


def symmetrize(points: Sequence[tuple]) -> list[tuple]:
    """Lambda ∩ Lambda^-1: the minimal exact fix for box windows not being
    inverse-closed under (x,y,z)^-1 = (-x,-y,-z+xy)."""
    s = set(points)
    return sorted((p for p in points if heis_inv(p) in s), key=HeisScheme.sort_key)


# ---------------------------------------------------------------------------
# Global covering certificate for Lambda(W) * Lambda(W) inside F * Lambda(W).
# ---------------------------------------------------------------------------

# the benchmark traces `HeisCoverCertificate.replay`; every window cover is one
HeisCoverCertificate = cps.GlobalCoverCertificate


def heis_covering_certificate(scheme: HeisScheme) -> cps.GlobalCoverCertificate:
    """F finite with Lambda(W) Lambda(W) inside F Lambda(W), globally: sigma_int
    is a homomorphism, so the internal coordinates of a lattice product lie in
    W * W, and covering its box by the tiles t W gives the claim."""
    return cps.global_covering_certificate(scheme, *scheme.square_windows())


# ---------------------------------------------------------------------------
# Centre intersection.
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
    if radius <= 0:
        raise UsageError("radius must be positive")
    cx, cy, cz = scheme.window
    field = scheme.field
    phys, internal = scheme.physical_place, scheme.internal_place
    xs, ys, zs = (
        cps.enumerate_window_elements(field, phys, internal, radius, c)
        for c in (cx, cy, cz)
    )
    sums = {w + wp for w in zs for wp in zs}
    # only products within reach of the z-ball can matter
    products = (u * v for u in xs for v in ys)
    prods = {p for p in products if abs_embedding_leq(p, phys, 3 * radius + 2 * cz)}
    central = {s - p for s in sums for p in prods}
    out = sorted((z for z in central if abs_embedding_leq(z, phys, radius)), key=lambda e: e.coeffs)
    report = None
    if len(out) >= 2:
        # the centre is a line: its z-values are its one factor
        report = verify.delone_certify([out], phys, radius / 2, patch_radius=radius)
    return CenterIntersection(scheme, radius, out, report)


# ---------------------------------------------------------------------------
# Schreiber hull.
# ---------------------------------------------------------------------------

# the coordinate subgroups that can be a hull, by their axes; c_z > 0, so each
# holds the centre
HULL_NAMES = {(0, 1, 2): "full", (0, 2): "x-center", (1, 2): "y-center", (2,): "center"}


def schreiber_hull(scheme: HeisScheme, radius_small, radius_large) -> tuple:
    """(the hull U_W of Lambda(W), kappa at radius_small, kappa at radius_large).

    U_W is spanned by the axes of positive half-width: an axis of half-width 0
    has the factor {0}, since |sigma_int(x)| <= 0 forces x = 0, and inside U_W
    the window has interior, so Lambda(W) is relatively dense there.  kappa at
    R is the distance from U_W's points in the inner ball [-R/2, R/2] to the
    radius-R patch (the patch lies in U_W): the covering radius of the patch's
    1-D factors on U_W's axes, as its NORM_BITS ceiling.  Only those factors
    are enumerated, never their product.
    """
    radii = [Fraction(radius_small), Fraction(radius_large)]
    if min(radii) <= 0:
        raise UsageError("radius must be positive")
    axes = tuple(k for k, c in enumerate(scheme.window) if c > 0)
    field, phys, internal = scheme.field, scheme.physical_place, scheme.internal_place
    kappas = []
    for radius in radii:
        factors = [
            cps.enumerate_window_elements(field, phys, internal, radius, scheme.window[k])
            for k in axes
        ]
        kappas.append(verify.covering_radius(factors, phys, radius / 2).bound)
    return (HULL_NAMES[axes], *kappas)


# ---------------------------------------------------------------------------
# Two-way patch commensurability.
# ---------------------------------------------------------------------------


class MeyerCommensurability(Record):
    """verdict is COMMENSURABLE-AT-SCALE or NOT-COMMENSURABLE-AT-SCALE."""

    __slots__ = ("cover_ab", "cover_ba", "scope_radius", "verdict", "witness")


def meyer_commensurability(
    points_a: Sequence[tuple],
    points_b: Sequence[tuple],
    scheme: HeisScheme,
    scope_radius,
    max_translates: int | None = None,
) -> MeyerCommensurability:
    """Two-way patch covers A ⊂ F1 B and B ⊂ F2 A, restricted to the inner ball.

    Covers always exist at patch scope; a NOT-COMMENSURABLE-AT-SCALE verdict is
    produced when max_translates caps the translate count, with the witness
    point that forced the excess.
    """
    scope_radius = Fraction(scope_radius)
    a_in = verify.points_within(points_a, scheme, scope_radius)
    b_in = verify.points_within(points_b, scheme, scope_radius)
    cover_ab, witness = verify.greedy_cover(a_in, points_b, scheme, max_translates)
    if cover_ab is None:
        return MeyerCommensurability(None, None, scope_radius, "NOT-COMMENSURABLE-AT-SCALE", witness)
    cover_ba, witness = verify.greedy_cover(b_in, points_a, scheme, max_translates)
    if cover_ba is None:
        return MeyerCommensurability(cover_ab, None, scope_radius, "NOT-COMMENSURABLE-AT-SCALE", witness)
    return MeyerCommensurability(cover_ab, cover_ba, scope_radius, "COMMENSURABLE-AT-SCALE", None)

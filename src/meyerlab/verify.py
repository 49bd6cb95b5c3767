"""Metric and combinatorial certification over exact coordinates.

Distances use the sup-norm on coordinates everywhere (for the Heisenberg
group this is a documented proxy metric, bi-Lipschitz at patch scale).
Reported separations are certified rational lower bounds that are exact
whenever the coordinates are rational; `min_separation` also returns the
minimising pair.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain, product
from operator import add, sub

from .errors import UsageError
from .exactnum import Record, frac_str, iv_abs, iv_sub

SUP_NORM_METRIC = "sup-norm on coordinates"
SEPARATION_BITS = 128  # interval precision of min_separation (doubled where it cannot separate)
COVERING_BITS = 96  # interval precision of covering_radius
NORM_BITS = 64  # interval precision of point_norm_hi and points_within
MESH_ROUNDS = 10  # at most this many grid meshes in covering_radius


class GroupOps(Record):
    """Exact group structure plus certified coordinate access for points.

    coord_intervals maps (point, bits) to a list of (Fraction, Fraction).
    """

    __slots__ = ("mul", "inv", "identity", "sort_key", "coord_intervals", "dim")


def rational_line_ops() -> GroupOps:
    """(Q, +) with points stored as Fractions."""
    return GroupOps(
        mul=lambda a, b: a + b,
        inv=lambda a: -a,
        identity=Fraction(0),
        sort_key=lambda a: (a,),
        coord_intervals=lambda a, bits: [(a, a)],
        dim=1,
    )


def intmod_ops(n: int) -> GroupOps:
    """Z/nZ with points stored as ints in [0, n)."""
    if n < 1:
        raise UsageError("modulus must be positive")
    return GroupOps(
        mul=lambda a, b: (a + b) % n,
        inv=lambda a: (-a) % n,
        identity=0,
        sort_key=lambda a: (a,),
        coord_intervals=lambda a, bits: [(Fraction(a), Fraction(a))],
        dim=1,
    )


def point_norm_hi(point, ops: GroupOps) -> Fraction:
    """Certified upper bound on the sup-norm of a point."""
    hi = Fraction(0)
    for iv in ops.coord_intervals(point, NORM_BITS):
        _, hi_a = iv_abs(iv)
        hi = max(hi, hi_a)
    return hi


def canonical_sort(points, ops: GroupOps):
    return sorted(points, key=ops.sort_key)


def _float(x) -> float:
    """float(x) for a Fraction or int, correctly rounded, by one integer true division."""
    n, d = x.as_integer_ratio()
    return n / d


def points_within(points, ops: GroupOps, radius) -> list:
    """The points p with point_norm_hi(p, ops) <= radius, in input order.

    The float of the exact bound is the largest float of an interval end in
    absolute value, because correct rounding is monotone and symmetric.  So
    unequal floats already order the bound and the radius; only a point whose
    float bound equals the float radius is decided by point_norm_hi.
    """
    radius = Fraction(radius)
    r = _float(radius)
    kept = []
    for p in points:
        norm = 0.0
        for lo, hi in ops.coord_intervals(p, NORM_BITS):
            norm = max(norm, abs(_float(lo)), abs(_float(hi)))
        if norm < r or (norm == r and point_norm_hi(p, ops) <= radius):
            kept.append(p)
    return kept


def abs_max(values) -> Fraction:
    """The exact maximum of |x| over rationals, 0 for none.

    Correct rounding is monotone, so only values whose float magnitude equals
    the largest one can hold the maximum; just those are compared exactly.
    """
    values = list(values)
    floats = [abs(_float(v)) for v in values]
    top = max(floats, default=0.0)
    return max((abs(v) for v, f in zip(values, floats) if f == top), default=Fraction(0))


def _dist_lo(ip, iq):
    """Certified lower bound on the sup-distance of two points' coordinate intervals."""
    return max(iv_abs(iv_sub(a, b))[0] for a, b in zip(ip, iq))


# ---------------------------------------------------------------------------
# Float sup-norm cells.  Each point is stored by the float midpoints of its
# coordinate intervals; floats pick candidates, and exact rational arithmetic
# decides every reported number.
# ---------------------------------------------------------------------------


def _float_coords(coord_ivs_list):
    """Float midpoints per point, and the widest coordinate interval as a float.

    Each midpoint is float((lo + hi) / 2), computed by one correctly rounded
    integer true division.
    """
    mids = []
    width = 0.0
    for ivs in coord_ivs_list:
        mid = []
        for lo, hi in ivs:
            ln, ld = lo.as_integer_ratio()
            hn, hd = hi.as_integer_ratio()
            a, b, den = ln * hd, hn * ld, ld * hd
            mid.append((a + b) / (2 * den))
            if a != b:
                width = max(width, (b - a) / den)
        mids.append(tuple(mid))
    return mids, width


def _margin(width: float, scale: float) -> float:
    """Slack between float and exact distances, for coordinates of size <= scale.

    Let m be a point's exact interval midpoint, w the widest interval and g a
    grid point (or a second midpoint m'), with |m_k| + |g_k| <= scale.  The
    float distance max_k fl(|fl(m_k) - fl(g_k)|) differs from the exact
    sup-distance |m - g| by at most e = 2^-52 * scale (two conversions and one
    subtraction, each correctly rounded to within 2^-53), while the certified
    bounds satisfy |m - g| <= dist_hi <= |m - g| + w/2 and, for a pair of
    points, |m - m'| - w <= lo <= true distance <= |m - m'| + w.

    - A bulk maximum needs w/2 + 2e <= margin.  With F the largest float
      distance, reached at g', the grid point g with the largest dist_hi has
      float distance >= dist_hi(g) - w/2 - e >= dist_hi(g') - w/2 - e
      >= F - w/2 - 2e.
    - min_separation needs 2w + 2e <= margin.  With U the least float distance
      of a pair, the least certified bound L is at most the true distance of
      that pair, so L <= U + w + e.  A pair whose bound is L has float distance
      <= L + w + e <= U + 2w + 2e; if its bound needed refinement, its
      intervals overlap and its float distance is <= w + e anyway.

    2w + 2^-40 * (1 + scale) exceeds twice the float error plus twice the
    widest interval, so both hold, with room for the rounding of the
    comparisons themselves.
    """
    return 2.0 * width + 2.0 ** -40 * (1.0 + scale)


def _cell_side(mids) -> float:
    """A power of two near the mean spacing of the points.

    It starts at the largest power of two not above the spacing the spans
    suggest (at least 2^-500), and doubles while the occupied box would have
    more than 4^dim cells per point, so that points crowded near a thin slab
    cannot make a search visit a huge number of empty cells.  Dividing a float
    by a power of two is exact, so each point's cell index is exact.
    """
    spans = [s for s in (max(c) - min(c) for c in zip(*mids)) if s > 0]
    if not spans:
        return 1.0
    spacing = max((math.prod(spans) / len(mids)) ** (1 / len(spans)), 2.0 ** -500)
    side = math.ldexp(1.0, math.frexp(spacing)[1] - 1)
    while math.prod(s // side + 2 for s in spans) > 4 ** len(spans) * len(mids):
        side *= 2
    return side


def _bucket(mids, side: float) -> dict:
    """Cell index tuple -> indices of the points in that cell, in increasing order."""
    cells: dict = {}
    for i, m in enumerate(mids):
        cells.setdefault(tuple(math.floor(x / side) for x in m), []).append(i)
    return cells


def _ring(q, r: int, lo, hi):
    """The cells of the box [lo, hi] at sup-distance exactly r from cell q.

    A ring cell is produced once, for the first axis on which it is r away.
    """
    if r == 0:
        return (q,)
    inner = [range(max(l, c - r + 1), min(h, c + r - 1) + 1) for c, l, h in zip(q, lo, hi)]
    full = [range(max(l, c - r), min(h, c + r) + 1) for c, l, h in zip(q, lo, hi)]
    return chain.from_iterable(
        product(*inner[:k], (v,), *full[k + 1:])
        for k, c in enumerate(q)
        for v in (c - r, c + r)
        if lo[k] <= v <= hi[k]
    )


def _sup_dist(a, b) -> float:
    return max(map(abs, map(sub, a, b)))


def min_separation(points: Sequence, ops: GroupOps):
    """Certified lower bound on the minimal pairwise sup-distance, with witness.

    The bound is tight to the working interval width and exact for rational
    coordinates.  Distinct points are required.  Floats only choose which
    pairs get an exact bound: the points are bucketed in sup-norm cells, the
    pairs in adjacent cells give the least float distance U, and every pair
    within U + margin (see `_margin`) of it is bounded exactly.  Cells are
    grown until that cap is below the cell side, so no pair outside adjacent
    cells can qualify.  The witness is the first minimising pair (i < j) in
    input order.
    """
    pts = list(points)
    if len(pts) < 2:
        raise UsageError("min_separation needs at least 2 points")
    coord_ivs = [ops.coord_intervals(p, SEPARATION_BITS) for p in pts]
    mids, width = _float_coords(coord_ivs)
    margin = _margin(width, 2 * max(abs(x) for m in mids for x in m))
    side = _cell_side(mids)
    while True:
        near = _adjacent_pairs(mids, side)
        if not near:
            side *= 2
            continue
        cap = min(near)[0] + margin
        if cap < side:
            break
        side = math.ldexp(1.0, math.frexp(cap)[1])
    best_lo = None
    witness = None
    for d, i, j in near:
        if d > cap:
            continue
        lo = _dist_lo(coord_ivs[i], coord_ivs[j])
        b = SEPARATION_BITS
        while lo <= 0 and b < 4096:
            b *= 2
            lo = _dist_lo(ops.coord_intervals(pts[i], b), ops.coord_intervals(pts[j], b))
        if lo <= 0:
            raise UsageError("duplicate points in patch")
        if best_lo is None or lo < best_lo or (lo == best_lo and (i, j) < witness):
            best_lo, witness = lo, (i, j)
    return best_lo, (pts[witness[0]], pts[witness[1]])


def _adjacent_pairs(mids, side: float) -> list:
    """(float distance, i, j) with i < j for every pair of points in the same
    or adjacent cells: every pair at float distance below side is one."""
    cells = _bucket(mids, side)
    dim = len(mids[0])
    forward = [o for o in product((-1, 0, 1), repeat=dim) if o > (0,) * dim]
    pairs = []
    for key, members in cells.items():
        for a, i in enumerate(members):
            for j in members[a + 1:]:
                pairs.append((_sup_dist(mids[i], mids[j]), i, j))
        for off in forward:
            for j in cells.get(tuple(map(add, key, off)), ()):
                for i in members:
                    pairs.append((_sup_dist(mids[i], mids[j]), min(i, j), max(i, j)))
    return pairs


def _grid_1d(radius: Fraction, mesh: Fraction) -> list[Fraction]:
    """-radius + k * 2 radius / steps for k = 0..steps, with steps = ceil(2 radius / mesh)."""
    steps = max(1, math.ceil(Fraction(2 * radius) / mesh))
    n, d = Fraction(radius).as_integer_ratio()
    return [Fraction(n * (2 * k - steps), d * steps) for k in range(steps + 1)]


class NearestScan:
    """Certified upper bounds on distance-to-point-set, found through float cells.

    Floats only pick the candidate point: the lowest index among the points
    at minimal float sup-distance from the target.  The points are bucketed
    once in sup-norm cells whose side is a power of two (`_cell_side`), the
    fixed-radius near-neighbour grid of Bentley, Stanat and Williams (Inf.
    Process. Lett. 6(6), 1977).  A query starts in its own cell, clamped into
    the occupied box, and visits rings of cells outward.  Cell faces are
    exact floats, and rounding is monotone, so after ring r every unvisited
    point is at float distance at least that of the nearest outer face of the
    ring; the search ends once the best distance is strictly below it, which
    keeps the lowest-index rule exact.  The returned bound is the exact
    rational interval bound through the candidate, hence always a sound upper
    bound on the true distance.
    """

    __slots__ = ("ivs", "mids", "width", "scale", "side", "cells", "lo", "hi", "rings")

    def __init__(self, coord_ivs_list):
        self.ivs = list(coord_ivs_list)
        self.mids, self.width = _float_coords(self.ivs)
        self.scale = max((abs(x) for m in self.mids for x in m), default=0.0)
        self.side = _cell_side(self.mids)
        self.cells = _bucket(self.mids, self.side)
        keys = list(self.cells)
        self.lo = tuple(map(min, zip(*keys)))
        self.hi = tuple(map(max, zip(*keys)))
        self.rings: dict = {}  # query cell -> [(index, midpoint) of ring 0, of ring 1, ...]

    def __bool__(self):
        return bool(self.ivs)

    def _search(self, gm, best_i: int, best_d: float):
        """(index, float distance) of the nearest point to the float point gm,
        given a point best_i already known to be at float distance best_d."""
        side, lo, hi = self.side, self.lo, self.hi
        q = tuple(min(max(math.floor(x / side), l), h) for x, l, h in zip(gm, lo, hi))
        rings = self.rings.get(q)
        if rings is None:
            rings = self.rings[q] = []
        r = 0
        while True:
            if r == len(rings):
                cells, mids = self.cells, self.mids
                occupied = filter(None, map(cells.get, _ring(q, r, lo, hi)))
                rings.append([(i, mids[i]) for members in occupied for i in members])
            for i, m in rings[r]:
                d = max(map(abs, map(sub, m, gm)))
                if d < best_d or (d == best_d and i < best_i):
                    best_d, best_i = d, i
            # An unvisited point lies in a cell beyond ring r on some axis, so
            # its float distance is at least that of the ring's outer face.
            bound = math.inf
            for x, c, l, h in zip(gm, q, lo, hi):
                if c - r > l and x - (c - r) * side < bound:
                    bound = x - (c - r) * side
                if c + r < h and (c + r + 1) * side - x < bound:
                    bound = (c + r + 1) * side - x
            if best_d < bound or bound == math.inf:
                return best_i, best_d
            r += 1

    def nearest_index(self, grid_point) -> int:
        return self._search(tuple(map(_float, grid_point)), 0, math.inf)[0]

    def dist_hi(self, grid_point) -> Fraction:
        ivs = self.ivs[self.nearest_index(grid_point)]
        out = Fraction(0)
        for (lo, hi), g in zip(ivs, grid_point):
            _, dhi = iv_abs((lo - g, hi - g))
            if dhi > out:
                out = dhi
        return out

    def max_dist_hi(self, axes) -> Fraction:
        """max of dist_hi over the grid itertools.product(*axes) of Fraction lists.

        Float distances find the largest float distance F, and only grid points
        within the margin of F (see `_margin`) are bounded exactly; the grid
        point with the largest exact bound is one of them.  A grid point whose
        float distance to the previous nearest point is already below the
        running F minus the margin is skipped without a search, since the
        distance to any one point bounds the nearest distance from above.

        dist_hi through point i is the maximum over the axes k of
        max(g_k - lo_k, hi_k - g_k), so the exact maximum over the grid points
        nearest to i needs each axis value they use once, not each grid point.
        """
        faxes = [[_float(v) for v in values] for values in axes]
        margin = _margin(self.width, self.scale + max(abs(v) for values in faxes for v in values))
        mids = self.mids
        top = -math.inf
        near = []  # (float distance, grid point, nearest index) within margin of top
        i = 0
        for fg, g in zip(product(*faxes), product(*axes)):
            d = max(map(abs, map(sub, mids[i], fg)))
            if d < top - margin:
                continue
            i, d = self._search(fg, i, d)
            if d > top:
                top = d
                near = [c for c in near if c[0] >= top - margin]
            if d >= top - margin:
                near.append((d, g, i))
        used: dict = {}  # nearest index -> per-axis set of the values its grid points use
        for _, g, i in near:
            for values, v in zip(used.setdefault(i, [set() for _ in g]), g):
                values.add(v)
        return max(
            max(max(v - lo, hi - v) for v in values)
            for i, per_axis in used.items()
            for (lo, hi), values in zip(self.ivs[i], per_axis)
        )


class CoveringRadiusResult(Record):
    """verdict is FINITE or INFINITE."""

    __slots__ = ("bound", "verdict", "inner_radius", "mesh", "empirical")

    def to_dict(self):
        return {
            "bound": None if self.bound is None else frac_str(self.bound),
            "verdict": self.verdict,
            "inner_radius": frac_str(self.inner_radius),
            "mesh": None if self.mesh is None else frac_str(self.mesh),
            "empirical": None if self.empirical is None else frac_str(self.empirical),
        }


def covering_radius(
    points: Sequence,
    ops: GroupOps,
    inner_radius,
    patch_radius=None,
) -> CoveringRadiusResult:
    """Certified upper bound on sup-distance from any inner-ball point to the patch.

    empirical is the largest dist_hi over a mesh-delta grid of the inner ball,
    taken by `NearestScan.max_dist_hi`: floats rule out the grid points that
    cannot hold it and the rest are bounded exactly, so the value is the one
    an exact bound at every grid point gives.  Any ball point is within
    delta/2 of a grid point, so empirical + delta is a sound bound.  The mesh
    is refined until the slack is within 10% of the empirical value.  Verdict
    INFINITE when the bound is no better than the trivial inner_radius.
    """
    inner_radius = Fraction(inner_radius)
    if inner_radius <= 0:
        raise UsageError("inner_radius must be positive")
    pts = list(points)
    if not pts:
        return CoveringRadiusResult(None, "INFINITE", inner_radius, None, None)
    scan = NearestScan([ops.coord_intervals(p, COVERING_BITS) for p in pts])
    mesh = inner_radius / 4
    empirical = None
    for _ in range(MESH_ROUNDS):
        empirical = scan.max_dist_hi([_grid_1d(inner_radius, mesh)] * ops.dim)
        if empirical == 0 or mesh <= empirical / 10:
            break
        mesh = max(mesh / 2, empirical / 16)
    bound = empirical + mesh
    if patch_radius is not None and inner_radius + bound > Fraction(patch_radius):
        raise UsageError(
            "inner radius plus covering bound exceeds patch radius; enlarge the patch"
        )
    verdict = "FINITE" if bound < inner_radius else "INFINITE"
    return CoveringRadiusResult(bound, verdict, inner_radius, mesh, empirical)


class DeloneReport(Record):
    __slots__ = ("min_separation", "covering")

    @property
    def is_delone(self) -> bool:
        return self.min_separation > 0 and self.covering.verdict == "FINITE"

    def to_dict(self):
        return {
            "type": "delone_report",
            "min_separation": frac_str(self.min_separation),
            "covering": self.covering.to_dict(),
            "metric": SUP_NORM_METRIC,
            "delone": self.is_delone,
        }


def delone_certify(
    points: Sequence, ops: GroupOps, inner_radius, patch_radius=None
) -> DeloneReport:
    sep, _ = min_separation(points, ops)
    cov = covering_radius(points, ops, inner_radius, patch_radius=patch_radius)
    return DeloneReport(sep, cov)


# ---------------------------------------------------------------------------
# Greedy patch covers and the appendix cardinality bounds.
# ---------------------------------------------------------------------------


class GreedyCover(Record):
    """F with A subset of F*B at patch scope, as the file stores it.

    assignments[i] is the index into translates of the translate that covers
    the i-th point of A in canonical order; scope_points is |A|.
    """

    __slots__ = ("translates", "assignments", "scope_points")

    def replay(self, a_points, b_points, ops: GroupOps) -> bool:
        """One index per point of A, each naming a translate f with f^-1 a in B."""
        a_sorted = canonical_sort(a_points, ops)
        if len(a_sorted) != len(self.assignments):
            return False
        bset = set(b_points)
        for a, fi in zip(a_sorted, self.assignments):
            if type(fi) is not int or not 0 <= fi < len(self.translates):
                return False
            if ops.mul(ops.inv(self.translates[fi]), a) not in bset:
                return False
        return True


def greedy_cover(
    a_points: Sequence,
    b_points: Sequence,
    ops: GroupOps,
    max_translates: int | None = None,
):
    """Greedy F with A subset of F*B, scanning A in canonical order.

    Reuses an existing translate whenever possible, otherwise adds a*b0^-1 for
    b0 the B-point nearest to a (certified bound, coordinate-order tie-break),
    so f^-1 a = b0 lands in B by construction.  Always succeeds at patch scope
    unless max_translates caps |F|, in which case the offending point is
    reported.
    """
    a_sorted = canonical_sort(a_points, ops)
    b_list = canonical_sort(b_points, ops)
    if not b_list:
        raise UsageError("cannot cover with an empty patch")
    bset = set(b_list)
    b_ivs = None  # computed once, only if a new translate is ever needed
    translates: list = []
    assignments = []
    for a in a_sorted:
        chosen = None
        for fi, f in enumerate(translates):
            if ops.mul(ops.inv(f), a) in bset:
                chosen = fi
                break
        if chosen is None:
            if max_translates is not None and len(translates) >= max_translates:
                return None, a
            if b_ivs is None:
                b_ivs = NearestScan([ops.coord_intervals(b, 64) for b in b_list])
            a_iv = ops.coord_intervals(a, 64)
            a_mid = tuple((lo + hi) / 2 for lo, hi in a_iv)
            best = b_ivs.nearest_index(a_mid)
            translates.append(ops.mul(a, ops.inv(b_list[best])))
            chosen = len(translates) - 1
        assignments.append(chosen)
    return GreedyCover(translates, assignments, len(a_sorted)), None


class CoverBoundWitness(Record):
    """Representatives per fiber of X -> F1 x ... x Fn with the product bound."""

    __slots__ = ("representatives", "bound", "verified")

    @property
    def size(self) -> int:
        return len(self.representatives)


def _in_quotient_set(z, y_points, yset, ops: GroupOps) -> bool:
    # z in Y^-1 Y  iff  y*z in Y for some y in Y
    for y in y_points:
        if ops.mul(y, z) in yset:
            return True
    return False


def cell_cover(x_points: Sequence, coverings, ops: GroupOps) -> CoverBoundWitness:
    """Finite F' with X subset of F'(Y1^-1 Y1 ∩ ... ∩ Yn^-1 Yn), |F'| <= prod |Fi|.

    coverings is a list of (F_i, Y_i); the precondition X subset of F_i*Y_i is
    checked pointwise and a violation names the pair (i, x).
    """
    xs = canonical_sort(x_points, ops)
    prepared = []
    for f_i, y_i in coverings:
        prepared.append((list(f_i), list(y_i), set(y_i)))
    cells: dict = {}
    for x in xs:
        key = []
        for i, (f_i, y_i, yset) in enumerate(prepared):
            hit = None
            for fi, f in enumerate(f_i):
                if ops.mul(ops.inv(f), x) in yset:
                    hit = fi
                    break
            if hit is None:
                raise UsageError(f"precondition X subset F_{i} Y_{i} fails at x = {x!r}")
            key.append(hit)
        cells.setdefault(tuple(key), []).append(x)
    representatives = []
    for key in sorted(cells):
        rep = cells[key][0]
        representatives.append(rep)
        for other in cells[key][1:]:
            z = ops.mul(ops.inv(rep), other)
            for f_i, y_i, yset in prepared:
                if not _in_quotient_set(z, y_i, yset, ops):
                    raise AssertionError("cell representative check failed")
    bound = 1
    for f_i, _, _ in prepared:
        bound *= len(f_i)
    if len(representatives) > bound:
        raise AssertionError("cell cover exceeded the product bound")
    return CoverBoundWitness(representatives, bound, True)


class PowerCoverResult(Record):
    __slots__ = ("translates", "bound", "checked", "witness")

    @property
    def verified(self) -> bool:
        return self.witness is None


def approx_power_cover(
    patch_points: Sequence,
    k: int,
    f_translates: Sequence,
    ops: GroupOps,
    patch_radius,
) -> PowerCoverResult:
    """F_k = F^(k-1) with Lambda^k subset F_k * Lambda, verified on the inner ball.

    |F_k| <= |F|^(k-1) holds by construction and is asserted.  The patch-scope
    Lambda^k is the set of k-fold products of patch points; inclusion is
    checked for every such point inside the boundary-safe inner ball.
    """
    if k < 2:
        raise UsageError("power cover needs k >= 2")
    base = canonical_sort(set(patch_points), ops)
    fs = canonical_sort(set(f_translates), ops)
    f_k = [ops.identity]
    for _ in range(k - 1):
        f_k = canonical_sort({ops.mul(f, g) for f in f_k for g in fs}, ops)
    bound = len(fs) ** (k - 1)
    if len(f_k) > bound:
        raise AssertionError("power cover exceeded |F|^(k-1)")
    power = list(base)
    for _ in range(k - 1):
        power = canonical_sort({ops.mul(p, q) for p in power for q in base}, ops)
    margin = max((point_norm_hi(f, ops) for f in f_k), default=Fraction(0))
    inner = Fraction(patch_radius) - margin
    patch_set = set(base)
    checked = 0
    for x in points_within(power, ops, inner):
        checked += 1
        if not any(ops.mul(ops.inv(f), x) in patch_set for f in f_k):
            return PowerCoverResult(f_k, bound, checked, x)
    return PowerCoverResult(f_k, bound, checked, None)

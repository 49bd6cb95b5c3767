"""Metric and combinatorial certification over exact coordinates.

Distances use the sup-norm on coordinates everywhere (for the Heisenberg
group this is a documented proxy metric, bi-Lipschitz at patch scale).
Reported separations are certified rational lower bounds that are exact
whenever the coordinates are rational; the minimising pair is recorded
exactly so every number here can be re-derived.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import UsageError
from .exactnum import frac_str, iv_abs, iv_sub

SUP_NORM_METRIC = "sup-norm on coordinates"


@dataclass(frozen=True)
class GroupOps:
    """Exact group structure plus certified coordinate access for points."""

    mul: Callable
    inv: Callable
    identity: object
    sort_key: Callable
    coord_intervals: Callable  # (point, bits) -> list of (Fraction, Fraction)
    dim: int


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


def point_norm_hi(point, ops: GroupOps, bits: int = 64) -> Fraction:
    """Certified upper bound on the sup-norm of a point."""
    hi = Fraction(0)
    for iv in ops.coord_intervals(point, bits):
        _, hi_a = iv_abs(iv)
        hi = max(hi, hi_a)
    return hi


def canonical_sort(points, ops: GroupOps):
    return sorted(points, key=ops.sort_key)


def _dist_interval_from_coords(ip, iq):
    lo_max = None
    hi_max = None
    for a, b in zip(ip, iq):
        lo, hi = iv_abs(iv_sub(a, b))
        if lo_max is None or lo > lo_max:
            lo_max = lo
        if hi_max is None or hi > hi_max:
            hi_max = hi
    return (lo_max, hi_max)


def _widest_axis(coords) -> int:
    """The coordinate index with the most distinct values, lowest on ties."""
    if not coords:
        return 0
    return max(range(len(coords[0])), key=lambda k: len({c[k] for c in coords}))


def min_separation(points: Sequence, ops: GroupOps, bits: int = 128):
    """Certified lower bound on the minimal pairwise sup-distance, with witness.

    The bound is tight to the working interval width and exact for rational
    coordinates.  Distinct points are required.  Points are swept in order of
    the lower end of their interval on the axis with the most distinct
    intervals; a point's scan stops at the first later point whose gap on that
    axis alone exceeds the best bound so far, since a gap on any one axis
    bounds the pair's sup-distance from below.  The witness is the first
    minimising pair (i < j) in input order.
    """
    pts = list(points)
    if len(pts) < 2:
        raise UsageError("min_separation needs at least 2 points")
    coord_ivs = [ops.coord_intervals(p, bits) for p in pts]
    k = _widest_axis(coord_ivs)
    order = sorted(range(len(pts)), key=lambda i: coord_ivs[i][k][0])
    best_lo = None
    witness = None
    for a, i in enumerate(order):
        hi_i = coord_ivs[i][k][1]
        for j in order[a + 1:]:
            if best_lo is not None and coord_ivs[j][k][0] - hi_i > best_lo:
                break
            lo, _hi = _dist_interval_from_coords(coord_ivs[i], coord_ivs[j])
            b = bits
            while lo <= 0 and b < 4096:
                b *= 2
                lo, _hi = _dist_interval_from_coords(
                    ops.coord_intervals(pts[i], b), ops.coord_intervals(pts[j], b)
                )
            if lo <= 0:
                raise UsageError("duplicate points in patch")
            pair = (min(i, j), max(i, j))
            if best_lo is None or lo < best_lo or (lo == best_lo and pair < witness):
                best_lo, witness = lo, pair
    return best_lo, (pts[witness[0]], pts[witness[1]])


def _grid_1d(radius: Fraction, mesh: Fraction) -> list[Fraction]:
    steps = max(1, math.ceil(Fraction(2 * radius) / mesh))
    step = Fraction(2 * radius) / steps
    return [-radius + k * step for k in range(steps + 1)]


def _grid(radius: Fraction, mesh: Fraction, dim: int):
    axis = _grid_1d(radius, mesh)
    if dim == 1:
        return [(v,) for v in axis]
    grids = [()]
    for _ in range(dim):
        grids = [g + (v,) for g in grids for v in axis]
    return grids


class NearestScan:
    """Certified upper bounds on distance-to-point-set with float preselection.

    Floats only pick the candidate point: the lowest index among the points
    at minimal float sup-distance from the target.  The points are sorted once
    by their float coordinate on the axis with the most distinct values; a
    query bisects to the target and walks outward in both directions, ending a
    direction once the gap on that axis alone is strictly greater than the
    best distance so far.  The returned bound is the exact rational interval
    bound through that candidate, hence always a sound upper bound on the
    true distance.
    """

    def __init__(self, coord_ivs_list):
        self.ivs = list(coord_ivs_list)
        self.mids = [
            tuple(float(lo + hi) / 2.0 for lo, hi in ivs) for ivs in self.ivs
        ]
        self.axis = _widest_axis(self.mids)
        self.order = sorted(range(len(self.mids)), key=lambda i: self.mids[i][self.axis])
        self.keys = [self.mids[i][self.axis] for i in self.order]

    def __bool__(self):
        return bool(self.ivs)

    def nearest_index(self, grid_point) -> int:
        gm = tuple(float(x) for x in grid_point)
        g0 = gm[self.axis]
        keys = self.keys
        start = bisect_left(keys, g0)
        best_i = 0
        best_d = None
        for ks in (range(start, len(keys)), range(start - 1, -1, -1)):
            for k in ks:
                # the gap is one term of the float distance of every point
                # further along, and grows monotonically
                if best_d is not None and abs(keys[k] - g0) > best_d:
                    break
                i = self.order[k]
                d = max(abs(a - b) for a, b in zip(self.mids[i], gm))
                if best_d is None or d < best_d or (d == best_d and i < best_i):
                    best_d, best_i = d, i
        return best_i

    def dist_hi(self, grid_point) -> Fraction:
        ivs = self.ivs[self.nearest_index(grid_point)]
        out = Fraction(0)
        for (lo, hi), g in zip(ivs, grid_point):
            _, dhi = iv_abs((lo - g, hi - g))
            if dhi > out:
                out = dhi
        return out


@dataclass(frozen=True)
class CoveringRadiusResult:
    bound: Fraction | None
    verdict: str  # FINITE | INFINITE
    inner_radius: Fraction
    mesh: Fraction | None
    empirical: Fraction | None

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
    bits: int = 96,
    max_refinements: int = 10,
) -> CoveringRadiusResult:
    """Certified upper bound on sup-distance from any inner-ball point to the patch.

    A mesh-delta grid is exhausted exactly; any ball point is within delta/2 of
    a grid point, so empirical + delta is a sound bound.  The mesh is refined
    until the slack is within 10% of the empirical value.  Verdict INFINITE
    when the bound is no better than the trivial inner_radius.
    """
    inner_radius = Fraction(inner_radius)
    if inner_radius <= 0:
        raise UsageError("inner_radius must be positive")
    pts = list(points)
    if not pts:
        return CoveringRadiusResult(None, "INFINITE", inner_radius, None, None)
    scan = NearestScan([ops.coord_intervals(p, bits) for p in pts])
    mesh = inner_radius / 4
    empirical = None
    for _ in range(max_refinements):
        empirical = Fraction(0)
        for g in _grid(inner_radius, mesh, ops.dim):
            d = scan.dist_hi(g)
            if d > empirical:
                empirical = d
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


@dataclass(frozen=True)
class DeloneReport:
    min_separation: Fraction
    min_sep_witness: tuple
    covering: CoveringRadiusResult
    metric: str = SUP_NORM_METRIC

    @property
    def is_delone(self) -> bool:
        return self.min_separation > 0 and self.covering.verdict == "FINITE"

    def to_dict(self):
        return {
            "type": "delone_report",
            "min_separation": frac_str(self.min_separation),
            "covering": self.covering.to_dict(),
            "metric": self.metric,
            "delone": self.is_delone,
        }


def delone_certify(
    points: Sequence, ops: GroupOps, inner_radius, patch_radius=None
) -> DeloneReport:
    sep, witness = min_separation(points, ops)
    cov = covering_radius(points, ops, inner_radius, patch_radius=patch_radius)
    return DeloneReport(min_separation=sep, min_sep_witness=witness, covering=cov)


# ---------------------------------------------------------------------------
# Greedy patch covers and the appendix cardinality bounds.
# ---------------------------------------------------------------------------


@dataclass
class GreedyCover:
    """F with A subset of F*B at patch scope, plus the pointwise assignment."""

    translates: list
    assignments: list  # (point of A, index into translates)
    scope_points: int

    def replay(self, b_points, ops: GroupOps) -> bool:
        """Every assignment names a translate f by its index, and f^-1 a lies in B."""
        bset = set(b_points)
        for a, fi in self.assignments:
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
        assignments.append((a, chosen))
    return GreedyCover(translates, assignments, len(a_sorted)), None


@dataclass
class CoverBoundWitness:
    """Representatives per fiber of X -> F1 x ... x Fn with the product bound."""

    representatives: list
    cell_of: dict
    bound: int
    verified: bool

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
    cell_of = {}
    for key in sorted(cells):
        rep = cells[key][0]
        representatives.append(rep)
        cell_of[key] = rep
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
    return CoverBoundWitness(representatives, cell_of, bound, True)


@dataclass
class PowerCoverResult:
    k: int
    translates: list
    bound: int
    checked: int
    witness: object | None

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
    for x in power:
        if point_norm_hi(x, ops) > inner:
            continue
        checked += 1
        if not any(ops.mul(ops.inv(f), x) in patch_set for f in f_k):
            return PowerCoverResult(k, f_k, bound, checked, x)
    return PowerCoverResult(k, f_k, bound, checked, None)

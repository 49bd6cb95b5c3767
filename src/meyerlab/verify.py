"""Metric and combinatorial certification over exact coordinates.

Distances use the sup-norm on coordinates everywhere (for the Heisenberg
group this is a documented proxy metric, bi-Lipschitz at patch scale).
Every measured set is given as the 1-D factors whose coordinate product it
is (for a patch, the per-axis lists it was enumerated from), and is measured
at a place: None for rationals, else the physical place of a real quadratic
field.  Each Delone constant is then an exact 1-D value, written as its
NORM_BITS dyadic bound (the value itself when rational).  Floats only pick a
greedy cover's nearest point and pre-screen `points_within`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import cmp_to_key
from operator import sub

from .errors import UsageError
from .exactnum import Record, cmp_embedding, eval_embedding, frac_str, iv_abs

SUP_NORM_METRIC = "sup-norm on coordinates"
NORM_BITS = 64  # dyadic precision of every written bound, of point_norm_hi and of points_within


class GroupOps(Record):
    """Exact group structure plus certified coordinate access for points.

    coord_intervals maps (point, bits) to a list of (Fraction, Fraction); a
    point is a tuple of coordinates, or a bare rational in 1-D.
    """

    __slots__ = ("mul", "inv", "identity", "sort_key", "coord_intervals")


def rational_line_ops() -> GroupOps:
    """(Q, +) with points stored as Fractions."""
    return GroupOps(
        mul=lambda a, b: a + b,
        inv=lambda a: -a,
        identity=Fraction(0),
        sort_key=lambda a: (a,),
        coord_intervals=lambda a, bits: [(a, a)],
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


# ---------------------------------------------------------------------------
# Exact values on the line: a coordinate is a rational, or a field element
# read at `place`.  Differences, halves and sums of coordinates stay exact, and
# two values compare by one exact sign test.
# ---------------------------------------------------------------------------


def _sign(x, place) -> int:
    if place is None:
        return (x > 0) - (x < 0)
    return cmp_embedding(x, place, 0)


def exact_key(place):
    """Sort key that orders coordinates by their exact real value at `place`."""
    return cmp_to_key(lambda a, b: _sign(a - b, place))


def dyadic_bounds(x, place) -> tuple[Fraction, Fraction]:
    """The NORM_BITS dyadic floor and ceiling of the real value of x; both are
    the value itself when it is rational."""
    if place is None:
        return Fraction(x), Fraction(x)
    return eval_embedding(x, place, NORM_BITS)


def axis_covering_radius(xs: Sequence, r: Fraction, place):
    """sup over t in [-r, r] of dist(t, xs), exactly, for a sorted nonempty factor xs.

    dist(t, xs) is largest at a gap's midpoint, where it is half the gap, or at
    an end of [-r, r]; so the value is the largest of dist(-r, xs), dist(r, xs)
    and the half-gaps whose midpoints lie in [-r, r].
    """
    key = exact_key(place)
    values = [min((max(x - t, t - x, key=key) for x in xs), key=key) for t in (-r, r)]
    values += [
        (b - a) / 2
        for a, b in zip(xs, xs[1:])
        if _sign(a + b + 2 * r, place) >= 0 and _sign(a + b - 2 * r, place) <= 0
    ]
    return max(values, key=key)


def min_separation(fs: Sequence[Sequence], place) -> Fraction:
    """Certified lower bound on the least sup-distance between two points of
    the product of the 1-D factors `fs`: the least gap of any factor, as its
    NORM_BITS floor.  Two points that differ on axis k are at least a gap of
    factor k apart, and two that differ only across the least gap attain it."""
    key = exact_key(place)
    gaps = [b - a for xs in (sorted(f, key=key) for f in fs) for a, b in zip(xs, xs[1:])]
    if not gaps or not all(fs):
        raise UsageError("min_separation needs at least 2 points")
    return dyadic_bounds(min(gaps, key=key), place)[0]


class CoveringRadiusResult(Record):
    """verdict is FINITE or INFINITE."""

    __slots__ = ("bound", "verdict", "inner_radius")

    def to_dict(self):
        return {
            "bound": None if self.bound is None else frac_str(self.bound),
            "verdict": self.verdict,
            "inner_radius": frac_str(self.inner_radius),
        }


def covering_radius(
    fs: Sequence[Sequence], place, inner_radius, patch_radius=None
) -> CoveringRadiusResult:
    """Certified upper bound on sup-distance from any inner-ball point to the
    product P of the 1-D factors `fs`.  dist(x, P) = max_k dist(x_k, P_k), so
    it is the largest `axis_covering_radius`, as its NORM_BITS ceiling.
    Verdict INFINITE when the bound is no better than the trivial
    inner_radius, or when P is empty."""
    inner_radius = Fraction(inner_radius)
    if inner_radius <= 0:
        raise UsageError("inner_radius must be positive")
    if not (fs and all(fs)):
        return CoveringRadiusResult(None, "INFINITE", inner_radius)
    key = exact_key(place)
    per_axis = [axis_covering_radius(sorted(xs, key=key), inner_radius, place) for xs in fs]
    bound = dyadic_bounds(max(per_axis, key=key), place)[1]
    if patch_radius is not None and inner_radius + bound > Fraction(patch_radius):
        raise UsageError(
            "inner radius plus covering bound exceeds patch radius; enlarge the patch"
        )
    verdict = "FINITE" if bound < inner_radius else "INFINITE"
    return CoveringRadiusResult(bound, verdict, inner_radius)


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
    fs: Sequence[Sequence], place, inner_radius, patch_radius=None
) -> DeloneReport:
    """Both Delone constants of the product of the 1-D factors `fs`."""
    covering = covering_radius(fs, place, inner_radius, patch_radius)
    return DeloneReport(min_separation(fs, place), covering)


class NearestScan:
    """The nearest of a list of points to a target, picked through floats.

    Each point is stored by the float midpoints of its coordinate intervals,
    each correctly rounded.  Floats only pick the candidate: a linear scan
    returns the lowest index among the points at minimal float sup-distance
    from the target.  dist_hi is the exact rational interval bound through
    that candidate, hence always a sound upper bound on the true distance.
    """

    __slots__ = ("ivs", "mids")

    def __init__(self, coord_ivs_list):
        self.ivs = list(coord_ivs_list)
        self.mids = [tuple(_float((lo + hi) / 2) for lo, hi in ivs) for ivs in self.ivs]

    def nearest_index(self, target) -> int:
        gm = tuple(map(_float, target))
        best_i, best_d = 0, math.inf
        for i, m in enumerate(self.mids):
            d = max(map(abs, map(sub, m, gm)))
            if d < best_d:
                best_i, best_d = i, d
        return best_i

    def dist_hi(self, target) -> Fraction:
        ivs = zip(self.ivs[self.nearest_index(target)], target)
        return max((iv_abs((lo - g, hi - g))[1] for (lo, hi), g in ivs), default=Fraction(0))


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
    b0 the B-point nearest to a in floats (`NearestScan`: the first in
    canonical order wins a tie), so f^-1 a = b0 lands in B by construction.
    Always succeeds at patch scope unless max_translates caps |F|, in which
    case the offending point is reported.
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

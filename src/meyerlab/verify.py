"""Metric and combinatorial certification over exact coordinates.

Distances use the sup-norm on coordinates everywhere (for the Heisenberg
group this is a documented proxy metric, bi-Lipschitz at patch scale).
Every measured set is given as the 1-D factors whose coordinate product it
is (for a patch, the per-axis lists it was enumerated from), and is measured
at a place: None for rationals, else the physical place of a real quadratic
field.  Each Delone constant is then an exact 1-D value, written as its
NORM_BITS dyadic bound (the value itself when rational).  Patch covers take
the group of their points, a scheme, and `points_within` decides their scope
exactly.  Floats only pick a greedy cover's nearest point.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import cmp_to_key
from operator import sub

from .errors import UsageError
from .exactnum import Record, abs_embedding_leq, cmp_embedding, eval_embedding, frac_str, iv_abs

SUP_NORM_METRIC = "sup-norm on coordinates"
NORM_BITS = 64  # dyadic precision of every written bound, of point_norm_hi and of NearestScan


def _coords(point) -> tuple:
    """The coordinates of a point: a tuple of them, or one bare rational."""
    return point if type(point) is tuple else (point,)


def point_norm_hi(point, place) -> Fraction:
    """Certified upper bound on the sup-norm of a point at `place`."""
    return max(iv_abs(dyadic_bounds(x, place))[1] for x in _coords(point))


def _float(x) -> float:
    """float(x) for a Fraction or int, correctly rounded, by one integer true division."""
    n, d = x.as_integer_ratio()
    return n / d


def points_within(points, group, radius) -> list:
    """The points of `group` whose sup-norm at its physical place is at most
    radius, decided exactly per distinct coordinate, in input order."""
    radius, place = Fraction(radius), group.physical_place
    distinct = {x for p in points for x in _coords(p)}
    if place is None:
        inside = {x: abs(x) <= radius for x in distinct}
    else:
        inside = {x: abs_embedding_leq(x, place, radius) for x in distinct}
    return [p for p in points if all(inside[x] for x in _coords(p))]


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

    Each distinct coordinate is read once at `place`: its NORM_BITS dyadic
    bounds, and the correctly rounded float of their midpoint.  Floats only
    pick the candidate: a linear scan returns the lowest index among the
    points at minimal float sup-distance from the target.  dist_hi is the
    exact rational interval bound through that candidate, hence always a
    sound upper bound on the true distance.
    """

    __slots__ = ("place", "memo", "ivs", "mids")

    def __init__(self, points, place):
        self.place, self.memo = place, {}
        rows = [self.read(p) for p in points]
        self.ivs = [[iv for iv, _ in row] for row in rows]
        self.mids = [tuple(mid for _, mid in row) for row in rows]

    def read(self, point) -> list:
        """(dyadic bounds, float midpoint) of each coordinate of `point`."""
        out = []
        for x in _coords(point):
            got = self.memo.get(x)
            if got is None:
                lo, hi = dyadic_bounds(x, self.place)
                got = self.memo[x] = ((lo, hi), _float((lo + hi) / 2))
            out.append(got)
        return out

    def nearest_index(self, target) -> int:
        """The pick for a target given by its coordinates, exact or float."""
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
# Greedy patch covers and the appendix cardinality bounds.  Each takes the
# group of its points: a scheme, whose mul, inv and sort_key are its group
# law and canonical order, and whose physical_place reads its coordinates.
# ---------------------------------------------------------------------------


class GreedyCover(Record):
    """F with A subset of F*B at patch scope: the translates, in the order the
    greedy appended them, which are all that a file stores; scope_points is |A|."""

    __slots__ = ("translates", "scope_points")

    def failure(self, a_points, b_points, group, what: str) -> str | None:
        """Why the translates are not a cover of A by B that the greedy could
        have written, or None; `what` names a point of A and the set B.  Each
        point a needs a translate f with f^-1 a in B, and each translate must
        be the first to carry some point, since the greedy appends one only
        then: a repeated or appended translate fails."""
        mul, bset = group.mul, set(b_points)
        inverses = [group.inv(f) for f in self.translates]
        first = set()
        for a in a_points:
            i = next((i for i, g in enumerate(inverses) if mul(g, a) in bset), None)
            if i is None:
                return f"does not carry each {what}"
            first.add(i)
        for j in range(len(inverses)):
            if j not in first:
                return f"has translate {j}, which is the first to carry no {what}"
        return None


def greedy_cover(
    a_points: Sequence,
    b_points: Sequence,
    group,
    max_translates: int | None = None,
):
    """Greedy F with A subset of F*B, scanning A in canonical order.

    Reuses an existing translate whenever possible, otherwise adds a*b0^-1 for
    b0 the B-point nearest to a in floats (`NearestScan`: the first in
    canonical order wins a tie), so f^-1 a = b0 lands in B by construction.
    Always succeeds at patch scope unless max_translates caps |F|, in which
    case the offending point is reported.
    """
    mul, inv = group.mul, group.inv
    a_sorted = sorted(a_points, key=group.sort_key)
    b_list = sorted(b_points, key=group.sort_key)
    if not b_list:
        raise UsageError("cannot cover with an empty patch")
    bset = set(b_list)
    scan = None  # built once, only if a new translate is ever needed
    translates: list = []
    for a in a_sorted:
        if any(mul(inv(f), a) in bset for f in translates):
            continue
        if max_translates is not None and len(translates) >= max_translates:
            return None, a
        if scan is None:
            scan = NearestScan(b_list, group.physical_place)
        best = scan.nearest_index([mid for _, mid in scan.read(a)])
        translates.append(mul(a, inv(b_list[best])))
    return GreedyCover(translates, len(a_sorted)), None


class CoverBoundWitness(Record):
    """Representatives per fiber of X -> F1 x ... x Fn with the product bound."""

    __slots__ = ("representatives", "bound", "verified")

    @property
    def size(self) -> int:
        return len(self.representatives)


def _in_quotient_set(z, y_points, yset, group) -> bool:
    # z in Y^-1 Y  iff  y*z in Y for some y in Y
    return any(group.mul(y, z) in yset for y in y_points)


def cell_cover(x_points: Sequence, coverings, group) -> CoverBoundWitness:
    """Finite F' with X subset of F'(Y1^-1 Y1 ∩ ... ∩ Yn^-1 Yn), |F'| <= prod |Fi|.

    coverings is a list of (F_i, Y_i); the precondition X subset of F_i*Y_i is
    checked pointwise and a violation names the pair (i, x).
    """
    xs = sorted(x_points, key=group.sort_key)
    prepared = [(list(f_i), list(y_i), set(y_i)) for f_i, y_i in coverings]
    cells: dict = {}
    for x in xs:
        key = []
        for i, (f_i, y_i, yset) in enumerate(prepared):
            hit = None
            for fi, f in enumerate(f_i):
                if group.mul(group.inv(f), x) in yset:
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
            z = group.mul(group.inv(rep), other)
            for f_i, y_i, yset in prepared:
                if not _in_quotient_set(z, y_i, yset, group):
                    raise AssertionError("cell representative check failed")
    bound = math.prod(len(f_i) for f_i, _, _ in prepared)
    if len(representatives) > bound:
        raise AssertionError("cell cover exceeded the product bound")
    return CoverBoundWitness(representatives, bound, True)

import functools
import itertools
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meyerlab import cps, exactnum, heis, verify
from meyerlab.errors import UsageError
from meyerlab.exactnum import golden_field, sqrt2_field
from oracles import approx_power_cover, elem


def frac_points(values):
    return [Fraction(v) for v in values]


LINE = exactnum.RationalLine
GOLDEN = golden_field()
GOLDEN_PLACE = cps.GaloisScheme(GOLDEN).physical_place


class RationalBox:
    """Q^dim under addition: a point is a tuple of Fractions."""

    physical_place = None

    @staticmethod
    def mul(a, b):
        return tuple(x + y for x, y in zip(a, b))

    @staticmethod
    def inv(a):
        return tuple(-x for x in a)

    @staticmethod
    def sort_key(a):
        return a


class IntMod:
    """Z/nZ: a point is an int in [0, n)."""

    physical_place = None

    def __init__(self, n):
        self.n = n

    def mul(self, a, b):
        return (a + b) % self.n

    def inv(self, a):
        return (-a) % self.n

    @staticmethod
    def sort_key(a):
        return a


def fib_patch(radius=10):
    scheme = cps.GaloisScheme(golden_field())
    return cps.model_set_patch(scheme, cps.Window.box(1), radius)


class TestMinSeparation:
    def test_integer_patch(self):
        assert verify.min_separation([frac_points(range(-4, 5))], None) == 1

    def test_half_integer_patch(self):
        pts = [Fraction(n, 2) for n in range(-6, 7)]
        assert verify.min_separation([pts], None) == Fraction(1, 2)

    def test_fibonacci_patch_positive(self):
        patch = fib_patch(10)
        place = patch.scheme.physical_place
        sep = verify.min_separation(patch.factors, place)
        assert sep > 0
        # the least gap is 1/phi = phi - 1, written as its 2^-64 floor
        assert sep == all_pairs_min_separation(patch.points, place)
        phi_minus_one = golden_field().gen() - 1
        assert sep == exactnum.eval_embedding(phi_minus_one, place, verify.NORM_BITS)[0]

    def test_nonincreasing_in_radius(self):
        seps = []
        for radius in (5, 10, 20):
            patch = fib_patch(radius)
            seps.append(verify.min_separation(patch.factors, patch.scheme.physical_place))
        assert seps[0] >= seps[1] >= seps[2]

    def test_needs_two_points(self):
        with pytest.raises(UsageError):
            verify.min_separation([[Fraction(0)]], None)


def linear_nearest_index(scan, grid_point):
    """Reference: first index at minimal float sup-distance, by a full scan."""
    gm = tuple(float(x) for x in grid_point)
    best_i, best_d = 0, None
    for i, mid in enumerate(scan.mids):
        d = max(abs(a - b) for a, b in zip(mid, gm))
        if best_d is None or d < best_d:
            best_d, best_i = d, i
    return best_i


def real_key(place):
    """Orders coordinates by exact real value: rationals as they are, field
    elements by the sign of their difference's embedding."""
    if place is None:
        return None
    return functools.cmp_to_key(lambda a, b: exactnum.cmp_embedding(a - b, place, 0))


def exact_abs(x, place):
    negative = x < 0 if place is None else exactnum.cmp_embedding(x, place, 0) < 0
    return -x if negative else x


def written(x, place):
    """(floor, ceiling) of x's real value at 2^-NORM_BITS; x itself when it is rational."""
    if place is None:
        return Fraction(x), Fraction(x)
    return exactnum.eval_embedding(x, place, verify.NORM_BITS)


def all_pairs_min_separation(points, place):
    """Reference: the least exact sup-distance over every pair of points, by
    brute force, written as its 2^-NORM_BITS floor."""
    key = real_key(place)
    coords = [p if type(p) is tuple else (p,) for p in points]
    dists = []
    for i, p in enumerate(coords):
        for q in coords[i + 1:]:
            d = max((exact_abs(a - b, place) for a, b in zip(p, q)), key=key)
            assert exact_abs(d, place) != 0, "duplicate point"
            dists.append(d)
    return written(min(dists, key=key), place)[0]


# Half-integer coordinates repeat often; quarter-integer queries fall halfway
# between them, so equal float distances (ties) are common.
HALVES = st.integers(-4, 4).map(lambda k: Fraction(k, 2))
QUARTERS = st.integers(-10, 10).map(lambda k: Fraction(k, 4))
# (a + b phi)/2 for small a, b: their values at the physical place are irrational
# unless b = 0, so the scan reads them as dyadic intervals of width 2^-64
GOLDEN_HALVES = st.tuples(st.integers(-8, 8), st.integers(-3, 3)).map(
    lambda ab: elem(GOLDEN, [Fraction(ab[0], 2), Fraction(ab[1], 2)])
)


def placed_points(dim, rational, max_size=30):
    """(points, place): points with `dim` coordinates, rational ones read as
    they are or golden ones read at the physical place."""
    coord, place = (HALVES, None) if rational else (GOLDEN_HALVES, GOLDEN_PLACE)
    point = st.lists(coord, min_size=dim, max_size=dim).map(tuple)
    return st.lists(point, min_size=1, max_size=max_size).map(lambda pts: (pts, place))


class TestNearestScan:
    @settings(max_examples=200, deadline=None)
    @given(dim=st.sampled_from([1, 3]), rational=st.booleans(), data=st.data())
    def test_matches_linear_scan(self, dim, rational, data):
        scan = verify.NearestScan(*data.draw(placed_points(dim, rational)))
        for g in data.draw(st.lists(st.tuples(*[QUARTERS] * dim), min_size=1, max_size=10)):
            assert scan.nearest_index(g) == linear_nearest_index(scan, g)

    def test_reads_each_distinct_coordinate_once(self, monkeypatch):
        calls = []

        def counting(x, place, bits):
            calls.append(x)
            return exactnum.eval_embedding(x, place, bits)

        monkeypatch.setattr(verify, "eval_embedding", counting)
        patch = heis.heis_model_set(heis.HeisScheme(sqrt2_field(), (1, 1, 1)), 2)
        place = patch.scheme.physical_place
        scan = verify.NearestScan(patch.points, place)
        assert sorted(calls, key=lambda x: x.coeffs) == sorted(
            {x for p in patch.points for x in p}, key=lambda x: x.coeffs
        )
        assert scan.ivs == [[exactnum.eval_embedding(x, place, verify.NORM_BITS) for x in p] for p in patch.points]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_product_set_with_few_first_coordinates(self, data):
        # the first coordinate takes at most 3 values, so the points crowd a
        # few planes of cells
        firsts = data.draw(st.lists(HALVES, min_size=1, max_size=3, unique=True))
        others = st.lists(HALVES, min_size=1, max_size=5, unique=True)
        ys, zs = data.draw(others), data.draw(others)
        points = [(x, y, z) for x in firsts for y in ys for z in zs]
        data.draw(st.randoms()).shuffle(points)
        scan = verify.NearestScan(points, None)
        for g in data.draw(st.lists(st.tuples(*[QUARTERS] * 3), min_size=1, max_size=10)):
            assert scan.nearest_index(g) == linear_nearest_index(scan, g)

    @pytest.mark.parametrize(
        "points, query, expected",
        [
            # equidistant on both sides: the lower index wins, not the lower coordinate
            ([(2,), (0,)], (1,), 0),
            ([(0,), (2,)], (1,), 0),
            # equal first coordinates, tie decided by the other coordinates
            ([(0, 1, 0), (0, -1, 0), (0, 1, 0)], (0, 0, 0), 0),
            ([(1, 0, 0), (-1, 0, 0), (0, 1, 1)], (0, 0, 0), 0),
            ([(3, 0, 0), (1, 0, 0), (-1, 0, 0)], (0, 0, 0), 1),
        ],
    )
    def test_ties_pick_lowest_index(self, points, query, expected):
        scan = verify.NearestScan([tuple(map(Fraction, p)) for p in points], None)
        assert scan.nearest_index(query) == expected == linear_nearest_index(scan, query)


# Exact values, some a hair (2^-70) apart so that their float midpoints coincide.
HAIR = Fraction(1, 2**70)
HAIR_HALVES = st.tuples(HALVES, st.sampled_from([Fraction(0), HAIR])).map(sum)
# Queries far outside any point set drawn here, as well as near ones.
FAR = st.integers(-10**6, 10**6).map(lambda k: Fraction(k, 4))


def hair_points(dim, flat_axis=None):
    point = st.lists(HAIR_HALVES, min_size=dim, max_size=dim)
    if flat_axis is not None:
        # every point shares this coordinate: an axis of zero span
        point = point.map(lambda p: p[:flat_axis] + [Fraction(1, 2)] + p[flat_axis + 1:])
    return st.lists(point.map(tuple), min_size=1, max_size=30)


def float_mid(x, place):
    lo, hi = written(x, place)
    return float((lo + hi) / 2)


def reference_dist_hi(scan, grid_point):
    """dist_hi through the linear-scan candidate, bounded as iv_abs bounds it."""
    ivs = scan.ivs[linear_nearest_index(scan, grid_point)]
    return max([Fraction(0)] + [exactnum.iv_abs((lo - g, hi - g))[1] for (lo, hi), g in zip(ivs, grid_point)])


class TestCells:
    @settings(max_examples=200, deadline=None)
    @given(dim=st.sampled_from([1, 2, 3]), flat=st.booleans(), data=st.data())
    def test_cells_match_linear_scan(self, dim, flat, data):
        if data.draw(st.booleans(), label="golden"):
            points, place = data.draw(placed_points(dim, rational=False))
        else:
            place, points = None, data.draw(hair_points(dim, flat_axis=dim - 1 if flat else None))
        scan = verify.NearestScan(points, place)
        assert scan.mids == [tuple(float_mid(x, place) for x in p) for p in points]
        queries = st.tuples(*[st.one_of(QUARTERS, FAR)] * dim)
        for g in data.draw(st.lists(queries, min_size=1, max_size=10)):
            assert scan.nearest_index(g) == linear_nearest_index(scan, g)

    @pytest.mark.parametrize("query", [(0,), (1,), (-10**9,), (10**9,)])
    def test_single_point(self, query):
        scan = verify.NearestScan([Fraction(1, 3)], None)
        assert scan.nearest_index(query) == 0
        assert scan.dist_hi(query) == abs(Fraction(query[0]) - Fraction(1, 3))

    def test_equal_float_midpoints_pick_lowest_index(self):
        scan = verify.NearestScan([1 + HAIR, Fraction(1)], None)
        assert scan.mids[0] == scan.mids[1]
        assert scan.nearest_index((Fraction(0),)) == 0
        assert scan.dist_hi((Fraction(0),)) == 1 + HAIR

    @settings(max_examples=200, deadline=None)
    @given(dim=st.sampled_from([1, 3]), data=st.data())
    def test_bulk_maximum_matches_grid_loop(self, dim, data):
        # the largest grid distance at mesh delta brackets the exact covering
        # radius from below within delta/2; with half-integer points, distinct
        # distances to a grid point differ by far more than float rounding, so
        # the float scan picks a truly nearest point
        fs = data.draw(products(HALVES, dim))
        # at most 13^3 grid points in 3-D
        r = data.draw(st.integers(1, 8 if dim == 1 else 3).map(lambda k: Fraction(k, 2)))
        meshes = [Fraction(1, 2), Fraction(1, 3)] + [Fraction(1, 8)] * (dim == 1)
        mesh = data.draw(st.sampled_from(meshes))
        bound = verify.covering_radius(fs, None, r).bound
        grid = grid_maximum(list(itertools.product(*fs)), None, r, mesh)
        assert grid <= bound <= grid + mesh / 2

    def test_bulk_maximum_matches_grid_loop_on_a_heisenberg_patch(self):
        patch = heis.heis_model_set(heis.HeisScheme(sqrt2_field(), (1, 1, 2)), 2)
        mesh = Fraction(1, 8)
        bound = verify.covering_radius(patch.factors, patch.scheme.physical_place, Fraction(1, 2)).bound
        grid = grid_maximum(patch.points, patch.scheme.physical_place, Fraction(1, 2), mesh)
        # dist_hi and the written bound each round outward by less than 2^-64
        assert grid - Fraction(1, 2**64) <= bound <= grid + mesh / 2 + Fraction(1, 2**64)

    @settings(max_examples=100, deadline=None)
    @given(dim=st.sampled_from([1, 3]), data=st.data())
    def test_min_separation_matches_all_pairs(self, dim, data):
        fs = data.draw(products(HAIR_HALVES, dim))
        if math.prod(map(len, fs)) < 2:
            return
        pts = list(itertools.product(*fs))
        assert verify.min_separation(fs, None) == all_pairs_min_separation(pts, None)


def products(values, dim, max_factor=4):
    """The `dim` factors of a coordinate product: lists of distinct values
    drawn from `values`, in the order drawn, so not sorted."""
    factor = st.lists(values, min_size=1, max_size=max_factor, unique=True)
    return st.lists(factor, min_size=dim, max_size=dim)


def grid_1d(r, mesh):
    """-r + 2 r k / steps for k = 0..steps, with steps = ceil(2 r / mesh)."""
    steps = max(1, math.ceil(2 * r / mesh))
    return [-r + 2 * r * Fraction(k, steps) for k in range(steps + 1)]


def grid_maximum(points, place, r, mesh):
    """The largest `reference_dist_hi` over a grid of step at most mesh on [-r, r]^dim."""
    scan = verify.NearestScan(points, place)
    dim = len(scan.ivs[0])
    return max(reference_dist_hi(scan, g) for g in itertools.product(*[grid_1d(r, mesh)] * dim))


def golden_value(x) -> Decimal:
    """The value of x = a + b*phi at the physical place, to 60 digits, computed
    from phi = (1 + sqrt 5)/2 apart from the package's exact arithmetic."""
    a, b = x.coeffs
    with localcontext() as ctx:
        ctx.prec = 60
        phi = (1 + Decimal(5).sqrt()) / 2
        return Decimal(a.numerator) / a.denominator + Decimal(b.numerator) / b.denominator * phi


def golden_near(radius):
    """Elements a + b*phi whose value is within 1 of +-radius: a is the integer
    nearest to +-radius - b*phi, for |b| <= 40, so some values fall very close."""
    phi = (1 + 5**0.5) / 2

    def near(sign_b):
        sign, b = sign_b
        return elem(GOLDEN, [round(sign * radius - b * phi), b])

    return st.tuples(st.sampled_from([1, -1]), st.integers(-40, 40)).map(near)


class TestPointsWithin:
    @settings(max_examples=100, deadline=None)
    @given(radius=st.integers(1, 8).map(lambda k: Fraction(k, 2)), data=st.data())
    def test_rational_points_match_their_absolute_values(self, radius, data):
        # coordinates at the radius, a hair (2^-60) either side of it, or anywhere
        offsets = st.sampled_from([0, Fraction(1, 2**60), -Fraction(1, 2**60)])
        near = st.tuples(st.sampled_from([1, -1]), offsets).map(lambda so: so[0] * (radius + so[1]))
        value = st.one_of(near, HALVES)
        pts = data.draw(st.lists(st.tuples(value, value, value), max_size=20))
        expected = [p for p in pts if max(map(abs, p)) <= radius]
        assert verify.points_within(pts, RationalBox, radius) == expected
        line = [p[0] for p in pts]
        assert verify.points_within(line, LINE, radius) == [q for q in line if abs(q) <= radius]

    @settings(max_examples=100, deadline=None)
    @given(radius=st.integers(1, 16).map(lambda k: Fraction(k, 2)), data=st.data())
    def test_golden_points_match_a_decimal_reference(self, radius, data):
        value = st.one_of(golden_near(radius), GOLDEN_HALVES)
        pts = data.draw(st.lists(st.tuples(value, value), max_size=20))
        # no value a + b*phi with b != 0 equals a rational, and these stay 1e-3
        # away from it, far above the reference's 60 digits
        expected = [p for p in pts if all(abs(golden_value(x)) <= radius for x in p)]
        assert verify.points_within(pts, cps.GaloisScheme(GOLDEN, dim=2), radius) == expected

    def test_a_value_just_below_the_radius_is_in_scope(self):
        # r is sigma(theta) rounded up at 2^-200, far inside the 2^-64 interval
        # that a float or a NORM_BITS bound would read sigma(theta) as
        scheme = cps.GaloisScheme(GOLDEN)
        theta = (GOLDEN.gen(),)
        r = exactnum.eval_embedding(theta[0], scheme.physical_place, 200)[1]
        assert verify.points_within([theta], scheme, r) == [theta]
        assert verify.points_within([theta], scheme, r - Fraction(1, 2**199)) == []


class TestMinSeparationSweep:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.sets(st.integers(-20, 20), min_size=2, max_size=25).flatmap(
            lambda vs: st.permutations(sorted(vs))
        ),
        scale=st.sampled_from([Fraction(1), Fraction(1, 3)]),
    )
    @example(values=[3, 2, 1, 0], scale=Fraction(1))
    def test_rational_line_matches_all_pairs(self, values, scale):
        # consecutive integers give many equal gaps, so the witness tie-break matters
        pts = [scale * v for v in values]
        assert verify.min_separation([pts], None) == all_pairs_min_separation(pts, None)

    @pytest.mark.parametrize("seed", range(4))
    def test_golden_patches_match_all_pairs(self, seed):
        rng = random.Random(seed)
        golden = golden_field()
        patches = [
            fib_patch(10),
            cps.model_set_patch(cps.GaloisScheme(golden, dim=2), cps.Window.box(1, 1), 3),
            heis.heis_model_set(heis.HeisScheme(golden, (1, 1, 1)), 2),
        ]
        for patch in patches:
            fs = [rng.sample(xs, len(xs)) for xs in patch.factors]
            place = patch.scheme.physical_place
            assert verify.min_separation(fs, place) == all_pairs_min_separation(patch.points, place)

    @settings(max_examples=100, deadline=None)
    @given(
        firsts=st.sets(st.integers(-3, 3), min_size=1, max_size=3),
        ys=st.sets(st.integers(-6, 6), min_size=1, max_size=6),
        zs=st.sets(st.integers(-6, 6), min_size=1, max_size=6),
        scale=st.sampled_from([Fraction(1), Fraction(1, 3)]),
        rnd=st.randoms(),
    )
    def test_product_set_with_few_first_coordinates(self, firsts, ys, zs, scale, rnd):
        fs = [rnd.sample([scale * v for v in xs], len(xs)) for xs in (firsts, ys, zs)]
        pts = list(itertools.product(*fs))
        if len(pts) < 2:
            return
        assert verify.min_separation(fs, None) == all_pairs_min_separation(pts, None)


class TestCoveringRadius:
    def test_integer_patch(self):
        res = verify.covering_radius([frac_points(range(-8, 9))], None, 3)
        assert res.verdict == "FINITE"
        # the covering radius of Z is 1/2, and rational values are written exactly
        assert res.bound == Fraction(1, 2)

    def test_single_point_is_infinite(self):
        res = verify.covering_radius([[Fraction(0)]], None, 3)
        assert res.verdict == "INFINITE"

    def test_empty_patch_is_infinite(self):
        res = verify.covering_radius([[]], None, 3)
        assert res.verdict == "INFINITE"
        assert res.bound is None

    def test_fibonacci_patch_finite(self):
        patch = fib_patch(12)
        res = verify.covering_radius(patch.factors, patch.scheme.physical_place, 5, patch_radius=12)
        assert res.verdict == "FINITE"
        assert res.bound < 2

    def test_bound_is_sound_against_dense_probe(self):
        pts = frac_points(range(-8, 9))
        res = verify.covering_radius([pts], None, 3)
        rng = random.Random(11)
        for _ in range(200):
            x = Fraction(rng.randint(-3000, 3000), 1000)
            assert min(abs(x - p) for p in pts) <= res.bound

    def test_nonincreasing_under_window_inflation(self):
        scheme = cps.GaloisScheme(golden_field())
        small = cps.model_set_patch(scheme, cps.Window.box(1), 12)
        large = cps.model_set_patch(scheme, cps.Window.box(2), 12)
        place = scheme.physical_place
        r_small = verify.covering_radius(small.factors, place, 5, patch_radius=12)
        r_large = verify.covering_radius(large.factors, place, 5, patch_radius=12)
        assert r_large.bound <= r_small.bound


SQRT2 = sqrt2_field()
# small elements a + b sqrt2 of Z[sqrt2]
SQRT2_VALUES = st.tuples(st.integers(-3, 3), st.integers(-2, 2)).map(lambda ab: elem(SQRT2, ab))


class TestFactorwise:
    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 3), data=st.data())
    def test_sqrt2_products_match_all_pairs_and_the_grid(self, dim, data):
        fs = data.draw(products(SQRT2_VALUES, dim, max_factor=3))
        pts = list(itertools.product(*fs))
        scheme = cps.GaloisScheme(SQRT2, dim=dim)
        place = scheme.physical_place
        if len(pts) >= 2:
            assert verify.min_separation(fs, place) == all_pairs_min_separation(pts, place)
        mesh = Fraction(1, 4)
        bound = verify.covering_radius(fs, place, 1).bound
        grid = grid_maximum(pts, place, Fraction(1), mesh)
        assert grid - Fraction(1, 2**64) <= bound <= grid + mesh / 2 + Fraction(1, 2**64)

    def test_factors_are_sorted_by_exact_value(self):
        # the golden 1,9/8,2 patch of radius 4 is the product of its 7 x 7 x 15 factors
        patch = heis.heis_model_set(heis.HeisScheme(golden_field(), (1, Fraction(9, 8), 2)), 4)
        assert [len(xs) for xs in patch.factors] == [7, 7, 15] and len(patch.points) == 735
        assert set(itertools.product(*patch.factors)) == set(patch.points)
        # the metric layer sorts each factor by exact value itself, so the
        # enumeration order, its reverse and the sorted order agree
        place = patch.scheme.physical_place
        orders = [
            patch.factors,
            [xs[::-1] for xs in patch.factors],
            [sorted(xs, key=real_key(place)) for xs in patch.factors],
        ]
        reports = [verify.delone_certify(fs, place, 1, patch_radius=4).to_dict() for fs in orders]
        assert reports[0] == reports[1] == reports[2]

    def test_readme_heisenberg_report_is_exact(self):
        # the 2,299-point sqrt2 1,1,2 patch of radius 6, on the inner ball of radius 3
        patch = heis.heis_model_set(heis.HeisScheme(SQRT2, (1, 1, 2)), 6)
        place = patch.scheme.physical_place
        report = verify.delone_certify(patch.factors, place, 3, patch_radius=6)
        sqrt2 = SQRT2.gen()
        assert report.min_separation == written(sqrt2 - 1, place)[0]
        assert report.covering.bound == written(sqrt2 / 2, place)[1]
        assert report.is_delone


class TestGreedyCover:
    def test_identical_patches_single_identity(self):
        pts = frac_points(range(-4, 5))
        cover, _ = verify.greedy_cover(pts, pts, LINE)
        assert cover.translates == [Fraction(0)]
        assert cover.failure(pts, pts, LINE, "point") is None

    def test_integers_by_even_integers(self):
        a = frac_points(range(-4, 5))
        b = frac_points(range(-4, 5, 2))
        cover, _ = verify.greedy_cover(a, b, LINE)
        assert sorted(cover.translates) == [Fraction(0), Fraction(1)]
        assert cover.failure(a, b, LINE, "point") is None

    @pytest.mark.parametrize("translates, why", [
        ([0], "does not carry each point"),
        ([0, 1, 0], "has translate 2, which is the first to carry no point"),
        ([0, 1, 2], "has translate 2, which is the first to carry no point"),
        ([1, 0, 3], "has translate 2, which is the first to carry no point"),
    ])
    def test_a_cover_is_its_first_carrying_translates(self, translates, why):
        # the integers by the even integers: 0 carries the even points and 1
        # the odd ones; a translate after both carries no point first
        a = frac_points(range(-4, 5))
        b = frac_points(range(-6, 7, 2))
        cover = verify.GreedyCover(frac_points(translates), len(a))
        assert cover.failure(a, b, LINE, "point") == why

    def test_translate_cap_reports_witness(self):
        a = frac_points(range(0, 12))
        b = frac_points([0])
        cover, witness = verify.greedy_cover(a, b, LINE, max_translates=3)
        assert cover is None and witness is not None

    def test_fibonacci_two_windows(self):
        scheme = cps.GaloisScheme(golden_field())
        big = cps.model_set_patch(scheme, cps.Window.box(2), 10)
        small = cps.model_set_patch(scheme, cps.Window.box(1), 10)
        cover, _ = verify.greedy_cover(big.points, small.points, scheme)
        assert cover is not None
        assert cover.failure(big.points, small.points, scheme, "point") is None


def brute_force_min_cover_size(x_points, quotient_set, group, cap):
    """Smallest F' in X with X ⊂ F'·quotient_set, by exhaustive subset search."""
    xs = list(x_points)
    qs = set(quotient_set)
    for size in range(1, cap + 1):
        for combo in itertools.combinations(xs, size):
            if all(any(group.mul(group.inv(f), x) in qs for f in combo) for x in xs):
                return size
    return cap + 1


def quotient_set(y_points, group):
    ys = list(y_points)
    return {group.mul(group.inv(a), b) for a in ys for b in ys}


class TestCellCover:
    def test_single_trivial_covering(self):
        pts = frac_points(range(0, 5))
        witness = verify.cell_cover(pts, [([Fraction(0)], pts)], LINE)
        assert witness.size == 1
        assert witness.bound == 1

    def test_worked_example(self):
        x = frac_points([0, 1, 2, 3])
        y1 = frac_points([0, 1])
        f1 = frac_points([0, 2])
        witness = verify.cell_cover(x, [(f1, y1)], LINE)
        assert witness.size <= 2
        # the true minimum matches the brute-force oracle
        assert witness.size >= brute_force_min_cover_size(x, quotient_set(y1, LINE), LINE, 4)

    def test_precondition_violation_named(self):
        x = frac_points([0, 10])
        with pytest.raises(UsageError):
            verify.cell_cover(x, [([Fraction(0)], frac_points([0, 1]))], LINE)

    def test_random_small_abelian_instances(self):
        rng = random.Random(23)
        group = LINE
        for _ in range(30):
            y1 = sorted({Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(2, 4))})
            y2 = sorted({Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(2, 4))})
            f1 = sorted({Fraction(rng.randint(-12, 12)) for _ in range(rng.randint(2, 5))})
            f2 = sorted({Fraction(rng.randint(-12, 12)) for _ in range(rng.randint(2, 5))})
            x = sorted(
                {
                    group.mul(rng.choice(f1), rng.choice(y1))
                    for _ in range(rng.randint(3, 12))
                }
            )
            x = [p for p in x if any(group.mul(group.inv(f), p) in set(y2) for f in f2)]
            if not x:
                continue
            witness = verify.cell_cover(x, [(f1, y1), (f2, y2)], group)
            assert witness.size <= len(f1) * len(f2)

    def test_modular_instances(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(6, 12)
            group = IntMod(n)
            y = sorted({rng.randint(0, n - 1) for _ in range(rng.randint(2, 3))})
            f = sorted({rng.randint(0, n - 1) for _ in range(rng.randint(2, 3))})
            x = sorted({group.mul(rng.choice(f), rng.choice(y)) for _ in range(rng.randint(2, 10))})
            witness = verify.cell_cover(x, [(f, y)], group)
            assert witness.size <= len(f)
            assert witness.size >= brute_force_min_cover_size(x, quotient_set(y, group), group, len(f))


class TestApproxPowerCover:
    def test_k2_returns_f_itself(self):
        pts = frac_points(range(-6, 7))
        f = frac_points([0])
        res = approx_power_cover(pts, 2, f, LINE, 6)
        assert res.translates == f
        assert res.witness is None

    def test_integers_are_a_group(self):
        pts = frac_points(range(-10, 11))
        res = approx_power_cover(pts, 3, frac_points([0]), LINE, 10)
        assert res.witness is None
        assert res.translates == [Fraction(0)]

    def test_fibonacci_cube_bound(self):
        scheme = cps.GaloisScheme(golden_field())
        window = cps.Window.box(1)
        cert = cps.approximate_lattice_certificate(scheme, window, patch_radius=12)
        patch = cps.model_set_patch(scheme, window, 12)
        res = approx_power_cover(patch.points, 3, cert.translates, scheme, 12)
        assert res.witness is None
        assert len(res.translates) <= len(cert.translates) ** 2
        assert res.checked > 0

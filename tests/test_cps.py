import itertools
import json
import math
from decimal import ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meyerlab import cps, exactnum, verify
from meyerlab.errors import ResourceLimit, UnsupportedSubgroup, UsageError
from meyerlab.exactnum import abs_embedding_leq as _certified_abs_leq
from meyerlab.exactnum import NumberField, golden_field, sqrt2_field

# Frozen bracketing constants (verified by squaring in test_exactnum):
SQRT5_LO = Fraction(2236067977, 10**9)
SQRT5_HI = Fraction(2236067978, 10**9)
SQRT2_LO = Fraction(1414213562, 10**9)
SQRT2_HI = Fraction(1414213563, 10**9)

ROOT_BRACKETS = {
    "golden": {
        # minimal polynomial X^2 - X - 1: roots (1 +- sqrt5)/2
        1: ((1 + SQRT5_LO) / 2, (1 + SQRT5_HI) / 2),
        0: ((1 - SQRT5_HI) / 2, (1 - SQRT5_LO) / 2),
    },
    "sqrt2": {
        1: (SQRT2_LO, SQRT2_HI),
        0: (-SQRT2_HI, -SQRT2_LO),
    },
}


def brute_force_quadratic_patch(name, phys_R, int_c, span=400):
    """Independent oracle: enumerate a + b*theta by interval arithmetic on the
    frozen root brackets; raises if any candidate is not decisively in or out
    (exact rational candidates are decided exactly)."""
    phys = ROOT_BRACKETS[name][1]
    internal = ROOT_BRACKETS[name][0]
    phys_R = Fraction(phys_R)
    int_c = Fraction(int_c)
    out = []
    for b in range(-span, span + 1):
        for a in range(-span, span + 1):
            decisions = []
            for (rlo, rhi), bound in ((phys, phys_R), (internal, int_c)):
                if b == 0:
                    decisions.append(abs(Fraction(a)) <= bound)
                    continue
                vals = (a + b * rlo, a + b * rhi)
                lo, hi = min(vals), max(vals)
                if hi < -bound or lo > bound:
                    decisions.append(False)
                elif -bound <= lo and hi <= bound:
                    decisions.append(True)
                else:
                    raise AssertionError(f"oracle indecisive at a={a}, b={b}")
            if all(decisions):
                out.append((a, b))
    return sorted(out)


def _surd_sign(u, v, d):
    """Sign of u + v*sqrt(d) for integers u, v and a non-square d > 0."""
    if u >= 0 and v >= 0:
        return int(u > 0 or v > 0)
    if u <= 0 and v <= 0:
        return -1
    return (1 if u > 0 else -1) * (1 if u * u > v * v * d else -1)


def full_box_window_elements(field, physical_place, internal_place, R, c):
    """Reference: every (a, b) of the whole coefficient box, decided in integers.

    The box is the one `enumerate_window_elements` derives from its 96-bit
    places; returns (sorted (a, b) pairs with |sigma(a + b*theta)| within both
    bounds, number of candidates in the box)."""
    R, c = Fraction(R), Fraction(c)
    (lo1, hi1), (lo2, hi2) = physical_place.refined(96), internal_place.refined(96)
    gap_lo = max(lo2 - hi1, lo1 - hi2)
    t1_abs = max(abs(lo1), abs(hi1))
    t2_abs = max(abs(lo2), abs(hi2))
    b_max = math.floor((R + c) / gap_lo)
    a_max = math.floor((R * t2_abs + c * t1_abs) / gap_lo)
    m0, m1, _ = field.min_poly  # theta = (-m1 +- sqrt(disc)) / 2, roots ascending
    disc = m1 * m1 - 4 * m0

    def inside(a, b, place, bound):
        # 2d * sigma(a + b*theta) = d*(2a - b*m1) +- d*b*sqrt(disc), bound = n/d
        n, d = bound.numerator, bound.denominator
        u, v = d * (2 * a - b * m1), (1 if place.root_index else -1) * d * b
        return _surd_sign(u - 2 * n, v, disc) <= 0 and _surd_sign(u + 2 * n, v, disc) >= 0

    found = [
        (a, b)
        for b in range(-b_max, b_max + 1)
        for a in range(-a_max, a_max + 1)
        if inside(a, b, internal_place, c) and inside(a, b, physical_place, R)
    ]
    return sorted(found), (2 * a_max + 1) * (2 * b_max + 1)


def patch_coeffs(patch):
    return sorted((int(p[0].coeffs[0]), int(p[0].coeffs[1])) for p in patch.points)


class TestZSPatches:
    @pytest.mark.parametrize("primes", [(2,), (3,), (2, 3)])
    @pytest.mark.parametrize("k", [0, 1, 2])
    @pytest.mark.parametrize("radius", [3, 10])
    def test_equals_scaled_integers(self, primes, k, radius):
        scheme = cps.ZSScheme(primes)
        window = cps.Window.balls(*((p, k) for p in primes))
        patch = cps.model_set_patch(scheme, window, radius)
        step = Fraction(1)
        for p in primes:
            step /= Fraction(p) ** k
        expected = sorted(n * step for n in range(-math.floor(radius / step), math.floor(radius / step) + 1))
        assert list(patch.points) == expected

    def test_z2_level0_radius3(self):
        scheme = cps.ZSScheme([2])
        patch = cps.model_set_patch(scheme, cps.Window.balls((2, 0)), 3)
        assert list(patch.points) == [-3, -2, -1, 0, 1, 2, 3]

    def test_z2_level1_radius1(self):
        scheme = cps.ZSScheme([2])
        patch = cps.model_set_patch(scheme, cps.Window.balls((2, 1)), 1)
        assert list(patch.points) == [Fraction(-1), Fraction(-1, 2), 0, Fraction(1, 2), 1]

    def test_symmetry(self):
        scheme = cps.ZSScheme([2, 3])
        patch = cps.model_set_patch(scheme, cps.Window.balls((2, 1), (3, 1)), 5)
        pts = set(patch.points)
        assert pts == {-q for q in pts}

    @pytest.mark.parametrize("levels", [(1, -1, 0), (2, 1, -1), (-1, 0, 2)])
    def test_matches_brute_force_over_s_denominators(self, levels):
        # every q = m / (2^a 3^b 5^c) in the ball, each exponent up to one past its
        # level, kept exactly when v_p(q) >= -k at each ball (p, k)
        primes, radius = (2, 3, 5), Fraction(7, 2)
        balls = tuple(zip(primes, levels))
        expected = set()
        for exps in itertools.product(*(range(max(k, 0) + 2) for k in levels)):
            den = math.prod(p**e for p, e in zip(primes, exps))
            bound = math.floor(radius * den)
            for m in range(-bound, bound + 1):
                q = Fraction(m, den)
                if all(exactnum.padic_valuation(q, p) >= -k for p, k in balls):
                    expected.add(q)
        patch = cps.model_set_patch(cps.ZSScheme(primes), cps.Window.balls(*balls), radius)
        assert len(expected) > 1 and list(patch.points) == sorted(expected)

    def test_resource_guard(self):
        scheme = cps.ZSScheme([2])
        with pytest.raises(ResourceLimit):
            cps.model_set_patch(scheme, cps.Window.balls((2, 3)), 10**9)


class TestGaloisPatches:
    def test_fibonacci_patch_radius4_frozen(self):
        # hand-checkable: {0, ±1, ±theta, ±(1+theta)}
        scheme = cps.GaloisScheme(golden_field())
        patch = cps.model_set_patch(scheme, cps.Window.box(1), 4)
        assert patch_coeffs(patch) == sorted(
            [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
        )

    @pytest.mark.parametrize("name,field_fn", [("golden", golden_field), ("sqrt2", sqrt2_field)])
    @pytest.mark.parametrize("radius", [5, 10])
    def test_matches_brute_force_oracle(self, name, field_fn, radius):
        scheme = cps.GaloisScheme(field_fn())
        patch = cps.model_set_patch(scheme, cps.Window.box(1), radius)
        expected = brute_force_quadratic_patch(name, radius, 1, span=radius + 3)
        assert patch_coeffs(patch) == expected

    def test_boundary_points_included(self):
        # sigma_2(±1) = ±1 sits exactly on the closed window edge
        scheme = cps.GaloisScheme(golden_field())
        patch = cps.model_set_patch(scheme, cps.Window.box(1), 2)
        coords = patch_coeffs(patch)
        assert (1, 0) in coords and (-1, 0) in coords

    def test_window_monotonicity(self):
        scheme = cps.GaloisScheme(golden_field())
        small = cps.model_set_patch(scheme, cps.Window.box(Fraction(1, 2)), 10)
        large = cps.model_set_patch(scheme, cps.Window.box(2), 10)
        assert set(small.points) <= set(large.points)

    def test_symmetry(self):
        scheme = cps.GaloisScheme(sqrt2_field())
        patch = cps.model_set_patch(scheme, cps.Window.box(1), 10)
        pts = set(patch.points)
        assert pts == {tuple(-x for x in p) for p in pts}

    def test_two_dimensional_patch_is_product(self):
        scheme1 = cps.GaloisScheme(golden_field(), dim=1)
        scheme2 = cps.GaloisScheme(golden_field(), dim=2)
        p1 = cps.model_set_patch(scheme1, cps.Window.box(1), 5)
        p2 = cps.model_set_patch(scheme2, cps.Window.box(1, 1), 5)
        singles = {p[0] for p in p1.points}
        assert {(a, b) for a, b in p2.points} == {(a, b) for a in singles for b in singles}

    def test_patch_roundtrip_through_dict(self):
        scheme = cps.GaloisScheme(golden_field())
        patch = cps.model_set_patch(scheme, cps.Window.box(1), 6)
        data = json.loads(json.dumps(patch.to_dict()))
        scheme_again, window, radius = cps.patch_inputs(data)
        again = scheme_again.model_set(window, radius)
        assert again.to_dict() == data == patch.to_dict()
        assert again.radius == patch.radius


def _small_fraction(top):
    return st.integers(1, 4).flatmap(
        lambda d: st.integers(0, top * d).map(lambda n: Fraction(n, d))
    )


class TestRowWiseEnumeration:
    # X^2 + X - 3 (disc 13) has the other sign of c1 than golden's X^2 - X - 1
    FIELDS = {"golden": golden_field, "sqrt2": sqrt2_field, "disc13": lambda: NumberField([-3, 1, 1])}

    def _places(self, name, root_index):
        scheme = cps.GaloisScheme(self.FIELDS[name](), physical_root_index=root_index)
        return scheme.field, scheme.physical_place, scheme.internal_place

    @settings(max_examples=12, deadline=None)
    @given(
        name=st.sampled_from(sorted(FIELDS)),
        root_index=st.sampled_from([0, 1]),
        R=_small_fraction(400),
        c=_small_fraction(40),
    )
    @example(name="golden", root_index=1, R=Fraction(400), c=Fraction(1))
    @example(name="sqrt2", root_index=1, R=Fraction(10), c=Fraction(40))
    @example(name="sqrt2", root_index=0, R=Fraction(7, 2), c=Fraction(3))
    @example(name="golden", root_index=0, R=Fraction(0), c=Fraction(0))
    def test_matches_full_box_reference(self, name, root_index, R, c):
        field, phys, internal = self._places(name, root_index)
        got = cps.enumerate_window_elements(field, phys, internal, R, c)
        expected, _ = full_box_window_elements(field, phys, internal, R, c)
        assert [tuple(int(v) for v in x.coeffs) for x in got] == expected

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.integers(-10**12, 10**12),
        q=st.integers(-10**12, 10**12),
        d=st.sampled_from([2, 3, 5, 13]),
        s=st.integers(1, 10**6),
    )
    @example(p=7, q=0, d=5, s=2)
    @example(p=-7, q=0, d=5, s=2)
    def test_floor_surd_matches_decimal(self, p, q, d, s):
        with localcontext() as ctx:
            ctx.prec = 80
            value = (p + q * Decimal(d).sqrt()) / s
            expected = int(value.to_integral_value(rounding=ROUND_FLOOR))
        assert exactnum.floor_surd(p, q, d, s) == expected

    @pytest.mark.parametrize("name", ["golden", "sqrt2", "disc13"])
    @pytest.mark.parametrize("root_index", [0, 1])
    def test_boundary_and_negative_rows(self, name, root_index):
        # integral c puts a = +-c, b = 0 exactly on the window edge, and the
        # patch is symmetric, so rows with negative b hold half the points
        field, phys, internal = self._places(name, root_index)
        got = [tuple(int(v) for v in x.coeffs) for x in
               cps.enumerate_window_elements(field, phys, internal, 30, 3)]
        assert (3, 0) in got and (-3, 0) in got
        assert sum(1 for _, b in got if b < 0) == sum(1 for _, b in got if b > 0) > 0
        assert got == full_box_window_elements(field, phys, internal, 30, 3)[0]

    @pytest.mark.parametrize("name", ["golden", "sqrt2"])
    def test_resource_limit_at_the_same_box_count(self, name, monkeypatch):
        field, phys, internal = self._places(name, 1)
        expected, count = full_box_window_elements(field, phys, internal, 50, 2)
        monkeypatch.setattr(cps, "DEFAULT_CANDIDATE_LIMIT", count)
        got = cps.enumerate_window_elements(field, phys, internal, 50, 2)
        assert [tuple(int(v) for v in x.coeffs) for x in got] == expected
        monkeypatch.setattr(cps, "DEFAULT_CANDIDATE_LIMIT", count - 1)
        # the message states the limit, not the count, which can have too many digits to print
        with pytest.raises(ResourceLimit, match=f"more than the limit of {count - 1} candidates"):
            cps.enumerate_window_elements(field, phys, internal, 50, 2)


class TestWindowAlgebra:
    def test_boxes_add(self):
        w = cps.window_product(cps.Window.box(1), cps.Window.box(1))
        assert w.real_halfwidths == (Fraction(2),)

    def test_padic_balls_take_coarser_level(self):
        w1 = cps.Window.balls((2, 1))
        assert cps.window_product(w1, w1).padic_balls == ((2, 1),)
        w2 = cps.Window.balls((2, 0))
        assert cps.window_product(w1, w2).padic_balls == ((2, 1),)
        w3 = cps.Window.balls((2, -1))
        assert cps.window_product(w2, w3).padic_balls == ((2, 0),)

    def test_shape_mismatch(self):
        with pytest.raises(UsageError):
            cps.window_product(cps.Window.box(1), cps.Window.box(1, 1))

    def test_nonpositive_halfwidth_rejected(self):
        with pytest.raises(UsageError):
            cps.Window.box(0)


CHAIN_FAILURE = "is not a chain of lattice tiles over its target"


class TestGlobalCovering:
    def test_index_two_cosets(self):
        scheme = cps.ZSScheme([2])
        cert = cps.global_covering_certificate(
            scheme, cps.Window.balls((2, 0)), cps.Window.balls((2, -1))
        )
        assert cert.translates == [Fraction(0), Fraction(1)]
        ok, why = cert.replay()
        assert ok, why

    def test_equal_windows_single_translate(self):
        scheme = cps.ZSScheme([2])
        w = cps.Window.balls((2, 1))
        cert = cps.global_covering_certificate(scheme, w, w)
        assert cert.translates == [Fraction(0)]
        ok, why = cert.replay()
        assert ok, why

    def test_two_primes_coset_count(self):
        scheme = cps.ZSScheme([2, 3])
        cert = cps.global_covering_certificate(
            scheme, cps.Window.balls((2, 1), (3, 1)), cps.Window.balls((2, 0), (3, 0))
        )
        assert len(cert.translates) == 6
        ok, why = cert.replay()
        assert ok, why

    def test_galois_two_to_one_cover(self):
        scheme = cps.GaloisScheme(golden_field())
        cert = cps.global_covering_certificate(scheme, cps.Window.box(2), cps.Window.box(1))
        assert 1 <= len(cert.translates) <= 5
        ok, why = cert.replay()
        assert ok, why

    def test_galois_cover_matches_independent_greedy_bound(self):
        # independent 1D bound: [-2,2] needs at least ceil(4/2) = 2 unit tiles
        scheme = cps.GaloisScheme(sqrt2_field())
        cert = cps.global_covering_certificate(scheme, cps.Window.box(2), cps.Window.box(1))
        assert 2 <= len(cert.translates) <= 5

    def test_replay_from_serialized_data_alone(self):
        scheme = cps.GaloisScheme(golden_field())
        cert = cps.global_covering_certificate(scheme, cps.Window.box(2), cps.Window.box(1))
        data = json.loads(json.dumps(cert.to_dict()))
        again = cps.GlobalCoverCertificate.from_dict(data)
        ok, why = again.replay()
        assert ok, why
        assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
            cert.to_dict(), sort_keys=True
        )

    def test_certificates_are_canonical_across_cache_warmth(self):
        # values derived from embeddings must not depend on how deeply the
        # root intervals were refined earlier in the session
        import meyerlab.exactnum as en

        cold_scheme = cps.GaloisScheme(en.NumberField([-1, -1, 1]))
        cold = cps.global_covering_certificate(cold_scheme, cps.Window.box(2), cps.Window.box(1))
        cold_blob = json.dumps(cold.to_dict(), sort_keys=True)

        warm_field = en.NumberField([-1, -1, 1])
        for root in warm_field.real_roots():
            root.refined(2048)  # deep refinement before any certificate work
        warm_scheme = cps.GaloisScheme(warm_field)
        warm = cps.global_covering_certificate(warm_scheme, cps.Window.box(2), cps.Window.box(1))
        warm_blob = json.dumps(warm.to_dict(), sort_keys=True)
        assert cold_blob == warm_blob

        cold_patch = cps.model_set_patch(cold_scheme, cps.Window.box(1), 10)
        warm_patch = cps.model_set_patch(warm_scheme, cps.Window.box(1), 10)
        r1 = verify.delone_certify(cold_patch.factors, cold_scheme.physical_place, 5, patch_radius=10)
        r2 = verify.delone_certify(warm_patch.factors, warm_scheme.physical_place, 5, patch_radius=10)
        assert json.dumps(r1.to_dict(), sort_keys=True) == json.dumps(r2.to_dict(), sort_keys=True)

    def test_tampered_certificate_fails_replay(self):
        scheme = cps.GaloisScheme(golden_field())
        cert = cps.global_covering_certificate(scheme, cps.Window.box(2), cps.Window.box(1))
        data = cert.to_dict()
        data["dim_covers"][0]["elements"] = data["dim_covers"][0]["elements"][:1]
        ok, why = cps.GlobalCoverCertificate.from_dict(data).replay()
        assert not ok, why

    def test_translates_off_the_lattice_fail_replay(self):
        # tiles around +-1/2, +-3/2 cover [-2, 2], but no such t is in Z[theta]
        scheme = cps.GaloisScheme(golden_field())
        cert = cps.global_covering_certificate(scheme, cps.Window.box(2), cps.Window.box(1))
        data = cert.to_dict()
        ts = [Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]
        data["dim_covers"][0]["elements"] = [[str(t), "0"] for t in ts]
        ok, why = cps.GlobalCoverCertificate.from_dict(data).replay()
        assert not ok, why
        # the chain itself is sound: scaled by 2 onto Z it covers [-4, 4] by 2-tiles
        doubled = tuple(scheme.field.from_rational(2 * t) for t in ts)
        assert cps.DimCover(doubled, 2, -4, 4).failure(scheme.internal_place, 4, 2) is None

    def test_claimed_tile_without_translate_fails_replay(self):
        # the last tile the chain needs is swapped for one far away
        scheme = cps.GaloisScheme(golden_field())
        cert = cps.global_covering_certificate(scheme, cps.Window.box(2), cps.Window.box(1))
        data = cert.to_dict()
        dim = data["dim_covers"][0]
        dim["elements"] = dim["elements"][:-1] + [["100", "0"]]
        ok, why = cps.GlobalCoverCertificate.from_dict(data).replay()
        assert not ok, why

    def test_dropping_an_interior_translate_fails_replay(self):
        scheme = cps.GaloisScheme(golden_field())
        cover = cps.cover_dimension(
            scheme.field, scheme.physical_place, scheme.internal_place, 5, 1
        )
        assert len(cover.elements) >= 3 and cover.failure(scheme.internal_place, 5, 1) is None
        for i in range(1, len(cover.elements) - 1):
            gapped = cover.elements[:i] + cover.elements[i + 1:]
            gapped_cover = cps.DimCover(gapped, 1, -5, 5)
            assert gapped_cover.failure(scheme.internal_place, 5, 1) == CHAIN_FAILURE

    def test_rational_tiles_touching_at_one_point_cover(self):
        # tiles [-3, -1], [-1, 1], [1, 3]: each pair of neighbours shares one point
        field = golden_field()
        place = cps.GaloisScheme(field).internal_place
        ts = tuple(field.from_rational(t) for t in (-2, 0, 2))
        assert cps.DimCover(ts, 1, -3, 3).failure(place, 3, 1) is None
        # a target one hair longer at either end is not covered
        hair = Fraction(1, 2**100)
        assert cps.DimCover(ts, 1, -3 - hair, 3).failure(place, 3, 1) == CHAIN_FAILURE
        assert cps.DimCover(ts, 1, -3, 3 + hair).failure(place, 3, 1) == CHAIN_FAILURE
        # tiles one hair narrower leave gaps between neighbours, though the ends still reach
        narrow = cps.DimCover(ts, 1 - hair, -3 + hair, 3 - hair)
        assert narrow.failure(place, 3 - hair, 1 - hair) == CHAIN_FAILURE

    @pytest.mark.parametrize("radius", [5, 10, 20])
    def test_cover_implies_patch_inclusion(self, radius):
        # global claim checked at patch level: Lambda(W1) ⊂ F + Lambda(W2)
        scheme = cps.GaloisScheme(golden_field())
        w1, w2 = cps.Window.box(2), cps.Window.box(1)
        cert = cps.global_covering_certificate(scheme, w1, w2)
        big = cps.model_set_patch(scheme, w1, radius)
        small = set(cps.model_set_patch(scheme, w2, radius + 4).points)
        translates = cert.translates
        for x in big.points:
            assert any((x[0] - t[0],) in small for t in translates)


class TestApproximateLattice:
    def test_zs_integers_trivial(self):
        scheme = cps.ZSScheme([2])
        cert = cps.approximate_lattice_certificate(scheme, cps.Window.balls((2, 0)), patch_radius=10)
        assert cert.translates == [Fraction(0)]
        assert cert.delone.is_delone

    @pytest.mark.parametrize("field_fn", [golden_field, sqrt2_field])
    def test_quadratic_schemes(self, field_fn):
        scheme = cps.GaloisScheme(field_fn())
        cert = cps.approximate_lattice_certificate(scheme, cps.Window.box(1), patch_radius=20)
        assert len(cert.translates) <= 8
        assert cert.delone.min_separation > 0
        assert cert.delone.covering.verdict == "FINITE"
        ok, why = cert.cover.replay()
        assert ok, why


class TestIntersectionProjection:
    def test_first_axis_of_2d_scheme(self):
        scheme = cps.GaloisScheme(golden_field(), dim=2)
        res = cps.intersect_with_subgroup(scheme, [0], cps.Window.box(1, 1), 8)
        assert res.induced_scheme.dim == 1
        assert res.cover_to_induced is not None and res.cover_from_induced is not None
        group = res.induced_scheme
        a_in = verify.points_within(res.intersection_points, group, 4)
        b_in = verify.points_within(res.induced_patch.points, group, 4)
        assert res.cover_to_induced.failure(
            a_in, res.induced_patch.points, group, "point"
        ) is None
        assert res.cover_from_induced.failure(
            b_in, res.intersection_points, group, "point"
        ) is None

    def test_whole_space_is_identity(self):
        scheme = cps.GaloisScheme(golden_field(), dim=2)
        res = cps.intersect_with_subgroup(scheme, [0, 1], cps.Window.box(1, 1), 6)
        patch = cps.model_set_patch(scheme, cps.Window.box(1, 1), 6)
        assert res.induced_scheme.dim == 2
        zero = (golden_field().zero(), golden_field().zero())
        assert zero in res.intersection_points
        # N = G: the intersection is the whole sumset restricted to the ball
        group = res.induced_scheme
        sums = {
            group.mul(p, q)
            for p in patch.points
            for q in patch.points
        }
        expected = sorted(
            (s for s in sums if all(_certified_abs_leq(x, scheme.physical_place, 6) for x in s)),
            key=group.sort_key,
        )
        assert set(res.intersection_points) == set(expected)

    def test_cover_search_failure_reports_progress(self, monkeypatch):
        scheme = cps.GaloisScheme(golden_field())
        from meyerlab.errors import CoverSearchFailed
        monkeypatch.setattr(cps, "DEFAULT_SEARCH_CAP_DOUBLINGS", 0)
        with pytest.raises(CoverSearchFailed):
            cps.cover_dimension(
                scheme.field,
                scheme.physical_place,
                scheme.internal_place,
                2,
                1,
            )

    def test_projection_to_second_axis(self):
        scheme = cps.GaloisScheme(golden_field(), dim=2)
        res = cps.project_to_quotient(scheme, [0], cps.Window.box(1, 1), 8)
        patch1d = cps.model_set_patch(cps.GaloisScheme(golden_field()), cps.Window.box(1), 8)
        assert [p[0] for p in res.projected_points] == [p[0] for p in patch1d.points]
        assert res.projection_min_separation > 0
        assert res.equivalence_consistent

    def test_trivial_subgroup_projection_is_original(self):
        scheme = cps.GaloisScheme(golden_field(), dim=2)
        res = cps.project_to_quotient(scheme, [], cps.Window.box(1, 1), 6)
        patch = cps.model_set_patch(scheme, cps.Window.box(1, 1), 6)
        assert res.projected_points == list(patch.points)

    def test_irrational_slope_rejected(self):
        scheme = cps.GaloisScheme(golden_field(), dim=2)
        theta = golden_field().gen()
        one = golden_field().one()
        with pytest.raises(UnsupportedSubgroup):
            cps.intersect_with_subgroup(scheme, [(one, theta)], cps.Window.box(1, 1), 6)

    def test_rational_nonaligned_slope_rejected(self):
        scheme = cps.GaloisScheme(golden_field(), dim=2)
        with pytest.raises(UnsupportedSubgroup):
            cps.intersect_with_subgroup(scheme, [(1, 1)], cps.Window.box(1, 1), 6)

    def test_zs_subgroup_unsupported(self):
        with pytest.raises(UnsupportedSubgroup):
            cps.intersect_with_subgroup(cps.ZSScheme([2]), [0], cps.Window.balls((2, 0)), 5)

    def test_zs_projection_keeps_exactness(self):
        # projecting the ZS {2,3} scheme along the trivial subgroup re-enumerates exactly
        scheme = cps.ZSScheme([2, 3])
        window = cps.Window.balls((2, 1), (3, 0))
        p1 = cps.model_set_patch(scheme, window, 7)
        p2 = cps.model_set_patch(scheme, window, 7)
        assert p1.points == p2.points

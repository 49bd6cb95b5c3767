import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from meyerlab import cps, heis, serialize, verify
from meyerlab.errors import UsageError
from meyerlab.exactnum import golden_field, sqrt2_field, str_frac
from oracles import (
    bch2,
    candidate_kappas,
    commutator,
    commutator_map,
    heis_exp,
    heis_identity,
    heis_log,
    heis_point,
    window_contains_internal,
)


@pytest.fixture(scope="module")
def f2():
    return sqrt2_field()


def pt(field, x, y, z):
    return heis_point(field, x, y, z)


def rand_point(field, rng, span=8):
    vals = [Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(3)]
    return pt(field, *vals)


def box_axes(halfwidths, mesh):
    """Per-axis values of a grid of step at most mesh over the box of these half-widths."""
    axes = []
    for h in halfwidths:
        if h == 0:
            axes.append([Fraction(0)])
            continue
        steps = max(1, math.ceil(h / mesh))
        step = Fraction(h) / steps
        axes.append([k * step for k in range(-steps, steps + 1)])
    return axes


def rand_algebra(field, rng, span=8):
    vals = [Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(3)]
    return pt(field, *vals)


class TestGroupLaw:
    def test_noncommutativity_witness(self, f2):
        a, b = pt(f2, 1, 0, 0), pt(f2, 0, 1, 0)
        assert heis.heis_mul(a, b) == pt(f2, 1, 1, 1)
        assert heis.heis_mul(b, a) == pt(f2, 1, 1, 0)

    def test_inverse(self, f2):
        rng = random.Random(3)
        e = heis_identity(f2)
        for _ in range(50):
            p = rand_point(f2, rng)
            assert heis.heis_mul(p, heis.heis_inv(p)) == e
            assert heis.heis_mul(heis.heis_inv(p), p) == e

    def test_associativity_random_triples(self, f2):
        rng = random.Random(4)
        for _ in range(60):
            p, q, r = (rand_point(f2, rng) for _ in range(3))
            assert heis.heis_mul(heis.heis_mul(p, q), r) == heis.heis_mul(p, heis.heis_mul(q, r))

    def test_commutator_of_generators(self, f2):
        c = commutator(pt(f2, 1, 0, 0), pt(f2, 0, 1, 0))
        assert c == pt(f2, 0, 0, 1)

    def test_center_commutes(self, f2):
        center = pt(f2, 0, 0, Fraction(7, 2))
        for g in (pt(f2, 1, 0, 0), pt(f2, 0, 1, 0), pt(f2, 2, 3, 1)):
            assert heis.heis_mul(center, g) == heis.heis_mul(g, center)

    def test_field_mismatch(self, f2):
        with pytest.raises(UsageError):
            heis.heis_mul(pt(f2, 1, 0, 0), pt(golden_field(), 1, 0, 0))


def test_value_classes_compare_hash_and_print_by_fields(f2):
    p = pt(f2, 1, Fraction(-1, 2), 0)
    assert p == pt(f2, 1, Fraction(-1, 2), 0) and p != pt(f2, 1, Fraction(-1, 2), 1)
    assert len({p, pt(f2, 1, Fraction(-1, 2), 0)}) == 1

    w = cps.Window.box(1, Fraction(7, 8))
    assert w == cps.Window((Fraction(1), Fraction(7, 8))) and w != cps.Window.box(1, 1)
    assert hash(w) == hash((w.real_halfwidths, w.padic_balls))
    assert w != (w.real_halfwidths, w.padic_balls)
    assert repr(w) == "Window(real_halfwidths=(Fraction(1, 1), Fraction(7, 8)), padic_balls=())"
    assert repr(cps.Window.balls((2, 0))) == "Window(real_halfwidths=(), padic_balls=((2, 0),))"
    for bad, message in (((), "at least one component"), ((0,), "must be positive")):
        with pytest.raises(UsageError, match=message):
            cps.Window.box(*bad)
    with pytest.raises(UsageError, match="not prime"):
        cps.Window.balls((4, 0))


class TestExpLogBch:
    def test_central_direction(self, f2):
        v = pt(f2, 0, 0, Fraction(5, 3))
        assert heis_exp(v) == pt(f2, 0, 0, Fraction(5, 3))

    def test_exp_formula(self, f2):
        assert heis_exp(pt(f2, 1, 1, 0)) == pt(f2, 1, 1, Fraction(1, 2))

    def test_log_exp_roundtrip(self, f2):
        rng = random.Random(5)
        for _ in range(200):
            v = rand_algebra(f2, rng)
            assert heis_log(heis_exp(v)) == v
            p = rand_point(f2, rng)
            assert heis_exp(heis_log(p)) == p

    def test_bch_inverse_pair(self, f2):
        v = pt(f2, 2, Fraction(1, 3), 1)
        w = bch2(v, tuple(-c for c in v))
        assert all(c.is_zero for c in w)

    def test_bch_generators(self, f2):
        w = bch2(pt(f2, 1, 0, 0), pt(f2, 0, 1, 0))
        assert w == (f2.one(), f2.one(), f2.from_rational(Fraction(1, 2)))

    def test_bch_matches_group_product(self, f2):
        rng = random.Random(6)
        for _ in range(200):
            u, v = rand_algebra(f2, rng), rand_algebra(f2, rng)
            lhs = heis_exp(bch2(u, v))
            rhs = heis.heis_mul(heis_exp(u), heis_exp(v))
            assert lhs == rhs


class TestModelSet:
    def test_contains_identity_and_small_integers(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 1))
        patch = heis.heis_model_set(scheme, 2)
        assert heis_identity(f2) in set(patch.points)
        assert pt(f2, 1, 0, 0) in set(patch.points)

    def test_shadow_equals_abelian_2d_patch(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        patch = heis.heis_model_set(scheme, 5)
        shadow = sorted(
            {p[:2] for p in patch.points},
            key=lambda t: t[0].coeffs + t[1].coeffs,
        )
        abelian = cps.model_set_patch(cps.GaloisScheme(f2, dim=2), cps.Window.box(1, 1), 5)
        assert shadow == list(abelian.points)

    def test_negation_closure_with_inflated_z_window(self, f2):
        cx, cy, cz = Fraction(1), Fraction(1), Fraction(2)
        scheme = heis.HeisScheme(f2, (cx, cy, cz))
        inflated = heis.HeisScheme(f2, (cx, cy, cz + cx * cy))
        patch = heis.heis_model_set(scheme, 4)
        for p in patch.points:
            assert window_contains_internal(inflated, heis.heis_inv(p))

    def test_symmetrize_gives_inverse_closed_set(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        patch = heis.heis_model_set(scheme, 4)
        sym = heis.symmetrize(patch.points)
        s = set(sym)
        assert s and all(heis.heis_inv(p) in s for p in sym)

    def test_patch_roundtrip(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        patch = heis.heis_model_set(scheme, 3)
        data = json.loads(json.dumps(patch.to_dict()))
        scheme_again, window, radius = cps.patch_inputs(data)
        again = scheme_again.model_set(window, radius)
        assert again.to_dict() == data == patch.to_dict()


class TestCoveringCertificate:
    def test_product_window_arithmetic(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 1))
        assert scheme.product_window() == (2, 2, 3)

    def test_sqrt2_certificate_replays(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        cert = heis.heis_covering_certificate(scheme)
        ok, why = cert.replay()
        assert ok, why
        assert len(cert.translates) >= 1

    def test_certificate_roundtrip_bytes(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        cert = heis.heis_covering_certificate(scheme)
        blob = json.dumps(cert.to_dict(), sort_keys=True)
        again = cps.GlobalCoverCertificate.from_dict(json.loads(blob))
        ok, why = again.replay()
        assert ok, why
        assert json.dumps(again.to_dict(), sort_keys=True) == blob

    def test_tampered_window_target_fails_replay(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        cert = heis.heis_covering_certificate(scheme)
        data = cert.to_dict()
        data["dim_covers"][0]["target"] = ["-1", "1"]  # claims less than the product window needs
        ok, why = cps.GlobalCoverCertificate.from_dict(data).replay()
        assert not ok, why

    def test_too_small_z_target_fails_replay(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        cert = heis.heis_covering_certificate(scheme)
        data = cert.to_dict()
        # the product window's z half-width without the shear term M * c_y
        wz = scheme.product_window()[2]
        data["dim_covers"][2]["target"] = [str(-wz), str(wz)]
        ok, why = cps.GlobalCoverCertificate.from_dict(data).replay()
        assert not ok, why

    def test_off_lattice_z_translate_fails_replay(self, f2):
        cert = heis.heis_covering_certificate(heis.HeisScheme(f2, (1, 1, 2)))
        data = cert.to_dict()
        # shift one z translate by 2^-40, far too little to open a gap in the chain
        z = data["dim_covers"][2]
        z["elements"][0][0] = str(Fraction(z["elements"][0][0]) + Fraction(1, 2**40))
        ok, why = cps.GlobalCoverCertificate.from_dict(data).replay()
        assert not ok, why

    @pytest.mark.parametrize("window", [(1, 1, 2), (1, Fraction(9, 8), 2), (Fraction(7, 8), 1, 1)])
    def test_every_box_grid_point_has_a_translate(self, f2, window):
        # the replay's argument, checked pointwise: for w on a grid over the
        # product box, exact comparisons find t with t^-1 w in W
        scheme = heis.HeisScheme(f2, window)
        cert = heis.heis_covering_certificate(scheme)
        cx, cy, cz = scheme.window
        place = scheme.internal_place
        fits = heis.abs_embedding_leq
        for w1, w2, w3 in itertools.product(*box_axes(scheme.product_window(), Fraction(1, 2))):
            w1, w2, w3 = (f2.from_rational(v) for v in (w1, w2, w3))
            assert any(
                fits(w3 - t3 - t1 * (w2 - t2), place, cz)
                for t1 in cert.dim_covers[0].elements if fits(w1 - t1, place, cx)
                for t2 in cert.dim_covers[1].elements if fits(w2 - t2, place, cy)
                for t3 in cert.dim_covers[2].elements
            )

    @pytest.mark.parametrize("field, w1, w2", [
        (sqrt2_field, (Fraction(3, 2), 1, Fraction(5, 2)), (Fraction(1, 2), Fraction(3, 4), 1)),
        (golden_field, (0, 2, 3), (0, 1, Fraction(3, 2))),
    ])
    def test_every_grid_point_of_w1_has_a_translate_into_w2(self, field, w1, w2):
        # a cover between windows that are neither box(W * W) nor W: for w on
        # a grid over W1, exact comparisons find t with t^-1 w in W2
        scheme = heis.HeisScheme(field(), (1, 1, 2))
        w1, w2 = (cps.Window(tuple(map(Fraction, w))) for w in (w1, w2))
        cert = cps.global_covering_certificate(scheme, w1, w2)
        ok, why = cert.replay()
        assert ok, why
        cx, cy, cz = w2.real_halfwidths
        place = scheme.internal_place
        fits = heis.abs_embedding_leq
        for v1, v2, v3 in itertools.product(*box_axes(w1.real_halfwidths, Fraction(1, 2))):
            v1, v2, v3 = (scheme.field.from_rational(v) for v in (v1, v2, v3))
            assert any(
                fits(v3 - t3 - t1 * (v2 - t2), place, cz)
                for t1 in cert.dim_covers[0].elements if fits(v1 - t1, place, cx)
                for t2 in cert.dim_covers[1].elements if fits(v2 - t2, place, cy)
                for t3 in cert.dim_covers[2].elements
            )

    def test_degenerate_central_window_reduces_to_1d(self, f2):
        scheme = heis.HeisScheme(f2, (0, 0, 1))
        cert = heis.heis_covering_certificate(scheme)
        assert list(cert.dim_covers[0].elements) == [f2.zero()]
        assert list(cert.dim_covers[1].elements) == [f2.zero()]
        assert cert.dim_covers[2].target_hi == 2
        ok, why = cert.replay()
        assert ok, why

    def test_cover_is_sound_on_lattice_products(self, f2):
        # global claim checked against actual patch products
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        cert = heis.heis_covering_certificate(scheme)
        patch = heis.heis_model_set(scheme, 3)
        pts = list(patch.points)[::7]
        translates = cert.translates
        rng = random.Random(8)
        for _ in range(40):
            g, h = rng.choice(pts), rng.choice(pts)
            prod = heis.heis_mul(g, h)
            assert any(
                window_contains_internal(scheme, heis.heis_mul(heis.heis_inv(t), prod))
                for t in translates
            )


class TestCenterIntersection:
    @pytest.mark.parametrize("radius", [6, 10])
    def test_sqrt2_center_patch_positive_gap(self, f2, radius):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        res = heis.center_intersection(scheme, radius)
        assert res.conclusive
        assert res.report.min_separation > 0
        assert res.report.covering.verdict == "FINITE"
        assert any(z.is_zero for z in res.z_values)

    def test_central_products_formula(self, f2):
        g = pt(f2, 2, 1, 3)
        d = pt(f2, -2, -1, 5)
        prod = heis.heis_mul(g, d)
        assert prod[0].is_zero and prod[1].is_zero
        assert prod[2] == f2.from_rational(3 + 5) - f2.from_rational(2) * 1

    def test_window_only_central_scheme(self, f2):
        scheme = heis.HeisScheme(f2, (0, 0, 1))
        res = heis.center_intersection(scheme, 6)
        model = cps.enumerate_window_elements(
            f2, scheme.physical_place, scheme.internal_place, 6, 1
        )
        assert set(model) <= set(res.z_values)


class TestCommutatorMap:
    def test_central_xi_trivial(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 1))
        patch = heis.heis_model_set(scheme, 2)
        homomorphism_exact, trivial, _ = commutator_map(pt(f2, 0, 0, 5), patch)
        assert trivial
        assert homomorphism_exact

    def test_generator_pair(self, f2):
        assert commutator(pt(f2, 1, 0, 0), pt(f2, 0, 1, 0)) == pt(f2, 0, 0, 1)

    def test_homomorphism_identity_on_patch(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 1))
        patch = heis.heis_model_set(scheme, 2)
        xi = pt(f2, 1, 0, 0)
        homomorphism_exact, trivial, report = commutator_map(xi, patch)
        assert homomorphism_exact
        assert not trivial
        assert report is not None and report.min_separation > 0

    def test_image_matches_closed_form(self, f2):
        rng = random.Random(10)
        for _ in range(40):
            xi, u = rand_point(f2, rng), rand_point(f2, rng)
            c = commutator(xi, u)
            assert c[0].is_zero and c[1].is_zero
            assert c[2] == xi[0] * u[1] - xi[1] * u[0]


def integer_axis_patch(field, radius, axis=0):
    """The integers -R..R on one axis, as a patch with its factors; it is no
    model set, so it is built by hand."""
    factors = [[field.zero()] for _ in range(3)]
    factors[axis] = [field.from_rational(n) for n in range(-radius, radius + 1)]
    scheme = heis.HeisScheme(field, (1, 1, 1))
    pts = tuple(sorted(itertools.product(*factors), key=scheme.sort_key))
    return cps.Patch(scheme, None, Fraction(radius), pts, factors)


def hull_scheme(field, window):
    f = golden_field() if field == "golden" else sqrt2_field()
    return heis.HeisScheme(f, [Fraction(c) for c in window])


def oracle_kappas(patch):
    return candidate_kappas(patch.factors, patch.radius, patch.scheme.physical_place)


# half-widths of the window grid: c_x and c_y may be 0, c_z may not
GRID_XY = (0, Fraction(1, 4), 1)
GRID_Z = (Fraction(1, 4), 1, 2)
HULL_GRID = [
    (field, (cx, cy, cz))
    for field in ("sqrt2", "golden")
    for cx in GRID_XY
    for cy in GRID_XY
    for cz in GRID_Z
]


def positive_axes_span(window):
    names = {(0, 1, 2): "full", (0, 2): "x-center", (1, 2): "y-center", (2,): "center"}
    return names[tuple(k for k, c in enumerate(window) if c > 0)]


class TestSchreiberHull:
    def test_full_model_set_needs_full_group(self, f2):
        # R2 < 2 R1, which the growth search refused: the hull needs no growth
        scheme = heis.HeisScheme(f2, (1, 1, 1))
        small = heis.heis_model_set(scheme, 4)
        large = heis.heis_model_set(scheme, 5)
        subgroup, k1, k2 = heis.schreiber_hull(scheme, 4, 5)
        assert subgroup == "full"
        assert (k1, k2) == (oracle_kappas(small)["full"], oracle_kappas(large)["full"])

    @pytest.mark.parametrize("field, window, radii, subgroup", [
        # the README tour's hull
        ("sqrt2", (1, 1, 1), (3, 6), "full"),
        # the benchmark's hull windows, each way round, and its replay corpus;
        # at radii 1 and 2 the growth search chose `center` for the last two
        ("golden", ("7/8", "9/8", 2), ("3/2", 3), "full"),
        ("golden", ("9/8", "7/8", 2), ("3/2", 3), "full"),
        ("sqrt2", (1, "9/8", 2), ("3/2", 3), "full"),
        ("sqrt2", ("9/8", 1, 2), ("3/2", 3), "full"),
        ("sqrt2", (1, "9/8", 2), (1, 2), "full"),
        ("sqrt2", ("9/8", 1, 2), (1, 2), "full"),
    ])
    def test_chosen_subgroups_are_pinned(self, field, window, radii, subgroup):
        scheme = hull_scheme(field, window)
        small, large = (heis.heis_model_set(scheme, Fraction(r)) for r in radii)
        assert heis.schreiber_hull(scheme, *radii) == (
            subgroup, oracle_kappas(small)[subgroup], oracle_kappas(large)[subgroup]
        )

    def test_readme_hull_needs_the_allowance(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 1))
        _, k1, k2 = heis.schreiber_hull(scheme, 3, 6)
        # exact kappas 1/2 and sqrt2/2; the second is written as its 2^-64 ceiling
        assert k1 == Fraction(1, 2)
        assert (k2 - Fraction(1, 2**64)) ** 2 < Fraction(1, 2) < k2**2
        # kappa grows by more than a factor of 11/10 here, so a growth test by
        # a factor alone calls the README hull unstable
        assert k2 > Fraction(11, 10) * k1

    @pytest.mark.parametrize("field, window", HULL_GRID)
    def test_hull_is_the_span_of_the_positive_axes(self, field, window):
        scheme = hull_scheme(field, window)
        data = serialize.hull_summary(scheme, 1, 2)
        subgroup = positive_axes_span(window)
        assert data["subgroup"] == subgroup
        assert [str_frac(data[k]) for k in ("kappa_small", "kappa_large")] == [
            oracle_kappas(heis.heis_model_set(scheme, r))[subgroup] for r in (1, 2)
        ]

    def test_window_hull_is_the_only_small_candidate_at_scale(self):
        # at R = 48 the distance to a subgroup that misses an axis of U_W is
        # about R, and from a subgroup with an extra axis (whose factor is {0})
        # R/2; only U_W's kappa stays below R/4 on every window of the grid
        radius = Fraction(48)
        factors = {}
        for field, window in HULL_GRID:
            scheme = hull_scheme(field, window)
            phys = scheme.physical_place
            for c in scheme.window:
                if (field, c) not in factors:
                    factors[field, c] = cps.enumerate_window_elements(
                        scheme.field, phys, scheme.internal_place, radius, c
                    )
            kappas = candidate_kappas([factors[field, c] for c in scheme.window], radius, phys)
            small = [name for name, kappa in kappas.items() if kappa < radius / 4]
            assert small == [positive_axes_span(window)], (field, window, kappas)


class TestMeyerCommensurability:
    def test_identical_patches(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        patch = heis.heis_model_set(scheme, 6)
        group = patch.scheme
        res = heis.meyer_commensurability(patch.points, patch.points, group, 3)
        assert res.verdict == "COMMENSURABLE-AT-SCALE"
        assert res.cover_ab.translates == [heis_identity(f2)]
        assert res.cover_ba.translates == [heis_identity(f2)]

    def test_integer_vs_even_axis_patches(self, f2):
        a = integer_axis_patch(f2, 8)
        b_pts = tuple(p for p in a.points if p[0].coeffs[0] % 2 == 0)
        group = a.scheme
        res = heis.meyer_commensurability(a.points, b_pts, group, 4)
        assert res.verdict == "COMMENSURABLE-AT-SCALE"
        xs = sorted(t[0].coeffs[0] for t in res.cover_ab.translates)
        assert xs == [0, 1]
        assert [t[0].coeffs[0] for t in res.cover_ba.translates] == [0]

    def test_symmetrized_lattice_vs_model_set(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        patch = heis.heis_model_set(scheme, 6)
        sym = heis.symmetrize(patch.points)
        group = patch.scheme
        res = heis.meyer_commensurability(sym, patch.points, group, 3)
        assert res.verdict == "COMMENSURABLE-AT-SCALE"
        assert res.cover_ab.failure(
            verify.points_within(sym, group, 3), patch.points, group, "point"
        ) is None
        assert res.cover_ba.failure(
            verify.points_within(patch.points, group, 3), sym, group, "point"
        ) is None

    def test_translate_cap_gives_negative_verdict(self, f2):
        a = integer_axis_patch(f2, 10)
        b = (heis_identity(f2),)
        group = a.scheme
        res = heis.meyer_commensurability(a.points, b, group, 8, max_translates=2)
        assert res.verdict == "NOT-COMMENSURABLE-AT-SCALE"
        assert res.witness is not None


class TestDilation:
    """The coordinate dilation (x, y, z) -> (ux, vy, uvz) by units u, v of O_K
    maps H3(O_K) onto itself."""

    @staticmethod
    def dilation(u, v):
        return lambda p: (u * p[0], v * p[1], u * v * p[2])

    def test_unit_dilation_commensurates(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        patch = heis.heis_model_set(scheme, 6)
        unit = f2.one() + f2.gen()  # 1 + sqrt2, norm -1
        alpha = self.dilation(unit, unit)
        group = patch.scheme
        image = sorted((alpha(p) for p in patch.points), key=scheme.sort_key)
        res = heis.meyer_commensurability(image, patch.points, group, 3)
        assert res.verdict == "COMMENSURABLE-AT-SCALE"

    def test_dilation_is_homomorphism(self, f2):
        unit = f2.one() + f2.gen()
        alpha = self.dilation(unit, unit)
        rng = random.Random(12)
        for _ in range(30):
            p, q = rand_point(f2, rng), rand_point(f2, rng)
            assert alpha(heis.heis_mul(p, q)) == heis.heis_mul(alpha(p), alpha(q))

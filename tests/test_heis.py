import json
import random
from fractions import Fraction

import pytest

from meyerlab import cps, heis
from meyerlab.errors import UsageError
from meyerlab.exactnum import golden_field, sqrt2_field


@pytest.fixture(scope="module")
def f2():
    return sqrt2_field()


def pt(field, x, y, z):
    return heis.point(field, x, y, z)


def rand_point(field, rng, span=8):
    vals = [Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(3)]
    return pt(field, *vals)


def rand_algebra(field, rng, span=8):
    vals = [Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(3)]
    return heis.algebra_elem(field, *vals)


class TestGroupLaw:
    def test_noncommutativity_witness(self, f2):
        a, b = pt(f2, 1, 0, 0), pt(f2, 0, 1, 0)
        assert heis.heis_mul(a, b) == pt(f2, 1, 1, 1)
        assert heis.heis_mul(b, a) == pt(f2, 1, 1, 0)

    def test_inverse(self, f2):
        rng = random.Random(3)
        e = heis.heis_identity(f2)
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
        c = heis.commutator(pt(f2, 1, 0, 0), pt(f2, 0, 1, 0))
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
    assert hash(p) == hash((p.x, p.y, p.z)) and len({p, pt(f2, 1, Fraction(-1, 2), 0)}) == 1
    assert p != (p.x, p.y, p.z)
    assert repr(p) == ("HeisPoint(x=NFElem(['1', '0']), y=NFElem(['-1/2', '0']), "
                       "z=NFElem(['0', '0']))")
    with pytest.raises(UsageError, match="different fields"):
        heis.HeisPoint(f2.one(), f2.one(), golden_field().one())

    v = heis.algebra_elem(f2, 0, 1, Fraction(2, 3))
    assert v == heis.algebra_elem(f2, 0, 1, Fraction(2, 3)) and v != heis.algebra_elem(f2, 0, 1, 0)
    assert hash(v) == hash((v.a, v.b, v.c))
    assert repr(v) == ("HeisAlgebraElem(a=NFElem(['0', '0']), b=NFElem(['1', '0']), "
                       "c=NFElem(['2/3', '0']))")

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
        v = heis.algebra_elem(f2, 0, 0, Fraction(5, 3))
        assert heis.heis_exp(v) == pt(f2, 0, 0, Fraction(5, 3))

    def test_exp_formula(self, f2):
        assert heis.heis_exp(heis.algebra_elem(f2, 1, 1, 0)) == pt(f2, 1, 1, Fraction(1, 2))

    def test_log_exp_roundtrip(self, f2):
        rng = random.Random(5)
        for _ in range(200):
            v = rand_algebra(f2, rng)
            w = heis.heis_log(heis.heis_exp(v))
            assert (w.a, w.b, w.c) == (v.a, v.b, v.c)
            p = rand_point(f2, rng)
            assert heis.heis_exp(heis.heis_log(p)) == p

    def test_bch_inverse_pair(self, f2):
        v = heis.algebra_elem(f2, 2, Fraction(1, 3), 1)
        w = heis.bch2(v, -v)
        assert w.a.is_zero and w.b.is_zero and w.c.is_zero

    def test_bch_generators(self, f2):
        w = heis.bch2(heis.algebra_elem(f2, 1, 0, 0), heis.algebra_elem(f2, 0, 1, 0))
        assert (w.a, w.b, w.c) == (f2.one(), f2.one(), f2.from_rational(Fraction(1, 2)))

    def test_bch_matches_group_product(self, f2):
        rng = random.Random(6)
        for _ in range(200):
            u, v = rand_algebra(f2, rng), rand_algebra(f2, rng)
            lhs = heis.heis_exp(heis.bch2(u, v))
            rhs = heis.heis_mul(heis.heis_exp(u), heis.heis_exp(v))
            assert lhs == rhs


class TestModelSet:
    def test_contains_identity_and_small_integers(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 1))
        patch = heis.heis_model_set(scheme, 2)
        assert heis.heis_identity(f2) in set(patch.points)
        assert pt(f2, 1, 0, 0) in set(patch.points)

    def test_shadow_equals_abelian_2d_patch(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        patch = heis.heis_model_set(scheme, 5)
        shadow = sorted(
            {(p.x, p.y) for p in patch.points},
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
            assert inflated.window_contains_internal(heis.heis_inv(p))

    def test_symmetrize_gives_inverse_closed_set(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        patch = heis.heis_model_set(scheme, 4)
        sym = heis.symmetrize(patch.points)
        s = set(sym)
        assert s and all(heis.heis_inv(p) in s for p in sym)

    def test_patch_roundtrip(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        patch = heis.heis_model_set(scheme, 3)
        again = cps.Patch.from_dict(json.loads(json.dumps(patch.to_dict())))
        assert again.points == patch.points


class TestCoveringCertificate:
    def test_product_window_arithmetic(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 1))
        assert scheme.product_window() == (2, 2, 3)

    def test_sqrt2_certificate_replays(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        cert = heis.heis_covering_certificate(scheme)
        assert cert.replay()
        assert len(cert.translates) >= 1

    def test_certificate_roundtrip_bytes(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        cert = heis.heis_covering_certificate(scheme)
        blob = json.dumps(cert.to_dict(), sort_keys=True)
        again = heis.HeisCoverCertificate.from_dict(json.loads(blob))
        assert again.replay()
        assert json.dumps(again.to_dict(), sort_keys=True) == blob

    def test_tampered_window_target_fails_replay(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        cert = heis.heis_covering_certificate(scheme)
        data = cert.to_dict()
        data["x_cover"]["target"] = ["-1", "1"]  # claims less than the product window needs
        assert not heis.HeisCoverCertificate.from_dict(data).replay()

    def test_too_small_shear_bound_fails_replay(self, f2):
        cert = heis.heis_covering_certificate(heis.HeisScheme(f2, (1, 1, 2)))
        assert cert.shear_bound > 0
        data = cert.to_dict()
        data["shear_bound"] = str(cert.shear_bound / 2)
        assert not heis.HeisCoverCertificate.from_dict(data).replay()

    def test_too_small_z_target_fails_replay(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        cert = heis.heis_covering_certificate(scheme)
        data = cert.to_dict()
        # the product window's z half-width without the shear term M * c_y
        wz = scheme.product_window()[2]
        data["z_cover"]["target"] = [str(-wz), str(wz)]
        assert not heis.HeisCoverCertificate.from_dict(data).replay()

    def test_off_lattice_z_translate_fails_replay(self, f2):
        cert = heis.heis_covering_certificate(heis.HeisScheme(f2, (1, 1, 2)))
        data = cert.to_dict()
        # shift one z translate by 1/2 and its tile with it, so the tiles still cover
        z = data["z_cover"]
        z["elements"][0][0] = str(Fraction(z["elements"][0][0]) + Fraction(1, 2))
        z["claimed"][0] = [str(Fraction(v) + Fraction(1, 2)) for v in z["claimed"][0]]
        assert not heis.HeisCoverCertificate.from_dict(data).replay()

    @pytest.mark.parametrize("window", [(1, 1, 2), (1, Fraction(9, 8), 2), (Fraction(7, 8), 1, 1)])
    def test_every_box_grid_point_has_a_translate(self, f2, window):
        # the replay's argument, checked pointwise: for w on a grid over the
        # product box, exact comparisons find t with t^-1 w in W
        scheme = heis.HeisScheme(f2, window)
        cert = heis.heis_covering_certificate(scheme)
        cx, cy, cz = scheme.window
        place = scheme.internal_place
        fits = heis.abs_embedding_leq
        for w1, w2, w3 in heis._box_grid(scheme.product_window(), Fraction(1, 2)):
            w1, w2, w3 = (f2.from_rational(v) for v in (w1, w2, w3))
            assert any(
                fits(w3 - t3 - t1 * (w2 - t2), place, cz)
                for t1 in cert.x_cover.elements if fits(w1 - t1, place, cx)
                for t2 in cert.y_cover.elements if fits(w2 - t2, place, cy)
                for t3 in cert.z_cover.elements
            )

    def test_degenerate_central_window_reduces_to_1d(self, f2):
        scheme = heis.HeisScheme(f2, (0, 0, 1))
        cert = heis.heis_covering_certificate(scheme)
        assert list(cert.x_cover.elements) == [f2.zero()]
        assert list(cert.y_cover.elements) == [f2.zero()]
        assert cert.shear_bound == 0
        assert cert.replay()

    def test_cover_is_sound_on_lattice_products(self, f2):
        # global claim checked against actual patch products
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        cert = heis.heis_covering_certificate(scheme)
        patch = heis.heis_model_set(scheme, 3)
        pts = list(patch.points)[::7]
        translates = cert.translates
        patch_window = scheme.window_contains_internal
        rng = random.Random(8)
        for _ in range(40):
            g, h = rng.choice(pts), rng.choice(pts)
            prod = heis.heis_mul(g, h)
            assert any(
                patch_window(heis.heis_mul(heis.heis_inv(t), prod)) for t in translates
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
        assert prod.x.is_zero and prod.y.is_zero
        assert prod.z == f2.from_rational(3 + 5) - f2.from_rational(2) * 1

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
        res = heis.commutator_map(pt(f2, 0, 0, 5), patch)
        assert res.trivial
        assert res.homomorphism_exact

    def test_generator_pair(self, f2):
        assert heis.commutator(pt(f2, 1, 0, 0), pt(f2, 0, 1, 0)) == pt(f2, 0, 0, 1)

    def test_homomorphism_identity_on_patch(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 1))
        patch = heis.heis_model_set(scheme, 2)
        xi = pt(f2, 1, 0, 0)
        res = heis.commutator_map(xi, patch)
        assert res.homomorphism_exact
        assert not res.trivial
        assert res.report is not None and res.report.min_separation > 0

    def test_image_matches_closed_form(self, f2):
        rng = random.Random(10)
        for _ in range(40):
            xi, u = rand_point(f2, rng), rand_point(f2, rng)
            c = heis.commutator(xi, u)
            assert c.x.is_zero and c.y.is_zero
            assert c.z == xi.x * u.y - xi.y * u.x


def integer_axis_patch(field, radius, axis=0):
    pts = []
    zero = field.zero()
    for n in range(-radius, radius + 1):
        coords = [zero, zero, zero]
        coords[axis] = field.from_rational(n)
        pts.append(heis.HeisPoint(*coords))
    scheme = heis.HeisScheme(field, (1, 1, 1))
    return cps.Patch(scheme, None, Fraction(radius), tuple(sorted(pts, key=lambda p: p.sort_key())))


class TestSchreiberHull:
    def test_integer_x_axis_patch(self, f2):
        small = integer_axis_patch(f2, 6)
        large = integer_axis_patch(f2, 12)
        report = heis.schreiber_hull(small, large)
        assert report.aligned
        assert report.subgroup == "x-axis"
        assert report.kappa_large <= 2

    def test_full_model_set_needs_full_group(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 1))
        small = heis.heis_model_set(scheme, 3)
        large = heis.heis_model_set(scheme, 6)
        report = heis.schreiber_hull(small, large)
        assert report.aligned
        assert report.subgroup == "full"

    def test_radius_precondition(self, f2):
        small = integer_axis_patch(f2, 6)
        with pytest.raises(UsageError):
            heis.schreiber_hull(small, integer_axis_patch(f2, 8))


class TestMeyerCommensurability:
    def test_identical_patches(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        patch = heis.heis_model_set(scheme, 6)
        ops = patch.group_ops()
        res = heis.meyer_commensurability(patch.points, patch.points, ops, 3)
        assert res.verdict == "COMMENSURABLE-AT-SCALE"
        assert res.cover_ab.translates == [heis.heis_identity(f2)]
        assert res.cover_ba.translates == [heis.heis_identity(f2)]

    def test_integer_vs_even_axis_patches(self, f2):
        a = integer_axis_patch(f2, 8)
        b_pts = tuple(p for p in a.points if p.x.coeffs[0] % 2 == 0)
        ops = a.group_ops()
        res = heis.meyer_commensurability(a.points, b_pts, ops, 4)
        assert res.verdict == "COMMENSURABLE-AT-SCALE"
        xs = sorted(t.x.coeffs[0] for t in res.cover_ab.translates)
        assert xs == [0, 1]
        assert [t.x.coeffs[0] for t in res.cover_ba.translates] == [0]

    def test_symmetrized_lattice_vs_model_set(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        patch = heis.heis_model_set(scheme, 6)
        sym = heis.symmetrize(patch.points)
        ops = patch.group_ops()
        res = heis.meyer_commensurability(sym, patch.points, ops, 3)
        assert res.verdict == "COMMENSURABLE-AT-SCALE"
        assert res.cover_ab.replay(patch.points, ops)
        assert res.cover_ba.replay(sym, ops)

    def test_translate_cap_gives_negative_verdict(self, f2):
        a = integer_axis_patch(f2, 10)
        b = (heis.heis_identity(f2),)
        ops = a.group_ops()
        res = heis.meyer_commensurability(a.points, b, ops, 8, max_translates=2)
        assert res.verdict == "NOT-COMMENSURABLE-AT-SCALE"
        assert res.witness is not None


class TestDilation:
    def test_unit_dilation_commensurates(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        patch = heis.heis_model_set(scheme, 6)
        unit = f2.one() + f2.gen()  # 1 + sqrt2, norm -1
        alpha = heis.dilation_automorphism(scheme, unit, unit)
        ops = patch.group_ops()
        image = sorted((alpha(p) for p in patch.points), key=lambda p: p.sort_key())
        res = heis.meyer_commensurability(image, patch.points, ops, 3)
        assert res.verdict == "COMMENSURABLE-AT-SCALE"

    def test_dilation_is_homomorphism(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        unit = f2.one() + f2.gen()
        alpha = heis.dilation_automorphism(scheme, unit, unit)
        rng = random.Random(12)
        for _ in range(30):
            p, q = rand_point(f2, rng), rand_point(f2, rng)
            assert alpha(heis.heis_mul(p, q)) == heis.heis_mul(alpha(p), alpha(q))

    def test_non_unit_rejected(self, f2):
        scheme = heis.HeisScheme(f2, (1, 1, 2))
        with pytest.raises(UsageError):
            heis.dilation_automorphism(scheme, f2.from_rational(2), f2.one())

import json
import random
from fractions import Fraction

import pytest

from meyerlab import cps, places, serialize
from meyerlab.errors import UsageError
from meyerlab.exactnum import golden_field, sqrt2_field
from oracles import elem, poly_apply, product_formula


@pytest.fixture
def golden_ring():
    # S = the golden real place (index 1, the larger root)
    return places.ring_pvs(golden_field(), 1)


@pytest.fixture
def sqrt2_ring():
    return places.ring_pvs(sqrt2_field(), 1)


class TestMembership:
    def test_three_halves_in_z2(self):
        ring = places.ring_zs([2])
        x = Fraction(3, 2)
        assert places.s_integer_membership(x, ring).is_member
        assert serialize.replay(places.pvs_certify_set([0, x, -x], ring).to_dict())[0]

    def test_one_third_rejected_from_z2_with_witness(self):
        ring = places.ring_zs([2])
        result = places.s_integer_membership(Fraction(1, 3), ring)
        assert not result.is_member
        assert result.witness_place.prime == 3

    def test_half_not_integer(self):
        ring = places.ring_of_integers()
        result = places.s_integer_membership(Fraction(1, 2), ring)
        assert not result.is_member
        assert result.witness_place.prime == 2

    def test_archimedean_violation_when_infinity_outside_s(self):
        ring = places.SIntegerRing(places.RATIONAL_FIELD, [places.Place.finite(2)])
        result = places.s_integer_membership(Fraction(3, 2), ring)
        assert not result.is_member
        assert result.witness_place.kind == "arch"

    def test_golden_ratio_is_pvs(self, golden_ring):
        cert = places.s_integer_membership(golden_field().gen(), golden_ring)
        assert cert.is_member
        # membership replays through the set {0, x, -x} that holds it
        x = golden_field().gen()
        assert serialize.replay(places.pvs_certify_set([0, x, -x], golden_ring).to_dict())[0]

    def test_one_plus_sqrt2_is_pvs(self, sqrt2_ring):
        field = sqrt2_field()
        x = field.one() + field.gen()
        cert = places.s_integer_membership(x, sqrt2_ring)
        assert cert.is_member

    def test_non_integral_quadratic_rejected(self, golden_ring):
        x = elem(golden_field(), [Fraction(1, 2), 0])
        result = places.s_integer_membership(x, golden_ring)
        assert not result.is_member
        assert result.witness_place.prime == 2

    def test_large_conjugate_rejected(self, golden_ring):
        # 2 - theta has conjugate 2 - (1-sqrt5)/2 = (3+sqrt5)/2 > 1
        x = golden_field().from_rational(2) - golden_field().gen()
        result = places.s_integer_membership(x, golden_ring)
        assert not result.is_member
        assert result.witness_place.kind == "arch"

    def test_certificate_roundtrip(self, golden_ring):
        x = golden_field().gen() ** 3
        assert places.s_integer_membership(x, golden_ring).is_member
        cert = places.pvs_certify_set([0, x, -x], golden_ring)
        data = json.loads(json.dumps(cert.to_dict()))
        assert serialize.replay(data)[0]

    def test_zs_membership_matches_denominator_support(self):
        ring = places.ring_zs([2, 3])
        rng = random.Random(9)
        for _ in range(60):
            q = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            result = places.s_integer_membership(q, ring)
            expected = all(p in (2, 3) for p in places.prime_factors(q.denominator))
            assert result.is_member == expected

    def test_finite_place_needs_rational_field(self):
        with pytest.raises(UsageError):
            places.SIntegerRing(golden_field(), [places.Place.finite(2)])


class TestClosure:
    def test_multiplicative_closure_on_patch_pairs(self, golden_ring):
        scheme = cps.GaloisScheme(golden_field())
        patch = cps.model_set_patch(scheme, cps.Window.box(1), 6)
        members = [p[0] for p in patch.points]
        rng = random.Random(13)
        for _ in range(25):
            x, y = rng.choice(members), rng.choice(members)
            assert places.s_integer_membership(x * y, golden_ring).is_member

    def test_additive_closure_in_zs(self):
        # Z_S is an honest ring; the quadratic single-place sets are only
        # approximately additive (1 + 1 = 2 already escapes the unit window)
        ring = places.ring_zs([2, 5])
        rng = random.Random(17)
        pool = [Fraction(rng.randint(-40, 40), 2 ** rng.randint(0, 3) * 5 ** rng.randint(0, 2)) for _ in range(40)]
        for _ in range(40):
            x, y = rng.choice(pool), rng.choice(pool)
            assert places.s_integer_membership(x + y, ring).is_member
            assert places.s_integer_membership(x * y, ring).is_member

    def test_quadratic_sum_escapes_window(self, golden_ring):
        one = golden_field().one()
        result = places.s_integer_membership(one + one, golden_ring)
        assert not result.is_member


class TestProductFormula:
    def test_three_halves(self):
        report = product_formula(Fraction(3, 2))
        assert report.exact_product == 1
        assert report.holds
        assert ("p:2", Fraction(2)) in report.contributions
        assert ("p:3", Fraction(1, 3)) in report.contributions

    def test_ten(self):
        report = product_formula(10)
        assert report.exact_product == 1
        assert report.holds

    def test_golden_unit(self):
        report = product_formula(golden_field().gen())
        assert report.norm_abs == 1
        assert report.holds

    def test_random_rationals_exact(self):
        rng = random.Random(21)
        for _ in range(20):
            q = Fraction(rng.randint(-300, 300) or 7, rng.randint(1, 300))
            report = product_formula(q)
            assert report.exact_product == 1
            assert report.holds

    def test_unit_pair_obstruction(self):
        # x and 1/x both certified members forces prod over S of |x|_v = 1
        ring = places.ring_zs([2, 3])
        x = Fraction(2, 3)
        assert places.s_integer_membership(x, ring).is_member
        assert places.s_integer_membership(1 / x, ring).is_member
        prod = abs(x)
        for p in ring.s_primes:
            prod *= Fraction(p) ** (-places.padic_valuation(x, p))
        assert prod == 1

    def test_unit_pair_obstruction_quadratic(self, golden_ring):
        # in a single-place quadratic ring, x and 1/x both members forces x = ±1
        field = golden_field()
        both = []
        scheme = cps.GaloisScheme(field)
        for p in cps.model_set_patch(scheme, cps.Window.box(1), 4).points:
            x = p[0]
            if x.is_zero:
                continue
            if (
                places.s_integer_membership(x, golden_ring).is_member
                and places.s_integer_membership(x ** -1, golden_ring).is_member
            ):
                both.append(x)
        assert sorted(b.coeffs for b in both) == [((Fraction(-1), Fraction(0))), ((Fraction(1), Fraction(0)))]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            product_formula(0)


def oracle_greedy_cover_size(bound, tile=1):
    """Independent minimal-ish greedy bound: unit tiles on [-B, B] spaced 2*tile."""
    import math

    if bound <= tile:
        return 1
    return math.ceil((2 * float(bound)) / (2 * float(tile)))


class TestPolynomialTranslateCover:
    def test_squares_of_integers(self):
        ring = places.ring_of_integers()
        cert = places.polynomial_translate_cover([0, 0, 1], ring)  # X^2
        assert [t.coeffs[0] for t in cert.translates] == [0]
        ok, why = cert.replay()
        assert ok, why

    @pytest.mark.parametrize("ring, message", [
        (places.SIntegerRing(places.RATIONAL_FIELD, [places.Place.finite(2)]),
         "a translate cover over Q needs the real place in S"),
        (places.SIntegerRing(golden_field(), [places.Place.archimedean(golden_field(), i)
                                              for i in (0, 1)]),
         "a translate cover over a quadratic field needs S = one real place"),
    ])
    def test_one_ring_rule_for_the_builder_and_replay(self, ring, message):
        # the builder refuses the ring, and replay fails a file over it, with one reason
        with pytest.raises(UsageError, match=message):
            places.polynomial_translate_cover([0, Fraction(1, 3)], ring)
        base = places.ring_zs([2]) if ring.field.degree == 1 else places.ring_pvs(ring.field, 1)
        data = places.polynomial_translate_cover([0, Fraction(1, 3)], base).to_dict()
        data["ring"] = ring.to_dict()
        assert places.TranslateCoverCertificate.from_dict(data).replay() == (False, message)

    def test_constant_polynomial(self, golden_ring):
        q = elem(golden_field(), [Fraction(5, 3), Fraction(1, 2)])
        cert = places.polynomial_translate_cover([q], golden_ring)
        assert cert.translates == [q]
        ok, why = cert.replay()
        assert ok, why

    def test_doubling_map_over_golden(self, golden_ring):
        cert = places.polynomial_translate_cover([0, 2], golden_ring, window_scale=1)
        bound = cert.frame()[3]
        assert bound == 2 or (Fraction(2) <= bound <= Fraction(201, 100))
        size = len(cert.translates)
        oracle = oracle_greedy_cover_size(2)
        assert size <= 2 * oracle and oracle <= 2 * size
        ok, why = cert.replay()
        assert ok, why

    def test_rational_coset_translates(self):
        ring = places.ring_zs([2])
        # P(X) = X/3 over Z_{2}: denominators 3 stay, so three cosets
        cert = places.polynomial_translate_cover([0, Fraction(1, 3)], ring)
        assert cert.frame()[1] == 3
        assert len(cert.translates) == 3
        ok, why = cert.replay()
        assert ok, why

    def test_s_prime_denominators_absorbed(self):
        ring = places.ring_zs([2])
        cert = places.polynomial_translate_cover([0, Fraction(1, 4)], ring)
        assert cert.frame()[1] == 1

    def test_fractional_coefficients_use_cosets(self, golden_ring):
        cert = places.polynomial_translate_cover(
            [Fraction(1, 3), Fraction(1, 2)], golden_ring, window_scale=1
        )
        _, m, reps, _ = cert.frame()
        assert m == 2
        assert len(list(reps)) == 4
        ok, why = cert.replay()
        assert ok, why

    def test_tampered_target_fails_replay(self, golden_ring):
        cert = places.polynomial_translate_cover([0, 2], golden_ring, window_scale=1)
        data = cert.to_dict()
        data["coset_covers"][0]["target"] = ["-1/2", "1/2"]
        data["coset_covers"][0]["elements"] = [["0", "0"]]
        ok, why = places.TranslateCoverCertificate.from_dict(data).replay()
        assert not ok, why

    @pytest.mark.parametrize("poly", [[0, 0, 1], [0, 2], [0, 1, 3], [Fraction(1, 3), Fraction(1, 2)]])
    def test_translate_cover_is_pointwise_sound(self, golden_ring, poly):
        # every image point of the window patch is covered by some translate
        field = golden_field()
        scheme = cps.GaloisScheme(field)
        patch = cps.model_set_patch(scheme, cps.Window.box(1), 8)
        cert = places.polynomial_translate_cover(poly, golden_ring, window_scale=1)
        translates = cert.translates
        internal = field.real_roots()[0]
        coeffs = places._coerce_poly(field, poly)
        for p in patch.points:
            y = poly_apply(coeffs, p[0])
            ok = False
            for t in translates:
                d = y - t
                if not d.is_rational and (
                    d.trace().denominator != 1 or d.norm().denominator != 1
                ):
                    continue
                if d.is_rational and d.coeffs[0].denominator != 1:
                    continue
                if places.abs_embedding_leq(d, internal, 1):
                    ok = True
                    break
            assert ok, f"uncovered image point for {poly}"

    def test_certificate_roundtrip(self, golden_ring):
        cert = places.polynomial_translate_cover([0, 2], golden_ring)
        data = json.loads(json.dumps(cert.to_dict()))
        again = places.TranslateCoverCertificate.from_dict(data)
        ok, why = again.replay()
        assert ok, why


class TestPvsCertifySet:
    def test_golden_powers_certified(self, golden_ring):
        theta = golden_field().gen()
        zero = golden_field().zero()
        powers = [theta**k for k in range(4)]
        elems = [zero] + powers + [-x for x in powers]
        cert = places.pvs_certify_set(elems, golden_ring)
        assert cert.certified
        assert all(places.s_integer_membership(e, golden_ring).is_member for e in cert.elements)
        assert not cert.flagged_products

    def test_half_rejected_with_witness(self):
        ring = places.ring_of_integers()
        cert = places.pvs_certify_set([0, Fraction(1, 2), Fraction(-1, 2)], ring)
        assert not cert.certified
        assert cert.witness_place.prime == 2

    def test_zero_alone_vacuous(self):
        ring = places.ring_of_integers()
        cert = places.pvs_certify_set([0], ring)
        assert cert.certified
        assert cert.closed_pairs >= 1  # 0 * 0 = 0 stays in the set

    def test_asymmetric_set_rejected(self, golden_ring):
        theta = golden_field().gen()
        with pytest.raises(UsageError):
            places.pvs_certify_set([golden_field().zero(), theta], golden_ring)

    def test_missing_zero_rejected(self, golden_ring):
        theta = golden_field().gen()
        with pytest.raises(UsageError):
            places.pvs_certify_set([theta, -theta], golden_ring)

    def test_products_out_of_patch_are_not_failures(self, golden_ring):
        theta = golden_field().gen()
        zero = golden_field().zero()
        elems = [zero, theta**3, -(theta**3), golden_field().one(), -golden_field().one()]
        cert = places.pvs_certify_set(elems, golden_ring)
        assert cert.certified
        assert cert.out_of_patch_pairs > 0  # theta^6 escapes the stated bound

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meyerlab import exactnum as en
from meyerlab.errors import UsageError
from oracles import elem

# Frozen bracketing constants, verified by squaring (independent of the library):
#   2.236067977 < sqrt(5) < 2.236067978
#   1.414213562 < sqrt(2) < 1.414213563
SQRT5_LO = Fraction(2236067977, 10**9)
SQRT5_HI = Fraction(2236067978, 10**9)
SQRT2_LO = Fraction(1414213562, 10**9)
SQRT2_HI = Fraction(1414213563, 10**9)
PHI_LO = (1 + SQRT5_LO) / 2
PHI_HI = (1 + SQRT5_HI) / 2
PHI_CONJ_LO = (1 - SQRT5_HI) / 2
PHI_CONJ_HI = (1 - SQRT5_LO) / 2


def test_frozen_bracket_constants_are_correct():
    assert SQRT5_LO**2 < 5 < SQRT5_HI**2
    assert SQRT2_LO**2 < 2 < SQRT2_HI**2


@pytest.fixture
def golden():
    return en.golden_field()


@pytest.fixture
def sqrt2():
    return en.sqrt2_field()


def random_elem(field, rng, span=10):
    coeffs = [Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(field.degree)]
    return elem(field, coeffs)


class TestNumberField:
    def test_rejects_non_monic(self):
        with pytest.raises(UsageError):
            en.NumberField([1, 2])

    def test_rejects_reducible_quadratic(self):
        with pytest.raises(UsageError):
            en.NumberField([-1, 0, 1])  # X^2 - 1

    def test_rejects_reducible_cubic_with_root(self):
        with pytest.raises(UsageError):
            en.NumberField([0, -1, 0, 1])  # X^3 - X

    def test_rejects_quartic_splitting_into_quadratics(self):
        # (X^2-2)(X^2-3) = X^4 -5X^2 + 6 has no rational root
        with pytest.raises(UsageError):
            en.NumberField([6, 0, -5, 0, 1])

    def test_rejects_degree_three_and_four(self):
        # X^3 - 7 and X^4 + 2 are irreducible, but only Q and quadratic fields exist here
        for poly in ([-7, 0, 0, 1], [2, 0, 0, 0, 1]):
            with pytest.raises(UsageError):
                en.NumberField(poly)

    def test_rational_field_degree_one(self):
        q = en.RATIONAL_FIELD
        assert q.degree == 1
        assert as_rational(q.from_rational(Fraction(3, 2))) == Fraction(3, 2)


class TestNFMul:
    def test_theta_squared_in_golden_field(self, golden):
        theta = golden.gen()
        assert en.nf_mul(theta, theta) == theta + 1

    def test_difference_of_squares_sqrt5(self):
        k = en.NumberField([-5, 0, 1])  # X^2 - 5
        t = k.gen()
        assert (1 + t) * (1 - t) == k.from_rational(-4)

    def test_commutative_on_random_pairs(self, golden):
        rng = random.Random(1)
        for _ in range(50):
            a, b = random_elem(golden, rng), random_elem(golden, rng)
            assert en.nf_mul(a, b) == en.nf_mul(b, a)

    def test_field_mismatch_raises(self, golden, sqrt2):
        with pytest.raises(UsageError):
            en.nf_mul(golden.gen(), sqrt2.gen())

    def test_ring_axioms_on_random_triples(self, golden, sqrt2):
        rng = random.Random(2)
        for field in (golden, sqrt2):
            for _ in range(30):
                a = random_elem(field, rng)
                b = random_elem(field, rng)
                c = random_elem(field, rng)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert (a + b) + c == a + (b + c)

    def test_inverse_exact(self, golden):
        rng = random.Random(3)
        for _ in range(30):
            a = random_elem(golden, rng)
            if a.is_zero:
                continue
            assert a * en.nf_inv(a) == golden.one()

    def test_norm_of_golden_generator(self, golden):
        # N(theta) = constant term of X^2 - X - 1 = -1
        assert golden.gen().norm() == -1
        assert golden.gen().trace() == 1

    def test_norm_multiplicative(self, golden):
        rng = random.Random(4)
        for _ in range(20):
            a, b = random_elem(golden, rng), random_elem(golden, rng)
            assert (a * b).norm() == a.norm() * b.norm()

    def test_nonzero_has_nonzero_norm(self, golden):
        rng = random.Random(5)
        for _ in range(30):
            a = random_elem(golden, rng)
            if not a.is_zero:
                assert a.norm() != 0


class TestRealRoots:
    def test_golden_field_has_two_roots_bracketing_frozen_values(self, golden):
        roots = golden.real_roots()
        assert len(roots) == 2
        conj, phi = roots
        phi = phi.refined(20)
        conj = conj.refined(20)
        assert phi[0] < PHI_HI and phi[1] > PHI_LO
        assert conj[0] < PHI_CONJ_HI and conj[1] > PHI_CONJ_LO
        # bisection oracle: the minimal polynomial changes sign across each interval
        mp = min_poly_fractions(golden)
        for lo, hi in (phi, conj):
            assert poly_eval(mp, lo) * poly_eval(mp, hi) < 0

    def test_no_real_roots(self):
        k = en.NumberField([1, 0, 1])  # X^2 + 1
        assert k.real_roots() == []

    def test_sqrt2_roots(self, sqrt2):
        roots = [r.refined(20) for r in sqrt2.real_roots()]
        assert len(roots) == 2
        assert roots[0][1] < 0 < roots[1][0]
        assert roots[1][0] < SQRT2_HI and roots[1][1] > SQRT2_LO
        assert roots[0][0] < -SQRT2_LO
        assert roots[0][1] > -SQRT2_HI

    def test_root_count_follows_discriminant(self, golden, sqrt2):
        # a quadratic has two real roots iff its discriminant is positive
        for field, count in (
            (golden, 2),
            (sqrt2, 2),
            (en.NumberField([1, 0, 1]), 0),
            (en.NumberField([3, 1, 1]), 0),
            (en.NumberField([-3, 1]), 1),
        ):
            assert field.real_root_count() == count

    def test_intervals_disjoint_and_ordered(self, golden):
        roots = golden.real_roots()
        assert [r.root_index for r in roots] == [0, 1]
        assert roots[0].refined(1)[1] < roots[1].refined(1)[0]

    def test_refinement_halves_and_keeps_root(self, golden):
        r = golden.real_roots()[1]
        prev = r.refined(5)
        mp = min_poly_fractions(golden)
        for bits in (10, 20, 40, 80):
            cur = r.refined(bits)
            assert cur[1] - cur[0] == Fraction(1, 2**bits)
            assert cur[0] >= prev[0] and cur[1] <= prev[1]
            assert poly_eval(mp, cur[0]) * poly_eval(mp, cur[1]) < 0
            prev = cur


class TestEvalEmbedding:
    def test_constant_is_degenerate(self, golden):
        place = golden.real_roots()[1]
        lo, hi = en.eval_embedding(golden.from_rational(3), place, 16)
        assert lo == hi == 3

    def test_golden_generator_at_sixteen_bits(self, golden):
        place = golden.real_roots()[1]
        lo, hi = en.eval_embedding(golden.gen(), place, 16)
        assert Fraction("1.61") < lo < hi < Fraction("1.62")
        assert lo < PHI_HI and hi > PHI_LO

    def test_interval_soundness_under_addition(self, golden):
        rng = random.Random(6)
        place = golden.real_roots()[1]
        for _ in range(20):
            x, y = random_elem(golden, rng), random_elem(golden, rng)
            ix = en.eval_embedding(x, place, 24)
            iy = en.eval_embedding(y, place, 24)
            is_ = en.eval_embedding(x + y, place, 24)
            outer = iv_add(ix, iy)
            assert outer[0] <= is_[1] and is_[0] <= outer[1]

    def test_width_postcondition(self, golden):
        place = golden.real_roots()[1]
        x = elem(golden, [Fraction(9, 7), Fraction(22, 3)])
        for bits in (8, 16, 48):
            lo, hi = en.eval_embedding(x, place, bits)
            mid = (lo + hi) / 2
            assert hi - lo <= Fraction(1, 2**bits) * (1 + abs(mid))

    def test_shrinks_monotonically_and_contains_reference(self, golden):
        place = golden.real_roots()[1]
        x = elem(golden, [Fraction(7, 3), Fraction(-5, 2)])
        ref_lo, ref_hi = en.eval_embedding(x, place, 160)
        widths = []
        for bits in (8, 16, 32, 64):
            lo, hi = en.eval_embedding(x, place, bits)
            assert lo <= ref_lo and ref_hi <= hi
            widths.append(hi - lo)
        assert all(w2 <= w1 for w1, w2 in zip(widths, widths[1:]))


class TestPadicValuation:
    def test_examples(self):
        assert en.padic_valuation(Fraction(3, 2), 2) == -1
        assert en.padic_valuation(Fraction(9, 4), 3) == 2
        assert en.padic_valuation(7, 5) == 0
        assert en.padic_valuation(0, 7) == math.inf

    def test_non_prime_rejected(self):
        with pytest.raises(UsageError):
            en.padic_valuation(Fraction(1, 2), 6)

    def test_product_formula_on_rationals(self):
        rng = random.Random(7)
        for _ in range(40):
            q = Fraction(rng.randint(-400, 400) or 1, rng.randint(1, 400))
            primes = set(en.prime_factors(q.numerator)) | set(en.prime_factors(q.denominator))
            prod = abs(q)
            for p in primes:
                prod *= Fraction(p) ** (-en.padic_valuation(q, p))
            assert prod == 1


class TestCompareAbsToOne:
    def test_one_is_equal(self, golden):
        # the decision is closed: |sigma(+-1)| = 1 is within the bound
        place = golden.real_roots()[1]
        assert en.compare_abs_to_one(golden.one(), place) is True
        assert en.compare_abs_to_one(-golden.one(), place) is True

    def test_golden_conjugate_is_less(self, golden):
        # sigma_phi(1 - theta) = 1 - phi = (1 - sqrt5)/2, abs < 1
        place = golden.real_roots()[1]
        x = golden.from_rational(1) - golden.gen()
        assert en.compare_abs_to_one(x, place) is True

    def test_two_is_greater(self, golden):
        place = golden.real_roots()[1]
        assert en.compare_abs_to_one(golden.from_rational(2), place) is False

    def test_near_one_element_is_decided(self, golden):
        # theta * F40/F41 is irrational with |sigma(x)| within ~2^-55 of 1,
        # beyond any fixed-width interval test; phi * a/b > 1 iff 5a^2 > (2b - a)^2
        place = golden.real_roots()[1]
        a, b = 1, 1
        for _ in range(39):
            a, b = b, a + b
        x = golden.gen() * Fraction(a, b)
        expected = 5 * a * a <= (2 * b - a) ** 2
        assert en.compare_abs_to_one(x, place) is expected
        lo, hi = en.eval_embedding(x, place, 512)
        assert (hi < 1) if expected else (lo > 1)

    def test_cmp_embedding_boundary_exact(self, golden):
        place = golden.real_roots()[1]
        assert en.cmp_embedding(golden.from_rational(Fraction(5, 2)), place, Fraction(5, 2)) == 0
        assert en.cmp_embedding(golden.gen(), place, 2) == -1
        assert en.cmp_embedding(golden.gen(), place, 1) == 1

    def test_abs_embedding_leq_closed_boundary(self, golden):
        place = golden.real_roots()[1]
        assert en.abs_embedding_leq(golden.from_rational(-1), place, 1)
        assert en.abs_embedding_leq(golden.gen(), place, 2)
        assert not en.abs_embedding_leq(golden.gen(), place, Fraction(3, 2))


class TestSurdSign:
    @settings(max_examples=300, deadline=None)
    @given(
        p=st.fractions(min_value=-100, max_value=100, max_denominator=50),
        q=st.fractions(min_value=-100, max_value=100, max_denominator=50),
        k=st.integers(0, 30),
    )
    def test_matches_perfect_square_roots(self, p, q, k):
        # for d = k^2 the square root is k, so the sign is known directly
        value = p + q * k
        assert en.surd_sign(p, q, k * k) == (value > 0) - (value < 0)


PROPERTY_FIELDS = (
    en.golden_field(),
    en.sqrt2_field(),
    en.NumberField([-3, 0, 1]),  # X^2 - 3
)
SMALL_RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=200)


@settings(max_examples=200, deadline=None)
@given(
    field=st.sampled_from(PROPERTY_FIELDS),
    root=st.integers(0, 1),
    a=SMALL_RATIONALS,
    b=SMALL_RATIONALS,
    r=SMALL_RATIONALS,
    offset=st.one_of(st.none(), st.fractions(min_value=-1, max_value=1, max_denominator=2**80)),
)
def test_cmp_embedding_agrees_with_every_excluding_interval(field, root, a, b, r, offset):
    place = field.real_roots()[root]
    x = elem(field, [a, b])
    if offset is not None:
        # a comparison point within about 2^-40 of sigma(x)
        lo, hi = en.eval_embedding(x, place, 40)
        r = (lo + hi) / 2 + offset / 2**40
    sign = en.cmp_embedding(x, place, r)
    for bits in (64, 512):
        lo, hi = en.eval_embedding(x, place, bits)
        if hi < r:
            assert sign == -1
        elif lo > r:
            assert sign == 1
    assert (sign == 0) == (x == r)


# ---------------------------------------------------------------------------
# The integer kernel against general-degree references kept here: dense
# polynomial arithmetic over Q (product, division with remainder, extended
# Euclid), the matrix of multiplication, embedding signs decided by squaring,
# dyadic cells by bisection, and Horner's rule over intervals.
# ---------------------------------------------------------------------------


def poly_eval(cs, x):
    """Value at x of the polynomial with coefficients cs, low degree first."""
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def min_poly_fractions(field):
    return tuple(Fraction(c) for c in field.min_poly)


def poly_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_add(a, b):
    n = max(len(a), len(b))
    return poly_trim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return poly_trim(out)


def poly_divmod(a, b):
    a = list(poly_trim(a))
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        shift = len(a) - len(b)
        coeff = a[-1] / b[-1]
        q[shift] = coeff
        for i, cb in enumerate(b):
            a[shift + i] -= coeff * cb
        a = list(poly_trim(a))
    return poly_trim(q), tuple(a)


def ref_coeffs(field, poly):
    return tuple(poly) + (Fraction(0),) * (field.degree - len(poly))


def ref_mul(x, y):
    _, rem = poly_divmod(poly_mul(poly_trim(x.coeffs), poly_trim(y.coeffs)),
                         min_poly_fractions(x.field))
    return ref_coeffs(x.field, rem)


def ref_inv(x):
    # extended Euclid in Q[X]: u*x + v*minpoly = const
    r0, r1 = min_poly_fractions(x.field), poly_trim(x.coeffs)
    s0, s1 = (), (Fraction(1),)
    while len(r1) > 1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_add(s0, tuple(-c for c in poly_mul(q, s1)))
    return ref_coeffs(x.field, tuple(c / r1[0] for c in s1))


def ref_trace_norm(x):
    # columns of the multiplication matrix are x and x*theta
    field = x.field
    if field.degree == 1:
        return x.coeffs[0], x.coeffs[0]
    (m00, m10), (m01, m11) = x.coeffs, ref_mul(x, field.gen())
    return m00 + m11, m00 * m11 - m01 * m10


def as_rational(x) -> Fraction:
    assert x.is_rational
    return x.coeffs[0]


def iv_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def iv_mul(a, b):
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(ps), max(ps))


def sign_at(x, place, r):
    """Sign of sigma(x) - r, by squaring from sigma(theta) = (-c1 -+ sqrt(disc))/2."""
    if x.is_rational:
        d = as_rational(x) - r
        return (d > 0) - (d < 0)
    c0, c1, _ = x.field.min_poly
    # sigma(x) - r = p + q*sqrt(disc)
    p = Fraction(2 * x.a - c1 * x.b, 2 * x.den) - r
    q = Fraction(x.b if place.root_index else -x.b, 2 * x.den)
    sp, sq = (p > 0) - (p < 0), (q > 0) - (q < 0)
    if sp == sq or sp == 0:
        return sq
    return sp if p * p > q * q * (c1 * c1 - 4 * c0) else sq


def ref_dyadic_cell(x, place, p):
    """[k, k+1]/2^p around an irrational sigma(x): p halvings of its integer cell."""
    hi = (abs(x.a) + abs(x.b) * (abs(x.field.min_poly[1]) + x.field.disc)) // x.den + 1
    lo = -hi
    while hi - lo > 1:  # sigma(x) lies in (lo, hi) throughout
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if sign_at(x, place, mid) > 0 else (lo, mid)
    lo, hi = Fraction(lo), Fraction(hi)
    for _ in range(p):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if sign_at(x, place, mid) > 0 else (lo, mid)
    return lo, hi


def ref_eval_embedding(x, place, precision_bits):
    """Horner's rule over a dyadic cell of sigma(theta) so narrow that the
    result is far below 2^-precision_bits wide."""
    coeffs = tuple(x.coeffs)
    if x.is_rational:
        return (coeffs[0], coeffs[0])
    extra = abs(coeffs[1]).numerator.bit_length() + 8
    theta = ref_dyadic_cell(x.field.gen(), place, precision_bits + extra)
    iv = (Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        iv = iv_add(iv_mul(iv, theta), (c, c))
    return iv


KERNEL_FIELDS = PROPERTY_FIELDS + (en.RATIONAL_FIELD,)
COEFFS = st.one_of(
    st.integers(-10**6, 10**6).map(Fraction),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4),
)


@st.composite
def field_elements(draw, field=None, count=1):
    field = draw(st.sampled_from(KERNEL_FIELDS)) if field is None else field
    out = [elem(field, draw(st.lists(COEFFS, min_size=field.degree, max_size=field.degree)))
           for _ in range(count)]
    return field, out


def decimal_embedding(x, place):
    """sigma(x) to 80 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 80
        value = Decimal(x.a)
        if x.field.degree == 2:
            c1, root = x.field.min_poly[1], Decimal(x.field.disc).sqrt()
            value += Decimal(x.b) * (-c1 + (root if place.root_index else -root)) / 2
        return value / x.den


def decimal_sign(x, place, r):
    """Sign of sigma(x) - r; exact for rational x, else decided at 80 digits."""
    if x.is_rational:
        diff = as_rational(x) - r
        return (diff > 0) - (diff < 0)
    with localcontext() as ctx:
        ctx.prec = 80
        diff = decimal_embedding(x, place) - Decimal(r.numerator) / r.denominator
        assert abs(diff) > Decimal(10) ** -70  # irrational: far from every small rational
        return 1 if diff > 0 else -1


class TestIntegerKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(KERNEL_FIELDS).flatmap(lambda f: field_elements(f, count=2)))
    def test_arithmetic_matches_polynomial_reference(self, drawn):
        field, (x, y) = drawn
        assert (x * y).coeffs == ref_mul(x, y)
        assert (x + y).coeffs == tuple(p + q for p, q in zip(x.coeffs, y.coeffs))
        assert (x - y).coeffs == tuple(p - q for p, q in zip(x.coeffs, y.coeffs))
        assert (x.trace(), x.norm()) == ref_trace_norm(x)
        if not x.is_zero:
            assert en.nf_inv(x).coeffs == ref_inv(x)
            assert (y / x) * x == y

    @settings(max_examples=300, deadline=None)
    @given(field_elements())
    def test_representation_is_canonical(self, drawn):
        field, (x,) = drawn
        assert x.den >= 1 and math.gcd(x.a, x.b, x.den) == 1
        assert x.coeffs == tuple(Fraction(v, x.den) for v in (x.a, x.b)[: field.degree])
        assert hash(x) == hash((field, x.coeffs))
        assert x == elem(field, x.coeffs) and hash(x) == hash(elem(field, x.coeffs))
        if x.is_rational:
            assert x == as_rational(x) and hash(x) == hash(field.from_rational(as_rational(x)))
        else:
            assert x != x.coeffs[0]

    @settings(max_examples=300, deadline=None)
    @given(
        drawn=field_elements(),
        root=st.integers(0, 1),
        r=SMALL_RATIONALS,
        mode=st.sampled_from(["free", "own-value", "near"]),
    )
    def test_comparisons_match_decimal(self, drawn, root, r, mode):
        field, (x,) = drawn
        place = field.real_roots()[min(root, field.real_root_count() - 1)]
        if mode == "own-value":
            # for rational x the bound |sigma(x)| is met exactly
            r = abs(x.coeffs[0]) if x.is_rational else r
        elif mode == "near":
            lo, hi = en.eval_embedding(x, place, 64)
            r = abs((lo + hi) / 2)
        assert en.cmp_embedding(x, place, r) == decimal_sign(x, place, r)
        inside = r >= 0 and decimal_sign(x, place, r) <= 0 <= decimal_sign(x, place, -r)
        assert en.abs_embedding_leq(x, place, r) == inside
        # |sigma(x)| = 1 only for x = +-1, since sigma is injective, and the bound is closed
        expected = x == 1 or x == -1 or (
            decimal_sign(x, place, Fraction(1)) < 0 < decimal_sign(x, place, Fraction(-1))
        )
        assert en.compare_abs_to_one(x, place) is expected

    @pytest.mark.parametrize("bits", [64, 96, 128, 256])
    @settings(max_examples=60, deadline=None)
    @given(drawn=field_elements(), root=st.integers(0, 1))
    def test_eval_embedding_matches_interval_horner(self, bits, drawn, root):
        field, (x,) = drawn
        place = field.real_roots()[min(root, field.real_root_count() - 1)]
        got = en.eval_embedding(x, place, bits)
        assert all(type(v) is Fraction for v in got)
        lo, hi = ref_eval_embedding(x, place, bits)
        if x.is_rational:
            assert got == (lo, hi)
            return
        # both intervals hold sigma(x); the narrow one names the cell unless it
        # straddles a multiple of 2^-bits
        assert got[0] <= hi and lo <= got[1]
        if math.floor(lo * 2**bits) == math.floor(hi * 2**bits):
            assert got[0] == Fraction(math.floor(lo * 2**bits), 2**bits)


@st.composite
def real_quadratic_fields(draw):
    """X^2 + c1*X + c0 with a positive non-square discriminant, c1 of either sign."""
    c1 = draw(st.integers(-60, 60))
    c0 = draw(st.integers(-400, 400).filter(lambda c0: c1 * c1 - 4 * c0 > 0))
    disc = c1 * c1 - 4 * c0
    assume(math.isqrt(disc) ** 2 != disc)
    return en.NumberField([c0, c1, 1])


class TestClosedFormRefinement:
    @settings(max_examples=40, deadline=None)
    @given(field=real_quadratic_fields(), root=st.integers(0, 1), bits=st.integers(1, 300))
    def test_refined_matches_bisection(self, field, root, bits):
        place = field.real_roots()[root]
        assert place.refined(bits) == ref_dyadic_cell(field.gen(), place, bits)

    @settings(max_examples=40, deadline=None)
    @given(
        field=real_quadratic_fields(),
        root=st.integers(0, 1),
        coeffs=st.lists(COEFFS, min_size=2, max_size=2),
        bits=st.integers(1, 300),
    )
    def test_eval_embedding_matches_bisection(self, field, root, coeffs, bits):
        x = elem(field, coeffs)
        assume(not x.is_rational)
        place = field.real_roots()[root]
        assert en.eval_embedding(x, place, bits) == ref_dyadic_cell(x, place, bits)


@settings(max_examples=300, deadline=None)
@given(
    field=st.one_of(real_quadratic_fields(), st.just(en.RATIONAL_FIELD)),
    root=st.integers(0, 1),
    coeffs=st.lists(COEFFS, min_size=2, max_size=2),
    p=st.integers(1, 512),
)
def test_eval_embedding_is_the_dyadic_cell_of_the_value(field, root, coeffs, p):
    x = elem(field, coeffs[: field.degree])
    place = field.real_roots()[min(root, field.real_root_count() - 1)]
    lo, hi = en.eval_embedding(x, place, p)
    if x.is_rational:
        assert lo == hi == as_rational(x)
        return
    assert (lo * 2**p).denominator == 1 and hi - lo == Fraction(1, 2**p)
    # lo <= sigma(x) < hi; sigma(x) is irrational, so it equals neither end
    assert sign_at(x, place, lo) > 0 > sign_at(x, place, hi)


class _Pair(en.Record):
    __slots__ = ("left", "right")


class TestRecord:
    def test_fields_by_position_or_keyword(self):
        for pair in (_Pair(1, 2), _Pair(1, right=2), _Pair(right=2, left=1)):
            assert (pair.left, pair.right) == (1, 2)
        assert repr(_Pair(1, "x")) == "_Pair(left=1, right='x')"

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((1,), {}, "needs the field 'right'"),
            ((1, 2, 3), {}, "takes 2 fields, not 3"),
            ((1, 2), {"extra": 3}, "field 'extra' is unknown"),
            ((1, 2), {"left": 3}, "field 'left' is given twice"),
        ],
    )
    def test_missing_extra_or_duplicate_field_is_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            _Pair(*args, **kwargs)

    def test_records_compare_by_identity(self):
        a = _Pair(1, 2)
        assert a == a and a != _Pair(1, 2) and len({a, _Pair(1, 2)}) == 2


def test_no_constructor_only_copies_its_parameters():
    """A slotted record takes Record's constructor instead of copying each field by hand."""
    import ast
    from pathlib import Path

    copying = []
    for path in sorted(Path(en.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.FunctionDef) and node.name == "__init__"):
                continue
            params = {a.arg for a in node.args.args[1:] + node.args.kwonlyargs}
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                body = body[1:]
            if body and all(
                isinstance(s, ast.Assign)
                and len(s.targets) == 1
                and isinstance(s.targets[0], ast.Attribute)
                and isinstance(s.targets[0].value, ast.Name)
                and s.targets[0].value.id == "self"
                and isinstance(s.value, ast.Name)
                and s.value.id in params
                for s in body
            ):
                copying.append(f"{path.name}:{node.lineno}")
    assert not copying, f"constructors that only copy their parameters: {copying}"


# ---------------------------------------------------------------------------
# elem_from_json reads each coordinate with str_frac: the strings frac_str
# writes, and every other value, are read or refused as there.
# ---------------------------------------------------------------------------

FRACTIONS = st.fractions(max_denominator=10**30).filter(lambda q: abs(q.numerator) < 10**40)


def _slow_elem(field, coords):
    """The element of `coords`, each coordinate read by str_frac on its own."""
    return elem(field, [en.str_frac(c) for c in coords])


def _outcome(read):
    try:
        return read()
    except UsageError as exc:
        return f"usage error: {exc}"


@settings(max_examples=300, deadline=None)
@given(FRACTIONS, FRACTIONS)
def test_fast_decoder_agrees_with_str_frac_on_every_written_string(a, b):
    for field, coords in ((en.golden_field(), [a, b]), (en.RATIONAL_FIELD, [a])):
        written = [en.frac_str(c) for c in coords]
        got = field.elem_from_json(written)
        assert got == _slow_elem(field, written) == elem(field, coords)


@settings(max_examples=300, deadline=None)
@given(FRACTIONS, FRACTIONS)
def test_to_list_writes_what_frac_str_writes(a, b):
    for field, coords in ((en.golden_field(), [a, b]), (en.sqrt2_field(), [b, a]),
                          (en.RATIONAL_FIELD, [a])):
        x = elem(field, coords)
        assert x.to_list() == [en.frac_str(c) for c in x.coeffs]


def test_to_list_with_a_common_denominator():
    # (3 + 2 theta)/6: the coordinates reduce to 1/2 and 1/3 separately
    x = en.NFElem(en.golden_field(), 3, 2, 6)
    assert x.den == 6 and x.to_list() == ["1/2", "1/3"]
    assert en.NFElem(en.golden_field(), 0, -5, 10).to_list() == ["0", "-1/2"]


# strings that frac_str never writes: each is read by str_frac, or refused by it
NON_CANONICAL = ["1.5", " 1", "+1", "1_0", "01", "2/4", "1/1", "-0", "٣", "0/5", "-0/3", "3/-4",
                 "1/0", "x", "", "1e3", "1/01", "00", "-", "/2", "1 ", "١/2", "-1/2/3",
                 "７"]


@pytest.mark.parametrize("s", NON_CANONICAL)
def test_fast_and_slow_decoders_agree_off_the_written_form(s):
    field = en.golden_field()
    for coords in ([s], [s, "1/3"], ["-2", s]):
        fast = _outcome(lambda: field.elem_from_json(coords))
        slow = _outcome(lambda: _slow_elem(field, coords))
        assert fast == slow, (coords, fast, slow)


@pytest.mark.parametrize("value", [1, -7, 0, 1.5, True, None, [], {}])
def test_non_string_coordinates_read_as_str_frac_reads_them(value):
    field = en.golden_field()
    fast = _outcome(lambda: field.elem_from_json([value]))
    assert fast == _outcome(lambda: _slow_elem(field, [value]))


def test_a_coefficient_list_longer_than_the_degree_is_refused_after_its_strings():
    field = en.RATIONAL_FIELD
    for coords, message in ((["1", "2"], "coefficient vector longer than field degree"),
                            (["1", "x"], "not a rational number: 'x'")):
        with pytest.raises(UsageError, match=message):
            field.elem_from_json(coords)

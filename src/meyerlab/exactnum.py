"""Exact arithmetic over Q and real quadratic fields.

A field element is stored as integers (a + b*theta)/den, so products,
inverses, traces and norms are closed forms in integers.  Every real
embedding value is (u + v*sqrt(disc))/s with integers u, v, s, so comparing
it with a rational is decided by squaring in integers.  Rational intervals
enclose embedding values for the metric layer, and p-adic valuations on Q
are exact.  No float ever enters a value that feeds a certificate.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from fractions import Fraction

from .errors import UsageError


def frac_str(q: Fraction) -> str:
    return str(Fraction(q))


def str_frac(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {s!r}") from exc


def str_int(s: str) -> int:
    try:
        return int(s)
    except ValueError as exc:
        raise UsageError(f"not an integer: {s!r}") from exc


def surd_sign(p, q, d: int) -> int:
    """Exact sign of p + q*sqrt(d) for rationals (or integers) p, q and an integer d >= 0."""
    sp = (p > 0) - (p < 0)
    sq = (q > 0) - (q < 0)
    if sq == 0 or sp == sq or d == 0:
        return sp
    if sp == 0:
        return sq
    # opposite signs: compare p^2 with q^2 * d, cleared of denominators
    lhs = (p.numerator * q.denominator) ** 2
    rhs = (q.numerator * p.denominator) ** 2 * d
    return sp if lhs > rhs else sq if lhs < rhs else 0


def floor_surd(p: int, q: int, d: int, s: int) -> int:
    """floor((p + q*sqrt(d)) / s) for integers, s > 0 and d not a perfect square."""
    r = math.isqrt(q * q * d)  # floor(|q|*sqrt(d)), which is irrational for q != 0
    return (p + (r if q >= 0 else -r - 1)) // s


# ---------------------------------------------------------------------------
# Rational intervals with exact endpoints.
# ---------------------------------------------------------------------------


def iv_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def iv_neg(a):
    return (-a[1], -a[0])


def iv_sub(a, b):
    return iv_add(a, iv_neg(b))


def iv_abs(a):
    lo, hi = a
    if lo >= 0:
        return (lo, hi)
    if hi <= 0:
        return (-hi, -lo)
    return (Fraction(0), max(-lo, hi))


# ---------------------------------------------------------------------------
# Number fields K = Q(theta), power basis coordinates.
# ---------------------------------------------------------------------------


def _is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


class NumberField:
    """K = Q(theta) for theta a root of a monic irreducible integer polynomial
    of degree 1 or 2.

    Coordinates are always in the power basis 1, theta.  The rationals are the
    degree-1 field with minimal polynomial X.  For X^2 + c1*X + c0 the roots
    are (-c1 -+ sqrt(disc)) / 2 with disc = c1^2 - 4*c0, so every embedding
    value is (u + v*sqrt(disc))/s in integers and every comparison is decided
    by `surd_sign`.
    """

    def __init__(self, min_poly: Sequence[int], name: str | None = None):
        coeffs = tuple(int(c) for c in min_poly)
        if len(coeffs) not in (2, 3):
            raise UsageError(
                "minimal polynomial must have degree 1 or 2 (only Q and quadratic fields)"
            )
        if coeffs[-1] != 1:
            raise UsageError("minimal polynomial must be monic")
        self.disc: int = coeffs[1] ** 2 - 4 * coeffs[0] if len(coeffs) == 3 else 0
        # a monic quadratic is irreducible iff its discriminant is not a square
        if len(coeffs) == 3 and _is_perfect_square(self.disc):
            raise UsageError(f"minimal polynomial {list(coeffs)} has a rational root")
        self.min_poly: tuple[int, ...] = coeffs
        self.degree: int = len(coeffs) - 1
        self.name = name
        self._real_roots: list[RealEmbeddingInterval] | None = None
        # raw isolating interval per root: every refinement is the cell of a
        # dyadic subdivision of it, computed in closed form as a pure function
        # of (root, level), so values derived from embeddings are identical
        # across sessions and replays.
        self._root_bases: dict[int, tuple[Fraction, Fraction]] = {}
        # memo per (root, level): eval_embedding asks for the same level on every call
        self._refine_cache: dict[tuple[int, int], "RealEmbeddingInterval"] = {}

    def __repr__(self):
        return f"NumberField({list(self.min_poly)})"

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)

    def elem(self, coeffs) -> "NFElem":
        """The element with power-basis coordinates `coeffs` (missing ones are 0)."""
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            raise UsageError("coefficient vector longer than field degree")
        a, b = cs + [Fraction(0)] * (2 - len(cs))
        den = math.lcm(a.denominator, b.denominator)
        return NFElem(
            self, a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den
        )

    def zero(self) -> "NFElem":
        return NFElem(self, 0)

    def one(self) -> "NFElem":
        return NFElem(self, 1)

    def gen(self) -> "NFElem":
        if self.degree == 1:
            return NFElem(self, -self.min_poly[0])
        return NFElem(self, 0, 1)

    def from_rational(self, q) -> "NFElem":
        q = Fraction(q)
        return NFElem(self, q.numerator, 0, q.denominator)

    def real_roots(self) -> list["RealEmbeddingInterval"]:
        """Isolating intervals for the real roots, ascending, pairwise disjoint."""
        if self._real_roots is None:
            self._real_roots = _isolate_real_roots(self)
        return list(self._real_roots)

    def real_root_count(self) -> int:
        return len(self.real_roots())

    def to_dict(self) -> dict:
        return {"min_poly": list(self.min_poly)}

    @staticmethod
    def from_dict(data: dict) -> "NumberField":
        return NumberField(data["min_poly"])


RATIONAL_FIELD = NumberField([0, 1], name="Q")


def golden_field() -> NumberField:
    """Q(sqrt 5) generated by the golden ratio, X^2 - X - 1."""
    return NumberField([-1, -1, 1], name="golden")


def sqrt2_field() -> NumberField:
    return NumberField([-2, 0, 1], name="sqrt2")


class RealEmbeddingInterval:
    """Isolating interval for one real root of a field's minimal polynomial.

    The open interval (lo, hi) contains exactly one root and the polynomial
    changes sign across it; lo == hi encodes an exact rational root (degree-1
    fields).  Refinement narrows the interval and never loses the root.
    """

    __slots__ = ("field", "root_index", "lo", "hi", "precision_bits")

    def __init__(
        self, field: NumberField, root_index: int, lo: Fraction, hi: Fraction, precision_bits: int
    ):
        self.field = field
        self.root_index = root_index
        self.lo = lo
        self.hi = hi
        self.precision_bits = precision_bits

    def _key(self):
        return (self.field, self.root_index, self.lo, self.hi, self.precision_bits)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def refined(self, bits: int) -> "RealEmbeddingInterval":
        """Canonical interval of width <= 2^-level for the next power-of-two level.

        The raw isolating interval (lo, hi) is cut into 2^t cells of width
        w = (hi - lo)/2^t, for the least t with w <= 2^-level, and the result
        is the cell holding the root: [lo + k*w, lo + (k+1)*w] with
        k = floor((root - lo)/w), decided in integers from the closed form
        root = (-c1 -+ sqrt(disc))/2.  This is the cell that t bisections of
        (lo, hi) reach, and a pure function of (field, root, level), so
        refinements replay identically in any session and call order.
        """
        if self.is_exact:
            return self
        level = _canonical_level(bits)
        key = (self.root_index, level)
        cached = self.field._refine_cache.get(key)
        if cached is not None:
            return cached
        lo, hi = self.field._root_bases[self.root_index]
        span = hi - lo
        # least t with span * 2^level <= 2^t
        t = (-(-(span.numerator << level) // span.denominator) - 1).bit_length()
        w = span / (1 << t)
        # (root - lo)/w = (-n*(q*c1 + 2*p) -+ n*q*sqrt(disc)) / (2*q*m), lo = p/q, w = m/n
        p, q, m, n = lo.numerator, lo.denominator, w.numerator, w.denominator
        nq = n * q if self.root_index else -n * q
        k = floor_surd(-n * (q * self.field.min_poly[1] + 2 * p), nq, self.field.disc, 2 * q * m)
        out = RealEmbeddingInterval(self.field, self.root_index, lo + k * w, lo + (k + 1) * w, level)
        self.field._refine_cache[key] = out
        return out

    def to_dict(self) -> dict:
        return {
            "root_index": self.root_index,
            "lo": frac_str(self.lo),
            "hi": frac_str(self.hi),
            "precision_bits": self.precision_bits,
        }


def _canonical_level(bits: int) -> int:
    level = 8
    while level < bits:
        level *= 2
    return level


def _isolate_real_roots(field: NumberField) -> list[RealEmbeddingInterval]:
    if field.degree == 1:
        root = Fraction(-field.min_poly[0])
        return [RealEmbeddingInterval(field, 0, root, root, 0)]
    if field.disc < 0:
        return []
    # Bisect (-B, B] until the midpoint separates the roots centre -+ sqrt(disc)/2.
    # Neither root is rational, so no midpoint is ever a root.
    c0, c1, _ = field.min_poly
    centre, half = Fraction(-c1, 2), Fraction(1, 2)
    hi = Fraction(2 + max(abs(c0), abs(c1)))
    lo = -hi
    while True:
        mid = (lo + hi) / 2
        if surd_sign(centre - mid, half, field.disc) < 0:
            hi = mid
        elif surd_sign(centre - mid, -half, field.disc) > 0:
            lo = mid
        else:
            break
    out = []
    for i, base in enumerate(((lo, mid), (mid, hi))):
        field._root_bases[i] = base
        out.append(RealEmbeddingInterval(field, i, *base, 0).refined(8))
    return out


# ---------------------------------------------------------------------------
# Field elements.
# ---------------------------------------------------------------------------


class NFElem:
    """Element (a + b*theta)/den of a number field, stored as integers.

    The representation is unique: den >= 1, gcd(a, b, den) = 1, and b = 0 in
    degree 1.  Elements are immutable and hash like (field, coeffs), where
    `coeffs` is the power-basis coordinate tuple of Fractions, built once on
    first use.
    """

    __slots__ = ("field", "a", "b", "den", "_coeffs")

    def __init__(self, field: NumberField, a: int, b: int = 0, den: int = 1):
        if b and field.degree == 1:
            raise UsageError("coefficient vector does not match field degree")
        if den != 1:
            if den < 0:
                a, b, den = -a, -b, -den
            g = math.gcd(a, b, den)
            if g != 1:
                a, b, den = a // g, b // g, den // g
        self.field = field
        self.a = a
        self.b = b
        self.den = den
        self._coeffs = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        cs = self._coeffs
        if cs is None:
            cs = (Fraction(self.a, self.den), Fraction(self.b, self.den))[: self.field.degree]
            self._coeffs = cs
        return cs

    def _coerce(self, other) -> "NFElem":
        if isinstance(other, NFElem):
            if other.field is not self.field and other.field != self.field:
                raise UsageError("elements from different number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented  # type: ignore[return-value]

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def as_rational(self) -> Fraction:
        if self.b:
            raise UsageError("element is not rational")
        return Fraction(self.a, self.den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self.den, other.den
        if d1 == d2:
            return NFElem(self.field, self.a + other.a, self.b + other.b, d1)
        return NFElem(self.field, self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return NFElem(self.field, -self.a, -self.b, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return nf_mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * nf_inv(other)

    def __pow__(self, n: int):
        if n < 0:
            return nf_inv(self) ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, NFElem):
            return (
                self.a == other.a
                and self.b == other.b
                and self.den == other.den
                and (self.field is other.field or self.field == other.field)
            )
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other.numerator and self.den == other.denominator
        return NotImplemented

    def __hash__(self):
        # hash((field, coeffs)) without building coeffs: an integer hashes
        # like the Fraction of the same value
        if self.den == 1:
            return hash((self.field, (self.a, self.b)[: self.field.degree]))
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"NFElem({[str(c) for c in self.coeffs]})"

    def trace(self) -> Fraction:
        if self.field.degree == 1:
            return Fraction(self.a, self.den)
        return Fraction(2 * self.a - self.field.min_poly[1] * self.b, self.den)

    def norm(self) -> Fraction:
        if self.field.degree == 1:
            return Fraction(self.a, self.den)
        c0, c1, _ = self.field.min_poly
        a, b = self.a, self.b
        return Fraction(a * a - c1 * a * b + c0 * b * b, self.den * self.den)

    def to_list(self) -> list[str]:
        return [frac_str(c) for c in self.coeffs]


def nf_mul(x: NFElem, y: NFElem) -> NFElem:
    """Exact product, reduced by theta^2 = -c1*theta - c0."""
    field = x.field
    if y.field is not field and y.field != field:
        raise UsageError("nf_mul: elements from different number fields")
    bb = x.b * y.b
    if not bb:  # also every product in degree 1
        return NFElem(field, x.a * y.a, x.a * y.b + x.b * y.a, x.den * y.den)
    c0, c1, _ = field.min_poly
    return NFElem(
        field, x.a * y.a - c0 * bb, x.a * y.b + x.b * y.a - c1 * bb, x.den * y.den
    )


def nf_inv(x: NFElem) -> NFElem:
    """Multiplicative inverse: the conjugate over the norm; exists iff x != 0."""
    if x.is_zero:
        raise ZeroDivisionError("inverse of zero field element")
    if x.field.degree == 1:
        return NFElem(x.field, x.den, 0, x.a)
    c0, c1, _ = x.field.min_poly
    a, b = x.a, x.b
    # (a + b*theta)(a - c1*b - b*theta) = a^2 - c1*a*b + c0*b^2, nonzero for x != 0
    return NFElem(x.field, x.den * (a - c1 * b), -x.den * b, a * a - c1 * a * b + c0 * b * b)


# ---------------------------------------------------------------------------
# Certified embedding evaluation and comparisons.
# ---------------------------------------------------------------------------


def _check_place(x: NFElem, place: RealEmbeddingInterval) -> None:
    if x.field is not place.field and x.field != place.field:
        raise UsageError("element and place from different fields")


def eval_embedding(
    x: NFElem, place: RealEmbeddingInterval, precision_bits: int
) -> tuple[Fraction, Fraction]:
    """Rational interval provably containing sigma(x).

    Width <= 2^-precision_bits * (1 + |midpoint|).  The interval is
    (a + b*lo, a + b*hi)/den, sorted, for the canonical refinement (lo, hi) of
    sigma(theta) at the first power-of-two level that meets the width.
    """
    if precision_bits < 1:
        raise UsageError("precision_bits must be >= 1")
    _check_place(x, place)
    a, b, den = x.a, x.b, x.den
    if x.field.degree == 1:
        v = Fraction(a, den)
        return (v, v)
    # start from the requested level only: the result must not depend on how
    # refined the passed place object happens to be
    bits = max(precision_bits, 8)
    while True:
        pl = place.refined(bits)
        lo, hi = pl.lo, pl.hi
        n1, d1 = a * lo.denominator + b * lo.numerator, den * lo.denominator
        n2, d2 = a * hi.denominator + b * hi.numerator, den * hi.denominator
        if b < 0:
            n1, d1, n2, d2 = n2, d2, n1, d1
        # width <= 2^-p * (1 + |mid|), multiplied by 2^(p+1) * d1 * d2
        if (n2 * d1 - n1 * d2) << (precision_bits + 1) <= 2 * d1 * d2 + abs(n1 * d2 + n2 * d1):
            return (Fraction(n1, d1), Fraction(n2, d2))
        bits *= 2


def embedding_intervals(place: RealEmbeddingInterval):
    """(elements, bits) -> their eval_embedding intervals at this place.

    Each interval is computed once per (element, bits) and kept in a memo
    owned by the returned function, so a point set built from a few distinct
    coordinate values costs a few evaluations.  Elements must lie in the
    place's field; the memo is keyed by coordinates alone.
    """
    memo = {}

    def intervals(elements, bits):
        out = []
        for x in elements:
            key = (x.a, x.b, x.den, bits)
            iv = memo.get(key)
            if iv is None:
                iv = memo[key] = eval_embedding(x, place, bits)
            out.append(iv)
        return out

    return intervals


class Cmp(enum.Enum):
    LESS = "LESS"
    EQUAL = "EQUAL"
    GREATER = "GREATER"


def _embedding_surd(x: NFElem, place: RealEmbeddingInterval) -> tuple[int, int, int]:
    """Integers (u, v, s), s > 0, with sigma(x) = (u + v*sqrt(disc))/s at this place.

    The roots of X^2 + c1*X + c0 are (-c1 -+ sqrt(disc))/2, ascending.
    """
    _check_place(x, place)
    if x.field.degree == 1:
        return x.a, 0, x.den
    b = x.b
    return 2 * x.a - x.field.min_poly[1] * b, (b if place.root_index else -b), 2 * x.den


def cmp_embedding(x: NFElem, place: RealEmbeddingInterval, r) -> int:
    """Exact sign of sigma(x) - r for rational r: -1, 0, or +1."""
    r = Fraction(r)
    u, v, s = _embedding_surd(x, place)
    n, d = r.numerator, r.denominator
    return surd_sign(d * u - s * n, d * v, place.field.disc)


def abs_embedding_leq(x: NFElem, place: RealEmbeddingInterval, bound) -> bool:
    """Exact decision of |sigma(x)| <= bound (closed at the boundary)."""
    if not isinstance(bound, (int, Fraction)):
        bound = Fraction(bound)
    n, d = bound.numerator, bound.denominator
    if n < 0:
        return False
    u, v, s = _embedding_surd(x, place)
    # -n/d <= (u + v*sqrt(disc))/s <= n/d, multiplied by s*d
    u, v, sn = d * u, d * v, s * n
    disc = place.field.disc
    return surd_sign(u - sn, v, disc) <= 0 and surd_sign(u + sn, v, disc) >= 0


def compare_abs_to_one(x: NFElem, place: RealEmbeddingInterval) -> Cmp:
    """Exact comparison of |sigma(x)| against 1.

    A real embedding is injective, so |sigma(x)| = 1 only for x = 1 or x = -1.
    """
    if x == 1 or x == -1:
        return Cmp.EQUAL
    return Cmp.LESS if abs_embedding_leq(x, place, 1) else Cmp.GREATER


# ---------------------------------------------------------------------------
# p-adic valuations on Q.
# ---------------------------------------------------------------------------

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    # deterministic Miller-Rabin for n < 3.3e24
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def padic_valuation(q, p: int):
    """v_p(q) with |q|_p = p^-v exactly; +inf for q = 0."""
    if not is_prime(p):
        raise UsageError(f"{p} is not prime")
    q = Fraction(q)
    if q == 0:
        return math.inf
    v = 0
    num = q.numerator
    den = q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def prime_factors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out

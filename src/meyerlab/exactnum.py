"""Exact arithmetic over Q and real quadratic fields.

A field element is stored as integers (a + b*theta)/den, so products,
inverses, traces and norms are closed forms in integers.  Every real
embedding value is (u + v*sqrt(disc))/s with integers u, v, s, so comparing
it with a rational is decided by squaring in integers.  The metric layer's
interval around it, [k, k+1]/2^p, is a floor of a surd.  p-adic valuations
on Q are exact.  No float ever enters a value that feeds a certificate.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from operator import add, neg

from .errors import UsageError


def frac_str(q: Fraction) -> str:
    return str(Fraction(q))


def str_frac(s: str) -> Fraction:
    """A rational string or an int; a float or a bool is a usage error, as is any other value."""
    try:
        if not isinstance(s, (float, bool)):
            return Fraction(s)
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise UsageError(f"not a rational number: {s!r}")


def str_int(s: str) -> int:
    """An integer string or an int; a float or a bool is a usage error, as is any other value."""
    try:
        if not isinstance(s, (float, bool)):
            return int(s)
    except (TypeError, ValueError):
        pass
    raise UsageError(f"not an integer: {s!r}")


def json_list(value, what: str) -> list:
    """`value` if it is a JSON list, else a usage error: "<what> a JSON list, not <value>"."""
    if type(value) is not list:
        raise UsageError(f"{what} a JSON list, not {value!r}")
    return value


def json_object(value, what: str) -> dict:
    """`value` if it is a JSON object, else a usage error: "<what> a JSON object, not <value>"."""
    if type(value) is not dict:
        raise UsageError(f"{what} a JSON object, not {value!r}")
    return value


class Record:
    """A plain record: its fields are the subclass's `__slots__`, in order.

    The constructor takes each field once, by position or by keyword, and
    raises TypeError on a missing, unknown or doubly given field.  A record
    compares and hashes by identity unless its class says otherwise.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} fields, not {len(args)}")
        for name, value in zip(names, args):
            setattr(self, name, value)
        for name in names[len(args) :]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__} needs the field {name!r}")
            setattr(self, name, kwargs.pop(name))
        for name in kwargs:
            why = "given twice" if name in names else "unknown"
            raise TypeError(f"{type(self).__name__} field {name!r} is {why}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class RationalLine:
    """The group (Q, +): a point is a Fraction, read as it is.  It lives with
    the arithmetic every command loads, so no command loads a module for it."""

    physical_place = None
    mul = staticmethod(add)
    inv = staticmethod(neg)

    @staticmethod
    def sort_key(q: Fraction) -> Fraction:
        return q


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


class RealEmbeddingInterval(Record):
    """One real place of a field: theta -> its root_index-th real root, ascending.

    The roots of X^2 + c1*X + c0 are (-c1 -+ sqrt(disc))/2, so every value
    at the place is a surd and every interval around it a closed form.
    """

    __slots__ = ("field", "root_index")

    def refined(self, bits: int) -> tuple[Fraction, Fraction]:
        """The `eval_embedding` interval of sigma(theta)."""
        return eval_embedding(self.field.gen(), self, bits)


class NumberField:
    """K = Q(theta) for theta a root of a monic irreducible integer polynomial
    of degree 1 or 2.

    Coordinates are always in the power basis 1, theta.  The rationals are the
    degree-1 field with minimal polynomial X.  For X^2 + c1*X + c0 the roots
    are (-c1 -+ sqrt(disc)) / 2 with disc = c1^2 - 4*c0, so every embedding
    value is (u + v*sqrt(disc))/s in integers and every comparison is decided
    by `surd_sign`.
    """

    def __init__(self, min_poly: Sequence[int]):
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
        real = 1 if self.degree == 1 else 2 if self.disc > 0 else 0
        self._real_roots = [RealEmbeddingInterval(self, i) for i in range(real)]

    def __repr__(self):
        return f"NumberField({list(self.min_poly)})"

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)

    def elem_from_json(self, data) -> "NFElem":
        """The element `NFElem.to_list` wrote: a list of at most `degree`
        coordinates, each read by `str_frac`."""
        coeffs = [str_frac(c) for c in json_list(data, "a field element is")]
        if len(coeffs) > self.degree:
            raise UsageError("coefficient vector longer than field degree")
        a, b = coeffs + [Fraction(0)] * (2 - len(coeffs))
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
        """The real places, ascending by the value of theta."""
        return list(self._real_roots)

    def real_root_count(self) -> int:
        return len(self.real_roots())

    def to_dict(self) -> dict:
        return {"min_poly": list(self.min_poly)}

    @staticmethod
    def from_dict(data: dict) -> "NumberField":
        min_poly = json_object(data, "a field is")["min_poly"]
        return NumberField([str_int(c) for c in json_list(min_poly, "a minimal polynomial is")])


RATIONAL_FIELD = NumberField([0, 1])


def golden_field() -> NumberField:
    """Q(sqrt 5) generated by the golden ratio, X^2 - X - 1."""
    return NumberField([-1, -1, 1])


def sqrt2_field() -> NumberField:
    return NumberField([-2, 0, 1])


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
        """The coordinates as `frac_str` writes them, from the stored integers."""
        den = self.den
        out = []
        for n in (self.a, self.b)[: self.field.degree]:
            g = math.gcd(n, den)
            out.append(str(n // g) if g == den else f"{n // g}/{den // g}")
        return out


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
    """The dyadic interval [k, k+1]/2^p around sigma(x), p = precision_bits.

    k = floor(2^p * sigma(x)) is the floor of a surd, exact in integers, so
    the width is 2^-p; a rational sigma(x) = q gives the point (q, q).
    """
    if precision_bits < 1:
        raise UsageError("precision_bits must be >= 1")
    u, v, s = _embedding_surd(x, place)
    if not v:
        q = Fraction(u, s)
        return (q, q)
    k = floor_surd(u << precision_bits, v << precision_bits, place.field.disc, s)
    return (Fraction(k, 1 << precision_bits), Fraction(k + 1, 1 << precision_bits))


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


def compare_abs_to_one(x: NFElem, place: RealEmbeddingInterval) -> bool:
    """Exact decision of |sigma(x)| <= 1."""
    return abs_embedding_leq(x, place, 1)


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

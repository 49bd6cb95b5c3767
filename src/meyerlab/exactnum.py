"""Exact arithmetic over Q and real quadratic fields.

Everything here is built on arbitrary-precision rationals: polynomial
arithmetic, exact signs of p + q*sqrt(D), isolating intervals for real roots,
interval evaluation of real embeddings, and exact p-adic valuations on Q.  No
float ever enters a value that feeds a certificate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import UsageError

# Canonical exact rational type.  fractions.Fraction already maintains
# gcd(|num|, den) = 1 and den >= 1, which is the full Rational contract.
Rational = Fraction

def frac_str(q: Fraction) -> str:
    return str(Fraction(q))


def str_frac(s: str) -> Fraction:
    return Fraction(s)


# ---------------------------------------------------------------------------
# Dense univariate polynomials over Q: tuple of Fractions, low degree first.
# ---------------------------------------------------------------------------


def poly_trim(cs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_deg(cs: Sequence[Fraction]) -> int:
    return len(cs) - 1


def poly_add(a, b):
    n = max(len(a), len(b))
    return poly_trim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def poly_neg(a):
    return tuple(-c for c in a)


def poly_mul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return poly_trim(out)


def poly_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    while len(a) >= len(b) and poly_trim(a):
        a = list(poly_trim(a))
        if len(a) < len(b):
            break
        shift = len(a) - len(b)
        coeff = a[-1] / lead
        q[shift] = coeff
        for i, cb in enumerate(b):
            a[shift + i] -= coeff * cb
        a.pop()
    return poly_trim(q), poly_trim(a)


def poly_eval(cs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def surd_sign(p, q, d: int) -> int:
    """Exact sign of p + q*sqrt(d) for rationals p, q and an integer d >= 0."""
    sp = (p > 0) - (p < 0)
    sq = (q > 0) - (q < 0)
    if sq == 0 or sp == sq or d == 0:
        return sp
    if sp == 0:
        return sq
    # opposite signs: compare p^2 with q^2 * d, cleared of denominators
    p, q = Fraction(p), Fraction(q)
    lhs = (p.numerator * q.denominator) ** 2
    rhs = (q.numerator * p.denominator) ** 2 * d
    return sp if lhs > rhs else sq if lhs < rhs else 0


# ---------------------------------------------------------------------------
# Rational intervals with exact endpoints.
# ---------------------------------------------------------------------------


def iv_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def iv_neg(a):
    return (-a[1], -a[0])


def iv_sub(a, b):
    return iv_add(a, iv_neg(b))


def iv_mul(a, b):
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(ps), max(ps))


def iv_abs(a):
    lo, hi = a
    if lo >= 0:
        return (lo, hi)
    if hi <= 0:
        return (-hi, -lo)
    return (Fraction(0), max(-lo, hi))


def iv_width(a) -> Fraction:
    return a[1] - a[0]


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
    value is p + q*sqrt(disc) and every comparison is decided by `surd_sign`.
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
        # canonical refinement chain per root: raw isolating interval plus one
        # memoised interval per power-of-two level.  Every refinement result is
        # a pure function of (root, level), never of cache warmth, so values
        # derived from embeddings are identical across sessions and replays.
        self._root_bases: dict[int, tuple[Fraction, Fraction]] = {}
        self._refine_cache: dict[tuple[int, int], "RealEmbeddingInterval"] = {}

    def __repr__(self):
        return f"NumberField({list(self.min_poly)})"

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)

    @property
    def is_rational_field(self) -> bool:
        return self.degree == 1

    def min_poly_fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c) for c in self.min_poly)

    def elem(self, coeffs) -> "NFElem":
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            raise UsageError("coefficient vector longer than field degree")
        cs += [Fraction(0)] * (self.degree - len(cs))
        return NFElem(self, tuple(cs))

    def zero(self) -> "NFElem":
        return self.elem([])

    def one(self) -> "NFElem":
        return self.elem([1])

    def gen(self) -> "NFElem":
        if self.degree == 1:
            return self.elem([-self.min_poly[0]])
        return self.elem([0, 1])

    def from_rational(self, q) -> "NFElem":
        return self.elem([Fraction(q)])

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


@dataclass(frozen=True)
class RealEmbeddingInterval:
    """Isolating interval for one real root of a field's minimal polynomial.

    The open interval (lo, hi) contains exactly one root and the polynomial
    changes sign across it; lo == hi encodes an exact rational root (degree-1
    fields).  Refinement bisects and never loses the root.
    """

    field: NumberField
    root_index: int
    lo: Fraction
    hi: Fraction
    precision_bits: int

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def refined(self, bits: int) -> "RealEmbeddingInterval":
        """Canonical interval of width <= 2^-level for the next power-of-two level.

        The result is a pure function of (field, root, level): bisection always
        continues the one deterministic chain from the raw isolating interval,
        so refinements replay identically in any session and call order.
        """
        if self.is_exact:
            return self
        level = _canonical_level(bits)
        key = (self.root_index, level)
        cached = self.field._refine_cache.get(key)
        if cached is not None:
            return cached
        lo, hi = self.field._root_bases[self.root_index]
        probe = level
        while probe > 8:
            probe //= 2
            earlier = self.field._refine_cache.get((self.root_index, probe))
            if earlier is not None:
                lo, hi = earlier.lo, earlier.hi
                break
        target = Fraction(1, 2**level)
        if hi - lo > target:
            poly = self.field.min_poly_fractions()
            flo = poly_eval(poly, lo)
            while hi - lo > target:
                mid = (lo + hi) / 2
                fmid = poly_eval(poly, mid)
                # mid is never a root: irreducible of degree >= 2 has no rational root
                if (flo > 0) != (fmid > 0):
                    hi = mid
                else:
                    lo, flo = mid, fmid
        out = RealEmbeddingInterval(self.field, self.root_index, lo, hi, level)
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


@dataclass(frozen=True)
class NFElem:
    """Element of a number field in power-basis coordinates; fully exact."""

    field: NumberField
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.field.degree:
            raise UsageError("coefficient vector does not match field degree")

    def _coerce(self, other) -> "NFElem":
        if isinstance(other, NFElem):
            if other.field != self.field:
                raise UsageError("elements from different number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented  # type: ignore[return-value]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise UsageError("element is not rational")
        return self.coeffs[0]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return NFElem(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return NFElem(self.field, tuple(-a for a in self.coeffs))

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
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, NFElem):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"NFElem({[str(c) for c in self.coeffs]})"

    def mult_matrix(self) -> list[list[Fraction]]:
        """Matrix of multiplication by self on the power basis (column j = self * theta^j)."""
        d = self.field.degree
        cols = []
        theta = self.field.gen()
        acc = self
        for _ in range(d):
            cols.append(list(acc.coeffs))
            acc = acc * theta
        return [[cols[j][i] for j in range(d)] for i in range(d)]

    def trace(self) -> Fraction:
        m = self.mult_matrix()
        return sum(m[i][i] for i in range(len(m)))

    def norm(self) -> Fraction:
        return _det(self.mult_matrix())

    def to_list(self) -> list[str]:
        return [frac_str(c) for c in self.coeffs]


def _det(m: list[list[Fraction]]) -> Fraction:
    m = [row[:] for row in m]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor == 0:
                continue
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def nf_mul(a: NFElem, b: NFElem) -> NFElem:
    """Exact product, reduced modulo the minimal polynomial."""
    if a.field != b.field:
        raise UsageError("nf_mul: elements from different number fields")
    prod = poly_mul(poly_trim(a.coeffs), poly_trim(b.coeffs))
    _, rem = poly_divmod(prod, a.field.min_poly_fractions())
    cs = list(rem) + [Fraction(0)] * (a.field.degree - len(rem))
    return NFElem(a.field, tuple(cs[: a.field.degree]))


def nf_inv(a: NFElem) -> NFElem:
    """Multiplicative inverse; exists iff a != 0 (minimal polynomial irreducible)."""
    if a.is_zero:
        raise ZeroDivisionError("inverse of zero field element")
    # extended Euclid in Q[X]: u*a + v*minpoly = 1
    r0, r1 = a.field.min_poly_fractions(), poly_trim(a.coeffs)
    s0, s1 = (), (Fraction(1),)
    while poly_deg(r1) > 0:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_add(s0, poly_neg(poly_mul(q, s1)))
    if not r1:
        raise UsageError("element not invertible (minimal polynomial not irreducible?)")
    scale = 1 / r1[0]
    inv = tuple(c * scale for c in s1)
    cs = list(inv) + [Fraction(0)] * (a.field.degree - len(inv))
    return NFElem(a.field, tuple(cs[: a.field.degree]))


# ---------------------------------------------------------------------------
# Certified embedding evaluation and comparisons.
# ---------------------------------------------------------------------------


def eval_embedding(
    x: NFElem, place: RealEmbeddingInterval, precision_bits: int
) -> tuple[Fraction, Fraction]:
    """Rational interval provably containing sigma(x).

    Width <= 2^-precision_bits * (1 + |midpoint|).
    """
    if precision_bits < 1:
        raise UsageError("precision_bits must be >= 1")
    if x.field != place.field:
        raise UsageError("element and place from different fields")
    if place.is_exact:
        v = poly_eval(poly_trim(x.coeffs) or (Fraction(0),), place.lo)
        return (v, v)
    cs = x.coeffs
    # start from the requested level only: the result must not depend on how
    # refined the passed place object happens to be
    bits = max(precision_bits, 8)
    while True:
        pl = place.refined(bits)
        iv = (Fraction(0), Fraction(0))
        theta = (pl.lo, pl.hi)
        for c in reversed(cs):
            iv = iv_add(iv_mul(iv, theta), (c, c))
        mid = (iv[0] + iv[1]) / 2
        if iv_width(iv) <= Fraction(1, 2**precision_bits) * (1 + abs(mid)):
            return iv
        bits *= 2


def embedding_intervals(place: RealEmbeddingInterval):
    """(elements, bits) -> their eval_embedding intervals at this place.

    Each interval is computed once per (coefficients, bits) and kept in a memo
    owned by the returned function, so a point set built from a few distinct
    coordinate values costs a few evaluations.  Elements must lie in the
    place's field; the memo is keyed by coefficients alone.
    """
    memo = {}

    def intervals(elements, bits):
        out = []
        for x in elements:
            key = (x.coeffs, bits)
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


def _embedding_surd(x: NFElem, place: RealEmbeddingInterval) -> tuple[Fraction, Fraction]:
    """(p, q) with sigma(x) = p + q*sqrt(disc) exactly at this place."""
    if x.field != place.field:
        raise UsageError("element and place from different fields")
    if place.is_exact:
        return x.coeffs[0], Fraction(0)
    a, b = x.coeffs
    half_b = b / 2
    return a - x.field.min_poly[1] * half_b, half_b if place.root_index else -half_b


def cmp_embedding(x: NFElem, place: RealEmbeddingInterval, r) -> int:
    """Exact sign of sigma(x) - r for rational r: -1, 0, or +1."""
    p, q = _embedding_surd(x, place)
    return surd_sign(p - Fraction(r), q, place.field.disc)


def abs_embedding_leq(x: NFElem, place: RealEmbeddingInterval, bound) -> bool:
    """Exact decision of |sigma(x)| <= bound (closed at the boundary)."""
    bound = Fraction(bound)
    if bound < 0:
        return False
    p, q = _embedding_surd(x, place)
    d = place.field.disc
    return surd_sign(p - bound, q, d) <= 0 and surd_sign(p + bound, q, d) >= 0


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

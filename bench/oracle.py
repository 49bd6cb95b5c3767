"""Independent patch oracle for the two quadratic fields the benchmark uses.

It decides |sigma(a + b*theta)| <= r under both real embeddings by exact
integer sign tests on u + v*sqrt(D), and imports nothing from meyerlab, so a
defect in the program's enumeration or comparisons cannot hide itself here.

Embedding convention (the program's default): the roots of the minimal
polynomial ascend, the physical place is the larger root and the internal
place the smaller one.

* golden: theta = (1 +- sqrt5)/2, so 2*sigma(x) = (2a + b) +- b*sqrt5.
* sqrt2:  theta = +- sqrt2,       so   sigma(x) =  a      +- b*sqrt2.
"""

from __future__ import annotations

import math
from fractions import Fraction

# field name -> (D, m, p(a, b), q(b)) with sigma_s(x) = (p + s*q*sqrt(D)) / m
FIELDS = {
    "golden": (5, 2, lambda a, b: 2 * a + b, lambda b: b),
    "sqrt2": (2, 1, lambda a, b: a, lambda b: b),
}
PHYSICAL, INTERNAL = 1, -1  # sign of sqrt(D) in each embedding


def sign_surd(u: int, v: int, d: int) -> int:
    """Exact sign of u + v*sqrt(d) for integers u, v and a non-square d > 0."""
    if u >= 0 and v >= 0:
        return 1 if (u or v) else 0
    if u <= 0 and v <= 0:
        return -1
    lhs, rhs = u * u, v * v * d
    if u > 0:  # v < 0
        return (lhs > rhs) - (lhs < rhs)
    return (rhs > lhs) - (rhs < lhs)


def abs_leq(field: str, a: int, b: int, s: int, r: Fraction) -> bool:
    """|sigma_s(a + b*theta)| <= r, decided exactly."""
    d, m, p, q = FIELDS[field]
    r = Fraction(r)
    if r < 0:
        return False
    P = r.denominator * p(a, b)
    Q = s * r.denominator * q(b)
    B = m * r.numerator
    return sign_surd(B - P, -Q, d) >= 0 and sign_surd(B + P, Q, d) >= 0


def patch_coeffs(field: str, radius, halfwidth) -> set[tuple[int, int]]:
    """All (a, b) with |sigma_phys| <= radius and |sigma_int| <= halfwidth.

    Floats only bound the scan (padded by 2 on every side); every candidate
    is then decided exactly, so the result is complete and exact.
    """
    R, c = Fraction(radius), Fraction(halfwidth)
    if field == "golden":
        t_phys, t_int = (1 + math.sqrt(5)) / 2, (1 - math.sqrt(5)) / 2
    else:
        t_phys, t_int = math.sqrt(2), -math.sqrt(2)
    b_max = math.floor(float(R + c) / (t_phys - t_int)) + 2
    out = set()
    for b in range(-b_max, b_max + 1):
        lo = max(-float(R) - b * t_phys, -float(c) - b * t_int)
        hi = min(float(R) - b * t_phys, float(c) - b * t_int)
        for a in range(math.floor(lo) - 2, math.ceil(hi) + 3):
            if abs_leq(field, a, b, INTERNAL, c) and abs_leq(field, a, b, PHYSICAL, R):
                out.add((a, b))
    return out


def zs_points(primes, levels, radius) -> set[Fraction]:
    """Z[1/(p1...pm)] cut by the balls p^-k Z_p and |q| <= radius.

    For the lattice Z[1/P] the ball conditions say exactly that the
    denominator divides prod p^k, so the set is (1/prod p^k) Z in the radius.
    """
    step = Fraction(1)
    for p, k in zip(primes, levels):
        step /= Fraction(p) ** k
    n_max = math.floor(Fraction(radius) / step)
    return {n * step for n in range(-n_max, n_max + 1)}


def element_list(field: str, radius, halfwidth) -> list[list[str]]:
    """Patch points as power-basis coefficient strings, in a fixed order.

    The set is symmetric and holds 0, as `pisot certify` requires.
    """
    return [[str(a), str(b)] for a, b in sorted(patch_coeffs(field, radius, halfwidth))]


def patch_artifact(field: str, radius, halfwidth) -> dict:
    """A 1-d `patch` artifact in the program's file format, made by the oracle.

    Points are in the program's order (sorted by power-basis coefficients).
    """
    min_poly = {"golden": [-1, -1, 1], "sqrt2": [-2, 0, 1]}[field]
    return {
        "type": "patch",
        "scheme": {"kind": "galois", "field": {"min_poly": min_poly}, "dim": 1, "physical_root_index": 1},
        "window": {"real": [str(Fraction(halfwidth))], "padic": []},
        "radius": str(Fraction(radius)),
        "points": [[[str(a), str(b)]] for a, b in sorted(patch_coeffs(field, radius, halfwidth))],
    }


def field_of(min_poly) -> str:
    """Oracle field name for a serialized minimal polynomial."""
    return {(-1, -1, 1): "golden", (-2, 0, 1): "sqrt2"}[tuple(min_poly)]


def _coeff_pair(coeffs) -> tuple[int, int]:
    a, b = (Fraction(c) for c in coeffs)
    if a.denominator != 1 or b.denominator != 1:
        raise ValueError(f"non-integral lattice point {coeffs!r}")
    return int(a), int(b)


def check_patch(data: dict, want=None) -> str | None:
    """None when a `patch` artifact equals the oracle's set, else a reason.

    `want` is the oracle's set when the caller computed it beforehand.
    """
    scheme = data["scheme"]
    radius = Fraction(data["radius"])
    if scheme["kind"] == "zs":
        primes = scheme["primes"]
        levels = dict((p, k) for p, k in data["window"]["padic"])
        if want is None:
            want = zs_points(primes, [levels[p] for p in primes], radius)
        got = {Fraction(q) for q in data["points"]}
        if len(got) != len(data["points"]):
            return "duplicate points"
        return None if got == want else f"zs point set differs ({len(got)} vs {len(want)})"
    if scheme["physical_root_index"] != 1 or scheme["dim"] != 1:
        return "oracle covers 1-dimensional patches with the default embeddings"
    field = field_of(scheme["field"]["min_poly"])
    (c,) = (Fraction(w) for w in data["window"]["real"])
    if want is None:
        want = patch_coeffs(field, radius, c)
    got = [_coeff_pair(p[0]) for p in data["points"]]
    if len(set(got)) != len(got):
        return "duplicate points"
    return None if set(got) == want else f"point set differs ({len(got)} vs {len(want)})"


def check_heis_patch(data: dict) -> str | None:
    """None when a `heis_patch` is the product of the three oracle coordinate sets."""
    scheme = data["scheme"]
    if scheme["physical_root_index"] != 1:
        return "oracle covers the default embeddings only"
    field = field_of(scheme["field"]["min_poly"])
    radius = Fraction(data["radius"])
    want = [patch_coeffs(field, radius, Fraction(c)) for c in scheme["window"]]
    points = [tuple(_coeff_pair(coord) for coord in p) for p in data["points"]]
    if len(set(points)) != len(points):
        return "duplicate points"
    for axis, name in enumerate("xyz"):
        if {p[axis] for p in points} != want[axis]:
            return f"{name} coordinates differ from the oracle"
    if len(points) != len(want[0]) * len(want[1]) * len(want[2]):
        return "patch is not the full product of its coordinate sets"
    return None

"""Cut-and-project schemes for abelian groups.

Two scheme kinds are supported exactly:

* GALOIS: physical R^n and internal R^n through the two real embeddings of a
  real quadratic field, lattice O_K^n (power basis Z[theta], which is the full
  ring of integers for the monogenic desk fields).
* ZS: physical R, internal a product of Q_p factors, lattice Z[1/(p_1...p_m)]
  embedded diagonally.

Patches are complete by construction: coefficient boxes derived from exact
bounds are enumerated and filtered with certified comparisons, so a patch is
the entire intersection of the model set with the requested ball.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from fractions import Fraction

from . import heis, verify
from .errors import (
    CoverSearchFailed,
    ResourceLimit,
    UnsupportedSubgroup,
    UsageError,
)
from .exactnum import (
    NFElem,
    NumberField,
    RealEmbeddingInterval,
    abs_embedding_leq,
    embedding_intervals,
    eval_embedding,
    floor_surd,
    frac_str,
    is_prime,
    padic_valuation,
    prime_factors,
    str_frac,
)

DEFAULT_CANDIDATE_LIMIT = 5_000_000
DEFAULT_SEARCH_CAP_DOUBLINGS = 12


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------


class Window:
    """Symmetric compact window: real boxes [-c, c] and p-adic balls p^-k Z_p."""

    __slots__ = ("real_halfwidths", "padic_balls")

    def __init__(
        self,
        real_halfwidths: tuple[Fraction, ...] = (),
        padic_balls: tuple[tuple[int, int], ...] = (),  # (prime, level k)
    ):
        if not real_halfwidths and not padic_balls:
            raise UsageError("window must have at least one component")
        for c in real_halfwidths:
            if c <= 0:
                raise UsageError("real window halfwidths must be positive")
        for p, _k in padic_balls:
            if not is_prime(p):
                raise UsageError(f"window prime {p} is not prime")
        self.real_halfwidths = real_halfwidths
        self.padic_balls = padic_balls

    def _key(self):
        return (self.real_halfwidths, self.padic_balls)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"Window(real_halfwidths={self.real_halfwidths!r}, padic_balls={self.padic_balls!r})"
        )

    @staticmethod
    def box(*halfwidths) -> "Window":
        return Window(real_halfwidths=tuple(Fraction(c) for c in halfwidths))

    @staticmethod
    def balls(*levels: tuple[int, int]) -> "Window":
        return Window(padic_balls=tuple((int(p), int(k)) for p, k in levels))

    def same_shape(self, other: "Window") -> bool:
        return len(self.real_halfwidths) == len(other.real_halfwidths) and tuple(
            p for p, _ in self.padic_balls
        ) == tuple(p for p, _ in other.padic_balls)

    def to_dict(self) -> dict:
        return {
            "real": [frac_str(c) for c in self.real_halfwidths],
            "padic": [[p, k] for p, k in self.padic_balls],
        }

    @staticmethod
    def from_dict(data: dict) -> "Window":
        return Window(
            real_halfwidths=tuple(str_frac(c) for c in data.get("real", [])),
            padic_balls=tuple((int(p), int(k)) for p, k in data.get("padic", [])),
        )


def window_product(w1: Window, w2: Window) -> Window:
    """Sumset window: boxes add, balls take the coarser level."""
    if not w1.same_shape(w2):
        raise UsageError("window shapes do not match")
    return Window(
        real_halfwidths=tuple(a + b for a, b in zip(w1.real_halfwidths, w2.real_halfwidths)),
        padic_balls=tuple(
            (p, max(k1, k2)) for (p, k1), (_, k2) in zip(w1.padic_balls, w2.padic_balls)
        ),
    )


# ---------------------------------------------------------------------------
# Schemes
#
# Each scheme owns the format of its points: `patch_type` tags its patch
# artifacts, and point_to_json/point_from_json, csv_header/csv_row/
# point_from_csv and sort_key write, read and order one point.  `model_set`
# builds the complete patch for a window and radius.
# ---------------------------------------------------------------------------


class ZSScheme:
    """Physical R, internal prod Q_p, lattice Z[1/(p_1...p_m)] diagonal.

    A point is the Fraction it embeds as.
    """

    kind = "zs"
    patch_type = "patch"

    def __init__(self, primes: Sequence[int]):
        ps = tuple(sorted(set(int(p) for p in primes)))
        if not ps:
            raise UsageError("ZS scheme needs at least one prime")
        for p in ps:
            if not is_prime(p):
                raise UsageError(f"{p} is not prime")
        self.primes = ps

    def __repr__(self):
        return f"ZSScheme({list(self.primes)})"

    def __eq__(self, other):
        return isinstance(other, ZSScheme) and self.primes == other.primes

    def validate_window(self, window: Window):
        if window.real_halfwidths:
            raise UsageError("ZS windows have no real component")
        if tuple(p for p, _ in window.padic_balls) != self.primes:
            raise UsageError("window primes must match the scheme primes in order")

    def in_lattice(self, q: Fraction) -> bool:
        return all(p in self.primes for p in prime_factors(Fraction(q).denominator))

    def group_ops(self) -> verify.GroupOps:
        return verify.rational_line_ops()

    def model_set(self, window: Window, radius) -> "Patch":
        return model_set_patch(self, window, radius)

    def to_dict(self) -> dict:
        return {"kind": "zs", "primes": list(self.primes)}

    def point_to_json(self, q: Fraction) -> str:
        return frac_str(q)

    def point_from_json(self, data) -> Fraction:
        if type(data) not in (str, int):
            raise UsageError(f"a zs point is a rational string, not {data!r}")
        return str_frac(data)

    def csv_header(self) -> str:
        return "x"

    def csv_row(self, q: Fraction) -> str:
        return frac_str(q)

    def point_from_csv(self, row: str) -> Fraction:
        return str_frac(row)

    def sort_key(self, q: Fraction):
        return (q,)


class QuadraticScheme:
    """Places and point format shared by the schemes over a real quadratic field.

    A point is a sequence of field elements, one per name in `coords`, and
    `point` builds one from its coordinates.  sigma_1 is the physical place.
    """

    @property
    def physical_place(self) -> RealEmbeddingInterval:
        return self.field.real_roots()[self.physical_root_index]

    @property
    def internal_place(self) -> RealEmbeddingInterval:
        return self.field.real_roots()[1 - self.physical_root_index]

    def point_to_json(self, p) -> list:
        return [x.to_list() for x in p]

    def point_from_json(self, data):
        n = len(self.coords)
        if not (type(data) is list and len(data) == n and all(type(x) is list for x in data)):
            raise UsageError(
                f"a {self.kind} point is one coefficient list per coordinate, not {data!r}"
            )
        return self.point(self.field.elem([str_frac(c) for c in x]) for x in data)

    def csv_header(self) -> str:
        return ",".join(f"{name}_c{i}" for name in self.coords for i in (0, 1))

    def csv_row(self, p) -> str:
        return ",".join(frac_str(c) for x in p for c in x.coeffs)

    def point_from_csv(self, row: str):
        cells = row.split(",")
        return self.point(
            self.field.elem([str_frac(c) for c in cells[i : i + 2]])
            for i in range(0, 2 * len(self.coords), 2)
        )

    def sort_key(self, p):
        return tuple(c for x in p for c in x.coeffs)


class GaloisScheme(QuadraticScheme):
    """Physical R^n via sigma_1, internal R^n via sigma_2, lattice Z[theta]^n.

    A point is a tuple of n field elements.
    """

    kind = "galois"
    patch_type = "patch"

    def __init__(self, field: NumberField, dim: int = 1, physical_root_index: int | None = None):
        if field.degree != 2:
            raise UsageError("GALOIS schemes need a real quadratic field")
        roots = field.real_roots()
        if len(roots) != 2:
            raise UsageError("GALOIS schemes need a totally real quadratic field")
        if dim < 1:
            raise UsageError("dimension must be >= 1")
        if physical_root_index is None:
            physical_root_index = 1  # roots ascend; by convention sigma_1 is the larger root
        if physical_root_index not in (0, 1):
            raise UsageError("physical_root_index must be 0 or 1")
        self.field = field
        self.dim = dim
        self.physical_root_index = physical_root_index

    def __repr__(self):
        return f"GaloisScheme({self.field!r}, dim={self.dim})"

    def __eq__(self, other):
        return (
            isinstance(other, GaloisScheme)
            and self.field == other.field
            and self.dim == other.dim
            and self.physical_root_index == other.physical_root_index
        )

    @property
    def coords(self) -> tuple[str, ...]:
        return tuple(f"x{i}" for i in range(self.dim))

    def point(self, coords) -> tuple:
        return tuple(coords)

    def validate_window(self, window: Window):
        if window.padic_balls:
            raise UsageError("GALOIS windows have no p-adic component")
        if len(window.real_halfwidths) != self.dim:
            raise UsageError("window dimension must match the scheme dimension")

    def group_ops(self) -> verify.GroupOps:
        zero = tuple(self.field.zero() for _ in range(self.dim))
        return verify.GroupOps(
            mul=lambda a, b: tuple(x + y for x, y in zip(a, b)),
            inv=lambda a: tuple(-x for x in a),
            identity=zero,
            sort_key=self.sort_key,
            coord_intervals=embedding_intervals(self.physical_place),
            dim=self.dim,
        )

    def model_set(self, window: Window, radius) -> "Patch":
        return model_set_patch(self, window, radius)

    def to_dict(self) -> dict:
        return {
            "kind": "galois",
            "field": self.field.to_dict(),
            "dim": self.dim,
            "physical_root_index": self.physical_root_index,
        }


def scheme_from_dict(data: dict, kind: str | None = None):
    """The scheme `to_dict` wrote; `kind`, when given, is the only kind accepted."""
    if type(data) is not dict:
        raise UsageError(f"a scheme is a JSON object, not {data!r}")
    if kind not in (None, data["kind"]):
        raise UsageError(f"expected a {kind} scheme, not {data['kind']!r}")
    if data["kind"] == "zs":
        return ZSScheme(data["primes"])
    if data["kind"] == "galois":
        return GaloisScheme(
            NumberField.from_dict(data["field"]),
            dim=data.get("dim", 1),
            physical_root_index=data.get("physical_root_index", 1),
        )
    if data["kind"] == "heis":
        return heis.HeisScheme(
            NumberField.from_dict(data["field"]),
            [str_frac(c) for c in data["window"]],
            physical_root_index=data.get("physical_root_index", 1),
        )
    raise UsageError(f"unknown scheme kind {data['kind']!r}")


# ---------------------------------------------------------------------------
# Patches
# ---------------------------------------------------------------------------


class Patch:
    """Complete exact fragment of a model set: all points in the R-ball.

    `window` is None for a scheme that carries its own window (Heisenberg).
    """

    __slots__ = ("scheme", "window", "radius", "points")

    def __init__(self, scheme, window: Window | None, radius: Fraction, points: tuple):
        self.scheme = scheme
        self.window = window
        self.radius = radius
        self.points = points

    def __len__(self):
        return len(self.points)

    def group_ops(self) -> verify.GroupOps:
        return self.scheme.group_ops()

    def to_dict(self) -> dict:
        data = {
            "type": self.scheme.patch_type,
            "scheme": self.scheme.to_dict(),
            "radius": frac_str(self.radius),
            "points": [self.scheme.point_to_json(p) for p in self.points],
        }
        if self.window is not None:
            data["window"] = self.window.to_dict()
        return data

    @staticmethod
    def from_dict(data: dict) -> "Patch":
        scheme = scheme_from_dict(data["scheme"])
        if data["type"] != scheme.patch_type:
            raise UsageError(f"a {data['type']} artifact cannot hold a {scheme.kind} scheme")
        window = None if hasattr(scheme, "window") else Window.from_dict(data["window"])
        radius = str_frac(data["radius"])
        if type(data["points"]) is not list:
            raise UsageError("the points of a patch are a JSON list")
        points = tuple(scheme.point_from_json(p) for p in data["points"])
        return Patch(scheme, window, radius, points)


def enumerate_window_elements(
    field: NumberField,
    physical_place: RealEmbeddingInterval,
    internal_place: RealEmbeddingInterval,
    physical_radius,
    internal_halfwidth,
    candidate_limit: int = DEFAULT_CANDIDATE_LIMIT,
) -> list[NFElem]:
    """All x in Z[theta] with |sigma_phys(x)| <= R and |sigma_int(x)| <= c.

    The two linear constraints cut an exact parallelogram in (a, b); its
    bounding box is derived from certified root bounds and caps the work.
    Each row b is the integer range of a with |a + b*sigma(theta)| <= bound
    for both places; sigma(theta) = (-c1 +- sqrt(disc))/2, so the range's end
    points are exact floors of surds, computed with math.isqrt.
    """
    R = Fraction(physical_radius)
    c = Fraction(internal_halfwidth)
    if R < 0 or c < 0:
        raise UsageError("radii must be nonnegative")
    p1 = physical_place.refined(96)
    p2 = internal_place.refined(96)
    gap_lo = max(p2.lo - p1.hi, p1.lo - p2.hi)  # certified lower bound on |t1 - t2|
    if gap_lo <= 0:
        raise UsageError("embedding intervals are not separated; refine the field roots")
    t1_abs = max(abs(p1.lo), abs(p1.hi))
    t2_abs = max(abs(p2.lo), abs(p2.hi))
    b_max = math.floor((R + c) / gap_lo)
    a_max = math.floor((R * t2_abs + c * t1_abs) / gap_lo)
    count = (2 * a_max + 1) * (2 * b_max + 1)
    if count > candidate_limit:
        raise ResourceLimit(
            f"coefficient box holds {count} candidates, above the limit {candidate_limit}"
        )

    c1, disc = field.min_poly[1], field.disc
    found = []
    for b in range(-b_max, b_max + 1):
        a_lo, a_hi = -a_max, a_max
        for place, bound in ((physical_place, R), (internal_place, c)):
            # -n/m <= a + b*(-c1 + sign*sqrt(disc))/2 <= n/m, multiplied by 2m
            n, m = bound.numerator, bound.denominator
            q = m * b if place.root_index else -m * b
            a_lo = max(a_lo, -floor_surd(2 * n - m * b * c1, q, disc, 2 * m))
            a_hi = min(a_hi, floor_surd(2 * n + m * b * c1, -q, disc, 2 * m))
        found.extend((a, b) for a in range(a_lo, a_hi + 1))
    found.sort()
    return [NFElem(field, a, b) for a, b in found]


def model_set_patch(
    scheme,
    window: Window,
    radius,
    candidate_limit: int = DEFAULT_CANDIDATE_LIMIT,
) -> Patch:
    """Complete patch of the model set p_G(Gamma ∩ G x W) inside the R-ball."""
    radius = Fraction(radius)
    if radius <= 0:
        raise UsageError("radius must be positive")
    scheme.validate_window(window)
    if scheme.kind == "zs":
        points = _zs_patch_points(scheme, window, radius, candidate_limit)
    else:
        points = box_points(scheme, window.real_halfwidths, radius, candidate_limit)
    return Patch(scheme, window, radius, tuple(points))


def box_points(
    scheme: QuadraticScheme, halfwidths, radius, candidate_limit: int = DEFAULT_CANDIDATE_LIMIT
) -> list:
    """Points whose coordinates each lie in their window and the R-ball, in scheme order."""
    per_dim = [
        enumerate_window_elements(
            scheme.field,
            scheme.physical_place,
            scheme.internal_place,
            radius,
            c,
            candidate_limit=candidate_limit,
        )
        for c in halfwidths
    ]
    total = math.prod(len(lst) for lst in per_dim)
    if total > candidate_limit:
        raise ResourceLimit(f"patch would hold {total} points, above the limit")
    return sorted(map(scheme.point, itertools.product(*per_dim)), key=scheme.sort_key)


def _zs_patch_points(scheme: ZSScheme, window: Window, radius: Fraction, candidate_limit: int):
    step = Fraction(1)
    for p, k in window.padic_balls:
        step *= Fraction(p) ** (-k)
    n_max = math.floor(radius / step)
    if 2 * n_max + 1 > candidate_limit:
        raise ResourceLimit(f"{2 * n_max + 1} candidates exceed the limit")
    points = []
    for n in range(-n_max, n_max + 1):
        q = n * step
        # each candidate is verified against the lattice and every ball constraint
        if not scheme.in_lattice(q):
            continue
        if any(padic_valuation(q, p) < -k for p, k in window.padic_balls):
            continue
        if abs(q) > radius:
            continue
        points.append(q)
    points.sort()
    return points


# ---------------------------------------------------------------------------
# Greedy interval covers of internal windows (shared by cps, places, heis).
# ---------------------------------------------------------------------------


class DimCover:
    """Translates whose internal tiles [t - c, t + c] cover a target interval.

    `claimed` stores conservative rational tiles derived from certified
    embedding intervals, so coverage replays by pure rational arithmetic.
    """

    __slots__ = (
        "elements", "claimed", "tile_halfwidth", "target_lo", "target_hi", "precision_bits"
    )

    def __init__(
        self,
        elements: tuple[NFElem, ...],
        claimed: tuple[tuple[Fraction, Fraction], ...],
        tile_halfwidth: Fraction,
        target_lo: Fraction,
        target_hi: Fraction,
        precision_bits: int,
    ):
        self.elements = elements
        self.claimed = claimed
        self.tile_halfwidth = tile_halfwidth
        self.target_lo = target_lo
        self.target_hi = target_hi
        self.precision_bits = precision_bits

    def chain_covers(self) -> bool:
        ivs = sorted(self.claimed)
        covered = self.target_lo
        for lo, hi in ivs:
            if lo > covered:
                return False
            covered = max(covered, hi)
            if covered >= self.target_hi:
                return True
        return covered >= self.target_hi

    def replay(self, internal_place: RealEmbeddingInterval) -> bool:
        """Check the tiles and their chain; every translate must lie in Z[theta].

        Each claimed tile must belong to one translate, since the chain is
        built from the claimed tiles alone.
        """
        if len(self.claimed) != len(self.elements):
            return False
        if any(c.denominator != 1 for elem in self.elements for c in elem.coeffs):
            return False
        for elem, (clo, chi) in zip(self.elements, self.claimed):
            lo, hi = eval_embedding(elem, internal_place, self.precision_bits)
            if clo < hi - self.tile_halfwidth or chi > lo + self.tile_halfwidth:
                return False
        return self.chain_covers()

    def to_dict(self) -> dict:
        return {
            "elements": [e.to_list() for e in self.elements],
            "claimed": [[frac_str(lo), frac_str(hi)] for lo, hi in self.claimed],
            "tile_halfwidth": frac_str(self.tile_halfwidth),
            "target": [frac_str(self.target_lo), frac_str(self.target_hi)],
            "precision_bits": self.precision_bits,
        }

    @staticmethod
    def from_dict(data: dict, field: NumberField) -> "DimCover":
        return DimCover(
            elements=tuple(field.elem([str_frac(c) for c in e]) for e in data["elements"]),
            claimed=tuple((str_frac(lo), str_frac(hi)) for lo, hi in data["claimed"]),
            tile_halfwidth=str_frac(data["tile_halfwidth"]),
            target_lo=str_frac(data["target"][0]),
            target_hi=str_frac(data["target"][1]),
            precision_bits=data["precision_bits"],
        )


def greedy_interval_cover(
    target_lo,
    target_hi,
    tile_halfwidth,
    candidates: Sequence[NFElem],
    internal_place: RealEmbeddingInterval,
    bits: int = 96,
):
    """Greedy cover of [target_lo, target_hi] by conservative tiles around candidates.

    Returns (chosen, None) on success or (None, progress) where progress is the
    point up to which coverage was achieved.
    """
    target_lo = Fraction(target_lo)
    target_hi = Fraction(target_hi)
    c = Fraction(tile_halfwidth)
    tiles = []
    for x in candidates:
        lo, hi = eval_embedding(x, internal_place, bits)
        cov_lo, cov_hi = hi - c, lo + c
        if cov_lo <= cov_hi:
            tiles.append((cov_lo, cov_hi, x))
    tiles.sort(key=lambda t: (t[0], t[1], t[2].coeffs))
    chosen = []
    covered = target_lo
    first = True
    while first or covered < target_hi:
        best = None
        for cov_lo, cov_hi, x in tiles:
            if cov_lo > covered:
                break
            if best is None or cov_hi > best[1]:
                best = (cov_lo, cov_hi, x)
        if best is None or (not first and best[1] <= covered):
            return None, covered
        chosen.append(best)
        covered = best[1]
        first = False
        if covered >= target_hi:
            break
    return chosen, None


def cover_dimension(
    field: NumberField,
    physical_place: RealEmbeddingInterval,
    internal_place: RealEmbeddingInterval,
    target_halfwidth,
    tile_halfwidth,
    bits: int = 96,
    search_doublings: int = DEFAULT_SEARCH_CAP_DOUBLINGS,
) -> DimCover:
    """Cover [-c1, c1] by tiles t + [-c2, c2] with t from lattice internal images."""
    c1 = Fraction(target_halfwidth)
    c2 = Fraction(tile_halfwidth)
    search = 2 * (c1 + c2) + 2
    progress = None
    for _ in range(search_doublings):
        candidates = enumerate_window_elements(
            field, physical_place, internal_place, search, c1 + c2
        )
        chosen, progress = greedy_interval_cover(-c1, c1, c2, candidates, internal_place, bits)
        if chosen is not None:
            return DimCover(
                elements=tuple(x for _, _, x in chosen),
                claimed=tuple((lo, hi) for lo, hi, _ in chosen),
                tile_halfwidth=c2,
                target_lo=-c1,
                target_hi=c1,
                precision_bits=bits,
            )
        search *= 2
    raise CoverSearchFailed(
        f"interval cover stalled at {progress} before reaching {c1}", progress=progress
    )


# ---------------------------------------------------------------------------
# Global covering certificates.
# ---------------------------------------------------------------------------


class PadicCosetCover:
    """Residues j * prod p^-k1 representing the cosets of the W2 ball in the W1 ball."""

    __slots__ = ("primes", "k1", "k2", "residues")

    def __init__(
        self,
        primes: tuple[int, ...],
        k1: tuple[int, ...],
        k2: tuple[int, ...],
        residues: tuple[Fraction, ...],
    ):
        self.primes = primes
        self.k1 = k1
        self.k2 = k2
        self.residues = residues

    def replay(self) -> bool:
        expected = 1
        for p, a, b in zip(self.primes, self.k1, self.k2):
            expected *= p ** max(0, a - b)
        if len(self.residues) != expected:
            return False
        for q in self.residues:
            for p, a in zip(self.primes, self.k1):
                if padic_valuation(q, p) < -a:
                    return False
            if any(pf not in self.primes for pf in prime_factors(q.denominator)):
                return False
        for i in range(len(self.residues)):
            for j in range(i + 1, len(self.residues)):
                diff = self.residues[i] - self.residues[j]
                if all(padic_valuation(diff, p) >= -b for p, b in zip(self.primes, self.k2)):
                    return False  # two representatives fell in the same coset
        return True

    def to_dict(self) -> dict:
        return {
            "primes": list(self.primes),
            "k1": list(self.k1),
            "k2": list(self.k2),
            "residues": [frac_str(q) for q in self.residues],
        }

    @staticmethod
    def from_dict(data: dict) -> "PadicCosetCover":
        return PadicCosetCover(
            primes=tuple(data["primes"]),
            k1=tuple(data["k1"]),
            k2=tuple(data["k2"]),
            residues=tuple(str_frac(q) for q in data["residues"]),
        )


class GlobalCoverCertificate:
    """Evidence that Lambda(W1) is inside F + Lambda(W2), globally.

    For every internal translate the conservative tile data is stored, so the
    window-covering claim replays from the serialized certificate alone.
    """

    __slots__ = ("scheme", "w1", "w2", "dim_covers", "padic_cover")

    def __init__(
        self,
        scheme,
        w1: Window,
        w2: Window,
        dim_covers: tuple[DimCover, ...] = (),
        padic_cover: PadicCosetCover | None = None,
    ):
        self.scheme = scheme
        self.w1 = w1
        self.w2 = w2
        self.dim_covers = dim_covers
        self.padic_cover = padic_cover

    @property
    def translates(self) -> list:
        if self.scheme.kind == "zs":
            return list(self.padic_cover.residues)
        pools = [list(dc.elements) for dc in self.dim_covers]
        return sorted(itertools.product(*pools), key=self.scheme.sort_key)

    def replay(self) -> bool:
        if self.scheme.kind == "zs":
            return self.padic_cover is not None and self.padic_cover.replay()
        place = self.scheme.internal_place
        for dc, c1, c2 in zip(
            self.dim_covers, self.w1.real_halfwidths, self.w2.real_halfwidths
        ):
            if dc.tile_halfwidth != c2 or dc.target_hi != c1 or dc.target_lo != -c1:
                return False
            if not dc.replay(place):
                return False
        return len(self.dim_covers) == len(self.w1.real_halfwidths)

    def to_dict(self) -> dict:
        return {
            "type": "global_cover",
            "scheme": self.scheme.to_dict(),
            "w1": self.w1.to_dict(),
            "w2": self.w2.to_dict(),
            "dim_covers": [dc.to_dict() for dc in self.dim_covers],
            "padic": None if self.padic_cover is None else self.padic_cover.to_dict(),
        }

    @staticmethod
    def from_dict(data: dict) -> "GlobalCoverCertificate":
        scheme = scheme_from_dict(data["scheme"])
        dim_covers = ()
        if scheme.kind == "galois":
            dim_covers = tuple(DimCover.from_dict(d, scheme.field) for d in data["dim_covers"])
        padic = None if data.get("padic") is None else PadicCosetCover.from_dict(data["padic"])
        return GlobalCoverCertificate(
            scheme=scheme,
            w1=Window.from_dict(data["w1"]),
            w2=Window.from_dict(data["w2"]),
            dim_covers=dim_covers,
            padic_cover=padic,
        )


def global_covering_certificate(scheme, w1: Window, w2: Window) -> GlobalCoverCertificate:
    """F finite with Lambda(W1) inside F + Lambda(W2), by covering W1 with W2-tiles."""
    scheme.validate_window(w1)
    scheme.validate_window(w2)
    if scheme.kind == "zs":
        primes = scheme.primes
        k1 = tuple(k for _, k in w1.padic_balls)
        k2 = tuple(k for _, k in w2.padic_balls)
        count = 1
        step = Fraction(1)
        for p, a, b in zip(primes, k1, k2):
            count *= p ** max(0, a - b)
            step *= Fraction(p) ** (-a)
        residues = tuple(j * step for j in range(count))
        cert = GlobalCoverCertificate(
            scheme, w1, w2, padic_cover=PadicCosetCover(primes, k1, k2, residues)
        )
    else:
        covers = tuple(
            cover_dimension(
                scheme.field, scheme.physical_place, scheme.internal_place, c1, c2
            )
            for c1, c2 in zip(w1.real_halfwidths, w2.real_halfwidths)
        )
        cert = GlobalCoverCertificate(scheme, w1, w2, dim_covers=covers)
    if not cert.replay():
        raise AssertionError("freshly built covering certificate failed to replay")
    return cert


class ApproximateLatticeCertificate:
    """Lambda(W)^2 inside F + Lambda(W): window algebra plus a global cover."""

    __slots__ = ("scheme", "window", "cover", "delone", "patch_radius")

    def __init__(
        self,
        scheme,
        window: Window,
        cover: GlobalCoverCertificate,
        delone: verify.DeloneReport,
        patch_radius: Fraction,
    ):
        self.scheme = scheme
        self.window = window
        self.cover = cover
        self.delone = delone
        self.patch_radius = patch_radius

    @property
    def translates(self):
        return self.cover.translates

    def to_dict(self) -> dict:
        return {
            "type": "approximate_lattice",
            "scheme": self.scheme.to_dict(),
            "window": self.window.to_dict(),
            "cover": self.cover.to_dict(),
            "delone": self.delone.to_dict(),
            "patch_radius": frac_str(self.patch_radius),
        }


def approximate_lattice_certificate(
    scheme, window: Window, patch_radius=20
) -> ApproximateLatticeCertificate:
    """Certify the model set of `window` as a uniform approximate lattice.

    Lambda(W) + Lambda(W) lands in Lambda(W + W), which the global certificate
    covers by F + Lambda(W); the Delone report supplies the metric half.
    """
    wsq = window_product(window, window)
    cover = global_covering_certificate(scheme, wsq, window)
    patch = model_set_patch(scheme, window, patch_radius)
    inner = Fraction(patch_radius) / 2
    report = verify.delone_certify(
        patch.points, patch.group_ops(), inner, patch_radius=patch.radius
    )
    return ApproximateLatticeCertificate(scheme, window, cover, report, Fraction(patch_radius))


# ---------------------------------------------------------------------------
# Intersections with coordinate subgroups and quotient projections.
# ---------------------------------------------------------------------------


def _subgroup_axes(scheme, subgroup) -> tuple[int, ...]:
    """Validate a subgroup spec: axis indices, or vectors that must be axis-aligned."""
    if scheme.kind != "galois":
        raise UnsupportedSubgroup("subgroup intersection is defined for GALOIS schemes")
    axes = []
    for item in subgroup:
        if isinstance(item, int):
            if not 0 <= item < scheme.dim:
                raise UsageError(f"axis {item} out of range")
            axes.append(item)
            continue
        entries = list(item)
        nonzero = [i for i, e in enumerate(entries) if not _entry_is_zero(e)]
        if len(nonzero) != 1:
            raise UnsupportedSubgroup(
                "only subgroups spanned by standard coordinate axes are supported"
            )
        axes.append(nonzero[0])
    out = tuple(sorted(set(axes)))
    return out


def _entry_is_zero(e) -> bool:
    if isinstance(e, NFElem):
        return e.is_zero
    return Fraction(e) == 0


def _square_intersection_points(patch: Patch, axes: tuple[int, ...], inner_radius: Fraction):
    """Points of (patch + patch) ∩ N with coordinates restricted to `axes`."""
    scheme = patch.scheme
    off_axes = [i for i in range(scheme.dim) if i not in axes]
    by_off: dict = {}
    for p in patch.points:
        key = tuple(c for i in off_axes for c in p[i].coeffs)
        by_off.setdefault(key, []).append(p)
    place = scheme.physical_place
    seen = set()
    out = []
    for p in patch.points:
        neg_key = tuple(c for i in off_axes for c in (-p[i]).coeffs)
        for q in by_off.get(neg_key, ()):
            s = tuple(p[i] + q[i] for i in axes)
            if s in seen:
                continue
            seen.add(s)
            if all(abs_embedding_leq(x, place, inner_radius) for x in s):
                out.append(s)
    out.sort(key=scheme.sort_key)
    return out


class IntersectionResult:
    __slots__ = (
        "induced_scheme", "axes", "intersection_points", "induced_patch", "cover_to_induced",
        "cover_from_induced", "inner_radius",
    )

    def __init__(
        self,
        induced_scheme: GaloisScheme,
        axes: tuple[int, ...],
        intersection_points: list,
        induced_patch: Patch,
        cover_to_induced: verify.GreedyCover,
        cover_from_induced: verify.GreedyCover,
        inner_radius: Fraction,
    ):
        self.induced_scheme = induced_scheme
        self.axes = axes
        self.intersection_points = intersection_points
        self.induced_patch = induced_patch
        self.cover_to_induced = cover_to_induced
        self.cover_from_induced = cover_from_induced
        self.inner_radius = inner_radius


def intersect_with_subgroup(scheme, subgroup, window: Window, radius) -> IntersectionResult:
    """Induced scheme on a coordinate subgroup N plus a patch-level two-way cover.

    Verifies on patches that Lambda(W)^2 ∩ N and the induced model set patch
    (window W + W restricted to N) cover each other by finite translate sets.
    """
    axes = _subgroup_axes(scheme, subgroup)
    radius = Fraction(radius)
    if not axes:
        raise UnsupportedSubgroup("trivial subgroup has no induced scheme; use the patch directly")
    induced = GaloisScheme(scheme.field, dim=len(axes), physical_root_index=scheme.physical_root_index)
    patch = model_set_patch(scheme, window, radius)
    inter_points = _square_intersection_points(patch, axes, radius)
    w_axes = Window.box(*(2 * window.real_halfwidths[i] for i in axes))
    induced_patch = model_set_patch(induced, w_axes, radius)
    ops = induced.group_ops()
    inner = radius / 2
    a_pts = [p for p in inter_points if verify.point_norm_hi(p, ops) <= inner]
    b_pts = [p for p in induced_patch.points if verify.point_norm_hi(p, ops) <= inner]
    cover_ab, _ = verify.greedy_cover(a_pts, induced_patch.points, ops)
    cover_ba, _ = verify.greedy_cover(b_pts, inter_points, ops)
    return IntersectionResult(
        induced_scheme=induced,
        axes=axes,
        intersection_points=inter_points,
        induced_patch=induced_patch,
        cover_to_induced=cover_ab,
        cover_from_induced=cover_ba,
        inner_radius=inner,
    )


class ProjectionResult:
    __slots__ = (
        "quotient_scheme", "quotient_axes", "projected_points", "projection_min_separation",
        "intersection_report", "equivalence_consistent",
    )

    def __init__(
        self,
        quotient_scheme: GaloisScheme | None,
        quotient_axes: tuple[int, ...],
        projected_points: list,
        projection_min_separation: Fraction | None,
        intersection_report: verify.DeloneReport | None,
        equivalence_consistent: bool,
    ):
        self.quotient_scheme = quotient_scheme
        self.quotient_axes = quotient_axes
        self.projected_points = projected_points
        self.projection_min_separation = projection_min_separation
        self.intersection_report = intersection_report
        self.equivalence_consistent = equivalence_consistent


def project_to_quotient(scheme, subgroup, window: Window, radius) -> ProjectionResult:
    """Project Lambda(W) to G/N for a coordinate subgroup N.

    Reports the projection's minimal separation and the Delone report of
    Lambda(W)^2 ∩ N; by the intersection-projection equivalence both should
    hold together, and the combined verdict is returned.
    """
    axes = _subgroup_axes(scheme, subgroup)
    radius = Fraction(radius)
    quotient_axes = tuple(i for i in range(scheme.dim) if i not in axes)
    patch = model_set_patch(scheme, window, radius)
    if not quotient_axes:
        return ProjectionResult(None, (), [], None, None, True)
    projected = sorted(
        {tuple(p[i] for i in quotient_axes) for p in patch.points}, key=scheme.sort_key
    )
    qscheme = GaloisScheme(
        scheme.field, dim=len(quotient_axes), physical_root_index=scheme.physical_root_index
    )
    qops = qscheme.group_ops()
    min_sep = None
    if len(projected) >= 2:
        min_sep, _ = verify.min_separation(projected, qops)
    inter_report = None
    if axes:
        inter_points = _square_intersection_points(patch, axes, radius)
        iops = GaloisScheme(
            scheme.field, dim=len(axes), physical_root_index=scheme.physical_root_index
        ).group_ops()
        if len(inter_points) >= 2:
            inter_report = verify.delone_certify(
                inter_points, iops, Fraction(radius) / 2, patch_radius=radius
            )
    consistent = (min_sep is None or min_sep > 0) and (
        inter_report is None or inter_report.is_delone
    )
    return ProjectionResult(
        quotient_scheme=qscheme,
        quotient_axes=quotient_axes,
        projected_points=projected,
        projection_min_separation=min_sep,
        intersection_report=inter_report,
        equivalence_consistent=consistent,
    )

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
from operator import add, neg

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
    RationalLine,
    RealEmbeddingInterval,
    Record,
    abs_embedding_leq,
    cmp_embedding,
    eval_embedding,
    floor_surd,
    frac_str,
    is_prime,
    json_list,
    json_object,
    str_frac,
    str_int,
)

DEFAULT_CANDIDATE_LIMIT = 5_000_000
DEFAULT_SEARCH_CAP_DOUBLINGS = 12
TILE_BITS = 96  # precision of the intervals that bound cover-search tiles


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------


class Window(Record):
    """Symmetric compact window: real boxes [-c, c] and p-adic balls p^-k Z_p.
    A scheme's `validate_window` says which windows it takes."""

    __slots__ = ("real_halfwidths", "padic_balls")

    def __init__(
        self,
        real_halfwidths: tuple[Fraction, ...] = (),
        padic_balls: tuple[tuple[int, int], ...] = (),  # (prime, level k)
    ):
        if not real_halfwidths and not padic_balls:
            raise UsageError("window must have at least one component")
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

    @staticmethod
    def box(*halfwidths) -> "Window":
        """The box of the given half-widths, each positive."""
        window = Window(real_halfwidths=tuple(Fraction(c) for c in halfwidths))
        window.require_positive()
        return window

    def require_positive(self) -> None:
        if any(c <= 0 for c in self.real_halfwidths):
            raise UsageError("real window halfwidths must be positive")

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
    def from_dict(data: dict, scheme) -> "Window":
        """The window `to_dict` wrote, which must be one that `scheme` takes."""
        json_object(data, "a window is")
        real = json_list(data.get("real", []), "the real half-widths of a window are")
        padic = data.get("padic", [])
        if type(padic) is not list or any(type(b) is not list or len(b) != 2 for b in padic):
            raise UsageError(f"the p-adic balls of a window are [prime, level] pairs, not {padic!r}")
        window = Window(
            real_halfwidths=tuple(str_frac(c) for c in real),
            padic_balls=tuple((str_int(p), str_int(k)) for p, k in padic),
        )
        scheme.validate_window(window)
        return window


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
# artifacts, and point_to_json/point_from_json, csv_header/csv_row and
# sort_key write, read and order one point.  `model_set` builds the complete
# patch for a window and radius.  `cover_type` tags its window covers, and a
# scheme over a quadratic field gives each real axis's cover target by
# `cover_target`.
# ---------------------------------------------------------------------------


class ZSScheme(RationalLine):
    """Physical R, internal prod Q_p, lattice Z[1/(p_1...p_m)] diagonal.

    A point is the Fraction it embeds as.
    """

    kind = "zs"
    patch_type = "patch"
    cover_type = "global_cover"

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
        # prod p^|k| is compared with the candidate limit in log2, so that a huge
        # level builds no huge power; |k| is capped at 64 (p^64 is above the limit)
        # so that no level is too large for a float
        size_bits = sum(min(abs(k), 64) * math.log2(p) for p, k in window.padic_balls)
        if size_bits > math.log2(DEFAULT_CANDIDATE_LIMIT):
            raise UsageError(
                f"the window levels make prod p^|k| exceed the limit {DEFAULT_CANDIDATE_LIMIT}"
            )

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


class QuadraticScheme:
    """Places, point format and group structure shared by the schemes over a
    real quadratic field.

    A point is a tuple of field elements, one per name in `coords`; each
    scheme supplies its group law as `mul` and `inv`.  sigma_1 is the
    physical place.
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
        return tuple(self.field.elem_from_json(x) for x in data)

    def csv_header(self) -> str:
        return ",".join(f"{name}_c{i}" for name in self.coords for i in (0, 1))

    def csv_row(self, p) -> str:
        return ",".join(frac_str(c) for x in p for c in x.coeffs)

    @staticmethod
    def sort_key(p):
        return tuple(c for x in p for c in x.coeffs)

    @staticmethod
    def cover_target(w1: Window, w2: Window, covers: Sequence["DimCover"]) -> Fraction:
        """The half-width that the cover of the next real axis must reach, given
        the covers of the axes before it; coordinatewise addition needs W1's."""
        return w1.real_halfwidths[len(covers)]


class GaloisScheme(QuadraticScheme):
    """Physical R^n via sigma_1, internal R^n via sigma_2, lattice Z[theta]^n.

    A point is a tuple of n field elements, added coordinatewise.
    """

    kind = "galois"
    patch_type = "patch"
    cover_type = "global_cover"

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

    @staticmethod
    def mul(a: tuple, b: tuple) -> tuple:
        return tuple(map(add, a, b))

    @staticmethod
    def inv(a: tuple) -> tuple:
        return tuple(map(neg, a))

    def validate_window(self, window: Window):
        window.require_positive()
        if window.padic_balls:
            raise UsageError("GALOIS windows have no p-adic component")
        if len(window.real_halfwidths) != self.dim:
            raise UsageError("window dimension must match the scheme dimension")

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
    json_object(data, "a scheme is")
    if kind not in (None, data["kind"]):
        raise UsageError(f"expected a {kind} scheme, not {data['kind']!r}")
    if data["kind"] == "zs":
        primes = json_list(data["primes"], "the primes of a zs scheme are")
        return ZSScheme([str_int(p) for p in primes])
    if data["kind"] == "galois":
        return GaloisScheme(
            NumberField.from_dict(data["field"]),
            dim=str_int(data.get("dim", 1)),
            physical_root_index=str_int(data.get("physical_root_index", 1)),
        )
    if data["kind"] == "heis":
        window = json_list(data["window"], "the window of a heis scheme is")
        return heis.HeisScheme(
            NumberField.from_dict(data["field"]),
            [str_frac(c) for c in window],
            physical_root_index=str_int(data.get("physical_root_index", 1)),
        )
    raise UsageError(f"unknown scheme kind {data['kind']!r}")


# ---------------------------------------------------------------------------
# Patches
# ---------------------------------------------------------------------------


class Patch(Record):
    """Complete exact fragment of a model set: all points in the R-ball.

    Every patch is built by enumeration (`model_set_patch`, `box_patch`), so
    it keeps the 1-D lists it was enumerated from as `factors`: `points` is
    their coordinate product in scheme order (a zs patch is its own single
    factor).  `window` is None for a scheme that carries its own window
    (Heisenberg).
    """

    __slots__ = ("scheme", "window", "radius", "points", "factors")

    def __len__(self):
        return len(self.points)

    def inputs_dict(self) -> dict:
        """What `to_dict` writes but the points: the type, scheme, window
        (unless the scheme carries it) and radius, which enumerate the patch."""
        data = {
            "type": self.scheme.patch_type,
            "scheme": self.scheme.to_dict(),
            "radius": frac_str(self.radius),
        }
        if self.window is not None:
            data["window"] = self.window.to_dict()
        return data

    def to_dict(self) -> dict:
        return self.inputs_dict() | {
            "points": [self.scheme.point_to_json(p) for p in self.points]
        }


def patch_inputs(data: dict) -> tuple:
    """(scheme, window, radius) of the patch dict `data`, as `Patch.inputs_dict`
    writes them; the window is None for a scheme that carries its own."""
    scheme = scheme_from_dict(json_object(data, "a patch is")["scheme"])
    if data["type"] != scheme.patch_type:
        raise UsageError(f"a {data['type']} artifact cannot hold a {scheme.kind} scheme")
    window = None if hasattr(scheme, "window") else Window.from_dict(data["window"], scheme)
    return scheme, window, str_frac(data["radius"])


def enumerate_window_elements(
    field: NumberField,
    physical_place: RealEmbeddingInterval,
    internal_place: RealEmbeddingInterval,
    physical_radius,
    internal_halfwidth,
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
    lo1, hi1 = physical_place.refined(96)
    lo2, hi2 = internal_place.refined(96)
    gap_lo = max(lo2 - hi1, lo1 - hi2)  # certified lower bound on |t1 - t2|
    if gap_lo <= 0:
        raise UsageError("the physical and internal places must be distinct real places")
    t1_abs = max(abs(lo1), abs(hi1))
    t2_abs = max(abs(lo2), abs(hi2))
    b_max = math.floor((R + c) / gap_lo)
    a_max = math.floor((R * t2_abs + c * t1_abs) / gap_lo)
    count = (2 * a_max + 1) * (2 * b_max + 1)
    if count > DEFAULT_CANDIDATE_LIMIT:
        raise ResourceLimit(
            f"the coefficient box holds more than the limit of {DEFAULT_CANDIDATE_LIMIT} candidates"
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


def model_set_patch(scheme, window: Window, radius) -> Patch:
    """Complete patch of the model set p_G(Gamma ∩ G x W) inside the R-ball."""
    radius = Fraction(radius)
    if radius <= 0:
        raise UsageError("radius must be positive")
    scheme.validate_window(window)
    if scheme.kind == "zs":
        points = _zs_patch_points(window, radius)
        return Patch(scheme, window, radius, tuple(points), [points])
    return box_patch(scheme, window, window.real_halfwidths, radius)


def box_patch(scheme: QuadraticScheme, window, halfwidths, radius) -> Patch:
    """The patch of points whose coordinates each lie in their window half-width
    and the R-ball: the product of one window enumeration per axis."""
    factors = [
        enumerate_window_elements(
            scheme.field, scheme.physical_place, scheme.internal_place, radius, c
        )
        for c in halfwidths
    ]
    total = math.prod(len(lst) for lst in factors)
    if total > DEFAULT_CANDIDATE_LIMIT:
        raise ResourceLimit(
            f"the patch would hold more than the limit of {DEFAULT_CANDIDATE_LIMIT} points"
        )
    points = tuple(sorted(itertools.product(*factors), key=scheme.sort_key))
    return Patch(scheme, window, radius, points, factors)


def _zs_patch_points(window: Window, radius: Fraction):
    """The multiples n * step, step = prod p^-k, in the R-ball, ascending.

    The window's primes are the scheme's, so a rational lies in Z[1/S] with
    v_p >= -k at every ball (p, k) exactly when it is a multiple of step.
    """
    step = Fraction(1)
    for p, k in window.padic_balls:
        step *= Fraction(p) ** (-k)
    n_max = math.floor(radius / step)
    if 2 * n_max + 1 > DEFAULT_CANDIDATE_LIMIT:
        raise ResourceLimit(
            f"the R-ball holds more than the limit of {DEFAULT_CANDIDATE_LIMIT} candidates"
        )
    return [n * step for n in range(-n_max, n_max + 1)]


# ---------------------------------------------------------------------------
# Greedy interval covers of internal windows (shared by cps, places, heis).
# ---------------------------------------------------------------------------


class DimCover(Record):
    """Translates whose internal tiles sigma(t) + [-c, c] cover a target interval."""

    __slots__ = ("elements", "tile_halfwidth", "target_lo", "target_hi")

    def failure(self, internal_place: RealEmbeddingInterval, needed, tile) -> str | None:
        """Why this is not a chain of lattice tiles of half-width `tile` over
        [-needed, needed], or None when it is, by exact sign tests.

        Consecutive tiles meet, since their centres are at most 2c apart, so
        the tiles' union is one interval; it reaches past both target ends,
        since the first tile starts at or below target_lo and the last ends
        at or above target_hi.  Every translate must lie in Z[theta].
        """
        ts, c = self.elements, self.tile_halfwidth
        if c != tile:
            return f"has tiles of half-width {c}, not {tile}"
        if self.target_hi < needed or self.target_lo > -needed:
            return f"does not reach +-{needed}"
        if (
            not ts
            or any(t.den != 1 for t in ts)
            or not all(abs_embedding_leq(y - x, internal_place, 2 * c) for x, y in zip(ts, ts[1:]))
            or cmp_embedding(ts[0], internal_place, self.target_lo + c) > 0
            or cmp_embedding(ts[-1], internal_place, self.target_hi - c) < 0
        ):
            return "is not a chain of lattice tiles over its target"
        return None

    def to_dict(self) -> dict:
        return {
            "elements": [e.to_list() for e in self.elements],
            "tile_halfwidth": frac_str(self.tile_halfwidth),
            "target": [frac_str(self.target_lo), frac_str(self.target_hi)],
        }

    @staticmethod
    def from_dict(data: dict, field: NumberField) -> "DimCover":
        json_object(data, "an interval cover is")
        elements, target = data["elements"], data["target"]
        if type(elements) is not list or not all(type(e) is list for e in elements):
            raise UsageError(f"the elements of a cover are coefficient lists, not {elements!r}")
        if type(target) is not list or len(target) != 2:
            raise UsageError(f"the target of a cover is a [lo, hi] pair, not {target!r}")
        return DimCover(
            elements=tuple(field.elem_from_json(e) for e in elements),
            tile_halfwidth=str_frac(data["tile_halfwidth"]),
            target_lo=str_frac(target[0]),
            target_hi=str_frac(target[1]),
        )


def greedy_interval_cover(
    target_lo,
    target_hi,
    tile_halfwidth,
    candidates: Sequence[NFElem],
    internal_place: RealEmbeddingInterval,
):
    """Greedy chain of tiles around candidates covering [target_lo, target_hi].

    A tile is bounded conservatively from the candidate's `TILE_BITS`
    interval.  Returns (chosen elements, None) on success or (None, progress)
    where progress is the point up to which coverage was achieved.
    """
    target_lo = Fraction(target_lo)
    target_hi = Fraction(target_hi)
    c = Fraction(tile_halfwidth)
    tiles = []
    for x in candidates:
        lo, hi = eval_embedding(x, internal_place, TILE_BITS)
        cov_lo, cov_hi = hi - c, lo + c
        if cov_lo <= cov_hi:
            tiles.append((cov_lo, cov_hi, x))
    tiles.sort(key=lambda t: (t[0], t[1], t[2].coeffs))
    chosen = []
    covered = target_lo
    while not chosen or covered < target_hi:
        best = None
        for cov_lo, cov_hi, x in tiles:
            if cov_lo > covered:
                break
            if best is None or cov_hi > best[1]:
                best = (cov_lo, cov_hi, x)
        if best is None or (chosen and best[1] <= covered):
            return None, covered
        chosen.append(best[2])
        covered = best[1]
    return chosen, None


def cover_dimension(
    field: NumberField,
    physical_place: RealEmbeddingInterval,
    internal_place: RealEmbeddingInterval,
    target_halfwidth,
    tile_halfwidth,
) -> DimCover:
    """Cover [-c1, c1] by tiles t + [-c2, c2] with t from lattice internal images."""
    c1 = Fraction(target_halfwidth)
    c2 = Fraction(tile_halfwidth)
    search = 2 * (c1 + c2) + 2
    progress = None
    for _ in range(DEFAULT_SEARCH_CAP_DOUBLINGS):
        candidates = enumerate_window_elements(
            field, physical_place, internal_place, search, c1 + c2
        )
        chosen, progress = greedy_interval_cover(-c1, c1, c2, candidates, internal_place)
        if chosen is not None:
            return DimCover(tuple(chosen), c2, -c1, c1)
        search *= 2
    raise CoverSearchFailed(
        f"interval cover stalled at {progress} before reaching {c1}", progress=progress
    )


# ---------------------------------------------------------------------------
# Global covering certificates.
# ---------------------------------------------------------------------------


# a coset of a polynomial cover costs about 0.3 ms and 210 bytes, so the
# largest cover admitted takes about half a minute and writes about 21 MB
MAX_COSETS = 100_000


def _coset_residues(primes, k1, k2) -> tuple:
    """j * step for j below the count of cosets of the W2 ball in the W1 ball,
    prod p^max(0, k1 - k2), step = prod p^-k1: one per coset, since j * step
    and j' * step differ by an element of the W2 ball exactly when the count
    divides j - j'.  The count is checked before any residue is made."""
    count = math.prod(p ** max(0, a - b) for p, a, b in zip(primes, k1, k2))
    if count > MAX_COSETS:
        raise ResourceLimit(f"the window cover needs more than the limit of {MAX_COSETS} cosets")
    step = math.prod((Fraction(p) ** -a for p, a in zip(primes, k1)), start=Fraction(1))
    return tuple(j * step for j in range(count))


def check_built(cert) -> None:
    """Fail loudly if a freshly built certificate does not replay."""
    ok, why = cert.replay()
    if not ok:
        raise AssertionError(f"freshly built {type(cert).__name__} failed to replay: {why}")


class GlobalCoverCertificate(Record):
    """Evidence that Lambda(W1) is inside F Lambda(W2), globally: W1 is covered
    by the tiles t W2 of lattice translates t, p-adic balls by coset
    residues, and each real axis by one interval chain that reaches the
    scheme's `cover_target`.  The scheme's `cover_type` tags the file, which
    holds the residues too; they follow from the windows, so none is read.
    """

    __slots__ = ("scheme", "w1", "w2", "dim_covers")

    def _levels(self) -> tuple:
        """The p-adic levels of W1 and of W2."""
        return tuple(tuple(k for _, k in w.padic_balls) for w in (self.w1, self.w2))

    @property
    def translates(self) -> list:
        if self.w1.padic_balls:
            return list(_coset_residues(self.scheme.primes, *self._levels()))
        pools = [list(dc.elements) for dc in self.dim_covers]
        return sorted(itertools.product(*pools), key=self.scheme.sort_key)

    def replay(self) -> tuple[bool, str]:
        """Check that the stored chains cover W1 by tiles of W2;
        (ok, what was checked or which check failed)."""
        c2s = self.w2.real_halfwidths
        if len(self.dim_covers) != len(c2s):
            return False, f"{len(self.dim_covers)} interval covers for {len(c2s)} window axes"
        for k, (dc, c2) in enumerate(zip(self.dim_covers, c2s)):
            needed = self.scheme.cover_target(self.w1, self.w2, self.dim_covers[:k])
            why = dc.failure(self.scheme.internal_place, needed, c2)
            if why is not None:
                return False, f"interval cover {k} {why}"
        return True, f"{len(self.translates)} translates"

    def to_dict(self) -> dict:
        padic = None
        if self.w1.padic_balls:
            k1, k2 = self._levels()
            padic = {"primes": list(self.scheme.primes), "k1": list(k1), "k2": list(k2),
                     "residues": [frac_str(q) for q in self.translates]}
        return {
            "type": self.scheme.cover_type,
            "scheme": self.scheme.to_dict(),
            "w1": self.w1.to_dict(),
            "w2": self.w2.to_dict(),
            "dim_covers": [dc.to_dict() for dc in self.dim_covers],
            "padic": padic,
        }

    @staticmethod
    def from_dict(data: dict) -> "GlobalCoverCertificate":
        scheme = scheme_from_dict(json_object(data, "a global cover is")["scheme"])
        if data["type"] != scheme.cover_type:
            raise UsageError("a global cover needs a zs or galois scheme, a heis cover a heis one")
        w1, w2 = (Window.from_dict(data[key], scheme) for key in ("w1", "w2"))
        if w1.padic_balls:
            return GlobalCoverCertificate(scheme, w1, w2, ())
        dim_covers = json_list(data["dim_covers"], "the dim_covers of a global cover are")
        dim_covers = tuple(DimCover.from_dict(d, scheme.field) for d in dim_covers)
        return GlobalCoverCertificate(scheme, w1, w2, dim_covers)


def global_covering_certificate(scheme, w1: Window, w2: Window) -> GlobalCoverCertificate:
    """F finite with Lambda(W1) inside F Lambda(W2), by covering W1 with W2-tiles."""
    scheme.validate_window(w1)
    scheme.validate_window(w2)
    covers = []
    for c2 in w2.real_halfwidths:
        target = scheme.cover_target(w1, w2, covers)
        covers.append(cover_dimension(
            scheme.field, scheme.physical_place, scheme.internal_place, target, c2
        ))
    cert = GlobalCoverCertificate(scheme, w1, w2, tuple(covers))
    check_built(cert)
    return cert


class ApproximateLatticeCertificate(Record):
    """Lambda(W)^2 inside F + Lambda(W): window algebra plus a global cover."""

    __slots__ = ("scheme", "window", "cover", "delone", "patch_radius")

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
    report = lattice_delone_report(scheme, window, patch_radius)
    return ApproximateLatticeCertificate(scheme, window, cover, report, Fraction(patch_radius))


def lattice_delone_report(scheme, window: Window, patch_radius) -> verify.DeloneReport:
    """The metric half of an approximate-lattice certificate: the Delone report
    of the patch of radius R on the inner ball of radius R/2."""
    patch = model_set_patch(scheme, window, patch_radius)
    return verify.delone_certify(
        patch.factors, scheme.physical_place, patch.radius / 2, patch_radius=patch.radius
    )


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


def _square_intersection_factors(patch: Patch, axes: tuple[int, ...], inner_radius: Fraction):
    """The factors of (patch + patch) ∩ N, coordinates restricted to `axes`.

    The patch is the product of its factors, each symmetric about 0, so every
    p has partners q with q_i = -p_i off `axes`; the set is the product over
    `axes` of the factor sumsets P_i + P_i, cut to the inner ball.
    """
    place = patch.scheme.physical_place
    return [
        {a + b for a in xs for b in xs if abs_embedding_leq(a + b, place, inner_radius)}
        for i, xs in enumerate(patch.factors)
        if i in axes
    ]


class IntersectionResult(Record):
    __slots__ = (
        "induced_scheme", "axes", "intersection_points", "induced_patch", "cover_to_induced",
        "cover_from_induced", "inner_radius",
    )


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
    inter_points = sorted(
        itertools.product(*_square_intersection_factors(patch, axes, radius)),
        key=scheme.sort_key,
    )
    w_axes = Window.box(*(2 * window.real_halfwidths[i] for i in axes))
    induced_patch = model_set_patch(induced, w_axes, radius)
    inner = radius / 2
    a_pts = verify.points_within(inter_points, induced, inner)
    b_pts = verify.points_within(induced_patch.points, induced, inner)
    cover_ab, _ = verify.greedy_cover(a_pts, induced_patch.points, induced)
    cover_ba, _ = verify.greedy_cover(b_pts, inter_points, induced)
    return IntersectionResult(
        induced_scheme=induced,
        axes=axes,
        intersection_points=inter_points,
        induced_patch=induced_patch,
        cover_to_induced=cover_ab,
        cover_from_induced=cover_ba,
        inner_radius=inner,
    )


class ProjectionResult(Record):
    __slots__ = (
        "quotient_axes", "projected_points", "projection_min_separation",
        "intersection_report", "equivalence_consistent",
    )


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
        return ProjectionResult((), [], None, None, True)
    place = scheme.physical_place
    quotient = [patch.factors[i] for i in quotient_axes]
    projected = sorted(itertools.product(*quotient), key=scheme.sort_key)
    min_sep = None
    if len(projected) >= 2:
        min_sep = verify.min_separation(quotient, place)
    inter_report = None
    if axes:
        inter = _square_intersection_factors(patch, axes, radius)
        if math.prod(map(len, inter)) >= 2:
            inter_report = verify.delone_certify(inter, place, radius / 2, patch_radius=radius)
    consistent = (min_sep is None or min_sep > 0) and (
        inter_report is None or inter_report.is_delone
    )
    return ProjectionResult(
        quotient_axes=quotient_axes,
        projected_points=projected,
        projection_min_separation=min_sep,
        intersection_report=inter_report,
        equivalence_consistent=consistent,
    )

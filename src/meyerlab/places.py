"""Absolute values, S-integer rings O_{K,S}, and desk-scale PVS certification.

Supported exactly: all places of Q (the real one and every prime), and the
real embeddings of real quadratic fields.  For quadratic K every finite place
sits outside S and integrality there is equivalent to x being an algebraic
integer, decided exactly through integer trace and norm.  Finite places of
number fields other than Q would need prime splitting and stay unsupported.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from fractions import Fraction

from . import cps, verify
from .errors import UsageError
from .exactnum import (
    Cmp,
    NFElem,
    NumberField,
    RATIONAL_FIELD,
    abs_embedding_leq,
    compare_abs_to_one,
    eval_embedding,
    frac_str,
    is_prime,
    iv_abs,
    padic_valuation,
    prime_factors,
    str_frac,
)


class Place:
    """An absolute value on K: a real embedding, or a finite prime of Q."""

    __slots__ = ("field", "kind", "root_index", "prime")

    def __init__(self, field: NumberField, kind: str, root_index: int = -1, prime: int = 0):
        self.field = field
        self.kind = kind  # "arch" | "finite"
        self.root_index = root_index
        self.prime = prime

    def _key(self):
        return (self.field, self.kind, self.root_index, self.prime)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @staticmethod
    def archimedean(field: NumberField, root_index: int) -> "Place":
        if not 0 <= root_index < field.real_root_count():
            raise UsageError(f"field has no real root of index {root_index}")
        return Place(field, "arch", root_index=root_index)

    @staticmethod
    def finite(prime: int) -> "Place":
        if not is_prime(prime):
            raise UsageError(f"{prime} is not prime")
        return Place(RATIONAL_FIELD, "finite", prime=prime)

    @property
    def interval(self):
        if self.kind != "arch":
            raise UsageError("finite places have no embedding interval")
        return self.field.real_roots()[self.root_index]

    def label(self) -> str:
        return f"arch:{self.root_index}" if self.kind == "arch" else f"p:{self.prime}"

    def to_dict(self) -> dict:
        if self.kind == "arch":
            return {"kind": "arch", "root_index": self.root_index}
        return {"kind": "finite", "p": self.prime}


class SIntegerRing:
    """O_{K,S}: elements x of K with |x|_v <= 1 at every place v outside S."""

    def __init__(self, field: NumberField, s_places: Sequence[Place]):
        places = tuple(s_places)
        seen = set()
        for pl in places:
            if pl.field != field:
                raise UsageError("place does not belong to the ring's field")
            if pl.kind == "finite" and field.degree != 1:
                raise UsageError("finite places are only supported over Q")
            if pl.label() in seen:
                raise UsageError(f"duplicate place {pl.label()}")
            seen.add(pl.label())
        self.field = field
        self.s_places = places

    def __repr__(self):
        return f"SIntegerRing({self.field!r}, S={[p.label() for p in self.s_places]})"

    @property
    def s_primes(self) -> tuple[int, ...]:
        return tuple(sorted(p.prime for p in self.s_places if p.kind == "finite"))

    @property
    def s_arch_indices(self) -> tuple[int, ...]:
        return tuple(sorted(p.root_index for p in self.s_places if p.kind == "arch"))

    def complement_arch_places(self) -> list[Place]:
        inside = set(self.s_arch_indices)
        return [
            Place.archimedean(self.field, i)
            for i in range(self.field.real_root_count())
            if i not in inside
        ]

    def coerce(self, x) -> NFElem:
        if isinstance(x, NFElem):
            if x.field != self.field:
                raise UsageError("element from a different field")
            return x
        return self.field.from_rational(Fraction(x))

    def to_dict(self) -> dict:
        return {
            "field": self.field.to_dict(),
            "s_places": [p.to_dict() for p in self.s_places],
        }

    @staticmethod
    def from_dict(data: dict) -> "SIntegerRing":
        field = NumberField.from_dict(data["field"])
        places = []
        for p in data["s_places"]:
            if p["kind"] == "arch":
                places.append(Place.archimedean(field, p["root_index"]))
            else:
                places.append(Place.finite(p["p"]))
        return SIntegerRing(field, places)


def ring_of_integers() -> SIntegerRing:
    """Z = O_{Q, {infinity}}."""
    return SIntegerRing(RATIONAL_FIELD, [Place.archimedean(RATIONAL_FIELD, 0)])


def ring_zs(primes: Sequence[int]) -> SIntegerRing:
    """Z_S = O_{Q, {infinity} ∪ primes}."""
    places = [Place.archimedean(RATIONAL_FIELD, 0)]
    places += [Place.finite(p) for p in sorted(set(primes))]
    return SIntegerRing(RATIONAL_FIELD, places)


def ring_pvs(field: NumberField, arch_root_index: int) -> SIntegerRing:
    """PVS numbers of a real quadratic field: S = one real place."""
    return SIntegerRing(field, [Place.archimedean(field, arch_root_index)])


# ---------------------------------------------------------------------------
# Membership certification.
# ---------------------------------------------------------------------------


class ConjugateBound:
    __slots__ = ("place", "decision")

    def __init__(self, place: Place, decision: Cmp):
        self.place = place
        self.decision = decision


class MembershipRejection:
    __slots__ = ("element", "ring", "witness_place", "reason")

    def __init__(self, element: NFElem, ring: SIntegerRing, witness_place: Place, reason: str):
        self.element = element
        self.ring = ring
        self.witness_place = witness_place
        self.reason = reason

    @property
    def is_member(self) -> bool:
        return False


class PisotCertificate:
    """Per-place evidence that an element lies in O_{K,S}."""

    __slots__ = ("element", "ring", "conjugate_bounds", "finite_valuations")

    def __init__(
        self,
        element: NFElem,
        ring: SIntegerRing,
        conjugate_bounds: list[ConjugateBound],
        finite_valuations: list[tuple[int, int]],  # decisive primes only
    ):
        self.element = element
        self.ring = ring
        self.conjugate_bounds = conjugate_bounds
        self.finite_valuations = finite_valuations

    @property
    def is_member(self) -> bool:
        return True

    def replay(self) -> bool:
        again = s_integer_membership(self.element, self.ring)
        if not isinstance(again, PisotCertificate):
            return False
        return (
            [(b.place.label(), b.decision) for b in again.conjugate_bounds]
            == [(b.place.label(), b.decision) for b in self.conjugate_bounds]
            and again.finite_valuations == self.finite_valuations
        )

    def to_dict(self) -> dict:
        return {
            "type": "pisot_membership",
            "ring": self.ring.to_dict(),
            "element": self.element.to_list(),
            "conjugate_bounds": [
                {"place": b.place.to_dict(), "decision": b.decision.value}
                for b in self.conjugate_bounds
            ],
            "finite_valuations": [[p, v] for p, v in self.finite_valuations],
        }

    @staticmethod
    def from_dict(data: dict) -> "PisotCertificate":
        ring = SIntegerRing.from_dict(data["ring"])
        element = ring.field.elem([str_frac(c) for c in data["element"]])
        bounds = []
        for b in data["conjugate_bounds"]:
            pd = b["place"]
            place = (
                Place.archimedean(ring.field, pd["root_index"])
                if pd["kind"] == "arch"
                else Place.finite(pd["p"])
            )
            bounds.append(ConjugateBound(place, Cmp(b["decision"])))
        return PisotCertificate(
            element,
            ring,
            bounds,
            [(p, v) for p, v in data["finite_valuations"]],
        )


def _rational_is_integral(q: Fraction) -> int | None:
    """Smallest offending prime of the denominator, or None when integral."""
    if q.denominator == 1:
        return None
    return prime_factors(q.denominator)[0]


def s_integer_membership(x, ring: SIntegerRing):
    """Certify x in O_{K,S}, or reject with a witness place.

    Q: decisive finite places are the primes of the numerator and denominator;
    all others automatically satisfy |x|_p <= 1.  Quadratic K: integrality at
    every finite place is the integer trace/norm test; then each real place
    outside S is bounded by exact comparison in Q(sqrt D).
    """
    x = ring.coerce(x)
    field = ring.field
    finite_vals: list[tuple[int, int]] = []
    if field.degree == 1:
        q = x.coeffs[0]
        s_primes = set(ring.s_primes)
        if q != 0:
            for p in sorted(set(prime_factors(q.numerator)) | set(prime_factors(q.denominator))):
                v = padic_valuation(q, p)
                if p not in s_primes:
                    if v < 0:
                        return MembershipRejection(
                            x, ring, Place.finite(p), f"|x|_{p} = {p}^{-v} > 1"
                        )
                    finite_vals.append((p, v))
    else:
        if x.is_rational:
            bad = _rational_is_integral(x.coeffs[0])
        else:
            bad = _rational_is_integral(x.trace()) or _rational_is_integral(x.norm())
        if bad is not None:
            return MembershipRejection(
                x,
                ring,
                Place.finite(bad),
                f"not an algebraic integer: finite places over {bad} exceed 1",
            )
    bounds = []
    for place in ring.complement_arch_places():
        decision = compare_abs_to_one(x, place.interval)
        if decision is Cmp.GREATER:
            return MembershipRejection(
                x, ring, place, f"|sigma_{place.root_index}(x)| > 1"
            )
        bounds.append(ConjugateBound(place, decision))
    return PisotCertificate(x, ring, bounds, finite_vals)


# ---------------------------------------------------------------------------
# Product formula.
# ---------------------------------------------------------------------------


class ProductFormulaReport:
    __slots__ = ("element", "contributions", "exact_product", "norm_abs", "holds")

    def __init__(
        self,
        element: NFElem,
        contributions: list[tuple[str, Fraction]],
        exact_product: Fraction | None,
        norm_abs: Fraction | None,
        holds: bool,
    ):
        self.element = element
        self.contributions = contributions
        self.exact_product = exact_product
        self.norm_abs = norm_abs
        self.holds = holds

    def to_dict(self) -> dict:
        return {
            "type": "product_formula",
            "element": self.element.to_list(),
            "contributions": [[lbl, frac_str(v)] for lbl, v in self.contributions],
            "exact_product": None if self.exact_product is None else frac_str(self.exact_product),
            "norm_abs": None if self.norm_abs is None else frac_str(self.norm_abs),
            "holds": self.holds,
        }


def product_formula_check(x, field: NumberField | None = None) -> ProductFormulaReport:
    """Over Q: exact product of |x|_v over the relevant places equals 1.

    Over a quadratic field: |N(x)| is the exact product of the archimedean
    absolute values; x is a unit (the multiplicative-group obstruction) iff
    |N(x)| = 1, and the embedding intervals must bracket |N(x)|.
    """
    if isinstance(x, NFElem):
        field = x.field
    else:
        field = field or RATIONAL_FIELD
        x = field.from_rational(Fraction(x))
    if x.is_zero:
        raise UsageError("product formula needs a nonzero element")
    if field.degree == 1:
        q = x.coeffs[0]
        contributions = [("arch:0", abs(q))]
        prod = abs(q)
        for p in sorted(set(prime_factors(q.numerator)) | set(prime_factors(q.denominator))):
            value = Fraction(p) ** (-padic_valuation(q, p))
            contributions.append((f"p:{p}", value))
            prod *= value
        return ProductFormulaReport(x, contributions, prod, abs(q), prod == 1)
    norm_abs = abs(x.norm())
    contributions = []
    lo_prod, hi_prod = Fraction(1), Fraction(1)
    for i, root in enumerate(field.real_roots()):
        lo, hi = iv_abs(eval_embedding(x, root, 64))
        contributions.append((f"arch:{i}", (lo + hi) / 2))
        lo_prod *= lo
        hi_prod *= hi
    holds = lo_prod <= norm_abs <= hi_prod
    return ProductFormulaReport(x, contributions, None, norm_abs, holds)


# ---------------------------------------------------------------------------
# The polynomial lemma, parts (1) and (2), as constructive covers.
# ---------------------------------------------------------------------------


def _coerce_poly(field: NumberField, coeffs) -> list[NFElem]:
    out = []
    for c in coeffs:
        out.append(c if isinstance(c, NFElem) else field.from_rational(Fraction(c)))
    for c in out:
        if c.field != field:
            raise UsageError("polynomial coefficient from a different field")
    while out and out[-1].is_zero:
        out.pop()
    return out


def _coeff_denominator_lcm(coeffs: Sequence[NFElem]) -> int:
    m = 1
    for c in coeffs:
        for f in c.coeffs:
            m = m * f.denominator // math.gcd(m, f.denominator)
    return m


def _require_single_arch_ring(ring: SIntegerRing) -> None:
    if ring.field.degree != 2:
        raise UsageError("this operation needs a real quadratic ring")
    if ring.s_primes or len(ring.s_arch_indices) != 1:
        raise UsageError("this operation needs S = one real place")


def _internal_place(ring: SIntegerRing):
    inside = ring.s_arch_indices[0]
    return ring.field.real_roots()[1 - inside], ring.field.real_roots()[inside]


class TranslateCoverCertificate:
    """T finite with P(window patch of O_{K,S}) inside T + unit-window O_{K,S}."""

    __slots__ = (
        "ring", "poly", "window_scale", "conj_bound", "modulus", "constant", "coset_reps",
        "coset_covers",
    )

    def __init__(
        self,
        ring: SIntegerRing,
        poly: list[NFElem],
        window_scale: Fraction,
        conj_bound: Fraction,  # certified bound B on |sigma_int(P - P(0))| over the window
        modulus: int,
        constant: NFElem,
        coset_reps: list[NFElem],
        coset_covers: list[cps.DimCover | None],  # None for K = Q (coset arithmetic only)
    ):
        self.ring = ring
        self.poly = poly
        self.window_scale = window_scale
        self.conj_bound = conj_bound
        self.modulus = modulus
        self.constant = constant
        self.coset_reps = coset_reps
        self.coset_covers = coset_covers

    @property
    def translates(self) -> list[NFElem]:
        out = []
        if self.ring.field.degree == 1:
            for rep in self.coset_reps:
                out.append(self.constant + rep)
            return out
        for rep, cover in zip(self.coset_reps, self.coset_covers):
            for w in cover.elements:
                out.append(self.constant + rep + w)
        return out

    def replay(self) -> bool:
        if self.ring.field.degree == 1:
            expected = _rational_coset_modulus(self.poly, self.ring)
            return expected == self.modulus and len(self.coset_reps) == self.modulus
        internal, _ = _internal_place(self.ring)
        rest = self.poly[1:]
        if rest and _coeff_denominator_lcm(rest) != self.modulus:
            return False
        bound = Fraction(0)
        for i, c in enumerate(rest, start=1):
            _, hi = iv_abs(eval_embedding(c, internal, 96))
            bound += hi * self.window_scale**i
        if bound != self.conj_bound:
            return False
        for rep, cover in zip(self.coset_reps, self.coset_covers):
            if cover is None or not cover.replay(internal):
                return False
            # the stored target must dominate the band this coset really needs
            _, rep_hi = iv_abs(eval_embedding(rep, internal, 96))
            needed = bound + rep_hi
            if cover.tile_halfwidth != 1 or cover.target_hi < needed or cover.target_lo > -needed:
                return False
        if not rest:
            return len(self.coset_reps) == 1
        return len(self.coset_reps) == self.modulus * self.modulus

    def to_dict(self) -> dict:
        return {
            "type": "poly_translate_cover",
            "ring": self.ring.to_dict(),
            "poly": [c.to_list() for c in self.poly],
            "window_scale": frac_str(self.window_scale),
            "conj_bound": frac_str(self.conj_bound),
            "modulus": self.modulus,
            "constant": self.constant.to_list(),
            "coset_reps": [r.to_list() for r in self.coset_reps],
            "coset_covers": [None if c is None else c.to_dict() for c in self.coset_covers],
        }

    @staticmethod
    def from_dict(data: dict) -> "TranslateCoverCertificate":
        ring = SIntegerRing.from_dict(data["ring"])
        field = ring.field
        elem = lambda lst: field.elem([str_frac(c) for c in lst])
        return TranslateCoverCertificate(
            ring=ring,
            poly=[elem(c) for c in data["poly"]],
            window_scale=str_frac(data["window_scale"]),
            conj_bound=str_frac(data["conj_bound"]),
            modulus=data["modulus"],
            constant=elem(data["constant"]),
            coset_reps=[elem(r) for r in data["coset_reps"]],
            coset_covers=[
                None if c is None else cps.DimCover.from_dict(c, field)
                for c in data["coset_covers"]
            ],
        )


def _rational_coset_modulus(poly: Sequence[NFElem], ring: SIntegerRing) -> int:
    m = _coeff_denominator_lcm(poly[1:])
    for p in ring.s_primes:
        while m % p == 0:
            m //= p
    return m


def polynomial_translate_cover(
    poly, ring: SIntegerRing, window_scale=1
) -> TranslateCoverCertificate:
    """Finite additive translates T with P(c-window ring patch) inside T + O_{K,S}.

    Over Q the translates are the S-coprime coset representatives of the
    coefficient denominators.  Over quadratic K the image P(x) - P(0) lies in
    (1/m) O_K; per coset of O_K the conjugate band [-B - |s(r)|, B + |s(r)|] is
    covered by unit tiles around enumerated lattice conjugates.
    """
    window_scale = Fraction(window_scale)
    if window_scale <= 0:
        raise UsageError("window scale must be positive")
    field = ring.field
    coeffs = _coerce_poly(field, poly)
    if not coeffs:
        coeffs = [field.zero()]
    constant = coeffs[0]
    rest = coeffs[1:]
    if field.degree == 1:
        if 0 not in ring.s_arch_indices:
            raise UsageError("rational rings here must contain the archimedean place in S")
        m = _rational_coset_modulus(coeffs, ring)
        reps = [field.from_rational(Fraction(j, m)) for j in range(m)]
        return TranslateCoverCertificate(
            ring, coeffs, window_scale, Fraction(0), m, constant, reps, [None] * m
        )
    _require_single_arch_ring(ring)
    internal, _physical = _internal_place(ring)
    if not rest:
        # constant polynomial: the image is {P(0)}, one translate and no search
        zero_cover = cps.DimCover(
            elements=(field.zero(),),
            claimed=((Fraction(-1), Fraction(1)),),
            tile_halfwidth=Fraction(1),
            target_lo=Fraction(0),
            target_hi=Fraction(0),
            precision_bits=96,
        )
        return TranslateCoverCertificate(
            ring, coeffs, window_scale, Fraction(0), 1, constant, [field.zero()], [zero_cover]
        )
    bound = Fraction(0)
    for i, c in enumerate(rest, start=1):
        _, hi = iv_abs(eval_embedding(c, internal, 96))
        bound += hi * window_scale**i
    m = _coeff_denominator_lcm(rest)
    theta = field.gen()
    reps = []
    covers = []
    for i in range(m):
        for j in range(m):
            rep = (field.from_rational(i) + theta * j) * Fraction(1, m)
            _, rep_hi = iv_abs(eval_embedding(rep, internal, 96))
            cover = cps.cover_dimension(
                field,
                _physical,
                internal,
                bound + rep_hi,
                Fraction(1),
            )
            reps.append(rep)
            covers.append(cover)
    return TranslateCoverCertificate(
        ring, coeffs, window_scale, bound, m, constant, reps, covers
    )


def poly_apply(poly: Sequence[NFElem], x: NFElem) -> NFElem:
    acc = x.field.zero()
    for c in reversed(list(poly)):
        acc = acc * x + c
    return acc


class ShrinkCertificate:
    """Window scale delta with the conjugate polynomial bounded by 1 on [-delta, delta]."""

    __slots__ = (
        "ring", "poly", "delta", "coeff_bounds", "bound_value", "patch_radius",
        "cover_small_in_unit", "cover_unit_in_small",
    )

    def __init__(
        self,
        ring: SIntegerRing,
        poly: list[NFElem],
        delta: Fraction,
        coeff_bounds: list[Fraction],
        bound_value: Fraction,  # sum of hi_i * delta^i, certified <= 1
        patch_radius: Fraction,
        cover_small_in_unit: verify.GreedyCover,
        cover_unit_in_small: verify.GreedyCover,
    ):
        self.ring = ring
        self.poly = poly
        self.delta = delta
        self.coeff_bounds = coeff_bounds
        self.bound_value = bound_value
        self.patch_radius = patch_radius
        self.cover_small_in_unit = cover_small_in_unit
        self.cover_unit_in_small = cover_unit_in_small

    def replay(self) -> bool:
        value = sum(
            hi * self.delta**i for i, hi in enumerate(self.coeff_bounds, start=1)
        )
        return value == self.bound_value and value <= 1

    def to_dict(self) -> dict:
        return {
            "type": "poly_shrink",
            "ring": self.ring.to_dict(),
            "poly": [c.to_list() for c in self.poly],
            "delta": frac_str(self.delta),
            "coeff_bounds": [frac_str(b) for b in self.coeff_bounds],
            "bound_value": frac_str(self.bound_value),
            "patch_radius": frac_str(self.patch_radius),
        }


def shrink_for_polynomial(poly, ring: SIntegerRing, patch_radius=10) -> ShrinkCertificate:
    """Rational delta in (0, 1] with P(delta-window set) inside the unit-window set.

    Uses the conservative bound sum |sigma(a_i)| delta^i <= delta * sum <= 1,
    then certifies commensurability of the delta-window and unit-window model
    sets by a two-way patch cover.
    """
    _require_single_arch_ring(ring)
    field = ring.field
    coeffs = _coerce_poly(field, poly)
    if coeffs and not coeffs[0].is_zero:
        raise UsageError("shrink_for_polynomial needs P(0) = 0")
    rest = coeffs[1:]
    internal, _physical = _internal_place(ring)
    his = []
    for c in rest:
        _, hi = iv_abs(eval_embedding(c, internal, 96))
        his.append(hi)
    total = sum(his, Fraction(0))
    delta = Fraction(1) if total <= 1 else Fraction(1, math.ceil(total))
    value = sum(hi * delta**i for i, hi in enumerate(his, start=1))
    if value > 1:
        raise AssertionError("conservative shrink bound failed its own inequality")
    scheme = cps.GaloisScheme(field, physical_root_index=ring.s_arch_indices[0])
    small = cps.model_set_patch(scheme, cps.Window.box(delta), patch_radius)
    unit = cps.model_set_patch(scheme, cps.Window.box(1), patch_radius)
    ops = scheme.group_ops()
    c1, _ = verify.greedy_cover(small.points, unit.points, ops)
    c2, _ = verify.greedy_cover(unit.points, small.points, ops)
    return ShrinkCertificate(
        ring, coeffs, delta, his, value, Fraction(patch_radius), c1, c2
    )


# ---------------------------------------------------------------------------
# Sum-product certification at patch scale.
# ---------------------------------------------------------------------------


class SetRejection:
    __slots__ = ("element", "witness_place", "reason")

    def __init__(self, element: NFElem, witness_place: Place, reason: str):
        self.element = element
        self.witness_place = witness_place
        self.reason = reason

    @property
    def certified(self) -> bool:
        return False


class SumProductCertificate:
    """Finite-set witness of the sum-product conclusion: the set sits in O_{K,S}.

    Products whose physical size stays under the stated bound must land back
    in the set ("closed") or are flagged; products escaping the bound are
    counted as out-of-patch, never as failures.
    """

    __slots__ = (
        "ring", "elements", "patch_bound", "member_certificates", "closed_pairs",
        "out_of_patch_pairs", "flagged_products",
    )

    def __init__(
        self,
        ring: SIntegerRing,
        elements: list[NFElem],
        patch_bound: Fraction,
        member_certificates: list[PisotCertificate],
        closed_pairs: int,
        out_of_patch_pairs: int,
        flagged_products: list[NFElem],
    ):
        self.ring = ring
        self.elements = elements
        self.patch_bound = patch_bound
        self.member_certificates = member_certificates
        self.closed_pairs = closed_pairs
        self.out_of_patch_pairs = out_of_patch_pairs
        self.flagged_products = flagged_products

    @property
    def certified(self) -> bool:
        return True

    @property
    def multiplicatively_closed(self) -> bool:
        return not self.flagged_products

    def to_dict(self) -> dict:
        return {
            "type": "sum_product",
            "ring": self.ring.to_dict(),
            "elements": [e.to_list() for e in self.elements],
            "patch_bound": frac_str(self.patch_bound),
            "members": [c.to_dict() for c in self.member_certificates],
            "closed_pairs": self.closed_pairs,
            "out_of_patch_pairs": self.out_of_patch_pairs,
            "flagged_products": [e.to_list() for e in self.flagged_products],
            "conclusion": "subset of O_{K,S}",
        }


def pvs_certify_set(elements, ring: SIntegerRing, patch_bound=None):
    """Certify a finite symmetric set containing 0 as a subset of O_{K,S}.

    Returns a SumProductCertificate, or a SetRejection naming the first
    failing element and its witness place.
    """
    elems = [ring.coerce(e) for e in elements]
    if len(set(elems)) != len(elems):
        raise UsageError("elements must be pairwise distinct")
    elem_set = set(elems)
    if ring.field.zero() not in elem_set:
        raise UsageError("the set must contain 0")
    for e in elems:
        if -e not in elem_set:
            raise UsageError("the set must be symmetric (closed under negation)")
    arch_index = ring.s_arch_indices[0] if ring.s_arch_indices else 0
    physical = ring.field.real_roots()[arch_index] if ring.field.real_root_count() else None
    if patch_bound is None:
        bound = Fraction(0)
        for e in elems:
            if physical is None:
                bound = max(bound, abs(e.coeffs[0]))
            else:
                _, hi = iv_abs(eval_embedding(e, physical, 64))
                bound = max(bound, hi)
        patch_bound = bound
    patch_bound = Fraction(patch_bound)
    member_certs = []
    for e in sorted(elems, key=lambda x: x.coeffs):
        result = s_integer_membership(e, ring)
        if isinstance(result, MembershipRejection):
            return SetRejection(e, result.witness_place, result.reason)
        member_certs.append(result)
    ordered = sorted(elems, key=lambda x: x.coeffs)
    closed = 0
    out_of_patch = 0
    flagged = []
    for i, j in itertools.combinations_with_replacement(range(len(ordered)), 2):
        z = ordered[i] * ordered[j]
        if physical is None:
            inside = abs(z.coeffs[0]) <= patch_bound
        else:
            inside = abs_embedding_leq(z, physical, patch_bound)
        if not inside:
            out_of_patch += 1
        elif z in elem_set:
            closed += 1
        elif z not in flagged:
            flagged.append(z)
    flagged.sort(key=lambda x: x.coeffs)
    return SumProductCertificate(
        ring,
        ordered,
        patch_bound,
        member_certs,
        closed,
        out_of_patch,
        flagged,
    )

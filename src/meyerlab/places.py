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

from . import cps
from .errors import ResourceLimit, UsageError
from .exactnum import (
    NFElem,
    NumberField,
    RATIONAL_FIELD,
    Record,
    abs_embedding_leq,
    compare_abs_to_one,
    eval_embedding,
    frac_str,
    is_prime,
    iv_abs,
    json_list,
    json_object,
    padic_valuation,
    prime_factors,
    str_frac,
    str_int,
)


class Place(Record):
    """An absolute value on K: a real embedding, or a finite prime of Q.

    kind is "arch" (with root_index) or "finite" (with prime); the unused one
    is -1 or 0.
    """

    __slots__ = ("field", "kind", "root_index", "prime")

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
        return Place(field, "arch", root_index, 0)

    @staticmethod
    def finite(prime: int) -> "Place":
        if not is_prime(prime):
            raise UsageError(f"{prime} is not prime")
        return Place(RATIONAL_FIELD, "finite", -1, prime)

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

    @staticmethod
    def from_dict(data: dict, field: NumberField) -> "Place":
        """The place `to_dict` wrote; an archimedean one is a place of `field`."""
        if json_object(data, "a place is")["kind"] == "arch":
            return Place.archimedean(field, str_int(data["root_index"]))
        return Place.finite(str_int(data["p"]))


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
        field = NumberField.from_dict(json_object(data, "a ring is")["field"])
        places = json_list(data["s_places"], "the places of a ring are")
        return SIntegerRing(field, [Place.from_dict(p, field) for p in places])


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


class MembershipRejection(Record):
    """x is not in O_{K,S}: the place where |x|_v > 1, and why.

    `pvs_certify_set` returns the rejection of a set's first failing element."""

    __slots__ = ("element", "ring", "witness_place", "reason")
    is_member = certified = False

    def to_dict(self) -> dict:
        return {
            "type": "sum_product_rejection",
            "ring": self.ring.to_dict(),
            "element": self.element.to_list(),
            "witness_place": self.witness_place.to_dict(),
            "reason": self.reason,
        }


class PisotCertificate(Record):
    """x lies in O_{K,S}: |sigma(x)| <= 1 at each real place outside S."""

    __slots__ = ("element", "ring")
    is_member = True


def _rational_is_integral(q: Fraction) -> int | None:
    """Smallest offending prime of the denominator, or None when integral."""
    if q.denominator == 1:
        return None
    return prime_factors(q.denominator)[0]


def s_integer_membership(x, ring: SIntegerRing):
    """Certify x in O_{K,S}, or reject with a witness place.

    Q: the decisive finite places are the primes of the denominator; all
    others satisfy |x|_p <= 1.  Quadratic K: integrality at every finite
    place is the integer trace/norm test; then each real place outside S is
    bounded by exact comparison in Q(sqrt D).
    """
    x = ring.coerce(x)
    field = ring.field
    if field.degree == 1:
        q = x.coeffs[0]
        s_primes = set(ring.s_primes)
        for p in prime_factors(q.denominator):
            if p not in s_primes:
                v = padic_valuation(q, p)
                return MembershipRejection(x, ring, Place.finite(p), f"|x|_{p} = {p}^{-v} > 1")
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
    for place in ring.complement_arch_places():
        if not compare_abs_to_one(x, place.interval):
            return MembershipRejection(
                x, ring, place, f"|sigma_{place.root_index}(x)| > 1"
            )
    return PisotCertificate(x, ring)


# ---------------------------------------------------------------------------
# The polynomial lemma, part (1), as a constructive cover.
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


def _ring_fault(ring: SIntegerRing) -> str | None:
    """Why no translate cover is built over `ring`, or None when one is:
    over Q, S must hold the real place; over a quadratic field, whose S holds
    no finite place, S must be one real place."""
    if ring.field.degree == 1:
        if 0 not in ring.s_arch_indices:
            return "a translate cover over Q needs the real place in S"
    elif len(ring.s_arch_indices) != 1:
        return "a translate cover over a quadratic field needs S = one real place"
    return None


def _internal_place(ring: SIntegerRing):
    inside = ring.s_arch_indices[0]
    return ring.field.real_roots()[1 - inside], ring.field.real_roots()[inside]


class TranslateCoverCertificate(Record):
    """T finite with P(window patch of O_{K,S}) inside T + unit-window O_{K,S}.

    coset_covers holds one interval cover per coset of (1/m) O_K modulo O_K,
    or None per coset for K = Q (coset arithmetic only).  Every other field
    that `to_dict` writes follows from `ring`, `poly` and `window_scale`
    (`frame`), so replay compares it as written.
    """

    __slots__ = ("ring", "poly", "window_scale", "coset_covers")

    def frame(self) -> tuple:
        """(P(0), m, the coset representatives, B), as `_translate_frame` gives them."""
        return _translate_frame(self.poly, self.ring, self.window_scale)

    @property
    def translates(self) -> list[NFElem]:
        constant, _, reps, _ = self.frame()
        if self.ring.field.degree == 1:
            return [constant + rep for rep in reps]
        pairs = zip(reps, self.coset_covers)
        return [constant + rep + w for rep, cover in pairs for w in cover.elements]

    def replay(self) -> tuple[bool, str]:
        """Check each coset's cover against the derived frame;
        (ok, what was checked or which check failed)."""
        fault = _ring_fault(self.ring)
        if fault is not None:
            return False, fault
        _, m, reps, bound = self.frame()
        count = m**self.ring.field.degree
        # the count first: the representatives are only made once they are few
        if len(self.coset_covers) != count:
            return False, f"{len(self.coset_covers)} coset covers for {count} cosets"
        if self.ring.field.degree == 2:
            internal, _ = _internal_place(self.ring)
            for i, (rep, cover) in enumerate(zip(reps, self.coset_covers)):
                # the stored target must dominate the band this coset really needs
                _, rep_hi = iv_abs(eval_embedding(rep, internal, 96))
                why = cover.failure(internal, bound + rep_hi, 1)
                if why is not None:
                    return False, f"coset cover {i} {why}"
        return True, f"{len(self.translates)} translates"

    def to_dict(self) -> dict:
        constant, m, reps, bound = self.frame()
        return {
            "type": "poly_translate_cover",
            "ring": self.ring.to_dict(),
            "poly": [c.to_list() for c in self.poly],
            "window_scale": frac_str(self.window_scale),
            "conj_bound": frac_str(bound),
            "modulus": m,
            "constant": constant.to_list(),
            "coset_reps": [r.to_list() for r in reps],
            "coset_covers": [None if c is None else c.to_dict() for c in self.coset_covers],
        }

    @staticmethod
    def from_dict(data: dict) -> "TranslateCoverCertificate":
        ring = SIntegerRing.from_dict(data["ring"])
        field = ring.field
        covers = json_list(data["coset_covers"], "the coset_covers are")
        if any((c is None) != (field.degree == 1) for c in covers):
            raise UsageError("a coset cover is null over Q and an interval cover over a quadratic field")
        return TranslateCoverCertificate(
            ring=ring,
            poly=[field.elem_from_json(e) for e in json_list(data["poly"], "the poly are")],
            window_scale=str_frac(data["window_scale"]),
            coset_covers=[None if c is None else cps.DimCover.from_dict(c, field) for c in covers],
        )


def _translate_frame(coeffs: Sequence[NFElem], ring: SIntegerRing, window_scale: Fraction):
    """(P(0), m, the coset representatives, B) of a translate cover of P over `ring`.

    P - P(0) maps the window into (1/m) O_{K,S}.  Over Q, m is the part of the
    coefficient denominators prime to S, the representatives are j/m and B is
    0; over a quadratic field they are the m^2 elements (i + j theta)/m and B
    is a certified bound on |sigma_int(P - P(0))| over the window.  The
    representatives are yielded lazily, so their number can be checked before
    they are made.
    """
    field = ring.field
    constant = coeffs[0] if coeffs else field.zero()
    m = _coeff_denominator_lcm(coeffs[1:])
    if field.degree == 1:
        for p in ring.s_primes:
            while m % p == 0:
                m //= p
        return constant, m, (NFElem(field, j, 0, m) for j in range(m)), Fraction(0)
    reps = (NFElem(field, i, j, m) for i in range(m) for j in range(m))
    return constant, m, reps, _conj_bound(coeffs, _internal_place(ring)[0], window_scale)


def _conj_bound(coeffs: Sequence[NFElem], internal, window_scale: Fraction) -> Fraction:
    """Certified bound on |sigma_int(P - P(0))| over the window [-s, s]."""
    his = (iv_abs(eval_embedding(c, internal, 96))[1] for c in coeffs[1:])
    return sum((hi * window_scale**i for i, hi in enumerate(his, start=1)), Fraction(0))


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
    fault = _ring_fault(ring)
    if fault is not None:
        raise UsageError(fault)
    field = ring.field
    coeffs = _coerce_poly(field, poly) or [field.zero()]
    _, m, reps, bound = _translate_frame(coeffs, ring, window_scale)
    # one coset per representative: count them before any is made
    if m**field.degree > cps.MAX_COSETS:
        raise ResourceLimit(f"the translate cover needs more than the limit of {cps.MAX_COSETS} cosets")
    if field.degree == 1:
        covers = [None] * m
    elif len(coeffs) == 1:
        # constant polynomial: the image is {P(0)}, one translate and no search
        covers = [cps.DimCover((field.zero(),), Fraction(1), Fraction(0), Fraction(0))]
    else:
        internal, physical = _internal_place(ring)
        covers = []
        for rep in reps:
            _, rep_hi = iv_abs(eval_embedding(rep, internal, 96))
            covers.append(cps.cover_dimension(field, physical, internal, bound + rep_hi, Fraction(1)))
    cert = TranslateCoverCertificate(ring, coeffs, window_scale, covers)
    cps.check_built(cert)
    return cert


# ---------------------------------------------------------------------------
# Sum-product certification at patch scale.
# ---------------------------------------------------------------------------


class SumProductCertificate(Record):
    """Finite-set witness of the sum-product conclusion: the set sits in O_{K,S}.

    Products whose physical size stays under the stated bound must land back
    in the set ("closed") or are flagged; products escaping the bound are
    counted as out-of-patch, never as failures.
    """

    __slots__ = (
        "ring", "elements", "patch_bound", "closed_pairs", "out_of_patch_pairs",
        "flagged_products",
    )

    certified = True

    def to_dict(self) -> dict:
        return {
            "type": "sum_product",
            "ring": self.ring.to_dict(),
            "elements": [e.to_list() for e in self.elements],
            "patch_bound": frac_str(self.patch_bound),
            "closed_pairs": self.closed_pairs,
            "out_of_patch_pairs": self.out_of_patch_pairs,
            "flagged_products": [e.to_list() for e in self.flagged_products],
            "conclusion": "subset of O_{K,S}",
        }


def pvs_certify_set(elements, ring: SIntegerRing):
    """Certify a finite symmetric set containing 0 as a subset of O_{K,S}, with
    the largest physical size of an element as the patch bound.

    Returns a SumProductCertificate, or the MembershipRejection of the first
    failing element.
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
    patch_bound = Fraction(0)
    for e in elems:
        if physical is None:
            patch_bound = max(patch_bound, abs(e.coeffs[0]))
        else:
            _, hi = iv_abs(eval_embedding(e, physical, 64))
            patch_bound = max(patch_bound, hi)
    ordered = sorted(elems, key=lambda x: x.coeffs)
    for e in ordered:
        result = s_integer_membership(e, ring)
        if not result.is_member:
            return result
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
        closed,
        out_of_patch,
        flagged,
    )

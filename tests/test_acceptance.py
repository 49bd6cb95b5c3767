"""Acceptance suite: one test per criterion, exact oracles at desk scale.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; any assertion failure is the corresponding FAIL line.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import meyerlab
from meyerlab import cli, cps, heis, places, serialize, verify
from meyerlab.errors import UnsupportedSubgroup
from meyerlab.exactnum import RationalLine, golden_field, sqrt2_field
from oracles import (
    approx_power_cover,
    bch2,
    commutator,
    commutator_map,
    heis_exp,
    heis_log,
    heis_point,
    product_formula,
)

# Frozen bracketing constants, verified by squaring in criterion 2's oracle.
SQRT5_LO = Fraction(2236067977, 10**9)
SQRT5_HI = Fraction(2236067978, 10**9)
SQRT2_LO = Fraction(1414213562, 10**9)
SQRT2_HI = Fraction(1414213563, 10**9)

ORACLE_ROOTS = {
    "golden": {
        "phys": ((1 + SQRT5_LO) / 2, (1 + SQRT5_HI) / 2),
        "internal": ((1 - SQRT5_HI) / 2, (1 - SQRT5_LO) / 2),
    },
    "sqrt2": {
        "phys": (SQRT2_LO, SQRT2_HI),
        "internal": (-SQRT2_HI, -SQRT2_LO),
    },
}


def _passed(n, detail):
    print(f"[ACCEPTANCE] criterion {n}: PASS - {detail}")


def brute_quadratic_patch(name, phys_R, int_c, span):
    """Independent oracle: frozen-bound interval enumeration of a + b*theta,
    with every candidate decided decisively (exact for rational candidates)."""
    phys = ORACLE_ROOTS[name]["phys"]
    internal = ORACLE_ROOTS[name]["internal"]
    phys_R, int_c = Fraction(phys_R), Fraction(int_c)
    out = set()
    for b in range(-span, span + 1):
        for a in range(-span, span + 1):
            keep = True
            for (rlo, rhi), bound in ((phys, phys_R), (internal, int_c)):
                if b == 0:
                    if abs(Fraction(a)) > bound:
                        keep = False
                    continue
                vals = (a + b * rlo, a + b * rhi)
                lo, hi = min(vals), max(vals)
                if hi < -bound or lo > bound:
                    keep = False
                elif not (-bound <= lo and hi <= bound):
                    raise AssertionError(f"oracle indecisive at ({a}, {b})")
            if keep:
                out.add((a, b))
    return out


def test_criterion_1_zs_exactness():
    checked = 0
    for primes in ((2,), (3,), (2, 3)):
        scheme = cps.ZSScheme(primes)
        for k in (0, 1, 2):
            window = cps.Window.balls(*((p, k) for p in primes))
            step = Fraction(1)
            for p in primes:
                step /= Fraction(p) ** k
            for radius in (3, 10, 50):
                patch = cps.model_set_patch(scheme, window, radius)
                n_max = math.floor(Fraction(radius) / step)
                expected = [n * step for n in range(-n_max, n_max + 1)]
                assert list(patch.points) == expected, (primes, k, radius)
                checked += 1
    assert checked == 27
    _passed(1, f"{checked} (primes, level, radius) cases match (prod p^-k) Z exactly")


@pytest.mark.parametrize("name,field_fn", [("golden", golden_field), ("sqrt2", sqrt2_field)])
def test_criterion_2_model_sets_are_approximate_lattices(name, field_fn):
    assert SQRT5_LO**2 < 5 < SQRT5_HI**2 and SQRT2_LO**2 < 2 < SQRT2_HI**2
    scheme = cps.GaloisScheme(field_fn())
    window = cps.Window.box(1)
    cert = cps.approximate_lattice_certificate(scheme, window, patch_radius=20)
    assert len(cert.translates) <= 8
    assert cert.delone.min_separation > 0
    assert cert.delone.covering.verdict == "FINITE"

    # brute-force oracle at R = 50: the doubled-window patch is covered by F
    big = brute_quadratic_patch(name, 50, 2, span=55)
    margin = 55
    small_margin = brute_quadratic_patch(name, margin + 5, 1, span=margin + 8)
    translates = [(int(t[0].coeffs[0]), int(t[0].coeffs[1])) for t in cert.translates]
    for a, b in big:
        assert any((a - ta, b - tb) in small_margin for ta, tb in translates), (a, b)

    # certificate replays bit-exactly from its serialized bytes
    blob = serialize.canonical_json(cert.cover.to_dict())
    again = cps.GlobalCoverCertificate.from_dict(json.loads(blob))
    ok, why = again.replay()
    assert ok, why
    assert serialize.canonical_json(again.to_dict()) == blob
    _passed(2, f"{name}: |F| = {len(cert.translates)} <= 8, Delone, R=50 oracle cover, bit-exact replay")


def test_criterion_3_pvs_certification():
    golden_ring = places.ring_pvs(golden_field(), 1)
    sqrt2_ring = places.ring_pvs(sqrt2_field(), 1)
    for x, ring in ((golden_field().gen(), golden_ring),
                    (sqrt2_field().one() + sqrt2_field().gen(), sqrt2_ring)):
        assert places.s_integer_membership(x, ring).is_member
        # the membership replays inside the sum-product certificate of {0, x, -x}
        assert serialize.replay(places.pvs_certify_set([0, x, -x], ring).to_dict())[0]

    rej = places.s_integer_membership(Fraction(1, 3), places.ring_zs([2]))
    assert not rej.is_member
    assert rej.witness_place.prime == 3

    rng = random.Random(42)
    count = 0
    while count < 20:
        q = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
        if q == 0:
            continue
        report = product_formula(q)
        assert report.exact_product == 1 and report.holds
        count += 1
    _passed(3, "golden and 1+sqrt2 certified; 1/3 rejected at p=3; product formula exact on 20 rationals")


def oracle_cover_count(bound, tile=Fraction(1)):
    """Independent greedy bound for covering [-B, B] by unit tiles at best
    possible spacing 2*tile: ceil(B/tile) forced tiles, 1 when B <= tile."""
    bound = Fraction(bound)
    if bound <= tile:
        return 1
    return math.ceil(bound / tile)


def test_criterion_4_polynomial_lemma():
    ring = places.ring_pvs(golden_field(), 1)
    sizes = {}
    for label, poly in (("X^2", [0, 0, 1]), ("2X", [0, 2]), ("3X^2+X", [0, 1, 3])):
        cert = places.polynomial_translate_cover(poly, ring, window_scale=1)
        ok, why = cert.replay()
        assert ok, why
        blob = serialize.canonical_json(cert.to_dict())
        again = places.TranslateCoverCertificate.from_dict(json.loads(blob))
        ok, why = again.replay()
        assert ok, why
        assert serialize.canonical_json(again.to_dict()) == blob
        oracle = oracle_cover_count(cert.frame()[3])
        size = len(cert.translates)
        assert size <= 2 * oracle and oracle <= 2 * size, (label, size, oracle)
        sizes[label] = size
    _passed(4, f"translate covers {sizes} within factor 2 of the greedy oracle")


def test_criterion_5_heisenberg_suite():
    f2 = sqrt2_field()
    rng = random.Random(2024)

    def rand_alg():
        return heis_point(
            f2, *(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
        )

    for _ in range(1000):
        u, v = rand_alg(), rand_alg()
        assert heis_exp(bch2(u, v)) == heis.heis_mul(heis_exp(u), heis_exp(v))
        w = heis_log(heis_exp(u))
        assert w == u

    scheme = heis.HeisScheme(f2, (1, 1, 2))
    cover = heis.heis_covering_certificate(scheme)
    ok, why = cover.replay()
    assert ok, why

    gaps = {}
    for radius in (10, 20):
        res = heis.center_intersection(scheme, radius)
        assert res.conclusive
        assert res.report.min_separation > 0
        gaps[radius] = res.report.min_separation

    small_scheme = heis.HeisScheme(f2, (1, 1, 1))
    patch = heis.heis_model_set(small_scheme, 2)
    homomorphism_exact, trivial, _ = commutator_map(heis_point(f2, 1, 0, 0), patch)
    assert homomorphism_exact and not trivial
    assert commutator(heis_point(f2, 1, 0, 0), heis_point(f2, 0, 1, 0)) == heis_point(
        f2, 0, 0, 1
    )

    big = heis.heis_model_set(scheme, 8)
    sym = heis.symmetrize(big.points)
    meyer = heis.meyer_commensurability(sym, big.points, big.scheme, 4)
    assert meyer.verdict == "COMMENSURABLE-AT-SCALE"
    group = big.scheme
    assert meyer.cover_ab.failure(
        verify.points_within(sym, group, 4), big.points, group, "point"
    ) is None
    assert meyer.cover_ba.failure(
        verify.points_within(big.points, group, 4), sym, group, "point"
    ) is None
    _passed(
        5,
        f"1000 exp/log/bch identities exact; cover |F| = {len(cover.translates)}; "
        f"centre gaps {dict((k, f'{float(v):.5f}') for k, v in gaps.items())} (exact bounds in report); "
        f"two-way covers {len(meyer.cover_ab.translates)}/{len(meyer.cover_ba.translates)}",
    )


class IntMod:
    """Z/nZ: a point is an int in [0, n)."""

    physical_place = None

    def __init__(self, n):
        self.n = n

    def mul(self, a, b):
        return (a + b) % self.n

    def inv(self, a):
        return (-a) % self.n

    @staticmethod
    def sort_key(a):
        return a


def brute_min_cover(xs, quotient, group, cap):
    qs = set(quotient)
    for size in range(1, cap + 1):
        for combo in itertools.combinations(xs, size):
            if all(any(group.mul(group.inv(f), x) in qs for f in combo) for x in xs):
                return size
    return cap


def test_criterion_6_appendix_lemmas():
    rng = random.Random(7)
    instances = 0
    while instances < 100:
        modular = instances % 2 == 0
        if modular:
            n = rng.randint(6, 12)
            group = IntMod(n)
            y = sorted({rng.randint(0, n - 1) for _ in range(rng.randint(2, 3))})
            f = sorted({rng.randint(0, n - 1) for _ in range(rng.randint(2, 3))})
            x = sorted({group.mul(rng.choice(f), rng.choice(y)) for _ in range(rng.randint(2, 30))})
        else:
            group = RationalLine
            y = sorted({Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(2, 4))})
            f = sorted({Fraction(rng.randint(-10, 10)) for _ in range(rng.randint(2, 4))})
            x = sorted({group.mul(rng.choice(f), rng.choice(y)) for _ in range(rng.randint(2, 30))})
        if len(x) < 2:
            continue
        witness = verify.cell_cover(x, [(f, y)], group)
        assert witness.size <= len(f)
        quotient = {group.mul(group.inv(a), b) for a in y for b in y}
        minimal = brute_min_cover(x, quotient, group, witness.size)
        assert minimal <= witness.size <= len(f)
        instances += 1

    scheme = cps.GaloisScheme(golden_field())
    window = cps.Window.box(1)
    cert = cps.approximate_lattice_certificate(scheme, window, patch_radius=12)
    patch = cps.model_set_patch(scheme, window, 12)
    sizes = {}
    for k in (2, 3, 4):
        res = approx_power_cover(patch.points, k, cert.translates, scheme, 12)
        assert res.witness is None, f"k={k} witness {res.witness}"
        assert len(res.translates) <= len(cert.translates) ** (k - 1)
        assert res.checked > 0
        sizes[k] = (len(res.translates), len(cert.translates) ** (k - 1))
    _passed(6, f"100 cell-cover instances bounded and oracle-consistent; power covers {sizes}")


def test_criterion_7_intersection_projection_equivalence():
    scheme = cps.GaloisScheme(golden_field(), dim=2)
    window = cps.Window.box(1, 1)
    res = cps.project_to_quotient(scheme, [0], window, 8)
    assert res.projection_min_separation is not None and res.projection_min_separation > 0
    assert res.intersection_report is not None and res.intersection_report.is_delone
    assert res.equivalence_consistent

    inter = cps.intersect_with_subgroup(scheme, [0], window, 8)
    assert inter.cover_to_induced is not None and inter.cover_from_induced is not None

    theta = golden_field().gen()
    with pytest.raises(UnsupportedSubgroup):
        cps.intersect_with_subgroup(scheme, [(golden_field().one(), theta)], window, 8)
    _passed(
        7,
        f"projection min_sep ~ {float(res.projection_min_separation):.5f} (certified > 0), intersection Delone; "
        "irrational-slope subspace rejected as unsupported",
    )


def test_criterion_8_determinism_across_hash_seeds(tmp_path):
    jobs = (
        ["cps", "generate", "--scheme", "zs:2,3", "--window", "1", "--radius", "20",
         "--json", "zs.json", "--out", "zs.csv"],
        ["cps", "certify", "--scheme", "galois:golden", "--window", "1", "--radius", "12",
         "--json", "fib.json"],
        ["heis", "generate", "--field", "sqrt2", "--window", "1,1,2", "--radius", "5",
         "--json", "heis.json"],
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(meyerlab.__file__)))
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    blobs = {}
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
        for argv in jobs:
            proc = subprocess.run(
                [sys.executable, "-m", "meyerlab.cli", *argv],
                cwd=out, env=env, capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
        blobs[seed] = [(out / name).read_bytes() for name in ("zs.json", "zs.csv", "fib.json", "heis.json")]
    assert blobs["0"] == blobs["1"]
    _passed(8, "four artifacts byte-identical across PYTHONHASHSEED 0 and 1 in fresh processes")

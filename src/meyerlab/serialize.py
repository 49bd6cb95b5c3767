"""File formats and certificate replay.

JSON carries every certificate; point sets also export as CSV.  All numbers
in files are exact rational strings ("num/den") or integers; decimals never
appear.  JSON bytes are canonical (sorted keys, fixed indentation), so a
replayed certificate re-serializes bit-exactly.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction

from . import cps, heis, places, verify
from .errors import UsageError
from .exactnum import frac_str, str_frac


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".meyerlab-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_json(path: str, data) -> None:
    write_text_atomic(path, canonical_json(data))


def load_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{path} is not a JSON file: {exc}") from exc


# ---------------------------------------------------------------------------
# CSV export of patches (exact strings, lattice preimage columns included).
# ---------------------------------------------------------------------------


def patch_to_csv(patch) -> str:
    scheme = patch.scheme
    rows = [scheme.csv_header()] + [scheme.csv_row(p) for p in patch.points]
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# Greedy covers with points in the scheme's format.
# ---------------------------------------------------------------------------


def greedy_cover_to_dict(cover: verify.GreedyCover, scheme) -> dict:
    return {
        "kind": scheme.kind,
        "translates": [scheme.point_to_json(f) for f in cover.translates],
        "assignments": [[scheme.point_to_json(a), fi] for a, fi in cover.assignments],
    }


def greedy_cover_from_dict(data: dict, scheme) -> verify.GreedyCover:
    """The cover `greedy_cover_to_dict` wrote; its points are in `scheme`'s format."""
    if data["kind"] != scheme.kind:
        raise UsageError(f"expected a {scheme.kind} cover, not {data['kind']!r}")
    translates = [scheme.point_from_json(t) for t in data["translates"]]
    assignments = []
    for entry in data["assignments"]:
        if type(entry) is not list or len(entry) != 2:
            raise UsageError(f"a cover assignment is a [point, index] pair, not {entry!r}")
        assignments.append((scheme.point_from_json(entry[0]), entry[1]))
    return verify.GreedyCover(translates, assignments, len(assignments))


def meyer_result_to_dict(
    res: heis.MeyerCommensurability,
    scheme: heis.HeisScheme,
    radius,
    side_a: str,
    side_b: str,
    max_translates: int | None,
) -> dict:
    """side_a / side_b say how each point set derives from the scheme patch:
    "model_set" (the patch itself) or "symmetrized" (Lambda ∩ Lambda^-1).
    A negative verdict also records the translate cap and the witness point,
    so replay can rerun the capped search."""
    data = {
        "type": "meyer_commensurability",
        "scheme": scheme.to_dict(),
        "radius": frac_str(Fraction(radius)),
        "side_a": side_a,
        "side_b": side_b,
        "scope_radius": frac_str(res.scope_radius),
        "verdict": res.verdict,
        "cover_ab": None if res.cover_ab is None else greedy_cover_to_dict(res.cover_ab, scheme),
        "cover_ba": None if res.cover_ba is None else greedy_cover_to_dict(res.cover_ba, scheme),
    }
    if res.verdict != "COMMENSURABLE-AT-SCALE":
        data["max_translates"] = max_translates
        data["witness"] = scheme.point_to_json(res.witness)
    return data


def _meyer_side_points(patch: cps.Patch, side: str):
    if side == "model_set":
        return list(patch.points)
    if side == "symmetrized":
        return heis.symmetrize(patch.points)
    raise UsageError(f"unknown patch side {side!r}")


# ---------------------------------------------------------------------------
# Replay registry: every emitted certificate re-verifies from its file alone.
# ---------------------------------------------------------------------------


def _replayed_patch(data):
    """(patch, detail): the patch in `data` if its scheme re-enumerates the same
    points from its window and radius, else (None, why not)."""
    patch = cps.Patch.from_dict(data)
    again = patch.scheme.model_set(patch.window, patch.radius)
    if again.points != patch.points:
        return None, "point sets differ"
    return patch, f"{len(patch.points)} points re-enumerated"


def _replay_patch(data) -> tuple[bool, str]:
    patch, detail = _replayed_patch(data)
    return patch is not None, detail


def _replay_global_cover(data) -> tuple[bool, str]:
    cert = cps.GlobalCoverCertificate.from_dict(data)
    ok = cert.replay()
    return ok, f"|F| = {len(cert.translates)}"


def _replay_heis_cover(data) -> tuple[bool, str]:
    cert = heis.HeisCoverCertificate.from_dict(data)
    ok = cert.replay()
    return ok, f"|F| = {len(cert.translates)}"


def _replay_pisot(data) -> tuple[bool, str]:
    cert = places.PisotCertificate.from_dict(data)
    return cert.replay(), "membership decisions reproduced"


def _replay_poly_cover(data) -> tuple[bool, str]:
    cert = places.TranslateCoverCertificate.from_dict(data)
    ok = cert.replay()
    return ok, f"|T| = {len(cert.translates)}"


def _replay_poly_shrink(data) -> tuple[bool, str]:
    ring = places.SIntegerRing.from_dict(data["ring"])
    poly = [ring.field.elem([str_frac(c) for c in e]) for e in data["poly"]]
    again = places.shrink_for_polynomial(poly, ring, patch_radius=str_frac(data["patch_radius"]))
    ok = (
        again.delta == str_frac(data["delta"])
        and frac_str(again.bound_value) == data["bound_value"]
        and again.bound_value <= 1
    )
    return ok, f"delta = {data['delta']}"


def _replay_sum_product(data) -> tuple[bool, str]:
    ring = places.SIntegerRing.from_dict(data["ring"])
    elems = [ring.field.elem([str_frac(c) for c in e]) for e in data["elements"]]
    again = places.pvs_certify_set(elems, ring, patch_bound=str_frac(data["patch_bound"]))
    if not isinstance(again, places.SumProductCertificate):
        return False, "re-certification rejected the set"
    ok = canonical_json(again.to_dict()) == canonical_json(data)
    return ok, f"{len(elems)} members re-certified"


def _replay_approximate_lattice(data) -> tuple[bool, str]:
    cover_ok, message = _replay_global_cover(data["cover"])
    if not cover_ok:
        return False, "window cover failed: " + message
    scheme = cps.scheme_from_dict(data["scheme"])
    window = cps.Window.from_dict(data["window"])
    cert = cps.approximate_lattice_certificate(
        scheme, window, patch_radius=str_frac(data["patch_radius"])
    )
    ok = canonical_json(cert.delone.to_dict()) == canonical_json(data["delone"])
    return ok, message


def _replay_delone(data) -> tuple[bool, str]:
    if "patch" not in data:
        return False, "no embedded patch: the report cannot be checked"
    patch, detail = _replayed_patch(data["patch"])
    if patch is None:
        return False, "embedded patch: " + detail
    report = verify.delone_certify(
        patch.points,
        patch.group_ops(),
        str_frac(data["inner_radius"]),
        patch_radius=patch.radius,
    )
    again = dict(report.to_dict())
    stored = {k: v for k, v in data.items() if k not in ("patch", "inner_radius")}
    return canonical_json(again) == canonical_json(stored), "delone report recomputed"


def _replay_meyer(data) -> tuple[bool, str]:
    scheme = cps.scheme_from_dict(data["scheme"], "heis")
    negative = data["verdict"] != "COMMENSURABLE-AT-SCALE"
    if negative and (type(data.get("max_translates")) is not int or "witness" not in data):
        return False, "negative verdict without the translate cap and witness that reproduce it"
    patch = heis.heis_model_set(scheme, str_frac(data["radius"]))
    a_points = _meyer_side_points(patch, data["side_a"])
    b_points = _meyer_side_points(patch, data["side_b"])
    ops = scheme.group_ops()
    if negative:
        res = heis.meyer_commensurability(
            a_points, b_points, ops, str_frac(data["scope_radius"]), data["max_translates"]
        )
        again = meyer_result_to_dict(
            res, scheme, data["radius"], data["side_a"], data["side_b"], data["max_translates"]
        )
        ok = canonical_json(again) == canonical_json(data)
        return ok, "capped search reran" if ok else "capped search gives a different result"
    cover_ab = greedy_cover_from_dict(data["cover_ab"], scheme)
    cover_ba = greedy_cover_from_dict(data["cover_ba"], scheme)
    scope = str_frac(data["scope_radius"])
    a_in = {p for p in a_points if verify.point_norm_hi(p, ops) <= scope}
    b_in = {p for p in b_points if verify.point_norm_hi(p, ops) <= scope}
    if {a for a, _ in cover_ab.assignments} != a_in:
        return False, "cover_ab does not assign exactly the in-scope points"
    if {b for b, _ in cover_ba.assignments} != b_in:
        return False, "cover_ba does not assign exactly the in-scope points"
    ok = cover_ab.replay(b_points, ops) and cover_ba.replay(a_points, ops)
    return ok, "two-way covers replayed on re-derived patches"


# ---------------------------------------------------------------------------
# Deterministic analysis summaries: inputs embedded, replay = recompute+compare.
# ---------------------------------------------------------------------------


def intersection_summary(scheme, window, radius, axes) -> dict:
    res = cps.intersect_with_subgroup(scheme, axes, window, radius)
    return {
        "type": "intersection",
        "inputs": {
            "scheme": scheme.to_dict(),
            "window": window.to_dict(),
            "radius": frac_str(Fraction(radius)),
            "axes": list(axes),
        },
        "axes": list(res.axes),
        "intersection_size": len(res.intersection_points),
        "induced_patch_size": len(res.induced_patch.points),
        "cover_to_induced": len(res.cover_to_induced.translates),
        "cover_from_induced": len(res.cover_from_induced.translates),
        "inner_radius": frac_str(res.inner_radius),
    }


def projection_summary(scheme, window, radius, axes) -> dict:
    res = cps.project_to_quotient(scheme, axes, window, radius)
    return {
        "type": "projection",
        "inputs": {
            "scheme": scheme.to_dict(),
            "window": window.to_dict(),
            "radius": frac_str(Fraction(radius)),
            "axes": list(axes),
        },
        "quotient_axes": list(res.quotient_axes),
        "projected_size": len(res.projected_points),
        "projection_min_separation": None
        if res.projection_min_separation is None
        else frac_str(res.projection_min_separation),
        "intersection_delone": None
        if res.intersection_report is None
        else res.intersection_report.is_delone,
        "equivalence_consistent": res.equivalence_consistent,
    }


def center_summary(scheme: heis.HeisScheme, radius) -> dict:
    res = heis.center_intersection(scheme, radius)
    return {
        "type": "center_intersection",
        "inputs": {"scheme": scheme.to_dict(), "radius": frac_str(Fraction(radius))},
        "z_values": [z.to_list() for z in res.z_values],
        "report": None if res.report is None else res.report.to_dict(),
        "conclusive": res.conclusive,
    }


def hull_summary(scheme: heis.HeisScheme, radius_small, radius_large) -> dict:
    small = heis.heis_model_set(scheme, radius_small)
    large = heis.heis_model_set(scheme, radius_large)
    report = heis.schreiber_hull(small, large)
    return {
        "type": "schreiber_hull",
        "inputs": {
            "scheme": scheme.to_dict(),
            "radius_small": frac_str(Fraction(radius_small)),
            "radius_large": frac_str(Fraction(radius_large)),
        },
        "subgroup": report.subgroup,
        "aligned": report.aligned,
        "kappa_small": None if report.kappa_small is None else frac_str(report.kappa_small),
        "kappa_large": None if report.kappa_large is None else frac_str(report.kappa_large),
        "table": {
            name: [frac_str(k1), frac_str(k2)] for name, (k1, k2) in sorted(report.table.items())
        },
    }


def cellcover_summary(x_values, coverings) -> dict:
    ops = verify.rational_line_ops()
    x = [Fraction(v) for v in x_values]
    cov = [([Fraction(v) for v in f], [Fraction(v) for v in y]) for f, y in coverings]
    witness = verify.cell_cover(x, cov, ops)
    return {
        "type": "cell_cover",
        "inputs": {
            "x": [frac_str(v) for v in x],
            "coverings": [
                [[frac_str(v) for v in f], [frac_str(v) for v in y]] for f, y in cov
            ],
        },
        "representatives": [frac_str(r) for r in witness.representatives],
        "size": witness.size,
        "bound": witness.bound,
    }


def _replay_intersection(data) -> tuple[bool, str]:
    inp = data["inputs"]
    again = intersection_summary(
        cps.scheme_from_dict(inp["scheme"]),
        cps.Window.from_dict(inp["window"]),
        str_frac(inp["radius"]),
        tuple(inp["axes"]),
    )
    return canonical_json(again) == canonical_json(data), "intersection recomputed"


def _replay_projection(data) -> tuple[bool, str]:
    inp = data["inputs"]
    again = projection_summary(
        cps.scheme_from_dict(inp["scheme"]),
        cps.Window.from_dict(inp["window"]),
        str_frac(inp["radius"]),
        tuple(inp["axes"]),
    )
    return canonical_json(again) == canonical_json(data), "projection recomputed"


def _replay_center(data) -> tuple[bool, str]:
    inp = data["inputs"]
    again = center_summary(cps.scheme_from_dict(inp["scheme"], "heis"), str_frac(inp["radius"]))
    return canonical_json(again) == canonical_json(data), "centre intersection recomputed"


def _replay_hull(data) -> tuple[bool, str]:
    inp = data["inputs"]
    again = hull_summary(
        cps.scheme_from_dict(inp["scheme"], "heis"),
        str_frac(inp["radius_small"]),
        str_frac(inp["radius_large"]),
    )
    return canonical_json(again) == canonical_json(data), "hull search recomputed"


def _replay_cellcover(data) -> tuple[bool, str]:
    inp = data["inputs"]
    again = cellcover_summary(inp["x"], inp["coverings"])
    return canonical_json(again) == canonical_json(data), "cell cover recomputed"


def _replay_patch_cover(data) -> tuple[bool, str]:
    patch_a, detail = _replayed_patch(data["patch_a"])
    if patch_a is None:
        return False, "patch_a: " + detail
    patch_b, detail = _replayed_patch(data["patch_b"])
    if patch_b is None:
        return False, "patch_b: " + detail
    cover = greedy_cover_from_dict(data, patch_a.scheme)
    assigned = [a for a, _ in cover.assignments]
    if len(assigned) != len(patch_a.points) or set(assigned) != set(patch_a.points):
        return False, "the assignments do not take each point of patch_a exactly once"
    if not cover.replay(patch_b.points, patch_a.group_ops()):
        return False, "an assignment does not carry its point into patch_b"
    return True, "pointwise assignments re-verified"


def _replay_rejection(data) -> tuple[bool, str]:
    ring = places.SIntegerRing.from_dict(data["ring"])
    element = ring.field.elem([str_frac(c) for c in data["element"]])
    result = places.s_integer_membership(element, ring)
    if isinstance(result, places.PisotCertificate):
        return False, "element re-certified as a member; rejection not reproduced"
    return (
        result.witness_place.to_dict() == data["witness_place"],
        "rejection witness reproduced",
    )


REPLAYERS = {
    "patch": _replay_patch,
    "heis_patch": _replay_patch,
    "global_cover": _replay_global_cover,
    "heis_cover": _replay_heis_cover,
    "pisot_membership": _replay_pisot,
    "poly_translate_cover": _replay_poly_cover,
    "poly_shrink": _replay_poly_shrink,
    "sum_product": _replay_sum_product,
    "sum_product_rejection": _replay_rejection,
    "approximate_lattice": _replay_approximate_lattice,
    "delone_report": _replay_delone,
    "meyer_commensurability": _replay_meyer,
    "intersection": _replay_intersection,
    "projection": _replay_projection,
    "center_intersection": _replay_center,
    "schreiber_hull": _replay_hull,
    "cell_cover": _replay_cellcover,
    "patch_cover": _replay_patch_cover,
}


def replay(data: dict) -> tuple[bool, str]:
    """Re-verify a serialized certificate; (ok, human-readable detail)."""
    tag = data.get("type") if isinstance(data, dict) else None
    if tag not in REPLAYERS:
        raise UsageError(f"no replay handler for certificate type {tag!r}")
    try:
        return REPLAYERS[tag](data)
    except KeyError as exc:
        raise UsageError(f"{tag} artifact lacks the key {exc}") from exc

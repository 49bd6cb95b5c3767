"""File formats and certificate replay.

JSON carries every certificate; point sets also export as CSV.  All numbers
in files are exact rational strings ("num/den") or integers; decimals never
appear.  JSON bytes are canonical: one ASCII line with sorted keys, "," and
":" separators and no other whitespace, ending in one newline, so a
replayed certificate re-serializes bit-exactly.  Replay compares decoded
content, so a file written with any other layout (such as the indented one
of earlier versions) replays the same.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from . import cps, heis, places, verify
from .errors import UsageError
from .exactnum import RationalLine, frac_str, json_list, json_object, str_frac


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write `text` to a temporary file beside `path`, then rename it to `path`.

    The file is created with mode 0666 less the umask.  A path that cannot be
    written is a usage error, and leaves no temporary file."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".meyerlab-{os.getpid()}.tmp")
    created = False
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        created = True
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        # gone after a successful replace
        if created and os.path.exists(tmp):
            os.unlink(tmp)


def save_json(path: str, data) -> None:
    write_text_atomic(path, canonical_json(data))


def read_text(path: str) -> str:
    try:
        with open(path) as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{path} is not a text file: {exc}") from exc


def load_json(path: str):
    text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
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
    """A greedy cover is its translates: replay finds the translate of each
    covered point itself."""
    return {"translates": [scheme.point_to_json(f) for f in cover.translates]}


def greedy_cover_from_dict(data: dict, scheme, scope_points: int) -> verify.GreedyCover:
    """The cover of `scope_points` points that `greedy_cover_to_dict` wrote;
    its translates are in `scheme`'s format."""
    json_object(data, "a cover is")
    translates = json_list(data["translates"], "the translates of a cover are")
    return verify.GreedyCover([scheme.point_from_json(t) for t in translates], scope_points)


def _carried(cover: verify.GreedyCover, points: str) -> str:
    """What a replayed greedy cover checked, with its counts."""
    n = len(cover.translates)
    return f"{cover.scope_points} {points} carried by {n} translate{'' if n == 1 else 's'}"


def patch_cover_artifact(cover: verify.GreedyCover, patch_a: cps.Patch, patch_b: cps.Patch) -> dict:
    """A `patch_cover` file: the cover of patch_a by translates of patch_b, with
    both patches named by their inputs, which replay enumerates again."""
    return greedy_cover_to_dict(cover, patch_a.scheme) | {
        "type": "patch_cover",
        "patch_a": patch_a.inputs_dict(),
        "patch_b": patch_b.inputs_dict(),
    }


# ---------------------------------------------------------------------------
# Artifacts that replay rebuilds: each has one builder, shared by its CLI
# command and its replay.
# ---------------------------------------------------------------------------


def delone_artifact(patch: cps.Patch, inner_radius) -> dict:
    """A `delone_report` file: the patch's Delone report on the inner ball, with the patch."""
    report = verify.delone_certify(
        patch.factors, patch.scheme.physical_place, inner_radius, patch_radius=patch.radius
    )
    return report.to_dict() | {"patch": patch.to_dict(), "inner_radius": frac_str(inner_radius)}


def meyer_artifact(
    scheme: heis.HeisScheme, radius, side_a: str, side_b: str, max_translates: int | None
) -> dict:
    """A `meyer_commensurability` file: two-way covers between two point sets
    of the radius-R patch, within scope R/2.

    side_a / side_b say how each point set derives from the scheme patch:
    "model_set" (the patch itself) or "symmetrized" (Lambda ∩ Lambda^-1).
    A negative verdict also records the translate cap and the witness point,
    so replay can rerun the capped search."""
    radius = Fraction(radius)
    patch = heis.heis_model_set(scheme, radius)
    res = heis.meyer_commensurability(
        _meyer_side_points(patch, side_a),
        _meyer_side_points(patch, side_b),
        scheme,
        radius / 2,
        max_translates,
    )
    return _meyer_dict(scheme, radius, side_a, side_b, res, max_translates)


def _meyer_dict(scheme, radius, side_a, side_b, res, max_translates) -> dict:
    """The `meyer_commensurability` file of the result `res`."""
    data = {
        "type": "meyer_commensurability",
        "scheme": scheme.to_dict(),
        "radius": frac_str(radius),
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
        "central_size": len(res.z_values),
        "report": None if res.report is None else res.report.to_dict(),
        "conclusive": res.conclusive,
    }


def hull_summary(scheme: heis.HeisScheme, radius_small, radius_large) -> dict:
    subgroup, kappa_small, kappa_large = heis.schreiber_hull(scheme, radius_small, radius_large)
    return {
        "type": "schreiber_hull",
        "inputs": {
            "scheme": scheme.to_dict(),
            "radius_small": frac_str(Fraction(radius_small)),
            "radius_large": frac_str(Fraction(radius_large)),
        },
        "subgroup": subgroup,
        # the hull is read from the window, so every file is aligned
        "aligned": True,
        "kappa_small": frac_str(kappa_small),
        "kappa_large": frac_str(kappa_large),
    }


def cellcover_summary(x_values, coverings) -> dict:
    x = [str_frac(v) for v in json_list(x_values, "the points x of a cell cover are")]
    cov = []
    for pair in json_list(coverings, "the coverings of a cell cover are"):
        if type(pair) is not list or len(pair) != 2:
            raise UsageError(f"a covering is an [F, Y] pair of point lists, not {pair!r}")
        f, y = (json_list(v, "the F and Y of a covering are") for v in pair)
        cov.append(([str_frac(v) for v in f], [str_frac(v) for v in y]))
    witness = verify.cell_cover(x, cov, RationalLine)
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


# ---------------------------------------------------------------------------
# Replay: every emitted certificate re-verifies from its file alone.  A file
# either holds a certificate that replay checks, or is rebuilt from the inputs
# it records and compared with the rebuild as a whole.
# ---------------------------------------------------------------------------


def _rebuilt_patch(data) -> cps.Patch:
    """The patch that the scheme, window and radius of the patch dict `data`
    enumerate.  No point of the file is read: where the caller compares the
    rebuild with the file, a point that is not as its writer writes it fails
    replay like any other difference."""
    scheme, window, radius = cps.patch_inputs(data)
    return scheme.model_set(window, radius)


def _rejection(data) -> dict:
    ring = places.SIntegerRing.from_dict(data["ring"])
    result = places.s_integer_membership(ring.field.elem_from_json(data["element"]), ring)
    # an element of O_{K,S} has no rejection, so no rebuild can match the file
    return {} if result.is_member else result.to_dict()


def _sum_product(data) -> dict:
    if "members" in data:
        # replay never read the per-element records that the older layout carried
        raise UsageError(
            "the file lists members, as in the older sum_product layout; "
            "write the file again with pisot certify"
        )
    ring = places.SIntegerRing.from_dict(data["ring"])
    elements = json_list(data["elements"], "the elements of a sum-product set are")
    elements = [ring.field.elem_from_json(e) for e in elements]
    return places.pvs_certify_set(elements, ring).to_dict()


def _inputs(data, *keys) -> tuple:
    """The values of `keys` in the `inputs` object of a summary."""
    inputs = json_object(data["inputs"], f"the inputs of a {data['type']} artifact are")
    return tuple(inputs[key] for key in keys)


def _subgroup_inputs(data) -> tuple:
    scheme, window, radius, axes = _inputs(data, "scheme", "window", "radius", "axes")
    json_list(axes, "the axes of a subgroup are")
    if any(type(a) is not int for a in axes):
        raise UsageError(f"the axes of a subgroup are integers, not {axes!r}")
    scheme = cps.scheme_from_dict(scheme)
    return scheme, cps.Window.from_dict(window, scheme), str_frac(radius), tuple(axes)


def _heis_inputs(data, *radii) -> tuple:
    scheme, *values = _inputs(data, "scheme", *radii)
    return (cps.scheme_from_dict(scheme, "heis"), *(str_frac(r) for r in values))


# type -> the artifact rebuilt from the inputs its file records.  Each entry
# looks its builder up by module-level name when it runs.
REBUILDERS = {
    **dict.fromkeys(("patch", "heis_patch"), lambda d: _rebuilt_patch(d).to_dict()),
    "delone_report": lambda d: delone_artifact(
        _rebuilt_patch(d["patch"]), str_frac(d["inner_radius"])
    ),
    "sum_product_rejection": _rejection,
    "sum_product": _sum_product,
    "intersection": lambda d: intersection_summary(*_subgroup_inputs(d)),
    "projection": lambda d: projection_summary(*_subgroup_inputs(d)),
    "center_intersection": lambda d: center_summary(*_heis_inputs(d, "radius")),
    "schreiber_hull": lambda d: hull_summary(*_heis_inputs(d, "radius_small", "radius_large")),
    "cell_cover": lambda d: cellcover_summary(*_inputs(d, "x", "coverings")),
}


def _first_difference(data, written, path: str = "") -> str | None:
    """The dotted path of the first key or value of `data` that is not the one
    in `written`, or None when the two are the same JSON."""
    if type(data) is dict and type(written) is dict:
        for key in sorted(data.keys() | written.keys()):
            if key not in data or key not in written:
                return path + key
            where = _first_difference(data[key], written[key], f"{path}{key}.")
            if where is not None:
                return where
        return None
    if type(data) is list and type(written) is list and len(data) == len(written):
        for i, (a, b) in enumerate(zip(data, written)):
            where = _first_difference(a, b, f"{path}{i}.")
            if where is not None:
                return where
        return None
    # a leaf, compared with its type, so that true is not 1
    return None if (type(data), data) == (type(written), written) else path.rstrip(".")


def _as_written(data, written: dict, detail: str) -> tuple[bool, str]:
    """(ok, detail) when the file `data` is what its writer writes for the
    content replay checked, `written`; else the failure names where it is not,
    so that a file never carries a key or a value that replay did not check."""
    where = _first_difference(data, written)
    if where is not None:
        return False, f"{where} is not what the writer writes for the checked content"
    return True, detail


def _replay_rebuilt(data) -> tuple[bool, str]:
    tag = data["type"]
    again = canonical_json(REBUILDERS[tag](data))
    if again != canonical_json(data):
        where = _first_difference(data, json.loads(again))
        return False, f"{tag} rebuilt from its inputs differs from the file at {where}"
    return True, f"{tag} rebuilt from its inputs: {len(again)} bytes identical"


def _delone_contradiction(data) -> str | None:
    """Why the fields of a `delone_report` cannot all be right, or None.

    A report needs two points, so its writer never writes a null bound: a bound
    that is not a rational string is a usage error."""
    covering = json_object(data["covering"], "the covering of a Delone report is")
    bounds = [data["min_separation"], data["inner_radius"]]
    bounds += [covering[k] for k in ("bound", "inner_radius")]
    for value in bounds:
        if type(value) is not str:
            raise UsageError(f"a bound of a Delone report is a rational string, not {value!r}")
    separation, inner, bound, _ = (str_frac(v) for v in bounds)
    if data["metric"] != verify.SUP_NORM_METRIC:
        return f"the metric is not the {verify.SUP_NORM_METRIC}"
    if covering["inner_radius"] != data["inner_radius"]:
        return "the covering is not taken on the report's inner ball"
    if covering["verdict"] != ("FINITE" if bound < inner else "INFINITE"):
        return "the covering verdict does not follow from its bound"
    if data["delone"] is not (separation > 0 and covering["verdict"] == "FINITE"):
        return "the delone flag does not follow from the separation and the verdict"
    return None


def _replay_delone(data) -> tuple[bool, str]:
    if "patch" not in data:
        return False, "no embedded patch: the report cannot be checked"
    contradiction = _delone_contradiction(data)
    if contradiction is not None:
        return False, contradiction
    return _replay_rebuilt(data)


# type -> the certificate its file holds, which checks itself.
CERTIFICATES = {
    # one window-cover type; a scheme's `cover_type` names its files
    **dict.fromkeys(("global_cover", "heis_cover"), lambda d: cps.GlobalCoverCertificate.from_dict(d)),
    "poly_translate_cover": lambda d: places.TranslateCoverCertificate.from_dict(d),
}


def _replay_certificate(data) -> tuple[bool, str]:
    tag = data["type"]
    cert = CERTIFICATES[tag](data)
    if tag == "heis_cover" and (cert.w1, cert.w2) != cert.scheme.square_windows():
        # the file claims Lambda(W) Lambda(W) inside F Lambda(W) for the scheme's W
        ok, why = False, "the windows are not box(W * W) and the scheme's W"
    else:
        ok, why = cert.replay()
    if ok:
        ok, why = _as_written(data, cert.to_dict(), why)
    return ok, f"{tag} checked: {why}" if ok else f"{tag}: {why}"


def _replay_approximate_lattice(data) -> tuple[bool, str]:
    scheme = cps.scheme_from_dict(data["scheme"])
    window = cps.Window.from_dict(data["window"], scheme)
    cover = cps.GlobalCoverCertificate.from_dict(data["cover"])
    wsq = cps.window_product(window, window)
    if cover.scheme != scheme or cover.w1 != wsq or cover.w2 != window:
        return False, "the cover is not one of W + W by tiles of W in this scheme"
    ok, why = cover.replay()
    if not ok:
        return False, "window cover failed: " + why
    radius = str_frac(data["patch_radius"])
    report = cps.lattice_delone_report(scheme, window, radius)
    # the written file holds the rebuilt report, so a changed report differs from it
    written = cps.ApproximateLatticeCertificate(scheme, window, cover, report, radius).to_dict()
    return _as_written(data, written, f"|F| = {len(cover.translates)}, Delone report rebuilt")


def _replay_meyer(data) -> tuple[bool, str]:
    scheme = cps.scheme_from_dict(data["scheme"], "heis")
    radius = str_frac(data["radius"])
    if data["verdict"] != "COMMENSURABLE-AT-SCALE":
        cap = data.get("max_translates")
        if type(cap) is not int or cap < 1 or "witness" not in data:
            # a cap below 1 would make every verdict negative
            return False, "negative verdict without a cap >= 1 and the witness that reproduce it"
        again = meyer_artifact(scheme, radius, data["side_a"], data["side_b"], cap)
        ok = canonical_json(again) == canonical_json(data)
        return ok, "capped search reran" if ok else "capped search gives a different result"
    patch = heis.heis_model_set(scheme, radius)
    a_points = _meyer_side_points(patch, data["side_a"])
    b_points = _meyer_side_points(patch, data["side_b"])
    # the writer's scope, so a file that claims less fails as not what it writes
    scope = radius / 2
    a_in = verify.points_within(a_points, scheme, scope)
    b_in = verify.points_within(b_points, scheme, scope)
    cover_ab = greedy_cover_from_dict(data["cover_ab"], scheme, len(a_in))
    cover_ba = greedy_cover_from_dict(data["cover_ba"], scheme, len(b_in))
    checks = (
        ("cover_ab", cover_ab, a_in, b_points, "side_a", "side_b"),
        ("cover_ba", cover_ba, b_in, a_points, "side_b", "side_a"),
    )
    for key, cover, covered, target, a, b in checks:
        why = cover.failure(covered, target, scheme, f"in-scope point of {a} into {b}")
        if why is not None:
            return False, f"{key} {why}"
    res = heis.MeyerCommensurability(cover_ab, cover_ba, scope, data["verdict"], None)
    written = _meyer_dict(scheme, radius, data["side_a"], data["side_b"], res, None)
    checked = ", ".join(
        f"{_carried(cover, f'in-scope points of {a}')} into {b}" for _, cover, _, _, a, b in checks
    )
    return _as_written(data, written, f"meyer_commensurability: {checked}")


def _replay_patch_cover(data) -> tuple[bool, str]:
    patches = []
    for key in ("patch_a", "patch_b"):
        inputs = json_object(data[key], "a patch is")
        if "points" in inputs:
            # the older layout embedded whole patches; replay reads no point of them
            raise UsageError(
                f"{key} lists its points, as in the older patch_cover layout; "
                "write the file again with verify cover"
            )
        patch = _rebuilt_patch(inputs)
        where = _first_difference(inputs, patch.inputs_dict())
        if where is not None:
            return False, f"{key} differs from the inputs of its re-enumeration at {where}"
        patches.append(patch)
    patch_a, patch_b = patches
    cover = greedy_cover_from_dict(data, patch_a.scheme, len(patch_a.points))
    why = cover.failure(
        patch_a.points, patch_b.points, patch_a.scheme, "point of patch_a into patch_b"
    )
    if why is not None:
        return False, f"the cover {why}"
    written = patch_cover_artifact(cover, patch_a, patch_b)
    return _as_written(data, written, f"patch_cover: {_carried(cover, 'points of patch_a')}")


REPLAYERS = {
    **dict.fromkeys(CERTIFICATES, _replay_certificate),
    **dict.fromkeys(REBUILDERS, _replay_rebuilt),
    "delone_report": _replay_delone,
    "approximate_lattice": _replay_approximate_lattice,
    "meyer_commensurability": _replay_meyer,
    "patch_cover": _replay_patch_cover,
}


def replay(data: dict) -> tuple[bool, str]:
    """Re-verify a serialized certificate; (ok, human-readable detail)."""
    if type(data) is not dict:
        raise UsageError("the file is not an artifact: a JSON object with a type is expected")
    tag = data.get("type")
    if type(tag) is not str or tag not in REPLAYERS:
        raise UsageError(f"no replay handler for certificate type {tag!r}")
    try:
        return REPLAYERS[tag](data)
    except KeyError as exc:
        raise UsageError(f"{tag} artifact lacks the key {exc}") from exc
    except RecursionError as exc:
        # no writer nests past a few levels; a file that loads just under the
        # decoder's limit can still exceed it when replay encodes the file
        raise UsageError(f"{tag} artifact is nested too deeply: {exc}") from exc

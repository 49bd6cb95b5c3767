"""meyerlab command line: generate / certify / intersect / pisot / heis / verify.

Exit codes: 0 all certificates verified, 2 certified negative or inconclusive
verdict, 1 usage or resource error.  Outputs are written atomically and are
byte-identical for identical configs across runs and hash seeds.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from fractions import Fraction

from . import cps, heis, places, serialize, verify
from .errors import (
    CoverSearchFailed,
    MeyerlabError,
    ResourceLimit,
    UnsupportedSubgroup,
    UsageError,
)
from .exactnum import NumberField, frac_str, golden_field, sqrt2_field, str_frac, str_int

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Spec parsing.
# ---------------------------------------------------------------------------

FIELD_NAMES = {
    "golden": golden_field,
    "sqrt5": golden_field,  # Q(sqrt5) through its monogenic golden generator
    "sqrt2": sqrt2_field,
}


def parse_field(spec: str) -> NumberField:
    if spec in FIELD_NAMES:
        return FIELD_NAMES[spec]()
    if os.path.exists(spec):
        return NumberField.from_dict(serialize.load_json(spec))
    raise UsageError(f"unknown field {spec!r} (named field or JSON file path)")


def parse_scheme(spec: str):
    parts = spec.split(":")
    if parts[0] == "zs":
        if len(parts) != 2:
            raise UsageError("scheme spec: zs:<p1>[,<p2>...]")
        return cps.ZSScheme([str_int(p) for p in parts[1].split(",")])
    if parts[0] == "galois":
        if len(parts) < 2:
            raise UsageError("scheme spec: galois:<field>[:<dim>]")
        field = parse_field(parts[1])
        dim = str_int(parts[2]) if len(parts) > 2 else 1
        return cps.GaloisScheme(field, dim=dim)
    raise UsageError(f"unknown scheme kind {parts[0]!r}")


def parse_window(scheme, spec: str) -> cps.Window:
    tokens = [t.strip() for t in spec.split(",") if t.strip()]
    if not tokens:
        raise UsageError("empty window spec")
    if scheme.kind == "zs":
        levels = []
        if all(t.startswith("z") and ":" in t for t in tokens):
            by_prime = {}
            for t in tokens:
                head, level = t.split(":", 1)
                by_prime[str_int(head[1:])] = str_int(level)
            try:
                levels = [by_prime[p] for p in scheme.primes]
            except KeyError as exc:
                raise UsageError(f"window missing prime {exc}") from exc
        else:
            levels = [str_int(t) for t in tokens]
            if len(levels) == 1:
                levels = levels * len(scheme.primes)
        if len(levels) != len(scheme.primes):
            raise UsageError("one window level per scheme prime")
        return cps.Window.balls(*zip(scheme.primes, levels))
    widths = [str_frac(t.split(":")[-1]) for t in tokens]
    if len(widths) == 1:
        widths = widths * scheme.dim
    return cps.Window.box(*widths)


def parse_ring(spec: str) -> places.SIntegerRing:
    parts = spec.split(":")
    if parts[0] == "z":
        return places.ring_of_integers()
    if parts[0] == "zs":
        return places.ring_zs([str_int(p) for p in parts[1].split(",")])
    if parts[0] == "pvs":
        field = parse_field(parts[1])
        index = str_int(parts[2]) if len(parts) > 2 else 1
        return places.ring_pvs(field, index)
    raise UsageError(f"unknown ring spec {spec!r} (z | zs:<primes> | pvs:<field>[:<root>])")


def parse_heis_window(spec: str):
    widths = [str_frac(t) for t in spec.split(",")]
    if len(widths) != 3:
        raise UsageError("Heisenberg window spec: cx,cy,cz")
    return widths


def parse_elements(path: str, field: NumberField):
    data = serialize.load_json(path)
    if isinstance(data, dict):
        data = data.get("elements", [])
    out = []
    for entry in data:
        if isinstance(entry, str):
            out.append(field.from_rational(str_frac(entry)))
        else:
            out.append(field.elem([str_frac(c) for c in entry]))
    return out


# ---------------------------------------------------------------------------
# Run configuration: TOML-style key=value files, CLI flags take precedence.
# ---------------------------------------------------------------------------

CONFIG_KEYS = ("scheme", "window", "radius", "out", "json", "field", "ring")


def apply_config(path: str, args: argparse.Namespace) -> None:
    """Set each option the command line left unset from a key=value file."""
    values = {}
    with open(path) as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{line_no}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise UsageError(f"{path}:{line_no}: unknown config key {key!r}")
            values[key] = value.strip("\"'")
    for key, value in values.items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"missing required option --{name.replace('_', '-')}")


def _emit(args, data: dict | None, csv: Callable[[], str] | None, summary: str) -> None:
    """Write the JSON artifact and the CSV; `csv` is called only if the CSV is written."""
    wrote = False
    if data is not None and getattr(args, "json", None):
        serialize.save_json(args.json, data)
        wrote = True
    if csv is not None and getattr(args, "out", None):
        serialize.write_text_atomic(args.out, csv())
        wrote = True
    if not wrote and csv is not None:
        sys.stdout.write(csv())
    print(summary)


# ---------------------------------------------------------------------------
# cps subcommands.
# ---------------------------------------------------------------------------


def cmd_cps_generate(args) -> int:
    _require(args, "scheme", "window", "radius")
    scheme = parse_scheme(args.scheme)
    window = parse_window(scheme, args.window)
    patch = cps.model_set_patch(scheme, window, str_frac(args.radius))
    _emit(
        args,
        patch.to_dict(),
        lambda: serialize.patch_to_csv(patch),
        f"patch: {len(patch.points)} points",
    )
    return EXIT_OK


def cmd_cps_certify(args) -> int:
    _require(args, "scheme", "window")
    scheme = parse_scheme(args.scheme)
    window = parse_window(scheme, args.window)
    radius = str_frac(args.radius) if args.radius else Fraction(20)
    # the cover replayed when it was built; only the metric half can fail
    cert = cps.approximate_lattice_certificate(scheme, window, patch_radius=radius)
    ok = cert.delone.is_delone
    _emit(
        args,
        cert.to_dict(),
        None,
        f"approximate lattice: |F| = {len(cert.translates)}, "
        f"min_sep = {frac_str(cert.delone.min_separation)}, "
        f"covering = {cert.delone.covering.verdict}",
    )
    return EXIT_OK if ok else EXIT_NEGATIVE


def _parse_axes(spec: str):
    return tuple(str_int(a) for a in spec.split(",") if a.strip() != "")


def cmd_cps_intersect(args) -> int:
    _require(args, "scheme", "window", "radius", "axes")
    scheme = parse_scheme(args.scheme)
    window = parse_window(scheme, args.window)
    data = serialize.intersection_summary(
        scheme, window, str_frac(args.radius), _parse_axes(args.axes)
    )
    _emit(args, data, None, f"intersection: {data['intersection_size']} points, covers "
          f"{data['cover_to_induced']}/{data['cover_from_induced']} translates")
    return EXIT_OK


def cmd_cps_project(args) -> int:
    _require(args, "scheme", "window", "radius", "axes")
    scheme = parse_scheme(args.scheme)
    window = parse_window(scheme, args.window)
    data = serialize.projection_summary(
        scheme, window, str_frac(args.radius), _parse_axes(args.axes)
    )
    _emit(args, data, None, f"projection: consistent = {data['equivalence_consistent']}")
    return EXIT_OK if data["equivalence_consistent"] else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# heis subcommands.
# ---------------------------------------------------------------------------


def _heis_scheme(args) -> heis.HeisScheme:
    _require(args, "field", "window")
    return heis.HeisScheme(parse_field(args.field), parse_heis_window(args.window))


def cmd_heis_generate(args) -> int:
    scheme = _heis_scheme(args)
    _require(args, "radius")
    patch = heis.heis_model_set(scheme, str_frac(args.radius))
    _emit(
        args,
        patch.to_dict(),
        lambda: serialize.patch_to_csv(patch),
        f"patch: {len(patch.points)} points",
    )
    return EXIT_OK


def cmd_heis_certify(args) -> int:
    scheme = _heis_scheme(args)
    # the certificate replayed when it was built
    cert = heis.heis_covering_certificate(scheme)
    _emit(args, cert.to_dict(), None, f"heisenberg cover: |F| = {len(cert.translates)}")
    return EXIT_OK


def cmd_heis_center(args) -> int:
    scheme = _heis_scheme(args)
    _require(args, "radius")
    data = serialize.center_summary(scheme, str_frac(args.radius))
    if not data["conclusive"]:
        _emit(args, data, None, "center intersection: inconclusive (too few points)")
        return EXIT_NEGATIVE
    _emit(
        args,
        data,
        None,
        f"center intersection: {len(data['z_values'])} points, "
        f"min_gap = {data['report']['min_separation']}",
    )
    return EXIT_OK if data["report"]["delone"] else EXIT_NEGATIVE


def cmd_heis_hull(args) -> int:
    scheme = _heis_scheme(args)
    _require(args, "radius_small", "radius_large")
    data = serialize.hull_summary(
        scheme, str_frac(args.radius_small), str_frac(args.radius_large)
    )
    _emit(args, data, None, f"hull: {data['subgroup'] or 'not aligned'}")
    return EXIT_OK if data["aligned"] else EXIT_NEGATIVE


def cmd_heis_commensurate(args) -> int:
    scheme = _heis_scheme(args)
    _require(args, "radius")
    radius = str_frac(args.radius)
    patch = heis.heis_model_set(scheme, radius)
    sides = {}
    for side, spec in (("a", args.side_a), ("b", args.side_b)):
        sides[side] = serialize._meyer_side_points(patch, spec)
    scope = radius / 2
    res = heis.meyer_commensurability(
        sides["a"], sides["b"], patch.group_ops(), scope, max_translates=args.max_translates
    )
    data = serialize.meyer_result_to_dict(
        res, scheme, radius, args.side_a, args.side_b, args.max_translates
    )
    if res.verdict != "COMMENSURABLE-AT-SCALE":
        _emit(args, data, None, f"verdict: {res.verdict}")
        return EXIT_NEGATIVE
    _emit(
        args,
        data,
        None,
        f"commensurable at scale {frac_str(scope)}: |F1| = {len(res.cover_ab.translates)}, "
        f"|F2| = {len(res.cover_ba.translates)}",
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# pisot subcommands.
# ---------------------------------------------------------------------------


def cmd_pisot_certify(args) -> int:
    _require(args, "elements")
    if args.ring in (None, "pvs") and args.field:
        ring = places.ring_pvs(parse_field(args.field), 1)
    else:
        _require(args, "ring")
        ring = parse_ring(args.ring)
    elems = parse_elements(args.elements, ring.field)
    result = places.pvs_certify_set(elems, ring, patch_bound=None)
    if isinstance(result, places.SetRejection):
        data = {
            "type": "sum_product_rejection",
            "ring": ring.to_dict(),
            "element": result.element.to_list(),
            "witness_place": result.witness_place.to_dict(),
            "reason": result.reason,
        }
        _emit(args, data, None, f"rejected: {result.reason}")
        return EXIT_NEGATIVE
    _emit(
        args,
        result.to_dict(),
        None,
        f"certified {len(result.elements)} elements in O_K_S; "
        f"closed pairs {result.closed_pairs}, out of patch {result.out_of_patch_pairs}, "
        f"flagged {len(result.flagged_products)}",
    )
    return EXIT_OK


def cmd_pisot_enumerate(args) -> int:
    _require(args, "ring", "radius")
    ring = parse_ring(args.ring)
    radius = str_frac(args.radius)
    if ring.field.degree == 1:
        scheme = cps.ZSScheme(ring.s_primes or [2])
        if not ring.s_primes:
            raise UsageError("enumerate needs at least one finite prime for rational rings")
        window = cps.Window.balls(*((p, 0) for p in scheme.primes))
        patch = cps.model_set_patch(scheme, window, radius)
    else:
        scheme = cps.GaloisScheme(ring.field, physical_root_index=ring.s_arch_indices[0])
        window = cps.Window.box(str_frac(args.window) if args.window else Fraction(1))
        patch = cps.model_set_patch(scheme, window, radius)
    _emit(
        args,
        patch.to_dict(),
        lambda: serialize.patch_to_csv(patch),
        f"{len(patch.points)} ring points",
    )
    return EXIT_OK


def cmd_pisot_polycover(args) -> int:
    _require(args, "ring", "poly")
    ring = parse_ring(args.ring)
    coeffs = [str_frac(c) for c in args.poly.split(",")]
    scale = str_frac(args.scale) if args.scale else Fraction(1)
    cert = places.polynomial_translate_cover(coeffs, ring, window_scale=scale)
    ok = cert.replay()
    _emit(args, cert.to_dict(), None, f"translate cover: |T| = {len(cert.translates)}")
    return EXIT_OK if ok else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# verify subcommands.
# ---------------------------------------------------------------------------


def _load_patch(path: str, args=None) -> cps.Patch:
    if path.endswith(".csv"):
        if args is None or not (args.scheme or args.field):
            raise UsageError("CSV patches need --scheme (or --field/--window for heis) metadata")
        with open(path) as handle:
            rows = [line.strip() for line in handle if line.strip()]
        _require(args, "window", "radius")
        if args.field:  # Heisenberg CSV: the window belongs to the scheme
            scheme, window = _heis_scheme(args), None
        else:
            scheme = parse_scheme(args.scheme)
            window = parse_window(scheme, args.window)
        pts = tuple(scheme.point_from_csv(row) for row in rows[1:])
        return cps.Patch(scheme, window, str_frac(args.radius), pts)
    data = serialize.load_json(path)
    if data.get("type") not in ("patch", "heis_patch"):
        raise UsageError(f"{path} is not a patch file")
    return cps.Patch.from_dict(data)


def cmd_verify_delone(args) -> int:
    _require(args, "patch")
    patch = _load_patch(args.patch, args)
    inner = str_frac(args.inner) if args.inner else Fraction(patch.radius) / 2
    report = verify.delone_certify(patch.points, patch.group_ops(), inner, patch_radius=patch.radius)
    data = dict(report.to_dict())
    data["patch"] = patch.to_dict()
    data["inner_radius"] = frac_str(inner)
    _emit(
        args,
        data,
        None,
        f"min_sep = {frac_str(report.min_separation)}, covering = {report.covering.verdict}",
    )
    return EXIT_OK if report.is_delone else EXIT_NEGATIVE


def cmd_verify_cover(args) -> int:
    _require(args, "a", "b")
    pa, pb = _load_patch(args.a, args), _load_patch(args.b, args)
    ops = pa.group_ops()
    cover, witness = verify.greedy_cover(
        pa.points, pb.points, ops, max_translates=args.max_translates
    )
    if cover is None:
        print(f"cover infeasible under translate cap; witness = {witness!r}")
        return EXIT_NEGATIVE
    data = {"type": "patch_cover"} | serialize.greedy_cover_to_dict(cover, pa.scheme)
    data["patch_a"] = pa.to_dict()
    data["patch_b"] = pb.to_dict()
    _emit(args, data, None, f"|F| = {len(cover.translates)} covering {cover.scope_points} points")
    return EXIT_OK


def cmd_verify_cellcover(args) -> int:
    _require(args, "spec")
    data = serialize.load_json(args.spec)
    out = serialize.cellcover_summary(data["x"], data["coverings"])
    _emit(args, out, None, f"|F'| = {out['size']} <= {out['bound']}")
    return EXIT_OK


def cmd_verify_replay(args) -> int:
    data = serialize.load_json(args.file)
    ok, detail = serialize.replay(data)
    print(("replay ok: " if ok else "replay FAILED: ") + detail)
    return EXIT_OK if ok else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# Parser wiring.
# ---------------------------------------------------------------------------


COMMANDS = {
    "cps": {
        "generate": cmd_cps_generate,
        "certify": cmd_cps_certify,
        "intersect": cmd_cps_intersect,
        "project": cmd_cps_project,
    },
    "heis": {
        "generate": cmd_heis_generate,
        "certify": cmd_heis_certify,
        "center": cmd_heis_center,
        "hull": cmd_heis_hull,
        "commensurate": cmd_heis_commensurate,
    },
    "pisot": {
        "certify": cmd_pisot_certify,
        "enumerate": cmd_pisot_enumerate,
        "polycover": cmd_pisot_polycover,
    },
    "verify": {
        "delone": cmd_verify_delone,
        "cover": cmd_verify_cover,
        "cellcover": cmd_verify_cellcover,
        "replay": cmd_verify_replay,
    },
}

# options every command of a group accepts, besides --out, --json and --config;
# `verify replay` takes a file instead of the verify options (see parse_args)
GROUP_OPTIONS = {
    "cps": ("--scheme", "--window", "--radius", "--axes"),
    "heis": ("--field", "--window", "--radius", "--radius-small", "--radius-large"),
    "pisot": ("--ring", "--field", "--elements", "--radius", "--window", "--poly", "--scale"),
    "verify": ("--patch", "--a", "--b", "--inner", "--spec", "--scheme", "--field", "--window",
               "--radius"),
}
SIDES = ("model_set", "symmetrized")


def build_parser() -> _Parser:
    """One parser per command group: a `command` positional and the group's options."""
    parser = _Parser(prog="meyerlab")
    sub = parser.add_subparsers(dest="group", required=True)
    for group, options in GROUP_OPTIONS.items():
        p = sub.add_parser(group)
        if group == "verify":
            p.epilog = "verify replay FILE takes no option but --out, --json and --config"
        p.add_argument("command", choices=COMMANDS[group])
        for option in options:
            p.add_argument(option)
        if group == "heis":
            p.add_argument("--side-a", default="symmetrized", choices=SIDES)
            p.add_argument("--side-b", default="model_set", choices=SIDES)
        if group in ("heis", "verify"):
            p.add_argument("--max-translates", type=int)
        p.add_argument("--out", help="CSV output path")
        p.add_argument("--json", help="JSON artifact path")
        p.add_argument("--config", help="key=value config file (CLI flags win)")
    return parser


def parse_args(argv) -> argparse.Namespace:
    args, extra = build_parser().parse_known_args(argv)
    if args.command == "replay":
        # replay reads one file and takes none of the verify options
        files = [a for a in extra if a == "-" or not a.startswith("-")]
        if not files:
            raise UsageError("the following arguments are required: file")
        args.file = files[0]
        extra.remove(args.file)
        extra[:0] = [
            f"--{key.replace('_', '-')} {value}"
            for key, value in vars(args).items()
            if key not in ("group", "command", "file", "out", "json", "config") and value is not None
        ]
    if extra:
        raise UsageError("unrecognized arguments: " + " ".join(extra))
    return args


def run(argv) -> int:
    try:
        args = parse_args(argv)
        if args.config:
            apply_config(args.config, args)
        return COMMANDS[args.group][args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceLimit, CoverSearchFailed) as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnsupportedSubgroup as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MeyerlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""meyerlab command line: generate / certify / intersect / pisot / heis / verify.

Exit codes: 0 all certificates verified, 2 certified negative or inconclusive
verdict, 1 usage or resource error.  Outputs are written atomically and are
byte-identical for identical configs across runs and hash seeds.
"""

from __future__ import annotations

import json
import os
import re
import sys
import types
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
from .exactnum import (
    NumberField,
    frac_str,
    golden_field,
    json_list,
    json_object,
    sqrt2_field,
    str_frac,
    str_int,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2


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


def parse_elements(path: str, field: NumberField):
    data = serialize.load_json(path)
    if isinstance(data, dict):
        data = data.get("elements", [])
    # a bare rational string is the element with that one coordinate
    return [
        field.elem_from_json([e] if isinstance(e, str) else e)
        for e in json_list(data, "the elements of an elements file are")
    ]


# ---------------------------------------------------------------------------
# Run configuration: TOML-style key=value files, CLI flags take precedence.
# ---------------------------------------------------------------------------

CONFIG_KEYS = ("scheme", "window", "radius", "out", "json", "field", "ring")


def apply_config(path: str, args: types.SimpleNamespace) -> None:
    """Set each option the command line left unset from a key=value file."""
    values = {}
    for line_no, raw in enumerate(serialize.read_text(path).splitlines(), start=1):
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
    window = [str_frac(t) for t in args.window.split(",")]
    return heis.HeisScheme(parse_field(args.field), window)


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
        f"center intersection: {data['central_size']} points, "
        f"min_gap = {data['report']['min_separation']}",
    )
    return EXIT_OK if data["report"]["delone"] else EXIT_NEGATIVE


def cmd_heis_hull(args) -> int:
    scheme = _heis_scheme(args)
    _require(args, "radius_small", "radius_large")
    data = serialize.hull_summary(
        scheme, str_frac(args.radius_small), str_frac(args.radius_large)
    )
    _emit(args, data, None, f"hull: {data['subgroup']}")
    return EXIT_OK


def cmd_heis_commensurate(args) -> int:
    scheme = _heis_scheme(args)
    _require(args, "radius")
    data = serialize.meyer_artifact(
        scheme, str_frac(args.radius), args.side_a, args.side_b, args.max_translates
    )
    if data["verdict"] != "COMMENSURABLE-AT-SCALE":
        _emit(args, data, None, f"verdict: {data['verdict']}")
        return EXIT_NEGATIVE
    _emit(
        args,
        data,
        None,
        f"commensurable at scale {data['scope_radius']}: "
        f"|F1| = {len(data['cover_ab']['translates'])}, "
        f"|F2| = {len(data['cover_ba']['translates'])}",
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
    if not result.certified:
        _emit(args, result.to_dict(), None, f"rejected: {result.reason}")
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


def cmd_pisot_polycover(args) -> int:
    _require(args, "ring", "poly")
    ring = parse_ring(args.ring)
    coeffs = [str_frac(c) for c in args.poly.split(",")]
    scale = str_frac(args.scale) if args.scale else Fraction(1)
    cert = places.polynomial_translate_cover(coeffs, ring, window_scale=scale)
    ok, _ = cert.replay()
    _emit(args, cert.to_dict(), None, f"translate cover: |T| = {len(cert.translates)}")
    return EXIT_OK if ok else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# verify subcommands.
# ---------------------------------------------------------------------------


def _load_patch(path: str, args) -> cps.Patch:
    """The patch that the JSON or CSV file at `path` holds, which must be exactly
    the points that its scheme, window and radius enumerate, in any order.  It
    is returned as that enumeration, in canonical order."""
    if path.endswith(".csv"):
        if not (args.scheme or args.field):
            raise UsageError("CSV patches need --scheme (or --field/--window for heis) metadata")
        rows = [line.strip() for line in serialize.read_text(path).splitlines() if line.strip()]
        _require(args, "window", "radius")
        if args.field:  # Heisenberg CSV: the window belongs to the scheme
            scheme, window = _heis_scheme(args), None
        else:
            scheme = parse_scheme(args.scheme)
            window = parse_window(scheme, args.window)
        points = tuple(scheme.point_from_csv(row) for row in rows[1:])
        patch = scheme.model_set(window, str_frac(args.radius))
    else:
        data = serialize.load_json(path)
        if type(data) is not dict or data.get("type") not in ("patch", "heis_patch"):
            raise UsageError(f"{path} is not a patch file")
        points, patch = cps.read_patch(data)
    if len(points) != len(patch.points) or set(points) != set(patch.points):
        raise UsageError(
            f"the points of {path} are not the {len(patch.points)} points "
            "that its scheme, window and radius enumerate"
        )
    return patch


def cmd_verify_delone(args) -> int:
    _require(args, "patch")
    patch = _load_patch(args.patch, args)
    inner = str_frac(args.inner) if args.inner else Fraction(patch.radius) / 2
    data = serialize.delone_artifact(patch, inner)
    _emit(
        args,
        data,
        None,
        f"min_sep = {data['min_separation']}, covering = {data['covering']['verdict']}",
    )
    return EXIT_OK if data["delone"] else EXIT_NEGATIVE


def cmd_verify_cover(args) -> int:
    _require(args, "a", "b")
    pa, pb = _load_patch(args.a, args), _load_patch(args.b, args)
    # zs patches of any primes lie in (Q, +), and heis patches of any windows in one H3
    if any(getattr(pa.scheme, k, None) != getattr(pb.scheme, k, None) for k in ("kind", "field", "dim")):
        raise UsageError(
            f"{args.a} holds {pa.scheme!r} points and {args.b} {pb.scheme!r} points, not one group"
        )
    cover, witness = verify.greedy_cover(
        pa.points, pb.points, pa.scheme, max_translates=args.max_translates
    )
    if cover is None:
        witness = json.dumps(pa.scheme.point_to_json(witness), separators=(",", ":"))
        print(f"cover infeasible under translate cap; witness = {witness}")
        return EXIT_NEGATIVE
    data = serialize.patch_cover_artifact(cover, pa, pb)
    _emit(args, data, None, f"|F| = {len(cover.translates)} covering {cover.scope_points} points")
    return EXIT_OK


def cmd_verify_cellcover(args) -> int:
    _require(args, "spec")
    data = json_object(serialize.load_json(args.spec), "a cell cover spec is")
    out = serialize.cellcover_summary(data.get("x"), data.get("coverings"))
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
        "polycover": cmd_pisot_polycover,
    },
    "verify": {
        "delone": cmd_verify_delone,
        "cover": cmd_verify_cover,
        "cellcover": cmd_verify_cellcover,
        "replay": cmd_verify_replay,
    },
}

# options every command of a group accepts, besides COMMON_OPTIONS;
# `verify replay` takes a file instead of the verify options (see parse_args)
GROUP_OPTIONS = {
    "cps": ("--scheme", "--window", "--radius", "--axes"),
    "heis": ("--field", "--window", "--radius", "--radius-small", "--radius-large", "--side-a",
             "--side-b", "--max-translates"),
    "pisot": ("--ring", "--field", "--elements", "--poly", "--scale"),
    "verify": ("--patch", "--a", "--b", "--inner", "--spec", "--scheme", "--field", "--window",
               "--radius", "--max-translates"),
}
COMMON_OPTIONS = ("--out", "--json", "--config")
HELP_OPTIONS = ("-h", "--help")
SIDES = ("model_set", "symmetrized")
SIDE_DEFAULTS = {"side_a": "symmetrized", "side_b": "model_set"}
# a token that reads as a negative number is a value, not an option
NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


def _usage(group: str | None) -> str:
    if group is None:
        return f"usage: meyerlab [-h] {{{','.join(COMMANDS)}}} ...\n"
    options = " ".join(f"[{o} {_dest(o).upper()}]" for o in GROUP_OPTIONS[group] + COMMON_OPTIONS)
    usage = f"usage: meyerlab {group} [-h] {{{','.join(COMMANDS[group])}}} {options}\n"
    if group == "verify":
        usage += "verify replay FILE takes no option but --out, --json and --config\n"
    return usage


def _choice(name: str, value: str, choices) -> str:
    if value not in choices:
        listed = ", ".join(map(repr, choices))
        raise UsageError(f"argument {name}: invalid choice: {value!r} (choose from {listed})")
    return value


def _option(token: str, options: tuple) -> tuple | None:
    """(the option `token` names, its `=value` or None), ("", None) for an
    option not in `options`, or None for a value.  A unique prefix names its
    option, as with argparse."""
    if not token.startswith("-") or token == "-":
        return None
    if token in options:
        return token, None
    key, eq, value = token.partition("=")
    if eq and key in options:
        return key, value
    if token.startswith("--"):
        matches = [o for o in options if o.startswith(key)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token.startswith("-h"):
        return "-h", token[2:]
    if NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return "", None


def _read(tokens: list, group: str | None, args, extras: list) -> list:
    """Read `tokens` into `args` as the top parser (`group` None) or a group's
    parser: options, and one positional that names the group or the command.
    Unknown tokens go to `extras`; the top parser returns the tokens after the
    group, which its group's parser reads."""
    options = HELP_OPTIONS + (() if group is None else GROUP_OPTIONS[group] + COMMON_OPTIONS)
    name, choices = ("group", COMMANDS) if group is None else ("command", COMMANDS[group])
    # every token is classified first, so an ambiguous prefix is reported first;
    # in a group, "--" makes every later token a value (before the group it is one)
    kinds, ended = [], False
    for token in tokens:
        if ended or (token == "--" and group is None):
            kinds.append(None)
        else:
            kinds.append("--" if token == "--" else _option(token, options))
            ended = token == "--"
    i = 0
    while i < len(tokens):
        token, kind = tokens[i], kinds[i]
        i += 1
        if kind == "--":
            continue
        if kind is None:
            if getattr(args, name) is not None:
                extras.append(token)
                continue
            setattr(args, name, _choice(name, token, choices))
            if group is None:
                return tokens[i:]
            continue
        option, value = kind
        if not option:
            extras.append(token)
        elif option in HELP_OPTIONS:
            if value is not None:
                raise UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
            sys.stdout.write(_usage(group))
            raise SystemExit(0)
        else:
            if value is None:
                if i == len(tokens) or kinds[i] is not None:
                    raise UsageError(f"argument {option}: expected one argument")
                value, i = tokens[i], i + 1
            if option == "--max-translates":
                try:
                    value = int(value)
                except ValueError:
                    raise UsageError(f"argument {option}: invalid int value: {value!r}") from None
            elif option in ("--side-a", "--side-b"):
                _choice(option, value, SIDES)
            setattr(args, _dest(option), value)
    if getattr(args, name) is None:
        raise UsageError(f"the following arguments are required: {name}")
    return []


def parse_args(argv) -> types.SimpleNamespace:
    """The group, the command and every option of the group, None where unset.

    argv is read as the argparse parsers of earlier versions read it, one per
    command group; `-h` prints the usage and exits."""
    args, extras = types.SimpleNamespace(group=None), []
    rest = _read(list(argv), None, args, extras)
    options = GROUP_OPTIONS[args.group] + COMMON_OPTIONS
    vars(args).update(command=None, **dict.fromkeys(map(_dest, options)))
    if args.group == "heis":
        vars(args).update(SIDE_DEFAULTS)
    _read(rest, args.group, args, extras)
    if args.command == "replay":
        # replay reads one file and takes none of the verify options
        files = [a for a in extras if a == "-" or not a.startswith("-")]
        if not files:
            raise UsageError("the following arguments are required: file")
        args.file = files[0]
        extras.remove(args.file)
        extras[:0] = [
            f"--{key.replace('_', '-')} {value}"
            for key, value in vars(args).items()
            if key not in ("group", "command", "file", "out", "json", "config") and value is not None
        ]
    if extras:
        raise UsageError("unrecognized arguments: " + " ".join(extras))
    # a cap below 1 would certify a vacuous negative
    if getattr(args, "max_translates", None) is not None and args.max_translates < 1:
        raise UsageError(f"--max-translates must be at least 1, not {args.max_translates}")
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

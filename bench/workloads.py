"""The benchmark's workloads: job lists drawn from a seed, their set-up and checks.

Each job is one `meyerlab` command run in a fresh process.  Parameters come
from fixed grids; the seed picks grid points and the job order, so every seed
gives the same kind and about the same amount of work on different inputs.  Grid points are
chosen so that every build command succeeds: model sets with non-empty
windows are Meyer sets, so each certificate exists.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

import oracle

FIELDS = ("golden", "sqrt2")
# Window half-widths near 1.  For 1-d patches the coefficient box, and so the
# cost, is set by the radius; the seed moves window edges across lattice points.
HALFWIDTHS = ("7/8", "15/16", "1", "17/16", "9/8")
NARROW_HALFWIDTHS = ("15/16", "1", "17/16")
# Heisenberg costs grow with the product of the three coordinate sets, so the
# seed only chooses which of x and y gets which half-width: (a, b, c_z) or
# (b, a, c_z).  Measured per-job costs of the two orientations are close.
HEIS_XY = {("hull", "golden"): ("7/8", "9/8"), ("commensurate", "golden"): ("7/8", "9/8")}
HEIS_XY_DEFAULT = ("1", "9/8")
HEIS_Z = "2"
RADIUS_LADDER = (20, 40, 80)
POLYS = ("0,2", "0,1,1", "0,0,1", "1,1")


@dataclass
class Job:
    """One CLI command and what it must produce.

    Input files are absolute paths; `output` is the artifact the command writes
    into its working directory.  `check` names a test in CHECKS that the
    artifact must pass, with `param` as its argument.  `known_defect` names a
    defect by which the program replays this tampered artifact as "ok"
    although it must reject it.
    """

    name: str
    argv: list
    expect: int = 0
    output: str | None = None
    check: str | None = None
    param: object = None
    known_defect: str | None = None


def _load(path):
    with open(path) as handle:
        return json.load(handle)


def _dump(path, data):
    with open(path, "w") as handle:
        json.dump(data, handle, sort_keys=True, indent=2)


def _window_elements(path: str, field: str, radius, halfwidth) -> int:
    elements = oracle.element_list(field, radius, halfwidth)
    _dump(path, {"elements": elements})
    return len(elements)


# ---------------------------------------------------------------------------
# abelian-build: enumeration and exact comparison.
# ---------------------------------------------------------------------------


def setup_abelian(rng: random.Random, setup_dir: str, run_cli) -> list[Job]:
    jobs = []
    for field in FIELDS:
        for radius in RADIUS_LADDER:
            c = rng.choice(NARROW_HALFWIDTHS)
            out = f"gen-{field}-{radius}.json"
            jobs.append(Job(
                f"cps.generate.{field}.R{radius}",
                ["cps", "generate", "--scheme", f"galois:{field}", "--window", c,
                 "--radius", str(radius), "--json", out],
                output=out, check="patch", param=oracle.patch_coeffs(field, radius, Fraction(c)),
            ))
        out = f"cert-{field}.json"
        jobs.append(Job(
            f"cps.certify.{field}",
            ["cps", "certify", "--scheme", f"galois:{field}", "--window", rng.choice(HALFWIDTHS),
             "--radius", "20", "--json", out],
            output=out, check="approximate_lattice",
        ))
        elements = os.path.join(setup_dir, f"elements-{field}.json")
        count = _window_elements(elements, field, rng.choice((8, 9, 10)), rng.choice(("3/4", "7/8", "1")))
        out = f"pisot-{field}.json"
        jobs.append(Job(
            f"pisot.certify.{field}",
            ["pisot", "certify", "--ring", f"pvs:{field}", "--elements", elements, "--json", out],
            output=out, check="sum_product", param=count,
        ))
        out = f"poly-{field}.json"
        jobs.append(Job(
            f"pisot.polycover.{field}",
            ["pisot", "polycover", "--ring", f"pvs:{field}", "--poly", rng.choice(POLYS), "--json", out],
            output=out, check="poly_translate_cover",
        ))
    out = "gen-zs.json"
    level, radius = rng.choice((1, 2)), rng.choice((8, 10, 12))
    jobs.append(Job(
        "cps.generate.zs",
        ["cps", "generate", "--scheme", "zs:2,3", "--window", str(level),
         "--radius", str(radius), "--json", out],
        output=out, check="patch", param=oracle.zs_points((2, 3), (level, level), radius),
    ))
    window2 = f"{rng.choice(HALFWIDTHS)},{rng.choice(HALFWIDTHS)}"
    axis = rng.choice(("0", "1"))
    for command, check in (("intersect", "intersection"), ("project", "projection")):
        out = f"{command}.json"
        jobs.append(Job(
            f"cps.{command}",
            ["cps", command, "--scheme", "galois:golden:2", "--window", window2,
             "--radius", "8", "--axes", axis, "--json", out],
            output=out, check=check,
        ))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# heis-metric: group law and metric layer.
# ---------------------------------------------------------------------------


def _heis_window(rng: random.Random, command: str, field: str) -> str:
    a, b = HEIS_XY.get((command, field), HEIS_XY_DEFAULT)
    if rng.random() < 0.5:
        a, b = b, a
    return f"{a},{b},{HEIS_Z}"


def setup_heis(rng: random.Random, setup_dir: str, run_cli) -> list[Job]:
    jobs = []
    for field in FIELDS:
        patches = {}
        for size, radius in (("small", 45), ("large", 90)):
            path = os.path.join(setup_dir, f"patch-{field}-{size}.json")
            _dump(path, oracle.patch_artifact(field, radius, rng.choice(NARROW_HALFWIDTHS)))
            patches[size] = path
        for command, extra, check in (
            ("certify", [], "heis_cover"),
            ("center", ["--radius", "8"], "center_intersection"),
            ("hull", ["--radius-small", "3/2", "--radius-large", "3"], "schreiber_hull"),
            ("commensurate", ["--radius", "4"], "meyer_commensurability"),
        ):
            out = f"heis-{command}-{field}.json"
            jobs.append(Job(
                f"heis.{command}.{field}",
                ["heis", command, "--field", field, "--window", _heis_window(rng, command, field)]
                + extra + ["--json", out],
                output=out, check=check,
            ))
        out = f"delone-{field}.json"
        jobs.append(Job(
            f"verify.delone.{field}",
            ["verify", "delone", "--patch", patches["large"], "--inner", "45", "--json", out],
            output=out, check="delone_report",
        ))
        out = f"cover-{field}.json"
        jobs.append(Job(
            f"verify.cover.{field}",
            ["verify", "cover", "--a", patches["small"], "--b", patches["large"], "--json", out],
            output=out, check="patch_cover",
        ))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# replay: every artifact type the CLI emits, plus tampered copies.
# ---------------------------------------------------------------------------

CORPUS = (
    # (file, argv after the output flag is added, expected exit code)
    ("patch-golden.json", ["cps", "generate", "--scheme", "galois:golden", "--radius", "30", "--window", "{c}"], 0),
    ("patch-golden-b.json", ["cps", "generate", "--scheme", "galois:golden", "--radius", "30", "--window", "{c}"], 0),
    ("patch-sqrt2.json", ["cps", "generate", "--scheme", "galois:sqrt2", "--radius", "30", "--window", "{c}"], 0),
    ("patch-zs.json", ["cps", "generate", "--scheme", "zs:2,3", "--window", "{k}", "--radius", "6"], 0),
    ("lattice.json", ["cps", "certify", "--scheme", "galois:golden", "--window", "{c}", "--radius", "10"], 0),
    ("intersect.json", ["cps", "intersect", "--scheme", "galois:golden:2", "--window", "{c},{c}", "--radius", "6", "--axes", "0"], 0),
    ("project.json", ["cps", "project", "--scheme", "galois:sqrt2:2", "--window", "{c},{c}", "--radius", "6", "--axes", "1"], 0),
    ("heis-patch.json", ["heis", "generate", "--field", "sqrt2", "--window", "{h}", "--radius", "3"], 0),
    ("heis-cover.json", ["heis", "certify", "--field", "sqrt2", "--window", "{h}"], 0),
    ("heis-center.json", ["heis", "center", "--field", "sqrt2", "--window", "{h}", "--radius", "6"], 0),
    ("heis-hull.json", ["heis", "hull", "--field", "sqrt2", "--window", "{h}", "--radius-small", "1", "--radius-large", "2"], 0),
    ("heis-meyer.json", ["heis", "commensurate", "--field", "sqrt2", "--window", "{h}", "--radius", "4"], 0),
    ("sum-product.json", ["pisot", "certify", "--ring", "pvs:golden", "--elements", "{elements}"], 0),
    ("rejection.json", ["pisot", "certify", "--ring", "zs:2", "--elements", "{rational_elements}"], 2),
    ("polycover.json", ["pisot", "polycover", "--ring", "pvs:sqrt2", "--poly", "{poly}"], 0),
    ("delone.json", ["verify", "delone", "--patch", "{dir}/patch-golden.json", "--inner", "15"], 0),
    ("patch-cover.json", ["verify", "cover", "--a", "{dir}/patch-golden.json", "--b", "{dir}/patch-golden-b.json"], 0),
    ("cellcover.json", ["verify", "cellcover", "--spec", "{cellcover_spec}"], 0),
)


def _tamper(setup_dir: str) -> list[tuple[str, str | None]]:
    """Write tampered copies; returns (file, known defect id or None).

    Every tampered artifact must replay as FAILED (exit 2).  The first two are
    accepted by the program at the time the benchmark was defined.
    """
    path = lambda name: os.path.join(setup_dir, name)  # noqa: E731
    out = []

    # translates that are not lattice points: +-1/2, +-3/2 with exact tiles
    data = _load(path("lattice.json"))
    dim = data["cover"]["dim_covers"][0]
    c = Fraction(dim["tile_halfwidth"])
    ts = [Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]
    dim["elements"] = [[str(t), "0"] for t in ts]
    dim["claimed"] = [[str(t - c), str(t + c)] for t in ts]
    _dump(path("tamper-lattice-offgrid.json"), data)
    out.append(("tamper-lattice-offgrid.json", "approximate_lattice translates off the lattice"))

    _dump(path("tamper-delone-bare.json"), {"type": "delone_report", "min_separation": "1000", "delone": True})
    out.append(("tamper-delone-bare.json", "delone_report without data"))

    data = _load(path("patch-sqrt2.json"))
    del data["points"][len(data["points"]) // 2]
    _dump(path("tamper-patch-dropped.json"), data)
    out.append(("tamper-patch-dropped.json", None))

    data = _load(path("delone.json"))
    data["min_separation"] = str(Fraction(data["min_separation"]) * 2)
    _dump(path("tamper-delone-minsep.json"), data)
    out.append(("tamper-delone-minsep.json", None))

    data = _load(path("heis-meyer.json"))
    first = data["cover_ba"]["translates"][0]
    first[0][0] = str(Fraction(first[0][0]) + 1)
    _dump(path("tamper-meyer-translate.json"), data)
    out.append(("tamper-meyer-translate.json", None))
    return out


def setup_replay(rng: random.Random, setup_dir: str, run_cli) -> list[Job]:
    elements = os.path.join(setup_dir, "elements.json")
    _window_elements(elements, "golden", rng.choice((6, 7, 8)), rng.choice(("3/4", "7/8", "1")))
    # a rational set with a denominator outside S = {2}: certified as a rejection
    rational_elements = os.path.join(setup_dir, "rational-elements.json")
    q = Fraction(1, rng.choice((3, 5, 7)))
    _dump(rational_elements, {"elements": ["0", str(q), str(-q), "1", "-1"]})
    cellcover_spec = os.path.join(setup_dir, "cellcover-spec.json")
    n = rng.choice((6, 8, 10))
    _dump(cellcover_spec, {
        "x": [str(i) for i in range(n)],
        "coverings": [
            [["0", str(n // 2)], [str(i) for i in range(n // 2)]],
            [["0"], [str(i) for i in range(n)]],
        ],
    })
    values = {
        "dir": setup_dir,
        "elements": elements,
        "rational_elements": rational_elements,
        "cellcover_spec": cellcover_spec,
        "poly": rng.choice(POLYS),
        "k": rng.choice(("1", "2")),
    }
    jobs, commands = [], []
    for name, template, expect in CORPUS:
        values["c"] = rng.choice(NARROW_HALFWIDTHS)
        values["h"] = _heis_window(rng, template[1], "sqrt2")
        argv = [a.format(**values) for a in template] + ["--json", os.path.join(setup_dir, name)]
        commands.append((argv, expect))
        jobs.append(Job(f"replay.{name[:-5]}", ["verify", "replay", os.path.join(setup_dir, name)]))
    run_cli(commands)
    for name, defect in _tamper(setup_dir):
        jobs.append(Job(
            f"replay.{name[:-5]}",
            ["verify", "replay", os.path.join(setup_dir, name)],
            expect=2,
            known_defect=defect,
        ))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# Output checks on build artifacts (None = pass, else the reason).
# ---------------------------------------------------------------------------


def _expect(cond: bool, reason: str) -> str | None:
    return None if cond else reason


CHECKS = {
    "patch": lambda d, p: oracle.check_patch(d, p) if d.get("type") == "patch" else "not a patch",
    "heis_patch": lambda d, p: oracle.check_heis_patch(d) if d.get("type") == "heis_patch" else "not a heis patch",
    "approximate_lattice": lambda d, p: _expect(
        d.get("type") == "approximate_lattice" and d["delone"]["delone"] is True, "no Delone certificate"),
    "intersection": lambda d, p: _expect(
        d.get("type") == "intersection" and d["intersection_size"] > 0, "empty intersection"),
    "projection": lambda d, p: _expect(
        d.get("type") == "projection" and d["equivalence_consistent"] is True, "projection inconsistent"),
    "sum_product": lambda d, p: _expect(
        d.get("type") == "sum_product" and len(d["elements"]) == p, "set not certified in full"),
    "poly_translate_cover": lambda d, p: _expect(
        d.get("type") == "poly_translate_cover" and len(d["coset_covers"]) > 0, "no translate cover"),
    "heis_cover": lambda d, p: _expect(d.get("type") == "heis_cover", "not a Heisenberg cover"),
    "center_intersection": lambda d, p: _expect(
        d.get("type") == "center_intersection" and d["conclusive"] and d["report"]["delone"],
        "centre intersection not certified"),
    "schreiber_hull": lambda d, p: _expect(
        d.get("type") == "schreiber_hull" and d["aligned"] is True, "hull not aligned"),
    "meyer_commensurability": lambda d, p: _expect(
        d.get("type") == "meyer_commensurability" and d["verdict"] == "COMMENSURABLE-AT-SCALE",
        "not commensurable"),
    "delone_report": lambda d, p: _expect(
        d.get("type") == "delone_report" and d["delone"] is True, "not Delone")
    or oracle.check_patch(d["patch"]),
    "patch_cover": lambda d, p: _expect(
        d.get("type") == "patch_cover" and len(d["translates"]) > 0, "no cover"),
}


def check_artifact(path: str, check: str, param) -> str | None:
    try:
        return CHECKS[check](_load(path), param)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"malformed artifact: {exc!r}"


def check_corpus(setup_dir: str) -> list[str]:
    """Oracle checks on the patch artifacts a set-up wrote; returns failures."""
    failures = []
    for name in os.listdir(setup_dir):
        if name.startswith("tamper-") or not name.endswith(".json"):
            continue
        data = _load(os.path.join(setup_dir, name))
        kind = data.get("type") if isinstance(data, dict) else None
        if kind in ("patch", "heis_patch"):
            reason = check_artifact(os.path.join(setup_dir, name), kind, None)
            if reason:
                failures.append(f"{name}: {reason}")
    return failures


WORKLOADS = {
    "abelian-build": setup_abelian,
    "heis-metric": setup_heis,
    "replay": setup_replay,
}

import copy
import json
import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest

from meyerlab import cli, cps, heis, places, serialize, verify
from meyerlab.errors import UsageError
from meyerlab.exactnum import golden_field, sqrt2_field, str_frac


def run_cli(*argv):
    return cli.run(list(argv))


def test_zs_generate_stdout(capsys):
    assert run_cli("cps", "generate", "--scheme", "zs:2", "--window", "z2:0", "--radius", "3") == 0
    out = capsys.readouterr().out
    body = [line for line in out.splitlines() if line and "patch:" not in line]
    assert body[0] == "x"
    assert body[1:] == ["-3", "-2", "-1", "0", "1", "2", "3"]


def test_zs_generate_file_and_replay(tmp_path):
    csv_path = tmp_path / "patch.csv"
    json_path = tmp_path / "patch.json"
    code = run_cli(
        "cps", "generate", "--scheme", "zs:2,3", "--window", "1", "--radius", "5",
        "--out", str(csv_path), "--json", str(json_path),
    )
    assert code == 0
    assert csv_path.read_text().startswith("x\n")
    assert run_cli("verify", "replay", str(json_path)) == 0


def test_unknown_flag_exits_one():
    assert run_cli("cps", "generate", "--nonsense") == 1


def test_missing_required_exits_one():
    assert run_cli("cps", "generate", "--scheme", "zs:2") == 1


def test_bad_scheme_exits_one():
    assert run_cli("cps", "generate", "--scheme", "weird:1", "--window", "0", "--radius", "1") == 1


def test_cps_certify_and_replay(tmp_path):
    json_path = tmp_path / "cert.json"
    code = run_cli(
        "cps", "certify", "--scheme", "galois:golden", "--window", "1",
        "--radius", "12", "--json", str(json_path),
    )
    assert code == 0
    data = json.loads(json_path.read_text())
    assert data["type"] == "approximate_lattice"
    assert run_cli("verify", "replay", str(json_path)) == 0


def test_pisot_certify_golden_powers(tmp_path):
    elements = [["0", "0"], ["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"], ["1", "1"], ["-1", "-1"]]
    elems_path = tmp_path / "elements.json"
    elems_path.write_text(json.dumps({"elements": elements}))
    cert_path = tmp_path / "cert.json"
    code = run_cli(
        "pisot", "certify", "--ring", "pvs:golden", "--elements", str(elems_path),
        "--json", str(cert_path),
    )
    assert code == 0
    assert run_cli("verify", "replay", str(cert_path)) == 0


def test_pisot_certify_rejection_exits_two(tmp_path):
    elems_path = tmp_path / "elements.json"
    elems_path.write_text(json.dumps(["0", "1/2", "-1/2"]))
    cert_path = tmp_path / "rej.json"
    code = run_cli("pisot", "certify", "--ring", "z", "--elements", str(elems_path),
                   "--json", str(cert_path))
    assert code == 2
    assert run_cli("verify", "replay", str(cert_path)) == 0


def test_replay_rebuilds_the_whole_rejection(tmp_path, capsys):
    elems_path = tmp_path / "elements.json"
    elems_path.write_text(json.dumps(["0", "1/3", "-1/3"]))
    path = tmp_path / "rej.json"
    assert run_cli("pisot", "certify", "--ring", "zs:2", "--elements", str(elems_path),
                   "--json", str(path)) == 2
    data = json.loads(path.read_text())
    assert data["reason"] == "|x|_3 = 3^1 > 1"
    capsys.readouterr()
    assert run_cli("verify", "replay", str(path)) == 0
    size = len(path.read_bytes())
    assert capsys.readouterr().out == (
        f"replay ok: sum_product_rejection rebuilt from its inputs: {size} bytes identical\n")
    # a forged reason, and another element under the old reason and witness place
    for key, value in (("reason", "|x|_3 = 3^7 > 1"), ("element", ["1/9"])):
        code, out = _replay_data(tmp_path, capsys, data | {key: value})
        assert code == 2 and "replay FAILED: sum_product_rejection rebuilt" in out, key


@pytest.fixture
def sum_product_file(tmp_path):
    """A sum_product over Z[1/2] whose products include the flagged -1/4 and 1/4."""
    elems_path = tmp_path / "elements.json"
    elems_path.write_text(json.dumps(["0", "1/2", "-1/2", "1", "-1"]))
    path = tmp_path / "sum-product.json"
    assert run_cli("pisot", "certify", "--ring", "zs:2", "--elements", str(elems_path),
                   "--json", str(path)) == 0
    data = json.loads(path.read_text())
    assert data["flagged_products"] == [["-1/4"], ["1/4"]] and "members" not in data
    return data


@pytest.mark.parametrize("change", [
    lambda d: d["elements"].__setitem__(0, ["3"]),
    lambda d: d["elements"].__setitem__(1, ["-1/4"]),
    lambda d: d.update(patch_bound="1/2"),
    lambda d: d.update(closed_pairs=d["closed_pairs"] + 1),
    lambda d: d.update(out_of_patch_pairs=d["out_of_patch_pairs"] + 1),
    lambda d: d["flagged_products"].__setitem__(0, ["1/8"]),
    lambda d: d["flagged_products"].clear(),
    lambda d: d["ring"].update(s_places=[{"kind": "arch", "root_index": 0},
                                         {"kind": "finite", "p": 3}]),
    lambda d: d["ring"].update(s_places=[{"kind": "arch", "root_index": 0}]),
])
def test_a_changed_sum_product_never_replays_ok(tmp_path, capsys, sum_product_file, change):
    data = copy.deepcopy(sum_product_file)
    change(data)
    path = tmp_path / "changed.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    code = run_cli("verify", "replay", str(path))
    out, err = capsys.readouterr()
    assert code in (1, 2) and "Traceback" not in err, (out, err)


def test_a_sum_product_in_the_older_layout_is_a_usage_error(tmp_path, capsys, sum_product_file):
    # the per-element records the older layout listed beside the set: over Z[1/2], whose S
    # holds the real place, no conjugate is bounded
    members = [{"type": "pisot_membership", "ring": sum_product_file["ring"], "element": e,
                "conjugate_bounds": [], "finite_valuations": []}
               for e in sum_product_file["elements"]]
    path = tmp_path / "older.json"
    path.write_text(json.dumps(sum_product_file | {"members": members}))
    capsys.readouterr()
    assert run_cli("verify", "replay", str(path)) == 1
    assert capsys.readouterr().err == (
        "usage error: the file lists members, as in the older sum_product layout; "
        "write the file again with pisot certify\n")


def test_a_membership_record_has_no_replay(tmp_path, capsys):
    path = tmp_path / "membership.json"
    path.write_text(json.dumps({
        "type": "pisot_membership",
        "ring": {"field": {"min_poly": [-1, -1, 1]}, "s_places": [{"kind": "arch", "root_index": 1}]},
        "element": ["0", "1"],
        "conjugate_bounds": [{"place": {"kind": "arch", "root_index": 0}, "decision": "LESS"}],
        "finite_valuations": [],
    }))
    assert run_cli("verify", "replay", str(path)) == 1
    assert capsys.readouterr().err == (
        "usage error: no replay handler for certificate type 'pisot_membership'\n")


def test_pisot_polycover_replay(tmp_path):
    path = tmp_path / "cover.json"
    code = run_cli("pisot", "polycover", "--ring", "pvs:golden", "--poly", "0,2",
                   "--json", str(path))
    assert code == 0
    assert run_cli("verify", "replay", str(path)) == 0


def test_heis_certify_center_and_hull(tmp_path):
    cert = tmp_path / "heis_cover.json"
    assert run_cli("heis", "certify", "--field", "sqrt2", "--window", "1,1,2",
                   "--json", str(cert)) == 0
    assert run_cli("verify", "replay", str(cert)) == 0

    center = tmp_path / "center.json"
    assert run_cli("heis", "center", "--field", "sqrt2", "--window", "1,1,2",
                   "--radius", "6", "--json", str(center)) == 0
    assert run_cli("verify", "replay", str(center)) == 0

    hull = tmp_path / "hull.json"
    assert run_cli("heis", "hull", "--field", "sqrt2", "--window", "1,1,1",
                   "--radius-small", "3", "--radius-large", "6", "--json", str(hull)) == 0
    assert run_cli("verify", "replay", str(hull)) == 0


def _center_file(path):
    assert run_cli("heis", "center", "--field", "sqrt2", "--window", "1,1,2",
                   "--radius", "6", "--json", str(path)) == 0
    return json.loads(path.read_text())


def test_a_center_file_is_its_report(tmp_path, capsys):
    data = _center_file(tmp_path / "center.json")
    out = capsys.readouterr().out
    assert sorted(data) == ["central_size", "conclusive", "inputs", "report", "type"]
    assert out.startswith(f"center intersection: {data['central_size']} points, min_gap = ")
    assert data["central_size"] == 43


@pytest.mark.parametrize("change", ["z_values-added", "older-layout", "size-plus-one",
                                    "size-true"])
def test_replay_of_a_changed_center_file_fails(tmp_path, capsys, change):
    data = _center_file(tmp_path / "center.json")
    scheme = heis.HeisScheme(sqrt2_field(), (1, 1, 2))
    z_values = [z.to_list() for z in heis.center_intersection(scheme, 6).z_values]
    if change == "z_values-added":
        data["z_values"] = z_values
    elif change == "older-layout":
        # the whole central set, which replay rebuilt and compared anyway
        del data["central_size"]
        data["z_values"] = z_values
    elif change == "size-plus-one":
        data["central_size"] += 1
    else:
        data["central_size"] = True
    code, out = _replay_data(tmp_path, capsys, data)
    # the line names the first key, in sorted order, that is not what the writer writes
    where = "z_values" if change == "z_values-added" else "central_size"
    assert (code, out) == (
        2, f"replay FAILED: center_intersection rebuilt from its inputs differs from the file at {where}\n")


@pytest.mark.parametrize("window, radii", [
    # sqrt2 windows on which the growth search answered `trivial`, `center` or
    # exited 2 with "not aligned"
    ("1,1,1", ("1", "2")),
    ("1/4,1/4,1/4", ("2", "4")),
    ("1,9/8,2", ("1", "2")),
    ("1,1,1/4", ("3", "6")),
])
def test_heis_hull_of_a_full_window_is_full(window, radii, tmp_path, capsys):
    hull = tmp_path / "hull.json"
    assert run_cli("heis", "hull", "--field", "sqrt2", "--window", window, "--radius-small",
                   radii[0], "--radius-large", radii[1], "--json", str(hull)) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "hull: full"
    assert json.loads(hull.read_text())["subgroup"] == "full"
    assert run_cli("verify", "replay", str(hull)) == 0


def test_hull_file_of_the_growth_search_does_not_replay(tmp_path, capsys):
    # what the seven-candidate growth search wrote for this window: `center`,
    # its kappas and the table of every candidate
    old = {
        "aligned": True,
        "inputs": {
            "radius_large": "2",
            "radius_small": "1",
            "scheme": {"field": {"min_poly": [-2, 0, 1]}, "kind": "heis",
                       "physical_root_index": 1, "window": ["1", "9/8", "2"]},
        },
        "kappa_large": "1",
        "kappa_small": "1",
        "subgroup": "center",
        "table": {"center": ["1", "1"], "full": ["1/2", "1/2"], "trivial": ["1", "2"],
                  "x-axis": ["1", "2"], "x-center": ["1", "1"], "y-axis": ["1", "2"],
                  "y-center": ["1", "1"]},
        "type": "schreiber_hull",
    }
    path = tmp_path / "old-hull.json"
    path.write_text(json.dumps(old))
    assert run_cli("verify", "replay", str(path)) == 2
    assert capsys.readouterr().out.startswith("replay FAILED")


@pytest.mark.parametrize("key, real", [
    ("w1", ["1", "1", "2"]),  # covered by the stored chains, but not box(W * W)
    ("w1", ["2", "2", "6"]),
    ("w2", ["1", "1", "3"]),
])
def test_heis_cover_replay_needs_the_square_windows(tmp_path, capsys, key, real):
    path = tmp_path / "hcover.json"
    assert run_cli("heis", "certify", "--field", "sqrt2", "--window", "1,1,2",
                   "--json", str(path)) == 0
    data = json.loads(path.read_text())
    data[key]["real"] = real
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("verify", "replay", str(path)) == 2
    out = capsys.readouterr().out
    assert out == "replay FAILED: heis_cover: the windows are not box(W * W) and the scheme's W\n"


def test_heis_cover_of_other_windows_is_no_heis_cover_file(tmp_path, capsys):
    # a sound cover between other windows does not claim Lambda(W) Lambda(W) in F Lambda(W)
    scheme = heis.HeisScheme(golden_field(), (1, 1, 2))
    cert = cps.global_covering_certificate(scheme, cps.Window.box(1, 1, 2), cps.Window.box(1, 1, 2))
    assert cert.replay()[0]
    path = tmp_path / "hcover.json"
    serialize.save_json(str(path), cert.to_dict())
    assert run_cli("verify", "replay", str(path)) == 2
    assert "replay FAILED: heis_cover: the windows are not" in capsys.readouterr().out


def test_heis_commensurate_replay(tmp_path):
    path = tmp_path / "meyer.json"
    code = run_cli("heis", "commensurate", "--field", "sqrt2", "--window", "1,1,2",
                   "--radius", "6", "--json", str(path))
    assert code == 0
    assert run_cli("verify", "replay", str(path)) == 0


def test_verify_cover_between_patch_files(tmp_path):
    a_path = tmp_path / "a.json"
    b_path = tmp_path / "b.json"
    assert run_cli("cps", "generate", "--scheme", "galois:golden", "--window", "2",
                   "--radius", "8", "--json", str(a_path), "--out", str(tmp_path / "a.csv")) == 0
    assert run_cli("cps", "generate", "--scheme", "galois:golden", "--window", "1",
                   "--radius", "8", "--json", str(b_path), "--out", str(tmp_path / "b.csv")) == 0
    cover_path = tmp_path / "cover.json"
    assert run_cli("verify", "cover", "--a", str(a_path), "--b", str(b_path),
                   "--json", str(cover_path)) == 0
    assert run_cli("verify", "replay", str(cover_path)) == 0


# zs patches of any primes lie in (Q, +), and Heisenberg patches of any windows in one H3
@pytest.mark.parametrize("a_argv, b_argv", [
    (["cps", "generate", "--scheme", "zs:2", "--window", "z2:1", "--radius", "3"],
     ["cps", "generate", "--scheme", "zs:3", "--window", "z3:0", "--radius", "3"]),
    (["heis", "generate", "--field", "sqrt2", "--window", "1,1,2", "--radius", "3"],
     ["heis", "generate", "--field", "sqrt2", "--window", "1,1,1", "--radius", "3"]),
])
def test_verify_cover_across_windows_replays(tmp_path, a_argv, b_argv):
    for name, argv in (("a", a_argv), ("b", b_argv)):
        assert run_cli(*argv, "--json", str(tmp_path / f"{name}.json")) == 0
    cover_path = tmp_path / "cover.json"
    assert run_cli("verify", "cover", "--a", str(tmp_path / "a.json"), "--b",
                   str(tmp_path / "b.json"), "--json", str(cover_path)) == 0
    assert run_cli("verify", "replay", str(cover_path)) == 0


@pytest.mark.parametrize("scheme, window, witness", [
    ("zs:2", "z2:0", '"-2"'),
    ("galois:golden", "1", '[["-1","0"]]'),
])
def test_capped_verify_cover_prints_its_witness_as_a_json_point(tmp_path, capsys, scheme, window, witness):
    # B is the one point 0, so the second point of A in canonical order is over the cap
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("cps", "generate", "--scheme", scheme, "--window", window, "--radius", "3",
                   "--json", str(a_path)) == 0
    assert run_cli("cps", "generate", "--scheme", scheme, "--window", window, "--radius", "1/2",
                   "--json", str(b_path)) == 0
    capsys.readouterr()
    assert run_cli("verify", "cover", "--a", str(a_path), "--b", str(b_path),
                   "--max-translates", "1") == 2
    assert capsys.readouterr().out == f"cover infeasible under translate cap; witness = {witness}\n"


def test_verify_cellcover(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"x": ["0", "1", "2", "3"], "coverings": [[["0", "2"], ["0", "1"]]]}))
    out = tmp_path / "cell.json"
    assert run_cli("verify", "cellcover", "--spec", str(spec), "--json", str(out)) == 0
    assert run_cli("verify", "replay", str(out)) == 0


def test_cps_project_consistency(tmp_path):
    path = tmp_path / "proj.json"
    code = run_cli("cps", "project", "--scheme", "galois:golden:2", "--window", "1,1",
                   "--radius", "6", "--axes", "0", "--json", str(path))
    assert code == 0
    assert run_cli("verify", "replay", str(path)) == 0


def test_config_file_with_cli_override(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("scheme = zs:2\nwindow = z2:0\nradius = 2\n")
    assert run_cli("cps", "generate", "--config", str(config)) == 0
    first = capsys.readouterr().out
    assert "-2" in first
    # CLI flag wins over the config value
    assert run_cli("cps", "generate", "--config", str(config), "--radius", "1") == 0
    second = capsys.readouterr().out
    assert "-2" not in second


def test_pisot_certify_cubic_ring_is_usage_error(tmp_path, capsys):
    # (theta + theta^2)/2 in Q(cbrt 7) is not an algebraic integer; fields of
    # degree 3 are refused before any membership test can certify it
    field = tmp_path / "cubic.json"
    field.write_text(json.dumps({"min_poly": [-7, 0, 0, 1]}))
    elements = tmp_path / "elements.json"
    symmetric = [["0", "0", "0"], ["0", "1/2", "1/2"], ["0", "-1/2", "-1/2"]]
    elements.write_text(json.dumps({"elements": symmetric}))
    code = run_cli("pisot", "certify", "--ring", f"pvs:{field}:0", "--elements", str(elements))
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_module_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "meyerlab.cli", "cps", "generate", "--scheme", "zs:2",
         "--window", "z2:0", "--radius", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "-2" in proc.stdout


def test_verify_delone_consumes_csv(tmp_path):
    csv_path = tmp_path / "patch.csv"
    assert run_cli("cps", "generate", "--scheme", "zs:2", "--window", "0",
                   "--radius", "6", "--out", str(csv_path)) == 0
    code = run_cli("verify", "delone", "--patch", str(csv_path), "--scheme", "zs:2",
                   "--window", "0", "--radius", "6", "--inner", "3")
    assert code == 0


# (generate arguments, the verify options that describe its CSV)
PATCHES = {
    "golden": (["cps", "generate", "--scheme", "galois:golden", "--window", "1", "--radius", "20"],
               ["--scheme", "galois:golden", "--window", "1", "--radius", "20"]),
    "heis": (["heis", "generate", "--field", "sqrt2", "--window", "1,1,2", "--radius", "2"],
             ["--field", "sqrt2", "--window", "1,1,2", "--radius", "2"]),
}


def _verify_argv(command, path, good, csv_options):
    """`verify delone` on the patch at `path`, or `verify cover` of the canonical
    patch `good` by it."""
    if command == "delone":
        return ["verify", "delone", "--patch", str(path), "--inner", "1", *csv_options]
    return ["verify", "cover", "--a", str(good), "--b", str(path), *csv_options]


@pytest.mark.parametrize("command", ["delone", "cover"])
@pytest.mark.parametrize("patch", sorted(PATCHES))
@pytest.mark.parametrize("layout", ["shuffled-json", "reversed-csv"])
def test_a_reordered_patch_is_measured_as_its_enumeration(tmp_path, command, patch, layout):
    # a patch file may list its points in any order: the report holds the
    # enumeration in canonical order, so it is the canonical input's, byte for byte
    generate, csv_options = PATCHES[patch]
    good, good_csv = tmp_path / "patch.json", tmp_path / "patch.csv"
    assert run_cli(*generate, "--json", str(good), "--out", str(good_csv)) == 0
    assert run_cli(*_verify_argv(command, good, good, []), "--json", str(tmp_path / "ref.json")) == 0
    if layout == "shuffled-json":
        data = json.loads(good.read_text())
        random.Random(7).shuffle(data["points"])
        path, options = tmp_path / "shuffled.json", []
        path.write_text(json.dumps(data))
    else:
        header, *rows = good_csv.read_text().splitlines()
        path, options = tmp_path / "reversed.csv", csv_options
        path.write_text("\n".join([header, *rows[::-1]]) + "\n")
    out = tmp_path / "out.json"
    assert run_cli(*_verify_argv(command, path, good, options), "--json", str(out)) == 0
    assert out.read_bytes() == (tmp_path / "ref.json").read_bytes()
    assert run_cli("verify", "replay", str(out)) == 0


def _drop_physical_end(data):
    # a golden point [[a, b]] lies at a + b * phi
    phi = (1 + 5 ** 0.5) / 2
    points = data["points"]
    points.remove(max(points, key=lambda p: float(str_frac(p[0][0]) + str_frac(p[0][1]) * phi)))


@pytest.mark.parametrize("command", ["delone", "cover"])
@pytest.mark.parametrize("patch, edit", [
    ("golden", "missing-end-point"),
    ("golden", "radius-edited"),
    ("heis", "repeated-point"),
    ("heis", "dropped-point"),
    ("golden", "integer-coordinates"),
    ("heis", "unreduced-coordinate"),
])
def test_verify_needs_the_enumerated_patch(tmp_path, capsys, command, patch, edit):
    # a patch file must hold exactly the points that its scheme, window and
    # radius enumerate, each as its writer writes it; any other point set is
    # refused before it is measured
    generate, _ = PATCHES[patch]
    good, path = tmp_path / "patch.json", tmp_path / "edited.json"
    assert run_cli(*generate, "--json", str(good)) == 0
    data = json.loads(good.read_text())
    if edit == "missing-end-point":
        _drop_physical_end(data)
    elif edit == "radius-edited":
        data["radius"] = "25"
    elif edit == "repeated-point":
        data["points"].append(data["points"][0])
    elif edit == "dropped-point":
        data["points"].pop(len(data["points"]) // 2)
    elif edit == "integer-coordinates":
        # the same point of Z[phi], its coordinates JSON integers and not strings
        data["points"][0] = [[int(c) for c in x] for x in data["points"][0]]
    else:
        # the same value as the first coordinate, as "2/4" is the value of "1/2"
        q = str_frac(data["points"][0][0][0])
        data["points"][0][0][0] = f"{2 * q.numerator}/{2 * q.denominator}"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli(*_verify_argv(command, path, good, []), "--json", str(tmp_path / "out.json")) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and str(path) in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("scheme, window, rows", [
    ("galois:golden", "1", ["0,0,7", "0"]),
    ("galois:sqrt2:2", "1,1", ["0,0,0"]),
    ("zs:2", "0", ["1,2"]),
])
def test_csv_rows_need_one_cell_per_column(tmp_path, capsys, scheme, window, rows):
    # a row is compared with the rows its writer writes, so a row of any other
    # cell count is a point the enumeration does not hold
    path = tmp_path / "patch.csv"
    assert run_cli("cps", "generate", "--scheme", scheme, "--window", window, "--radius", "2",
                   "--out", str(path)) == 0
    text = path.read_text()
    for row in rows:
        path.write_text(text + row + "\n")
        capsys.readouterr()
        assert run_cli("verify", "delone", "--patch", str(path), "--scheme", scheme,
                       "--window", window, "--radius", "2") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: the points of {path} are not the ")


@pytest.mark.parametrize("argv", [
    ["heis", "commensurate", "--field", "sqrt2", "--window", "1,1,2", "--radius", "4"],
    ["verify", "cover", "--a", "{d}/a.json", "--b", "{d}/a.json"],
])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_translate_cap_below_one_is_usage_error(tmp_path, capsys, argv, cap):
    assert run_cli("cps", "generate", "--scheme", "zs:2", "--window", "0", "--radius", "2",
                   "--json", str(tmp_path / "a.json")) == 0
    capsys.readouterr()
    argv = [a.format(d=tmp_path) for a in argv]
    assert run_cli(*argv, "--max-translates", cap) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: --max-translates must be at least 1, not {cap}\n"


@pytest.mark.parametrize("cap", [0, -3])
def test_meyer_replay_needs_a_translate_cap_of_at_least_one(tmp_path, capsys, cap):
    # the capped search reruns to the same negative, which no cap below 1 can certify
    path = tmp_path / "meyer.json"
    assert _commensurate(path, "--max-translates", "1") == 2
    data = json.loads(path.read_text())
    scheme = cps.scheme_from_dict(data["scheme"])
    again = serialize.meyer_artifact(scheme, 6, data["side_a"], data["side_b"], cap)
    assert again["verdict"] == "NOT-COMMENSURABLE-AT-SCALE"
    path.write_text(json.dumps(again))
    capsys.readouterr()
    assert run_cli("verify", "replay", str(path)) == 2
    out = capsys.readouterr().out
    assert out.startswith("replay FAILED: negative verdict without a cap >= 1 and the witness")


@pytest.mark.parametrize("argv", [
    ["cps", "generate", "--scheme", "galois:golden", "--window", "{w}", "--radius", "2"],
    ["verify", "delone", "--patch", "{d}/patch.csv", "--scheme", "galois:golden",
     "--window", "{w}", "--radius", "2"],
    ["verify", "replay", "{d}/patch.json"],
    ["verify", "replay", "{d}/cert.json"],
    ["verify", "replay", "{d}/cover.json"],
    ["verify", "replay", "{d}/intersect.json"],
])
@pytest.mark.parametrize("width", ["0", "-1"])
def test_nonpositive_galois_halfwidth_is_one_usage_error(tmp_path, capsys, argv, width):
    # wherever a galois window enters: a flag, the CSV reader, or a file
    d = tmp_path
    assert run_cli("cps", "generate", "--scheme", "galois:golden", "--window", "1",
                   "--radius", "2", "--out", str(d / "patch.csv"),
                   "--json", str(d / "patch.json")) == 0
    assert run_cli("cps", "certify", "--scheme", "galois:golden", "--window", "1",
                   "--radius", "4", "--json", str(d / "cert.json")) == 0
    assert run_cli("cps", "intersect", "--scheme", "galois:golden:2", "--window", "1,1",
                   "--radius", "2", "--axes", "0", "--json", str(d / "intersect.json")) == 0
    patch, cert, inter = (json.loads((d / f"{n}.json").read_text())
                          for n in ("patch", "cert", "intersect"))
    patch["window"]["real"] = [width]
    cert["window"]["real"] = [width]
    inter["inputs"]["window"]["real"] = ["1", width]
    cover = cert["cover"] | {"w2": {"real": [width], "padic": []}}
    for name, data in (("patch", patch), ("cert", cert), ("intersect", inter), ("cover", cover)):
        (d / f"{name}.json").write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli(*(a.format(d=d, w=width) for a in argv)) == 1
    assert capsys.readouterr().err == "usage error: real window halfwidths must be positive\n"


def test_certificate_replay_names_the_failing_check(tmp_path, capsys):
    path = tmp_path / "polycover.json"
    assert run_cli("pisot", "polycover", "--ring", "pvs:golden", "--poly", "1/3,1/2",
                   "--json", str(path)) == 0
    data = json.loads(path.read_text())
    data["coset_covers"].pop()
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("verify", "replay", str(path)) == 2
    out = capsys.readouterr().out.strip()
    assert out == "replay FAILED: poly_translate_cover: 3 coset covers for 4 cosets"


def test_replay_rejects_translates_off_the_lattice(tmp_path, capsys):
    json_path = tmp_path / "cert.json"
    assert run_cli("cps", "certify", "--scheme", "galois:golden", "--window", "1",
                   "--radius", "12", "--json", str(json_path)) == 0
    data = json.loads(json_path.read_text())
    dim = data["cover"]["dim_covers"][0]
    ts = [Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]
    dim["elements"] = [[str(t), "0"] for t in ts]
    tampered = tmp_path / "offgrid.json"
    tampered.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("verify", "replay", str(tampered)) == 2
    assert "replay FAILED" in capsys.readouterr().out
    # a file in the older layout, with tile ends and their precision, fails the same way
    c = Fraction(dim["tile_halfwidth"])
    dim["claimed"] = [[str(t - c), str(t + c)] for t in ts]
    dim["precision_bits"] = 96
    tampered.write_text(json.dumps(data))
    assert run_cli("verify", "replay", str(tampered)) == 2
    assert "replay FAILED" in capsys.readouterr().out


def test_replay_rejects_an_empty_translate_chain(tmp_path, capsys):
    # a constant polynomial needs one translate; a chain of none covers nothing
    json_path = tmp_path / "polycover.json"
    assert run_cli("pisot", "polycover", "--ring", "pvs:sqrt2", "--poly", "3",
                   "--json", str(json_path)) == 0
    data = json.loads(json_path.read_text())
    # "claimed", the tile list of the older layout, empties with the translates
    data["coset_covers"][0].update(elements=[], claimed=[])
    json_path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("verify", "replay", str(json_path)) == 2
    assert "replay FAILED" in capsys.readouterr().out


def _zero_reps_and_first_cover_everywhere(data):
    data["coset_reps"] = [["0"] * len(r) for r in data["coset_reps"]]
    data["coset_covers"] = [data["coset_covers"][0]] * len(data["coset_covers"])


@pytest.mark.parametrize("ring, poly, forge, codes", [
    # P(0) shifted by 1/7, in the constant or in the polynomial alone
    ("pvs:sqrt2", "0,1,1", lambda d: d.update(constant=["1/7", "0"]), (2,)),
    ("pvs:sqrt2", "0,1,1", lambda d: d["poly"].__setitem__(0, ["1/7", "0"]), (2,)),
    # every coset claims the representative 0 and the cover of coset 0
    ("pvs:golden", "1/3,1/2", _zero_reps_and_first_cover_everywhere, (2,)),
    ("zs:2", "0,1/3", _zero_reps_and_first_cover_everywhere, (2,)),
    # a quadratic ring's coset needs an interval cover, and every coset one
    ("pvs:golden", "1/3,1/2", lambda d: d["coset_covers"].__setitem__(1, None), (1, 2)),
    ("pvs:golden", "1/3,1/2", lambda d: d["coset_covers"].pop(), (2,)),
])
def test_poly_cover_replay_derives_the_constant_and_the_cosets(tmp_path, capsys, ring, poly,
                                                                forge, codes):
    path = tmp_path / "polycover.json"
    assert run_cli("pisot", "polycover", "--ring", ring, "--poly", poly, "--json", str(path)) == 0
    data = json.loads(path.read_text())
    forge(data)
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("verify", "replay", str(path)) in codes
    assert "replay ok" not in capsys.readouterr().out


@pytest.mark.parametrize("edits, code", [
    ({("metric",): "euclidean"}, 2),
    ({("delone",): False}, 2),
    ({("delone",): 1}, 2),
    # a verdict and a flag that agree with each other, but not with the bound
    ({("covering", "verdict"): "INFINITE", ("delone",): False}, 2),
    ({("covering", "inner_radius"): "14"}, 2),
    ({("min_separation",): 0.5}, 1),
    ({("min_separation",): None}, 1),
    ({("inner_radius",): 15}, 1),
    ({("covering", "bound"): None}, 1),
])
def test_delone_replay_checks_the_report_fields_first(tmp_path, capsys, cover_artifacts,
                                                       monkeypatch, edits, code):
    def refuse(*args, **kwargs):
        raise AssertionError("a report whose fields contradict each other was rebuilt")

    monkeypatch.setattr(verify, "delone_certify", refuse)
    data = json.loads(json.dumps(cover_artifacts["delone"]))
    assert data["delone"] is True and data["covering"]["verdict"] == "FINITE"
    for field, value in edits.items():
        (data[field[0]] if len(field) == 2 else data)[field[-1]] = value
    path = tmp_path / "delone.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("verify", "replay", str(path)) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out.startswith("replay FAILED")
    else:
        assert captured.err.startswith("usage error: ")


def test_replay_rejects_delone_report_without_data(tmp_path, capsys):
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"type": "delone_report", "min_separation": "1000", "delone": True}))
    assert run_cli("verify", "replay", str(bare)) == 2
    assert "no embedded patch" in capsys.readouterr().out


def _commensurate(path, *extra):
    return run_cli("heis", "commensurate", "--field", "sqrt2", "--window", "1,1,2",
                   "--radius", "6", "--json", str(path), *extra)


def test_replay_rejects_forged_negative_meyer_verdict(tmp_path, capsys):
    path = tmp_path / "meyer.json"
    assert _commensurate(path) == 0
    data = json.loads(path.read_text())
    data["verdict"] = "NOT-COMMENSURABLE-AT-SCALE"
    data["cover_ab"] = None
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("verify", "replay", str(path)) == 2
    assert "replay FAILED" in capsys.readouterr().out


def test_replay_rejects_a_meyer_scope_below_the_writers(tmp_path, capsys):
    # covers of the origin alone claim less than the writer's scope R/2
    path = tmp_path / "meyer.json"
    assert _commensurate(path) == 0
    data = json.loads(path.read_text())
    zero = [["0", "0"], ["0", "0"], ["0", "0"]]
    for key in ("cover_ab", "cover_ba"):
        data[key] = {"translates": [zero]}
    data["scope_radius"] = "0"
    code, out = _replay_data(tmp_path, capsys, data)
    assert code == 2 and "replay FAILED" in out


def test_capped_negative_meyer_verdict_replays(tmp_path, capsys):
    path = tmp_path / "meyer.json"
    assert _commensurate(path, "--max-translates", "1") == 2
    data = json.loads(path.read_text())
    assert data["verdict"] == "NOT-COMMENSURABLE-AT-SCALE" and data["max_translates"] == 1
    assert run_cli("verify", "replay", str(path)) == 0
    for key, value in (("max_translates", 2), ("max_translates", "1"),
                       ("witness", [["0", "0"], ["0", "0"], ["0", "0"]])):
        forged = tmp_path / f"forged-{key}.json"
        forged.write_text(json.dumps(data | {key: value}))
        capsys.readouterr()
        assert run_cli("verify", "replay", str(forged)) == 2
        assert "replay FAILED" in capsys.readouterr().out


@pytest.fixture(scope="module")
def cover_artifacts(tmp_path_factory):
    """A golden patch_cover (R = 30, windows 1 and 15/16) and a Meyer artifact."""
    d = tmp_path_factory.mktemp("covers")
    for name, window in (("a", "1"), ("b", "15/16")):
        assert run_cli("cps", "generate", "--scheme", "galois:golden", "--window", window,
                       "--radius", "30", "--json", str(d / f"patch-{name}.json")) == 0
    assert run_cli("verify", "cover", "--a", str(d / "patch-a.json"), "--b",
                   str(d / "patch-b.json"), "--json", str(d / "cover.json")) == 0
    assert run_cli("verify", "delone", "--patch", str(d / "patch-a.json"), "--inner", "15",
                   "--json", str(d / "delone.json")) == 0
    assert _commensurate(d / "meyer.json") == 0
    return {name: json.loads((d / f"{name}.json").read_text())
            for name in ("cover", "delone", "meyer")}


def _replay_data(tmp_path, capsys, data):
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    code = run_cli("verify", "replay", str(path))
    return code, capsys.readouterr().out


def _embedded_patch(data, key):
    """The patch that the inputs of the embedded `key` of a patch_cover enumerate."""
    scheme, window, radius = cps.patch_inputs(data[key])
    return scheme.model_set(window, radius)


def test_patch_cover_replay_checks_every_point_of_patch_a(tmp_path, capsys, cover_artifacts):
    data = cover_artifacts["cover"]
    # the translates alone, and no point restated: the patches are named by
    # their inputs, and replay finds the translate of each point of patch_a
    assert sorted(data) == ["patch_a", "patch_b", "translates", "type"]
    assert "points" not in data["patch_a"] and "points" not in data["patch_b"]
    assert len(_embedded_patch(data, "patch_a").points) == 53 and len(data["translates"]) == 3
    assert _replay_data(tmp_path, capsys, data) == (
        0, "replay ok: patch_cover: 53 points of patch_a carried by 3 translates\n")


def _cover(data, key):
    return data[key] if key else data


COVERS = [("cover", None), ("meyer", "cover_ab"), ("meyer", "cover_ba")]


def _moved(translate):
    """A copy of a translate moved by 1000 on its first coordinate: it carries
    no covered point into a patch of radius below 500."""
    moved = copy.deepcopy(translate)
    moved[0][0] = str(Fraction(moved[0][0]) + 1000)
    return moved


# (change to a cover's translate list, what the failure names or None)
TRANSLATE_CHANGES = {
    "moved": (lambda ts: ts.__setitem__(0, _moved(ts[0])), None),
    "dropped": (lambda ts: ts.pop(), "does not carry each"),
    "duplicated": (lambda ts: ts.append(ts[0]), "which is the first to carry no"),
    "appended": (lambda ts: ts.append(_moved(ts[-1])), "which is the first to carry no"),
}


@pytest.mark.parametrize("artifact, key", COVERS)
@pytest.mark.parametrize("change", TRANSLATE_CHANGES)
def test_replay_rejects_a_changed_translate_list(tmp_path, capsys, cover_artifacts, artifact, key,
                                                 change):
    # a dropped translate leaves a point uncarried, and a padded list has a
    # translate that the greedy would never have appended
    data = json.loads(json.dumps(cover_artifacts[artifact]))
    edit, named = TRANSLATE_CHANGES[change]
    edit(_cover(data, key)["translates"])
    code, out = _replay_data(tmp_path, capsys, data)
    assert code == 2 and out.startswith("replay FAILED: "), out
    assert named is None or named in out, out


def _first_carrying_indices(data, key):
    """The translate index of each covered point, in canonical order, that the
    greedy's rule picks: the first translate that carries the point."""
    if key is None:
        patch_a, patch_b = (_embedded_patch(data, k) for k in ("patch_a", "patch_b"))
        scheme, covered, target = patch_a.scheme, patch_a.points, set(patch_b.points)
    else:
        scheme = cps.scheme_from_dict(data["scheme"])
        patch = heis.heis_model_set(scheme, str_frac(data["radius"]))
        sides = [serialize._meyer_side_points(patch, data[s]) for s in ("side_a", "side_b")]
        covered, target = sides if key == "cover_ab" else sides[::-1]
        covered = verify.points_within(covered, scheme, str_frac(data["scope_radius"]))
        target = set(target)
    translates = [scheme.point_from_json(t) for t in _cover(data, key)["translates"]]
    return [
        next(i for i, f in enumerate(translates) if scheme.mul(scheme.inv(f), a) in target)
        for a in sorted(covered, key=scheme.sort_key)
    ]


@pytest.mark.parametrize("artifact, key", COVERS)
def test_replay_of_a_cover_with_assignments_fails_and_names_them(tmp_path, capsys, cover_artifacts,
                                                                 artifact, key):
    # the layout that wrote one translate index per covered point, as replay
    # derives them: the file holds a key that its writer no longer writes
    data = json.loads(json.dumps(cover_artifacts[artifact]))
    _cover(data, key)["assignments"] = _first_carrying_indices(data, key)
    code, out = _replay_data(tmp_path, capsys, data)
    where = "assignments" if key is None else f"{key}.assignments"
    assert (code, out) == (
        2, f"replay FAILED: {where} is not what the writer writes for the checked content\n")


@pytest.mark.parametrize("key", ["patch_a", "patch_b"])
def test_patch_cover_replay_checks_the_embedded_patches(tmp_path, capsys, cover_artifacts, key):
    # inputs that enumerate the same patch but are not what its writer writes
    data = json.loads(json.dumps(cover_artifacts["cover"]))
    data[key]["radius"] = "60/2"
    code, out = _replay_data(tmp_path, capsys, data)
    assert code == 2 and f"replay FAILED: {key} differs from the inputs" in out


def _golden_cover_mutations():
    """(name, change to an embedded patch of the golden R = 30 patch_cover); after
    each, the file's claim is false, or its patch is not one replay reads."""
    sqrt2 = {"min_poly": [-2, 0, 1]}
    return [
        ("field", lambda p: p["scheme"].update(field=sqrt2)),
        ("dim", lambda p: p["scheme"].update(dim=2)),
        ("root", lambda p: p["scheme"].update(physical_root_index=0)),
        ("zs", lambda p: p.update(scheme={"kind": "zs", "primes": [2]})),
        ("heis", lambda p: p.update(scheme={"kind": "heis", "field": sqrt2,
                                            "window": ["1", "1", "1"]})),
        ("window", lambda p: p.update(window={"real": ["1/8"], "padic": []})),
        ("window-2d", lambda p: p.update(window={"real": ["1", "1"], "padic": []})),
        ("radius-huge", lambda p: p.update(radius="1" + "0" * 4299)),
        ("radius-zero", lambda p: p.update(radius="0")),
        ("extra-key", lambda p: p.update(factors=[])),
        ("points", None),
    ]


@pytest.mark.parametrize("key", ["patch_a", "patch_b"])
@pytest.mark.parametrize("name, change", _golden_cover_mutations())
def test_a_changed_embedded_patch_never_replays_ok(tmp_path, capsys, cover_artifacts, key, name,
                                                   change):
    data = json.loads(json.dumps(cover_artifacts["cover"]))
    if change is None:
        # the older layout: the whole patch, points included
        data[key] = _embedded_patch(data, key).to_dict()
    else:
        change(data[key])
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    code = run_cli("verify", "replay", str(path))
    out, err = capsys.readouterr()
    assert code in (1, 2) and "Traceback" not in err, (out, err)
    if change is None:
        assert code == 1 and err == (f"usage error: {key} lists its points, as in the older "
                                     "patch_cover layout; write the file again with verify cover\n")


@pytest.mark.parametrize("key, radius, claim", [
    ("patch_a", "60", False),  # the covered patch grows past F * patch_b
    ("patch_b", "15", False),  # the covering patch shrinks
    ("patch_a", "15", True),
    ("patch_b", "60", True),
])
def test_a_cover_with_a_changed_radius_replays_as_its_claim(tmp_path, capsys, cover_artifacts,
                                                            key, radius, claim):
    data = json.loads(json.dumps(cover_artifacts["cover"]))
    data[key]["radius"] = radius
    code, out = _replay_data(tmp_path, capsys, data)
    if not claim:
        assert (code, out) == (2, "replay FAILED: the cover does not carry each point of "
                                  "patch_a into patch_b\n")
        return
    # the claim holds, and verify cover on those inputs writes the same
    # translates, though its greedy may append them in another order
    assert code == 0 and out.startswith("replay ok: patch_cover: "), out
    windows = {"patch_a": "1", "patch_b": "15/16"}
    for name in windows:
        assert run_cli("cps", "generate", "--scheme", "galois:golden", "--window", windows[name],
                       "--radius", data[name]["radius"], "--json", str(tmp_path / name)) == 0
    assert run_cli("verify", "cover", "--a", str(tmp_path / "patch_a"), "--b",
                   str(tmp_path / "patch_b"), "--json", str(tmp_path / "cover.json")) == 0
    written = json.loads((tmp_path / "cover.json").read_text())
    assert sorted(written.pop("translates")) == sorted(data.pop("translates"))
    assert written == data


def test_delone_replay_checks_the_embedded_patch(tmp_path, capsys, cover_artifacts):
    data = json.loads(json.dumps(cover_artifacts["delone"]))
    data["patch"]["points"].append([["1000", "0"]])
    code, out = _replay_data(tmp_path, capsys, data)
    assert code == 2 and "replay FAILED" in out


def _certify(path, scheme, window):
    return run_cli("cps", "certify", "--scheme", scheme, "--window", window, "--radius", "10",
                   "--json", str(path))


def test_replay_ties_the_lattice_cover_to_its_window(tmp_path, capsys):
    # the cover of a window-3 certificate, spliced into the window-1 one
    assert _certify(tmp_path / "w1.json", "galois:golden", "1") == 0
    assert _certify(tmp_path / "w3.json", "galois:golden", "3") == 0
    data = json.loads((tmp_path / "w1.json").read_text())
    data["cover"] = json.loads((tmp_path / "w3.json").read_text())["cover"]
    code, out = _replay_data(tmp_path, capsys, data)
    assert code == 2 and "replay FAILED" in out


def test_replay_ties_a_zs_cover_to_its_window_levels(tmp_path, capsys):
    assert _certify(tmp_path / "zs.json", "zs:2,3", "1") == 0
    cover = json.loads((tmp_path / "zs.json").read_text())["cover"]
    assert _replay_data(tmp_path, capsys, cover)[0] == 0
    # W1 at levels (3, 3) over W2 at (1, 1) has 36 cosets, not the one of levels (0, 0)
    cover["w1"] = {"real": [], "padic": [[2, 3], [3, 3]]}
    cover["padic"].update(k1=[0, 0], k2=[0, 0], residues=["0"])
    code, out = _replay_data(tmp_path, capsys, cover)
    assert code == 2 and "replay FAILED" in out


def test_replay_of_a_cover_with_mismatched_window_shapes_is_usage_error(tmp_path, capsys):
    assert _certify(tmp_path / "w1.json", "galois:golden", "1") == 0
    cover = json.loads((tmp_path / "w1.json").read_text())["cover"]
    # a second W1 axis beside the one W2 axis, with the first axis's cover twice
    cover["w1"]["real"].append("1000")
    cover["dim_covers"] *= 2
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(cover))
    capsys.readouterr()
    assert run_cli("verify", "replay", str(path)) == 1
    assert "usage error: window dimension must match" in capsys.readouterr().err


def test_replay_of_an_artifact_nested_too_deeply_is_usage_error(sum_product_file):
    # a file that the decoder reads near its depth limit, which replay encodes again
    data = sum_product_file | {"key": []}
    inner = data["key"]
    for _ in range(sys.getrecursionlimit()):
        inner.append([])
        inner = inner[0]
    with pytest.raises(UsageError, match="sum_product artifact is nested too deeply"):
        serialize.replay(data)


def test_a_poly_shrink_file_has_no_replay(tmp_path, capsys):
    # the layout that earlier versions wrote; no command writes the type
    path = tmp_path / "shrink.json"
    path.write_text(json.dumps({
        "type": "poly_shrink",
        "ring": {"field": {"min_poly": [-1, -1, 1]}, "s_places": [{"kind": "arch", "root_index": 1}]},
        "poly": [["0", "0"], ["1", "0"], ["3", "0"]],
        "delta": "1/4", "coeff_bounds": ["1", "3"], "bound_value": "7/16", "patch_radius": "8",
    }))
    assert run_cli("verify", "replay", str(path)) == 1
    assert capsys.readouterr().err == (
        "usage error: no replay handler for certificate type 'poly_shrink'\n")


def _hand_patches() -> tuple[dict, dict, dict]:
    """A golden, a zs and a heis patch file, written by hand with few points."""
    golden = {"type": "patch", "radius": "2", "points": [[["0", "0"]]],
              "scheme": {"kind": "galois", "field": {"min_poly": [-1, -1, 1]}, "dim": 1,
                         "physical_root_index": 1},
              "window": {"real": ["1"], "padic": []}}
    zs = {"type": "patch", "radius": "1", "points": ["0"], "scheme": {"kind": "zs", "primes": [2]},
          "window": {"real": [], "padic": [[2, 0]]}}
    heis = {"type": "heis_patch", "radius": "1", "points": [],
            "scheme": {"kind": "heis", "field": {"min_poly": [-1, -1, 1]},
                       "window": ["1", "1", "1"], "physical_root_index": 1}}
    return golden, zs, heis


def _one_patch_per_group():
    """Small patches whose points lie in five different groups."""
    golden, sqrt2 = golden_field(), sqrt2_field()
    return {
        "zs": cps.ZSScheme([2]).model_set(cps.Window.balls((2, 0)), 2),
        "golden": cps.GaloisScheme(golden).model_set(cps.Window.box(1), 2),
        "sqrt2": cps.GaloisScheme(sqrt2).model_set(cps.Window.box(1), 2),
        "heis-golden": heis.heis_model_set(heis.HeisScheme(golden, (1, 1, 1)), 1),
        "heis-sqrt2": heis.heis_model_set(heis.HeisScheme(sqrt2, (1, 1, 1)), 1),
    }


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cps", "generate", "--scheme", "galois:golden", "--window", "1", "--radius", "abc"],
         "not a rational number: 'abc'"),
        (["cps", "generate", "--scheme", "galois:golden", "--window", "x", "--radius", "5"],
         "not a rational number: 'x'"),
        (["heis", "certify", "--field", "sqrt2", "--window", "a,b,c"],
         "not a rational number: 'a'"),
        (["verify", "replay", "{d}/missing.json"], "cannot read"),
        (["verify", "replay", "{d}/not-json.json"], "is not a JSON file"),
        (["verify", "replay", "{d}/bare-patch.json"], "patch artifact lacks the key 'scheme'"),
        (["cps", "generate", "--scheme", "zs:x", "--window", "0", "--radius", "1"],
         "not an integer: 'x'"),
        (["cps", "generate", "--scheme", "galois:golden:x", "--window", "1", "--radius", "1"],
         "not an integer: 'x'"),
        (["cps", "generate", "--scheme", "zs:2", "--window", "x", "--radius", "1"],
         "not an integer: 'x'"),
        (["cps", "intersect", "--scheme", "galois:golden:2", "--window", "1,1", "--radius", "4",
          "--axes", "x"], "not an integer: 'x'"),
        (["pisot", "certify", "--ring", "zs:x", "--elements", "1"], "not an integer: 'x'"),
        # a patch file or a field file without a key that the command reads
        (["verify", "delone", "--patch", "{d}/bare-patch.json"],
         "{d}/bare-patch.json lacks the key 'scheme'"),
        (["verify", "cover", "--a", "{d}/golden.json", "--b", "{d}/no-points.json"],
         "{d}/no-points.json lacks the key 'points'"),
        (["verify", "replay", "{d}/scheme-str.json"], "a scheme is a JSON object, not 'x'"),
        (["heis", "certify", "--field", "{d}/no-min-poly.json", "--window", "1,1,1"],
         "{d}/no-min-poly.json lacks the key 'min_poly'"),
        (["cps", "generate", "--scheme", "galois:{d}/no-min-poly.json", "--window", "1",
          "--radius", "2"], "{d}/no-min-poly.json lacks the key 'min_poly'"),
        (["verify", "replay", "{d}/window-int.json"], "a window is a JSON object, not 5"),
        (["verify", "replay", "{d}/window-real-int.json"],
         "the real half-widths of a window are a JSON list, not 5"),
        (["verify", "replay", "{d}/field-int.json"], "a field is a JSON object, not 5"),
        (["verify", "replay", "{d}/meyer-translates-int.json"],
         "the translates of a cover are a JSON list, not 5"),
        (["verify", "replay", "{d}/heis-window-int.json"],
         "the window of a heis scheme is a JSON list, not 5"),
        (["verify", "replay", "{d}/zs-primes-int.json"], "the primes of a zs scheme are a JSON list, not 5"),
        (["verify", "replay", "{d}/dim-str.json"], "not an integer: 'x'"),
        (["verify", "replay", "{d}/min-poly-str.json"], "not an integer: 'x'"),
        (["verify", "replay", "{d}/padic-str.json"], "not an integer: 'x'"),
        (["verify", "replay", "{d}/cover-elements-int.json"],
         "the elements of a cover are coefficient lists, not 5"),
        (["verify", "replay", "{d}/cover-target-int.json"],
         "the target of a cover is a [lo, hi] pair, not 5"),
        (["verify", "replay", "{d}/heis-global-cover.json"],
         "a global cover needs a zs or galois scheme"),
        # the fields a window or translate cover still reads; its derived fields fail
        # replay as not written (test_a_changed_derived_cover_field_fails_replay_and_is_named)
        (["verify", "replay", "{d}/global-dim-covers-int.json"],
         "the dim_covers of a global cover are a JSON list, not 5"),
        (["verify", "replay", "{d}/lattice-dim-covers-int.json"],
         "the dim_covers of a global cover are a JSON list, not 5"),
        (["verify", "replay", "{d}/poly-covers-int.json"], "the coset_covers are a JSON list, not 5"),
        (["verify", "replay", "{d}/poly-poly-int.json"], "the poly are a JSON list, not 5"),
        (["verify", "replay", "{d}/poly-ring-int.json"], "a ring is a JSON object, not 5"),
        (["verify", "replay", "{d}/poly-scale-float.json"], "not a rational number: 0.5"),
        (["verify", "replay", "{d}/poly-zs-interval-cover.json"],
         "a coset cover is null over Q and an interval cover over a quadratic field"),
        (["verify", "replay", "{d}/poly-cover-elements-int.json"],
         "the elements of a cover are coefficient lists, not 5"),
        # a float or bool literal where the file holds an integer or a rational string
        (["verify", "replay", "{d}/min-poly-float.json"], "not an integer: -1.9"),
        (["verify", "replay", "{d}/zs-level-float.json"], "not an integer: 1.7"),
        (["verify", "replay", "{d}/radius-float.json"], "not a rational number: 10.0"),
        (["verify", "replay", "{d}/dim-bool.json"], "not an integer: True"),
        (["verify", "replay", "{d}/root-index-bool.json"], "not an integer: True"),
        (["verify", "replay", "{d}/root-index-float.json"], "not an integer: 1.0"),
        (["verify", "replay", "{d}/lattice-min-poly-float.json"], "not an integer: -1.9"),
        (["cps", "generate", "--config", "{d}/missing.conf"], "cannot read"),
        (["verify", "delone", "--patch", "{d}/missing.csv", "--scheme", "galois:golden",
          "--window", "1", "--radius", "2"], "cannot read"),
        (["verify", "cellcover", "--spec", "{d}/spec-no-x.json"],
         "the points x of a cell cover are a JSON list, not None"),
        (["verify", "cellcover", "--spec", "{d}/spec-list.json"],
         "a cell cover spec is a JSON object, not [1, 2]"),
        (["verify", "delone", "--patch", "{d}/spec-list.json"], "is not a patch file"),
        # a heis_cover of the layout with x_cover, y_cover, z_cover and shear_bound
        (["verify", "replay", "{d}/heis-cover-old.json"],
         "heis_cover artifact lacks the key 'w1'"),
        # 3^3000000 cosets: the level is refused before any power is built
        (["cps", "certify", "--scheme", "zs:3", "--window", "3000000", "--radius", "5"],
         "the window levels make prod p^|k| exceed the limit 5000000"),
        # 3^15 > 5000000 >= 3^14, and a negative level counts as its size (level 14 is the
        # last accepted: the resource error below is raised after the window is taken)
        (["cps", "generate", "--scheme", "zs:3", "--window", "-15", "--radius", "5"],
         "the window levels make prod p^|k| exceed the limit 5000000"),
        # an output path in a missing directory, or one that is a directory
        (["cps", "generate", "--scheme", "zs:2", "--window", "0", "--radius", "2",
          "--json", "{d}/missing/x.json"], "cannot write {d}/missing/x.json: No such file"),
        (["cps", "generate", "--scheme", "zs:2", "--window", "0", "--radius", "2",
          "--out", "{d}/a-dir"], "cannot write {d}/a-dir: Is a directory"),
        # a cover of one patch by translates of another needs both in one group
        *((["verify", "cover", "--a", f"{{d}}/{a}.json", "--b", f"{{d}}/{b}.json"],
           f"{{d}}/{a}.json holds ")
          for a, b in (("zs", "golden"), ("heis-golden", "golden"), ("golden", "sqrt2"),
                       ("heis-sqrt2", "heis-golden"), ("golden", "heis-golden"))),
        # as for every sibling command; a center summary of such a radius fails its replay too
        (["heis", "center", "--field", "sqrt2", "--window", "1,1,2", "--radius", "0"],
         "radius must be positive"),
        (["heis", "center", "--field", "sqrt2", "--window", "1,1,2", "--radius", "-1"],
         "radius must be positive"),
        (["verify", "replay", "{d}/center-radius-zero.json"], "radius must be positive"),
        # JSON nested deeper than the decoder recurses, and JSON that is not an object
        (["verify", "replay", "{d}/deep.json"], "{d}/deep.json is not a JSON file: "),
        (["verify", "delone", "--patch", "{d}/deep.json"], "{d}/deep.json is not a JSON file: "),
        (["verify", "replay", "{d}/deep-key.json"], "{d}/deep-key.json is not a JSON file: "),
        (["verify", "replay", "{d}/spec-list.json"],
         "the file is not an artifact: a JSON object with a type is expected"),
        # a patch file without its points (a malformed point fails replay instead:
        # test_a_malformed_point_fails_replay_and_is_named), a ring's field file without
        # min_poly, and a zs or pvs ring spec with nothing after it
        (["verify", "delone", "--patch", "{d}/no-points.json"],
         "{d}/no-points.json lacks the key 'points'"),
        (["pisot", "certify", "--ring", "pvs:{d}/no-min-poly.json", "--elements", "{d}/x.json"],
         "{d}/no-min-poly.json lacks the key 'min_poly'"),
        (["pisot", "polycover", "--ring", "zs", "--poly", "0,1"],
         "ring spec 'zs' is not z, zs:<primes> or pvs:<field>[:<root>]"),
        (["pisot", "polycover", "--ring", "pvs", "--poly", "0,1"],
         "ring spec 'pvs' is not z, zs:<primes> or pvs:<field>[:<root>]"),
    ],
)
def test_malformed_input_is_usage_error(tmp_path, capsys, argv, message):
    for name, patch in _one_patch_per_group().items():
        (tmp_path / f"{name}.json").write_text(json.dumps(patch.to_dict()))
    (tmp_path / "a-dir").mkdir()
    (tmp_path / "not-json.json").write_text("points: 1, 2, 3\n")
    (tmp_path / "bare-patch.json").write_text(json.dumps({"type": "patch"}))
    (tmp_path / "deep.json").write_text("[" * 200000 + "]" * 200000)
    (tmp_path / "deep-key.json").write_text(
        '{"type": "patch", "key": ' + '{"key": ' * 994 + "0" + "}" * 995 + "}")
    golden, zs, heis = _hand_patches()
    cover = {"translates": 5}
    dim_cover = {"elements": [["0", "0"]], "tile_halfwidth": "1", "target": ["-1", "1"]}
    heis_cover = {"type": "heis_cover", "scheme": heis["scheme"],
                  "w1": {"real": ["2", "2", "3"], "padic": []},
                  "w2": {"real": ["1", "1", "1"], "padic": []}, "padic": None}
    float_poly = golden["scheme"] | {"field": {"min_poly": [-1.9, -1, 1]}}
    float_lattice = {"type": "approximate_lattice", "scheme": float_poly,
                     "window": golden["window"], "patch_radius": "2", "delone": {},
                     "cover": {"type": "global_cover", "scheme": float_poly,
                               "w1": {"real": ["2"], "padic": []}, "w2": golden["window"],
                               "dim_covers": [], "padic": None}}
    meyer = {"type": "meyer_commensurability", "scheme": heis["scheme"], "radius": "1",
             "side_a": "model_set", "side_b": "model_set", "scope_radius": "1/2",
             "verdict": "COMMENSURABLE-AT-SCALE", "cover_ab": cover, "cover_ba": cover}
    for name, data in (("no-points", {key: golden[key] for key in golden if key != "points"}),
                       ("no-min-poly", {"degree": 2}),
                       ("scheme-str", golden | {"scheme": "x"}),
                       ("window-int", golden | {"window": 5}),
                       ("window-real-int", golden | {"window": {"real": 5, "padic": []}}),
                       ("field-int", golden | {"scheme": golden["scheme"] | {"field": 5}}),
                       ("meyer-translates-int", meyer),
                       ("heis-window-int", heis | {"scheme": heis["scheme"] | {"window": 5}}),
                       ("zs-primes-int", zs | {"scheme": {"kind": "zs", "primes": 5}}),
                       ("dim-str", golden | {"scheme": golden["scheme"] | {"dim": "x"}}),
                       ("min-poly-str", golden | {"scheme": golden["scheme"] | {"field": {"min_poly": ["x", 1]}}}),
                       ("padic-str", zs | {"window": {"real": [], "padic": [["x", 0]]}}),
                       ("cover-elements-int",
                        heis_cover | {"dim_covers": [dim_cover | {"elements": 5}]}),
                       ("cover-target-int", heis_cover | {"dim_covers": [dim_cover | {"target": 5}]}),
                       ("heis-global-cover", {"type": "global_cover", "scheme": heis["scheme"],
                                              "w1": zs["window"], "w2": zs["window"],
                                              "dim_covers": [], "padic": None}),
                       ("min-poly-float", golden | {"scheme": float_poly}),
                       ("zs-level-float", zs | {"scheme": {"kind": "zs", "primes": [2, 3]},
                                                "window": {"real": [], "padic": [[2, 1.7], [3, 1]]}}),
                       ("radius-float", golden | {"radius": 10.0}),
                       ("dim-bool", golden | {"scheme": golden["scheme"] | {"dim": True}}),
                       ("root-index-bool",
                        golden | {"scheme": golden["scheme"] | {"physical_root_index": True}}),
                       ("root-index-float",
                        golden | {"scheme": golden["scheme"] | {"physical_root_index": 1.0}}),
                       ("lattice-min-poly-float", float_lattice),
                       ("center-radius-zero", {"type": "center_intersection", "central_size": 0,
                                               "report": None, "conclusive": False,
                                               "inputs": {"scheme": heis["scheme"], "radius": "0"}}),
                       ("spec-no-x", {"y": 1}),
                       ("spec-list", [1, 2]),
                       ("heis-cover-old", {"type": "heis_cover", "scheme": heis["scheme"],
                                           "x_cover": dim_cover, "y_cover": dim_cover,
                                           "z_cover": dim_cover, "shear_bound": "0"})):
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    golden_cover = {"type": "global_cover", "scheme": golden["scheme"],
                    "w1": {"real": ["2"], "padic": []}, "w2": golden["window"], "dim_covers": 5,
                    "padic": None}
    golden_poly, zs_poly = _poly_covers()
    for name, data in (("global-dim-covers-int", golden_cover),
                       ("lattice-dim-covers-int", float_lattice | {"scheme": golden["scheme"],
                                                                   "cover": golden_cover}),
                       ("poly-covers-int", golden_poly | {"coset_covers": 5}),
                       ("poly-poly-int", golden_poly | {"poly": 5}),
                       ("poly-ring-int", golden_poly | {"ring": 5}),
                       ("poly-scale-float", golden_poly | {"window_scale": 0.5}),
                       ("poly-zs-interval-cover", zs_poly | {"coset_covers": [dim_cover] * 3}),
                       ("poly-cover-elements-int",
                        golden_poly | {"coset_covers": [dim_cover | {"elements": 5}] * 4})):
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    assert run_cli(*(a.format(d=tmp_path) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message.format(d=tmp_path) in err
    assert "Traceback" not in err
    # a failed write removes its temporary file
    assert not list(tmp_path.glob(".meyerlab-*"))


def _poly_covers() -> tuple[dict, dict]:
    """The translate covers of (1/2)X + 1/3 over the golden PVS ring, 4 cosets,
    and of X/3 over Z[1/2], 3 cosets."""
    golden = places.polynomial_translate_cover(
        [Fraction(1, 3), Fraction(1, 2)], places.ring_pvs(golden_field(), 1))
    zs = places.polynomial_translate_cover([0, Fraction(1, 3)], places.ring_zs([2]))
    return golden.to_dict(), zs.to_dict()


def _changed(value):
    """A value of the same JSON type that differs from `value`."""
    if type(value) is int:
        return value + 1
    if type(value) is str:
        return str(2 * str_frac(value) + 1)
    return value + value[:1]


@pytest.mark.parametrize("artifact, key, change", [
    # the padic object of a zs cover: the scheme's primes, the windows' levels, the residues
    *((artifact, key, "int") for artifact in ("global", "lattice")
      for key in ("primes", "k1", "k2", "residues")),
    # P(0), m, the representatives and B of a translate cover
    *((artifact, key, change) for artifact in ("poly-golden", "poly-zs")
      for key in ("constant", "modulus", "coset_reps", "conj_bound") for change in ("value", "type")),
])
def test_a_changed_derived_cover_field_fails_replay_and_is_named(tmp_path, capsys, artifact, key,
                                                                  change):
    # a field that replay derives is compared as written, not decoded, so a change of its
    # value or JSON type fails replay (exit 2) and its line names the field
    if artifact.startswith("poly"):
        data = dict(zip(("poly-golden", "poly-zs"), _poly_covers()))[artifact]
        data[key] = _changed(data[key]) if change == "value" else (
            str(data[key]) if type(data[key]) is int else 5)
        named = f"replay FAILED: poly_translate_cover: {key}"
    else:
        zs = {"kind": "zs", "primes": [2]}
        window = {"real": [], "padic": [[2, 0]]}
        padic = {"primes": [2], "k1": [0], "k2": [0], "residues": ["0"]}
        data = {"type": "global_cover", "scheme": zs, "w1": window, "w2": window,
                "dim_covers": [], "padic": padic | {key: 5}}
        named = f"replay FAILED: global_cover: padic.{key}"
        if artifact == "lattice":
            data = {"type": "approximate_lattice", "scheme": zs, "window": window, "cover": data,
                    "patch_radius": "1", "delone": {}}
            named = f"replay FAILED: cover.padic.{key}"
    code, out = _replay_data(tmp_path, capsys, data)
    assert code == 2 and out.startswith(named + " is not what the writer writes"), out


@pytest.mark.parametrize("name", ["point-shape", "points-int", "zs-point-float", "heis-point-2d",
                                  "zs-point-int", "delone-patch-point"])
def test_a_malformed_point_fails_replay_and_is_named(tmp_path, capsys, name):
    # the points of a patch follow from its scheme, window and radius, so replay decodes
    # none: a point of another shape or JSON type fails replay (exit 2), and the line
    # names where the file first differs from the rebuild
    golden, zs, heis_patch = _hand_patches()
    delone = serialize.delone_artifact(
        cps.GaloisScheme(golden_field()).model_set(cps.Window.box(1), 2), 1)
    delone["patch"]["points"][0] = [[1, 0]]
    data, where = {
        "point-shape": (golden | {"points": [[1, 0]]}, "points"),
        "points-int": (golden | {"points": 5}, "points"),
        "zs-point-float": (zs | {"points": [0.5]}, "points"),
        "heis-point-2d": (heis_patch | {"points": [[["0", "0"], ["0", "0"]]]}, "points"),
        # the three points of the patch, one of them a JSON integer
        "zs-point-int": (zs | {"points": ["-1", 0, "1"]}, "points.1"),
        "delone-patch-point": (delone, "patch.points.0.0.0"),
    }[name]
    code, out = _replay_data(tmp_path, capsys, data)
    assert (code, out) == (
        2, f"replay FAILED: {data['type']} rebuilt from its inputs differs from the file at {where}\n")


def test_replay_of_a_zs_cover_of_too_many_cosets_is_refused_before_any_residue_is_made(
        tmp_path, capsys):
    # W1 at 2-adic level 22 over W2 at level 0 has 2^22 cosets: a window the scheme takes, but
    # a cover past the coset limit, refused from the file of a few hundred bytes at once
    window = {"real": [], "padic": [[2, 0]]}
    data = {"type": "global_cover", "scheme": {"kind": "zs", "primes": [2]},
            "w1": {"real": [], "padic": [[2, 22]]}, "w2": window, "dim_covers": [],
            "padic": {"primes": [2], "k1": [22], "k2": [0], "residues": ["0"]}}
    path = tmp_path / "many-cosets.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    start = time.perf_counter()
    assert run_cli("verify", "replay", str(path)) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        f"resource error: the window cover needs more than the limit of {cps.MAX_COSETS} cosets\n")


# a radius of 4,300 digits, the most that Python converts from a string: the
# candidate counts have more digits than it converts back
HUGE_RADIUS = "1" + "0" * 4299


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cps", "generate", "--scheme", "zs:3", "--window", "14", "--radius", HUGE_RADIUS],
         "the R-ball holds more than the limit of 5000000 candidates"),
        (["cps", "generate", "--scheme", "galois:golden", "--window", "1", "--radius", HUGE_RADIUS],
         "the coefficient box holds more than the limit of 5000000 candidates"),
        (["cps", "generate", "--scheme", "galois:golden:3", "--window", "1", "--radius", "200"],
         "the patch would hold more than the limit of 5000000 points"),
    ],
)
def test_oversized_input_is_resource_error(capsys, argv, message):
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("resource error: ") and message in err


def test_heis_hull_enumerates_factors_not_the_patch(tmp_path, capsys):
    # at R = 200 the sqrt2 1,1,1 patch would hold about 283^3 points, past the
    # patch limit, but the hull reads only its three 1-D factors
    hull = tmp_path / "hull.json"
    assert run_cli("heis", "hull", "--field", "sqrt2", "--window", "1,1,1", "--radius-small",
                   "100", "--radius-large", "200", "--json", str(hull)) == 0
    assert capsys.readouterr().out == "hull: full\n"
    assert run_cli("verify", "replay", str(hull)) == 0


def test_a_polycover_of_too_many_cosets_is_refused_before_any_is_built(capsys):
    # m = 10000 gives m^2 = 10^8 coset covers over the golden ring, and
    # m = 317 gives 100,489, just above the limit
    for poly in ("0,1/10000", "0,1/317"):
        start = time.perf_counter()
        assert run_cli("pisot", "polycover", "--ring", "pvs:golden", "--poly", poly) == 1
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert err == "resource error: the translate cover needs more than the limit of 100000 cosets\n"


def test_replay_refuses_a_huge_zs_level_at_once(tmp_path, capsys):
    assert _certify(tmp_path / "zs.json", "zs:3", "1") == 0
    cover = json.loads((tmp_path / "zs.json").read_text())["cover"]
    # 3^30000000 cosets, from a file of a few hundred bytes
    cover["w1"]["padic"] = [[3, 30_000_000]]
    cover["padic"]["k1"] = [30_000_000]
    path = tmp_path / "huge-level.json"
    path.write_text(json.dumps(cover))
    capsys.readouterr()
    start = time.perf_counter()
    assert run_cli("verify", "replay", str(path)) == 1
    assert time.perf_counter() - start < 1
    assert "usage error: the window levels make prod p^|k| exceed" in capsys.readouterr().err


def test_csv_is_built_only_when_written(tmp_path, monkeypatch):
    def refuse(patch):
        raise AssertionError("CSV built but not written")

    monkeypatch.setattr(serialize, "patch_to_csv", refuse)
    json_path = tmp_path / "patch.json"
    assert run_cli("cps", "generate", "--scheme", "galois:golden", "--window", "1",
                   "--radius", "6", "--json", str(json_path)) == 0
    assert run_cli("heis", "generate", "--field", "golden", "--window", "1,1,1",
                   "--radius", "3", "--json", str(json_path)) == 0


# one function per submodule that the traced benchmark child wraps
LAZY_SUBMODULES = {
    "exactnum": "abs_embedding_leq",
    "verify": "min_separation",
    "cps": "enumerate_window_elements",
    "heis": "heis_model_set",
    "places": "s_integer_membership",
    "serialize": "replay",
}


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_python(script, *argv):
    # -S: no site module, whose .pth hooks may import typing on their own
    proc = subprocess.run([sys.executable, "-S", "-c", textwrap.dedent(script), *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Run one CLI command, then print the meyerlab submodules left unexecuted,
# which of dataclasses, inspect and typing it loaded, and which of the argument
# parser's and the temporary file's modules it loaded beside its exit code:
# every CLI job is a fresh process, so it pays for each import again.
CLI_MODULES_AT_EXIT = """
    import sys, types
    from meyerlab import cli
    code = cli.run(sys.argv[1:])
    executed = {n for n, m in sys.modules.items() if type(m) is types.ModuleType}
    print(sorted(n for n in sys.modules if n.startswith("meyerlab.") and n not in executed))
    print([n for n in ("dataclasses", "inspect", "typing") if n in sys.modules])
    print([n for n in ("argparse", "gettext", "locale", "tempfile") if n in sys.modules], code)
"""


def test_cps_generate_leaves_unused_submodules_unexecuted(tmp_path):
    out = _run_python(CLI_MODULES_AT_EXIT, "cps", "generate", "--scheme", "galois:golden",
                      "--window", "1", "--radius", "6", "--json", str(tmp_path / "patch.json"))
    assert out.splitlines()[-3:] == ["['meyerlab.heis', 'meyerlab.places', 'meyerlab.verify']",
                                     "[]", "[] 0"]


def test_heis_replay_loads_no_dataclasses_inspect_or_typing(tmp_path):
    path = tmp_path / "meyer.json"
    assert _commensurate(path) == 0
    out = _run_python(CLI_MODULES_AT_EXIT, "verify", "replay", str(path))
    assert out.splitlines()[-3:] == ["['meyerlab.places']", "[]", "[] 0"]


def test_cellcover_replay_leaves_cps_unexecuted(tmp_path):
    # the cell cover's group (Q, +) lives in exactnum, which every command loads
    spec, path = tmp_path / "spec.json", tmp_path / "cell.json"
    spec.write_text(json.dumps({"x": ["0", "1", "2", "3"], "coverings": [[["0", "2"], ["0", "1"]]]}))
    assert run_cli("verify", "cellcover", "--spec", str(spec), "--json", str(path)) == 0
    out = _run_python(CLI_MODULES_AT_EXIT, "verify", "replay", str(path))
    assert out.splitlines()[-3:] == ["['meyerlab.cps', 'meyerlab.heis', 'meyerlab.places']", "[]",
                                     "[] 0"]


@pytest.mark.parametrize("argv, code", [
    (["heis", "certify", "--field", "sqrt2", "--window", "1,1,2"], 0),
    (["pisot", "certify", "--ring", "pvs:golden", "--elements", "{d}/elements.json"], 0),
    (["cps", "generate", "--radius"], 1),
])
def test_no_command_loads_argparse_or_tempfile(tmp_path, argv, code):
    (tmp_path / "elements.json").write_text(json.dumps(["0", "1", "-1"]))
    argv = [a.format(d=tmp_path) for a in argv] + ["--json", str(tmp_path / "out.json")]
    out = _run_python(CLI_MODULES_AT_EXIT, *argv)
    assert out.splitlines()[-1] == f"[] {code}"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_follow_the_umask(tmp_path, umask, mode):
    json_path, csv_path = tmp_path / "patch.json", tmp_path / "patch.csv"
    old = os.umask(umask)
    try:
        assert run_cli("cps", "generate", "--scheme", "zs:2", "--window", "0", "--radius", "3",
                       "--json", str(json_path), "--out", str(csv_path)) == 0
    finally:
        os.umask(old)
    assert [p.stat().st_mode & 0o777 for p in (json_path, csv_path)] == [mode, mode]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["patch.csv", "patch.json"]


def test_every_submodule_is_registered_after_importing_cli():
    # the traced benchmark child imports meyerlab.cli, then reads
    # sys.modules["meyerlab.<name>"] and wraps functions found through vars()
    script = f"""
        import sys, types
        import meyerlab, meyerlab.cli
        for name, attr in {LAZY_SUBMODULES!r}.items():
            module = sys.modules["meyerlab." + name]
            assert getattr(meyerlab, name) is module, name
            assert vars(module)[attr].__module__ == module.__name__, name
            assert type(module) is types.ModuleType, name
        print("ok")
    """
    assert _run_python(script).splitlines()[-1] == "ok"


# Every option of every command, recorded from the per-command parsers that
# one parser per command group replaced.
CPS_OPTIONS = ("--scheme", "--window", "--radius", "--axes")
HEIS_OPTIONS = ("--field", "--window", "--radius", "--radius-small", "--radius-large",
                "--side-a", "--side-b", "--max-translates")
PISOT_OPTIONS = ("--ring", "--field", "--elements", "--poly", "--scale")
VERIFY_OPTIONS = ("--patch", "--a", "--b", "--inner", "--spec", "--scheme", "--field", "--window",
                  "--radius", "--max-translates")
COMMON_OPTIONS = ("--out", "--json", "--config")
SURFACE = {
    **{("cps", c): CPS_OPTIONS for c in ("generate", "certify", "intersect", "project")},
    **{("heis", c): HEIS_OPTIONS for c in ("generate", "certify", "center", "hull", "commensurate")},
    **{("pisot", c): PISOT_OPTIONS for c in ("certify", "polycover")},
    **{("verify", c): VERIFY_OPTIONS for c in ("delone", "cover", "cellcover")},
    ("verify", "replay"): (),
}
ALL_OPTIONS = sorted(set().union(*SURFACE.values()) | set(COMMON_OPTIONS))
OPTION_VALUES = {"--side-a": "model_set", "--side-b": "symmetrized", "--max-translates": "3"}


def _option_value(option):
    return OPTION_VALUES.get(option, "v")


@pytest.fixture
def record_args(monkeypatch):
    """Replace every command handler with one that records its namespace."""
    seen = []
    for group, command in SURFACE:
        monkeypatch.setitem(cli.COMMANDS[group], command, lambda args: seen.append(args) or 0)
    return seen


def test_command_table_matches_recorded_surface():
    assert {(g, c) for g, commands in cli.COMMANDS.items() for c in commands} == set(SURFACE)


@pytest.mark.parametrize("group, command", sorted(SURFACE))
def test_cli_surface_is_unchanged(group, command, tmp_path, capsys, record_args):
    head = [group, command] + (["artifact.json"] if command == "replay" else [])
    config = tmp_path / "empty.conf"
    config.write_text("")
    argv = list(head)
    for option in SURFACE[group, command] + COMMON_OPTIONS:
        argv += [option, str(config) if option == "--config" else _option_value(option)]
    assert run_cli(*argv) == 0
    args = record_args.pop()
    for option in SURFACE[group, command]:
        value = getattr(args, option[2:].replace("-", "_"))
        assert str(value) == _option_value(option)
    if command == "replay":
        assert args.file == "artifact.json"

    with pytest.raises(SystemExit) as exc:
        run_cli(group, command, "--help")
    assert exc.value.code == 0
    capsys.readouterr()

    own = set(SURFACE[group, command]) | set(COMMON_OPTIONS)
    for option in ALL_OPTIONS:
        # an abbreviation of an own option was accepted by the old parsers too
        if option in own or any(o.startswith(option) for o in own):
            continue
        assert run_cli(*head, option, _option_value(option)) == 1
        err = capsys.readouterr().err
        assert err == f"usage error: unrecognized arguments: {option} {_option_value(option)}\n"
    assert record_args == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "replay"], "the following arguments are required: file"),
        (["verify", "replay", "a.json", "--patch", "p"], "unrecognized arguments: --patch p"),
        (["verify", "replay", "a.json", "b.json"], "unrecognized arguments: b.json"),
        (["verify", "replay", "--bogus", "a.json"], "unrecognized arguments: --bogus"),
        (["verify", "replay", "--bogus"], "the following arguments are required: file"),
        (["verify", "delone", "x"], "unrecognized arguments: x"),
        (["verify", "cover", "x", "y"], "unrecognized arguments: x y"),
        (["cps"], "the following arguments are required: command"),
        (["heis", "commensurate", "--max-translates", "x"],
         "argument --max-translates: invalid int value: 'x'"),
    ],
)
def test_cli_usage_errors_are_unchanged(argv, message, capsys):
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"


# argv -> the options it sets (the rest are None, but for the side defaults)
# or the usage error it gives; every row reads as the argparse parsers of
# earlier versions read it
HEIS_SIDES = {"side_a": "symmetrized", "side_b": "model_set"}
PARSES = [
    (["cps", "generate", "--radius=3"], {"radius": "3"}),
    (["cps", "--scheme", "zs:2", "generate"], {"scheme": "zs:2"}),
    (["cps", "--scheme=zs:2", "generate", "--scheme", "zs:3"], {"scheme": "zs:3"}),
    (["heis", "generate", "--radius", "3", "--radius", "4"], {"radius": "4", **HEIS_SIDES}),
    (["cps", "generate", "--sch", "zs:2", "--win=1"], {"scheme": "zs:2", "window": "1"}),
    (["heis", "generate", "--radius-s", "1", "--radius-l", "2"],
     {"radius_small": "1", "radius_large": "2", **HEIS_SIDES}),
    (["heis", "generate", "--rad", "3"],
     "ambiguous option: --rad could match --radius, --radius-small, --radius-large"),
    (["cps", "generate", "--radius", "-1"], {"radius": "-1"}),
    (["cps", "generate", "--radius", "-1.5"], {"radius": "-1.5"}),
    (["cps", "generate", "--window", "-1/2"], "argument --window: expected one argument"),
    (["cps", "generate", "--radius"], "argument --radius: expected one argument"),
    (["cps", "generate", "--radius", "--window", "1"], "argument --radius: expected one argument"),
    (["heis", "generate"], HEIS_SIDES),
    (["heis", "commensurate", "--max-translates", "3", "--side-a=model_set"],
     {"max_translates": 3, "side_a": "model_set", "side_b": "model_set"}),
    (["heis", "commensurate", "--max-translates", "0"], "--max-translates must be at least 1, not 0"),
    (["heis", "commensurate", "--side-b", "x"],
     "argument --side-b: invalid choice: 'x' (choose from 'model_set', 'symmetrized')"),
    (["verify", "replay", "a.json"], {"file": "a.json"}),
    (["verify", "--json", "o.json", "replay", "a.json"], {"file": "a.json", "json": "o.json"}),
    (["cps", "generate", "--bogus", "v"], "unrecognized arguments: --bogus v"),
    (["nope"], "argument group: invalid choice: 'nope' (choose from 'cps', 'heis', 'pisot', 'verify')"),
    ([], "the following arguments are required: group"),
    (["cps", "generate", "--help=x"], "argument -h/--help: ignored explicit argument 'x'"),
]


@pytest.mark.parametrize("argv, expected", PARSES)
def test_argv_parses_as_the_argparse_parsers_did(argv, expected):
    if isinstance(expected, str):
        with pytest.raises(UsageError) as exc:
            cli.parse_args(argv)
        assert str(exc.value) == expected
        return
    args = vars(cli.parse_args(argv))
    assert args["group"] == argv[0] and args["command"] in cli.COMMANDS[argv[0]]
    # every option of the group is set, to None where argv leaves it unset
    options = cli.GROUP_OPTIONS[argv[0]] + ("--out", "--json", "--config")
    assert {o[2:].replace("-", "_") for o in options} <= set(args)
    assert {k: v for k, v in args.items()
            if v is not None and k not in ("group", "command")} == expected


@pytest.mark.parametrize("argv", [["-h"], ["cps", "--help"], ["verify", "cover", "-h", "--bogus"]])
def test_help_prints_a_usage_built_from_the_tables(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.parse_args(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: meyerlab ")
    group = argv[0] if argv[0] in cli.COMMANDS else None
    names = cli.COMMANDS if group is None else cli.COMMANDS[group]
    assert "{" + ",".join(names) + "}" in out
    for option in () if group is None else cli.GROUP_OPTIONS[group]:
        assert option in out


@pytest.mark.parametrize("group", sorted({g for g, _ in SURFACE}))
def test_unknown_command_message_is_unchanged(group, capsys):
    names = [c for g, c in SURFACE if g == group]
    assert run_cli(group, "nope") == 1
    err = capsys.readouterr().err
    # older Python versions quote the choices, newer ones list them bare
    assert err in {
        f"usage error: argument command: invalid choice: 'nope' (choose from {choices})\n"
        for choices in (", ".join(map(repr, names)), ", ".join(names))
    }


def test_benchmark_traced_names_resolve():
    # bench/bootstrap.py wraps each (module, attribute) of SPANS by name; a
    # renamed function would otherwise surface only in the benchmark's self-check
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "bench" / "bootstrap.py"
    spec = importlib.util.spec_from_file_location("bench_bootstrap", path)
    bootstrap = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bootstrap)
    assert bootstrap.SPANS
    for module_name, attr, _ in bootstrap.SPANS:
        target = importlib.import_module(f"meyerlab.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (module_name, attr)

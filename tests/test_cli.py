import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from meyerlab import cli, serialize


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


def test_pisot_polycover_replay(tmp_path):
    path = tmp_path / "cover.json"
    code = run_cli("pisot", "polycover", "--ring", "pvs:golden", "--poly", "0,2",
                   "--json", str(path))
    assert code == 0
    assert run_cli("verify", "replay", str(path)) == 0


def test_pisot_enumerate(capsys):
    assert run_cli("pisot", "enumerate", "--ring", "zs:2", "--radius", "2") == 0
    out = capsys.readouterr().out
    assert "-2" in out and "2" in out


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


def test_replay_rejects_translates_off_the_lattice(tmp_path, capsys):
    json_path = tmp_path / "cert.json"
    assert run_cli("cps", "certify", "--scheme", "galois:golden", "--window", "1",
                   "--radius", "12", "--json", str(json_path)) == 0
    data = json.loads(json_path.read_text())
    dim = data["cover"]["dim_covers"][0]
    c = Fraction(dim["tile_halfwidth"])
    ts = [Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]
    dim["elements"] = [[str(t), "0"] for t in ts]
    dim["claimed"] = [[str(t - c), str(t + c)] for t in ts]
    tampered = tmp_path / "offgrid.json"
    tampered.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("verify", "replay", str(tampered)) == 2
    assert "replay FAILED" in capsys.readouterr().out


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


def _cut_assignment(cover):
    cover["assignments"][0] = cover["assignments"][0][:1]
    return "a cover assignment is a [point, index] pair, not [[["


def _wrong_kind(cover):
    expected = cover["kind"]
    cover["kind"] = "zs"
    return f"expected a {expected} cover, not 'zs'"


@pytest.mark.parametrize("tamper", [_cut_assignment, _wrong_kind])
@pytest.mark.parametrize("artifact, key", [("cover", None), ("meyer", "cover_ab"),
                                           ("meyer", "cover_ba")])
def test_replay_of_a_malformed_cover_is_usage_error(tmp_path, capsys, cover_artifacts, artifact,
                                                    key, tamper):
    data = json.loads(json.dumps(cover_artifacts[artifact]))
    message = tamper(data[key] if key else data)
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert run_cli("verify", "replay", str(path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err


def test_patch_cover_replay_checks_every_point_of_patch_a(tmp_path, capsys, cover_artifacts):
    data = cover_artifacts["cover"]
    assert len(data["assignments"]) == 53
    assert _replay_data(tmp_path, capsys, data)[0] == 0
    code, out = _replay_data(tmp_path, capsys, data | {"assignments": data["assignments"][:1]})
    assert code == 2 and "replay FAILED" in out


@pytest.mark.parametrize("key", ["patch_a", "patch_b"])
def test_patch_cover_replay_checks_the_embedded_patches(tmp_path, capsys, cover_artifacts, key):
    data = json.loads(json.dumps(cover_artifacts["cover"]))
    data[key]["points"].append([["1000", "0"]])
    code, out = _replay_data(tmp_path, capsys, data)
    assert code == 2 and "replay FAILED" in out


def test_delone_replay_checks_the_embedded_patch(tmp_path, capsys, cover_artifacts):
    data = json.loads(json.dumps(cover_artifacts["delone"]))
    data["patch"]["points"].append([["1000", "0"]])
    code, out = _replay_data(tmp_path, capsys, data)
    assert code == 2 and "replay FAILED" in out


@pytest.mark.parametrize("artifact, key", [("cover", None), ("meyer", "cover_ab")])
@pytest.mark.parametrize("index", [99, -1, True])
def test_replay_rejects_a_bad_assignment_index(tmp_path, capsys, cover_artifacts, artifact, key,
                                               index):
    data = json.loads(json.dumps(cover_artifacts[artifact]))
    cover = data[key] if key else data
    # the assignment whose translate a list lookup with `index` would alias
    n = len(cover["translates"])
    entry = next(e for e in cover["assignments"] if e[1] == int(index) % n)
    entry[1] = index
    code, out = _replay_data(tmp_path, capsys, data)
    assert code == 2 and "replay FAILED" in out


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
        (["pisot", "enumerate", "--ring", "zs:x", "--radius", "2"], "not an integer: 'x'"),
        (["verify", "replay", "{d}/point-shape.json"],
         "a galois point is one coefficient list per coordinate, not [1, 0]"),
        (["verify", "replay", "{d}/points-int.json"], "the points of a patch are a JSON list"),
        (["verify", "replay", "{d}/scheme-str.json"], "a scheme is a JSON object, not 'x'"),
        (["verify", "replay", "{d}/zs-point-float.json"], "a zs point is a rational string"),
        (["verify", "replay", "{d}/heis-point-2d.json"],
         "a heis point is one coefficient list per coordinate"),
    ],
)
def test_malformed_input_is_usage_error(tmp_path, capsys, argv, message):
    (tmp_path / "not-json.json").write_text("points: 1, 2, 3\n")
    (tmp_path / "bare-patch.json").write_text(json.dumps({"type": "patch"}))
    golden = {"type": "patch", "radius": "2", "points": [[["0", "0"]]],
              "scheme": {"kind": "galois", "field": {"min_poly": [-1, -1, 1]}, "dim": 1,
                         "physical_root_index": 1},
              "window": {"real": ["1"], "padic": []}}
    zs = {"type": "patch", "radius": "1", "points": ["0"], "scheme": {"kind": "zs", "primes": [2]},
          "window": {"real": [], "padic": [[2, 0]]}}
    heis = {"type": "heis_patch", "radius": "1", "points": [],
            "scheme": {"kind": "heis", "field": {"min_poly": [-1, -1, 1]},
                       "window": ["1", "1", "1"], "physical_root_index": 1}}
    for name, data in (("point-shape", golden | {"points": [[1, 0]]}),
                       ("points-int", golden | {"points": 5}),
                       ("scheme-str", golden | {"scheme": "x"}),
                       ("zs-point-float", zs | {"points": [0.5]}),
                       ("heis-point-2d", heis | {"points": [[["0", "0"], ["0", "0"]]]})):
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    assert run_cli(*(a.format(d=tmp_path) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and message in err
    assert "Traceback" not in err


def test_csv_is_built_only_when_written(tmp_path, monkeypatch):
    def refuse(patch):
        raise AssertionError("CSV built but not written")

    monkeypatch.setattr(serialize, "patch_to_csv", refuse)
    json_path = tmp_path / "patch.json"
    assert run_cli("cps", "generate", "--scheme", "galois:golden", "--window", "1",
                   "--radius", "6", "--json", str(json_path)) == 0
    assert run_cli("heis", "generate", "--field", "golden", "--window", "1,1,1",
                   "--radius", "3", "--json", str(json_path)) == 0
    assert run_cli("pisot", "enumerate", "--ring", "pvs:golden", "--radius", "6",
                   "--json", str(json_path)) == 0


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


# Run one CLI command, then print the meyerlab submodules left unexecuted and
# which of dataclasses, inspect and typing it loaded: every CLI job is a fresh
# process, so it pays for each import again.
CLI_MODULES_AT_EXIT = """
    import sys, types
    from meyerlab import cli
    assert cli.run(sys.argv[1:]) == 0
    executed = {n for n, m in sys.modules.items() if type(m) is types.ModuleType}
    print(sorted(n for n in sys.modules if n.startswith("meyerlab.") and n not in executed))
    print([n for n in ("dataclasses", "inspect", "typing") if n in sys.modules])
"""


def test_cps_generate_leaves_unused_submodules_unexecuted(tmp_path):
    out = _run_python(CLI_MODULES_AT_EXIT, "cps", "generate", "--scheme", "galois:golden",
                      "--window", "1", "--radius", "6", "--json", str(tmp_path / "patch.json"))
    assert out.splitlines()[-2:] == ["['meyerlab.heis', 'meyerlab.places', 'meyerlab.verify']",
                                     "[]"]


def test_heis_replay_loads_no_dataclasses_inspect_or_typing(tmp_path):
    path = tmp_path / "meyer.json"
    assert _commensurate(path) == 0
    out = _run_python(CLI_MODULES_AT_EXIT, "verify", "replay", str(path))
    assert out.splitlines()[-2:] == ["['meyerlab.places']", "[]"]


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
PISOT_OPTIONS = ("--ring", "--field", "--elements", "--radius", "--window", "--poly", "--scale")
VERIFY_OPTIONS = ("--patch", "--a", "--b", "--inner", "--spec", "--scheme", "--field", "--window",
                  "--radius", "--max-translates")
COMMON_OPTIONS = ("--out", "--json", "--config")
SURFACE = {
    **{("cps", c): CPS_OPTIONS for c in ("generate", "certify", "intersect", "project")},
    **{("heis", c): HEIS_OPTIONS for c in ("generate", "certify", "center", "hull", "commensurate")},
    **{("pisot", c): PISOT_OPTIONS for c in ("certify", "enumerate", "polycover")},
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

"""Byte-identity of CLI artifacts: each file's sha256 is pinned.

A fixed set of small jobs runs in-process through `cli.run`; every file they
write must hash to the digest recorded here.  A change to exact arithmetic,
enumeration order, set iteration or serialisation that moves one output byte
fails this test.  Refresh the table only for a deliberate format change.

The same files, plus three artifact types the jobs do not write, are the
corpus of a field fuzz of `verify replay`; the certificates that replay by
check are also fuzzed one level deeper.
"""

import copy
import hashlib
import json

import pytest

from meyerlab import cli

ELEMENTS = [["0", "0"], ["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"], ["1", "1"], ["-1", "-1"]]

# (argv with {d} for the output directory, expected exit code)
JOBS = (
    ("cps generate --scheme galois:golden --window 1 --radius 20 "
     "--json {d}/gen-golden.json --out {d}/gen-golden.csv", 0),
    ("cps generate --scheme galois:golden --window 3/4 --radius 20 --json {d}/gen-golden-b.json", 0),
    ("cps generate --scheme galois:sqrt2 --window 15/16 --radius 20 "
     "--json {d}/gen-sqrt2.json --out {d}/gen-sqrt2.csv", 0),
    ("cps generate --scheme galois:sqrt2:2 --window 1,7/8 --radius 4 "
     "--json {d}/gen-sqrt2-2d.json --out {d}/gen-sqrt2-2d.csv", 0),
    ("cps generate --scheme zs:2,3 --window 1 --radius 8 --json {d}/gen-zs.json --out {d}/gen-zs.csv", 0),
    ("cps certify --scheme galois:golden --window 1 --radius 10 --json {d}/cert.json", 0),
    ("cps intersect --scheme galois:golden:2 --window 1,1 --radius 6 --axes 0 --json {d}/intersect.json", 0),
    ("cps project --scheme galois:sqrt2:2 --window 1,1 --radius 6 --axes 1 --json {d}/project.json", 0),
    ("heis generate --field sqrt2 --window 1,1,2 --radius 3 --json {d}/heis-gen.json --out {d}/heis-gen.csv", 0),
    ("heis generate --field golden --window 1,9/8,2 --radius 4 --json {d}/heis-gen-golden.json", 0),
    ("heis certify --field sqrt2 --window 1,1,2 --json {d}/heis-cert.json", 0),
    ("heis certify --field golden --window 7/8,9/8,2 --json {d}/heis-cert-golden.json", 0),
    ("heis center --field sqrt2 --window 1,1,2 --radius 6 --json {d}/heis-center.json", 0),
    ("heis center --field golden --window 1,9/8,2 --radius 8 --json {d}/heis-center-golden.json", 0),
    ("heis hull --field sqrt2 --window 1,1,1 --radius-small 1 --radius-large 2 --json {d}/heis-hull.json", 0),
    ("heis commensurate --field sqrt2 --window 1,1,2 --radius 4 --json {d}/heis-meyer.json", 0),
    ("pisot certify --ring pvs:golden --elements {d}/elements.json --json {d}/pisot.json", 0),
    ("pisot polycover --ring pvs:sqrt2 --poly 0,1,1 --json {d}/polycover.json", 0),
    ("verify delone --patch {d}/gen-golden.json --inner 10 --json {d}/delone.json", 0),
    ("verify cover --a {d}/gen-golden.json --b {d}/gen-golden-b.json --json {d}/cover.json", 0),
    # each scheme's point format through the CSV and JSON patch readers
    ("heis generate --field sqrt2 --window 1,1,2 --radius 2 --out {d}/heis-gen-r2.csv", 0),
    ("verify cover --a {d}/heis-gen-r2.csv --b {d}/heis-gen.json --field sqrt2 --window 1,1,2 "
     "--radius 2 --json {d}/cover-heis.json", 0),
    ("cps generate --scheme zs:2,3 --window 0 --radius 8 --json {d}/gen-zs-b.json", 0),
    ("verify cover --a {d}/gen-zs.json --b {d}/gen-zs-b.json --json {d}/cover-zs.json", 0),
    ("verify delone --patch {d}/gen-zs.csv --scheme zs:2,3 --window 1 --radius 8 "
     "--json {d}/delone-zs.json", 0),
    ("verify delone --patch {d}/gen-sqrt2-2d.csv --scheme galois:sqrt2:2 --window 1,7/8 "
     "--radius 4 --inner 2 --json {d}/delone-sqrt2-2d.json", 0),
    # the 3-D metric path: a Heisenberg Delone report and a golden hull search
    ("heis generate --field sqrt2 --window 1,1,2 --radius 2 --json {d}/heis-gen-r2.json", 0),
    ("verify delone --patch {d}/heis-gen-r2.json --inner 1/2 --json {d}/delone-heis.json", 2),
    ("heis hull --field golden --window 9/8,7/8,2 --radius-small 3/2 --radius-large 3 "
     "--json {d}/heis-hull-golden.json", 0),
)

DIGESTS = {
    "cert.json": "0329f9477e0fd155027beaa2232f7ddd65c6f60fc36764526f4f80f659706358",
    "cover-heis.json": "ce2fb0b3501ae7a4cfbfdb7a15e6857fc929b96c4b15da29b45f4048b08c001d",
    "cover-zs.json": "12a867df49abab0688eecec8ef49e1f4cb533ba27f0df858616b53989f518c1d",
    "cover.json": "cbbd23ace92b5227b5325358350ec67376ef143eb80f048911aa45e008a9e653",
    "delone-heis.json": "f1051779c903b1b1a44496f637a857cb55ce484a19ec75b40b2b8900eb463af0",
    "delone-sqrt2-2d.json": "abea0c4e1f4123a68d849547dfb40730c1c86a9715835b87773f89c83c70dd10",
    "delone-zs.json": "7ba319e5ae2855c962110c0a239ad39d1440212c555eb708a3db7c18fb18ff72",
    "delone.json": "a0e54509c060a75764174e76c45d80f645febbd0646b2dde556b3aef4c5c2dbc",
    "gen-golden-b.json": "6acdff03cd1c1c82e4023cb5e87b272dd2b0eeeeb862318eacd6fac7b9360f42",
    "gen-golden.csv": "14bdd7808f400ce11e011581a5e3148d37842e3e4d709a2356154e4e457b748c",
    "gen-golden.json": "e5228ab099ee54f8a2c0fb61b38c9287bf13cdde3a9d36629db63807ba667f12",
    "gen-sqrt2-2d.csv": "15bf5c7c672c3e4a15a6c7ec152bc1ec869dfbed33ceba9bdcab93b58d62c19c",
    "gen-sqrt2-2d.json": "dce8476d50f7e68b7726935ebeda20000c31f3b0ae85e5c2b0702dd0c5c53e52",
    "gen-sqrt2.csv": "ae3873c6bef8ffc870b7cb80abadfc32335579d7529b4861daac85c1fedd8b7d",
    "gen-sqrt2.json": "146d1c235929b7ac10fd80b9ff4385116d00873877ba0bb1d49fdf113d7c55ac",
    "gen-zs-b.json": "f5d521f205415d4880f14cfed97fc3a9372a41c37a7ea98204f2bb3699ac7be3",
    "gen-zs.csv": "d0d689f9236a57522a2b1ea1bb1ba84e51f532090e3512d205df4e937f4f0678",
    "gen-zs.json": "ba794bd97f51508fdd0f927bac502da57bf98623f4c35097799682fc4eb45590",
    "heis-center-golden.json": "f1e2d262c2b87673edf02481bcf3e96b3c7adc62cf5f000e0da3786242cb8cf4",
    "heis-center.json": "7a10f63da448bd5aa831075ad8eabc08d5fe38e6532023d33894d72fc06dfc77",
    "heis-cert-golden.json": "04733e8c74b47cbfb14d8e38ca88e97466c15085f9c5c0d33c8e1f65857f2fc9",
    "heis-cert.json": "8872e08485e263a8e945e2c6d8ddd637f8b5a063b4a01dccb879b5d46b269487",
    "heis-gen-golden.json": "aeea5c6f705ccf2daf44892561b6f3d222a907513cfef811644a1526e2844b67",
    "heis-gen-r2.csv": "7a29a193d9adf377c720d6fb6215d73f6d6132dd154ad19ffc09a5eda3637ed2",
    "heis-gen-r2.json": "e122b7eb6f6b653befa7b92f208292e805f197d281a1713bcd7563b39c90e1ef",
    "heis-gen.csv": "419602b9a71863149631b66511fea1a9403b9a659854b222b12022dbb79e2fe3",
    "heis-gen.json": "a01d65117caad953da936bf74f77e70dc46ddbfa5787e39ff3562110db7882a7",
    "heis-hull-golden.json": "2c2eed579676e99425ceca6a4677704f502206192a787ede2e80e04617ccf779",
    "heis-hull.json": "0e570465b1db28127f2a945ffe38958a2b4de693b63d40ca4043c28fad0b92d9",
    "heis-meyer.json": "dacb4029f9e9955cc8a35cf45ff0d1828d895d55a407850666b058e012009c86",
    "intersect.json": "32c70482b429ebd48714a2dd6145a0436bca1fa83cd0ab5bd47bb7886f81ac55",
    "pisot.json": "f84a9b13aa4ed3cd7e2465d24845b6e926e0cdc100bc4ae3f1a87831e30d6f9e",
    "polycover.json": "53557b8ebd025caced315359f2ac61ced41f26e7d4cfe16ca9b684e78a7f3ed7",
    "project.json": "834ae71ea9864b92c2442a56915b1e1b958cbae946cff163a7105a7423cfdf53",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_jobs(out_dir) -> dict:
    (out_dir / "elements.json").write_text(json.dumps({"elements": ELEMENTS}))
    for argv, expect in JOBS:
        assert cli.run(argv.format(d=out_dir).split()) == expect, argv
    return {p.name: _sha256(p) for p in sorted(out_dir.iterdir()) if p.name != "elements.json"}


def test_artifacts_match_recorded_digests(tmp_path, capsys):
    got = run_jobs(tmp_path)
    capsys.readouterr()
    assert sorted(got) == sorted(DIGESTS)
    changed = [name for name in DIGESTS if got[name] != DIGESTS[name]]
    assert changed == []


# ---------------------------------------------------------------------------
# Field fuzz of the replay boundary: malformed fields give exit 1 or 2, never
# a Python exception.
# ---------------------------------------------------------------------------

# artifact types the digest jobs do not write
FUZZ_JOBS = (
    ("verify cellcover --spec {d}/cellcover-spec.json --json {d}/cellcover.json", 0),
    ("pisot certify --ring zs:2 --elements {d}/rational-elements.json --json {d}/rejection.json", 2),
    ("cps certify --scheme zs:2,3 --window 1 --radius 5 --json {d}/cert-zs.json", 0),
)
FUZZ_CORPUS = sorted(name for name in DIGESTS if name.endswith(".json")) + [
    "cellcover.json", "rejection.json", "cert-zs.json"]
FUZZ_VALUES = (5, "x", None, [], {}, True)


@pytest.fixture(scope="module")
def fuzz_corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    run_jobs(d)
    (d / "cellcover-spec.json").write_text(json.dumps(
        {"x": ["0", "1", "2", "3"], "coverings": [[["0", "2"], ["0", "1"]], [["0"], ["0", "1", "2", "3"]]]}))
    (d / "rational-elements.json").write_text(json.dumps({"elements": ["0", "1/3", "-1/3", "1", "-1"]}))
    for argv, expect in FUZZ_JOBS:
        assert cli.run(argv.format(d=d).split()) == expect, argv
    return d


def _field_paths(data):
    """Every top-level key, and every key of a top-level object."""
    for key in sorted(data):
        yield (key,)
        if type(data[key]) is dict:
            yield from ((key, sub) for sub in sorted(data[key]))


def _replay_mutations(data, fields, values, path) -> list:
    """Replay `data` with each field set to each value; the exceptions raised."""
    raised = []
    for field in fields:
        for value in values:
            mutated = copy.deepcopy(data)
            parent = mutated
            for step in field[:-1]:
                parent = parent[step]
            parent[field[-1]] = value
            path.write_text(json.dumps(mutated))
            try:
                code = cli.run(["verify", "replay", str(path)])
            except Exception as exc:
                raised.append(f"{'.'.join(map(str, field))} = {value!r}: {exc!r}")
                continue
            assert code in (0, 1, 2), (field, value)
    return raised


@pytest.mark.parametrize("name", FUZZ_CORPUS)
def test_replay_of_a_mutated_field_never_raises(fuzz_corpus, tmp_path, capsys, name):
    data = json.loads((fuzz_corpus / name).read_text())
    raised = _replay_mutations(data, _field_paths(data), FUZZ_VALUES, tmp_path / name)
    capsys.readouterr()
    assert raised == []


# certificates that replay by check, fuzzed one level further down
DEEP_FUZZ_CORPUS = ("cert.json", "cert-zs.json", "heis-cert.json", "polycover.json", "cover.json")
DEEP_FUZZ_VALUES = FUZZ_VALUES + (1.5, "1/0")


def _deep_field_paths(node, path=()):
    """The first and last entry of every list, and every key at the third level."""
    if type(node) is list and node:
        for i in sorted({0, len(node) - 1}):
            yield path + (i,)
            yield from _deep_field_paths(node[i], path + (i,))
    elif type(node) is dict:
        for key in sorted(node):
            if len(path) == 2:
                yield path + (key,)
            yield from _deep_field_paths(node[key], path + (key,))


@pytest.mark.parametrize("name", DEEP_FUZZ_CORPUS)
def test_replay_of_a_mutated_deep_field_never_raises(fuzz_corpus, tmp_path, capsys, name):
    data = json.loads((fuzz_corpus / name).read_text())
    raised = _replay_mutations(data, _deep_field_paths(data), DEEP_FUZZ_VALUES, tmp_path / name)
    capsys.readouterr()
    assert raised == []

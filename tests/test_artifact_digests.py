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
import re

import pytest

from meyerlab import cli, serialize

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
    # the 3-D metric path: a Heisenberg Delone report and a golden hull
    ("heis generate --field sqrt2 --window 1,1,2 --radius 2 --json {d}/heis-gen-r2.json", 0),
    ("verify delone --patch {d}/heis-gen-r2.json --inner 1/2 --json {d}/delone-heis.json", 2),
    ("heis hull --field golden --window 9/8,7/8,2 --radius-small 3/2 --radius-large 3 "
     "--json {d}/heis-hull-golden.json", 0),
)

DIGESTS = {
    "cert.json": "12f5dc8f3f922ab70af67743cdde81ed8c14e579b98ed2d2f021403624df66bb",
    "cover-heis.json": "3d79431fee76e146ff77bfa3e5f2a464c33ca2242493835d0042fca9001d9b34",
    "cover-zs.json": "f1eae03dfe553b4ac7b04af8490b69528943fa5fc42c19c4c8db8783fa7fc0db",
    "cover.json": "5c76e4b13c130fe69798982697870113d3a4ca880168a69fe516b0d254491e62",
    "delone-heis.json": "3a334070fda4c86769280a42a77874578acc95fdb81e5fe51bae3857b8c5e6c2",
    "delone-sqrt2-2d.json": "032a58c1e12b352b6f708e715a2d9527d20743263edc110a4bd89795dd5f1a10",
    "delone-zs.json": "f837f1bcaf6ab3979883177ea810f09ab6a5afc4b773a0807e838aeefd6adb78",
    "delone.json": "d3ca5a4296552b7b965bd9c7f4010e0109e21c1c11c9b633184eec627d00b0de",
    "gen-golden-b.json": "ed9aa02590b4ca0aa5398b024bb6e67dd4edc9706abab0c195bafaeb6e440b42",
    "gen-golden.csv": "14bdd7808f400ce11e011581a5e3148d37842e3e4d709a2356154e4e457b748c",
    "gen-golden.json": "691ef3e6eb160034bb29871db66d69aefc08404f43994009784b1abb0e91985c",
    "gen-sqrt2-2d.csv": "15bf5c7c672c3e4a15a6c7ec152bc1ec869dfbed33ceba9bdcab93b58d62c19c",
    "gen-sqrt2-2d.json": "068477611631dc334bcb9813f391b2e25032cc69db6521b63a58bc324f104707",
    "gen-sqrt2.csv": "ae3873c6bef8ffc870b7cb80abadfc32335579d7529b4861daac85c1fedd8b7d",
    "gen-sqrt2.json": "f6e801fd17bb420937f7edebedf3e3f7ad881a6a35fb356a289e882d3ca91e69",
    "gen-zs-b.json": "289bf0eeb66625a7d68eb15784ddc4d38e9b140fee9033b84fdf4ba486f3e170",
    "gen-zs.csv": "d0d689f9236a57522a2b1ea1bb1ba84e51f532090e3512d205df4e937f4f0678",
    "gen-zs.json": "955d55881da3d77106a01a62fa8511542c92ea23f2db3e24859268df16ffda66",
    "heis-center-golden.json": "b3159658e427199ad74927b1068680a120bf600631670368033d1e39c1788bed",
    "heis-center.json": "0ea5dacf38046fc92610c50a0f6da31581175fe0308861b21f0d1fa70c4b6e5a",
    "heis-cert-golden.json": "2942e02566d3c629e55d08c5c0de86b4810a2c43c0196db956a1ccaec29b859b",
    "heis-cert.json": "41639fe53d4baa5ca8d5ad21331463a6f92122b144a1633b951a4b80803b5ed5",
    "heis-gen-golden.json": "4338086516da1be54022a1a5867b6361713a9644521bbdae1d2676cbfc1d5f92",
    "heis-gen-r2.csv": "7a29a193d9adf377c720d6fb6215d73f6d6132dd154ad19ffc09a5eda3637ed2",
    "heis-gen-r2.json": "bc2b117f53cb5ce99c7f23625fae3161ffb82ce7ff4a8b5bc640d85d7c96c3a6",
    "heis-gen.csv": "419602b9a71863149631b66511fea1a9403b9a659854b222b12022dbb79e2fe3",
    "heis-gen.json": "6d39092f96bcea2aaa04138f768cd4662ba8b9c1be5674399f7b4d540cd62c4a",
    "heis-hull-golden.json": "28d697973c6d5e3f43f36823fc0307da7da67641c3e2391bf969cf1e04a94c3b",
    "heis-hull.json": "e914f51a95712ceed08fc693f17071afb8010d40c78a5efc5de6dc58f8eb894f",
    "heis-meyer.json": "239c0be564fd980d21162039d5cc5eb41ba3d2686209cb8eae0baf6c9059aaeb",
    "intersect.json": "d35699534a228c409a0dbcd5df285118e99bc5598dc0381a971a7210ce45f752",
    "pisot.json": "43be2d37e8de1d41924eacbceded778d1dd1382e66f80c06159e9c49b59cac5d",
    "polycover.json": "867ce21ca5a5904401b446d518795e36fef1b9b3b64d8d32948df190c87657b2",
    "project.json": "dd92a76426671cc52d1dd59dd67ce1768b4807a116ae06dc1dc079bfda81dd46",
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


# A key that no writer writes, added to a file: it claims what replay never
# checked, so no file with it replays ok.
ADDED_KEY = "certifies_the_whole_model_set"


def _objects_one_level_down(data):
    """The path of each object that is a top-level value, or the first or last
    entry of a top-level list."""
    for key in sorted(data):
        value = data[key]
        if type(value) is dict:
            yield (key,)
        elif type(value) is list and value:
            yield from ((key, i) for i in sorted({0, len(value) - 1}) if type(value[i]) is dict)


@pytest.mark.parametrize("name, level", [(name, 0) for name in FUZZ_CORPUS] + [
    (name, 1) for name in DEEP_FUZZ_CORPUS + ("heis-meyer.json",)])
def test_a_file_with_an_added_key_never_replays_ok(fuzz_corpus, tmp_path, capsys, name, level):
    data = json.loads((fuzz_corpus / name).read_text())
    paths = [()] if level == 0 else list(_objects_one_level_down(data))
    assert paths
    for path in paths:
        mutated = copy.deepcopy(data)
        target = mutated
        for step in path:
            target = target[step]
        target[ADDED_KEY] = True
        (tmp_path / name).write_text(json.dumps(mutated))
        capsys.readouterr()
        code = cli.run(["verify", "replay", str(tmp_path / name)])
        out = capsys.readouterr().out
        assert code != 0, path
        # a checked file names the key; a rebuilt one differs from its rebuild as a whole
        assert code == 1 or ADDED_KEY in out or "rebuilt from its inputs differs" in out, out


# ---------------------------------------------------------------------------
# Layout: a file is one canonical line, and a file in the indented layout of
# earlier versions replays as its canonical original does.
# ---------------------------------------------------------------------------

JSON_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def test_canonical_json_is_one_compact_ascii_line():
    text = serialize.canonical_json({"b": "a b\n", "a": [1, {"c": "\u00e9"}], "d": None})
    assert text == '{"a":[1,{"c":"\\u00e9"}],"b":"a b\\n","d":null}\n'


@pytest.mark.parametrize("name", FUZZ_CORPUS)
def test_an_indented_file_replays_as_its_canonical_original(fuzz_corpus, tmp_path, capsys, name):
    original = fuzz_corpus / name
    text = original.read_text()
    # no whitespace outside strings, and exactly one newline, at the end
    assert text.isascii() and text.endswith("\n") and not text.endswith("\n\n")
    assert not any(c.isspace() for c in JSON_STRING.sub('""', text[:-1]))
    indented = tmp_path / name
    indented.write_text(json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n")
    verdicts = []
    for path in (original, indented):
        capsys.readouterr()
        code = cli.run(["verify", "replay", str(path)])
        verdicts.append((code, capsys.readouterr().out))
    # a rebuilt verdict counts the bytes of the rebuild, not of the file, so the lines match whole
    assert verdicts[0] == verdicts[1]

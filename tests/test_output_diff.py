"""The parent-against-change output comparison, on three inputs, a curve and the figures."""

import hashlib
import json
import os

import output_diff

_ARGVS = [
    ["verify", "--json", "--two", "--m1", "1", "--m2", "0", "--atop", "1", "--btop", "1",
     "--alpha", "0.5", "-N", "2000"],
    ["exact", "--one", "-A", "2", "--alpha", "-0.5", "--nmax", "2"],
    ["verify", "--one", "-m", "1", "--atop", "1"],
]


def test_record_and_diff_three_inputs(capsys):
    runs = [output_diff.record(argv) for argv in _ARGVS]
    assert [r["rc"] for r in runs] == [0, 0, 2]
    assert "required" in runs[2]["stderr"]
    same = output_diff.diff_lines({"smoke": runs}, {"smoke": json.loads(json.dumps(runs))})
    assert same == ["smoke: 3 inputs"]

    changed = json.loads(json.dumps(runs))
    payload = json.loads(changed[0]["stdout"])
    payload["residual_psi0"] *= 4.0
    payload["pass"] = False
    changed[0]["stdout"] = json.dumps(payload) + "\n"
    changed[1]["stdout"] = changed[1]["stdout"].replace("E0=", "E_0=")
    assert output_diff.diff_lines({"smoke": runs}, {"smoke": changed}) == [
        "smoke: 3 inputs",
        "  stdout: 2 differ, max rel text",
        "  json.pass: 1 differ, max rel text",
        "  json.residual_psi0: 1 differ, max rel 0.75",
    ]


_CURVE = ["sample", "--one", "-m", "1", "--atop", "1", "--alpha", "-0.5", "--npoints", "11",
          "--out", "curve.csv"]


def test_curve_is_recorded_by_its_hash(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run = output_diff.record(_CURVE)
    assert (run["rc"], run["stdout"]) == (0, "wrote curve.csv (11 rows)\n")
    assert os.listdir(tmp_path) == []
    # run here, the same call leaves the file whose hash was recorded
    assert output_diff._record(_CURVE)["rc"] == 0
    assert run["sha256"] == {"curve.csv": _sha256(tmp_path / "curve.csv")}

    same = json.loads(json.dumps(run))
    assert output_diff.diff_lines({"curves": [run]}, {"curves": [same]}) == ["curves: 1 inputs"]
    changed = dict(run, sha256={"curve.csv": hashlib.sha256(b"").hexdigest()})
    assert output_diff.diff_lines({"curves": [run]}, {"curves": [changed]}) == [
        "curves: 1 inputs",
        "  sha256: 1 differ, max rel text",
    ]
    # psi underflows at alpha = -0.999: a precision limit, and no file
    failed = output_diff.record([*_CURVE[:7], "-0.999", *_CURVE[8:]])
    assert failed["rc"] == 1 and failed["sha256"] == {}


def test_every_file_of_figures_is_recorded(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["figures", "--npoints", "11", "--outdir", "out"]
    run = output_diff.record(argv)
    assert run["rc"] == 0
    assert os.listdir(tmp_path) == []
    assert output_diff._record(argv)["rc"] == 0
    names = [f"fig{i}.csv" for i in range(1, 7)]
    assert run["sha256"] == {
        os.path.join("out", name): _sha256(tmp_path / "out" / name) for name in names
    }

    changed = dict(run, sha256=dict(run["sha256"]))
    del changed["sha256"][os.path.join("out", "fig6.csv")]
    assert output_diff.diff_lines({"curves": [run]}, {"curves": [changed]}) == [
        "curves: 1 inputs",
        "  sha256: 1 differ, max rel text",
    ]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_census_outcomes_are_classified():
    passed = output_diff.record(_ARGVS[0])
    assert output_diff.classify(passed) == "pass"
    payload = dict(json.loads(passed["stdout"]), residual_psi1=2e-7)
    failed = dict(passed, rc=1, stdout=json.dumps(payload))
    assert output_diff.classify(failed) == "residual verdict"
    refused = dict(passed, rc=1, stdout="", stderr="error: oracle cannot resolve: ...\n")
    assert output_diff.classify(refused) == "oracle refused"


def test_input_sets_follow_their_documented_draws():
    sets = output_diff.input_sets()
    assert len(sets["pool"]) == 912
    census = sets["census"]
    assert len(census) == 180
    assert [argv[4:7:2] for argv in census[::60]] == [["2", "2"], ["3", "3"], ["4", "1"]]
    assert [argv[-4:] for argv in sets["curves"][:3]] == [
        ["--npoints", "100001", "--out", "curve.csv"]
    ] * 3
    assert sets["curves"][3] == ["figures", "--json", "--npoints", "100001"]

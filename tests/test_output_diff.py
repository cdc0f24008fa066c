"""The parent-against-change output comparison, on three inputs, a curve, the
figures and three `extend` builds."""

import hashlib
import json
import os

import pytest

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
    residual = payload["residual_psi0"]
    payload["residual_psi0"] *= 4.0
    payload["pass"] = False
    changed[0]["stdout"] = json.dumps(payload) + "\n"
    changed[1]["stdout"] = changed[1]["stdout"].replace("E0=", "E_0=")
    assert output_diff.diff_lines({"smoke": runs}, {"smoke": changed}) == [
        "smoke: 3 inputs",
        "  stdout: 2 differ, max rel text",
        "  json.pass: 1 differ, max rel text",
        f"  json.residual_psi0: 1 differ, max rel 0.75, max abs {3.0 * residual:.3g}",
    ]


def test_diff_counts_inputs_and_reports_the_widest_moves():
    # two of three relative errors move: the count is 2, the largest
    # relative move is the second's 1/3 and the largest absolute move, how
    # far the measured value moved relative to its reference, the first's
    # 2e-14; numbers inside a text line compare the same way
    def run(errors, line):
        return [{"argv": [str(i)], "rc": 0, "stdout": json.dumps({"spectral_rel_err0": err}),
                 "stderr": line, "sha256": {}} for i, err in enumerate(errors)]

    parent = run([1e-8, 3e-14, 5e-9], "took 2.0 ms")
    change = run([1e-8 + 2e-14, 2e-14, 5e-9], "took 2.5 ms")
    assert output_diff.compare(parent, change)["json.spectral_rel_err0"] == (
        2, pytest.approx(1.0 / 3.0), pytest.approx(2e-14, rel=1e-6))
    assert output_diff.diff_lines({"pool": parent}, {"pool": change}) == [
        "pool: 3 inputs",
        "  stdout: 2 differ, max rel 0.333, max abs 2e-14",
        "  stderr: 3 differ, max rel 0.2, max abs 0.5",
        "  json.spectral_rel_err0: 2 differ, max rel 0.333, max abs 2e-14",
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


def test_outcome_keeps_classes_not_digits():
    passed = output_diff.outcome(output_diff.record(_ARGVS[0]))
    assert passed == {"rc": 0, "checks": dict.fromkeys(
        ["spectral level0", "spectral level1", "residual psi0", "residual psi1", "nodes",
         "orthogonality", "hermiticity psi0", "hermiticity psi1"], "PASS"), "nodes": [0, 1]}
    assert output_diff.outcome(output_diff.record(_ARGVS[2])) == {
        "rc": 2, "error": "pdmtpt verify: error: the following arguments are required: --alpha"}
    refused = {"argv": ["verify"], "rc": 1, "stdout": "",
               "stderr": "error: oracle cannot resolve: the N=2000 grid is not certified\n"}
    assert output_diff.outcome(refused) == {
        "rc": 1, "error": "error: oracle cannot resolve: the N=# grid is not certified"}
    underflow = dict(refused, stderr="error: the squared norm of psi1 is 1.5e-320\n")
    assert output_diff.outcome(underflow)["error"] == "error: the squared norm of psi1 is #"
    # a verdict whose checks all pass disagrees with its rc
    record = output_diff.record(_ARGVS[0])
    with pytest.raises(ValueError, match="disagree"):
        output_diff.outcome(dict(record, rc=1))


_OUTCOMES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "outcomes.json")


def test_census_defects_and_extend_keep_their_recorded_outcomes():
    # a change that moves a class regenerates the record (`dump`, then
    # `outcomes`) and names the inputs it moved
    with open(_OUTCOMES, encoding="utf-8") as fh:
        recorded = json.load(fh)
    sets = output_diff.input_sets()
    fresh = output_diff.outcome_record(
        {name: [output_diff.record(argv) for argv in sets[name]] for name in recorded})
    assert {name: len(rows) for name, rows in fresh.items()} == {
        "census": 180, "defects": 12, "extend": 281}
    assert {name: len(rows) for name, rows in recorded.items()} == {
        name: len(rows) for name, rows in fresh.items()}
    moved = [(name, sets[name][i], was, now) for name in recorded
             for i, (was, now) in enumerate(zip(recorded[name], fresh[name])) if was != now]
    assert moved == []


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
    extend = sets["extend"]
    assert len(extend) == 16 * 3 + 15 * 15 - 1 + 4 + 5
    assert all(argv[:3] == ["extend", "--check", "--json"] for argv in extend)
    assert [argv[5] for argv in extend[:48:3]] == [str(m) for m in range(1, 17)]
    assert [(int(argv[5]), int(argv[7])) for argv in extend[48:272]] == [
        (m1, m2) for m1 in range(15) for m2 in range(15) if m1 or m2
    ]
    assert extend[272:276][-1][3:6] == ["--one", "-m", "12"]
    assert [argv[4:8] for argv in extend[-5:]] == [
        ["-m", "150", "--atop", "1"], ["-m", "1000", "--atop", "1"],
        ["-m", "1001", "--atop", "1"], ["--m1", "1000", "--m2", "1000"],
        ["--m1", "1001", "--m2", "0"],
    ]


def test_extend_builds_and_depth_probes_are_recorded():
    extend = output_diff.input_sets()["extend"]
    runs = [output_diff.record(argv) for argv in (extend[0], extend[-4], extend[-3])]
    assert [r["rc"] for r in runs] == [0, 1, 1]
    assert json.loads(runs[0]["stdout"])["family"] == "extended-one"
    assert runs[1]["stderr"] == (
        "error: precision limit: a float value overflows double precision\n"
    )
    assert runs[2]["stderr"] == "error: m must be at most 1000, got 1001\n"
    same = json.loads(json.dumps(runs))
    assert output_diff.diff_lines({"extend": runs}, {"extend": same}) == ["extend: 3 inputs"]


def test_diff_exit_code_gates_a_bit_identical_change(tmp_path, capsys):
    runs = {"smoke": [output_diff.record(argv) for argv in _ARGVS[1:]]}
    parent, same, changed = (tmp_path / f"{name}.json" for name in ("parent", "same", "changed"))
    for path in (parent, same):
        path.write_text(json.dumps(runs), encoding="utf-8")
    assert output_diff.main(["diff", str(parent), str(same)]) == 0
    assert capsys.readouterr().out == "smoke: 2 inputs\n"

    runs["smoke"][0]["stdout"] = runs["smoke"][0]["stdout"].replace("E0=", "E_0=")
    changed.write_text(json.dumps(runs), encoding="utf-8")
    assert output_diff.main(["diff", str(parent), str(changed)]) == 1
    assert capsys.readouterr().out == "smoke: 2 inputs\n  stdout: 1 differ, max rel text\n"

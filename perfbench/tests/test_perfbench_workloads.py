import json
import os
import subprocess
import sys

import pytest

import ops
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def argvs(workload, seed, n=300):
    gen = workloads.Generator(workload, seed, "out")
    return [gen.argv(i) for i in range(n)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fully_determines_argv(workload):
    assert argvs(workload, 7) == argvs(workload, 7)
    assert argvs(workload, 7) != argvs(workload, 8)


def test_argv_is_the_same_in_a_fresh_process():
    code = (
        "import json, workloads; "
        "print(json.dumps([workloads.Generator(w, 5, 'out').argv(i) "
        "for w in workloads.WORKLOADS for i in range(100)]))"
    )
    env = dict(os.environ, PYTHONHASHSEED="123")
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout
    here = [workloads.Generator(w, 5, "out").argv(i) for w in workloads.WORKLOADS for i in range(100)]
    assert json.loads(out) == here


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_argv_parses(workload):
    from pdmtpt import cli

    parser = cli.build_parser()
    extra = workloads.warmup_ops(workload) + workloads.census(workload, 3)
    for argv in argvs(workload, 3, 400) + [list(a) for a in extra]:
        parser.parse_args(argv)


def test_fixed_slices_lead_every_run():
    for workload in workloads.WORKLOADS:
        fixed = workloads.fixed_slice(workload)
        assert [tuple(a) for a in argvs(workload, 1, len(fixed))] == list(fixed)
    assert len(workloads.fixed_slice("verify_mix")) == 3 * len(workloads.REF_GRIDS)


def test_ladder_draws_cover_their_box_evenly():
    draws = argvs("build_ladder", 11, 2000)
    ms = [int(a[a.index("-m") + 1]) for a in draws if "--one" in a]
    top = workloads.LADDER_ONE_TOP
    assert set(ms) == set(range(1, top + 1))
    counts = [ms.count(m) for m in range(1, top + 1)]
    assert max(counts) - min(counts) <= 3
    alphas = [float(a[a.index("--alpha") + 1]) for a in draws]
    assert min(alphas) >= -0.8 and max(alphas) <= 0.8


def test_timed_workloads_leave_the_defects_to_the_census():
    defects = set(workloads.DEFECT_VERIFY + workloads.DEFECT_EXTEND)
    for workload in workloads.WORKLOADS:
        assert not defects & {tuple(a) for a in argvs(workload, 4, 400)}
        assert defects & set(workloads.census(workload, 4))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_census_is_fixed_by_the_seed(workload):
    assert workloads.census(workload, 3) == workloads.census(workload, 3)
    assert workloads.census(workload, 3) != workloads.census(workload, 4)


def test_census_covers_the_full_box():
    extend = workloads.census("build_ladder", 2)
    ms = {int(a[a.index("-m") + 1]) for a in extend if "--one" in a and "inf" not in a}
    assert set(range(1, 17)) <= ms
    verify = workloads.census("verify_mix", 2)
    pairs = {(a[a.index("--m1") + 1], a[a.index("--m2") + 1]) for a in verify if "--two" in a}
    assert ("3", "3") in pairs


def test_pool_is_a_subsequence_of_its_candidates():
    import make_pool

    with open(workloads.POOL_PATH) as fh:
        doc = json.load(fh)
    assert doc["pool_seed"] == make_pool.POOL_SEED
    assert sum(doc["outcomes"].values()) == doc["candidates"] == make_pool.POOL_CANDIDATES
    assert doc["outcomes"]["ok"] == len(doc["argv"])
    pool = iter(make_pool.candidates())
    assert all(tuple(a) in pool for a in doc["argv"])


def test_verify_mix_cycles_a_seeded_order_of_the_pool():
    pool = set(workloads.load_pool())
    fixed = len(workloads.fixed_slice("verify_mix"))
    draws = [tuple(a) for a in argvs("verify_mix", 9, fixed + len(pool))[fixed:]]
    assert set(draws) == pool


def test_never_runs_the_oom_sample():
    for workload in workloads.WORKLOADS:
        for argv in argvs(workload, 2, 400):
            if argv[0] == "sample":
                assert int(argv[argv.index("--npoints") + 1]) == workloads.SAMPLE_POINTS


def test_exact_energies_match_the_documented_example():
    argv = ["exact", "--one", "-A", "2", "--alpha", "-0.5", "--nmax", "2"]
    want = [3.6861406616345072, 7.5584219849035215, 12.430703308172536]
    assert ops.exact_energies(argv) == pytest.approx(want, rel=1e-14)


def test_classification():
    assert ops.classify(["extend"], 0, 0.1, "{}", "").kind == "ok"
    assert ops.classify(["extend"], 1, 0.1, "", "error: bad\n").kind == "typed"
    tb = "Traceback (most recent call last):\n  ...\nZeroDivisionError: x\n"
    assert ops.classify(["verify"], 1, 0.1, "", tb).kind == "uncaught"
    assert ops.classify(["verify"], 1, 0.1, '{"pass": false}', "").kind == "verdict"
    bad = ops.classify(["extend"], 2, 0.1, "", "usage: ...\nerror: x\n")
    assert bad.kind == "bad" and not bad.correct


def test_benchmark_json_matches_the_reported_metrics():
    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])

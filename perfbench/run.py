"""pdmtpt benchmark.

    python3 perfbench/run.py --workload {verify_mix,build_ladder,cli_cold}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ./src.  Each
workload runs in a fresh worker process (worker.py); `--trace 0` prints the
end-to-end metrics, `--trace 1` the per-layer metrics of a separate traced
run.  Human-readable lines come first; the last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}.  A fuller
result, with the run context, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from importlib import metadata
from time import perf_counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Set-up is measured this many times per run (probes plus the measured
# worker) and reported as the median.
SETUP_SAMPLES = 3
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# Cold import baseline from ROADMAP (2026-10-17, Python 3.11.7, numpy 2.4.6,
# scipy 1.17.1, best of 5), for the comparison printed with import.*_ms.
ROADMAP_IMPORT_MS = {
    "python": 45.0,
    "numpy": 205.0,
    "scipy_linalg": 465.0,
    "scipy_integrate": 718.0,
    "pdmtpt": 770.0,
}

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("oracle_rel_err_max", "relative"),
    ("dual_path_rel_max", "relative"),
)

PER_LAYER = (
    *((f"cli.{c}.wall_p50_ms", "ms") for c in ("exact", "extend", "verify", "sample")),
    ("cli.self_ms_per_op", "ms/op"),
    ("cli.cmd_verify.self_ms_per_op", "ms/op"),
    ("cli.cmd_sample.self_ms_per_op", "ms/op"),
    *((f"import.{n}_ms", "ms") for n in ROADMAP_IMPORT_MS),
    ("tpt_extended.build.self_ms_per_op", "ms/op"),
    ("tpt_extended.expand_and_resum.self_ms_per_op", "ms/op"),
    *(
        (f"tpt_extended.{f}.{m}", u)
        for f in ("wavefn_value", "potential_value")
        for m, u in (("calls_per_op", "calls/op"), ("points_per_call", "points/call"), ("self_ms_per_op", "ms/op"))
    ),
    ("combinatorics.s_sum.calls_per_op", "calls/op"),
    ("combinatorics.s_sum.self_ms_per_op", "ms/op"),
    ("dsusy_core.partner_potential.self_ms_per_op", "ms/op"),
    ("dsusy_core.hermiticity_boundary_check.self_ms_per_op", "ms/op"),
    ("numeric_verify.residual.self_ms_per_op", "ms/op"),
    ("numeric_verify.inner_product.self_ms_per_op", "ms/op"),
    ("numeric_verify.solve_spectrum.self_ms_per_op", "ms/op"),
    ("numeric_verify.solve_spectrum.grid_points_per_op", "points/op"),
    ("numeric_verify.solve_spectrum.underclaim_frac", "fraction"),
    ("numeric_verify.draws.oracle_rel_err_max", "relative"),
    ("tpt_extended.draws.dual_path_rel_max", "relative"),
    *(
        (f"numeric_verify.ref_{k}_err.n{n}", "relative")
        for k in ("true", "claimed")
        for n in workloads.REF_GRIDS
    ),
    ("tpt_exact.energy.calls_per_op", "calls/op"),
    ("tpt_exact.energy.self_ms_per_op", "ms/op"),
    ("failed_frac", "fraction"),
    ("failed.typed", "count"),
    ("failed.verdict", "count"),
    ("failed.uncaught", "count"),
    ("trace.overhead_frac", "fraction"),
)

# Span names whose self time is the CLI's own (argument parsing, dispatch,
# report formatting): the op root and the subcommand bodies.
CLI_SPANS = ("op", "cli.cmd_exact", "cli.cmd_extend", "cli.cmd_verify", "cli.cmd_sample")


class BenchError(RuntimeError):
    pass


def environment() -> None:
    """The benchmark's own environment, inherited by every process it starts."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")


def start_worker(args, setup_only: bool, deadline: float):
    """Start worker.py; return (process, seconds from spawn to READY)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", OUT,
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(1.0, deadline - time.monotonic()))
    line = proc.stdout.readline() if ready else ""
    setup = perf_counter() - t0
    if line.strip() != "READY":
        stop(proc)
        raise BenchError(f"worker did not finish set-up (got {line.strip()[:200]!r})")
    return proc, setup


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def run_workload(args) -> tuple[dict, list[float]]:
    deadline = time.monotonic() + 170.0
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup = start_worker(args, True, deadline)
            finish(proc, deadline)
            setups.append(setup)
    proc, setup = start_worker(args, False, deadline)
    setups.append(setup)
    out = finish(proc, deadline)
    return json.loads(out.strip().splitlines()[-1]), setups


def end_to_end(workload: str, res: dict, setups: list[float]) -> tuple[dict, dict]:
    """Metric values, plus where each accuracy figure came from.

    Both accuracy figures are maxima over fixed reference ops, never over
    seeded draws: a maximum over draws that must pass a tolerance sits just
    under that tolerance and moves with every seed.  oracle_rel_err_max
    comes from verify_mix's reference slice (three wells at four grids) and
    from the set-up ops elsewhere; dual_path_rel_max from the set-up ops.
    """
    lat = res["latency"]
    oracle_src = "fixed" if workload == "verify_mix" else "warmup"
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": res["attempted"] / res["busy_s"],
        "latency_p50_ms": lat["p50_ms"],
        "latency_p90_ms": lat["p90_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
        "oracle_rel_err_max": res["oracle_rel_err"][oracle_src][0],
        "dual_path_rel_max": res["dual_path_rel"]["warmup"][0],
    }
    sources = {
        "oracle_rel_err_max": {"ops": oracle_src, "count": res["oracle_rel_err"][oracle_src][1]},
        "dual_path_rel_max": {"ops": "warmup", "count": res["dual_path_rel"]["warmup"][1]},
        "setup_s_samples": setups,
    }
    return values, sources


def per_layer(res: dict) -> dict:
    tr = res["trace"]
    n = tr["ops"]
    layers = tr["layers"]
    empty = {"calls": 0, "self_s": 0.0, "points": 0}

    def lay(name):
        return layers.get(name, empty)

    values = {f"cli.{c}.wall_p50_ms": tr["cold_wall_p50_ms"].get(c, 0.0)
              for c in ("exact", "extend", "verify", "sample")}
    values["cli.self_ms_per_op"] = 1e3 * sum(lay(s)["self_s"] for s in CLI_SPANS) / n
    for name, ms in tr["import_ms"].items():
        values[f"import.{name}_ms"] = ms
    for name in (
        "cli.cmd_verify", "cli.cmd_sample", "tpt_extended.build",
        "tpt_extended.expand_and_resum", "tpt_extended.wavefn_value",
        "tpt_extended.potential_value", "combinatorics.s_sum",
        "dsusy_core.partner_potential", "dsusy_core.hermiticity_boundary_check",
        "numeric_verify.residual", "numeric_verify.inner_product",
        "numeric_verify.solve_spectrum", "tpt_exact.energy",
    ):
        t = lay(name)
        values[f"{name}.self_ms_per_op"] = 1e3 * t["self_s"] / n
        values[f"{name}.calls_per_op"] = t["calls"] / n
        values[f"{name}.points_per_call"] = t["points"] / t["calls"] if t["calls"] else 0.0
    values["numeric_verify.solve_spectrum.grid_points_per_op"] = (
        lay("numeric_verify.solve_spectrum")["points"] / n
    )
    oracle = tr["oracle"]
    values["numeric_verify.solve_spectrum.underclaim_frac"] = (
        oracle["underclaimed"] / oracle["levels"] if oracle["levels"] else 0.0
    )
    for k in ("true", "claimed"):
        for grid in workloads.REF_GRIDS:
            key = f"numeric_verify.ref_{k}_err.n{grid}"
            values[key] = oracle["ref"].get(key, 0.0)
    values["numeric_verify.draws.oracle_rel_err_max"] = res["oracle_rel_err"]["draws"][0]
    values["tpt_extended.draws.dual_path_rel_max"] = res["dual_path_rel"]["draws"][0]
    census = res["census"]
    values["failed_frac"] = census["failed"] / census["attempted"]
    for kind in ("typed", "verdict", "uncaught"):
        values[f"failed.{kind}"] = census["kinds"][kind]
    values["trace.overhead_frac"] = tr["overhead_frac"]
    return values


def context(args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(args, res, metrics, units, extra) -> None:
    lat = res["latency"]
    print(f"workload {args.workload}, seed {args.seed}, {res['attempted']} ops attempted, "
          f"{res['failed']} failed {res['kinds']}, correct={res['correct']}")
    notes = {
        "latency_p50_ms": f"(n={lat['n']}, {lat['beyond_p50']} beyond)",
        "latency_p90_ms": f"(n={lat['n']}, {lat['beyond_p90']} beyond"
        + ("" if lat["p90_resolved"] else "; fewer than 10 beyond, under-sampled") + ")",
    }
    for key in ("oracle_rel_err_max", "dual_path_rel_max"):
        if key in extra:
            notes[key] = f"(max over {extra[key]['count']} passing {extra[key]['ops']} reference ops)"
    for name, val in metrics.items():
        if name.startswith("import."):
            base = ROADMAP_IMPORT_MS[name[len("import."):-len("_ms")]]
            notes[name] = f"(ROADMAP {base:.0f} ms; x{val / base:.2f})"
    for name, val in metrics.items():
        print(f"  {name} = {_fmt(val)} {units[name]} {notes.get(name, '')}".rstrip())
    problems = res["problems"] + res["warmup_problems"]
    if args.trace:
        census = res["census"]
        problems += census["problems"]
        print(f"  census: {census['failed']} of {census['attempted']} known-defect and "
              f"full-range ops failed {census['kinds']}")
    for p in problems:
        print(f"  PROBLEM {' '.join(p['argv'])}: {p.get('problem', '')}")
    if args.trace:
        tr = res["trace"]
        spans_ms = 1e3 * sum(t["self_s"] for t in tr["layers"].values()) / tr["ops"]
        wall_ms = 1e3 * tr["traced_s"] / tr["ops"]
        print(f"  span accounting over {tr['ops']} traced ops: spans cover {spans_ms:.3f} "
              f"of {wall_ms:.3f} ms/op traced wall ({spans_ms / wall_ms:.1%}; "
              "a cold op's interpreter start and imports lie outside its spans)")
        for name, t in sorted(tr["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:42s} self {1e3 * t['self_s'] / tr['ops']:9.3f} ms/op "
                  f"{t['calls'] / tr['ops']:9.1f} calls/op")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pdmtpt", "cli.py")):
        print(f"error: no pdmtpt sources under {SRC}", file=sys.stderr)
        return 2
    environment()
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    try:
        res, setups = run_workload(args)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, units, extra = per_layer(res), dict(PER_LAYER), {}
        metrics = {name: metrics[name] for name, _ in PER_LAYER}
    else:
        metrics, extra = end_to_end(args.workload, res, setups)
        units = dict(END_TO_END)
    report(args, res, metrics, units, extra)
    record = {
        "context": context(args),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "details": extra,
        "worker": res,
    }
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

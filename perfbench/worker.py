"""One workload's closed loop, in its own fresh process (started by run.py).

One op is in flight at a time and no threads are started.  The worker
prints READY once set-up (import, input generation, warm-up ops) is done,
then runs the timed loop and prints one JSON line with its raw results.
The in-process workloads call `pdmtpt.cli.main`; cli_cold starts
`python -m pdmtpt.cli` subprocesses one at a time.  A traced run ends with
the workload's census (workloads.census), run once untraced after the
timed loop; its outcomes are the failure counts of the per-layer report.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import ops
import stats
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MODULE_CMD = [sys.executable, "-m", "pdmtpt.cli"]
TRACED_CMD = [sys.executable, os.path.join(HERE, "cold_child.py")]

# Cumulative import probes: each imports everything the previous one did.
IMPORT_PROBES = (
    ("python", "pass"),
    ("numpy", "import numpy"),
    ("scipy_linalg", "import numpy, scipy.linalg"),
    ("scipy_integrate", "import numpy, scipy.linalg, scipy.integrate"),
    ("pdmtpt", "import pdmtpt"),
)
IMPORT_REPEATS = 3


class Runner:
    """Runs argv untraced or traced, in-process or in a cold subprocess."""

    def __init__(self, workload: str, tmp: str) -> None:
        self.cold = workload == "cli_cold"
        self.tmp = tmp
        self.tracer = tracing.Tracer()
        if not self.cold:
            from pdmtpt import cli

            src = os.path.join(ROOT, "src") + os.sep
            if not os.path.abspath(cli.__file__).startswith(src):
                raise ImportError(f"pdmtpt imported from {cli.__file__}, not from {src}")
            self.cli = cli

    def run(self, argv, op: int = -1, traced: bool = False) -> ops.Outcome:
        if self.cold:
            if not traced:
                return ops.run_cold(MODULE_CMD, argv, None, ROOT)
            path = os.path.join(self.tmp, "spans.csv")
            o = ops.run_cold([*TRACED_CMD, path], argv, None, ROOT)
            self._adopt(tracing.read_csv(path), op)
            return o
        if not traced:
            return ops.run_inprocess(self.cli.main, argv)
        self.tracer.install()
        rec = self.tracer.begin_op(op)
        try:
            return ops.run_inprocess(self.cli.main, argv)
        finally:
            self.tracer.end_op(rec)
            self.tracer.uninstall()

    def _adopt(self, spans, op: int) -> None:
        base = len(self.tracer.spans)
        for rec in spans:
            rec[tracing.OP] = op
            if rec[tracing.PARENT] >= 0:
                rec[tracing.PARENT] += base
        self.tracer.spans.extend(spans)


def timed_loop(runner: Runner, gen, seconds: float, trace: bool):
    """Ops until `seconds` of op time have passed.

    The clock runs while an op is generated and executed and stops while
    the benchmark checks its output.  In a traced run every op runs twice,
    untraced and traced, in alternating order; the untraced runs are the
    ones counted as attempted.
    """
    outcomes, traced_secs, busy, i = [], [], 0.0, 0
    while busy < seconds:
        t0 = perf_counter()
        argv = gen.argv(i)
        if not trace:
            o = runner.run(argv)
            busy += perf_counter() - t0
        else:
            pair = {}
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                pair[traced] = runner.run(argv, i, traced)
            busy += perf_counter() - t0
            o = pair[False]
            traced_secs.append(pair[True].seconds)
        ops.check(o)
        # Keep only what the report reads, so that the benchmark's own
        # memory does not grow with the op count and move peak_rss_mb.
        o.stdout = o.stderr = ""
        if o.argv[0] != "verify":
            o.payload = None
        outcomes.append(o)
        i += 1
    return outcomes, traced_secs, busy


def import_breakdown() -> dict[str, float]:
    """Median cold wall time in ms of each cumulative import probe."""
    samples = {name: [] for name, _ in IMPORT_PROBES}
    for _ in range(IMPORT_REPEATS):
        for name, code in IMPORT_PROBES:
            samples[name].append(ops.run_cold([sys.executable, "-c"], [code], None, ROOT).seconds)
    return {name: 1e3 * statistics.median(v) for name, v in samples.items()}


def tally(outcomes) -> dict:
    """Attempted and failed ops, outcome kinds, and the first problems."""
    kinds = {k: sum(o.kind == k for o in outcomes) for k in ("ok", "bad", *ops.FAILED_KINDS)}
    return {
        "attempted": len(outcomes),
        "failed": sum(kinds[k] for k in ops.FAILED_KINDS),
        "kinds": kinds,
        "problems": [
            {"argv": o.argv, "kind": o.kind, "problem": o.problem}
            for o in outcomes if not o.correct
        ][:20],
    }


def summarize(outcomes, busy: float) -> dict:
    lat = [o.seconds for o in outcomes]
    n = len(lat)
    return {
        **tally(outcomes),
        "busy_s": busy,
        "latency": {
            "n": n,
            "p50_ms": 1e3 * stats.percentile(lat, 0.5),
            "p90_ms": 1e3 * stats.percentile(lat, 0.9),
            "beyond_p50": stats.samples_beyond(n, 0.5),
            "beyond_p90": stats.samples_beyond(n, 0.9),
            "p90_resolved": stats.resolved(n, 0.9),
        },
    }


def accuracy(outcomes, key: str) -> tuple[float, int]:
    """(max of values[key] over ops that carry it, number of such ops)."""
    vals = [o.values[key] for o in outcomes if o.correct and key in o.values]
    return (max(vals) if vals else 0.0, len(vals))


def peak_rss_mb(cold: bool) -> float:
    who = resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def oracle_bookkeeping(runner: Runner, outcomes, fixed: int) -> dict:
    """Claimed against true oracle error, from the traced verify ops.

    True error is |E_num - E_closed| / |E_closed|, with E_closed from the
    op's own report; claimed error is the spectrum's `errors` over |E_closed|.
    """
    by_op = {op: out for op, _, out in runner.tracer.kept}
    levels = under = 0
    ref: dict[str, float] = {}
    for i, o in enumerate(outcomes):
        spec = by_op.get(i)
        if spec is None or not o.payload or "E1" not in o.payload:
            continue
        true_err, claimed_err = 0.0, 0.0
        for k, closed in enumerate((o.payload["E0"], o.payload["E1"])):
            scale = max(1e-300, abs(closed))
            t = abs(float(spec.eigenvalues[k]) - closed) / scale
            c = float(spec.errors[k]) / scale
            levels += 1
            under += c < t
            true_err, claimed_err = max(true_err, t), max(claimed_err, c)
        if i < fixed and tuple(o.argv[4:]) in workloads.REF_WELLS:
            n = o.argv[3]
            for label, v in (("true", true_err), ("claimed", claimed_err)):
                key = f"numeric_verify.ref_{label}_err.n{n}"
                ref[key] = max(ref.get(key, 0.0), v)
    return {"levels": levels, "underclaimed": under, "ref": ref}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for result files")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tmp = os.path.join(args.out, "tmp")
    runner = Runner(args.workload, tmp)
    gen = workloads.Generator(args.workload, args.seed, tmp)
    warm = [runner.run(list(a)) for a in workloads.warmup_ops(args.workload, tmp)]
    for o in warm:
        ops.check(o)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    outcomes, traced_secs, busy = timed_loop(runner, gen, args.seconds, bool(args.trace))
    result = summarize(outcomes, busy)
    result["warmup_problems"] = [
        {"argv": o.argv, "kind": o.kind, "problem": o.problem}
        for o in warm
        if o.kind != "ok" or not o.correct
    ]
    result["correct"] = all(o.correct for o in outcomes) and not result["warmup_problems"]
    result["peak_rss_mb"] = peak_rss_mb(runner.cold)
    fixed = len(gen.fixed)
    for key in ("oracle_rel_err", "dual_path_rel"):
        result[key] = {
            "fixed": accuracy(outcomes[:fixed], key),
            "draws": accuracy(outcomes[fixed:], key),
            "warmup": accuracy(warm, key),
        }
    if args.trace:
        result["trace"] = trace_report(runner, outcomes, traced_secs, fixed)
        result["census"] = run_census(runner, args.workload, args.seed)
        result["correct"] = result["correct"] and not result["census"]["problems"]
        runner.tracer.write_csv(
            os.path.join(args.out, f"{args.workload}-seed{args.seed}-spans.csv")
        )
    print(json.dumps(result), flush=True)
    return 0


def run_census(runner: Runner, workload: str, seed: int) -> dict:
    """Run the census untraced, once; a failure here is a measurement."""
    outcomes = []
    for argv in workloads.census(workload, seed):
        o = runner.run(list(argv))
        ops.check(o)
        outcomes.append(o)
    return tally(outcomes)


def trace_report(runner: Runner, outcomes, traced_secs, fixed: int) -> dict:
    untraced = sum(o.seconds for o in outcomes)
    by_cmd: dict[str, list[float]] = {}
    if runner.cold:
        for o in outcomes:
            by_cmd.setdefault(o.argv[0], []).append(o.seconds)
    return {
        "ops": len(outcomes),
        "layers": tracing.layer_totals(runner.tracer.spans),
        "traced_s": sum(traced_secs),
        "overhead_frac": sum(traced_secs) / untraced - 1.0,
        "cold_wall_p50_ms": {c: 1e3 * statistics.median(v) for c, v in by_cmd.items()},
        "oracle": oracle_bookkeeping(runner, outcomes, fixed),
        "import_ms": import_breakdown(),
    }


if __name__ == "__main__":
    sys.exit(main())

"""Write verify_pool.json, the input pool of the verify_mix workload.

    PYTHONPATH=src python3 perfbench/make_pool.py

Draws POOL_CANDIDATES verify ops over the full parameter box (drawn as the
census draws its verify ops, from a fixed pool seed), runs each in-process
and keeps those that pass every check with a margin: residuals, spectral
errors and the overlap at most MARGIN of their tolerances.  The margin keeps rounding differences between
machines from turning a pooled op into a failure.  The file records how many
candidates each outcome took, so the pool's bias stays visible; the census
of a traced run measures the failures themselves.
"""

from __future__ import annotations

import collections
import json
import os
import sys

import ops
import workloads

POOL_SEED = 20261017
POOL_CANDIDATES = 1200
MARGIN = 0.5
# cmd_verify's tolerances, by report key.
TOLERANCES = {
    "residual_psi0": 1e-7,
    "residual_psi1": 1e-7,
    "spectral_rel_err0": 1e-6,
    "spectral_rel_err1": 1e-6,
    "orthogonality": 1e-8,
}


def candidates() -> list[tuple[str, ...]]:
    streams = [workloads._Stream(f"pool:{fam}", POOL_SEED) for fam in "ab"]
    return [
        workloads.full_range_verify(streams[j % 2].point(j // 2), j % 2 == 0)
        for j in range(POOL_CANDIDATES)
    ]


def outcome(o: ops.Outcome) -> str:
    """ok, thin (passed inside the margin), wrong, or the failure kind."""
    if o.kind != "ok":
        return o.kind
    ops.check(o)
    if not o.correct:
        return "wrong"
    if any(o.payload[k] > MARGIN * tol for k, tol in TOLERANCES.items()):
        return "thin"
    return "ok"


def main() -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from pdmtpt import cli

    kept, counts = [], collections.Counter()
    for argv in candidates():
        kind = outcome(ops.run_inprocess(cli.main, argv))
        counts[kind] += 1
        if kind == "ok":
            kept.append(list(argv))
    head = {
        "pool_seed": POOL_SEED,
        "candidates": POOL_CANDIDATES,
        "margin": MARGIN,
        "outcomes": dict(sorted(counts.items())),
    }
    with open(workloads.POOL_PATH, "w", encoding="utf-8") as fh:
        # one op a line, so that a changed pool reads well as a diff
        fh.write(json.dumps(head)[:-1] + ', "argv": [\n')
        fh.write(",\n".join(json.dumps(a) for a in kept) + "\n]}\n")
    print(f"kept {len(kept)} of {POOL_CANDIDATES}: {dict(counts)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

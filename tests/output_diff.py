"""Compare what the CLI prints between two checkouts.

    PYTHONPATH=<checkout>/src python tests/output_diff.py dump OUT.json
    python tests/output_diff.py diff A.json B.json
    python tests/output_diff.py table OUT.json
    python tests/output_diff.py outcomes OUT.json tests/data/outcomes.json

`dump` runs `pdmtpt.cli.main` in-process, from whichever `pdmtpt` is on the
path, on five input sets and writes {set: [{argv, rc, stdout, stderr}]}:

* pool: the argv of perfbench/verify_pool.json, read-only;
* census: ROADMAP item 1's census of deep two-parameter wells, one
  `random.Random(7)` stream drawing atop, btop and alpha for 60 wells each
  at (m1, m2) = (2, 2), (3, 3), (4, 1), in that order;
* defects: the known-defect inputs;
* curves: `sample` at 100,001 rows on the three wells of `figures`, and
  `figures` itself at 100,001 rows (its six files plot those three wells);
* extend: `extend --check --json` on one-parameter ladders m = 1..16 at
  three draws each and on every two-parameter (m1, m2) in 0..14 squared but
  (0, 0) at one draw each, from one `random.Random(22)` stream over
  perfbench build_ladder's ranges (top coefficients 0.25..4, alpha
  -0.8..0.8), then perfbench's `PROBE_EXTEND` argv (read from
  perfbench/workloads.py) and the depth probes around the ladder-depth bound.

Each argv runs in a temporary directory of its own, and its record also
holds {path: SHA-256} of every file it left there.

`diff` prints, per set, for each stream, the file hash and each key of a
`--json` payload that differs: how many inputs differ, and the largest
relative and absolute differences.  Numbers are compared by
|a - b| / max(|a|, |b|) and |a - b|; texts by the numbers in them when the
rest of the text is the same, else they count as "text" differences, as
differing sets of file hashes always do.  The absolute difference of a
relative error such as `spectral_rel_err0` bounds from below how far the
value it measures moved, relative to the reference, and equals it where the
error keeps its sign.  It exits 1 when any field of any set differs and 0
when none does, so one command gates a refactor that must leave every
output bit-identical.
`table` classifies the census outcomes per (m1, m2).
`outcomes` writes the outcome record of a dump's census, defects and extend
sets: per input, in input order, its rc, its last stderr line with every
number masked as "#" (names such as psi0 keep their digit), and for
`verify` each check's PASS or FAIL and the node counts.  It holds no
measured number, so a change that moves digits but no verdict leaves it as
it is; tests/data/outcomes.json is the record tier-1 compares a fresh run
with.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import re
import sys
import tempfile

_PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench")
_POOL = os.path.join(_PERFBENCH, "verify_pool.json")

_CENSUS_DEPTHS = ((2, 2), (3, 3), (4, 1))

_DEFECTS = [
    ["verify", "--json", "--one", "-m", "1", "--atop", "1", "--alpha", "-0.999"],
    ["verify", "--json", "--two", "--m1", "1", "--m2", "1", "--atop", "1", "--btop", "1",
     "--alpha", "0.99"],
    ["verify", "--json", "--one", "-m", "1", "--atop", "1", "--alpha", "50"],
    ["verify", "--json", "--one", "-m", "1", "--atop", "1", "--alpha", "50", "-N", "16000"],
    ["verify", "--json", "--one", "-m", "1", "--atop", "1e-8", "--alpha", "0"],
    ["sample", "--json", "--one", "-m", "1", "--atop", "1", "--alpha", "-0.999",
     "--out", "curve.csv"],
    ["extend", "--json", "--check", "--one", "-m", "40", "--atop", "1", "--alpha", "0.3"],
    # FAIL verdicts on correct closed forms: E0 = 0 at alpha = 1/sqrt(3) - 1
    # and at the other zero crossing, a spectral FAIL, and FAILs from psi
    # underflow (Hermiticity; nodes and Hermiticity)
    ["verify", "--json", "--one", "-m", "1", "--atop", "1", "--alpha", "-0.4226497308103744"],
    ["verify", "--json", "--one", "-m", "1", "--atop", "1", "--alpha", "-0.13030615433009324"],
    ["verify", "--json", "--two", "--m1", "3", "--m2", "0", "--atop", "0.894846",
     "--btop", "0.428308", "--alpha", "0.138057"],
    ["verify", "--json", "--one", "-m", "4", "--atop", "0.527388", "--alpha", "-0.795030",
     "-N", "8000"],
    ["verify", "--json", "--two", "--m1", "2", "--m2", "3", "--atop", "0.416934",
     "--btop", "0.728148", "--alpha", "-0.566869", "-N", "8000"],
]

# the wells of `figures`: fig1/fig2, fig3/fig4 and fig5/fig6
_CURVES = [
    ["sample", "--json", *well, "--npoints", "100001", "--out", "curve.csv"]
    for well in (
        ["--one", "-m", "1", "--atop", "1", "--alpha", "-0.5"],
        ["--two", "--m1", "1", "--m2", "1", "--atop", "1", "--btop", "1", "--alpha", "0.5"],
        ["--two", "--m1", "1", "--m2", "0", "--atop", "1", "--btop", "1", "--alpha", "0.5"],
    )
] + [["figures", "--json", "--npoints", "100001"]]

_DEPTH_PROBES = [
    ["--one", "-m", "150", "--atop", "1", "--alpha", "0.3"],
    ["--one", "-m", "1000", "--atop", "1", "--alpha", "0.3"],
    ["--one", "-m", "1001", "--atop", "1", "--alpha", "0.3"],
    ["--two", "--m1", "1000", "--m2", "1000", "--atop", "1", "--btop", "1", "--alpha", "0.3"],
    ["--two", "--m1", "1001", "--m2", "0", "--atop", "1", "--btop", "1", "--alpha", "0.3"],
]


# the sets of the outcome record
_RECORDED = ("census", "defects", "extend")

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
# a number that is not the tail of a name such as psi0 or m1
_MASKED = re.compile(r"(?<![\w.])" + _NUMBER.pattern)


def census_argv() -> list[list[str]]:
    rng = random.Random(7)
    out = []
    for m1, m2 in _CENSUS_DEPTHS:
        for _ in range(60):
            atop, btop, alpha = rng.uniform(0.25, 4), rng.uniform(0.25, 4), rng.uniform(-0.8, 0.8)
            out.append(["verify", "--json", "--two", "--m1", str(m1), "--m2", str(m2),
                        "--atop", repr(atop), "--btop", repr(btop), "--alpha", repr(alpha)])
    return out


def extend_argv() -> list[list[str]]:
    rng = random.Random(22)
    wells = []
    for m in range(1, 17):
        for _ in range(3):
            atop, alpha = rng.uniform(0.25, 4), rng.uniform(-0.8, 0.8)
            wells.append(["--one", "-m", str(m), "--atop", repr(atop), "--alpha", repr(alpha)])
    for m1 in range(15):
        for m2 in range(15):
            if m1 or m2:
                atop, btop, alpha = rng.uniform(0.25, 4), rng.uniform(0.25, 4), rng.uniform(-0.8, 0.8)
                wells.append(["--two", "--m1", str(m1), "--m2", str(m2), "--atop", repr(atop),
                              "--btop", repr(btop), "--alpha", repr(alpha)])
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(_PERFBENCH, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return ([["extend", "--check", "--json", *well] for well in wells]
            + [list(argv) for argv in workloads.PROBE_EXTEND]
            + [["extend", "--check", "--json", *well] for well in _DEPTH_PROBES])


def input_sets() -> dict[str, list[list[str]]]:
    with open(_POOL, encoding="utf-8") as fh:
        pool = json.load(fh)["argv"]
    return {"pool": pool, "census": census_argv(), "defects": _DEFECTS, "curves": _CURVES,
            "extend": extend_argv()}


def record(argv: list[str]) -> dict:
    """{argv, rc, stdout, stderr, sha256} of one in-process `main` call.

    The call runs in a temporary directory of its own; sha256 maps the path
    of every file it left there to the file's SHA-256 ({} if it wrote none).
    """
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            rec = _record(argv)
            paths = sorted(os.path.relpath(os.path.join(root, name))
                           for root, _, names in os.walk(".") for name in names)
            rec["sha256"] = {path: _sha256(path) for path in paths}
        finally:
            os.chdir(cwd)
    return rec


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _record(argv: list[str]) -> dict:
    from pdmtpt.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an uncaught error is an outcome to compare
            rc = f"uncaught {type(exc).__name__}: {exc}"
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _rel(a, b) -> tuple[float, float]:
    """Relative and absolute difference of two values; inf where they are not
    comparable."""
    if a == b:
        return 0.0, 0.0
    if isinstance(a, str) and isinstance(b, str):
        xs, ys = _NUMBER.findall(a), _NUMBER.findall(b)
        if _NUMBER.sub("#", a) != _NUMBER.sub("#", b) or len(xs) != len(ys):
            return math.inf, math.inf
        pairs = [_rel(float(x), float(y)) for x, y in zip(xs, ys)]
        return max(rel for rel, _ in pairs), max(gap for _, gap in pairs)
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in (a, b)):
        return math.inf, math.inf
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf, math.inf
    return abs(a - b) / max(abs(a), abs(b)), abs(a - b)


def _payload(stdout: str):
    try:
        value = json.loads(stdout)
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def compare(a: list[dict], b: list[dict]) -> dict[str, tuple[int, float, float]]:
    """{field: (inputs that differ, largest relative difference, largest
    absolute difference)} of two runs."""
    if [r["argv"] for r in a] != [r["argv"] for r in b]:
        raise ValueError("the two runs have different inputs")
    out: dict[str, tuple[int, float, float]] = {}

    def note(field, diff):
        n, worst, widest = out.get(field, (0, 0.0, 0.0))
        rel, gap = diff
        out[field] = (n + (rel > 0.0), max(worst, rel), max(widest, gap))

    for ra, rb in zip(a, b):
        for stream in ("rc", "stdout", "stderr"):
            note(stream, _rel(ra[stream], rb[stream]))
        note("sha256", (0.0, 0.0) if ra["sha256"] == rb["sha256"] else (math.inf, math.inf))
        pa, pb = _payload(ra["stdout"]), _payload(rb["stdout"])
        if pa is not None or pb is not None:
            pa, pb = pa or {}, pb or {}
            for key in sorted(set(pa) | set(pb)):
                note(f"json.{key}", _rel(pa.get(key), pb.get(key)))
    return out


def diff_lines(a: dict, b: dict) -> list[str]:
    lines = []
    for name in a:
        lines.append(f"{name}: {len(a[name])} inputs")
        for field, (n, worst, widest) in compare(a[name], b[name]).items():
            if not n:
                continue
            if worst == math.inf:
                lines.append(f"  {field}: {n} differ, max rel text")
            else:
                lines.append(f"  {field}: {n} differ, max rel {worst:.3g}, max abs {widest:.3g}")
    return lines


def _verify_checks() -> tuple:
    """verify's checks in the order `cli.cmd_verify` prints them, each read
    from its --json payload.  A value check compares its key with
    `cli.VERIFY_TOLERANCES`, imported here rather than at the top, so that
    `dump` also runs on a checkout without it."""
    from pdmtpt.cli import VERIFY_TOLERANCES

    def below(key):
        return lambda p: p[key] < VERIFY_TOLERANCES[key]

    return (
        ("spectral level0", below("spectral_rel_err0")),
        ("spectral level1", below("spectral_rel_err1")),
        ("residual psi0", below("residual_psi0")),
        ("residual psi1", below("residual_psi1")),
        ("nodes", lambda p: (p["nodes_psi0"], p["nodes_psi1"]) == (0, 1)),
        ("orthogonality", below("orthogonality")),
        ("hermiticity psi0", lambda p: p["hermiticity_psi0"]),
        ("hermiticity psi1", lambda p: p["hermiticity_psi1"]),
    )


def outcome(rec: dict) -> dict:
    """One record's outcome without its digits: rc, the last stderr line with
    its numbers masked, and for `verify` each check's PASS/FAIL and the node
    counts."""
    rc = rec["rc"]
    out = {"rc": rc if isinstance(rc, int) else _MASKED.sub("#", rc)}
    lines = rec["stderr"].strip().splitlines()
    if lines:
        out["error"] = _MASKED.sub("#", lines[-1])
    payload = _payload(rec["stdout"])
    if rec["argv"][0] == "verify" and payload is not None:
        checks = {name: "PASS" if passes(payload) else "FAIL"
                  for name, passes in _verify_checks()}
        if (rc == 0) != all(state == "PASS" for state in checks.values()):
            raise ValueError(f"the checks {checks} disagree with rc {rc} of {rec['argv']}")
        out["checks"] = checks
        out["nodes"] = [payload["nodes_psi0"], payload["nodes_psi1"]]
    return out


def classify(rec: dict) -> str:
    """One census outcome: pass, a failed check, or the kind of error."""
    out = outcome(rec)
    if out["rc"] == 0:
        return "pass"
    if "checks" in out:
        if "FAIL" in (out["checks"]["residual psi0"], out["checks"]["residual psi1"]):
            return "residual verdict"
        return "other verdict"
    err = rec["stderr"]
    for kind, marker in (("oracle refused", "oracle cannot resolve"),
                         ("zero scale", "zero scale"),
                         ("norm precision limit", "squared norm")):
        if marker in err:
            return kind
    return err.strip()[:60] or str(rec["rc"])


def outcome_record(runs: dict) -> dict:
    """{set: [outcome]} of the recorded sets of a dump."""
    return {name: [outcome(rec) for rec in runs[name]] for name in _RECORDED}


def write_outcomes(record: dict, path: str) -> None:
    """The record as JSON, one input per line."""
    sets = [f"{json.dumps(name)}: [\n" + ",\n".join("  " + json.dumps(row) for row in rows)
            + "\n]" for name, rows in record.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(sets) + "\n}\n")


def table_lines(census: list[dict]) -> list[str]:
    lines = []
    for i, (m1, m2) in enumerate(_CENSUS_DEPTHS):
        counts: dict[str, int] = {}
        for rec in census[60 * i: 60 * (i + 1)]:
            kind = classify(rec)
            counts[kind] = counts.get(kind, 0) + 1
        lines.append(f"({m1}, {m2}): " + ", ".join(f"{k} {n}" for k, n in sorted(counts.items())))
    return lines


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "dump":
        runs = {name: [record(a) for a in argvs] for name, argvs in input_sets().items()}
        with open(argv[1], "w", encoding="utf-8") as fh:
            json.dump(runs, fh)
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        runs = []
        for path in argv[1:]:
            with open(path, encoding="utf-8") as fh:
                runs.append(json.load(fh))
        lines = diff_lines(*runs)
        print("\n".join(lines))
        return 1 if any(line.startswith("  ") for line in lines) else 0  # a field differs
    if len(argv) == 2 and argv[0] == "table":
        with open(argv[1], encoding="utf-8") as fh:
            print("\n".join(table_lines(json.load(fh)["census"])))
        return 0
    if len(argv) == 3 and argv[0] == "outcomes":
        with open(argv[1], encoding="utf-8") as fh:
            write_outcomes(outcome_record(json.load(fh)), argv[2])
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

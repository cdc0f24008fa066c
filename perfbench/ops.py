"""Running one pdmtpt command line, classifying it, and checking its output.

Every op ends in exactly one of four kinds:

* ``ok``: exit 0;
* ``typed``: exit 1 with a one-line ``error: ...`` on stderr;
* ``verdict``: exit 1 from ``verify`` whose report says ``"pass": false``;
* ``uncaught``: an exception escaped ``main`` (a traceback, in a subprocess).

Anything else (a usage error, exit 3, exit 1 with a multi-line message) is
``bad``: the benchmark or the program broke its contract, and the run is
marked incorrect.  Outputs of ``ok`` ops are checked independently of the
program by `check`, which callers run outside the timed part of an op.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
from dataclasses import dataclass, field
from time import perf_counter

FAILED_KINDS = ("typed", "verdict", "uncaught")

# `extend --check` builds must agree across their two paths within these
# relative tolerances (the builds' own: tpt_extended.build_{one,two}_param).
DUAL_PATH_TOL = {"one": 1e-9, "two": 1e-8}
EXACT_REL_TOL = 1e-12


@dataclass
class Outcome:
    argv: list
    kind: str
    seconds: float
    stdout: str
    stderr: str
    payload: dict | None = None
    correct: bool = True
    problem: str = ""
    values: dict = field(default_factory=dict)


def run_inprocess(main, argv) -> Outcome:
    """Call `main(argv)` with captured output; time the call alone."""
    out, err = io.StringIO(), io.StringIO()
    escaped = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an escaped exception is the "uncaught" kind
        rc, escaped = 1, exc
    seconds = perf_counter() - t0
    stderr = err.getvalue()
    if escaped is not None:
        stderr += f"{type(escaped).__name__}: {escaped}\n"
    return classify(argv, rc, seconds, out.getvalue(), stderr, escaped is not None)


def run_cold(cmd, argv, env, cwd, timeout: float = 120.0) -> Outcome:
    """Run `cmd + argv` in a fresh process and wait for it to end."""
    t0 = perf_counter()
    proc = subprocess.run(
        [*cmd, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout
    )
    seconds = perf_counter() - t0
    return classify(argv, proc.returncode, seconds, proc.stdout, proc.stderr)


def _payload(stdout: str):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def classify(argv, rc, seconds, stdout, stderr, escaped: bool = False) -> Outcome:
    """Sort a finished op into ok/typed/verdict/uncaught, or bad.

    `escaped` says an exception left `main` in-process; a subprocess shows
    the same as a traceback on stderr.
    """
    o = Outcome(list(argv), "bad", seconds, stdout, stderr, _payload(stdout))
    err_lines = stderr.strip().splitlines()
    if rc == 0:
        o.kind = "ok"
    elif rc == 1 and (escaped or "Traceback (most recent call last)" in stderr):
        o.kind = "uncaught"
    elif rc == 1 and len(err_lines) == 1 and err_lines[0].startswith("error: "):
        o.kind = "typed"
    elif rc == 1 and argv[0] == "verify" and o.payload and o.payload.get("pass") is False:
        o.kind = "verdict"
    if o.kind == "bad":
        o.correct = False
        o.problem = f"exit {rc}: {stderr.strip()[-200:]}"
    return o


def _flag(argv, name, cast=float, default=None):
    if name in argv:
        return cast(argv[argv.index(name) + 1])
    return default


def check(o: Outcome) -> None:
    """Independent checks of an ok op's output; sets correct/problem/values."""
    if o.kind != "ok":
        return
    cmd = o.argv[0]
    p = o.payload
    if p is None:
        o.correct, o.problem = False, "no JSON report"
        return
    try:
        if cmd == "exact":
            _check_exact(o, p)
        elif cmd == "extend":
            _check_extend(o, p)
        elif cmd == "verify":
            _check_verify(o, p)
        elif cmd == "sample":
            _check_sample(o, p)
        else:
            o.correct, o.problem = False, f"unchecked command {cmd}"
    except (KeyError, TypeError, ValueError) as exc:
        o.correct, o.problem = False, f"malformed report: {exc!r}"


def exact_energies(argv) -> list[float]:
    """E_0..E_nmax from the closed spectrum formulas in the tpt_exact docstring."""
    a, al = _flag(argv, "-A"), _flag(argv, "--alpha")
    nmax = _flag(argv, "--nmax", int, 0)
    if "--one" in argv:
        lam = 0.5 * (1.0 + al + math.sqrt((1.0 + al) ** 2 + 4.0 * a * (a - 1.0)))
        return [(lam + n) ** 2 - al * (lam - n * n) for n in range(nmax + 1)]
    b = _flag(argv, "-B")
    lam = 0.5 * (1.0 - al + math.sqrt((1.0 - al) ** 2 + 4.0 * a * (a - 1.0)))
    mu = 0.5 * (1.0 + al + math.sqrt((1.0 + al) ** 2 + 4.0 * b * (b - 1.0)))
    return [
        (lam + mu + 2 * n) ** 2 + 2.0 * al * (lam - mu) * (2 * n + 1) - 4.0 * al * al * n * n
        for n in range(nmax + 1)
    ]


def _check_exact(o, p) -> None:
    want = exact_energies(o.argv)
    got = [p[f"E{n}"] for n in range(len(want))]
    if f"E{len(want)}" in p:
        o.correct, o.problem = False, "more energies than --nmax asked for"
        return
    worst = max(abs(g - w) / max(1.0, abs(w)) for g, w in zip(got, want))
    o.values["exact_rel_err"] = worst
    if not worst <= EXACT_REL_TOL:
        o.correct, o.problem = False, f"exact energies off by {worst:.3e} relative"


def _check_extend(o, p) -> None:
    family = "one" if "--one" in o.argv else "two"
    coeffs = [v for k, v in p.items() if k[0] in "AB" and k[1:].isdigit()]
    scale = max([1.0, abs(p["E0"])] + [abs(c) for c in coeffs])
    rel = p["dual_path_max_discrepancy"] / scale
    o.values["dual_path_rel"] = rel
    if not rel <= DUAL_PATH_TOL[family]:
        o.correct, o.problem = False, f"dual-path discrepancy {rel:.3e} beyond the build tolerance"


def _check_verify(o, p) -> None:
    o.values["oracle_rel_err"] = max(p["spectral_rel_err0"], p["spectral_rel_err1"])
    if p["pass"] is not True:
        o.correct, o.problem = False, "exit 0 without a passing verify report"


def _check_sample(o, p) -> None:
    want = _flag(o.argv, "--npoints", int, 1001)
    path = _flag(o.argv, "--out", str)
    rows = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("x,"):
                continue
            fields = line.split(",")
            if len(fields) != 4 or not all(math.isfinite(float(f)) for f in fields):
                o.correct, o.problem = False, f"bad CSV row {rows}: {line.strip()[:80]}"
                return
            rows += 1
    o.values["rows"] = rows
    if rows != want or p["rows"] != want:
        o.correct, o.problem = False, f"CSV has {rows} rows, report {p['rows']}, asked {want}"


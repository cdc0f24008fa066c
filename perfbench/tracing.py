"""In-memory spans around the calls into each pdmtpt module.

The benchmark installs wrappers on the module attributes that callers look
up at call time (for example `pdmtpt.cli.solve_spectrum` and
`pdmtpt.tpt_extended.s_sum`), so no file under src/ changes.  A span is
[name, start, end, parent index, op id, points]; `points` is the size of
the x argument for the two evaluators (points per call is the
vectorisation ratio) and the grid size for the eigensolver.
"""

from __future__ import annotations

import csv
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, OP, POINTS = range(6)

# (module, attribute, span name, parameter counted as points or None).
# Every attribute is one that pdmtpt code or the CLI resolves at call time.
TARGETS = (
    ("pdmtpt.cli", "cmd_exact", "cli.cmd_exact", None),
    ("pdmtpt.cli", "cmd_extend", "cli.cmd_extend", None),
    ("pdmtpt.cli", "cmd_verify", "cli.cmd_verify", None),
    ("pdmtpt.cli", "cmd_sample", "cli.cmd_sample", None),
    ("pdmtpt.cli", "energy_one_param", "tpt_exact.energy", None),
    ("pdmtpt.cli", "energy_two_param", "tpt_exact.energy", None),
    ("pdmtpt.cli", "build_one_param", "tpt_extended.build", None),
    ("pdmtpt.cli", "build_two_param", "tpt_extended.build", None),
    ("pdmtpt.cli", "expand_and_resum_one_param", "tpt_extended.expand_and_resum", None),
    ("pdmtpt.cli", "expand_and_resum_two_param", "tpt_extended.expand_and_resum", None),
    ("pdmtpt.tpt_extended", "expand_and_resum_one_param", "tpt_extended.expand_and_resum", None),
    ("pdmtpt.tpt_extended", "expand_and_resum_two_param", "tpt_extended.expand_and_resum", None),
    ("pdmtpt.cli", "closed_form_wavefunction", "tpt_extended.closed_form_wavefunction", None),
    ("pdmtpt.cli", "potential_value", "tpt_extended.potential_value", "x"),
    ("pdmtpt.tpt_extended.ClosedFormWavefunction", "value", "tpt_extended.wavefn_value", "x"),
    ("pdmtpt.tpt_extended", "s_sum", "combinatorics.s_sum", None),
    ("pdmtpt.tpt_extended", "partner_potential", "dsusy_core.partner_potential", None),
    ("pdmtpt.cli", "hermiticity_boundary_check", "dsusy_core.hermiticity_boundary_check", None),
    ("pdmtpt.cli", "solve_spectrum", "numeric_verify.solve_spectrum", "grid_size"),
    ("pdmtpt.cli", "residual", "numeric_verify.residual", None),
    ("pdmtpt.cli", "inner_product", "numeric_verify.inner_product", None),
    ("pdmtpt.cli", "count_nodes", "numeric_verify.count_nodes", None),
    ("pdmtpt.cli", "interior_samples", "numeric_verify.interior_samples", None),
)

# Spans whose return value the benchmark keeps for accuracy bookkeeping.
KEEP_RESULT = frozenset({"numeric_verify.solve_spectrum"})


class Tracer:
    """Collects spans of one process; `op` numbers the current op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.kept: list[tuple[int, str, object]] = []
        self.op = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, points_param=None):
        """`fn` wrapped so that every call records one span.

        `points_param` names the parameter whose size (an array's `size`,
        else the int value, else 1) is recorded as the span's points.
        """
        spans, stack, kept = self.spans, self._stack, self.kept
        keep = name in KEEP_RESULT
        pos, default = -1, None
        if points_param is not None:
            params = inspect.signature(fn).parameters
            pos = list(params).index(points_param)
            default = params[points_param].default

        def traced(*args, **kwargs):
            points = 0
            if pos >= 0:
                v = args[pos] if len(args) > pos else kwargs.get(points_param, default)
                points = v if isinstance(v, int) else getattr(v, "size", 1)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op, points]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if keep:
                kept.append((self.op, name, out))
            return out

        traced.__wrapped__ = fn
        return traced

    def begin_op(self, op: int) -> list:
        """Open the root span of op `op`; close it with `end_op`."""
        self.op = op
        rec = ["op", perf_counter(), 0.0, -1, op, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end_op(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    def install(self, targets=TARGETS) -> None:
        for path, attr, name, points_param in targets:
            owner = _resolve(path)
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.span(name, original, points_param))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start", "end", "parent", "op", "points"))
            out.writerows(self.spans)


def _resolve(path: str):
    """Module, or class inside a module, named by a dotted path."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(path)


def read_csv(path: str) -> list[list]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        return [
            [r[0], float(r[1]), float(r[2]), int(r[3]), int(r[4]), int(r[5])]
            for r in rows
        ]


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its child spans cover.

    Children are clipped to their parent's interval before the union is
    taken, so a child that outlives its parent never yields negative time.
    """
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] >= 0:
            children[rec[PARENT]].append((rec[START], rec[END]))
    out = []
    for i, rec in enumerate(spans):
        lo, hi = rec[START], rec[END]
        kids = [(max(lo, a), min(hi, b)) for a, b in children.get(i, ()) if b > lo and a < hi]
        out.append((hi - lo) - covered(kids))
    return out


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self seconds, summed points."""
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "points": 0}
    )
    for rec, own in zip(spans, self_times(spans)):
        t = totals[rec[NAME]]
        t["calls"] += 1
        t["self_s"] += own
        t["points"] += rec[POINTS]
    return dict(totals)

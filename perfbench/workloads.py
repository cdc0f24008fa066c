"""Seeded command lines for the three benchmark workloads and their census.

Every op is a pdmtpt command line (a list of strings).  The seed fixes the
whole sequence: `Generator(workload, seed).argv(i)` is a pure function of
workload, seed and i, so the program sees only argv that the seed determines.

The timed workloads stay where no op fails, so that the run-to-run figures
measure speed alone:

* build_ladder draws one-parameter ladders up to m = LADDER_ONE_TOP, where
  the two float paths agree to well under the build tolerance;
* verify_mix draws from a committed pool (verify_pool.json, written by
  make_pool.py): seeded draws over the full parameter box that passed every
  check with a margin;
* cli_cold draws shallow wells and verifies the reference wells.

The failures are measured by the census instead (`census`): the ROADMAP
known-defect inputs plus seeded draws over the full box, run once by a
traced run and reported as per-layer failure counts.

Random draws come from a randomized quasi-Monte Carlo sequence (the
additive R_d sequence with a seeded Cranley-Patterson shift), so every
prefix of the sequence covers the parameter box evenly.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "verify_pool.json")

WORKLOADS = ("verify_mix", "build_ladder", "cli_cold")

# (command-flag tuple) for the three ROADMAP reference wells.
REF_WELLS = (
    ("--two", "--m1", "1", "--m2", "1", "--atop", "1", "--btop", "1", "--alpha", "0.5"),
    ("--one", "-m", "1", "--atop", "1", "--alpha", "-0.5"),
    ("--one", "-m", "3", "--atop", "2", "--alpha", "2"),
)
REF_GRIDS = (2000, 4000, 8000, 16000)

# ROADMAP "Known defects" inputs.  `sample --npoints 100000000` is listed
# there too and is never run: it was killed for running out of memory.
DEFECT_VERIFY = (
    ("verify", "--json", "--one", "-m", "1", "--atop", "1", "--alpha", "-0.999"),
    ("verify", "--json", "--two", "--m1", "1", "--m2", "1", "--atop", "1",
     "--btop", "1", "--alpha", "0.99"),
    ("verify", "--json", "--one", "-m", "1", "--atop", "1", "--alpha", "50"),
    ("verify", "--json", "--one", "-m", "1", "--atop", "1", "--alpha", "50",
     "-N", "16000"),
)
DEFECT_EXTEND = (
    ("extend", "--check", "--json", "--one", "-m", "40", "--atop", "1", "--alpha", "-0.5"),
    ("extend", "--check", "--json", "--two", "--m1", "1", "--m2", "1", "--atop", "1",
     "--btop", "1e300", "--alpha", "0.5"),
    ("extend", "--check", "--json", "--one", "-m", "1", "--atop", "inf", "--alpha", "-0.5"),
)

# A deep one-parameter build (m = 12, alpha = 0.5, A_top = 1) joins the
# reference wells in the set-up probe: there the two float paths disagree by
# about 1e-10 relative, while on the reference wells they agree to rounding.
PROBE_EXTEND = tuple(
    ("extend", "--check", "--json") + w
    for w in REF_WELLS + (("--one", "-m", "12", "--atop", "1", "--alpha", "0.5"),)
)
PROBE_VERIFY = tuple(("verify", "--json") + w for w in REF_WELLS)

# -N mix of verify_mix: {2000, 4000 x3, 8000, 16000}.
VERIFY_GRIDS = (2000, 4000, 4000, 4000, 8000, 16000)
SAMPLE_POINTS = 100001

# build_ladder's deepest one-parameter ladder.  From m = 9 some builds at
# |alpha| <= 0.8 raise InternalConsistencyError; at m = 7 the two paths
# agree to within 0.06 of the build tolerance, at m = 8 to within 0.35.
# Two-parameter ladders up to (8, 8) stay within 0.02 of theirs.
LADDER_ONE_TOP = 7
LADDER_PAIR_TOP = 8
# Seeded full-range draws per census, besides the known-defect inputs.
CENSUS_DRAWS = {"verify_mix": 120, "build_ladder": 240, "cli_cold": 6}


def _r_sequence_steps(dim: int) -> tuple[float, ...]:
    """Steps of the R_d sequence: powers of 1/phi_d, phi_d**(d+1) = phi_d + 1."""
    phi = 2.0
    for _ in range(64):
        phi -= (phi ** (dim + 1) - phi - 1.0) / ((dim + 1) * phi**dim - 1.0)
    return tuple(phi ** -(j + 1) for j in range(dim))


_DIM = 5
_STEPS = _r_sequence_steps(_DIM)


class _Stream:
    """Shifted R_5 points u_n in [0, 1)^5 for one (workload, family, seed)."""

    def __init__(self, tag: str, seed: int) -> None:
        rng = random.Random(f"{tag}:{seed}")
        self.shift = tuple(rng.random() for _ in range(_DIM))

    def point(self, n: int) -> tuple[float, ...]:
        return tuple((s + n * g) % 1.0 for s, g in zip(self.shift, _STEPS))


def _pick(options, u: float):
    return options[min(len(options) - 1, int(u * len(options)))]


def _num(x: float) -> str:
    # fixed point: argparse would read "-7e-05" as an option, not a number
    return f"{x:.6f}"


def _ladder_pairs(top: int) -> tuple[tuple[int, int], ...]:
    return tuple(
        (m1, m2) for m1 in range(top + 1) for m2 in range(top + 1) if m1 or m2
    )


def _well_flags(u, one: bool, m_top: int, pair_top: int) -> tuple[str, ...]:
    """Family flags for a seeded extended well: alpha in [-0.8, 0.8] and the
    top coefficients in [0.25, 4], the test suite's own ranges."""
    alpha = _num(-0.8 + 1.6 * u[1])
    atop = _num(0.25 + 3.75 * u[2])
    if one:
        m = 1 + min(m_top - 1, int(u[0] * m_top))
        return ("--one", "-m", str(m), "--atop", atop, "--alpha", alpha)
    m1, m2 = _pick(_ladder_pairs(pair_top), u[0])
    btop = _num(0.25 + 3.75 * u[3])
    return ("--two", "--m1", str(m1), "--m2", str(m2), "--atop", atop,
            "--btop", btop, "--alpha", alpha)


def full_range_verify(u, one: bool) -> tuple[str, ...]:
    """A verify op over the full parameter box: m 1..4 or (m1, m2) in 0..3²."""
    return ("verify", "--json", *_well_flags(u, one, 4, 3), "-N", str(_pick(VERIFY_GRIDS, u[4])))


def full_range_extend(u, one: bool) -> tuple[str, ...]:
    """An extend op over the full parameter box: m 1..16 or (m1, m2) in 0..8²."""
    return ("extend", "--check", "--json", *_well_flags(u, one, 16, 8))


def load_pool(path: str = POOL_PATH) -> tuple[tuple[str, ...], ...]:
    with open(path, encoding="utf-8") as fh:
        return tuple(tuple(a) for a in json.load(fh)["argv"])


def _exact_flags(u) -> tuple[str, ...]:
    alpha = _num(-0.8 + 1.6 * u[1])
    nmax = str(min(5, int(u[4] * 6)))
    a = _num(1.5 + 3.5 * u[2])
    if u[0] < 0.5:
        return ("--one", "-A", a, "--alpha", alpha, "--nmax", nmax)
    b = _num(1.5 + 3.5 * u[3])
    return ("--two", "-A", a, "-B", b, "--alpha", alpha, "--nmax", nmax)


def _cold_well_flags(u, one: bool) -> tuple[str, ...]:
    """cli_cold wells: shallow ladders (m <= 2) at moderate alpha and tops."""
    alpha = _num(-0.5 + 1.0 * u[1])
    atop = _num(0.5 + 1.5 * u[2])
    if one:
        m = 1 + min(1, int(u[0] * 2))
        return ("--one", "-m", str(m), "--atop", atop, "--alpha", alpha)
    m1, m2 = _pick(((1, 0), (0, 1), (1, 1)), u[0])
    btop = _num(0.5 + 1.5 * u[3])
    return ("--two", "--m1", str(m1), "--m2", str(m2), "--atop", atop,
            "--btop", btop, "--alpha", alpha)


def fixed_slice(workload: str) -> tuple[tuple[str, ...], ...]:
    """Ops every run of `workload` starts its timed loop with."""
    if workload == "verify_mix":
        return tuple(
            ("verify", "--json", "-N", str(n)) + w for w in REF_WELLS for n in REF_GRIDS
        )
    if workload in WORKLOADS:
        return ()
    raise ValueError(f"unknown workload {workload!r}")


class Generator:
    """The seeded op sequence of one workload: fixed slice, then draws."""

    def __init__(self, workload: str, seed: int, out_dir: str = "perfbench/out/tmp"):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.fixed = fixed_slice(workload)
        self.out_dir = out_dir
        self._streams = {
            fam: _Stream(f"{workload}:{fam}", seed) for fam in ("a", "b", "c", "d")
        }
        if workload == "verify_mix":
            self.pool = load_pool()
            self.order = list(range(len(self.pool)))
            random.Random(f"{workload}:pool:{seed}").shuffle(self.order)

    def argv(self, i: int) -> list[str]:
        if i < len(self.fixed):
            return list(self.fixed[i])
        j = i - len(self.fixed)
        if self.workload == "cli_cold":
            return list(self._cold(j))
        if self.workload == "verify_mix":
            return list(self.pool[self.order[j % len(self.pool)]])
        fam = "a" if j % 2 == 0 else "b"
        u = self._streams[fam].point(j // 2)
        flags = _well_flags(u, fam == "a", LADDER_ONE_TOP, LADDER_PAIR_TOP)
        return ["extend", "--check", "--json", *flags]

    def _cold(self, j: int) -> tuple[str, ...]:
        cmd = ("exact", "extend", "verify", "sample")[j % 4]
        u = self._streams["abcd"[j % 4]].point(j // 4)
        if cmd == "exact":
            return ("exact", "--json", *_exact_flags(u))
        if cmd == "verify":
            return ("verify", "--json", *_pick(REF_WELLS, u[0]),
                    "-N", str(_pick(REF_GRIDS[:2], u[4])))
        flags = _cold_well_flags(u, u[4] < 0.5)
        if cmd == "extend":
            return ("extend", "--check", "--json", *flags)
        return ("sample", "--json", *flags, "--npoints", str(SAMPLE_POINTS),
                "--out", f"{self.out_dir}/sample.csv")


def census(workload: str, seed: int) -> tuple[tuple[str, ...], ...]:
    """Known-defect inputs plus seeded draws over the full parameter box.

    Nothing is filtered here: these are the inputs the timed workloads leave
    out, and their outcomes are the failure counts of a traced run.  The
    in-process workloads draw their own command; cli_cold alternates pairs of
    verify and extend draws and starts with one typed-error and one uncaught
    defect.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    streams = [_Stream(f"{workload}:census:{fam}", seed) for fam in "ab"]
    draws = []
    for j in range(CENSUS_DRAWS[workload]):
        u, one = streams[j % 2].point(j // 2), j % 2 == 0
        if workload == "verify_mix" or (workload == "cli_cold" and j % 4 < 2):
            draws.append(full_range_verify(u, one))
        else:
            draws.append(full_range_extend(u, one))
    if workload == "verify_mix":
        return DEFECT_VERIFY + tuple(draws)
    if workload == "build_ladder":
        return DEFECT_EXTEND + tuple(draws)
    return (DEFECT_EXTEND[2], DEFECT_VERIFY[0]) + tuple(draws)


def warmup_ops(workload: str, out_dir: str = "perfbench/out/tmp") -> tuple[tuple[str, ...], ...]:
    """Set-up ops: one per command family the workload runs.

    The in-process workloads run every reference well through `verify` and
    the probe builds through `extend --check`; cli_cold runs one cold op per
    subcommand.  The end-to-end accuracy figures are read from these fixed
    ops, except that verify_mix takes its oracle figure from its reference
    slice.
    """
    if workload == "cli_cold":
        return (
            ("exact", "--json", "--two", "-A", "2", "-B", "3", "--alpha", "0.3", "--nmax", "3"),
            PROBE_EXTEND[-1],
            ("verify", "--json") + REF_WELLS[2],
            ("sample", "--json") + REF_WELLS[0]
            + ("--npoints", str(SAMPLE_POINTS), "--out", f"{out_dir}/sample.csv"),
        )
    return PROBE_VERIFY + PROBE_EXTEND

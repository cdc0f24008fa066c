"""Command-line surface: closed-form reports, verification runs, CSV curves.

Exit codes: 0 success, 1 failed verification or invalid parameters,
2 usage errors, 3 an unwritable output path or a closed standard output.

`sample` and `figures` may fork: a curve file is formed on every CPU the
process may use, by writers that end before the command returns.  A block
that a writer does not deliver (it raised, died or could not start) is
formed by the command itself (`_write_curve_file`).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import shutil
import sys
import warnings
from dataclasses import replace

from ._lazy import np
from .numeric_verify import (
    count_nodes,
    gram,
    hermiticity_boundary_check,
    # not called here: perfbench/tracing.py TARGETS resolves it on pdmtpt.cli
    inner_product,
    interior_samples,
    residual,
    solve_spectrum,
)
from .tpt_exact import (
    ExactOneParam,
    ExactTwoParam,
    energy_one_param,
    energy_two_param,
)
from .tpt_extended import (
    ExtendedOneParamSpec,
    InternalConsistencyError,
    build_one_param,
    build_two_param,
    # not called here: perfbench/tracing.py TARGETS resolves them on pdmtpt.cli
    closed_form_wavefunction,
    expand_and_resum_one_param,
    expand_and_resum_two_param,
    potential_value,
)

# The three wells of `figures`, each written under two file names.
_FIGURES = (
    (("fig1", "fig2"), "one", (1, 1.0, -0.5)),
    (("fig3", "fig4"), "two", (1, 1, 1.0, 1.0, 0.5)),
    (("fig5", "fig6"), "two", (1, 0, 1.0, 1.0, 0.5)),
)


# Curve files are evaluated, formatted and written this many rows at a time,
# so no writer's memory (about 2.6 MB) grows with `--npoints`.
_CURVE_BLOCK_ROWS = 8192

# Upper bounds of the sizes a command computes: `--npoints` rows per curve
# file (about 80 bytes each) and `--nmax` + 1 exact energies.
_MAX_NPOINTS = 10_000_000
_MAX_NMAX = 10_000

# One CSV row of four floats; %.17g formats a float exactly as _fmt does.
_CSV_ROW = "%.17g,%.17g,%.17g,%.17g\n"

# verify's value checks: each --json key and the tolerance its value stays below
VERIFY_TOLERANCES = {"spectral_rel_err0": 1e-6, "spectral_rel_err1": 1e-6,
                     "residual_psi0": 1e-7, "residual_psi1": 1e-7, "orthogonality": 1e-8}


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _emit(args, lines: list[str], payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)


def _report(args, payload: dict) -> int:
    """Emit closed-form values as key=value lines; OverflowError if one is inf or nan."""
    if not all(math.isfinite(val) for val in payload.values() if isinstance(val, float)):
        raise OverflowError("a closed-form value is not finite")
    lines = [f"{k}={_fmt(v) if isinstance(v, float) else v}" for k, v in payload.items()]
    _emit(args, lines, payload)
    return 0


# ---------------------------------------------------------------------------
# Spec construction from parsed arguments.


def _extended_spec(args):
    if args.one:
        if args.m is None:
            args.parser.error("--one requires -m")
        if args.m1 is not None or args.m2 is not None or args.btop is not None:
            args.parser.error("--m1/--m2/--btop only apply to --two")
        return build_one_param(args.m, args.atop, args.alpha)
    if args.m1 is None or args.m2 is None or args.btop is None:
        args.parser.error("--two requires --m1, --m2 and --btop")
    if args.m is not None:
        args.parser.error("-m only applies to --one")
    return build_two_param(args.m1, args.m2, args.atop, args.btop, args.alpha)


def _spec_fields(spec) -> dict:
    if isinstance(spec, ExtendedOneParamSpec):
        out = {
            "family": "extended-one",
            "m": spec.m,
            "a_top": spec.a_top,
            "alpha": spec.alpha,
        }
        consts = {f"C{2 * kappa + 1}": c for kappa, c in enumerate(spec.c_odd)}
    else:
        out = {
            "family": "extended-two",
            "m1": spec.m1,
            "m2": spec.m2,
            "a_top": spec.a_top,
            "b_top": spec.b_top,
            "alpha": spec.alpha,
            "reflected": spec.reflected,
        }
        consts = {f"C{p}": c for p, c in enumerate(spec.c, start=1)}
        consts.update((f"D{q}", c) for q, c in enumerate(spec.d, start=1))
    out.update(E0=spec.e0, E1=spec.e1, gap=spec.gap)
    out.update((f"A{2 * k}", c) for k, c in enumerate(spec.a_coeffs, start=1))
    out.update((f"B{2 * l}", c) for l, c in enumerate(spec.b_coeffs, start=1))
    out.update(consts)
    return out


def _params_string(fields: dict) -> str:
    """The build parameters among `_spec_fields`, as k=v joined by ';',
    ending in reflected=True for a well built from an m1 < m2 input."""
    return ";".join(
        f"{k}={_fmt(v) if isinstance(v, float) else v}"
        for k, v in fields.items()
        if k in ("m", "m1", "m2", "a_top", "b_top", "alpha") or (k == "reflected" and v)
    )


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_exact(args) -> int:
    if args.two and args.b is None:
        args.parser.error("--two requires -B")
    if args.one and args.b is not None:
        args.parser.error("-B only applies to --two")
    if args.nmax < 0:
        args.parser.error("--nmax must be nonnegative")
    if args.nmax > _MAX_NMAX:
        args.parser.error(f"--nmax must be at most {_MAX_NMAX}")
    if args.one:
        p = ExactOneParam(args.a, args.alpha)
        payload = {
            "family": "one",
            "A": p.big_a,
            "alpha": p.alpha,
            "Delta": p.delta,
            "lam": p.lam,
            "lam_prime": p.lam_prime,
        }
        energies = [energy_one_param(p, n) for n in range(args.nmax + 1)]
    else:
        p = ExactTwoParam(args.a, args.b, args.alpha)
        payload = {
            "family": "two",
            "A": p.big_a,
            "B": p.big_b,
            "alpha": p.alpha,
            "Delta1": p.delta1,
            "Delta2": p.delta2,
            "lam": p.lam,
            "mu": p.mu,
            "lam_prime": p.lam_prime,
            "mu_prime": p.mu_prime,
        }
        energies = [energy_two_param(p, n) for n in range(args.nmax + 1)]
    for n, e in enumerate(energies):
        payload[f"E{n}"] = e
    return _report(args, payload)


def cmd_extend(args) -> int:
    spec = _extended_spec(args)
    payload = _spec_fields(spec)
    if args.check:
        payload["dual_path_max_discrepancy"] = spec.dual_path
    return _report(args, payload)


def cmd_verify(args) -> int:
    spec = _extended_spec(args)
    numeric_spec = spec
    if args.override_a2 is not None:
        numeric_spec = replace(spec, a_coeffs=(args.override_a2,) + spec.a_coeffs[1:])
    df = spec.deforming
    v = lambda x: potential_value(numeric_spec, x)

    checks: list[tuple[str, bool, str]] = []
    payload: dict = dict(_spec_fields(spec))

    ns = solve_spectrum(v, df, n_levels=2, grid_size=args.grid_size)
    for level, closed in ((0, spec.e0), (1, spec.e1)):
        rel = abs(ns.eigenvalues[level] - closed) / max(1e-300, abs(closed))
        key, name = f"spectral_rel_err{level}", f"spectral level{level}"
        checks.append(_below(payload, key, name, "|dE|/|E|", rel))

    # each sample set below evaluates psi0 and psi1 together
    psi = spec.psi
    samples = interior_samples(df, 41)
    for name, r in zip(("psi0", "psi1"), residual(psi, v, df, (spec.e0, spec.e1), samples)):
        checks.append(_below(payload, f"residual_{name}", f"residual {name}", "max", r))

    # the nodes are counted on the samples of gram's last level
    g, (y0, y1) = gram((psi.value,), df)
    n0 = count_nodes(y0)
    n1 = count_nodes(y1)
    checks.append(("nodes", n0 == 0 and n1 == 1, f"psi0={n0} psi1={n1} (want 0,1)"))
    payload["nodes_psi0"] = n0
    payload["nodes_psi1"] = n1

    norm0 = _norm(g[0, 0], "psi0")
    norm1 = _norm(g[1, 1], "psi1")
    overlap = abs(g[0, 1]) / (norm0 * norm1)
    checks.append(_below(payload, "orthogonality", "orthogonality", "|<0|1>|", overlap))

    for name, bc in zip(("psi0", "psi1"), hermiticity_boundary_check(psi.value, df)):
        checks.append(
            (
                f"hermiticity {name}",
                bc.passed,
                f"limits=({bc.lower_limit:.3e},{bc.upper_limit:.3e})",
            )
        )
        payload[f"hermiticity_{name}"] = bc.passed

    all_pass = all(ok for _, ok, _ in checks)
    payload["pass"] = all_pass
    lines = [
        f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in checks
    ]
    _emit(args, lines, payload)
    return 0 if all_pass else 1


def _below(payload: dict, key: str, name: str, shown: str, value: float) -> tuple:
    """A verify check that passes when value < VERIFY_TOLERANCES[key],
    reported with both; the value goes into the payload under `key`."""
    tol = VERIFY_TOLERANCES[key]
    payload[key] = value
    return (name, value < tol, f"{shown}={value:.3e} (tol {tol:.0e})")


def _norm(norm_sq: float, name: str) -> float:
    """L2 norm of the wavefunction `name` from its squared norm.

    A squared norm of 0 (or one that is not finite) means the wavefunction
    underflows (or overflows) double precision: a precision limit of the
    float evaluation, reported as a one-line ValueError.
    """
    if not 0.0 < norm_sq < math.inf:
        raise ValueError(
            f"precision limit: the squared norm of {name} is {norm_sq:.3g}; "
            "the wavefunction underflows or overflows double precision"
        )
    return math.sqrt(norm_sq)


def _write_curve_file(path: str, spec, npoints: int) -> dict:
    """Write `spec`'s curve file: three header lines, then `npoints` rows
    x,V,psi0,psi1 with psi0 and psi1 divided by their L2 norms.

    The rows are evaluated and formatted in blocks of `_CURVE_BLOCK_ROWS`,
    on P = min(usable CPUs, blocks) processes: this one forks P - 1 writers
    and block k is formed by process k mod P, this one being process 0.
    Every block is written here, in file order, so the file is byte-identical
    for every P, and no process holds more than about one block (about
    2.6 MB), whatever `npoints` is.  With P = 1 (one usable CPU, one block,
    or no `os.fork`) this process forms every block.  A block that its
    writer does not deliver (it raised, died or could not start) is formed
    here too, so an error is raised here as on one CPU; no writer outlives
    the call.
    """
    df = spec.deforming
    lo, hi = df.domain
    inset = 1e-3 * (hi - lo)
    start, stop = lo + inset, hi - inset
    step = (stop - start) / (npoints - 1)
    g, _ = gram((spec.psi.value,), df)
    norm0 = _norm(g[0, 0], "psi0")
    norm1 = _norm(g[1, 1], "psi1")
    fields = _spec_fields(spec)

    def block(k: int) -> bytes:
        first = k * _CURVE_BLOCK_ROWS
        end = min(first + _CURVE_BLOCK_ROWS, npoints)
        # the arithmetic of np.linspace(start, stop, npoints), one block at a time
        xs = np.arange(first, end, dtype=float) * step + start
        if end == npoints:
            xs[-1] = stop
        v = potential_value(spec, xs)
        p0, p1 = spec.psi.value(xs)
        cells = np.stack((xs, v, p0 / norm0, p1 / norm1), axis=1).ravel().tolist()
        return (_CSV_ROW * (end - first) % tuple(cells)).encode()

    header = (
        f"# family={fields['family']}, params={_params_string(fields)}, "
        f"E0={_fmt(spec.e0)}, E1={_fmt(spec.e1)}\n"
        f"# norm_psi0={_fmt(norm0)}, norm_psi1={_fmt(norm1)}\n"
        "x,V,psi0,psi1\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.flush()
        _write_blocks(block, -(-npoints // _CURVE_BLOCK_ROWS), fh.write)
    return {
        "path": path,
        "rows": npoints,
        "E0": spec.e0,
        "E1": spec.e1,
        "norm_psi0": norm0,
        "norm_psi1": norm1,
    }


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_blocks(form, count: int, write) -> None:
    """write(form(k)) for k = 0 .. count - 1, the forms shared round-robin
    by this process and up to `_usable_cpus()` - 1 forked writers.

    The writers only save time: a block that its writer does not deliver
    (it raised, died or could not start) is formed here, so any error is
    raised by this process as it would be on one CPU.  A writer sends each
    block as an 8-byte length and the bytes, stops at its first error and
    ends only through `os._exit`.  Whatever happens here, every pipe is
    closed and every started writer reaped before this returns or raises.
    """
    procs = min(_usable_cpus(), count) if hasattr(os, "fork") else 1
    sys.stdout.flush()
    sys.stderr.flush()
    readers = []  # the pipe from writer w is read through readers[w - 1]
    pids = []
    try:
        for worker in range(1, procs):
            source, sink = os.pipe()
            readers.append(open(source, "rb"))
            try:
                with warnings.catch_warnings():
                    # Python 3.12+ warns on a fork in a process with threads,
                    # as OpenBLAS starts unless OPENBLAS_NUM_THREADS=1.  A
                    # writer runs only NumPy ufuncs and % formatting, never
                    # BLAS, so it never waits on a lock those threads held.
                    warnings.filterwarnings(
                        "ignore", r"This process .* is multi-threaded", DeprecationWarning
                    )
                    pid = os.fork()
                if pid == 0:
                    _writer(form, range(worker, count, procs), sink, readers)
                pids.append(pid)
            except OSError:
                pass  # no writer: its pipe reads as ended, so its blocks are formed here
            finally:
                os.close(sink)
        for k in range(count):
            data = _receive(readers[k % procs - 1]) if k % procs else None
            write(form(k) if data is None else data)
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _writer(form, blocks: range, sink: int, readers: list) -> None:
    """A forked writer's whole life: send form(k) for each k in `blocks`
    through `sink` until the first error, then leave by `os._exit`, never
    returning."""
    try:
        for reader in readers:  # its own pipe's read end and the earlier writers'
            reader.close()
        with open(sink, "wb") as out:
            for k in blocks:
                data = form(k)
                out.write(len(data).to_bytes(8, "little") + data)
                out.flush()
    finally:
        os._exit(0)


def _receive(reader) -> bytes | None:
    """The next block from a writer's pipe, or None once the writer ended
    without sending it whole."""
    size = int.from_bytes(reader.read(8), "little")  # 0 at the pipe's end
    data = reader.read(size)
    return data if 0 < size == len(data) else None


def _check_npoints(args) -> None:
    if args.npoints < 2:
        args.parser.error("--npoints must be at least 2")
    if args.npoints > _MAX_NPOINTS:
        args.parser.error(f"--npoints must be at most {_MAX_NPOINTS}")


def cmd_sample(args) -> int:
    _check_npoints(args)
    spec = _extended_spec(args)
    try:
        info = _write_curve_file(args.out, spec, args.npoints)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 3
    _emit(args, [f"wrote {info['path']} ({info['rows']} rows)"], info)
    return 0


def cmd_figures(args) -> int:
    _check_npoints(args)
    payload = {}
    lines = []
    try:
        os.makedirs(args.outdir, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot write {args.outdir}: {exc}", file=sys.stderr)
        return 3
    for names, family, params in _FIGURES:
        spec = (
            build_one_param(*params) if family == "one" else build_two_param(*params)
        )
        params_string = _params_string(_spec_fields(spec))
        paths = [os.path.join(args.outdir, f"{name}.csv") for name in names]
        for name, path in zip(names, paths):
            try:
                if path == paths[0]:
                    _write_curve_file(path, spec, args.npoints)
                else:
                    shutil.copyfile(paths[0], path)
            except OSError as exc:
                print(f"error: cannot write {path}: {exc}", file=sys.stderr)
                return 3
            payload[name] = path
            lines.append(f"wrote {path} ({params_string})")
    _emit(args, lines, payload)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly.


def _add_family_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--one", action="store_true", help="one-parameter family")
    group.add_argument("--two", action="store_true", help="two-parameter family")


def _add_extended_flags(sub: argparse.ArgumentParser) -> None:
    _add_family_flags(sub)
    sub.add_argument("-m", type=int, default=None, help="ladder depth (--one)")
    sub.add_argument("--m1", type=int, default=None, help="sec ladder depth (--two)")
    sub.add_argument("--m2", type=int, default=None, help="csc ladder depth (--two)")
    sub.add_argument(
        "--atop", type=float, required=True, help="top sec coefficient A_{4m+2}"
    )
    sub.add_argument(
        "--btop", type=float, default=None, help="top csc coefficient (--two)"
    )
    sub.add_argument("--alpha", type=float, required=True, help="deformation strength")


class _Parser(argparse.ArgumentParser):
    """An argument that looks like a number is a value.

    argparse reads an argument that starts with "-" as an option unless it
    looks like a negative number, its pattern (Python 3.11) has no exponent,
    inf or nan, and it tries option prefixes first: alone, it takes
    `--alpha -1e-3` for a missing value and `--alpha -NaN` for verify's `-N`
    with the value "aN", while `--alpha=-1e-3` is read.  No option here
    looks like a number, so such an argument goes to float() to read or
    refuse; `-N256` is still `-N 256`.  Subparsers are built from this class
    too."""

    _NUMBER = re.compile(r"-\.?\d|-inf|-nan", re.IGNORECASE)

    def _parse_optional(self, arg_string):
        if self._NUMBER.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process.

    argparse keeps no state between `parse_args` calls: each returns a new
    namespace filled from the defaults.  A subparser is stored as `parser`
    for the commands' own usage errors; the command itself is not stored
    but looked up as `cmd_<command>` when `main` calls it.
    """
    parser = _Parser(
        prog="pdmtpt",
        description="Closed-form deformed trigonometric wells and their verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="exactly solvable spectra")
    _add_family_flags(p_exact)
    p_exact.add_argument("-A", dest="a", type=float, required=True)
    p_exact.add_argument("-B", dest="b", type=float, default=None)
    p_exact.add_argument("--alpha", type=float, required=True)
    p_exact.add_argument("--nmax", type=int, default=0)
    p_exact.add_argument("--json", action="store_true")
    p_exact.set_defaults(parser=p_exact)

    p_extend = sub.add_parser("extend", help="build a quasi-exactly solvable extension")
    _add_extended_flags(p_extend)
    p_extend.add_argument(
        "--check",
        action="store_true",
        help="print the largest dual-path discrepancy the build measured",
    )
    p_extend.add_argument("--json", action="store_true")
    p_extend.set_defaults(parser=p_extend)

    p_verify = sub.add_parser("verify", help="verify closed forms against the oracle")
    _add_extended_flags(p_verify)
    p_verify.add_argument("-N", "--grid-size", type=int, default=4000)
    p_verify.add_argument(
        "--override-a2",
        type=float,
        default=None,
        help="replace A_2 in the evaluated potential (fault injection)",
    )
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(parser=p_verify)

    p_sample = sub.add_parser("sample", help="emit one CSV of x,V,psi0,psi1")
    _add_extended_flags(p_sample)
    p_sample.add_argument("--npoints", type=int, default=1001)
    p_sample.add_argument("--out", required=True, help="output CSV path")
    p_sample.add_argument("--json", action="store_true")
    p_sample.set_defaults(parser=p_sample)

    p_fig = sub.add_parser("figures", help="emit fig1.csv..fig6.csv")
    p_fig.add_argument("--outdir", default=".")
    p_fig.add_argument("--npoints", type=int, default=1001)
    p_fig.add_argument("--json", action="store_true")
    p_fig.set_defaults(parser=p_fig)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so that a wrapper put on the module attribute after
    # the parser was built (as perfbench's tracing does) is the one called
    command = globals()[f"cmd_{args.command}"]
    try:
        rc = command(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return rc
    except BrokenPipeError as exc:
        # what is still buffered goes to os.devnull, so exit reports nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        return 3
    except (ValueError, InternalConsistencyError, OverflowError) as exc:
        # OverflowError: a float ** or sum past the largest double on either
        # path, or a value _report refuses
        if isinstance(exc, OverflowError):
            exc = ValueError("precision limit: a float value overflows double precision")
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

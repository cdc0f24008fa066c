"""Command-line surface: closed-form reports, verification runs, CSV curves.

Exit codes: 0 success, 1 failed verification or invalid parameters,
2 usage errors, 3 unwritable output path.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

from ._lazy import np
from .dsusy_core import hermiticity_boundary_check
from .numeric_verify import (
    count_nodes,
    gram,
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
    closed_form_wavefunction,
    expand_and_resum_one_param,
    expand_and_resum_two_param,
    potential_value,
)

_FIGURES = {
    "fig1": ("one", (1, 1.0, -0.5)),
    "fig2": ("one", (1, 1.0, -0.5)),
    "fig3": ("two", (1, 1, 1.0, 1.0, 0.5)),
    "fig4": ("two", (1, 1, 1.0, 1.0, 0.5)),
    "fig5": ("two", (1, 0, 1.0, 1.0, 0.5)),
    "fig6": ("two", (1, 0, 1.0, 1.0, 0.5)),
}


# Curve files are evaluated and written this many rows at a time.
_CURVE_BLOCK_ROWS = 131072

# One CSV row of four floats, formatted like _fmt.
_CSV_ROW = "{:.17g},{:.17g},{:.17g},{:.17g}\n".format


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
            "E0": spec.e0,
            "E1": spec.e1,
            "gap": spec.gap,
        }
        for k, c in enumerate(spec.coeffs, start=1):
            out[f"A{2 * k}"] = c
        for kappa, c in enumerate(spec.c_odd):
            out[f"C{2 * kappa + 1}"] = c
        return out
    out = {
        "family": "extended-two",
        "m1": spec.m1,
        "m2": spec.m2,
        "a_top": spec.a_top,
        "b_top": spec.b_top,
        "alpha": spec.alpha,
        "reflected": spec.reflected,
        "E0": spec.e0,
        "E1": spec.e1,
        "gap": spec.gap,
    }
    for k, c in enumerate(spec.a_coeffs, start=1):
        out[f"A{2 * k}"] = c
    for l, c in enumerate(spec.b_coeffs, start=1):
        out[f"B{2 * l}"] = c
    for p, c in enumerate(spec.c, start=1):
        out[f"C{p}"] = c
    for q, c in enumerate(spec.d, start=1):
        out[f"D{q}"] = c
    return out


def _params_string(spec) -> str:
    if isinstance(spec, ExtendedOneParamSpec):
        return f"m={spec.m};a_top={_fmt(spec.a_top)};alpha={_fmt(spec.alpha)}"
    return (
        f"m1={spec.m1};m2={spec.m2};a_top={_fmt(spec.a_top)};"
        f"b_top={_fmt(spec.b_top)};alpha={_fmt(spec.alpha)}"
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
        if isinstance(spec, ExtendedOneParamSpec):
            e0x, ax = expand_and_resum_one_param(spec.m, spec.a_top, spec.alpha)
            diffs = [abs(spec.e0 - e0x)]
            diffs += [abs(c - x) for c, x in zip(spec.coeffs, ax)]
        else:
            e0x, ax, bx = expand_and_resum_two_param(
                spec.m1, spec.m2, spec.a_top, spec.b_top, spec.alpha
            )
            diffs = [abs(spec.e0 - e0x)]
            diffs += [abs(c - x) for c, x in zip(spec.a_coeffs, ax)]
            diffs += [abs(c - x) for c, x in zip(spec.b_coeffs, bx)]
        payload["dual_path_max_discrepancy"] = max(diffs)
    return _report(args, payload)


def cmd_verify(args) -> int:
    spec = _extended_spec(args)
    numeric_spec = spec
    if args.override_a2 is not None:
        if isinstance(spec, ExtendedOneParamSpec):
            numeric_spec = replace(
                spec, coeffs=(args.override_a2,) + spec.coeffs[1:]
            )
        else:
            numeric_spec = replace(
                spec, a_coeffs=(args.override_a2,) + spec.a_coeffs[1:]
            )
    df = spec.deforming
    v = lambda x: potential_value(numeric_spec, x)

    checks: list[tuple[str, bool, str]] = []
    payload: dict = dict(_spec_fields(spec))

    ns = solve_spectrum(v, df, n_levels=2, grid_size=args.grid_size)
    for level, closed in ((0, spec.e0), (1, spec.e1)):
        rel = abs(ns.eigenvalues[level] - closed) / max(1e-300, abs(closed))
        checks.append(_below(f"spectral level{level}", "|dE|/|E|", rel, 1e-6))
        payload[f"spectral_rel_err{level}"] = rel

    psi0 = closed_form_wavefunction(spec, 0)
    psi1 = closed_form_wavefunction(spec, 1)
    samples = interior_samples(df, 41)
    for name, psi, energy in (("psi0", psi0, spec.e0), ("psi1", psi1, spec.e1)):
        r = residual(psi.value, v, df, energy, samples)
        checks.append(_below(f"residual {name}", "max", r, 1e-7))
        payload[f"residual_{name}"] = r

    lo, hi = df.domain
    inset = 1e-6 * (hi - lo)
    xs = np.linspace(lo + inset, hi - inset, 4001)
    n0 = count_nodes(psi0.value(xs))
    n1 = count_nodes(psi1.value(xs))
    checks.append(("nodes", n0 == 0 and n1 == 1, f"psi0={n0} psi1={n1} (want 0,1)"))
    payload["nodes_psi0"] = n0
    payload["nodes_psi1"] = n1

    g = gram((psi0.value, psi1.value), df)
    norm0 = _norm(g[0, 0], "psi0")
    norm1 = _norm(g[1, 1], "psi1")
    overlap = abs(g[0, 1]) / (norm0 * norm1)
    checks.append(_below("orthogonality", "|<0|1>|", overlap, 1e-8))
    payload["orthogonality"] = overlap

    for name, psi in (("psi0", psi0), ("psi1", psi1)):
        bc = hermiticity_boundary_check(psi.value, df)
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


def _below(name: str, shown: str, value: float, tol: float) -> tuple[str, bool, str]:
    """A verify check that passes when value < tol, reported with both."""
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
    df = spec.deforming
    lo, hi = df.domain
    inset = 1e-3 * (hi - lo)
    start, stop = lo + inset, hi - inset
    step = (stop - start) / (npoints - 1)
    psi0 = closed_form_wavefunction(spec, 0)
    psi1 = closed_form_wavefunction(spec, 1)
    norm0 = _norm(inner_product(psi0.value, psi0.value, df), "psi0")
    norm1 = _norm(inner_product(psi1.value, psi1.value, df), "psi1")
    family = "extended-one" if isinstance(spec, ExtendedOneParamSpec) else "extended-two"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# family={family}, params={_params_string(spec)}, "
            f"E0={_fmt(spec.e0)}, E1={_fmt(spec.e1)}\n"
        )
        fh.write(f"# norm_psi0={_fmt(norm0)}, norm_psi1={_fmt(norm1)}\n")
        fh.write("x,V,psi0,psi1\n")
        for first in range(0, npoints, _CURVE_BLOCK_ROWS):
            end = min(first + _CURVE_BLOCK_ROWS, npoints)
            # the arithmetic of np.linspace(start, stop, npoints), one block
            # at a time, so memory does not grow with npoints
            xs = np.arange(first, end, dtype=float) * step + start
            if end == npoints:
                xs[-1] = stop
            v = potential_value(spec, xs)
            p0 = psi0.value(xs) / norm0
            p1 = psi1.value(xs) / norm1
            columns = (xs.tolist(), v.tolist(), p0.tolist(), p1.tolist())
            fh.writelines(map(_CSV_ROW, *columns))
    return {
        "path": path,
        "rows": npoints,
        "E0": spec.e0,
        "E1": spec.e1,
        "norm_psi0": norm0,
        "norm_psi1": norm1,
    }


def cmd_sample(args) -> int:
    if args.npoints < 2:
        args.parser.error("--npoints must be at least 2")
    spec = _extended_spec(args)
    try:
        info = _write_curve_file(args.out, spec, args.npoints)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 3
    _emit(args, [f"wrote {info['path']} ({info['rows']} rows)"], info)
    return 0


def cmd_figures(args) -> int:
    if args.npoints < 2:
        args.parser.error("--npoints must be at least 2")
    payload = {}
    lines = []
    for name, (family, params) in _FIGURES.items():
        spec = (
            build_one_param(*params) if family == "one" else build_two_param(*params)
        )
        path = f"{args.outdir.rstrip('/')}/{name}.csv"
        try:
            os.makedirs(args.outdir, exist_ok=True)
            info = _write_curve_file(path, spec, args.npoints)
        except OSError as exc:
            print(f"error: cannot write {path}: {exc}", file=sys.stderr)
            return 3
        payload[name] = info["path"]
        lines.append(f"wrote {info['path']} ({_params_string(spec)})")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_exact.set_defaults(func=cmd_exact, parser=p_exact)

    p_extend = sub.add_parser("extend", help="build a quasi-exactly solvable extension")
    _add_extended_flags(p_extend)
    p_extend.add_argument(
        "--check",
        action="store_true",
        help="re-run the dual-path comparison and print the max discrepancy",
    )
    p_extend.add_argument("--json", action="store_true")
    p_extend.set_defaults(func=cmd_extend, parser=p_extend)

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
    p_verify.set_defaults(func=cmd_verify, parser=p_verify)

    p_sample = sub.add_parser("sample", help="emit one CSV of x,V,psi0,psi1")
    _add_extended_flags(p_sample)
    p_sample.add_argument("--npoints", type=int, default=1001)
    p_sample.add_argument("--out", required=True, help="output CSV path")
    p_sample.add_argument("--json", action="store_true")
    p_sample.set_defaults(func=cmd_sample, parser=p_sample)

    p_fig = sub.add_parser("figures", help="emit fig1.csv..fig6.csv")
    p_fig.add_argument("--outdir", default=".")
    p_fig.add_argument("--npoints", type=int, default=1001)
    p_fig.add_argument("--json", action="store_true")
    p_fig.set_defaults(func=cmd_figures, parser=p_fig)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, InternalConsistencyError, OverflowError) as exc:
        # OverflowError: a float ** past the largest double, or a value _report refuses
        if isinstance(exc, OverflowError):
            exc = ValueError("precision limit: the closed forms overflow double precision")
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

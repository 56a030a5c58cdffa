"""Command-line interface.

Subcommands: profile, section, center, detect, reconstruct, mvt.
Exit codes: 0 quadric / success, 1 non-quadric (or non-central), 2 errors.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .detect import center_heights, detect_quadric, sweep_intercepts
from .errors import InvalidDomain, ParseError, RevquadError
from .formats import center_curve_csv, centrality_json, fmt, loop_csv, loop_svg, verdict_json
from .profiles import parse_profile, preset_lines
from .sections import Plane, slope_bound, trace_section
from .symmetry import centrality, max_midpoint_residual

MVT_QUADRATIC_GATE = 1e-9


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_profile_arg(p, required=True):
    p.add_argument(
        "--profile",
        required=required,
        help="profile spec: quadric:a,b,c,q | poly:c0,...,cn;q | samples:<path> | preset",
    )


def _add_out_args(p):
    p.add_argument("--out", default=None, help="output path (default: standard output)")


def _build_parser():
    top = argparse.ArgumentParser(
        prog="revquad",
        description="Cross-sections of surfaces of revolution: symmetry tests and quadric detection.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="evaluate a profile and its derivative")
    _add_profile_arg(p, required=False)
    p.add_argument("--z", type=float, default=None, help="height to evaluate at")
    p.add_argument("--list", action="store_true", help="list the built-in presets")
    p.add_argument("--json", action="store_true")
    _add_out_args(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("section", help="trace a section loop to CSV or SVG")
    _add_profile_arg(p)
    p.add_argument("--slope", type=float, required=True, help="plane slope m >= 0")
    p.add_argument("--intercept", type=float, required=True, help="plane intercept beta")
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--format", dest="fmt", choices=("csv", "svg"), default="csv")
    p.add_argument("--embed", action="store_true", help="emit 3-d x,y,z rows instead of the chart")
    p.add_argument("--tol", type=float, default=1e-4, help="centrality tolerance (svg overlay)")
    _add_out_args(p)
    p.set_defaults(func=cmd_section)

    p = sub.add_parser("center", help="trace a section and report its centrality")
    _add_profile_arg(p)
    p.add_argument("--slope", type=float, required=True)
    p.add_argument("--intercept", type=float, required=True)
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--tol", type=float, default=1e-4)
    _add_out_args(p)
    p.set_defaults(func=cmd_center)

    p = sub.add_parser("detect", help="decide whether the profile is quadric")
    _add_profile_arg(p)
    p.add_argument("--delta", type=float, default=None, help="slab margin (default 0.1 q)")
    p.add_argument("--planes", type=int, default=17)
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--workers", type=_positive_int, default=1)
    _add_out_args(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("reconstruct", help="reconstruct F' from section center heights")
    _add_profile_arg(p)
    p.add_argument("--delta", type=float, default=None, help="slab margin (default 0.1 q)")
    p.add_argument("--planes", type=int, default=17)
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument(
        "--slope",
        type=float,
        default=None,
        help="plane slope (default mu/2; note the reconstruction error scales "
        "like 1/m^2, so moderate explicit slopes give tighter tables)",
    )
    _add_out_args(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("mvt", help="midpoint mean-value test for a polynomial")
    p.add_argument("--poly", required=True, help="ascending coefficients c0,c1,...")
    p.add_argument("--grid", type=int, default=21, help="grid points per axis")
    p.add_argument("--json", action="store_true")
    _add_out_args(p)
    p.set_defaults(func=cmd_mvt)

    return top


def _emit(args, text):
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="") as handle:
            handle.write(text)


def cmd_profile(args):
    if args.list:
        _emit(args, "\n".join(preset_lines()) + "\n")
        return 0
    if args.profile is None or args.z is None:
        raise InvalidDomain("profile evaluation needs --profile and --z (or use --list)")
    prof = parse_profile(args.profile)
    value = prof.eval(args.z)
    deriv = prof.derivative(args.z)
    if args.json:
        text = json.dumps({"z": args.z, "value": value, "derivative": deriv}, indent=2) + "\n"
    else:
        text = f"{fmt(value)}\n{fmt(deriv)}\n"
    _emit(args, text)
    return 0


def cmd_section(args):
    prof = parse_profile(args.profile)
    loop = trace_section(prof, Plane(args.slope, args.intercept), args.samples)
    if args.fmt == "csv":
        text = loop_csv(loop, embed=args.embed)
    else:
        report = centrality(loop, args.tol)
        text = loop_svg(loop, report)
    _emit(args, text)
    return 0


def cmd_center(args):
    prof = parse_profile(args.profile)
    loop = trace_section(prof, Plane(args.slope, args.intercept), args.samples)
    report = centrality(loop, args.tol)
    _emit(args, centrality_json(report))
    return 0 if report.central else 1


def cmd_detect(args):
    prof = parse_profile(args.profile)
    delta = 0.1 * prof.q if args.delta is None else args.delta
    verdict = detect_quadric(
        prof, delta, args.planes, args.samples, args.tol, workers=args.workers
    )
    _emit(args, verdict_json(verdict))
    return 0 if verdict.is_quadric else 1


def cmd_reconstruct(args):
    prof = parse_profile(args.profile)
    delta = 0.1 * prof.q if args.delta is None else args.delta
    if args.slope is None:
        m = 0.5 * slope_bound(prof, delta)
        slab = delta
    else:
        m = args.slope
        slab = None  # caller-chosen slopes carry no slab guarantee
    betas = sweep_intercepts(prof.q, delta, args.planes)
    curve = center_heights(prof, m, betas, args.samples, args.tol, delta=slab)
    _emit(args, center_curve_csv(curve, prof))
    return 0


def cmd_mvt(args):
    try:
        coeffs = [float(tok) for tok in args.poly.split(",")]
    except ValueError:
        raise ParseError(f"bad coefficient list {args.poly!r}") from None
    if not np.all(np.isfinite(coeffs)):
        raise ParseError(f"coefficients must be finite, got {args.poly!r}")
    if args.grid < 2:
        raise InvalidDomain("need at least a 2x2 grid")

    f = np.polynomial.Polynomial(coeffs)
    k = args.grid
    zetas = np.linspace(-1.0, 1.0, k)
    ts = np.arange(1, k + 1) / k
    worst = max_midpoint_residual(f, f.deriv(), zetas, ts)
    quadratic = worst <= MVT_QUADRATIC_GATE
    verdict = "quadratic" if quadratic else "not-quadratic"
    if args.json:
        text = json.dumps({"max_residual": worst, "verdict": verdict}, indent=2) + "\n"
    else:
        text = f"max residual {fmt(worst)}\n{verdict}\n"
    _emit(args, text)
    return 0 if quadratic else 1


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RevquadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    raise SystemExit(main())

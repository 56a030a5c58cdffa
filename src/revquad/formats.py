"""Deterministic text serializations: loop CSV, report/verdict JSON, loop SVG.

Numbers are emitted with Python's shortest round-trip repr, so parsing any
emitted CSV or JSON reproduces the original float64 values bit for bit.
Identical inputs always produce identical bytes; the SVG carries no
timestamps or other environment-dependent metadata.
"""

from __future__ import annotations

import json

import numpy as np

from .detect import derivative_from_centers
from .sections import embed_3d

__all__ = [
    "fmt",
    "loop_csv",
    "loop_svg",
    "centrality_json",
    "verdict_json",
    "center_curve_csv",
]


def fmt(x):
    """Shortest decimal string that round-trips the float64 value."""
    return repr(float(x))


def loop_csv(loop, embed=False):
    """CSV of the loop: header then one row per point in traversal order.

    Chart output has header ``y,z``; embedded output has ``x,y,z``.  The
    first row is repeated at the end to mark closure.
    """
    if embed:
        header = "x,y,z"
        rows = embed_3d(loop)
    else:
        header = "y,z"
        rows = loop.points
    lines = [header]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    lines.append(lines[1])
    return "\n".join(lines) + "\n"


def centrality_json(report):
    obj = {
        "center_y": report.center[0],
        "center_z": report.center[1],
        "asymmetry": report.asymmetry,
        "tol": report.tolerance,
        "central": report.central,
    }
    return json.dumps(obj, indent=2) + "\n"


def verdict_json(verdict):
    params = verdict.params
    witness = None
    if verdict.witness is not None:
        plane, report = verdict.witness
        witness = {
            "m": plane.m,
            "beta": plane.beta,
            "asymmetry": report.asymmetry,
            "center_z": report.center[1],
        }
    obj = {
        "is_quadric": verdict.is_quadric,
        "a": params.a if params else None,
        "b": params.b if params else None,
        "c": params.c if params else None,
        "fit_residual": verdict.fit_residual,
        "witness": witness,
        "planes_tested": verdict.planes_tested,
        "epsilon": verdict.epsilon,
        "delta": verdict.delta,
        "slope": verdict.slope,
        "central_but_fit_failed": verdict.central_but_fit_failed,
    }
    return json.dumps(obj, indent=2) + "\n"


def center_curve_csv(curve, profile):
    """Reconstruction table: one row per plane of the center curve."""
    lines = ["beta,zeta,fprime_reconstructed,fprime_analytic,abs_error"]
    for e, (_, rec) in zip(curve.entries, derivative_from_centers(curve)):
        ana = profile.derivative(e.zeta)
        lines.append(
            ",".join(fmt(v) for v in (e.beta, e.zeta, rec, ana, abs(rec - ana)))
        )
    return "\n".join(lines) + "\n"


def loop_svg(loop, report):
    """SVG overlaying the loop, its reflection through the center, and a marker.

    The reflection coincides with the loop exactly when the loop is
    centrally symmetric, so the picture doubles as a visual symmetry test.
    """
    pts = loop.points
    cx, cz = report.center
    refl = 2.0 * np.array([cx, cz]) - pts

    allpts = np.vstack([pts, refl])
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-30))
    pad = 0.06 * span

    # chart (y, z) -> svg (u, v) with z up
    def u(y):
        return y - lo[0] + pad

    def v(z):
        return (hi[1] + pad) - z

    width = (hi[0] - lo[0]) + 2.0 * pad
    height = (hi[1] - lo[1]) + 2.0 * pad
    stroke = 0.004 * span
    marker = 0.012 * span

    def poly(arr):
        return " ".join(f"{fmt(u(p[0]))},{fmt(v(p[1]))}" for p in arr)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {fmt(width)} {fmt(height)}">',
        f'  <desc>section loop m={fmt(loop.plane.m)} beta={fmt(loop.plane.beta)} '
        f'asymmetry={fmt(report.asymmetry)}</desc>',
        f'  <polygon points="{poly(pts)}" fill="none" stroke="#1f6fb4" '
        f'stroke-width="{fmt(stroke)}"/>',
        f'  <polygon points="{poly(refl)}" fill="none" stroke="#c8401f" '
        f'stroke-width="{fmt(stroke)}" stroke-dasharray="{fmt(4 * stroke)}"/>',
        f'  <circle cx="{fmt(u(cx))}" cy="{fmt(v(cz))}" r="{fmt(marker)}" fill="#222222"/>',
        "</svg>",
    ]
    return "\n".join(lines) + "\n"

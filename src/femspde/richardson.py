"""Richardson extrapolation: mixture coefficients, trajectory errors, order fits.

A single extra mesh level buys two orders of accuracy here because the
scheme's error expands in even powers of h only; halving h scales the k-th
error term by ratio^k with ratio = 2^-2.  The mixture coefficients solve

    sum_j c_j = 1,      sum_j c_j ratio^(k j) = 0   for k = 1..jbar,

a transposed Vandermonde system.  The ratio is configurable so that the
alternative spacing 2^-4 can be run side by side; the convergence study
discriminates empirically which one cancels the leading error term.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass

import numpy as np

from .lattice import GridFunction, TorusLattice, format_float, norms_0h, restrict

RATIO_QUARTER = 0.25
RATIO_SIXTEENTH = 0.0625
MIN_LADDER = 3  # meshes an order fit needs


def extrapolation_coefficients(jbar: int, ratio: float = RATIO_QUARTER) -> np.ndarray:
    """Mixture coefficients c_0..c_jbar eliminating the first jbar error terms."""
    if jbar < 0:
        raise ValueError("jbar must be >= 0")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
    m = jbar + 1
    vand = np.empty((m, m))
    for k in range(m):
        for j in range(m):
            vand[k, j] = ratio ** (k * j)
    rhs = np.zeros(m)
    rhs[0] = 1.0
    if jbar > 6:
        cond = float(np.linalg.cond(vand))
        warnings.warn(
            f"extrapolation system for jbar={jbar} is ill-conditioned (cond ~ {cond:.3e})",
            RuntimeWarning,
            stacklevel=2,
        )
    coeffs = np.linalg.solve(vand, rhs)
    residual = float(np.max(np.abs(vand @ coeffs - rhs)))
    if residual > 1e-12:
        raise ValueError(f"coefficient system residual {residual:.3e} exceeds 1e-12")
    return coeffs


def trajectory_error(
    states: list[GridFunction], ref_states: list[GridFunction], lattice: TorusLattice
) -> np.ndarray:
    """Per sample, the max over recorded times of the norm of the difference,
    both restricted."""
    if len(states) != len(ref_states):
        raise ValueError("trajectories record different numbers of states")
    worst = 0.0
    for u, ref in zip(states, ref_states):
        diff = restrict(u, lattice).values - restrict(ref, lattice).values
        worst = np.maximum(worst, norms_0h(lattice, diff))
    return worst


def estimate_order(errors: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(error) against log(h)."""
    if len(errors) < MIN_LADDER:
        raise ValueError(f"order estimation needs at least {MIN_LADDER} mesh levels")
    hs = np.asarray([h for h, _ in errors], dtype=float)
    es = np.asarray([e for _, e in errors], dtype=float)
    if len(set(hs.tolist())) != len(hs):
        raise ValueError("mesh sizes must be distinct")
    if np.any(es <= 0.0):
        raise ValueError(f"an order fit needs positive errors, got {es.tolist()} (a zero "
                         "error means the scheme reproduces the solution on that mesh)")
    slope, _ = np.polyfit(np.log(hs), np.log(es), 1)
    return float(slope)


@dataclass
class ConvergenceReport:
    """Per-mesh errors with local orders and the fitted global order."""

    label: str
    hs: list[float]
    ns: list[int]
    errors: list[float]

    @property
    def local_orders(self) -> list[float | None]:
        out: list[float | None] = [None]
        for k in range(1, len(self.hs)):
            num = np.log(self.errors[k - 1] / self.errors[k])
            den = np.log(self.hs[k - 1] / self.hs[k])
            out.append(float(num / den))
        return out

    @property
    def fitted_order(self) -> float:
        return estimate_order(list(zip(self.hs, self.errors)))

    def to_csv(self) -> str:
        """The report as CSV text; estimate_order's ValueError when an error is not positive."""
        fitted = format_float(self.fitted_order)  # checks the errors before local_orders divides
        buf = io.StringIO()
        buf.write("h,n,error,order_local\n")
        for h, n, e, o in zip(self.hs, self.ns, self.errors, self.local_orders):
            cols = [format_float(h), str(n), format_float(e), "" if o is None else format_float(o)]
            buf.write(",".join(cols) + "\n")
        buf.write(f"fitted_order,,,{fitted}\n")
        return buf.getvalue()


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


# html.escape's replacements, in one pass, without importing html
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "'": "&#x27;"})


def loglog_svg(reports: list[ConvergenceReport]) -> str:
    """The text of an SVG log-log plot of error against h, one polyline per
    report, with decade ticks and a legend giving each report's fitted order."""
    width, height, pad = 480, 360, 60
    log_h = np.log10([h for r in reports for h in r.hs])
    log_e = np.log10([e for r in reports for e in r.errors])
    x_lo, y_lo = np.floor(log_h.min()), np.floor(log_e.min())
    x_hi, y_hi = max(np.ceil(log_h.max()), x_lo + 1), max(np.ceil(log_e.max()), y_lo + 1)

    def px(h: float) -> float:
        return pad + (np.log10(h) - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def py(e: float) -> float:
        return height - pad - (np.log10(e) - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" height="{height - 2 * pad}" '
        'fill="none" stroke="black"/>',
    ]
    for k in range(int(x_lo), int(x_hi) + 1):
        x = px(10.0**k)
        out.append(f'<line x1="{x:.1f}" y1="{pad}" x2="{x:.1f}" y2="{height - pad}" stroke="#ddd"/>')
        out.append(f'<text x="{x:.1f}" y="{height - pad + 15}" text-anchor="middle">1e{k}</text>')
    for k in range(int(y_lo), int(y_hi) + 1):
        y = py(10.0**k)
        out.append(f'<line x1="{pad}" y1="{y:.1f}" x2="{width - pad}" y2="{y:.1f}" stroke="#ddd"/>')
        out.append(f'<text x="{pad - 5}" y="{y + 4:.1f}" text-anchor="end">1e{k}</text>')
    out.append(f'<text x="{width / 2}" y="{height - 15}" text-anchor="middle">h</text>')
    out.append(f'<text x="15" y="{height / 2}" text-anchor="middle" '
               f'transform="rotate(-90 15 {height / 2})">error</text>')
    for i, report in enumerate(reports):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        points = " ".join(f"{px(h):.1f},{py(e):.1f}" for h, e in zip(report.hs, report.errors))
        out.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        label = f"{report.label} (order {report.fitted_order:.2f})".translate(_ESCAPES)
        out.append(f'<text x="{pad + 10}" y="{pad + 18 + 15 * i}" fill="{color}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"

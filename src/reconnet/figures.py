"""Standalone SVG figures: eigenvalue clouds, rho scans, ROC curves, histograms.

Hand-rolled SVG keeps the artifacts dependency-free, diff-able in review
and byte-reproducible (no timestamps, fixed float formatting).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62, 18, 34, 48

_PALETTE = ["#2e74b5", "#e07b39", "#5a9e6f", "#b05adc", "#c44e52", "#777777"]


def _f(x) -> str:
    return format(float(x), ".6g")


class _Canvas:
    """Linear data-to-pixel mapping plus element accumulation."""

    def __init__(self, x_min, x_max, y_min, y_max, title="", xlabel="", ylabel=""):
        if x_max <= x_min:
            x_min, x_max = x_min - 0.5, x_min + 0.5
        if y_max <= y_min:
            y_min, y_max = y_min - 0.5, y_min + 0.5
        self.x_min, self.x_max = x_min, x_max
        self.y_min, self.y_max = y_min, y_max
        self.parts: list[str] = []
        self._frame(title, xlabel, ylabel)

    def x(self, v) -> float:
        span = self.x_max - self.x_min
        return MARGIN_L + (v - self.x_min) / span * (WIDTH - MARGIN_L - MARGIN_R)

    def y(self, v) -> float:
        span = self.y_max - self.y_min
        return HEIGHT - MARGIN_B - (v - self.y_min) / span * (HEIGHT - MARGIN_T - MARGIN_B)

    def _frame(self, title, xlabel, ylabel):
        p = self.parts
        p.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
        x0, x1 = MARGIN_L, WIDTH - MARGIN_R
        y0, y1 = MARGIN_T, HEIGHT - MARGIN_B
        p.append(f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" '
                 'fill="none" stroke="#333333" stroke-width="1"/>')
        for tick in np.linspace(self.x_min, self.x_max, 5):
            px = self.x(tick)
            p.append(f'<line x1="{_f(px)}" y1="{y1}" x2="{_f(px)}" y2="{y1 + 4}" '
                     'stroke="#333333" stroke-width="1"/>')
            p.append(f'<text x="{_f(px)}" y="{y1 + 18}" font-size="11" '
                     f'text-anchor="middle">{_f(round(tick, 10))}</text>')
        for tick in np.linspace(self.y_min, self.y_max, 5):
            py = self.y(tick)
            p.append(f'<line x1="{x0 - 4}" y1="{_f(py)}" x2="{x0}" y2="{_f(py)}" '
                     'stroke="#333333" stroke-width="1"/>')
            p.append(f'<text x="{x0 - 7}" y="{_f(py + 4)}" font-size="11" '
                     f'text-anchor="end">{_f(round(tick, 10))}</text>')
        if title:
            p.append(f'<text x="{WIDTH / 2}" y="{MARGIN_T - 12}" font-size="14" '
                     f'text-anchor="middle">{title}</text>')
        if xlabel:
            p.append(f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" font-size="12" '
                     f'text-anchor="middle">{xlabel}</text>')
        if ylabel:
            p.append(f'<text x="16" y="{HEIGHT / 2}" font-size="12" text-anchor="middle" '
                     f'transform="rotate(-90 16 {HEIGHT / 2})">{ylabel}</text>')

    def _points(self, xs, ys):
        """Pixel coordinates of the points as text, mapped as arrays."""
        px = self.x(np.asarray(xs)).tolist()
        py = self.y(np.asarray(ys)).tolist()
        return zip(map(_f, px), map(_f, py))

    def scatter(self, xs, ys, color, radius=1.6, opacity=0.65):
        for cx, cy in self._points(xs, ys):
            self.parts.append(f'<circle cx="{cx}" cy="{cy}" '
                              f'r="{radius}" fill="{color}" fill-opacity="{opacity}"/>')

    def polyline(self, xs, ys, color, width=1.5, dash=None):
        pts = " ".join(f"{a},{b}" for a, b in self._points(xs, ys))
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                          f'stroke-width="{width}"{extra}/>')

    def hline(self, yv, color="#999999", dash="4,3"):
        self.polyline([self.x_min, self.x_max], [yv, yv], color, width=1.0, dash=dash)

    def ellipse(self, cx, cy, rx, ry, color="#222222"):
        self.parts.append(f'<ellipse cx="{_f(self.x(cx))}" cy="{_f(self.y(cy))}" '
                          f'rx="{_f(rx * (self.x(1) - self.x(0)))}" '
                          f'ry="{_f(ry * (self.y(0) - self.y(1)))}" '
                          f'fill="none" stroke="{color}" stroke-width="1.3"/>')

    def bar(self, x_left, x_right, height, color):
        px0, px1 = self.x(x_left), self.x(x_right)
        py0, py1 = self.y(height), self.y(0.0)
        self.parts.append(f'<rect x="{_f(px0)}" y="{_f(py0)}" width="{_f(px1 - px0)}" '
                          f'height="{_f(py1 - py0)}" fill="{color}" fill-opacity="0.8" '
                          'stroke="#333333" stroke-width="0.6"/>')

    def label(self, text, slot, color):
        self.parts.append(f'<text x="{WIDTH - MARGIN_R - 6}" y="{MARGIN_T + 16 + 15 * slot}" '
                          f'font-size="11" text-anchor="end" fill="{color}">{text}</text>')

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
                f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" '
                'font-family="sans-serif">\n' + body + "\n</svg>\n")


def _write(path, canvas: _Canvas):
    Path(path).write_text(canvas.render(), encoding="utf-8")


def spectrum_scatter(path, eigenvalues, mean_tau=None, title="Spectral bulk") -> None:
    """Complex eigenvalue cloud; overlays the (1+tau, 1-tau) ellipse when given."""
    vals = np.asarray(eigenvalues, dtype=complex)
    re, im = vals.real, vals.imag
    lim = max(np.abs(re).max(initial=0.0), np.abs(im).max(initial=0.0), 1e-9)
    if mean_tau is not None and not math.isnan(mean_tau):
        lim = max(lim, 1.0 + abs(mean_tau))
    lim *= 1.08
    c = _Canvas(-lim, lim, -lim, lim, title=title, xlabel="Re", ylabel="Im")
    c.scatter(re, im, _PALETTE[0])
    if mean_tau is not None and not math.isnan(mean_tau):
        c.ellipse(0.0, 0.0, 1.0 + mean_tau, 1.0 - mean_tau)
        c.label(f"ellipse semi-axes {_f(1 + mean_tau)}, {_f(1 - mean_tau)}", 0, "#222222")
    _write(path, c)


def rho_curve(path, series, title="Reciprocity gap by aggregation period") -> bool:
    """One polyline per (label, delta_ts, rhos) triple plus the zero line.

    Returns whether it wrote the file: with no defined point it writes none.
    """
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if not math.isnan(y)]
    if not xs_all or not ys_all:
        print("rho_curve: nothing to plot", file=sys.stderr)
        return False
    pad = 0.1 * (max(ys_all) - min(ys_all) or 0.1)
    c = _Canvas(min(xs_all), max(xs_all), min(min(ys_all), 0.0) - pad,
                max(max(ys_all), 0.0) + pad,
                title=title, xlabel="aggregation period (trading days)", ylabel="rho")
    c.hline(0.0)
    for k, (label, xs, ys) in enumerate(series):
        keep = [(a, b) for a, b in zip(xs, ys) if not math.isnan(b)]
        if not keep:
            continue
        color = _PALETTE[k % len(_PALETTE)]
        c.polyline([a for a, _ in keep], [b for _, b in keep], color)
        c.label(str(label), k, color)
    _write(path, c)
    return True


def roc_curve(path, fpr, tpr, auc=None, title="ROC") -> None:
    c = _Canvas(0.0, 1.0, 0.0, 1.0, title=title,
                xlabel="false positive rate", ylabel="true positive rate")
    c.polyline([0.0, 1.0], [0.0, 1.0], "#aaaaaa", width=1.0, dash="4,3")
    c.polyline(list(fpr), list(tpr), _PALETTE[0], width=1.8)
    if auc is not None:
        c.label(f"AUC = {_f(auc)}", 0, _PALETTE[0])
    _write(path, c)


def tau_histogram(path, values, bins=40, title="Dyad correlation") -> bool:
    """Histogram of the finite values; returns whether it wrote the file (none without one)."""
    vals = np.asarray(values, dtype=float)
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        print("tau_histogram: nothing to plot", file=sys.stderr)
        return False
    lo, hi = float(vals.min()), float(vals.max())
    if hi == lo:
        lo, hi = lo - 0.05, hi + 0.05
    counts, edges = np.histogram(vals, bins=bins, range=(lo, hi))
    c = _Canvas(lo, hi, 0.0, float(counts.max()) * 1.05,
                title=title, xlabel="tau", ylabel="count")
    for k in range(len(counts)):
        if counts[k]:
            c.bar(edges[k], edges[k + 1], float(counts[k]), _PALETTE[0])
    _write(path, c)
    return True


def emit_figures(results, kind: str, out_dir) -> list[Path]:
    """Dispatch one figure kind to its renderer; returns the paths this call wrote.

    ``results`` carries kind-specific data: an eigenvalue array (plus
    optional mean tau) for spectrum_scatter, (label, x, y) series for
    rho_curve, an RocResult for roc_curve, a value array for tau_histogram.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if kind == "spectrum_scatter":
        eigs, mean_tau = results
        if len(eigs) == 0:
            print("emit_figures: empty spectrum, skipping", file=sys.stderr)
            return []
        path = out_dir / "spectrum_scatter.svg"
        spectrum_scatter(path, eigs, mean_tau=mean_tau)
        return [path]
    if kind == "rho_curve":
        path = out_dir / "rho_curve.svg"
        return [path] if rho_curve(path, results) else []
    if kind == "roc_curve":
        path = out_dir / "roc_curve.svg"
        roc_curve(path, results.fpr, results.tpr, auc=results.auc)
        return [path]
    if kind == "tau_histogram":
        path = out_dir / "tau_histogram.svg"
        return [path] if tau_histogram(path, results) else []
    raise ValueError(f"unknown figure kind {kind!r}")

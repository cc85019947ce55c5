"""Standalone SVG figures: eigenvalue clouds, rho scans, ROC curves, histograms.

Hand-rolled SVG keeps the artifacts dependency-free, diff-able in review
and byte-reproducible (no timestamps, fixed float formatting).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

from .validation import trapezoid

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 62, 18, 34, 48

_COLOR = "#2e74b5"


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

    def label(self, text, color):
        self.parts.append(f'<text x="{WIDTH - MARGIN_R - 6}" y="{MARGIN_T + 16}" '
                          f'font-size="11" text-anchor="end" fill="{color}">{text}</text>')

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
                f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" '
                'font-family="sans-serif">\n' + body + "\n</svg>\n")


def _write(path, canvas: _Canvas):
    Path(path).write_text(canvas.render(), encoding="utf-8")


def spectrum_scatter(path, sample_id, re, im, mean_tau=None, title="Spectral bulk") -> bool:
    """Bulk eigenvalue cloud; overlays the (1+tau, 1-tau) ellipse when tau is a number.

    The rows are those of spectra.csv: each sample's eigenvalues by falling
    modulus, so the first row of each run of ``sample_id`` is that sample's
    leading eigenvalue, which the bulk leaves out. Returns whether it wrote
    the file: with no bulk eigenvalue it writes none.
    """
    sample_id = np.asarray(sample_id)
    bulk = np.zeros(len(sample_id), dtype=bool)
    bulk[1:] = sample_id[1:] == sample_id[:-1]
    re, im = np.asarray(re, dtype=float)[bulk], np.asarray(im, dtype=float)[bulk]
    if re.size == 0:
        print("spectrum_scatter: nothing to plot", file=sys.stderr)
        return False
    ellipse = mean_tau is not None and math.isfinite(mean_tau)
    lim = max(np.abs(re).max(), np.abs(im).max(), 1e-9)
    if ellipse:
        lim = max(lim, 1.0 + abs(mean_tau))
    lim *= 1.08
    c = _Canvas(-lim, lim, -lim, lim, title=title, xlabel="Re", ylabel="Im")
    c.scatter(re, im, _COLOR)
    if ellipse:
        c.ellipse(0.0, 0.0, 1.0 + mean_tau, 1.0 - mean_tau)
        c.label(f"ellipse semi-axes {_f(1 + mean_tau)}, {_f(1 - mean_tau)}", "#222222")
    _write(path, c)
    return True


def rho_curve(path, delta_t, window_count, mean_rho,
              title="Reciprocity gap by aggregation period") -> bool:
    """Mean rho against delta_t over the scan rows with windows, plus the zero line.

    Returns whether it wrote the file: with no such row it writes none.
    """
    keep = np.asarray(window_count) > 0
    xs = np.asarray(delta_t)[keep].tolist()
    ys = np.asarray(mean_rho, dtype=float)[keep].tolist()
    if not xs:
        print("rho_curve: nothing to plot", file=sys.stderr)
        return False
    pad = 0.1 * (max(ys) - min(ys) or 0.1)
    c = _Canvas(min(xs), max(xs), min(min(ys), 0.0) - pad, max(max(ys), 0.0) + pad,
                title=title, xlabel="aggregation period (trading days)", ylabel="rho")
    c.hline(0.0)
    c.polyline(xs, ys, _COLOR)
    _write(path, c)
    return True


def roc_curve(path, fpr, tpr, title="ROC") -> bool:
    """ROC curve labelled with its trapezoidal AUC, the one ``roc_auc`` reports."""
    c = _Canvas(0.0, 1.0, 0.0, 1.0, title=title,
                xlabel="false positive rate", ylabel="true positive rate")
    c.polyline([0.0, 1.0], [0.0, 1.0], "#aaaaaa", width=1.0, dash="4,3")
    c.polyline(fpr, tpr, _COLOR, width=1.8)
    c.label(f"AUC = {_f(trapezoid(fpr, tpr))}", _COLOR)
    _write(path, c)
    return True


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
            c.bar(edges[k], edges[k + 1], float(counts[k]), _COLOR)
    _write(path, c)
    return True


_RENDERERS = {"spectrum_scatter": spectrum_scatter, "rho_curve": rho_curve,
              "roc_curve": roc_curve, "tau_histogram": tau_histogram}


def emit_figures(results, kind: str, out_dir) -> list[Path]:
    """Draw figure ``kind`` into ``out_dir/<kind>.svg``; returns the paths this call wrote.

    ``results``, the renderer's arguments after the path, are artifact
    columns: tau.csv's ``tau``; spectra.csv's ``sample_id``, ``re``, ``im``
    and bulk.json's ``mean_tau``; rho_scan.csv's ``delta_t``,
    ``window_count``, ``mean_rho``; roc.csv's ``fpr``, ``tpr``.
    """
    path = Path(out_dir) / f"{kind}.svg"
    return [path] if _RENDERERS[kind](path, *results) else []

"""Output checks written with numpy alone, independent of reconnet.

Every check returns a list of failure messages; an empty list means the
output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np


def read_rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    return rows[0], rows[1:]


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def artifact_hashes(root) -> dict[str, str]:
    """sha256 of every file under ``root`` except the manifests, which hold timings."""
    root = Path(root)
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def _close(value, target, rel) -> bool:
    return abs(value - target) <= rel * max(abs(target), 1e-300)


# ---------------------------------------------------------------------------
# two-parameter fitness model (u, v) in closed form
# ---------------------------------------------------------------------------


def fgrm_link_and_both(fitted: dict) -> tuple[np.ndarray, np.ndarray]:
    """P(a_ij = 1) and P(a_ij = a_ji = 1) of a fitted fgrm model."""
    u, v = fitted["params"]["u"], fitted["params"]["v"]
    a = np.asarray(fitted["fitness"]["assets"], dtype=float)
    l = np.asarray(fitted["fitness"]["liabilities"], dtype=float)
    m1 = u * np.outer(a, l)
    np.fill_diagonal(m1, 0.0)
    t3 = (v * v) * m1 * m1.T
    w = 1.0 + m1 + m1.T + t3
    link = (m1 + t3) / w
    both = t3 / w
    np.fill_diagonal(link, 0.0)
    np.fill_diagonal(both, 0.0)
    return link, both


def fgrm_density_reciprocity(fitted: dict) -> tuple[float, float]:
    link, both = fgrm_link_and_both(fitted)
    n = link.shape[0]
    return float(link.sum()) / (n * (n - 1)), float(both.sum()) / float(link.sum())


def check_fit(fit_dir, density, reciprocity) -> list[str]:
    fitted = read_json(Path(fit_dir) / "fitted.json")
    d, r = fgrm_density_reciprocity(fitted)
    errors = []
    if not _close(d, density, 1e-8):
        errors.append(f"fit: model density {d!r} differs from target {density}")
    if not _close(r, reciprocity, 1e-8):
        errors.append(f"fit: model reciprocity {r!r} differs from target {reciprocity}")
    return errors


def check_sample(fit_dir, sample_dir, samples, written) -> list[str]:
    """Ensemble means within 4 standard errors; lambda_max of every written sample."""
    fitted = read_json(Path(fit_dir) / "fitted.json")
    ens = read_json(Path(sample_dir) / "ensemble.json")
    d_model, r_model = fgrm_density_reciprocity(fitted)
    errors = []
    if ens["sample_count"] != samples or len(ens["lambda_max"]) != samples:
        errors.append(f"sample: {ens['sample_count']} samples recorded, expected {samples}")
        return errors
    for name, model_value in (("density", d_model), ("reciprocity", r_model)):
        mean, std = ens[f"mean_{name}"], ens[f"std_{name}"]
        se = std / np.sqrt(samples)
        if not abs(mean - model_value) <= 4.0 * se:
            errors.append(f"sample: mean {name} {mean} is {abs(mean - model_value) / se:.1f} "
                          f"standard errors from the model's {model_value}")
    n = len(fitted["fitness"]["assets"])
    for k in range(written):
        path = Path(sample_dir) / "samples" / f"sample_{k:05d}.csv"
        _, rows = read_rows(path)
        a = np.zeros((n, n))
        for src, dst, _w in rows:
            a[int(src), int(dst)] = 1.0
        rho = float(np.max(np.abs(np.linalg.eigvals(a))))
        recorded = ens["lambda_max"][k]
        if not _close(recorded, rho, 1e-8):
            errors.append(f"sample: lambda_max {recorded!r} of sample {k} differs from "
                          f"the spectral radius {rho!r} of its edge list")
    return errors


def check_spectra(spectra_dir, written, n) -> list[str]:
    _, rows = read_rows(Path(spectra_dir) / "spectra.csv")
    if len(rows) != written * n:
        return [f"spectra: {len(rows)} rows in spectra.csv, expected {written} x {n}"]
    return []


def check_validate(validate_dir) -> list[str]:
    v = read_json(Path(validate_dir) / "validation.json")
    if not abs(v["auc"] - v["mann_whitney_auc"]) <= 1e-12:
        return [f"validate: auc {v['auc']!r} differs from mann_whitney_auc "
                f"{v['mann_whitney_auc']!r}"]
    return []


# ---------------------------------------------------------------------------
# transaction streams and scans
# ---------------------------------------------------------------------------


class Stream:
    """A transactions CSV as day-indexed arrays of (lender, borrower) node indices.

    The nodes are ``labels`` if given, else the nodes that appear in the year.
    """

    def __init__(self, path, year: int, labels=None):
        _, rows = read_rows(path)
        rows = [r for r in rows if r[0].startswith(f"{year:04d}-")]
        labels = sorted(labels or {r[1] for r in rows} | {r[2] for r in rows})
        index = {name: k for k, name in enumerate(labels)}
        self.days = sorted({r[0] for r in rows})
        day_index = {d: k for k, d in enumerate(self.days)}
        self.n = len(labels)
        self.day = np.array([day_index[r[0]] for r in rows], dtype=np.int64)
        self.src = np.array([index[r[1]] for r in rows], dtype=np.int64)
        self.dst = np.array([index[r[2]] for r in rows], dtype=np.int64)

    def adjacency(self, first_day: int, last_day: int) -> np.ndarray:
        """Binary adjacency of the days first_day..last_day-1."""
        keep = (self.day >= first_day) & (self.day < last_day)
        a = np.zeros((self.n, self.n), dtype=np.int64)
        a[self.src[keep], self.dst[keep]] = 1
        return a


def check_scan(stream: Stream, scan_dir, delta_ts) -> tuple[list[str], int]:
    """Window counts per delta_t, and d and r of every fitted window recomputed.

    Returns the failures and the number of windows attempted.
    """
    errors = []
    _, scan_rows = read_rows(Path(scan_dir) / "rho_scan.csv")
    by_dt = {int(r[0]): int(r[1]) + int(r[2]) for r in scan_rows}
    expected = {dt: len(stream.days) // dt for dt in delta_ts}
    if by_dt != expected:
        errors.append(f"scan: windows per delta_t {by_dt}, expected {expected}")
    _, window_rows = read_rows(Path(scan_dir) / "rho_windows.csv")
    n = stream.n
    for dt_text, k_text, d_text, r_text, _r_fdcm, _rho in window_rows:
        dt, k = int(dt_text), int(k_text)
        a = stream.adjacency(k * dt, (k + 1) * dt)
        links = int(a.sum())
        d = links / (n * (n - 1))
        r = int((a * a.T).sum()) / links
        if float(d_text) != d or float(r_text) != r:
            errors.append(f"scan: window {k} of delta_t {dt} has d={d_text} r={r_text}, "
                          f"recomputed d={d!r} r={r!r}")
    return errors, sum(by_dt.values())


# ---------------------------------------------------------------------------
# degree-sequence models
# ---------------------------------------------------------------------------


def degree_targets(a: np.ndarray) -> dict[str, dict]:
    """fit_degree_model keyword arguments of dcm, grm and rcm for the adjacency ``a``."""
    both = a * a.T
    k_out, k_in = a.sum(axis=1), a.sum(axis=0)
    k_recip = both.sum(axis=1)
    return {
        "dcm": {"k_in": k_in, "k_out": k_out},
        "grm": {"k_in": k_in, "k_out": k_out, "l_recip": float(both.sum())},
        "rcm": {"k_mono_out": k_out - k_recip, "k_mono_in": k_in - k_recip,
                "k_recip": k_recip},
    }


def _offdiag_outer(x, y):
    m = np.outer(x, y)
    np.fill_diagonal(m, 0.0)
    return m


def expected_degrees(kind: str, params: dict) -> dict:
    """Expected values of the constrained quantities under fitted multipliers."""
    x, y = np.asarray(params["x"], float), np.asarray(params["y"], float)
    m1 = _offdiag_outer(x, y)
    if kind == "dcm":
        p = m1 / (1.0 + m1)
        return {"k_out": p.sum(axis=1), "k_in": p.sum(axis=0)}
    if kind == "grm":
        z = float(params["z"])
        q = (z * z) * m1 * m1.T
        w = 1.0 + m1 + m1.T + q
        p = (m1 + q) / w
        return {"k_out": p.sum(axis=1), "k_in": p.sum(axis=0), "l_recip": float((q / w).sum())}
    zv = np.asarray(params["z"], float)
    q = _offdiag_outer(zv, zv)
    w = 1.0 + m1 + m1.T + q
    return {"k_mono_out": (m1 / w).sum(axis=1), "k_mono_in": (m1 / w).sum(axis=0),
            "k_recip": (q / w).sum(axis=1)}


def check_degree_fit(kind: str, params: dict, targets: dict) -> list[str]:
    errors = []
    for name, value in expected_degrees(kind, params).items():
        target = np.asarray(targets[name], dtype=float)
        gap = np.abs(np.asarray(value) - target) / np.maximum(target, 1.0)
        if not gap.max() <= 1e-8:
            errors.append(f"{kind}: expected {name} misses its target by {gap.max():.3e} relative")
    return errors

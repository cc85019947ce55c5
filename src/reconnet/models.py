"""Fitted models and their dyad probability arrays, for the five model families.

Every kind has the same algebraic shape: three nonnegative numerator
terms (i->j only, j->i only, both) over the denominator
w = 1 + t1 + t2 + t3. Probabilities are always evaluated in this
w-denominator form, never by subtracting near-1 quantities, because the
fitness values feeding the terms span many orders of magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError

if TYPE_CHECKING:
    from .estimation import SolverReport
    from .ingest import FitnessData

# Beyond this, quotients switch to the reciprocal form (numerator and
# denominator divided by the largest term, evaluated in log space).
_OVERFLOW_LIMIT = 1e300


class ModelKind(str, Enum):
    DCM = "dcm"      # directed configuration model (degree sequences)
    FDCM = "fdcm"    # fitness-induced DCM, one density parameter z
    GRM = "grm"      # degrees + one global reciprocity multiplier
    RCM = "rcm"      # per-node reciprocated/non-reciprocated degrees
    FGRM = "fgrm"    # fitness-induced global reciprocity model (u, v)


def _scalar(name: str, value) -> float:
    if np.ndim(value) != 0:
        raise DomainError(f"parameter {name} must be a number, got shape {np.shape(value)}")
    return float(value)


_PARAM_KEYS = {
    ModelKind.DCM: ("x", "y"),
    ModelKind.FDCM: ("z",),
    ModelKind.GRM: ("x", "y", "z"),
    ModelKind.RCM: ("x", "y", "z"),
    ModelKind.FGRM: ("u", "v"),
}


@dataclass
class FittedModel:
    """A model kind plus its estimated parameters.

    ``params`` holds scalars for the fitness models (z; u, v), vectors for
    the degree models (x, y[, z]); all strictly positive. ``fitness`` is
    required for the fitness-driven kinds.
    """

    kind: ModelKind
    params: dict
    fitness: "FitnessData | None" = None
    report: "SolverReport | None" = None

    def __post_init__(self):
        self.kind = ModelKind(self.kind)
        expected = _PARAM_KEYS[self.kind]
        if set(self.params) != set(expected):
            raise DomainError(
                f"{self.kind.value} expects parameters {expected}, got {tuple(self.params)}"
            )
        if self.kind in (ModelKind.FDCM, ModelKind.FGRM):
            if self.fitness is None:
                raise DomainError(f"{self.kind.value} requires fitness data")
            for k in expected:
                p = _scalar(k, self.params[k])
                if not (p > 0.0 and math.isfinite(p)):
                    raise DomainError(f"parameter {k} must be positive and finite, got {p}")
                self.params[k] = p
        else:
            x = np.asarray(self.params["x"], dtype=float)
            y = np.asarray(self.params["y"], dtype=float)
            if x.shape != y.shape or x.ndim != 1:
                raise DomainError("x and y must be 1-d vectors of equal length")
            self.params["x"], self.params["y"] = x, y
            if self.kind is ModelKind.GRM:
                self.params["z"] = _scalar("z", self.params["z"])
            elif self.kind is ModelKind.RCM:
                zv = np.asarray(self.params["z"], dtype=float)
                if zv.shape != x.shape:
                    raise DomainError("z must match x and y in length")
                self.params["z"] = zv
            vals = np.concatenate([np.atleast_1d(np.asarray(self.params[k], float))
                                   for k in expected])
            if not ((vals > 0.0) & np.isfinite(vals)).all():
                raise DomainError("all multipliers must be positive and finite")

    @property
    def n(self) -> int:
        if self.kind in (ModelKind.FDCM, ModelKind.FGRM):
            return len(self.fitness.assets)
        return len(self.params["x"])


@dataclass
class DyadProbabilityArrays:
    """Dense per-pair probabilities of a fitted model.

    only[i, j]  P(i->j present and j->i absent)
    both[i, j]  P(both present), symmetric
    none[i, j]  P(both absent), symmetric
    link[i, j]  P(a_ij = 1) unconditionally
    Diagonals are zero and carry no meaning.
    """

    only: np.ndarray
    both: np.ndarray
    none: np.ndarray
    link: np.ndarray

    @property
    def n(self) -> int:
        return self.link.shape[0]


def link_probability(m: np.ndarray) -> np.ndarray:
    """m / (1 + m) entrywise for m >= 0: the probability of a link whose odds are m.

    Beyond the overflow limit the quotient is taken as 1 / (1/m + 1), which
    is 1 at m = inf; below it, both forms give the same value.
    """
    with np.errstate(invalid="ignore"):
        p = m / (1.0 + m)
    big = m > _OVERFLOW_LIMIT
    if big.any():
        p[big] = 1.0 / (1.0 / m[big] + 1.0)
    return p


def _independent_arrays(scale, row, col) -> DyadProbabilityArrays:
    # p[i, j] = unconditional link probability; link independence across directions
    with np.errstate(over="ignore"):
        p = link_probability(scale * np.outer(row, col))
    np.fill_diagonal(p, 0.0)
    pt = p.T
    arrs = DyadProbabilityArrays(
        only=p * (1.0 - pt),
        both=p * pt,
        none=(1.0 - p) * (1.0 - pt),
        link=p,
    )
    for m in (arrs.only, arrs.both, arrs.none):
        np.fill_diagonal(m, 0.0)
    return arrs


def _coupled_arrays(scale, row, col, coupling) -> DyadProbabilityArrays:
    """Arrays for kernels with a both-links term t3 over w = (1 + t3) + (m1 + m1^T).

    A number ``coupling`` c gives t3 = (c m1)(c m1)^T, per-node multipliers
    z give t3 = outer(z, z). Where w overflows, the quotients are taken in
    log space from the logs of the factors.
    """
    per_node = np.ndim(coupling) == 1
    with np.errstate(over="ignore", invalid="ignore"):
        m1 = scale * np.outer(row, col)
        if per_node:
            t3 = np.outer(coupling, coupling)
        else:
            s = coupling * m1
            t3 = s * s.T
    np.fill_diagonal(m1, 0.0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w = (1.0 + t3) + (m1 + m1.T)
        only = m1 / w
        both = t3 / w
        none = 1.0 / w
        link = (m1 + t3) / w
    bad = ~np.isfinite(w)
    np.fill_diagonal(bad, False)
    if bad.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            l1 = math.log(scale) + np.add.outer(np.log(row), np.log(col))
            l2 = l1.T
            if per_node:
                l3 = np.add.outer(np.log(coupling), np.log(coupling))
            else:
                l3 = 2.0 * math.log(coupling) + l1 + l1.T
            lmax = np.maximum(np.maximum(l1, l2), np.maximum(l3, 0.0))
            e0 = np.exp(-lmax)
            e1 = np.exp(l1 - lmax)
            e2 = np.exp(l2 - lmax)
            e3 = np.exp(l3 - lmax)
            s = e0 + e1 + e2 + e3
        only[bad] = (e1 / s)[bad]
        both[bad] = (e3 / s)[bad]
        none[bad] = (e0 / s)[bad]
        link[bad] = ((e1 + e3) / s)[bad]
    for m in (only, both, none, link):
        np.fill_diagonal(m, 0.0)
    return DyadProbabilityArrays(only=only, both=both, none=none, link=link)


# Per kind, the link odds m1 = scale * outer(row, col) and the both-links
# coupling: None where the two links of a dyad are independent, else as
# ``_coupled_arrays`` takes it.
_FACTORS = {
    ModelKind.DCM: lambda p, f: (1.0, p["x"], p["y"], None),
    ModelKind.FDCM: lambda p, f: (p["z"], f.assets, f.liabilities, None),
    ModelKind.GRM: lambda p, f: (1.0, p["x"], p["y"], p["z"]),
    ModelKind.RCM: lambda p, f: (1.0, p["x"], p["y"], p["z"]),
    ModelKind.FGRM: lambda p, f: (p["u"], f.assets, f.liabilities, p["v"]),
}


def dyad_probability_arrays(model: FittedModel) -> DyadProbabilityArrays:
    """All pairwise dyad probabilities of ``model`` as dense matrices."""
    scale, row, col, coupling = _FACTORS[model.kind](model.params, model.fitness)
    if coupling is None:
        return _independent_arrays(scale, row, col)
    return _coupled_arrays(scale, row, col, coupling)

"""Closed-form link and dyad probability kernels for the five model families.

All kernels share the same algebraic shape: three nonnegative numerator
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


@dataclass
class DyadProbabilities:
    """Four-outcome distribution of one unordered pair: (->, <-, <->, empty)."""

    p_ij_only: float
    p_ji_only: float
    p_both: float
    p_none: float

    def __post_init__(self):
        vals = (self.p_ij_only, self.p_ji_only, self.p_both, self.p_none)
        if any(v < 0.0 or v > 1.0 for v in vals):
            raise DomainError(f"dyad probabilities outside [0,1]: {vals}")
        if abs(sum(vals) - 1.0) > 1e-12:
            raise DomainError(f"dyad probabilities sum to {sum(vals)!r}, not 1")

    @property
    def p_ij(self) -> float:
        """Unconditional probability of the i->j link."""
        return self.p_ij_only + self.p_both

    @property
    def p_ji(self) -> float:
        return self.p_ji_only + self.p_both

    def swapped(self) -> "DyadProbabilities":
        return DyadProbabilities(self.p_ji_only, self.p_ij_only, self.p_both, self.p_none)


def _require_nonnegative(**values):
    for name, v in values.items():
        if v < 0:
            raise DomainError(f"{name} must be nonnegative, got {v}")


def _bernoulli_ratio(t: float) -> float:
    """t / (1 + t) for t >= 0, stable for arbitrarily large (or infinite) t."""
    if t <= _OVERFLOW_LIMIT:
        return t / (1.0 + t)
    return 1.0 / (1.0 / t + 1.0)


def _log0(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _four_outcomes(t1, t2, t3, log_terms) -> DyadProbabilities:
    """Outcome distribution from the three numerator terms.

    The denominator groups as (1 + t3) + (t1 + t2) so that swapping the
    node pair reproduces the same floating-point value exactly.
    ``log_terms`` is a zero-argument callable returning (log t1, log t2,
    log t3) computed from the original factors; it is only invoked on the
    overflow path, where the naive products are no longer representable.
    """
    big = max(t1, t2, t3)
    if big <= _OVERFLOW_LIMIT:
        w = (1.0 + t3) + (t1 + t2)
        return DyadProbabilities(t1 / w, t2 / w, t3 / w, 1.0 / w)
    l1, l2, l3 = log_terms()
    lmax = max(0.0, l1, l2, l3)
    e0 = math.exp(-lmax)
    e1 = math.exp(l1 - lmax)
    e2 = math.exp(l2 - lmax)
    e3 = math.exp(l3 - lmax)
    s = e0 + e1 + e2 + e3
    return DyadProbabilities(e1 / s, e2 / s, e3 / s, e0 / s)


def dcm_prob(x_i: float, y_j: float) -> float:
    """Link probability x_i y_j / (1 + x_i y_j) of the degree-multiplier model."""
    _require_nonnegative(x_i=x_i, y_j=y_j)
    return _bernoulli_ratio(x_i * y_j)


def fdcm_prob(z: float, a_i: float, l_j: float) -> float:
    """Link probability z A_i L_j / (1 + z A_i L_j) of the one-parameter fitness model."""
    _require_nonnegative(z=z, a_i=a_i, l_j=l_j)
    return _bernoulli_ratio(z * a_i * l_j)


def fdcm_dyad_probs(z: float, fitness: "FitnessData", i: int, j: int) -> DyadProbabilities:
    """Independence factorization of the two directed links of pair {i, j}."""
    if i == j:
        raise DomainError("dyad requires two distinct nodes")
    p_ij = fdcm_prob(z, fitness.assets[i], fitness.liabilities[j])
    p_ji = fdcm_prob(z, fitness.assets[j], fitness.liabilities[i])
    return DyadProbabilities(
        p_ij_only=p_ij * (1.0 - p_ji),
        p_ji_only=p_ji * (1.0 - p_ij),
        p_both=p_ij * p_ji,
        p_none=(1.0 - p_ij) * (1.0 - p_ji),
    )


def grm_dyad_probs(x_i, y_i, x_j, y_j, z) -> DyadProbabilities:
    """Dyad distribution with degree multipliers and global coupling z on both-links."""
    _require_nonnegative(x_i=x_i, y_i=y_i, x_j=x_j, y_j=y_j, z=z)
    t1 = x_i * y_j
    t2 = x_j * y_i
    t3 = (z * t1) * (z * t2)  # commutative grouping keeps pair swaps exact

    def logs():
        l1 = _log0(x_i) + _log0(y_j)
        l2 = _log0(x_j) + _log0(y_i)
        return l1, l2, 2.0 * _log0(z) + l1 + l2

    return _four_outcomes(t1, t2, t3, logs)


def rcm_dyad_probs(x_i, y_i, z_i, x_j, y_j, z_j) -> DyadProbabilities:
    """Dyad distribution with per-node reciprocation multipliers z_i z_j."""
    _require_nonnegative(x_i=x_i, y_i=y_i, z_i=z_i, x_j=x_j, y_j=y_j, z_j=z_j)
    t1 = x_i * y_j
    t2 = x_j * y_i
    t3 = z_i * z_j

    def logs():
        return (
            _log0(x_i) + _log0(y_j),
            _log0(x_j) + _log0(y_i),
            _log0(z_i) + _log0(z_j),
        )

    return _four_outcomes(t1, t2, t3, logs)


def fgrm_dyad_probs(u, v, a_i, l_i, a_j, l_j) -> DyadProbabilities:
    """Dyad distribution of the two-parameter fitness model.

    u scales all link numerators (density), v^2 multiplies the both-links
    term (reciprocity). With v = 1 this collapses entrywise onto the
    independence factorization of the one-parameter model with z = u.
    """
    _require_nonnegative(u=u, v=v, a_i=a_i, l_i=l_i, a_j=a_j, l_j=l_j)
    t1 = u * a_i * l_j
    t2 = u * a_j * l_i
    t3 = (v * t1) * (v * t2)

    def logs():
        lu = _log0(u)
        l1 = lu + _log0(a_i) + _log0(l_j)
        l2 = lu + _log0(a_j) + _log0(l_i)
        return l1, l2, 2.0 * _log0(v) + l1 + l2

    return _four_outcomes(t1, t2, t3, logs)


# ---------------------------------------------------------------------------
# Fitted models and whole-network probability arrays
# ---------------------------------------------------------------------------

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


def _independent_arrays(p: np.ndarray) -> DyadProbabilityArrays:
    # p[i, j] = unconditional link probability; link independence across directions
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


def _coupled_arrays(m1: np.ndarray, t3: np.ndarray, log_m1, log_t3) -> DyadProbabilityArrays:
    """Arrays for kernels with a both-links coupling term.

    ``log_m1`` / ``log_t3`` are callables producing the log-term matrices,
    used only where the direct quotient overflows.
    """
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
            l1 = log_m1()
            l2 = l1.T
            l3 = log_t3(l1)
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


def dyad_probability_arrays(model: FittedModel) -> DyadProbabilityArrays:
    """All pairwise dyad probabilities of ``model`` as dense matrices."""
    kind = model.kind
    if kind is ModelKind.FDCM:
        z = model.params["z"]
        a = np.asarray(model.fitness.assets, float)
        l = np.asarray(model.fitness.liabilities, float)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            m = z * np.outer(a, l)
            p = np.where(m > _OVERFLOW_LIMIT, 1.0 / (1.0 / m + 1.0), m / (1.0 + m))
        return _independent_arrays(p)
    if kind is ModelKind.DCM:
        x, y = model.params["x"], model.params["y"]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            m = np.outer(x, y)
            p = np.where(m > _OVERFLOW_LIMIT, 1.0 / (1.0 / m + 1.0), m / (1.0 + m))
        return _independent_arrays(p)
    if kind is ModelKind.FGRM:
        u, v = model.params["u"], model.params["v"]
        a = np.asarray(model.fitness.assets, float)
        l = np.asarray(model.fitness.liabilities, float)
        with np.errstate(over="ignore", invalid="ignore"):
            m1 = u * np.outer(a, l)
            s = v * m1
            t3 = s * s.T

        def log_m1():
            return math.log(u) + np.add.outer(np.log(a), np.log(l))

        return _coupled_arrays(m1, t3, log_m1, lambda l1: 2.0 * math.log(v) + l1 + l1.T)
    if kind is ModelKind.GRM:
        x, y, z = model.params["x"], model.params["y"], model.params["z"]
        with np.errstate(over="ignore", invalid="ignore"):
            m1 = np.outer(x, y)
            s = z * m1
            t3 = s * s.T

        def log_m1():
            return np.add.outer(np.log(x), np.log(y))

        return _coupled_arrays(m1, t3, log_m1, lambda l1: 2.0 * math.log(z) + l1 + l1.T)
    if kind is ModelKind.RCM:
        x, y, zv = model.params["x"], model.params["y"], model.params["z"]
        with np.errstate(over="ignore", invalid="ignore"):
            m1 = np.outer(x, y)
            t3 = np.outer(zv, zv)

        def log_m1():
            return np.add.outer(np.log(x), np.log(y))

        return _coupled_arrays(m1, t3, log_m1,
                               lambda l1: np.add.outer(np.log(zv), np.log(zv)))
    raise DomainError(f"unknown model kind {kind!r}")


def dyad_probs(model: FittedModel, i: int, j: int) -> DyadProbabilities:
    """Four-outcome distribution of the single unordered pair {i, j}."""
    if i == j:
        raise DomainError("dyad requires two distinct nodes")
    if model.kind is ModelKind.FDCM:
        return fdcm_dyad_probs(model.params["z"], model.fitness, i, j)
    if model.kind is ModelKind.FGRM:
        f = model.fitness
        return fgrm_dyad_probs(model.params["u"], model.params["v"],
                               f.assets[i], f.liabilities[i], f.assets[j], f.liabilities[j])
    if model.kind is ModelKind.DCM:
        x, y = model.params["x"], model.params["y"]
        p_ij = dcm_prob(x[i], y[j])
        p_ji = dcm_prob(x[j], y[i])
        return DyadProbabilities(p_ij * (1 - p_ji), p_ji * (1 - p_ij),
                                 p_ij * p_ji, (1 - p_ij) * (1 - p_ji))
    if model.kind is ModelKind.GRM:
        x, y, z = model.params["x"], model.params["y"], model.params["z"]
        return grm_dyad_probs(x[i], y[i], x[j], y[j], z)
    x, y, zv = model.params["x"], model.params["y"], model.params["z"]
    return rcm_dyad_probs(x[i], y[i], zv[i], x[j], y[j], zv[j])

"""Dyad-by-dyad network sampling and ensemble statistics.

Every dyad is drawn with a single uniform variate via inverse CDF over the
four outcomes in the fixed order (empty, ->, <-, <->); that gives the
correct joint law for reciprocity-coupled models with one RNG call per
pair. Sample k of an ensemble uses a sub-seed derived from the master
seed via a splittable counter scheme, so it depends only on the master
seed and k, not on how many samples are drawn or in what order.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateEnsembleError, DomainError
from .graph import DirectedNetwork
from .models import FittedModel, dyad_probability_arrays
from . import spectral

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / golden ratio


def _mix64(x: int) -> int:
    """SplitMix64 finalizer (Steele, Lea & Flood 2014)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_subseed(master_seed: int, k: int) -> int:
    """Sub-seed for stream k: mix64(master_seed XOR k * golden-ratio constant)."""
    return _mix64((master_seed & _MASK64) ^ ((k * _GOLDEN) & _MASK64))


@dataclass
class EnsembleConfig:
    sample_count: int = 1000
    master_seed: int = 0

    def __post_init__(self):
        if self.sample_count < 1:
            raise DomainError(f"sample_count must be >= 1, got {self.sample_count}")


@dataclass
class EnsembleSummary:
    """Per-sample structural values plus their mean/std (ddof=1) aggregates.

    Reciprocity of a sample with no links is recorded as NaN and skipped
    in the aggregates; lambda_max is None per sample when spectra were not
    requested. ``lambda_fallbacks`` counts the samples whose lambda_max
    came from the dense eigensolver (see ``spectral.spectral_radius``).
    """

    sample_count: int
    densities: np.ndarray = field(repr=False)
    reciprocities: np.ndarray = field(repr=False)
    lambda_max: np.ndarray | None = field(repr=False, default=None)
    mean_density: float = 0.0
    std_density: float = 0.0
    mean_reciprocity: float = float("nan")
    std_reciprocity: float = float("nan")
    mean_lambda_max: float | None = None
    std_lambda_max: float | None = None
    lambda_fallbacks: int | None = None


class _DyadSampler:
    """Cumulative outcome thresholds of one model, reused across samples."""

    def __init__(self, model: FittedModel):
        arrs = dyad_probability_arrays(model)
        self.n = arrs.n
        iu, ju = np.triu_indices(self.n, k=1)
        self._iu, self._ju = iu, ju
        p_none = arrs.none[iu, ju]
        p_fwd = arrs.only[iu, ju]
        p_bwd = arrs.only[ju, iu]
        self._c0 = p_none
        self._c1 = p_none + p_fwd
        self._c2 = self._c1 + p_bwd

    def sample_adjacency(self, seed: int) -> np.ndarray:
        rng = np.random.Generator(np.random.PCG64(seed & _MASK64))
        u = rng.random(len(self._iu))
        a = np.zeros((self.n, self.n), dtype=np.int8)
        fwd = (u >= self._c0) & (u < self._c1)
        bwd = (u >= self._c1) & (u < self._c2)
        both = u >= self._c2
        a[self._iu[fwd | both], self._ju[fwd | both]] = 1
        a[self._ju[bwd | both], self._iu[bwd | both]] = 1
        return a


def sample_adjacencies(model: FittedModel, seeds) -> Iterator[np.ndarray]:
    """One int8 adjacency matrix of ``model`` per seed, from one shared sampler.

    The matrices are valid adjacencies by construction (0/1, zero
    diagonal), so they are not wrapped in a validated ``DirectedNetwork``.
    """
    sampler = _DyadSampler(model)
    for seed in seeds:
        yield sampler.sample_adjacency(seed)


def sample_networks(model: FittedModel, seeds) -> Iterator[DirectedNetwork]:
    """One network realization of ``model`` per seed, from one shared sampler."""
    return map(DirectedNetwork, sample_adjacencies(model, seeds))


def sample_network(model: FittedModel, seed: int) -> DirectedNetwork:
    """One network realization of ``model``, deterministic in ``seed``."""
    return next(sample_networks(model, [seed]))


def generate_ensemble(model: FittedModel, config: EnsembleConfig,
                      compute_lambda: bool = True,
                      each: Callable[[int, np.ndarray], object] | None = None) -> EnsembleSummary:
    """Sample M networks and collect density, reciprocity and lambda_max.

    Sample k depends only on derive_subseed(master_seed, k). ``each(k,
    adjacency)``, when given, sees sample k's int8 adjacency as it is drawn.
    No adjacency is kept, so unless ``each`` keeps them one is held at a time.
    """
    sampler = _DyadSampler(model)
    n = sampler.n
    m = config.sample_count
    possible = n * (n - 1)

    def one(k: int):
        a = sampler.sample_adjacency(derive_subseed(config.master_seed, k))
        links = int(a.sum())
        recip = int((a * a.T).sum())
        d = links / possible if possible else 0.0
        r = recip / links if links > 0 else float("nan")
        # sampler output is a valid adjacency by construction; skip the
        # DirectedNetwork re-validation in this hot loop
        lam, fell_back = spectral.spectral_radius(a) if compute_lambda else (None, False)
        if each is not None:
            each(k, a)
        return d, r, lam, fell_back

    results = [one(k) for k in range(m)]

    densities = np.array([x[0] for x in results])
    reciprocities = np.array([x[1] for x in results])
    lambdas = np.array([x[2] for x in results]) if compute_lambda else None

    defined_r = reciprocities[~np.isnan(reciprocities)]
    summary = EnsembleSummary(
        sample_count=m,
        densities=densities,
        reciprocities=reciprocities,
        lambda_max=lambdas,
        mean_density=float(densities.mean()),
        std_density=float(densities.std(ddof=1)) if m > 1 else 0.0,
        mean_reciprocity=float(defined_r.mean()) if len(defined_r) else float("nan"),
        std_reciprocity=float(defined_r.std(ddof=1)) if len(defined_r) > 1 else float("nan"),
    )
    if compute_lambda:
        summary.mean_lambda_max = float(lambdas.mean())
        summary.std_lambda_max = float(lambdas.std(ddof=1)) if m > 1 else 0.0
        summary.lambda_fallbacks = sum(x[3] for x in results)
    return summary


def expected_metrics(model: FittedModel) -> tuple[float, float]:
    """Closed-form (expected density, expected reciprocity) of the model.

    Expected reciprocity follows the ratio-of-sums convention
    sum(p_both) / sum(p_link) over ordered pairs; it is NaN for a model
    whose expected link count is zero.
    """
    arrs = dyad_probability_arrays(model)
    n = arrs.n
    e_links = float(arrs.link.sum())
    e_recip = float(arrs.both.sum())  # ordered count: both[i,j] + both[j,i]
    d = e_links / (n * (n - 1)) if n >= 2 else 0.0
    r = e_recip / e_links if e_links > 0 else float("nan")
    return d, r


def z_score(lambda_emp: float, ensemble_lambdas) -> float:
    """(lambda_emp - ensemble mean) / ensemble standard deviation (ddof=1)."""
    vals = np.asarray(ensemble_lambdas, dtype=float)
    if vals.size < 2:
        raise DegenerateEnsembleError(f"need at least 2 ensemble values, got {vals.size}")
    std = float(vals.std(ddof=1))
    if std == 0.0 or not math.isfinite(std):
        raise DegenerateEnsembleError("ensemble standard deviation is zero")
    return (lambda_emp - float(vals.mean())) / std

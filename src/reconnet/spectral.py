"""Complex spectra of adjacency matrices and the rescaled-ensemble theory.

The entrywise standardization (a_ij - p_ij) / sqrt(N p_ij (1 - p_ij)) maps
a sampled adjacency matrix onto the zero-mean unit-variance setting in
which the bulk of the spectrum fills an ellipse with semi-axes 1 + tau and
1 - tau, tau being the standardized correlation between a_ij and a_ji.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateEnsembleError,
    DomainError,
    InsufficientDataError,
    NumericalError,
)
from .graph import DirectedNetwork
from .models import FittedModel, dyad_probability_arrays


@dataclass
class Spectrum:
    """All eigenvalues of one real matrix, sorted by modulus then real part."""

    values: np.ndarray  # complex, descending (|lambda|, Re lambda)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def leading(self) -> complex:
        return complex(self.values[0])

    def bulk(self) -> np.ndarray:
        """Everything except the single leading eigenvalue."""
        return self.values[1:]


@dataclass
class TauMatrix:
    """Standardized dyad correlations of a model; NaN where undefined.

    A dyad is defined when both directed probabilities lie strictly inside
    (0, 1); deterministic entries carry no fluctuation.
    """

    values: np.ndarray = field(repr=False)
    defined: np.ndarray = field(repr=False)

    @property
    def mean_tau(self) -> float:
        if not self.defined.any():
            return float("nan")
        return float(self.values[self.defined].mean())


@dataclass
class BulkShape:
    """Quantile-based semi-axes of a pooled spectral bulk."""

    semi_axis_re: float
    semi_axis_im: float
    axis_ratio: float  # semi_axis_im / semi_axis_re
    pooled_count: int
    mean_tau: float = float("nan")


def eigenvalues(matrix) -> Spectrum:
    """Full complex spectrum of a dense real matrix (LAPACK dgeev path)."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NumericalError("matrix has non-finite entries")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    vals = vals[np.lexsort((-vals.real, -np.abs(vals)))]
    # moduli equal up to eigensolver accuracy count as ties, re-ranked by
    # real part (a 3-cycle's roots of unity differ in |.| only by ULPs): a
    # run of neighbours within the tolerance is one group
    mods = np.abs(vals)
    tol = 1e-8 * max(1.0, float(mods[0])) if len(vals) else 0.0
    group = np.zeros(len(vals), dtype=np.intp)
    np.cumsum(mods[:-1] - mods[1:] > tol, out=group[1:])
    return Spectrum(values=vals[np.lexsort((-vals.real, group))])


_POWER_RTOL = 1e-12
_POWER_MAX_ITERATIONS = 500
# below this an entry of the iterate is about to underflow: that row's ratio
# stays apart from the others, so the bracket would never close
_POWER_TINY = 1e-200


def spectral_radius(matrix) -> tuple[float, bool]:
    """Perron root of a nonnegative square matrix, and whether it needed ``eigenvalues``.

    Nodes with no in-links or no out-links in the remaining subgraph lie
    on no cycle, so peeling them off repeatedly leaves the radius as it
    is. On what remains, x <- (A + I) x runs from x = 1: rho(A) + 1 is the
    only eigenvalue of A + I of largest modulus (Perron-Frobenius), so the
    iteration converges on periodic graphs such as directed cycles too.
    It stops when the Collatz-Wielandt bracket [min_i, max_i] of
    ((A + I) x)_i / x_i, which holds rho(A) + 1, narrows to 1e-12 of
    rho(A). Where it does not narrow within a fixed budget (the Perron
    vector of the peeled matrix is not positive, as when a cycle of
    smaller radius is only reachable from one of larger radius), the
    leading eigenvalue of the dense spectrum is returned instead and the
    flag is True.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NumericalError("matrix has non-finite entries")
    if (a < 0).any():
        raise DomainError("matrix must be nonnegative")
    linked = a != 0
    out_deg = linked.sum(axis=1)
    in_deg = linked.sum(axis=0)
    keep = np.ones(a.shape[0], dtype=bool)
    drop = (out_deg == 0) | (in_deg == 0)
    while drop.any():
        keep &= ~drop
        out_deg -= linked[:, drop].sum(axis=1)
        in_deg -= linked[drop].sum(axis=0)
        drop = keep & ((out_deg == 0) | (in_deg == 0))
    if not keep.any():
        return 0.0, False
    b = (a if keep.all() else a[np.ix_(keep, keep)]).astype(float)
    b[np.diag_indices_from(b)] += 1.0
    x = np.ones(b.shape[0])
    for _ in range(_POWER_MAX_ITERATIONS):
        y = b @ x
        ratio = y / x
        lo, hi = ratio.min(), ratio.max()
        if hi - lo <= _POWER_RTOL * (lo - 1.0):
            return float(0.5 * (lo + hi) - 1.0), False
        x = y / y.max()
        if not x.min() > _POWER_TINY:
            break
    return float(eigenvalues(a).leading.real), True


def leading_eigenvalue(net: DirectedNetwork) -> float:
    """Spectral radius of the (nonnegative) adjacency matrix; see ``spectral_radius``."""
    return spectral_radius(net.adjacency)[0]


def rescale_matrix(net: DirectedNetwork, model: FittedModel,
                   link: np.ndarray | None = None) -> np.ndarray:
    """Entrywise standardization (a_ij - p_ij) / sqrt(N p_ij (1 - p_ij)).

    Entries whose model probability is exactly 0 or 1 are deterministic
    and set to 0, as is the diagonal. ``link`` is the model's link
    probability matrix, for a caller that rescales many networks of one
    model and computes it once; by default it is computed here.
    """
    p = dyad_probability_arrays(model).link if link is None else link
    a = net.adjacency
    if a.shape != p.shape:
        raise DomainError(f"network has {a.shape[0]} nodes, model has {p.shape[0]}")
    n = a.shape[0]
    mask = (p > 0.0) & (p < 1.0)
    np.fill_diagonal(mask, False)
    if not mask.any():
        raise DegenerateEnsembleError("all entries are deterministic under the model")
    out = np.zeros_like(p)
    out[mask] = (a[mask] - p[mask]) / np.sqrt(n * p[mask] * (1.0 - p[mask]))
    return out


def tau_matrix(model: FittedModel) -> TauMatrix:
    """Standardized correlation of (a_ij, a_ji) per dyad, from the model.

    tau_ij = (p_both - p_ij p_ji) / sqrt(p_ij(1-p_ij) p_ji(1-p_ji)) on
    dyads where both directed probabilities are inside (0, 1); the 1/N
    factor of the rescaled-ensemble covariance is not part of tau.
    """
    arrs = dyad_probability_arrays(model)
    p = arrs.link
    pt = p.T
    defined = (p > 0.0) & (p < 1.0) & (pt > 0.0) & (pt < 1.0)
    np.fill_diagonal(defined, False)
    values = np.full_like(p, np.nan)
    # grouped as symmetric products so tau_ij == tau_ji bitwise
    num = arrs.both - p * pt
    var = p * (1.0 - p)
    den = np.sqrt(var * var.T)
    values[defined] = num[defined] / den[defined]
    return TauMatrix(values=values, defined=defined)


def bulk_shape(spectra, mean_tau: float = float("nan")) -> BulkShape:
    """Pooled bulk of several spectra: 0.99-quantile semi-axes.

    Each spectrum contributes everything except its single leading
    eigenvalue; the 0.99 quantiles of |Re| and |Im| are robust to the few
    stragglers outside the asymptotic support at finite N.
    """
    pooled = []
    for s in spectra:
        if s.n < 3:
            raise DomainError(f"spectra must have at least 3 eigenvalues, got {s.n}")
        pooled.append(s.bulk())
    if not pooled:
        raise InsufficientDataError("no spectra supplied")
    vals = np.concatenate(pooled)
    if len(vals) < 10:
        raise InsufficientDataError(f"only {len(vals)} pooled eigenvalues, need >= 10")
    semi_re = float(np.quantile(np.abs(vals.real), 0.99))
    semi_im = float(np.quantile(np.abs(vals.imag), 0.99))
    ratio = semi_im / semi_re if semi_re > 0 else float("inf")
    return BulkShape(
        semi_axis_re=semi_re,
        semi_axis_im=semi_im,
        axis_ratio=ratio,
        pooled_count=len(vals),
        mean_tau=mean_tau,
    )

"""Moment-matching estimation: a bracketed Newton solve for the density-only
model, bounded trust-region least squares for the others.

Every fit solves (expected - target) / target = 0 componentwise, so one
tolerance serves targets that differ by orders of magnitude. Parameters
are the exponentials of Lagrange multipliers and live in the open box
(lower_bound, inf); positivity is enforced by the box itself, not by a
log reparameterization. Fitness values are rescaled to unit mean
internally (the kernels are exactly scale-covariant), so the all-ones
start is a sensible origin regardless of currency units.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, DomainError, NonConvergenceError, NumericalError
from .ingest import FitnessData
from .models import FittedModel, ModelKind, link_probability

# u * alt products above this are clamped during iteration; the solver only
# visits that region transiently and the optimum is orders of magnitude away.
_CLAMP = 1e100


@dataclass
class SolverConfig:
    residual_tolerance: float = 1e-10
    step_tolerance: float = 1e-12
    max_iterations: int = 1000
    lower_bound: float = 1e-14
    initial_point: np.ndarray | None = None

    def __post_init__(self):
        if self.residual_tolerance <= 0 or self.step_tolerance <= 0:
            raise DomainError("tolerances must be positive")
        if self.lower_bound <= 0:
            raise DomainError("lower_bound must be positive")
        if self.initial_point is None and self.lower_bound >= 1.0:
            raise DomainError("lower_bound must lie below the all-ones start point")
        if self.max_iterations < 1:
            raise DomainError("max_iterations must be >= 1")


@dataclass
class SolverReport:
    iterations: int
    residual_norm: float
    converged: bool
    seconds: float

    def __str__(self):
        state = "converged" if self.converged else "not converged"
        return (f"{state}: max residual {self.residual_norm:.3e} "
                f"after {self.iterations} evaluations in {self.seconds:.3f}s")


def solve_bounded_least_squares(residual, n_params: int,
                                config: SolverConfig | None = None,
                                jac=None) -> tuple[np.ndarray, SolverReport]:
    """Trust-region-reflective least squares on the positive orthant.

    ``residual`` maps a parameter vector to a residual vector; ``jac`` is
    an optional analytic Jacobian, otherwise forward differences with
    relative step 1e-8 are used. Convergence means the max-abs residual at
    the returned point is within config.residual_tolerance; a non-converged
    report is returned rather than raised, the caller decides.
    """
    config = config or SolverConfig()
    if config.initial_point is not None:
        x0 = np.asarray(config.initial_point, dtype=float)
        if x0.shape != (n_params,):
            raise DomainError(f"initial point has shape {x0.shape}, expected ({n_params},)")
        if (x0 <= config.lower_bound).any():
            raise DomainError("initial point must lie strictly inside the bounds")
    else:
        x0 = np.ones(n_params)

    def wrapped(x):
        f = np.atleast_1d(np.asarray(residual(x), dtype=float))
        if not np.isfinite(f).all():
            raise NumericalError(f"residual returned non-finite values at x={x!r}")
        return f

    # scipy.optimize takes most of a second to import, and only these fits need it
    from scipy.optimize import least_squares

    start = time.perf_counter()
    result = least_squares(
        wrapped, x0,
        jac=jac if jac is not None else "2-point",
        bounds=(config.lower_bound, np.inf),
        method="trf",
        xtol=config.step_tolerance,
        ftol=1e-15,
        gtol=1e-15,
        diff_step=1e-8,
        max_nfev=config.max_iterations,
    )
    elapsed = time.perf_counter() - start
    norm = float(np.max(np.abs(result.fun))) if result.fun.size else 0.0
    report = SolverReport(
        iterations=int(result.nfev),
        residual_norm=norm,
        converged=norm <= config.residual_tolerance,
        seconds=elapsed,
    )
    return result.x, report


def _normalized_fitness(fitness: FitnessData):
    a = fitness.assets
    l = fitness.liabilities
    # a mean that overflows is inf: every normalised fitness is then 0, and no dyad can link
    with np.errstate(over="ignore"):
        scale_a = float(a[a > 0].mean())
        scale_l = float(l[l > 0].mean())
    alt = np.outer(a / scale_a, l / scale_l)
    np.fill_diagonal(alt, 0.0)
    return alt, scale_a * scale_l


def _below_positive_dyads(target: float, positive: int, tolerance: float) -> bool:
    # each dyad links with probability below 1, and with 0 where the fitness product
    # is 0: a target within the tolerance of the number of positive entries, or
    # above it, is reached by no finite parameters
    return target < positive * (1.0 - tolerance)


def _positive_dyads(alt) -> int:
    """Dyads whose fitness product is positive: the only ones that can carry a link."""
    return int(np.count_nonzero(alt > 0))


def fdcm_target_reachable(fitness: FitnessData, d_target: float,
                          config: SolverConfig | None = None) -> bool:
    """Whether some finite z gives the density-only model expected density ``d_target``.

    The test ``fit_fdcm`` applies before it solves: the expected number of
    links stays below the number of dyads with positive fitness product.
    """
    n = fitness.n
    positive = _positive_dyads(_normalized_fitness(fitness)[0])
    return _below_positive_dyads(n * (n - 1) * d_target, positive,
                                 (config or SolverConfig()).residual_tolerance)


def fit_fdcm(fitness: FitnessData, d_target: float,
             config: SolverConfig | None = None) -> FittedModel:
    """Tune the single parameter z so the expected link density matches.

    Solves sum m / (1 + m) = L over the positive entries of alt, with
    m = z * alt and L = n (n - 1) d, by Newton's method in s = log z. The
    residual and its slope come from one pass over alt. Newton steps stay
    inside a bracket of the root and fall back to bisection when they would
    leave it; the lower end starts at the s where sum m = L, below the root
    because m / (1 + m) <= m. Each evaluation counts against
    ``config.max_iterations``; the fit stops once the relative residual is
    within ``config.residual_tolerance``, and fails when the budget is spent,
    a step falls below ``config.step_tolerance`` (relative, in s) first, or
    the target comes within the tolerance of the number of positive entries
    (only z -> infinity approaches it). z is the Newton step
    from the last point evaluated, whose residual the report gives.
    """
    if not 0.0 < d_target < 1.0:
        raise DomainError(f"density target must be in (0,1), got {d_target}")
    n = fitness.n
    if n < 2:
        raise DomainError(f"density fit needs at least 2 nodes, got {n}")
    config = config or SolverConfig()
    alt, scale = _normalized_fitness(fitness)
    positive = _positive_dyads(alt)
    alt = alt[alt > 0]
    target = n * (n - 1) * d_target
    start = time.perf_counter()

    def report(evaluations, residual, converged):
        return SolverReport(iterations=evaluations, residual_norm=residual,
                            converged=converged, seconds=time.perf_counter() - start)

    if not _below_positive_dyads(target, positive, config.residual_tolerance):
        raise NonConvergenceError(
            f"density target ({target:.6g} links) reaches the number of dyads with positive "
            f"fitness ({positive})", report(0, abs(target - positive) / target, False))
    s_min = math.log(config.lower_bound)
    lo, hi = max(math.log(target / alt.sum()), s_min), math.inf
    s = lo
    if config.initial_point is not None:
        x0 = np.asarray(config.initial_point, dtype=float)
        if x0.shape != (1,):
            raise DomainError(f"initial point has shape {x0.shape}, expected (1,)")
        if not x0[0] > config.lower_bound:
            raise DomainError("initial point must lie strictly inside the bounds")
        s = math.log(x0[0])
    tol, step_tol = config.residual_tolerance, config.step_tolerance
    evaluations, step = 0, math.inf
    while True:
        # 1 / (1 + 1/m) is m / (1 + m) without overflow: exactly 1 at m = inf, 0 at m = 0
        with np.errstate(over="ignore", divide="ignore"):
            m = np.exp(s) * alt
            p = 1.0 / (1.0 + 1.0 / m)
            f = (float(p.sum()) - target) / target
            slope = float((p / (1.0 + m)).sum()) / target  # df/ds
        evaluations += 1
        # a step can land exactly on the root (f == 0), so test convergence first
        converged = abs(f) <= tol
        if converged or evaluations >= config.max_iterations \
                or abs(step) <= step_tol * (step_tol + abs(s)):
            break
        if f < 0:
            lo = max(lo, s)
        else:
            hi = min(hi, s)
        new = s - f / slope if slope > 0 else math.nan
        if not lo < new < hi:
            new = 0.5 * (lo + hi) if hi < math.inf else max(lo, s + 1.0)
        step, s = new - s, new
    if converged and slope > 0:
        s = max(s - f / slope, s_min)
    with np.errstate(over="ignore"):
        z = float(np.exp(s)) / scale
    converged = converged and 0.0 < z < math.inf
    if not converged:
        raise NonConvergenceError("density fit did not converge",
                                  report(evaluations, abs(f), False))
    return FittedModel(ModelKind.FDCM, {"z": z}, fitness=fitness,
                       report=report(evaluations, abs(f), True))


def _fgrm_sums(uv, alt):
    u, v = uv
    m = np.minimum(u * alt, _CLAMP)
    q = np.minimum((v * v) * m * m.T, _CLAMP)
    w = 1.0 + m + m.T + q
    s_link = float(np.sum((m + q) / w))
    s_both = float(np.sum(q / w))
    return m, q, w, s_link, s_both


def fit_fgrm(fitness: FitnessData, d_target: float, r_target: float,
             config: SolverConfig | None = None) -> FittedModel:
    """Tune (u, v) to the density and ratio-of-sums reciprocity targets.

    The reciprocity constraint is sum(p_both) / sum(p_link) = r over
    ordered pairs, exactly the ensemble-level ratio. When several roots
    exist, the one reached from the all-ones start is reported.
    """
    if not 0.0 < d_target < 1.0:
        raise DomainError(f"density target must be in (0,1), got {d_target}")
    if not 0.0 <= r_target < 1.0:
        raise DomainError(f"reciprocity target must be in [0,1), got {r_target}")
    n = fitness.n
    if n < 2:
        raise DomainError(f"density/reciprocity fit needs at least 2 nodes, got {n}")
    alt, scale = _normalized_fitness(fitness)
    t_link = n * (n - 1) * d_target
    if _positive_dyads(alt) == 0:
        raise NonConvergenceError("no dyad has a positive fitness product to carry a link")
    r_scale = r_target if r_target > 0 else 1.0

    def resid(uv):
        _, _, _, s_link, s_both = _fgrm_sums(uv, alt)
        return np.array([
            (s_link - t_link) / t_link,
            (s_both / s_link - r_target) / r_scale,
        ])

    def jac(uv):
        u, v = uv
        m, q, w, s_link, s_both = _fgrm_sums(uv, alt)
        w2 = w * w
        mt = m.T
        ds_link_du = float(np.sum(((m + 2.0 * q) * w - (m + q) * (m + mt + 2.0 * q)) / w2)) / u
        ds_link_dv = float(np.sum(2.0 * q * (1.0 + mt) / w2)) / v
        ds_both_du = float(np.sum(q * (2.0 + m + mt) / w2)) / u
        ds_both_dv = float(np.sum(2.0 * q * (1.0 + m + mt) / w2)) / v
        s2 = s_link * s_link
        return np.array([
            [ds_link_du / t_link, ds_link_dv / t_link],
            [(ds_both_du * s_link - s_both * ds_link_du) / (s2 * r_scale),
             (ds_both_dv * s_link - s_both * ds_link_dv) / (s2 * r_scale)],
        ])

    x, report = solve_bounded_least_squares(resid, 2, config, jac=jac)
    if not report.converged:
        raise NonConvergenceError("density/reciprocity fit did not converge", report)
    return FittedModel(ModelKind.FGRM, {"u": float(x[0]) / scale, "v": float(x[1])},
                       fitness=fitness, report=report)


def _relative(expected, target):
    return (expected - target) / np.maximum(target, 1.0)


def fit_degree_model(kind: ModelKind, *, k_in=None, k_out=None, l_recip=None,
                     k_mono_out=None, k_mono_in=None, k_recip=None,
                     config: SolverConfig | None = None) -> FittedModel:
    """Fit the degree-sequence models (per-node multipliers).

    DCM needs (k_in, k_out); GRM additionally the reciprocated link count
    l_recip; RCM needs the per-node non-reciprocated out/in and
    reciprocated degree sequences. Structurally inconsistent sequences are
    rejected before solving.
    """
    kind = ModelKind(kind)
    if kind is ModelKind.DCM:
        return _fit_dcm(k_in, k_out, config)
    if kind is ModelKind.GRM:
        return _fit_grm(k_in, k_out, l_recip, config)
    if kind is ModelKind.RCM:
        return _fit_rcm(k_mono_out, k_mono_in, k_recip, config)
    raise DomainError(f"{kind.value} is not a degree-sequence model")


def _check_handshake(out_seq, in_seq, out_name, in_name):
    # exact for integer sequences; float targets (expected values) get slack
    if abs(out_seq.sum() - in_seq.sum()) > 1e-9 * max(1.0, out_seq.sum()):
        raise DataValidationError(
            f"sum({out_name})={out_seq.sum()} != sum({in_name})={in_seq.sum()}")


def _check_degrees(name, k, n):
    k = np.asarray(k, dtype=float)
    if k.shape != (n,):
        raise DataValidationError(f"{name} must have length {n}")
    if (k < 0).any() or (k > n - 1).any():
        raise DataValidationError(f"{name} entries must lie in [0, {n - 1}]")
    return k


def _fit_dcm(k_in, k_out, config):
    if k_in is None or k_out is None:
        raise DataValidationError("dcm requires k_in and k_out")
    n = len(k_out)
    k_out = _check_degrees("k_out", k_out, n)
    k_in = _check_degrees("k_in", k_in, n)
    _check_handshake(k_out, k_in, "k_out", "k_in")

    def resid(theta):
        p = _independent_link_matrix(theta[:n], theta[n:])
        return np.concatenate([
            _relative(p.sum(axis=1), k_out),
            _relative(p.sum(axis=0), k_in),
        ])

    x, report = solve_bounded_least_squares(resid, 2 * n, config)
    if not report.converged:
        raise NonConvergenceError("degree fit did not converge", report)
    return FittedModel(ModelKind.DCM, {"x": x[:n], "y": x[n:]}, report=report)


def _fit_grm(k_in, k_out, l_recip, config):
    if k_in is None or k_out is None or l_recip is None:
        raise DataValidationError("grm requires k_in, k_out and l_recip")
    n = len(k_out)
    k_out = _check_degrees("k_out", k_out, n)
    k_in = _check_degrees("k_in", k_in, n)
    _check_handshake(k_out, k_in, "k_out", "k_in")
    l_recip = float(l_recip)
    if l_recip < 0 or l_recip > n * (n - 1):
        raise DataValidationError(f"l_recip={l_recip} outside [0, {n * (n - 1)}]")

    def resid(theta):
        x, y, z = theta[:n], theta[n:2 * n], theta[2 * n]
        m1 = np.outer(x, y)
        np.fill_diagonal(m1, 0.0)
        q = (z * z) * m1 * m1.T
        w = 1.0 + m1 + m1.T + q
        p_link = (m1 + q) / w
        return np.concatenate([
            _relative(p_link.sum(axis=1), k_out),
            _relative(p_link.sum(axis=0), k_in),
            np.atleast_1d(_relative(np.sum(q / w), l_recip)),
        ])

    x, report = solve_bounded_least_squares(resid, 2 * n + 1, config)
    if not report.converged:
        raise NonConvergenceError("degree/reciprocity fit did not converge", report)
    return FittedModel(ModelKind.GRM,
                       {"x": x[:n], "y": x[n:2 * n], "z": float(x[2 * n])},
                       report=report)


def _fit_rcm(k_mono_out, k_mono_in, k_recip, config):
    if k_mono_out is None or k_mono_in is None or k_recip is None:
        raise DataValidationError("rcm requires k_mono_out, k_mono_in and k_recip")
    n = len(k_mono_out)
    k_mono_out = _check_degrees("k_mono_out", k_mono_out, n)
    k_mono_in = _check_degrees("k_mono_in", k_mono_in, n)
    k_recip = _check_degrees("k_recip", k_recip, n)
    _check_handshake(k_mono_out, k_mono_in, "k_mono_out", "k_mono_in")
    is_integer = np.allclose(k_recip, np.round(k_recip))
    if is_integer and int(round(k_recip.sum())) % 2 != 0:
        raise DataValidationError("sum of reciprocated degrees must be even")

    def resid(theta):
        x, y, zv = theta[:n], theta[n:2 * n], theta[2 * n:]
        m1 = np.outer(x, y)
        np.fill_diagonal(m1, 0.0)
        q = np.outer(zv, zv)
        np.fill_diagonal(q, 0.0)
        w = 1.0 + m1 + m1.T + q
        p_mono = m1 / w
        p_both = q / w
        return np.concatenate([
            _relative(p_mono.sum(axis=1), k_mono_out),
            _relative(p_mono.sum(axis=0), k_mono_in),
            _relative(p_both.sum(axis=1), k_recip),
        ])

    x, report = solve_bounded_least_squares(resid, 3 * n, config)
    if not report.converged:
        raise NonConvergenceError("reciprocal degree fit did not converge", report)
    return FittedModel(ModelKind.RCM,
                       {"x": x[:n], "y": x[n:2 * n], "z": x[2 * n:]},
                       report=report)


def _independent_link_matrix(x, y):
    m = np.outer(x, y)
    np.fill_diagonal(m, 0.0)
    return link_probability(m)

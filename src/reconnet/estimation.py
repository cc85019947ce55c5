"""Moment-matching estimation: a bracketed Newton solve for the density-only
model, one iteration loop for the others (damped Newton steps for the
two-parameter fitness model, fixed-point sweeps for the degree models).

Every fit solves (expected - target) / target = 0 componentwise, so one
tolerance serves targets that differ by orders of magnitude. Parameters
are the exponentials of Lagrange multipliers and stay at or above
``lower_bound``. Fitness values are rescaled to unit mean internally (the
kernels are exactly scale-covariant), so the all-ones start is a sensible
origin regardless of currency units.
"""

from __future__ import annotations

import math
import numbers
import sys
import time
from dataclasses import dataclass

import numpy as np

from .errors import DataValidationError, DomainError, NonConvergenceError, NumericalError
from .ingest import FitnessData
from .models import FittedModel, ModelKind


@dataclass
class SolverConfig:
    residual_tolerance: float = 1e-10
    step_tolerance: float = 1e-12
    max_iterations: int = 1000
    lower_bound: float = 1e-14
    initial_point: np.ndarray | None = None

    def __post_init__(self):
        for name in ("residual_tolerance", "step_tolerance", "max_iterations", "lower_bound"):
            value = getattr(self, name)
            # a bool is no number; NaN, inf and an int too large for a float are not finite
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not abs(value) <= sys.float_info.max):
                raise DomainError(f"{name} must be a finite number, got {value!r}")
        if not isinstance(self.max_iterations, numbers.Integral):
            raise DomainError(f"max_iterations must be an integer, got {self.max_iterations!r}")
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


def solve_bounded_least_squares(step, n_params: int,
                                config: SolverConfig | None = None) -> tuple[np.ndarray, SolverReport]:
    """Iterate a step map on [lower_bound, inf) until its residual is small.

    ``step`` maps x to (the residual at x, the next x). The iteration starts
    at all-ones or ``config.initial_point`` and floors each next x at
    ``config.lower_bound``. It stops when the max-abs residual is within
    ``config.residual_tolerance``, after ``config.max_iterations`` steps, or
    when no parameter would move by more than ``config.step_tolerance``
    relative, and returns the last x whose residual it took. A non-converged
    report is returned, not raised; a non-finite residual raises
    NumericalError. (``perfbench/layers.py`` traces this older name.)
    """
    config = config or SolverConfig()
    if config.initial_point is not None:
        x = np.asarray(config.initial_point, dtype=float)
        if x.shape != (n_params,):
            raise DomainError(f"initial point has shape {x.shape}, expected ({n_params},)")
        if (x <= config.lower_bound).any():
            raise DomainError("initial point must lie strictly inside the bounds")
    else:
        x = np.ones(n_params)
    start, iterations = time.perf_counter(), 0
    while True:
        residual, new = step(x)
        iterations += 1
        residual = np.asarray(residual, dtype=float)
        if not np.isfinite(residual).all():
            raise NumericalError(f"residual returned non-finite values at x={x!r}")
        norm = float(np.max(np.abs(residual), initial=0.0))
        new = np.maximum(new, config.lower_bound)
        if norm <= config.residual_tolerance or iterations >= config.max_iterations \
                or (np.abs(new - x) <= config.step_tolerance * x).all():
            break
        x = new
    return x, SolverReport(iterations=iterations, residual_norm=norm,
                           converged=norm <= config.residual_tolerance,
                           seconds=time.perf_counter() - start)


def _normalized_fitness(fitness: FitnessData, out=None):
    """The fitness products rescaled to unit-mean factors, zero diagonal, and the scale.

    ``out``, an n x n array, receives the matrix instead of a new one.
    """
    a = fitness.assets
    l = fitness.liabilities
    with np.errstate(over="ignore"):
        scale_a = float(a[a > 0].mean())
        scale_l = float(l[l > 0].mean())
    if math.isinf(scale_a) or math.isinf(scale_l):
        # a mean that overflows is inf: every normalised fitness is then 0, an
        # infinite one too, and no dyad can link
        a = l = np.zeros(fitness.n)
    alt = np.outer(a / scale_a, l / scale_l, out=out)
    np.fill_diagonal(alt, 0.0)
    return alt, scale_a * scale_l


def _probability_of_odds(m, out):
    """m / (1 + m) into ``out``, taken as 1 / (1 + 1/m) without overflow: 1 at m = inf, 0 at 0."""
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(1.0, m, out=out)
    np.add(out, 1.0, out=out)
    return np.divide(1.0, out, out=out)


def fit_fdcm(fitness: FitnessData, d_target: float,
             config: SolverConfig | None = None) -> FittedModel:
    """Tune the single parameter z so the expected link density matches.

    Solves sum m / (1 + m) = L over the positive entries of alt, the
    fitness products rescaled to unit-mean factors, with m = z * alt and
    L = n (n - 1) d (see ``DensityFitter.fit``).
    """
    if not 0.0 < d_target < 1.0:
        raise DomainError(f"density target must be in (0,1), got {d_target}")
    n = fitness.n
    if n < 2:
        raise DomainError(f"density fit needs at least 2 nodes, got {n}")
    fitter = DensityFitter(n, config)
    fitter.use(fitness)
    z, report = fitter.fit(d_target)
    return FittedModel(ModelKind.FDCM, {"z": z}, fitness=fitness, report=report)


_BLOCK_ENTRIES = 8192  # entries of alt that DensityFitter.use compresses at a time


class DensityFitter:
    """Fits of the density-only model at many density targets, and their expected reciprocity.

    Holds the normalised fitness, its positive entries and the work arrays
    for one node count, so that a scan over many windows allocates them
    once. ``use`` sets the fitness; ``fit`` solves for z; ``reachable``
    tells whether some finite z reaches a density; ``reciprocity`` gives
    the fitted model's expected reciprocity.
    """

    def __init__(self, n: int, config: SolverConfig | None = None):
        self.n = n
        self.config = config or SolverConfig()
        self._alt = np.empty((n, n))
        # the positive entries of alt, then two rows for the Newton loop and r_fdcm;
        # one block: split in two, a scan took ten times the page faults in a
        # long-lived process
        self._buffer, *self._work = np.empty((3, n * n))

    def use(self, fitness: FitnessData) -> None:
        """Normalise ``fitness`` and keep its positive products, the only dyads that can link."""
        if fitness.n != self.n:
            raise DomainError(f"fitness has {fitness.n} nodes, the fitter {self.n}")
        alt, self._scale = _normalized_fitness(fitness, out=self._alt)
        # row-major, as alt[alt > 0], a block of rows at a time: the temporaries
        # stay small (np.compress with out= is several times slower)
        rows, end = max(1, _BLOCK_ENTRIES // self.n), 0
        for first in range(0, self.n, rows):
            block = alt[first:first + rows]
            kept = block[block > 0]
            self._buffer[end:end + kept.size] = kept
            end += kept.size
        self._positive = self._buffer[:end]
        self._positive_sum = self._positive.sum()

    def reachable(self, d_target: float) -> bool:
        """Whether some finite z gives expected density ``d_target``.

        Each dyad links with probability below 1, and with 0 where its
        fitness product is 0: a target number of links within the tolerance
        of the number of positive products, or above it, is reached by no
        finite z. A target that is not positive is a DomainError.
        """
        if not d_target > 0.0:
            raise DomainError(f"density target must be positive, got {d_target}")
        n = self.n
        return n * (n - 1) * d_target < self._positive.size * (1.0 - self.config.residual_tolerance)

    def fit(self, d_target: float) -> tuple[float, SolverReport]:
        """z with sum m / (1 + m) = n (n - 1) d_target, m = z * scale * alt, over the positive alt.

        Newton's method in s = log(z * scale). The residual and its slope
        come from one pass over the positive entries. Newton steps stay
        inside a bracket of the root and fall back to bisection when they
        would leave it; the lower end starts at the s where sum m = target,
        below the root because m / (1 + m) <= m. Each evaluation counts
        against ``config.max_iterations``; the fit stops once the relative
        residual is within ``config.residual_tolerance``. It raises
        NonConvergenceError when the budget is spent, a step falls below
        ``config.step_tolerance`` (relative, in s) first, or the target is
        not ``reachable``. z is the Newton step from the last point
        evaluated, whose residual the report gives.
        """
        start = time.perf_counter()

        def report(evaluations, residual, converged):
            return SolverReport(iterations=evaluations, residual_norm=residual,
                                converged=converged, seconds=time.perf_counter() - start)

        config, alt = self.config, self._positive
        target = self.n * (self.n - 1) * d_target
        if not self.reachable(d_target):
            raise NonConvergenceError(
                f"density target ({target:.6g} links) reaches the number of dyads with positive "
                f"fitness ({alt.size})", report(0, abs(target - alt.size) / target, False))
        s_min = math.log(config.lower_bound)
        lo, hi = max(math.log(target / self._positive_sum), s_min), math.inf
        s = lo
        if config.initial_point is not None:
            x0 = np.asarray(config.initial_point, dtype=float)
            if x0.shape != (1,):
                raise DomainError(f"initial point has shape {x0.shape}, expected (1,)")
            if not x0[0] > config.lower_bound:
                raise DomainError("initial point must lie strictly inside the bounds")
            s = math.log(x0[0])
        m, p = (row[:alt.size] for row in self._work)
        tol, step_tol = config.residual_tolerance, config.step_tolerance
        evaluations, step = 0, math.inf
        while True:
            with np.errstate(over="ignore"):
                np.multiply(np.exp(s), alt, out=m)
            _probability_of_odds(m, out=p)
            f = (float(p.sum()) - target) / target
            slope = float(np.divide(p, np.add(m, 1.0, out=m), out=m).sum()) / target  # df/ds
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
            z = float(np.exp(s)) / self._scale
        if not (converged and 0.0 < z < math.inf):
            raise NonConvergenceError("density fit did not converge",
                                      report(evaluations, abs(f), False))
        return z, report(evaluations, abs(f), True)

    def reciprocity(self, d_target: float) -> float | None:
        """sum(p * p^T) / sum(p) at the z fitted to ``d_target``: links are independent.

        None when the target is not ``reachable``. A fit that does not
        converge raises NonConvergenceError.
        """
        if not self.reachable(d_target):  # a target of 1 or more is unreachable, not an error
            return None
        z, _ = self.fit(d_target)
        m, p = (row.reshape(self.n, self.n) for row in self._work)
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(self._alt, z * self._scale, out=m)
        _probability_of_odds(m, out=p)
        # the fit puts sum(p) within the tolerance of target > 0
        return float(np.multiply(p, p.T, out=m).sum()) / float(p.sum())


def _fgrm_equations(uv, alt, t_link, r_target):
    """Residual of the fgrm targets at (u, v), and its Jacobian in (log u, log v).

    The residual is ((s_link - L) / L, (s_both / s_link - r) / r), with
    s_link and s_both the expected links and reciprocated links (at r = 0
    the second entry is not divided). Overflow gives non-finite values.
    """
    u, v = uv
    r_scale = r_target if r_target > 0 else 1.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m = u * alt
        mt = m.T
        q = (v * v) * m * mt
        w = (1.0 + q) + (m + mt)
        w2 = w * w
        # numpy scalars, so that a sum of 0 divides to NaN rather than raising
        s_link = np.sum((m + q) / w)
        s_both = np.sum(q / w)
        # derivatives in log u and log v
        ds_link_du = np.sum(((m + 2.0 * q) * w - (m + q) * (m + mt + 2.0 * q)) / w2)
        ds_link_dv = np.sum(2.0 * q * (1.0 + mt) / w2)
        ds_both_du = np.sum(q * (2.0 + m + mt) / w2)
        ds_both_dv = np.sum(2.0 * q * (1.0 + m + mt) / w2)
        s2 = s_link * s_link
        residual = np.array([(s_link - t_link) / t_link, (s_both / s_link - r_target) / r_scale])
        jac = np.array([
            [ds_link_du / t_link, ds_link_dv / t_link],
            [(ds_both_du * s_link - s_both * ds_link_du) / (s2 * r_scale),
             (ds_both_dv * s_link - s_both * ds_link_dv) / (s2 * r_scale)],
        ])
    return residual, jac


def fit_fgrm(fitness: FitnessData, d_target: float, r_target: float,
             config: SolverConfig | None = None) -> FittedModel:
    """Tune (u, v) to the density and ratio-of-sums reciprocity targets.

    The reciprocity constraint is sum(p_both) / sum(p_link) = r over
    ordered pairs, exactly the ensemble-level ratio. Newton steps in
    (log u, log v) start from all-ones; a step whose residual is non-finite
    or larger is halved. When several roots exist, the one this path
    reaches is reported. As in ``fit_fdcm``, (u, v) is the Newton step from
    the last point evaluated, whose residual the report gives; the report
    counts evaluations. At r = 0 any small v meets the tolerance, so v is
    pinned at ``config.lower_bound`` and u alone (and an initial point)
    fits the density.
    """
    if not 0.0 < d_target < 1.0:
        raise DomainError(f"density target must be in (0,1), got {d_target}")
    if not 0.0 <= r_target < 1.0:
        raise DomainError(f"reciprocity target must be in [0,1), got {r_target}")
    n = fitness.n
    if n < 2:
        raise DomainError(f"density/reciprocity fit needs at least 2 nodes, got {n}")
    config = config or SolverConfig()
    alt, scale = _normalized_fitness(fitness)
    t_link = n * (n - 1) * d_target
    if not (alt > 0).any():
        raise NonConvergenceError("no dyad has a positive fitness product to carry a link")
    free = 2 if r_target > 0 else 1
    evaluations, last = 0, None

    def equations(x):
        # the accepted trial of one step is the next step's start: evaluate it once
        nonlocal evaluations, last
        if last is None or not np.array_equal(last[0], x):
            evaluations += 1
            uv = (x[0], x[1] if free == 2 else config.lower_bound)
            last = (x, *_fgrm_equations(uv, alt, t_link, r_target))
        return last[1], last[2]

    def newton_step(x):
        f, jac = equations(x)
        try:
            return f, np.linalg.solve(jac[:free, :free], -f[:free])
        except np.linalg.LinAlgError:
            return f, np.full(free, np.nan)

    def damped_newton(x):
        f, delta = newton_step(x)
        norm = np.max(np.abs(f))
        while norm > config.residual_tolerance and np.isfinite(delta).all() \
                and np.max(np.abs(delta)) > config.step_tolerance:
            with np.errstate(over="ignore"):
                trial = x * np.exp(delta)
            if np.max(np.abs(equations(trial)[0])) <= norm:  # False for NaN
                return f, trial
            delta = delta / 2.0
        return f, x

    x, report = solve_bounded_least_squares(damped_newton, free, config)
    report.iterations = evaluations
    if not report.converged:
        raise NonConvergenceError("density/reciprocity fit did not converge", report)
    delta = newton_step(x)[1]  # from the cache: the last point evaluated
    if np.isfinite(delta).all():
        x = x * np.exp(delta)
    v = float(x[1]) if free == 2 else config.lower_bound
    return FittedModel(ModelKind.FGRM, {"u": float(x[0]) / scale, "v": v},
                       fitness=fitness, report=report)


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
    names = {ModelKind.DCM: ("k_out", "k_in"), ModelKind.GRM: ("k_out", "k_in", "l_recip"),
             ModelKind.RCM: ("k_mono_out", "k_mono_in", "k_recip")}.get(kind)
    if names is None:
        raise DomainError(f"{kind.value} is not a degree-sequence model")
    given = {"k_out": k_out, "k_in": k_in, "l_recip": l_recip, "k_mono_out": k_mono_out,
             "k_mono_in": k_mono_in, "k_recip": k_recip}
    if any(given[name] is None for name in names):
        raise DataValidationError(f"{kind.value} requires {', '.join(names)}")
    n = len(given[names[0]])
    targets = [_check_degrees(name, given[name], n) for name in names[:2]]
    # exact for integer sequences; float targets (expected values) get slack
    if abs(targets[0].sum() - targets[1].sum()) > 1e-9 * max(1.0, targets[0].sum()):
        raise DataValidationError(f"sum({names[0]})={targets[0].sum()} != "
                                  f"sum({names[1]})={targets[1].sum()}")
    if kind is ModelKind.GRM:
        if not 0 <= float(l_recip) <= n * (n - 1):
            raise DataValidationError(f"l_recip={l_recip} outside [0, {n * (n - 1)}]")
        targets.append([float(l_recip)])
    elif kind is ModelKind.RCM:
        k_recip = _check_degrees("k_recip", k_recip, n)
        if np.allclose(k_recip, np.round(k_recip)) and int(round(k_recip.sum())) % 2 != 0:
            raise DataValidationError("sum of reciprocated degrees must be even")
        targets.append(k_recip)
    return _fit_by_sweeps(kind, np.concatenate(targets), n, config)


def _check_degrees(name, k, n):
    k = np.asarray(k, dtype=float)
    if k.shape != (n,):
        raise DataValidationError(f"{name} must have length {n}")
    if (k < 0).any() or (k > n - 1).any():
        raise DataValidationError(f"{name} entries must lie in [0, {n - 1}]")
    return k


def _fit_by_sweeps(kind, target, n, config):
    """Block Gauss-Seidel sweeps of a degree model's fixed-point equations.

    The equations are those of Squartini & Garlaschelli (NJP 13, 083001,
    2011) and Vallarano et al. (Sci. Rep. 11, 15227, 2021). Each multiplier
    is scaled by its target over its expected value: x and y together, then
    z from the new x and y. An expected value is linear in its own
    multiplier, except grm's reciprocated links, which are quadratic in z
    (hence the square root); so a fixed point meets the targets. The
    sweep's first pass gives the residual at its start point.
    """
    m, t3, w = (np.empty((n, n)) for _ in range(3))  # work arrays, allocated once per fit

    def expected(theta):
        # the targets' expected values at multipliers theta, both in the order x, y[, z]
        np.multiply.outer(theta[:n], theta[n:2 * n], out=m)
        np.fill_diagonal(m, 0.0)
        if kind is ModelKind.DCM:
            np.divide(m, np.add(m, 1.0, out=w), out=m)  # P(i->j) = m / (1 + m)
            return np.concatenate([m.sum(axis=1), m.sum(axis=0)])
        if kind is ModelKind.GRM:
            np.multiply(m, m.T, out=t3)
            np.multiply(t3, theta[2 * n] ** 2, out=t3)
        else:
            np.multiply.outer(theta[2 * n:], theta[2 * n:], out=t3)
            np.fill_diagonal(t3, 0.0)
        np.add(np.add(np.add(m, m.T, out=w), t3, out=w), 1.0, out=w)  # 1 + m + m^T + t3
        np.divide(t3, w, out=t3)  # P(both links)
        np.divide(m, w, out=m)  # P(i->j only)
        if kind is ModelKind.GRM:
            np.add(m, t3, out=m)
            return np.concatenate([m.sum(axis=1), m.sum(axis=0), [t3.sum()]])
        return np.concatenate([m.sum(axis=1), m.sum(axis=0), t3.sum(axis=1)])

    power = 0.5 if kind is ModelKind.GRM else 1.0

    def sweep(theta):
        first = expected(theta)
        theta = theta.copy()
        theta[:2 * n] *= target[:2 * n] / first[:2 * n]
        if kind is not ModelKind.DCM:
            theta[2 * n:] *= (target[2 * n:] / expected(theta)[2 * n:]) ** power
        return (first - target) / np.maximum(target, 1.0), theta

    x, report = solve_bounded_least_squares(sweep, len(target), config)
    if not report.converged:
        raise NonConvergenceError(f"{kind.value} fit did not converge", report)
    params = {"x": x[:n], "y": x[n:2 * n]}
    if kind is not ModelKind.DCM:
        params["z"] = x[2 * n] if kind is ModelKind.GRM else x[2 * n:]
    return FittedModel(kind, params, report=report)

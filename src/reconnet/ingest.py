"""Transaction tables, window aggregation, fitness, synthetic data.

The transactions file is read into a ``TransactionTable`` in ``serialize``.

The trading-day calendar is the sorted set of distinct dates observed in
the data; aggregation windows count trading days, not calendar days, and a
trailing partial window is dropped so every window covers exactly delta_t
days. The node set is fixed per year (every bank active at any point in
the year), which keeps density comparable across window lengths.
"""

from __future__ import annotations

import datetime as dt
import itertools
import math
import re
from dataclasses import dataclass

import numpy as np

from .ensemble import derive_subseed, sample_adjacencies
from .errors import ConfigurationError, DataValidationError
from .graph import MAX_NODES, DirectedNetwork
from .models import FittedModel


@dataclass(frozen=True)
class AggregationWindow:
    """delta_t consecutive trading days: positions ``first:stop`` of a ``YearIndex``'s days."""

    delta_t: int
    window_index: int

    @property
    def first(self) -> int:
        return self.window_index * self.delta_t

    @property
    def stop(self) -> int:
        return self.first + self.delta_t


@dataclass
class FitnessData:
    """Per-node total interbank assets and liabilities (currency units)."""

    assets: np.ndarray
    liabilities: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assets, dtype=float)
        l = np.asarray(self.liabilities, dtype=float)
        if a.ndim != 1 or a.shape != l.shape:
            raise DataValidationError("assets and liabilities must be 1-d and equal length")
        if len(a) > MAX_NODES:
            raise DataValidationError(f"fitness has {len(a)} nodes, more than {MAX_NODES}")
        if (a < 0).any() or (l < 0).any():
            raise DataValidationError("fitness values must be nonnegative")
        if not (a > 0).any() or not (l > 0).any():
            raise DataValidationError("need at least one positive asset and one positive liability")
        self.assets = a
        self.liabilities = l

    @property
    def n(self) -> int:
        return len(self.assets)


def parse_transactions(path) -> TransactionTable:
    """``serialize.read_transactions(path)``; see there for the errors raised."""
    from .serialize import read_transactions  # serialize imports this module

    return read_transactions(path)


@dataclass(frozen=True, eq=False)
class TransactionTable:
    """Transactions as columns, one row per record in file order.

    Row k lends ``amount[k]`` from ``labels[lender[k]]`` to
    ``labels[borrower[k]]`` on ``dates[day[k]]``, with maturity
    ``maturity[k]`` (None when absent). ``dates`` are the distinct dates
    and ``labels`` the distinct bank names, both sorted ascending.
    """

    dates: tuple[dt.date, ...]
    day: np.ndarray
    labels: tuple[str, ...]
    lender: np.ndarray
    borrower: np.ndarray
    amount: np.ndarray
    maturity: list


@dataclass(frozen=True)
class YearIndex:
    """The rows of one year as arrays, indexed once and cut into windows.

    ``labels`` are the banks active anywhere in the year and ``days`` its
    trading days. Row k (file order, other years left out) puts
    ``amount[k]`` on the cell ``lender * n + borrower`` of the flattened
    N x N matrix. ``order`` lists the rows stably by day, and the rows of
    day t are ``order[bounds[t]:bounds[t + 1]]``.
    """

    year: int
    labels: tuple[str, ...]
    days: tuple[dt.date, ...]
    cell: np.ndarray
    amount: np.ndarray
    order: np.ndarray
    bounds: np.ndarray


def index_year(table: TransactionTable, year: int) -> YearIndex:
    """Index the rows of ``table`` in ``year`` for cutting windows from them.

    The node set is every bank active anywhere in the year; more than
    MAX_NODES banks is a DataValidationError.
    """
    in_year = np.array([d.year == year for d in table.dates], dtype=bool)
    slot = np.cumsum(in_year) - 1  # per distinct date of the year: its place among the days
    days = tuple(itertools.compress(table.dates, in_year))
    rows = np.flatnonzero(in_year[table.day])  # file order
    active = np.zeros(len(table.labels), dtype=bool)
    active[table.lender[rows]] = True
    active[table.borrower[rows]] = True
    labels = tuple(itertools.compress(table.labels, active))
    n = len(labels)
    if n > MAX_NODES:
        raise DataValidationError(f"year {year} has {n} banks, more than {MAX_NODES}")
    node = np.cumsum(active) - 1  # table labels are sorted, so the year's keep their order
    day = slot[table.day[rows]]
    order = np.argsort(day, kind="stable")
    return YearIndex(
        year=year, labels=labels, days=days,
        cell=node[table.lender[rows]] * n + node[table.borrower[rows]],
        amount=table.amount[rows],
        order=order, bounds=np.searchsorted(day[order], np.arange(len(days) + 1)))


def build_windows(index: YearIndex, delta_t: int) -> list[AggregationWindow]:
    """All complete delta_t-day windows of the index's year, in chronological order."""
    if delta_t < 1:
        raise ConfigurationError(f"delta_t must be >= 1, got {delta_t}")
    return [AggregationWindow(delta_t, k) for k in range(len(index.days) // delta_t)]


def aggregate(index: YearIndex, window: AggregationWindow) -> DirectedNetwork:
    """Collapse the window's transactions into one weighted snapshot.

    a_ij = 1 iff at least one loan i -> j falls inside the window; weights
    are the amounts summed in file order. The node set covers the whole
    year, so windows of one year share a common N. A window that ends
    after the index's last day is a ConfigurationError.
    """
    if window.stop > len(index.days):
        raise ConfigurationError(
            f"window {window.window_index} (delta_t={window.delta_t}) ends after day "
            f"{len(index.days)} of the {index.year} index")
    # back into file order: each cell then adds its amounts in the order a
    # running sum over the file would, so the weights match it bit for bit
    rows = np.sort(index.order[index.bounds[window.first]:index.bounds[window.stop]])
    n = len(index.labels)
    w = np.bincount(index.cell[rows], weights=index.amount[rows], minlength=n * n)
    return DirectedNetwork.from_weight_matrix(w.reshape(n, n), labels=index.labels)


def fitness_from_strengths(net: DirectedNetwork) -> FitnessData:
    """Assets := money lent (out-strength), liabilities := money borrowed."""
    if net.weights is None:
        raise DataValidationError("fitness requires a weighted network")
    return FitnessData(assets=net.weights.sum(axis=1), liabilities=net.weights.sum(axis=0))


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

_DIST_RE = re.compile(r"^\s*(lognormal|pareto|constant)\s*\(([^)]*)\)\s*$")


def parse_distribution(spec: str):
    """Parse 'lognormal(mu,sigma)' | 'pareto(alpha,x_min)' | 'constant(c)'."""
    m = _DIST_RE.match(spec)
    if not m:
        raise ConfigurationError(f"bad distribution spec {spec!r}")
    name = m.group(1)
    try:
        params = tuple(float(p) for p in m.group(2).split(","))
    except ValueError:
        raise ConfigurationError(f"bad distribution parameters in {spec!r}") from None
    if name == "lognormal":
        if len(params) != 2 or params[1] < 0:
            raise ConfigurationError("lognormal needs (mu, sigma >= 0)")
    elif name == "pareto":
        if len(params) != 2 or params[0] <= 0 or params[1] <= 0:
            raise ConfigurationError("pareto needs (alpha > 0, x_min > 0)")
    else:
        if len(params) != 1 or params[0] <= 0:
            raise ConfigurationError("constant needs one positive value")
    return name, params


def synth_fitness(n: int, distribution_spec: str, seed: int) -> FitnessData:
    """Draw per-node assets then liabilities independently from the given law."""
    if n < 2:
        raise ConfigurationError(f"need n >= 2 nodes, got {n}")
    name, params = parse_distribution(distribution_spec)
    rng = np.random.Generator(np.random.PCG64(seed))

    def draw():
        if name == "lognormal":
            return rng.lognormal(params[0], params[1], n)
        if name == "pareto":
            return params[1] * (1.0 + rng.pareto(params[0], n))
        return np.full(n, params[0])

    assets = draw()
    liabilities = draw()
    return FitnessData(assets=assets, liabilities=liabilities)


def trading_days(year: int, n_days: int) -> list[dt.date]:
    """First n_days weekdays of the year; fewer than one, or more than the year has,
    is a ConfigurationError."""
    if n_days < 1:
        raise ConfigurationError(f"days must be >= 1, got {n_days}")
    if not dt.MINYEAR <= year <= dt.MAXYEAR:
        raise ConfigurationError(f"year must lie in {dt.MINYEAR}..{dt.MAXYEAR}, got {year}")
    first = dt.date(year, 1, 1)
    length = (dt.date(year, 12, 31) - first).days + 1
    days = [day for day in (first + dt.timedelta(days=k) for k in range(length))
            if day.weekday() < 5]
    if len(days) < n_days:
        raise ConfigurationError(f"year {year} has fewer than {n_days} weekdays")
    return days[:n_days]


def synth_days(year: int, n_days: int, amount_sigma: float = 0.0) -> list[dt.date]:
    """The trading days ``synth_transactions`` draws, once its arguments besides the
    model and the seed are checked: a caller can check them before fitting a model."""
    if not 0.0 <= amount_sigma < math.inf:  # NaN fails both comparisons
        raise ConfigurationError(
            f"amount_sigma must be nonnegative and finite, got {amount_sigma}")
    return trading_days(year, n_days)


def synth_transactions(model: FittedModel, year: int, n_days: int, seed: int,
                       amount_sigma: float = 0.0) -> TransactionTable:
    """Per-day independent draws from ``model``, one transaction per link.

    Day k is sampled with the sub-seed derived from (seed, k) and its links
    are listed in row-major order; amounts are 1.0, or lognormal(0,
    amount_sigma) drawn with the sub-seed of (seed, n_days + k) when a
    spread is requested. Bank k is labelled ``B{k:04d}``. Arguments that
    ``synth_days`` rejects are a ConfigurationError; an amount that
    overflows to infinity or underflows to zero is a DataValidationError.
    """
    days = synth_days(year, n_days, amount_sigma)
    n = model.n
    adjacencies = sample_adjacencies(model, [derive_subseed(seed, k) for k in range(n_days)])
    cells, amounts = [], []
    for k, a in enumerate(adjacencies):
        cells.append(np.flatnonzero(a))
        if amount_sigma > 0.0:
            rng = np.random.Generator(np.random.PCG64(derive_subseed(seed, n_days + k)))
            amounts.append(rng.lognormal(0.0, amount_sigma, len(cells[-1])))
    counts = np.array([len(c) for c in cells], dtype=np.intp)
    row_day = np.repeat(np.arange(n_days, dtype=np.intp), counts)
    cell = np.concatenate(cells)
    amount = np.concatenate(amounts) if amounts else np.ones(len(cell))
    lender, borrower = np.divmod(cell, n)
    bad = ~((amount > 0) & (amount < math.inf))  # NaN fails both
    if bad.any():
        raise DataValidationError(
            f"amount must be positive and finite, got {float(amount[np.argmax(bad)])}")
    # the table holds the days and banks that carry a link, each sorted
    has_links = counts > 0
    names = sorted((f"B{k:04d}", k) for k in np.union1d(lender, borrower).tolist())
    code = np.zeros(n, dtype=np.intp)
    code[[k for _, k in names]] = np.arange(len(names))
    return TransactionTable(
        dates=tuple(itertools.compress(days, has_links)),
        day=(np.cumsum(has_links) - 1)[row_day],
        labels=tuple(name for name, _ in names),
        lender=code[lender], borrower=code[borrower],
        amount=amount, maturity=[None] * len(cell))

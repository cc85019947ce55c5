"""Transaction-log ingestion, window aggregation, fitness, synthetic data.

The trading-day calendar is the sorted set of distinct dates observed in
the data; aggregation windows count trading days, not calendar days, and a
trailing partial window is dropped so every window covers exactly delta_t
days. The node set is fixed per year (every bank active at any point in
the year), which keeps density comparable across window lengths.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ensemble import derive_subseed, sample_network
from .errors import ConfigurationError, DataValidationError, ParseError
from .graph import DirectedNetwork
from .models import FittedModel


@dataclass
class TransactionRecord:
    """One loan: lender -> borrower of a positive amount on a given date."""

    date: dt.date
    lender: str
    borrower: str
    amount: float
    maturity: str | None = None

    def __post_init__(self):
        if not 0 < self.amount < math.inf:  # NaN fails both comparisons
            raise DataValidationError(f"amount must be positive and finite, got {self.amount}")
        if self.lender == self.borrower:
            raise DataValidationError(f"self-loop transaction for {self.lender!r}")


@dataclass(frozen=True)
class AggregationWindow:
    """delta_t consecutive trading days within one year."""

    year: int
    delta_t: int
    window_index: int
    days: tuple[dt.date, ...]

    def __post_init__(self):
        if len(self.days) != self.delta_t:
            raise ConfigurationError(
                f"window holds {len(self.days)} days, expected delta_t={self.delta_t}"
            )


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
        if (a < 0).any() or (l < 0).any():
            raise DataValidationError("fitness values must be nonnegative")
        if not (a > 0).any() or not (l > 0).any():
            raise DataValidationError("need at least one positive asset and one positive liability")
        self.assets = a
        self.liabilities = l

    @property
    def n(self) -> int:
        return len(self.assets)


_HEADER = ["date", "lender", "borrower", "amount"]


def parse_transactions(source) -> list[TransactionRecord]:
    """Parse a transactions CSV (header date,lender,borrower,amount[,maturity]).

    ``source`` may be a path, a text stream, or a bytes stream (UTF-8).
    Raises ParseError with the offending line number on malformed rows and
    DataValidationError on semantic violations (an amount that is not
    positive and finite, self-loops).
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return parse_transactions(fh)
    if isinstance(source, bytes):
        return parse_transactions(io.StringIO(source.decode("utf-8")))
    if hasattr(source, "read") and isinstance(source.read(0), bytes):
        source = io.TextIOWrapper(source, encoding="utf-8")

    reader = csv.reader(source)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty file, expected a header row", line=1) from None
    header = [h.strip().lower() for h in header]
    if header != _HEADER and header != _HEADER + ["maturity"]:
        raise ParseError(
            f"bad header {header!r}, expected date,lender,borrower,amount[,maturity]", line=1
        )
    has_maturity = len(header) == 5

    records = []
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"expected {len(header)} fields, got {len(row)}", line=line)
        try:
            date = dt.date.fromisoformat(row[0].strip())
        except ValueError:
            raise ParseError(f"bad ISO-8601 date {row[0]!r}", line=line) from None
        lender = row[1].strip()
        borrower = row[2].strip()
        if not lender or not borrower:
            raise ParseError("empty lender or borrower field", line=line)
        try:
            amount = float(row[3])
        except ValueError:
            raise ParseError(f"bad amount {row[3]!r}", line=line) from None
        maturity = row[4].strip() if has_maturity and row[4].strip() else None
        try:
            records.append(TransactionRecord(date, lender, borrower, amount, maturity))
        except DataValidationError as exc:
            raise DataValidationError(str(exc), line=line) from None
    return records


def trading_calendar(records) -> list[dt.date]:
    """Distinct dates present in the data, sorted ascending."""
    return sorted({r.date for r in records})


def build_windows(records, year: int, delta_t: int) -> list[AggregationWindow]:
    """All complete delta_t-day windows of one year, in chronological order."""
    if delta_t < 1:
        raise ConfigurationError(f"delta_t must be >= 1, got {delta_t}")
    days = [d for d in trading_calendar(records) if d.year == year]
    windows = []
    for k in range(len(days) // delta_t):
        chunk = tuple(days[k * delta_t:(k + 1) * delta_t])
        windows.append(AggregationWindow(year=year, delta_t=delta_t, window_index=k, days=chunk))
    return windows


def active_labels(records, year: int) -> list[str]:
    """Banks active (as lender or borrower) anywhere in the year, sorted."""
    names = set()
    for r in records:
        if r.date.year == year:
            names.add(r.lender)
            names.add(r.borrower)
    return sorted(names)


def aggregate(records, window: AggregationWindow) -> DirectedNetwork:
    """Collapse the window's transactions into one weighted snapshot.

    a_ij = 1 iff at least one loan i -> j falls inside the window; weights
    are summed amounts. The node set covers the whole year, so windows of
    one year share a common N.
    """
    labels = active_labels(records, window.year)
    index = {name: k for k, name in enumerate(labels)}
    n = len(labels)
    w = np.zeros((n, n))
    day_set = set(window.days)
    for r in records:
        if r.date in day_set:
            w[index[r.lender], index[r.borrower]] += r.amount
    return DirectedNetwork.from_weight_matrix(w, labels=tuple(labels))


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
    """First n_days weekdays of the year."""
    days = []
    day = dt.date(year, 1, 1)
    while len(days) < n_days:
        if day.weekday() < 5:
            days.append(day)
        day += dt.timedelta(days=1)
        if day.year != year:
            raise ConfigurationError(f"year {year} has fewer than {n_days} weekdays")
    return days


def synth_transactions(model: FittedModel, year: int, n_days: int, seed: int,
                       amount_sigma: float = 0.0) -> list[TransactionRecord]:
    """Per-day independent draws from ``model``, one transaction per link.

    Day k is sampled with the sub-seed derived from (seed, k); amounts are
    1.0, or lognormal(0, amount_sigma) when a spread is requested.
    """
    days = trading_days(year, n_days)
    n = model.n
    labels = [f"B{k:04d}" for k in range(n)]
    records = []
    for k, day in enumerate(days):
        net = sample_network(model, derive_subseed(seed, k))
        rows, cols = np.nonzero(net.adjacency)
        if amount_sigma > 0.0:
            rng = np.random.Generator(np.random.PCG64(derive_subseed(seed, n_days + k)))
            amounts = rng.lognormal(0.0, amount_sigma, len(rows))
        else:
            amounts = np.ones(len(rows))
        for i, j, amt in zip(rows, cols, amounts):
            records.append(TransactionRecord(day, labels[i], labels[j], float(amt)))
    return records


# ---------------------------------------------------------------------------
# CSV surfaces (UTF-8, '.' decimal point, no thousands separators)
# ---------------------------------------------------------------------------


def write_transactions_csv(path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER + ["maturity"])
        for r in records:
            writer.writerow([r.date.isoformat(), r.lender, r.borrower,
                             format(r.amount, ".17g"), r.maturity or ""])


def write_fitness_csv(path, fitness: FitnessData, labels=None) -> None:
    labels = labels or [f"B{k:04d}" for k in range(fitness.n)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "assets", "liabilities"])
        for name, a, l in zip(labels, fitness.assets, fitness.liabilities):
            writer.writerow([name, format(a, ".17g"), format(l, ".17g")])


def read_fitness_csv(path) -> tuple[FitnessData, list[str]]:
    labels, assets, liabilities = [], [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip().lower() for h in next(reader)]
        except StopIteration:
            raise ParseError("empty fitness file", line=1) from None
        if header != ["node", "assets", "liabilities"]:
            raise ParseError(f"bad fitness header {header!r}", line=1)
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", line=reader.line_num)
            try:
                a, l = float(row[1]), float(row[2])
            except ValueError:
                raise ParseError(f"bad fitness values {row[1:]!r}", line=reader.line_num) from None
            labels.append(row[0].strip())
            assets.append(a)
            liabilities.append(l)
    return FitnessData(assets=np.array(assets), liabilities=np.array(liabilities)), labels

"""Transaction-log ingestion, window aggregation, fitness, synthetic data.

The trading-day calendar is the sorted set of distinct dates observed in
the data; aggregation windows count trading days, not calendar days, and a
trailing partial window is dropped so every window covers exactly delta_t
days. The node set is fixed per year (every bank active at any point in
the year), which keeps density comparable across window lengths.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import io
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ensemble import derive_subseed, sample_networks
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


@contextmanager
def csv_reader(stream):
    """A csv reader of ``stream``; in the block, a line it cannot split is a ParseError."""
    reader = csv.reader(stream)
    try:
        yield reader
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None


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

    with csv_reader(source) as reader:
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


@dataclass(frozen=True)
class YearIndex:
    """The records of one year as arrays, indexed once and cut into windows.

    ``labels`` are the banks active anywhere in the year and ``days`` the
    trading days the index covers. Record k (file order, other years and
    days left out) puts ``amount[k]`` on the cell ``lender * n + borrower``
    of the flattened N x N matrix. ``order`` lists the records stably by
    day, and the records of day t are ``order[bounds[t]:bounds[t + 1]]``.
    """

    year: int
    labels: tuple[str, ...]
    days: tuple[dt.date, ...]
    cell: np.ndarray
    amount: np.ndarray
    order: np.ndarray
    bounds: np.ndarray

    def network(self, window: AggregationWindow) -> DirectedNetwork:
        """The window's snapshot: the records of its days summed per cell."""
        first = bisect.bisect_left(self.days, window.days[0]) if window.days else 0
        stop = first + len(window.days)
        if window.year != self.year or self.days[first:stop] != window.days:
            raise ConfigurationError(
                f"window {window.window_index} (delta_t={window.delta_t}) is not a run of "
                f"consecutive trading days of the {self.year} index")
        # back into file order: each cell then adds its amounts in the order a
        # running sum over the file would, so the weights match it bit for bit
        rows = np.sort(self.order[self.bounds[first]:self.bounds[stop]])
        n = len(self.labels)
        w = np.bincount(self.cell[rows], weights=self.amount[rows], minlength=n * n)
        return DirectedNetwork.from_weight_matrix(w.reshape(n, n), labels=self.labels)


def index_year(records, year: int, days=None) -> YearIndex:
    """Index the records of ``year`` for cutting windows from them.

    The node set is every bank active anywhere in the year. The index covers
    the year's trading calendar, or only ``days`` (sorted, distinct days of
    the year) when given: a caller that needs one window then indexes only
    its records.
    """
    if days is None:
        days = [d for d in trading_calendar(records) if d.year == year]
    elif any(d.year != year for d in days) or any(b <= a for a, b in zip(days, days[1:])):
        raise ConfigurationError(f"index days must be sorted, distinct days of {year}")
    position = {d: k for k, d in enumerate(days)}
    # one pass: the year's banks, and the records of the indexed days in file order
    banks, recs = set(), []
    for r in records:
        if r.date.year == year:
            banks.add(r.lender)
            banks.add(r.borrower)
            if r.date in position:
                recs.append(r)
    labels = tuple(sorted(banks))
    node = {name: k for k, name in enumerate(labels)}
    n = len(labels)
    day = np.array([position[r.date] for r in recs], dtype=np.intp)
    order = np.argsort(day, kind="stable")
    return YearIndex(
        year=year, labels=labels, days=tuple(days),
        cell=np.array([node[r.lender] * n + node[r.borrower] for r in recs], dtype=np.intp),
        amount=np.array([r.amount for r in recs], dtype=float),
        order=order, bounds=np.searchsorted(day[order], np.arange(len(days) + 1)))


def build_windows(records, year: int, delta_t: int) -> list[AggregationWindow]:
    """All complete delta_t-day windows of one year, in chronological order.

    ``records`` may be a ``YearIndex`` of the year, whose days are then the
    calendar.
    """
    if delta_t < 1:
        raise ConfigurationError(f"delta_t must be >= 1, got {delta_t}")
    if isinstance(records, YearIndex):
        if records.year != year:
            raise ConfigurationError(f"index covers {records.year}, not {year}")
        days = records.days
    else:
        days = [d for d in trading_calendar(records) if d.year == year]
    return [AggregationWindow(year=year, delta_t=delta_t, window_index=k,
                              days=tuple(days[k * delta_t:(k + 1) * delta_t]))
            for k in range(len(days) // delta_t)]


def aggregate(records, window: AggregationWindow) -> DirectedNetwork:
    """Collapse the window's transactions into one weighted snapshot.

    a_ij = 1 iff at least one loan i -> j falls inside the window; weights
    are the amounts summed in file order. The node set covers the whole
    year, so windows of one year share a common N. ``records`` may be a
    ``YearIndex`` of the window's year, built once for many windows;
    otherwise only the window's records are indexed.
    """
    if not isinstance(records, YearIndex):
        records = index_year(records, window.year, window.days)
    return records.network(window)


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
    nets = sample_networks(model, [derive_subseed(seed, k) for k in range(n_days)])
    records = []
    for k, (day, net) in enumerate(zip(days, nets)):
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
    with open(path, "r", encoding="utf-8", newline="") as fh, csv_reader(fh) as reader:
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
            if not (0 <= a < math.inf and 0 <= l < math.inf):  # NaN fails both
                raise DataValidationError(f"fitness values must be finite and nonnegative, "
                                          f"got {row[1:]!r}", line=reader.line_num)
            labels.append(row[0].strip())
            assets.append(a)
            liabilities.append(l)
    return FitnessData(assets=np.array(assets), liabilities=np.array(liabilities)), labels

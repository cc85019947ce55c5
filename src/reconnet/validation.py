"""Model-data comparison: reciprocity-gap scans, ROC/AUC, cross-entropy."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DataValidationError, DomainError, SingularityError, UndefinedAUCError
from .estimation import DensityFitter, SolverConfig
from .graph import DirectedNetwork
from .ingest import FitnessData, TransactionTable, build_windows, index_year
from .models import FittedModel, dyad_probability_arrays

log = logging.getLogger(__name__)


def rho(r_emp: float, r_model: float) -> float:
    """Normalized gap (r_emp - r_model) / (1 - r_model).

    Zero means the density-only model already reproduces the observed
    reciprocity; positive (negative) means it under- (over-) estimates it.
    """
    if not 0.0 <= r_emp <= 1.0:
        raise DomainError(f"empirical reciprocity must be in [0,1], got {r_emp}")
    if not 0.0 <= r_model <= 1.0:
        raise DomainError(f"model reciprocity must be in [0,1], got {r_model}")
    if r_model == 1.0:
        raise SingularityError("model reciprocity of 1 makes the gap undefined")
    return (r_emp - r_model) / (1.0 - r_model)


@dataclass
class WindowRow:
    """One fitted window inside a scan."""

    delta_t: int
    window_index: int
    density: float
    reciprocity: float
    r_fdcm: float
    rho: float


@dataclass
class ScanRow:
    """Across-window averages for one aggregation period."""

    delta_t: int
    window_count: int
    skipped_windows: int
    mean_density: float
    mean_reciprocity: float
    mean_r_fdcm: float
    mean_rho: float

    @property
    def missing(self) -> bool:
        return self.window_count == 0


@dataclass
class RhoScanResult:
    rows: list[ScanRow]
    windows: list[WindowRow] = field(repr=False)
    t_min: int | None = None
    t_0: int | None = None
    t_max: int | None = None
    rho_min: float = float("nan")
    rho_max: float = float("nan")


def extract_rho_landmarks(delta_ts, rhos):
    """(t_min, rho_min, t_max, rho_max, t_0) of an averaged rho curve.

    t_0 is the grid point nearest to the zero crossing (linear
    interpolation between consecutive scanned values); with several
    crossings, the largest one wins. An exact zero is a crossing at its
    own grid point. Returns t_0 = None when the curve never changes sign.
    """
    delta_ts = list(delta_ts)
    rhos = [float(x) for x in rhos]
    if len(delta_ts) != len(rhos) or not delta_ts:
        raise DomainError("delta_ts and rhos must be equal-length and non-empty")
    i_min = int(np.argmin(rhos))
    i_max = int(np.argmax(rhos))
    t_0 = None
    for k in range(len(rhos)):
        if rhos[k] == 0.0:
            t_0 = delta_ts[k]
            continue
        if k + 1 < len(rhos) and rhos[k] * rhos[k + 1] < 0.0:
            a, b = delta_ts[k], delta_ts[k + 1]
            cross = a + (b - a) * rhos[k] / (rhos[k] - rhos[k + 1])
            t_0 = a if abs(cross - a) <= abs(cross - b) else b
    return delta_ts[i_min], rhos[i_min], delta_ts[i_max], rhos[i_max], t_0


def scan_aggregations(table: TransactionTable, year: int, delta_t_list,
                      fitness: FitnessData | None = None,
                      solver_config: SolverConfig | None = None) -> RhoScanResult:
    """Reciprocity-gap scan of the density-only model across window lengths.

    For every delta_t, each complete window is reconstructed with the
    density-only fitness model and its expected reciprocity compared to
    the observed one. Windows without links, and windows whose density no
    finite z of the model reaches (a single link, say), are skipped and
    counted; a delta_t where every window was skipped is kept as a missing
    row. Fitness defaults to the strengths realized in the window itself;
    passing ``fitness`` pins one external vector for all windows, one entry
    per bank active in the year (another count is a DataValidationError).
    Every fit runs through one ``DensityFitter`` over the positive fitness
    products, as ``fit_fdcm`` does.
    The year's rows of ``table`` are indexed once, and each window's links
    and strengths are taken from the index without building its network
    (a strength is a sum of daily sums, so its last bits can differ from
    the row sums of ``aggregate``'s weights). A year with fewer trading
    days than the smallest delta_t is a DataValidationError.
    """
    delta_t_list = list(delta_t_list)
    if any(b <= a for a, b in zip(delta_t_list, delta_t_list[1:])):
        raise DomainError("delta_t values must be strictly increasing")
    rows: list[ScanRow] = []
    window_rows: list[WindowRow] = []
    index = index_year(table, year)
    n, n_days = len(index.labels), len(index.days)
    if delta_t_list and n_days < delta_t_list[0]:
        raise DataValidationError(
            f"no complete windows for year {year}: {n_days} trading days, "
            f"smallest delta_t {delta_t_list[0]}")
    if fitness is not None and fitness.n != n:
        raise DataValidationError(f"fitness has {fitness.n} nodes, year {year} has {n} banks")
    # the year's records in day order, so that each window's records are one slice
    cell = index.cell[index.order]
    amount = index.amount[index.order]
    # per day and bank, the amounts lent and borrowed: a window's strengths
    # are the sums of its days' rows; bin day * n + bank adds its records in day order
    day_bin = np.repeat(np.arange(n_days) * n, np.diff(index.bounds))
    lent, borrowed = (np.bincount(day_bin + side(cell, n), weights=amount, minlength=n_days * n)
                      .reshape(n_days, n) for side in (np.floor_divide, np.remainder))
    links = np.zeros(n * n, dtype=bool)
    square = links.reshape(n, n)
    both = np.empty((n, n), dtype=bool)
    fdcm = DensityFitter(n, solver_config)
    if fitness is not None:
        fdcm.use(fitness)
    for delta_t in delta_t_list:
        skipped = 0
        per_window: list[WindowRow] = []
        for window in build_windows(index, delta_t):
            first, stop = window.first, window.stop
            links.fill(False)
            links[cell[index.bounds[first]:index.bounds[stop]]] = True
            link_count = int(np.count_nonzero(links))
            if link_count == 0:
                skipped += 1
                continue
            if fitness is None:
                fdcm.use(FitnessData(assets=lent[first:stop].sum(axis=0),
                                     liabilities=borrowed[first:stop].sum(axis=0)))
            d = link_count / (n * (n - 1))
            r_fdcm = fdcm.reciprocity(d)
            if r_fdcm is None:
                skipped += 1
                continue
            r = int(np.count_nonzero(np.logical_and(square, square.T, out=both))) / link_count
            per_window.append(WindowRow(
                delta_t=delta_t,
                window_index=window.window_index,
                density=d,
                reciprocity=r,
                r_fdcm=r_fdcm,
                rho=rho(r, r_fdcm),
            ))
        window_rows.extend(per_window)
        if per_window:
            rows.append(ScanRow(
                delta_t=delta_t,
                window_count=len(per_window),
                skipped_windows=skipped,
                mean_density=float(np.mean([w.density for w in per_window])),
                mean_reciprocity=float(np.mean([w.reciprocity for w in per_window])),
                mean_r_fdcm=float(np.mean([w.r_fdcm for w in per_window])),
                mean_rho=float(np.mean([w.rho for w in per_window])),
            ))
        else:
            rows.append(ScanRow(delta_t, 0, skipped, *(float("nan"),) * 4))

    result = RhoScanResult(rows=rows, windows=window_rows)
    usable = [(row.delta_t, row.mean_rho) for row in rows if not row.missing]
    if usable:
        ts, rs = zip(*usable)
        result.t_min, result.rho_min, result.t_max, result.rho_max, result.t_0 = \
            extract_rho_landmarks(ts, rs)
    return result


@dataclass
class RocResult:
    thresholds: np.ndarray = field(repr=False)
    fpr: np.ndarray = field(repr=False)
    tpr: np.ndarray = field(repr=False)
    auc: float = float("nan")


def roc_auc(link_probabilities, observed) -> RocResult:
    """ROC curve over all distinct thresholds plus its trapezoidal AUC.

    Ties in the scores are grouped, so the trapezoidal integral equals the
    probability of ranking a random positive above a random negative with
    ties counted one half.
    """
    scores = np.asarray(link_probabilities, dtype=float).ravel()
    labels = np.asarray(observed).ravel().astype(bool)
    if scores.shape != labels.shape:
        raise DomainError("probabilities and observations differ in length")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAUCError(f"need both classes, got {n_pos} positives, {n_neg} negatives")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    distinct = np.nonzero(np.diff(sorted_scores))[0]
    block_ends = np.append(distinct, len(scores) - 1)
    cum_tp = np.cumsum(sorted_labels)[block_ends]
    cum_fp = block_ends + 1 - cum_tp
    tpr = np.concatenate([[0.0], cum_tp / n_pos])
    fpr = np.concatenate([[0.0], cum_fp / n_neg])
    thresholds = np.concatenate([[np.inf], sorted_scores[block_ends]])
    return RocResult(thresholds=thresholds, fpr=fpr, tpr=tpr, auc=trapezoid(fpr, tpr))


def trapezoid(x, y) -> float:
    """Trapezoid-rule integral of ``y`` over ``x``: ``roc_auc``'s AUC and the ROC figure's.

    Written out because np.trapezoid needs numpy >= 2.0.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return float((np.diff(x) * (y[1:] + y[:-1]) / 2.0).sum())


def mann_whitney_auc(link_probabilities, observed) -> float:
    """Fraction of (positive, negative) pairs ranked correctly, ties at 1/2.

    The Mann-Whitney U statistic from mid-ranks (Hanley & McNeil 1982), in
    O(D log D) time and O(D) memory for D scores: U = R - P(P+1)/2, with R
    the rank sum of the P positives. A route to the same quantity as the
    ROC integral that does not build the curve. Twice every mid-rank is an
    integer, so U is exact and equals the pairwise count bit for bit.
    """
    scores = np.asarray(link_probabilities, dtype=float).ravel()
    labels = np.asarray(observed).ravel().astype(bool)
    if scores.shape != labels.shape:
        raise DomainError("probabilities and observations differ in length")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAUCError("need both classes for a pairwise ranking statistic")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    # tie block k covers sorted positions starts[k]..ends[k]-1, 1-based ranks
    # starts[k]+1..ends[k], so twice its mid-rank is starts[k] + ends[k] + 1
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], len(scores)]
    twice_ranks = np.repeat(starts + ends + 1, ends - starts)
    twice_u = int(twice_ranks[labels[order]].sum()) - n_pos * (n_pos + 1)
    return (twice_u / 2) / (n_pos * n_neg)


def cross_entropy(model: FittedModel, observed: DirectedNetwork) -> float:
    """Mean four-class log loss per unordered pair, natural log.

    Each pair's observed state (empty, ->, <-, <->) is scored with
    -ln p(state). An observed state with model probability zero makes the
    result infinite; that is reported in the return value (and logged),
    not raised.
    """
    arrs = dyad_probability_arrays(model)
    if arrs.n != observed.n:
        raise DomainError(f"model has {arrs.n} nodes, network has {observed.n}")
    a = observed.adjacency
    iu, ju = np.triu_indices(observed.n, k=1)
    fwd = a[iu, ju].astype(bool)
    bwd = a[ju, iu].astype(bool)
    p = np.where(
        fwd & bwd, arrs.both[iu, ju],
        np.where(fwd, arrs.only[iu, ju],
                 np.where(bwd, arrs.only[ju, iu], arrs.none[iu, ju])),
    )
    impossible = int(np.count_nonzero(p == 0.0))
    if impossible:
        log.warning("cross-entropy is infinite: %d observed dyad states have "
                    "model probability 0", impossible)
        return float("inf")
    return float(np.mean(-np.log(p)))

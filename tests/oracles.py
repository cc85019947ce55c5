"""Independent numerical oracles shared by the test modules."""

import csv
import datetime as dt
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from reconnet import DirectedNetwork, FitnessData
from reconnet.ensemble import derive_subseed, expected_metrics, sample_networks
from reconnet.errors import (DataValidationError, DomainError, NonConvergenceError, NumericalError,
                             ParseError)
from reconnet.estimation import SolverConfig, SolverReport, _normalized_fitness, fit_fdcm
from reconnet.graph import degrees_strengths
from reconnet.ingest import (TransactionTable, aggregate, build_windows, fitness_from_strengths,
                             index_year, trading_days)
from reconnet.models import FittedModel, ModelKind
from reconnet.serialize import line_of_row, open_text
from reconnet.validation import (RhoScanResult, ScanRow, WindowRow, extract_rho_landmarks,
                                 rho)


def spectrum_order_by_blocks(matrix):
    """Eigenvalues of ``matrix`` by decreasing modulus, ties re-ranked block by block.

    ``numpy.linalg.eigvals`` sorted by modulus, then real part, both
    descending; then each maximal run of neighbours whose moduli differ by
    at most 1e-8 times max(1, the largest modulus) is sorted by real part
    (stable): the walk over the runs that ``spectral.eigenvalues`` must
    order like.
    """
    vals = np.linalg.eigvals(np.asarray(matrix, dtype=float))
    vals = vals[np.lexsort((-vals.real, -np.abs(vals)))]
    mods = np.abs(vals)
    tol = 1e-8 * max(1.0, float(mods[0])) if len(vals) else 0.0
    i = 0
    while i < len(vals):
        j = i + 1
        while j < len(vals) and mods[j - 1] - mods[j] <= tol:
            j += 1
        if j - i > 1:
            block = vals[i:j]
            vals[i:j] = block[np.argsort(-block.real, kind="stable")]
        i = j
    return vals


def char_poly_roots_4x4(a):
    """Eigenvalue oracle for a 4x4 matrix: characteristic-polynomial
    coefficients from Newton's identities on trace powers, roots by
    Durand-Kerner iteration. No companion matrix, no QR."""
    p = [np.trace(np.linalg.matrix_power(a, k)) for k in range(1, 5)]
    e1 = p[0]
    e2 = (e1 * p[0] - p[1]) / 2
    e3 = (e2 * p[0] - e1 * p[1] + p[2]) / 3
    e4 = (e3 * p[0] - e2 * p[1] + e1 * p[2] - p[3]) / 4
    coeffs = [1.0, -e1, e2, -e3, e4]

    def poly(x):
        out = 0.0 + 0.0j
        for c in coeffs:
            out = out * x + c
        return out

    roots = np.array([(0.4 + 0.9j) ** k for k in range(1, 5)], dtype=complex)
    for _ in range(300):
        new = roots.copy()
        for i in range(4):
            denom = np.prod([roots[i] - roots[j] for j in range(4) if j != i])
            new[i] = roots[i] - poly(roots[i]) / denom
        if np.max(np.abs(new - roots)) < 1e-14:
            roots = new
            break
        roots = new
    return roots


def match_sets(a, b):
    """Greedy min-distance matching error between two complex multisets."""
    b = list(b)
    worst = 0.0
    for x in a:
        dists = [abs(x - y) for y in b]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        b.pop(k)
    return worst


def dyad_moment_errors(arrs, target_d, target_r, m_samples):
    """Standard errors of ensemble-mean density and ratio-of-sums
    reciprocity, from exact per-dyad outcome variances."""
    n = arrs.n
    iu, ju = np.triu_indices(n, k=1)
    pf = arrs.only[iu, ju]
    pb = arrs.only[ju, iu]
    p2 = arrs.both[iu, ju]
    # per-pair link count c in {0,1,2} and ordered reciprocated count b in {0,2}
    ec = pf + pb + 2 * p2
    ec2 = pf + pb + 4 * p2
    var_c = ec2 - ec**2
    eb = 2 * p2
    var_b = 4 * p2 - eb**2
    cov_cb = 4 * p2 - ec * eb
    e_links = ec.sum()
    var_links = var_c.sum()
    var_recip = var_b.sum()
    cov = cov_cb.sum()
    se_density = np.sqrt(var_links / m_samples) / (n * (n - 1))
    var_ratio = (var_recip - 2 * target_r * cov + target_r**2 * var_links) / e_links**2
    se_reciprocity = np.sqrt(var_ratio / m_samples)
    return se_density, se_reciprocity


def pairwise_auc(scores, labels):
    """Mann-Whitney AUC from every (positive, negative) pair: wins plus half the ties."""
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels).ravel().astype(bool)
    pos = scores[labels]
    neg = scores[~labels]
    diff = pos[:, None] - neg[None, :]
    wins = np.count_nonzero(diff > 0) + 0.5 * np.count_nonzero(diff == 0)
    return float(wins) / (len(pos) * len(neg))


def roc_step_path(scores, labels):
    """Every point of the ROC step path, highest threshold first: (threshold, FP, TP).

    One point per distinct score t counts the negatives and positives scored
    at least t; the path starts at (inf, 0, 0).
    """
    scores = np.asarray(scores, dtype=float).ravel()
    labels = np.asarray(labels).ravel().astype(bool)
    points = [(math.inf, 0, 0)]
    for t in sorted(set(scores.tolist()), reverse=True):
        above = scores >= t
        points.append((t, int(np.count_nonzero(above & ~labels)),
                       int(np.count_nonzero(above & labels))))
    return points


@dataclass
class TransactionRecord:
    """One loan: lender -> borrower of a positive amount on a given date."""

    date: dt.date
    lender: str
    borrower: str
    amount: float

    def __post_init__(self):
        if not 0 < self.amount < math.inf:  # NaN fails both comparisons
            raise DataValidationError(f"amount must be positive and finite, got {self.amount}")
        if self.lender == self.borrower:
            raise DataValidationError(f"self-loop transaction for {self.lender!r}")


def records_of(table):
    """The rows of a ``TransactionTable`` as records, in the same order."""
    labels = table.labels
    return [TransactionRecord(table.dates[d], labels[i], labels[j], amount)
            for d, i, j, amount in zip(table.day.tolist(), table.lender.tolist(),
                                       table.borrower.tolist(), table.amount.tolist())]


def assert_same_table(got, want):
    """Two ``TransactionTable``s are equal: dates and labels, and every column's dtype and bytes."""
    assert (got.dates, got.labels) == (want.dates, want.labels)
    for name in ("day", "lender", "borrower", "amount"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def table_of(records):
    """The ``TransactionTable`` of a sequence of records, rows in the same order."""
    records = list(records)
    dates = sorted({r.date for r in records})
    labels = sorted({name for r in records for name in (r.lender, r.borrower)})
    date_code = {d: k for k, d in enumerate(dates)}
    label_code = {name: k for k, name in enumerate(labels)}

    def codes(values, code):
        return np.fromiter(map(code.__getitem__, values), dtype=np.intp, count=len(records))

    return TransactionTable(dates=tuple(dates), day=codes((r.date for r in records), date_code),
                            labels=tuple(labels),
                            lender=codes((r.lender for r in records), label_code),
                            borrower=codes((r.borrower for r in records), label_code),
                            amount=np.array([r.amount for r in records], dtype=float))


def aggregate_record_loop(records, year, days):
    """Snapshot of the loans on ``days`` by a running sum over the records in file order.

    The node set is every bank active in ``year``. This is the
    record-by-record aggregation the indexed one must match bit for bit.
    """
    names = set()
    for r in records:
        if r.date.year == year:
            names.add(r.lender)
            names.add(r.borrower)
    labels = sorted(names)
    index = {name: k for k, name in enumerate(labels)}
    w = np.zeros((len(labels), len(labels)))
    day_set = set(days)
    for r in records:
        if r.date in day_set:
            w[index[r.lender], index[r.borrower]] += r.amount
    return DirectedNetwork.from_weight_matrix(w, labels=tuple(labels))


def _density_reachable(fitness, d, config=None):
    """Whether n (n - 1) d links stay below the dyads with positive normalised fitness product.

    Only those dyads can link, each with probability below 1, so a target
    within the residual tolerance of their number is reached by no finite z.
    """
    n = fitness.n
    positive = np.count_nonzero(_normalized_fitness(fitness)[0] > 0)
    return n * (n - 1) * d < positive * (1.0 - (config or SolverConfig()).residual_tolerance)


def scan_window_by_window(table, year, delta_t_list, fitness=None, solver_config=None):
    """The reciprocity-gap scan through one validated network per window.

    Each window is aggregated into a ``DirectedNetwork``; its density,
    reciprocity and strengths come from ``degrees_strengths`` and
    ``fitness_from_strengths``, and its r_fdcm from ``fit_fdcm`` and the
    dyad arrays of ``expected_metrics``, with the same skip rules as
    ``scan_aggregations``: the reference its index-based loop must agree with.
    """
    index = index_year(table, year)
    rows, window_rows = [], []
    for delta_t in delta_t_list:
        skipped, per_window = 0, []
        for window in build_windows(index, delta_t):
            net = aggregate(index, window)
            metrics = degrees_strengths(net)
            if metrics.link_count == 0:
                skipped += 1
                continue
            fit_fitness = fitness if fitness is not None else fitness_from_strengths(net)
            if not _density_reachable(fit_fitness, metrics.d, solver_config):
                skipped += 1
                continue
            _, r_fdcm = expected_metrics(fit_fdcm(fit_fitness, metrics.d, config=solver_config))
            per_window.append(WindowRow(delta_t, window.window_index, metrics.d, metrics.r,
                                        r_fdcm, rho(metrics.r, r_fdcm)))
        window_rows.extend(per_window)
        if per_window:
            rows.append(ScanRow(delta_t, len(per_window), skipped,
                                *(float(np.mean([getattr(w, name) for w in per_window]))
                                  for name in ("density", "reciprocity", "r_fdcm", "rho"))))
        else:
            rows.append(ScanRow(delta_t, 0, skipped, *(float("nan"),) * 4))
    result = RhoScanResult(rows=rows, windows=window_rows)
    usable = [(row.delta_t, row.mean_rho) for row in rows if not row.missing]
    if usable:
        result.t_min, result.rho_min, result.t_max, result.rho_max, result.t_0 = \
            extract_rho_landmarks(*zip(*usable))
    return result


# z * alt products above this are clamped during iteration; the solver only
# visits that region transiently and the optimum is orders of magnitude away.
_CLAMP = 1e100


def fit_fdcm_trust_region(fitness, d_target, config=None):
    """The density-only fit by bounded trust-region least squares on z.

    scipy's trust-region-reflective solver on the one residual
    (sum m/(1+m) - L) / L with its analytic derivative, from the all-ones
    start or ``config.initial_point``, on the box (lower_bound, inf): the
    reference the bracketed Newton solve of ``fit_fdcm`` must agree with.
    """
    from scipy.optimize import least_squares

    config = config or SolverConfig()
    alt, scale = _normalized_fitness(fitness)
    n = fitness.n
    target = n * (n - 1) * d_target

    def resid(x):
        m = np.minimum(x[0] * alt, _CLAMP)
        f = np.array([(np.sum(m / (1.0 + m)) - target) / target])
        if not np.isfinite(f).all():
            raise NumericalError(f"residual returned non-finite values at x={x!r}")
        return f

    def jac(x):
        m = np.minimum(x[0] * alt, _CLAMP)
        den = 1.0 + m
        return np.array([[np.sum(alt / (den * den)) / target]])

    x0 = np.ones(1)
    if config.initial_point is not None:
        x0 = np.asarray(config.initial_point, dtype=float)
        if x0.shape != (1,) or not x0[0] > config.lower_bound:
            raise DomainError(f"initial point {x0!r} must be one value above the bound")
    start = time.perf_counter()
    result = least_squares(resid, x0, jac=jac, bounds=(config.lower_bound, np.inf),
                           method="trf", xtol=config.step_tolerance, ftol=1e-15, gtol=1e-15,
                           max_nfev=config.max_iterations)
    norm = float(np.max(np.abs(result.fun)))
    report = SolverReport(iterations=int(result.nfev), residual_norm=norm,
                          converged=norm <= config.residual_tolerance,
                          seconds=time.perf_counter() - start)
    if not report.converged:
        raise NonConvergenceError("density fit did not converge", report)
    return FittedModel(ModelKind.FDCM, {"z": float(result.x[0]) / scale},
                       fitness=fitness, report=report)


@contextmanager
def csv_reader(stream, path=None):
    """A csv reader of ``stream``; in the block, a line it cannot split is a ParseError
    (naming ``path`` when given)."""
    reader = csv.reader(stream)
    try:
        yield reader
    except csv.Error as exc:
        raise ParseError(str(exc) if path is None else f"{path}: {exc}",
                         line=reader.line_num) from None


# One trigger per screen of serialize's bulk passes, each a numeric field, and whether the
# row loop accepts it: a quote, a NUL, each of \x1c-\x1f (numpy skips them as spaces), a
# byte that is not UTF-8 (to be encoded with errors="surrogateescape"), a field over
# serialize._FIELD_BYTES and a character past U+FFFF. A file holding one is read by the
# row loop, as the row-by-row oracles read it.
SCREENED_FIELDS = [('"1"', True), ("1\x00", False), ("\x1c1", False), ("\x1d1", False),
                   ("\x1e1", False), ("\x1f1", False), ("1\udcff", False),
                   ("0" * 128 + "1", True), ("\U0002c6ca1", False)]


def parse_transactions_row_by_row(path):
    """Transactions CSV to records, checking one row at a time.

    The reference for ``read_transactions``: the same files accepted, and
    the first bad row rejected with the same exception, message and line.
    A self-loop is looked for once every row has parsed.
    """
    with open_text(path) as fh, csv_reader(fh, path) as reader:
        expected = ["date", "lender", "borrower", "amount"]
        header = [h.strip().lower() for h in next(reader, [])]
        if header not in (expected, expected + ["maturity"]):
            raise ParseError(f"bad header in {path}, expected {','.join(expected)}", line=1)
        rows = []
        for row in reader:
            line = reader.line_num
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"{path}: expected {len(header)} fields, got {len(row)}",
                                 line=line)
            try:
                date = dt.date.fromisoformat(row[0].strip())
            except ValueError:
                raise ParseError(f"{path}: bad ISO-8601 date {row[0]!r}", line=line) from None
            lender = row[1].strip()
            borrower = row[2].strip()
            if not lender or not borrower:
                raise ParseError(f"{path}: empty lender or borrower field", line=line)
            try:
                amount = float(row[3])
            except ValueError:
                raise ParseError(f"{path}: bad amount {row[3]!r}", line=line) from None
            if not 0 < amount < math.inf:  # NaN fails both comparisons
                raise DataValidationError(
                    f"{path}: amount must be positive and finite, got {amount}", line=line)
            rows.append((line, date, lender, borrower, amount))
    for line, _, lender, borrower, _ in rows:
        if lender == borrower:
            raise DataValidationError(f"{path}: self-loop transaction for {lender!r}", line=line)
    return [TransactionRecord(*row[1:]) for row in rows]


def read_network_row_by_row(path, n):
    """Edge list to network, one row at a time with ``int`` and ``float``.

    The reference for ``read_network``: the same files accepted with the
    same weights, and the first bad row rejected with the same exception,
    message and line.
    """
    src, dst, weights = [], [], []
    header = ["source", "target", "weight"]
    with open_text(path) as fh, csv_reader(fh, path) as reader:
        first = next(reader, None)
        if first is None or [h.strip().lower() for h in first] != header:
            raise ParseError(f"bad header in {path}, expected source,target,weight", line=1)
        for row in filter(None, reader):
            if len(row) != 3:
                raise ParseError(f"{path}: expected 3 fields, got {len(row)}",
                                 line=reader.line_num)
            for column, parse, name, field in zip((src, dst, weights), (int, int, float),
                                                  header, row):
                try:
                    column.append(parse(field))
                except ValueError:
                    raise ParseError(f"{path}: bad {name} {field!r}",
                                     line=reader.line_num) from None
    i, j, weight = np.array(src), np.array(dst), np.array(weights, dtype=float)
    for bad, message in (((i < 0) | (i >= n) | (j < 0) | (j >= n),
                          f"node index outside 0..{n - 1}"),
                         (~(np.isfinite(weight) & (weight > 0)),
                          "weight must be positive and finite"),
                         (i == j, "self-loop")):
        if bad.any():
            k = int(np.argmax(bad))
            raise ParseError(f"{path}: {message} in row {src[k]},{dst[k]},{weights[k]!r}",
                             line=line_of_row(path, k))
    cell = i.astype(np.intp) * n + j.astype(np.intp)
    w = np.bincount(cell, weights=weight, minlength=n * n).reshape(n, n)
    return DirectedNetwork.from_weight_matrix(w)


def write_csv_per_cell(path, header, columns):
    """CSV writer formatting every cell on its own: floats at 17 significant
    digits, other items through ``str``. The reference for ``write_csv``."""
    cells = []
    for column in columns:
        array = np.asarray(column)
        if array.dtype.kind == "f":
            cells.append(["{:.17g}".format(x) for x in array.tolist()])
        else:
            cells.append(array.tolist() if isinstance(column, np.ndarray) else list(column))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells, strict=True))


def synth_transactions_per_record(model, year, n_days, seed, amount_sigma=0.0):
    """Synthetic loans built one record at a time from validated networks.

    Day k is the network drawn with sub-seed (seed, k), its links taken in
    ``np.nonzero`` order; amounts are 1.0 or lognormal(0, amount_sigma)
    from sub-seed (seed, n_days + k). The reference for the columnar
    ``synth_transactions``.
    """
    labels = [f"B{k:04d}" for k in range(model.n)]
    nets = sample_networks(model, [derive_subseed(seed, k) for k in range(n_days)])
    records = []
    for k, (day, net) in enumerate(zip(trading_days(year, n_days), nets)):
        rows, cols = np.nonzero(net.adjacency)
        if amount_sigma > 0.0:
            rng = np.random.Generator(np.random.PCG64(derive_subseed(seed, n_days + k)))
            amounts = rng.lognormal(0.0, amount_sigma, len(rows))
        else:
            amounts = np.ones(len(rows))
        for i, j, amt in zip(rows, cols, amounts):
            records.append(TransactionRecord(day, labels[i], labels[j], float(amt)))
    return records


def write_transactions_per_row(path, records):
    """Transactions CSV written one record at a time: the reference for
    ``write_transactions_csv``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "lender", "borrower", "amount", "maturity"])
        for r in records:
            writer.writerow([r.date.isoformat(), r.lender, r.borrower,
                             format(r.amount, ".17g"), ""])


# ---------------------------------------------------------------------------
# Scalar dyad kernels: one pair at a time, the reference for the array path
# ---------------------------------------------------------------------------

# Beyond this, quotients switch to the reciprocal form (numerator and
# denominator divided by the largest term, evaluated in log space).
_OVERFLOW_LIMIT = 1e300


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


def fdcm_dyad_probs(z: float, fitness: FitnessData, i: int, j: int) -> DyadProbabilities:
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


def fgrm_tau(u: float, v: float, a_i: float, l_i: float, a_j: float, l_j: float) -> float:
    """Closed-form dyad correlation of the two-parameter fitness model.

    tau_ij = u (v^2 - 1) sqrt(A_i A_j L_i L_j) / g_ij, with g_ij^2 the
    expanded polynomial of the dyad variance product. Algebraically equal
    to the generic tau of ``tau_matrix`` on the same dyad.
    """
    v2 = v * v
    aij = a_i * l_j
    aji = a_j * l_i
    prod = aij * aji
    g2 = (
        1.0
        + u * (v2 + 1.0) * (aij + aji)
        + u * u * (v2 + 1.0) ** 2 * prod
        + u * u * v2 * (aij * aij + aji * aji)
        + u ** 3 * v2 * (v2 + 1.0) * prod * (aij + aji)
        + u ** 4 * v2 * v2 * prod * prod
    )
    return u * (v2 - 1.0) * math.sqrt(prod) / math.sqrt(g2)


# ---------------------------------------------------------------------------
# Fitness CSV, one row at a time
# ---------------------------------------------------------------------------


def read_fitness_row_by_row(path):
    """Fitness CSV to (FitnessData, labels), checking one row at a time.

    The reference for ``read_fitness_csv``: the same files accepted, and
    the first bad row rejected with the same exception type and line.
    """
    labels, assets, liabilities = [], [], []
    with open_text(path) as fh, csv_reader(fh) as reader:
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

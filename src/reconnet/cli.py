"""Command-line orchestration: batch experiments in, CSV/JSON/SVG out.

Every run writes a manifest.json capturing the effective configuration,
sha256 checksums of the written artifacts and wall-clock timings. All
randomness flows from the single master seed; re-running a command with
the same configuration byte-reproduces every CSV/JSON artifact (manifest
timings aside), independent of the worker count.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, figures
from ._workers import ordered_map
from .ensemble import (
    EnsembleConfig,
    derive_subseed,
    expected_metrics,
    generate_ensemble,
    sample_networks,
)
from .errors import (
    ConfigurationError,
    DataValidationError,
    DegenerateEnsembleError,
    DomainError,
    InsufficientDataError,
    InvalidNetworkError,
    NonConvergenceError,
    NumericalError,
    ParseError,
    ReconError,
    SingularityError,
    UndefinedAUCError,
    UndefinedReciprocityError,
)
from .estimation import SolverConfig, fit_fdcm, fit_fgrm
from .graph import MAX_NODES, degrees_strengths
from .ingest import (
    aggregate,
    build_windows,
    index_year,
    synth_days,
    synth_fitness,
    synth_transactions,
)
from .models import ModelKind, dyad_probability_arrays
from .serialize import (
    finite_float,
    read_csv,
    read_fitness_csv,
    read_json,
    read_model,
    read_network,
    read_nodes,
    read_transactions,
    write_csv,
    write_fitness_csv,
    write_json,
    write_model,
    write_network,
    write_nodes,
    write_transactions_csv,
)
from .spectral import bulk_shape, eigenvalues, rescale_matrix, tau_matrix
from .validation import (
    cross_entropy,
    mann_whitney_auc,
    rho,
    roc_auc,
    scan_aggregations,
)

_USAGE_ERRORS = (ConfigurationError, DomainError)
_DATA_ERRORS = (ParseError, DataValidationError, InvalidNetworkError,
                UndefinedReciprocityError, InsufficientDataError, UndefinedAUCError)
_NUMERIC_ERRORS = (NonConvergenceError, NumericalError, DegenerateEnsembleError,
                   SingularityError)


def _threads(cfg) -> int:
    env = os.environ.get("RECON_NET_THREADS")
    if env is not None:
        try:
            name, threads = "RECON_NET_THREADS", int(env)
        except ValueError:
            raise ConfigurationError(f"RECON_NET_THREADS={env!r} is not an integer") from None
    else:
        # by default, the CPUs this process may run on where the platform says, else all of them
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        name, threads = "field 'threads'", _option(cfg, "threads", _integer, max(1, cpus))
    if threads < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {threads}")
    return threads


def _text(value) -> str:
    """``value`` if it is a string: a number or a list is not a path or a name."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _integer(value) -> int:
    """``value`` as an int: a bool, or a number with a fractional part, is not one."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _need(cfg, field, kind=None):
    value = cfg.get(field)
    if value is None:
        raise ConfigurationError(f"missing required field '{field}'")
    if kind is not None:
        try:
            value = kind(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(f"field '{field}' has invalid value {value!r}") from None
    return value


def _option(cfg, field, kind, default):
    """An optional field through ``kind``, or ``default`` when it is absent."""
    return default if cfg.get(field) is None else _need(cfg, field, kind)


def _need_path(cfg, field) -> Path:
    path = Path(_need(cfg, field, _text))
    if not path.is_file():
        raise ConfigurationError(f"field '{field}': no such file {path}")
    return path


def _fraction(cfg, field, lo, hi, lo_open=True, hi_open=True):
    value = _need(cfg, field, float)
    ok_lo = value > lo if lo_open else value >= lo
    ok_hi = value < hi if hi_open else value <= hi
    if not (ok_lo and ok_hi):
        bra = "(" if lo_open else "["
        ket = ")" if hi_open else "]"
        raise ConfigurationError(f"field '{field}' must be in {bra}{lo}, {hi}{ket}, got {value}")
    return value


def _out_dir(cfg) -> Path:
    out = Path(_need(cfg, "out", _text))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _solver_config(cfg) -> SolverConfig | None:
    overrides = cfg.get("solver")
    if not overrides:
        return None
    if not isinstance(overrides, dict):
        raise ConfigurationError("field 'solver' must be an object")
    known = {"residual_tolerance", "step_tolerance", "max_iterations", "lower_bound"}
    bad = set(overrides) - known
    if bad:
        raise ConfigurationError(f"unknown solver fields {sorted(bad)}")
    for key, value in overrides.items():
        if not _finite_number(value) or (key == "max_iterations" and not isinstance(value, int)):
            raise ConfigurationError(f"field 'solver.{key}' has invalid value {value!r}")
    return SolverConfig(**overrides)


def _finite_number(value) -> bool:
    """Whether ``value`` is a number (not a bool) with a finite float value."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def parse_delta_ts(text) -> list[int]:
    """'a:b' or 'a:b:step' inclusive ranges, or a comma list of integers in 1..366."""
    text = str(text).strip()
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            if len(parts) == 2:
                lo, hi, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                lo, hi, step = parts
            else:
                raise ValueError
            if lo < 1 or hi < lo or step < 1:
                raise ValueError
            values = range(lo, hi + 1, step)
        else:
            values = sorted({int(p) for p in text.split(",")})
            if not values or values[0] < 1:
                raise ValueError
    except ValueError:
        raise ConfigurationError(
            f"field 'delta_t' must be 'a:b[:step]' or a comma list of days >= 1, got {text!r}"
        ) from None
    if values[-1] > 366:  # no year has more trading days, so no window would fit
        raise ConfigurationError(f"field 'delta_t' must be at most 366 days, got {values[-1]}")
    return list(values)


# figure kind -> the CSV artifact it is drawn from: file name, header, the
# field kinds `report` reads it with and the columns the figure takes. A
# command draws the figure from the columns it writes, `report` from those it
# reads back, so both draw the same bytes. In the order `report` draws them.
_FIGURE_ARTIFACTS = {
    "spectrum_scatter": ("spectra.csv", ["sample_id", "re", "im"],
                         [str, finite_float, finite_float], ["sample_id", "re", "im"]),
    "rho_curve": ("rho_scan.csv", ["delta_t", "window_count", "skipped_windows",
                                   "mean_density", "mean_reciprocity", "mean_r_fdcm", "mean_rho"],
                  [int] * 3 + [float] * 4, ["delta_t", "window_count", "mean_rho"]),
    "roc_curve": ("roc.csv", ["threshold", "fpr", "tpr"], [float, finite_float, finite_float],
                  ["fpr", "tpr"]),
    "tau_histogram": ("tau.csv", ["i", "j", "tau"], [int, int, float], ["tau"]),
}


def _draw(kind, columns, out, *extra) -> list[Path]:
    """Figure ``kind`` drawn from its artifact's ``columns``, then the ``extra`` arguments."""
    _, header, _, drawn = _FIGURE_ARTIFACTS[kind]
    return figures.emit_figures([columns[header.index(name)] for name in drawn] + list(extra),
                                kind, out)


def _write_figure_artifact(out, kind, columns, *extra) -> list[Path]:
    """Write figure ``kind``'s artifact from ``columns``, then draw the figure from them."""
    file, header, _, _ = _FIGURE_ARTIFACTS[kind]
    write_csv(out / file, header, columns)
    return [out / file] + _draw(kind, columns, out, *extra)


# ---------------------------------------------------------------------------
# Subcommands; each returns (paths_written, result_summary)
# ---------------------------------------------------------------------------


def _fit_fitness_model(cfg, fitness):
    """The fdcm or fgrm model of ``fitness`` that the config's targets ask for."""
    kind = _need(cfg, "model", ModelKind)
    d = _fraction(cfg, "density", 0.0, 1.0)
    solver = _solver_config(cfg)
    if kind is ModelKind.FGRM:
        r = _fraction(cfg, "reciprocity", 0.0, 1.0, lo_open=False)
        return fit_fgrm(fitness, d, r, config=solver)
    if kind is ModelKind.FDCM:
        return fit_fdcm(fitness, d, config=solver)
    raise ConfigurationError(f"field 'model' must be fdcm or fgrm, got {kind.value}")


def _cmd_synth(cfg, out):
    n = _need(cfg, "nodes", _integer)
    if not 2 <= n <= MAX_NODES:  # no reader takes a larger network
        raise ConfigurationError(f"field 'nodes' must lie in 2..{MAX_NODES}, got {n}")
    dist = _need(cfg, "fitness_dist", _text)
    seed = _need(cfg, "seed", _integer)
    year = _need(cfg, "year", _integer)
    days = _need(cfg, "days", _integer)
    amount_sigma = _option(cfg, "amount_sigma", float, 0.0)
    synth_days(year, days, amount_sigma)  # before the fit, which can take seconds
    fitness = synth_fitness(n, dist, derive_subseed(seed, 0))
    model = _fit_fitness_model(cfg, fitness)
    table = synth_transactions(model, year, days, derive_subseed(seed, 1),
                               amount_sigma=amount_sigma)
    paths = [out / "fitness.csv", out / "transactions.csv", out / "truth.json"]
    write_fitness_csv(paths[0], fitness)
    write_transactions_csv(paths[1], table)
    write_model(paths[2], model)
    return paths, {"transactions": len(table.day), "params": model.params}


def _cmd_aggregate(cfg, out):
    table = read_transactions(_need_path(cfg, "transactions"))
    year = _need(cfg, "year", _integer)
    delta_t = _need(cfg, "delta_t", _integer)
    index = index_year(table, year)
    windows = build_windows(index, delta_t)
    net_dir = out / "networks"
    net_dir.mkdir(exist_ok=True)
    paths = []
    rows = []
    for window in windows:
        net = aggregate(index, window)
        if not paths:
            paths.append(net_dir / "nodes.csv")
            write_nodes(paths[0], net.labels)
        p = net_dir / f"window_{window.window_index:03d}.csv"
        write_network(p, net)
        paths.append(p)
        m = degrees_strengths(net)
        rows.append([delta_t, window.window_index, m.n, m.link_count, m.recip_count,
                     m.d, m.r if m.r is not None else float("nan")])
    metrics = out / "metrics.csv"
    write_csv(metrics, ["delta_t", "window_index", "n", "links", "recip_links",
                        "density", "reciprocity"], list(zip(*rows)))
    paths.append(metrics)
    return paths, {"windows": len(windows)}


def _cmd_fit(cfg, out):
    fitness, _ = read_fitness_csv(_need_path(cfg, "fitness"))
    model = _fit_fitness_model(cfg, fitness)
    paths = [out / "fitted.json"]
    write_model(paths[0], model)

    tau = tau_matrix(model)
    iu, ju = np.nonzero(np.triu(tau.defined, k=1))
    paths.extend(_write_figure_artifact(out, "tau_histogram", [iu, ju, tau.values[iu, ju]]))
    report = model.report
    return paths, {
        "params": model.params,
        "report": {"iterations": report.iterations, "residual_norm": report.residual_norm,
                   "converged": report.converged},
    }


def _cmd_sample(cfg, out):
    model = read_model(_need_path(cfg, "model_file"))
    samples = _need(cfg, "samples", _integer)
    seed = _need(cfg, "seed", _integer)
    n_write = _option(cfg, "write_networks", _integer, 0)
    if n_write < 0:
        raise ConfigurationError(f"field 'write_networks' must be >= 0, got {n_write}")
    if n_write > samples:
        raise ConfigurationError(
            f"field 'write_networks' ({n_write}) exceeds field 'samples' ({samples})")
    # drawn here, not in worker processes: starting two took longer than the 20
    # samples and 4 written networks they would share (README, Performance notes)
    summary = generate_ensemble(
        model, EnsembleConfig(sample_count=samples, master_seed=seed),
        compute_lambda=not cfg.get("no_spectra", False),
    )
    paths = [out / "ensemble.json"]
    write_json(paths[0], {
        "sample_count": summary.sample_count,
        "mean_density": summary.mean_density,
        "std_density": summary.std_density,
        "mean_reciprocity": summary.mean_reciprocity,
        "std_reciprocity": summary.std_reciprocity,
        "mean_lambda_max": summary.mean_lambda_max,
        "std_lambda_max": summary.std_lambda_max,
        "densities": summary.densities,
        "reciprocities": summary.reciprocities,
        "lambda_max": summary.lambda_max,
    })
    if n_write > 0:
        sample_dir = out / "samples"
        sample_dir.mkdir(exist_ok=True)
        nodes = sample_dir / "nodes.csv"
        write_nodes(nodes, [f"B{k:04d}" for k in range(model.n)])
        # keep the generating model next to its realizations so `spectra
        # --rescale` can find it without an explicit --model-file
        fitted = sample_dir / "fitted.json"
        write_model(fitted, model)
        paths.extend([nodes, fitted])
        seeds = [derive_subseed(seed, k) for k in range(n_write)]
        for k, net in enumerate(sample_networks(model, seeds)):
            p = sample_dir / f"sample_{k:05d}.csv"
            write_network(p, net)
            paths.append(p)
    # lambda_fallbacks says how lambda_max was computed, not what it is, so
    # it goes to the manifest and not to ensemble.json
    return paths, {"mean_density": summary.mean_density,
                   "mean_lambda_max": summary.mean_lambda_max,
                   "lambda_fallbacks": summary.lambda_fallbacks}


def _cmd_spectra(cfg, out):
    net_dir = Path(_need(cfg, "networks", _text))
    if not net_dir.is_dir():
        raise ConfigurationError(f"field 'networks': no such directory {net_dir}")
    if net_dir.resolve() == out.resolve():
        raise ConfigurationError(f"field 'out' is the input directory {net_dir}: "
                                 "its artifacts would be read as networks")
    nodes_path = net_dir / "nodes.csv"
    if not nodes_path.exists():
        raise ConfigurationError(f"missing {nodes_path} (needed to fix the node count)")
    n = len(read_nodes(nodes_path))
    if not 3 <= n <= MAX_NODES:
        raise DataValidationError(
            f"{nodes_path} lists {n} nodes; spectra needs 3..{MAX_NODES}")
    files = sorted(p for p in net_dir.glob("*.csv") if p.name != "nodes.csv")
    if not files:
        raise ConfigurationError(f"no network files in {net_dir}")
    rescale = bool(cfg.get("rescale", False))
    model = link = None
    if rescale:
        model_path = cfg.get("model_file") or net_dir / "fitted.json"
        if not Path(model_path).exists():
            raise ConfigurationError(
                "rescaling needs --model-file (no fitted.json next to the networks)")
        model = read_model(model_path)
        link = dyad_probability_arrays(model).link
    mean_tau = tau_matrix(model).mean_tau if rescale else float("nan")

    def spectrum_of(path):
        net = read_network(path, n)
        matrix = rescale_matrix(net, model, link) if rescale else net.adjacency.astype(float)
        return eigenvalues(matrix)

    spectra = ordered_map(spectrum_of, files, _threads(cfg))
    values = np.concatenate([spec.values for spec in spectra])
    stems = np.repeat([path.stem for path in files], [spec.n for spec in spectra])
    shape = bulk_shape(spectra, mean_tau=mean_tau)
    paths = _write_figure_artifact(out, "spectrum_scatter", [stems, values.real, values.imag],
                                   shape.mean_tau)
    bulk_path = out / "bulk.json"
    write_json(bulk_path, {
        "semi_axis_re": shape.semi_axis_re,
        "semi_axis_im": shape.semi_axis_im,
        "axis_ratio": shape.axis_ratio,
        "pooled_count": shape.pooled_count,
        "mean_tau": shape.mean_tau,
    })
    paths.append(bulk_path)
    return paths, {"axis_ratio": shape.axis_ratio, "spectra": len(files)}


def _field_columns(records, fields):
    """One column per attribute name in ``fields``, across ``records``."""
    return [[getattr(r, name) for r in records] for name in fields]


def _cmd_scan(cfg, out):
    table = read_transactions(_need_path(cfg, "transactions"))
    year = _need(cfg, "year", _integer)
    delta_ts = parse_delta_ts(_need(cfg, "delta_t"))
    fitness = None
    if cfg.get("fitness"):
        fitness, _ = read_fitness_csv(_need_path(cfg, "fitness"))
    result = scan_aggregations(table, year, delta_ts, fitness=fitness,
                               solver_config=_solver_config(cfg))
    row_fields = _FIGURE_ARTIFACTS["rho_curve"][1]
    paths = _write_figure_artifact(out, "rho_curve", _field_columns(result.rows, row_fields))
    windows_csv, scan_json = out / "rho_windows.csv", out / "scan.json"
    window_fields = ["delta_t", "window_index", "density", "reciprocity", "r_fdcm", "rho"]
    write_csv(windows_csv, window_fields, _field_columns(result.windows, window_fields))
    landmarks = {"t_min": result.t_min, "t_0": result.t_0, "t_max": result.t_max,
                 "rho_min": result.rho_min, "rho_max": result.rho_max}
    write_json(scan_json, landmarks)
    return paths + [windows_csv, scan_json], landmarks


def _cmd_validate(cfg, out):
    model = read_model(_need_path(cfg, "model_file"))
    table = read_transactions(_need_path(cfg, "transactions"))
    year = _need(cfg, "year", _integer)
    delta_t = _need(cfg, "delta_t", _integer)
    window_index = _option(cfg, "window", _integer, 0)
    index = index_year(table, year)
    windows = build_windows(index, delta_t)
    if not windows:
        raise DataValidationError(f"no complete windows for year {year}, delta_t {delta_t}")
    if not 0 <= window_index < len(windows):
        raise ConfigurationError(
            f"field 'window': index {window_index} out of range (have {len(windows)})")
    net = aggregate(index, windows[window_index])
    del table, index  # freed before the N x N arrays
    if net.n != model.n:
        raise DataValidationError(f"model has {model.n} nodes, window has {net.n}")

    off = ~np.eye(net.n, dtype=bool)
    scores, observed = dyad_probability_arrays(model).link[off], net.adjacency[off]
    roc = roc_auc(scores, observed)
    metrics = degrees_strengths(net)
    _, r_model = expected_metrics(model)
    rho_value = None
    if metrics.r is not None and np.isfinite(r_model) and r_model < 1.0:
        rho_value = rho(metrics.r, r_model)
    summary = {
        "auc": roc.auc,
        "mann_whitney_auc": mann_whitney_auc(scores, observed),
        "cross_entropy": cross_entropy(model, net),
        "density": metrics.d,
        "reciprocity": metrics.r,
        "model_reciprocity": r_model,
        "rho": rho_value,
    }
    summary_json = out / "validation.json"
    write_json(summary_json, summary)
    paths = _write_figure_artifact(out, "roc_curve", [roc.thresholds, roc.fpr, roc.tpr])
    return paths + [summary_json], summary


def _cmd_report(cfg, out):
    src = Path(_need(cfg, "in", _text))
    if not src.is_dir():
        raise ConfigurationError(f"field 'in': no such directory {src}")
    if src.resolve() == out.resolve():
        raise ConfigurationError(
            f"field 'out' is the input directory {src}: its manifest would be overwritten")
    paths = []
    for kind, (file, header, kinds, _) in _FIGURE_ARTIFACTS.items():
        if (src / file).exists():
            columns = read_csv(src / file, header, kinds)
            extra = [_bulk_mean_tau(src / "bulk.json")] if kind == "spectrum_scatter" else []
            paths.extend(_draw(kind, columns, out, *extra))
    if not paths:
        print(f"report: no known artifacts found in {src}", file=sys.stderr)
    return paths, {"figures": len(paths)}


def _bulk_mean_tau(path):
    """``mean_tau`` of a bulk.json, or None when there is no such file."""
    if not path.exists():
        return None
    bulk = read_json(path)
    if not isinstance(bulk, dict):
        raise DataValidationError(f"{path}: expected a JSON object")
    mean_tau = bulk.get("mean_tau")
    if isinstance(mean_tau, bool) or not isinstance(mean_tau, (int, float, type(None))):
        raise DataValidationError(f"{path}: mean_tau must be a number or null")
    return mean_tau


_COMMANDS = {
    "synth": _cmd_synth,
    "aggregate": _cmd_aggregate,
    "fit": _cmd_fit,
    "sample": _cmd_sample,
    "spectra": _cmd_spectra,
    "scan": _cmd_scan,
    "validate": _cmd_validate,
    "report": _cmd_report,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recon-net",
        description="Reconstruct, sample and evaluate directed financial network ensembles.",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name, help_text, *specs):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; explicit flags win")
        p.add_argument("--out", help="output directory")
        p.add_argument("--threads", type=int,
                       help="worker processes (RECON_NET_THREADS overrides)" if name == "spectra"
                       else "accepted and ignored: only spectra reads it")
        for flag, kwargs in specs:
            p.add_argument(flag, **kwargs)
        return p

    add("synth", "generate synthetic fitness and transaction data",
        ("--nodes", dict(type=int)), ("--fitness-dist", dict()),
        ("--model", dict()), ("--density", dict(type=float)),
        ("--reciprocity", dict(type=float)), ("--days", dict(type=int)),
        ("--year", dict(type=int)), ("--seed", dict(type=int)),
        ("--amount-sigma", dict(type=float)))
    add("aggregate", "aggregate transactions into window snapshots",
        ("--transactions", dict()), ("--year", dict(type=int)),
        ("--delta-t", dict(type=int)))
    add("fit", "fit a model to fitness data and targets",
        ("--fitness", dict()), ("--model", dict()),
        ("--density", dict(type=float)), ("--reciprocity", dict(type=float)))
    add("sample", "sample an ensemble from a fitted model",
        ("--model-file", dict()), ("--samples", dict(type=int)),
        ("--seed", dict(type=int)), ("--write-networks", dict(type=int)),
        ("--no-spectra", dict(action="store_true", default=None)))
    add("spectra", "eigenvalue spectra of stored networks",
        ("--networks", dict()), ("--rescale", dict(action="store_true", default=None)),
        ("--model-file", dict()))
    add("scan", "reciprocity-gap scan across aggregation periods",
        ("--transactions", dict()), ("--year", dict(type=int)),
        ("--delta-t", dict()), ("--fitness", dict()))
    add("validate", "score a fitted model against an observed window",
        ("--model-file", dict()), ("--transactions", dict()),
        ("--year", dict(type=int)), ("--delta-t", dict(type=int)),
        ("--window", dict(type=int)))
    add("report", "regenerate figures from stored artifacts",
        ("--in", dict(dest="in_dir")))
    return parser


def _effective_config(args) -> dict:
    cfg = {}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigurationError(f"config file {path} does not exist")
        loaded = read_json(path)
        if not isinstance(loaded, dict):
            raise ConfigurationError("config file must hold a JSON object")
        cfg.update(loaded)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        cfg["in" if key == "in_dir" else key] = value
    return cfg


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def run(command: str, cfg: dict) -> int:
    """Execute one subcommand from an effective config dict."""
    if command not in _COMMANDS:
        raise ConfigurationError(f"unknown command {command!r}")
    out = _out_dir(cfg)
    start = time.perf_counter()
    paths, result = _COMMANDS[command](cfg, out)
    elapsed = time.perf_counter() - start
    manifest = {
        "command": command,
        "config": {k: v for k, v in sorted(cfg.items())},
        "version": __version__,
        "result": result,
        "outputs": [
            {"path": str(p.relative_to(out)), "sha256": _sha256(p), "bytes": p.stat().st_size}
            for p in sorted(set(paths))
        ],
        "timings": {"total_seconds": elapsed},
    }
    write_json(out / "manifest.json", manifest)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if not args.command:
        parser.print_help()
        return 1
    try:
        return run(args.command, _effective_config(args))
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ReconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

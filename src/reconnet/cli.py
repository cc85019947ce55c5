"""Command-line orchestration: batch experiments in, CSV/JSON/SVG out.

Every run writes a manifest.json capturing the effective configuration,
sha256 checksums of the written artifacts and wall-clock timings. All
randomness flows from the single master seed; re-running a command with
the same configuration byte-reproduces every CSV/JSON artifact (manifest
timings aside), independent of the worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
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
from .graph import MAX_NODES, DirectedNetwork, degrees_strengths
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


def _threads(values) -> int:
    """Worker processes: RECON_NET_THREADS, else field 'threads', else one per usable CPU."""
    env = os.environ.get("RECON_NET_THREADS")
    if env is not None:
        try:
            name, threads = "RECON_NET_THREADS", int(env)
        except ValueError:
            raise ConfigurationError(f"RECON_NET_THREADS={env!r} is not an integer") from None
    else:
        name, threads = "field 'threads'", values.get("threads")
        if threads is None:
            # the CPUs this process may run on where the platform says, else all of them
            threads = max(1, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                          else os.cpu_count() or 1)
    if threads < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {threads}")
    return threads


def _text(value) -> str:
    """``value`` if it is a string: a number or a list is not a path or a name."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _integer(value) -> int:
    """``value`` as an int: a bool, a string, or a number with a fractional part, is not one."""
    if isinstance(value, (bool, str)) or (isinstance(value, float) and not value.is_integer()):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def _number(value) -> float:
    """``value`` as a float: a bool or a string is not a number."""
    if isinstance(value, (bool, str)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _switch(value) -> bool:
    """``value`` if it is a JSON boolean: the string "false" is not one."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _on_path(action, value):
    """``action`` of the path ``value``; a path the system refuses is a usage error."""
    try:
        return action(Path(_text(value)))
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigurationError(
            f"cannot use path {value!r}: {getattr(exc, 'strerror', None) or exc}") from None


def _file(value) -> Path:
    """``value`` as the path of an existing file."""
    if not _on_path(Path.is_file, value):
        raise ConfigurationError(f"no such file {value!r}")
    return Path(value)


def _directory(value) -> Path:
    """``value`` as the path of an existing directory."""
    if not _on_path(Path.is_dir, value):
        raise ConfigurationError(f"no such directory {value!r}")
    return Path(value)


def _solver(value) -> SolverConfig:
    """A config-only object of SolverConfig overrides; SolverConfig checks their values."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {value!r}")
    unknown = set(value) - {"residual_tolerance", "step_tolerance", "max_iterations",
                            "lower_bound"}
    if unknown:
        raise ConfigurationError(f"unknown solver fields {sorted(unknown)}")
    return SolverConfig(**value)


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
            f"must be 'a:b[:step]' or a comma list of days >= 1, got {text!r}") from None
    if values[-1] > 366:  # no year has more trading days, so no window would fit
        raise ConfigurationError(f"must be at most 366 days, got {values[-1]}")
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


def _fit_fitness_model(v, fitness):
    """The fdcm or fgrm model of ``fitness`` that the targets in ``v`` ask for."""
    kind = v["model"]
    if kind is ModelKind.FGRM:
        if v["reciprocity"] is None:
            raise ConfigurationError("missing required field 'reciprocity'")
        return fit_fgrm(fitness, v["density"], v["reciprocity"], config=v["solver"])
    if kind is ModelKind.FDCM:
        return fit_fdcm(fitness, v["density"], config=v["solver"])
    raise ConfigurationError(f"field 'model' must be fdcm or fgrm, got {kind.value}")


def _cmd_synth(v, out):
    n, year, days = v["nodes"], v["year"], v["days"]
    if not 2 <= n <= MAX_NODES:  # no reader takes a larger network
        raise ConfigurationError(f"field 'nodes' must lie in 2..{MAX_NODES}, got {n}")
    synth_days(year, days, v["amount_sigma"])  # before the fit, which can take seconds
    fitness = synth_fitness(n, v["fitness_dist"], derive_subseed(v["seed"], 0))
    model = _fit_fitness_model(v, fitness)
    table = synth_transactions(model, year, days, derive_subseed(v["seed"], 1),
                               amount_sigma=v["amount_sigma"])
    paths = [out / "fitness.csv", out / "transactions.csv", out / "truth.json"]
    write_fitness_csv(paths[0], fitness)
    write_transactions_csv(paths[1], table)
    write_model(paths[2], model)
    return paths, {"transactions": len(table.day), "params": model.params}


def _cmd_aggregate(v, out):
    delta_t = v["delta_t"]
    index = index_year(read_transactions(v["transactions"]), v["year"])
    windows = build_windows(index, delta_t)
    net_dir = out / "networks"
    _on_path(lambda path: path.mkdir(exist_ok=True), str(net_dir))
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


def _cmd_fit(v, out):
    fitness, _ = read_fitness_csv(v["fitness"])
    model = _fit_fitness_model(v, fitness)
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


def _cmd_sample(v, out):
    model = read_model(v["model_file"])
    samples, seed, n_write = v["samples"], v["seed"], v["write_networks"]
    if n_write < 0:
        raise ConfigurationError(f"field 'write_networks' must be >= 0, got {n_write}")
    if n_write > samples:
        raise ConfigurationError(
            f"field 'write_networks' ({n_write}) exceeds field 'samples' ({samples})")
    paths = [out / "ensemble.json"]
    sample_dir = out / "samples"
    if n_write > 0:
        _on_path(lambda path: path.mkdir(exist_ok=True), str(sample_dir))
        nodes = sample_dir / "nodes.csv"
        write_nodes(nodes, [f"B{k:04d}" for k in range(model.n)])
        # keep the generating model next to its realizations so `spectra
        # --rescale` can find it without an explicit --model-file
        fitted = sample_dir / "fitted.json"
        write_model(fitted, model)
        paths.extend([nodes, fitted])

    def write_sample(k, adjacency):
        """The first ``n_write`` samples, written as they are drawn."""
        if k < n_write:
            paths.append(sample_dir / f"sample_{k:05d}.csv")
            write_network(paths[-1], DirectedNetwork(adjacency))

    # drawn here, not in worker processes: starting two took longer than the 20
    # samples and 4 written networks they would share (README, Performance notes)
    summary = generate_ensemble(model, EnsembleConfig(sample_count=samples, master_seed=seed),
                                compute_lambda=not v["no_spectra"], each=write_sample)
    # lambda_fallbacks says how lambda_max was computed, not what it is, so
    # it goes to the manifest and not to ensemble.json
    record = dataclasses.asdict(summary)
    lambda_fallbacks = record.pop("lambda_fallbacks")
    write_json(paths[0], record)
    return paths, {"mean_density": summary.mean_density,
                   "mean_lambda_max": summary.mean_lambda_max,
                   "lambda_fallbacks": lambda_fallbacks}


def _cmd_spectra(v, out):
    net_dir = v["networks"]
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
    rescale, model, link = v["rescale"], None, None
    if rescale:
        model_path = _file(v["model_file"]) if v["model_file"] else net_dir / "fitted.json"
        if not model_path.is_file():
            raise ConfigurationError(
                "rescaling needs --model-file (no fitted.json next to the networks)")
        model = read_model(model_path)
        link = dyad_probability_arrays(model).link
    mean_tau = tau_matrix(model).mean_tau if rescale else float("nan")

    def spectrum_of(path):
        net = read_network(path, n)
        matrix = rescale_matrix(net, model, link) if rescale else net.adjacency.astype(float)
        return eigenvalues(matrix)

    spectra = ordered_map(spectrum_of, files, _threads(v))
    values = np.concatenate([spec.values for spec in spectra])
    stems = np.repeat([path.stem for path in files], [spec.n for spec in spectra])
    shape = bulk_shape(spectra, mean_tau=mean_tau)
    paths = _write_figure_artifact(out, "spectrum_scatter", [stems, values.real, values.imag],
                                   shape.mean_tau)
    bulk_path = out / "bulk.json"
    write_json(bulk_path, dataclasses.asdict(shape))
    paths.append(bulk_path)
    return paths, {"axis_ratio": shape.axis_ratio, "spectra": len(files)}


def _field_columns(records, fields):
    """One column per attribute name in ``fields``, across ``records``."""
    return [[getattr(r, name) for r in records] for name in fields]


def _cmd_scan(v, out):
    table = read_transactions(v["transactions"])
    fitness = read_fitness_csv(v["fitness"])[0] if v["fitness"] else None
    result = scan_aggregations(table, v["year"], v["delta_t"], fitness=fitness,
                               solver_config=v["solver"])
    row_fields = _FIGURE_ARTIFACTS["rho_curve"][1]
    paths = _write_figure_artifact(out, "rho_curve", _field_columns(result.rows, row_fields))
    windows_csv, scan_json = out / "rho_windows.csv", out / "scan.json"
    window_fields = ["delta_t", "window_index", "density", "reciprocity", "r_fdcm", "rho"]
    write_csv(windows_csv, window_fields, _field_columns(result.windows, window_fields))
    landmarks = {"t_min": result.t_min, "t_0": result.t_0, "t_max": result.t_max,
                 "rho_min": result.rho_min, "rho_max": result.rho_max}
    write_json(scan_json, landmarks)
    return paths + [windows_csv, scan_json], landmarks


def _cmd_validate(v, out):
    model = read_model(v["model_file"])
    table = read_transactions(v["transactions"])
    year, delta_t, window_index = v["year"], v["delta_t"], v["window"]
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


def _cmd_report(v, out):
    src = v["in"]
    if src.resolve() == out.resolve():
        raise ConfigurationError(
            f"field 'out' is the input directory {src}: its manifest would be overwritten")
    found = {kind: spec for kind, spec in _FIGURE_ARTIFACTS.items() if (src / spec[0]).exists()}
    if not found:
        print(f"report: no known artifacts found in {src}", file=sys.stderr)
    paths = []
    for kind, (file, header, kinds, _) in found.items():
        extra = [_bulk_mean_tau(src / "bulk.json")] if kind == "spectrum_scatter" else []
        paths.extend(_draw(kind, read_csv(src / file, header, kinds), out, *extra))
    return paths, {"figures": len(paths)}


def _bulk_mean_tau(path):
    """``mean_tau`` of a bulk.json as a float, or None when it is null or there is no file."""
    bulk = read_json(path) if path.exists() else {}
    if not isinstance(bulk, dict):
        raise DataValidationError(f"{path}: expected a JSON object")
    mean_tau = bulk.get("mean_tau")
    try:
        if isinstance(mean_tau, (bool, str)):  # float() would take true and "0.5"
            raise TypeError
        return None if mean_tau is None else float(mean_tau)
    except (TypeError, OverflowError):  # OverflowError: an integer past the float range
        raise DataValidationError(f"{path}: mean_tau must be a float or null") from None


# The command table: function, help line and fields. Each field is a --flag
# (``-`` for ``_``) and a --config key: name -> (kind, default), in flag order.

_REQUIRED = object()  # the default of a field that must be given
_COMMON_FIELDS = {"out": (_text, _REQUIRED), "threads": (_integer, None)}
_FIT_FIELDS = {"model": (ModelKind, _REQUIRED), "density": (_number, _REQUIRED),
               "reciprocity": (_number, None),  # fgrm only
               "solver": (_solver, None)}
_COMMANDS = {
    "synth": (_cmd_synth, "generate synthetic fitness and transaction data", {
        "nodes": (_integer, _REQUIRED), "fitness_dist": (_text, _REQUIRED), **_FIT_FIELDS,
        "days": (_integer, _REQUIRED), "year": (_integer, _REQUIRED),
        "seed": (_integer, _REQUIRED), "amount_sigma": (_number, 0.0)}),
    "aggregate": (_cmd_aggregate, "aggregate transactions into window snapshots", {
        "transactions": (_file, _REQUIRED), "year": (_integer, _REQUIRED),
        "delta_t": (_integer, _REQUIRED)}),
    "fit": (_cmd_fit, "fit a model to fitness data and targets", {
        "fitness": (_file, _REQUIRED), **_FIT_FIELDS}),
    "sample": (_cmd_sample, "sample an ensemble from a fitted model", {
        "model_file": (_file, _REQUIRED), "samples": (_integer, _REQUIRED),
        "seed": (_integer, _REQUIRED), "write_networks": (_integer, 0),
        "no_spectra": (_switch, False)}),
    "spectra": (_cmd_spectra, "eigenvalue spectra of stored networks", {
        "networks": (_directory, _REQUIRED), "rescale": (_switch, False),
        "model_file": (_text, None)}),  # read with --rescale only
    "scan": (_cmd_scan, "reciprocity-gap scan across aggregation periods", {
        "transactions": (_file, _REQUIRED), "year": (_integer, _REQUIRED),
        "delta_t": (parse_delta_ts, _REQUIRED), "fitness": (_file, None),
        "solver": (_solver, None)}),
    "validate": (_cmd_validate, "score a fitted model against an observed window", {
        "model_file": (_file, _REQUIRED), "transactions": (_file, _REQUIRED),
        "year": (_integer, _REQUIRED), "delta_t": (_integer, _REQUIRED),
        "window": (_integer, 0)}),
    "report": (_cmd_report, "regenerate figures from stored artifacts", {
        "in": (_directory, _REQUIRED)}),
}
_FLAG_TYPES = {_integer: int, _number: float}  # what a flag's text is read as; else a string


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recon-net",
        description="Reconstruct, sample and evaluate directed financial network ensembles.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_text, fields) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; explicit flags win")
        helps = {"out": "output directory",
                 "threads": "worker processes (RECON_NET_THREADS overrides)" if name == "spectra"
                 else "accepted and ignored: only spectra reads it"}
        for field, (kind, _) in {**_COMMON_FIELDS, **fields}.items():
            flag = "--" + field.replace("_", "-")
            if kind is _switch:
                p.add_argument(flag, action="store_true", default=None)
            elif kind is not _solver:  # an object: a config file sets it
                p.add_argument(flag, type=_FLAG_TYPES.get(kind), help=helps.get(field))
    return parser


def _effective_config(args) -> dict:
    cfg = {}
    if args.config:
        path = Path(args.config)
        if not _on_path(Path.is_file, args.config):
            raise ConfigurationError(f"config file {path} is not a file")
        loaded = read_json(path)
        if not isinstance(loaded, dict):
            raise ConfigurationError("config file must hold a JSON object")
        cfg.update(loaded)
    cfg.update((key, value) for key, value in vars(args).items()
               if key not in ("command", "config") and value is not None)
    return cfg


def _field_values(cfg, fields) -> dict:
    """Each of ``fields`` in ``cfg`` through its kind, or its default where ``cfg`` has none.

    A kind's TypeError or ValueError reads "field 'f' has invalid value v", its
    usage error "field 'f': <its message>".
    """
    values = {}
    for name, (kind, default) in fields.items():
        value = cfg.get(name)
        if value is None and default is _REQUIRED:
            raise ConfigurationError(f"missing required field '{name}'")
        try:
            values[name] = default if value is None else kind(value)
        except (TypeError, ValueError, OverflowError):
            raise ConfigurationError(f"field '{name}' has invalid value {value!r}") from None
        except _USAGE_ERRORS as exc:
            raise ConfigurationError(f"field '{name}': {exc}") from None
    return values


def _sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def run(command: str, cfg: dict) -> int:
    """Execute one subcommand from an effective config dict."""
    if command not in _COMMANDS:
        raise ConfigurationError(f"unknown command {command!r}")
    function, _, fields = _COMMANDS[command]
    values = _field_values(cfg, {**_COMMON_FIELDS, **fields})
    out = Path(values["out"])
    _on_path(lambda path: path.mkdir(parents=True, exist_ok=True), values["out"])
    start = time.perf_counter()
    paths, result = function(values, out)
    elapsed = time.perf_counter() - start
    manifest = {
        "command": command,
        "config": cfg,  # keys sorted by write_json
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

"""Which reconnet functions the traced run wraps, and the per-layer metrics of a trace.

Each span is named ``<layer>.<function>``, where the layer is the reconnet
module. ``cli.<command>`` spans are opened by the benchmark around each
``reconnet.cli.main`` call, so a command's self time is the part of it no
library span covers: argument handling, the artifact loops and the
manifest's sha256.
"""

from __future__ import annotations

from spans import Target, root_of, self_times

CLI_COMMANDS = ("fit", "sample", "spectra", "validate", "scan")
EIGEN_PARENTS = ("sample", "spectra")
MODEL_KINDS = ("fdcm", "fgrm", "dcm", "grm", "rcm")


def _record_fit(span, model):
    span.attrs["kind"] = model.kind.value
    span.attrs["nfev"] = model.report.iterations


def _record_scan(span, result):
    span.attrs["windows_fitted"] = sum(row.window_count for row in result.rows)
    span.attrs["windows_skipped"] = sum(row.skipped_windows for row in result.rows)


def _degree_fit_name(kind, **_):
    return f"estimation.fit_degree_model.{getattr(kind, 'value', kind)}"


TARGETS = [
    Target("reconnet.ingest", "parse_transactions", "ingest.parse_transactions"),
    Target("reconnet.ingest", "build_windows", "ingest.build_windows"),
    Target("reconnet.ingest", "aggregate", "ingest.aggregate"),
    Target("reconnet.ingest", "fitness_from_strengths", "ingest.fitness_from_strengths"),
    Target("reconnet.ingest", "synth_transactions", "ingest.synth_transactions"),
    Target("reconnet.graph", "degrees_strengths", "graph.degrees_strengths"),
    Target("reconnet.graph", "DirectedNetwork.from_weight_matrix",
           "graph.DirectedNetwork.from_weight_matrix"),
    Target("reconnet.models", "dyad_probability_arrays", "models.dyad_probability_arrays"),
    Target("reconnet.estimation", "fit_fgrm", "estimation.fit_fgrm", after=_record_fit),
    Target("reconnet.estimation", "fit_fdcm", "estimation.fit_fdcm", after=_record_fit),
    Target("reconnet.estimation", "fit_degree_model", _degree_fit_name, after=_record_fit),
    Target("reconnet.estimation", "solve_bounded_least_squares",
           "estimation.solve_bounded_least_squares"),
    Target("reconnet.ensemble", "generate_ensemble", "ensemble.generate_ensemble"),
    # the dyad sampler runs in the worker threads of generate_ensemble, where the
    # eigensolves of both workers cover nearly all of generate_ensemble's span;
    # only a span of its own measures the sampling
    Target("reconnet.ensemble", "_DyadSampler.sample_adjacency", "ensemble.sample_adjacency"),
    Target("reconnet.ensemble", "sample_network", "ensemble.sample_network"),
    Target("reconnet.ensemble", "expected_metrics", "ensemble.expected_metrics"),
    Target("reconnet.spectral", "eigenvalues", "spectral.eigenvalues"),
    Target("reconnet.spectral", "rescale_matrix", "spectral.rescale_matrix"),
    Target("reconnet.spectral", "tau_matrix", "spectral.tau_matrix"),
    Target("reconnet.spectral", "bulk_shape", "spectral.bulk_shape"),
    Target("reconnet.serialize", "write_network", "serialize.write_network"),
    Target("reconnet.serialize", "read_network", "serialize.read_network"),
    Target("reconnet.serialize", "write_csv", "serialize.write_csv"),
    Target("reconnet.serialize", "read_model", "serialize.read_model"),
    Target("reconnet.validation", "scan_aggregations", "validation.scan_aggregations",
           after=_record_scan),
    Target("reconnet.validation", "roc_auc", "validation.roc_auc"),
    Target("reconnet.validation", "mann_whitney_auc", "validation.mann_whitney_auc",
           track_rss=True),
    Target("reconnet.validation", "cross_entropy", "validation.cross_entropy"),
    Target("reconnet.figures", "emit_figures", "figures.emit_figures"),
]

# spans reported with .self_s and .calls; eigenvalues is reported per parent command
TIMED_SPANS = ([t.span_name for t in TARGETS
                if isinstance(t.span_name, str) and t.span_name != "spectral.eigenvalues"]
               + [f"estimation.fit_degree_model.{k}" for k in ("dcm", "grm", "rcm")]
               + [f"cli.{c}" for c in CLI_COMMANDS])

# the one span measured in set-up rather than in the workload's iterations
SETUP_SPANS = ("ingest.synth_transactions",)

TRACE_METRICS = ("trace.overhead_s", "trace.parallel_overlap_s", "trace.remainder_s")

# peak RSS only rises in the first pass that reaches it, so take the largest
# rise over the traced passes instead of their median
MAX_OVER_PASSES = ("validation.mann_whitney_auc.maxrss_delta_mb",)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in BENCHMARK.json order."""
    names = []
    for span in TIMED_SPANS:
        names += [f"{span}.self_s", f"{span}.calls"]
    for parent in EIGEN_PARENTS:
        names += [f"spectral.eigenvalues.{parent}.{m}" for m in ("self_s", "calls", "ms_per_call")]
    names += [f"estimation.{k}.nfev" for k in MODEL_KINDS]
    names += ["estimation.nonconverged", "validation.windows_fitted",
              "validation.windows_skipped", "validation.windows_fitted_ratio",
              "validation.mann_whitney_auc.maxrss_delta_mb"]
    return names + list(TRACE_METRICS)


def layer_metrics(spans) -> tuple[dict[str, float], float]:
    """Per-layer self times, call counts and counters of one traced iteration.

    Also returns the time the spans account for: summed self time minus the
    parallel overlap, which equals the summed duration of the root spans.
    """
    selfs, overlap = self_times(spans)
    roots = root_of(spans)
    out = {}
    for name in TIMED_SPANS:
        mine = [sp for sp in spans if sp.name == name]
        out[f"{name}.self_s"] = sum(selfs[sp.span_id] for sp in mine)
        out[f"{name}.calls"] = len(mine)
    for parent in EIGEN_PARENTS:
        mine = [sp for sp in spans if sp.name == "spectral.eigenvalues"
                and roots[sp.span_id].name == f"cli.{parent}"]
        total = sum(selfs[sp.span_id] for sp in mine)
        out[f"spectral.eigenvalues.{parent}.self_s"] = total
        out[f"spectral.eigenvalues.{parent}.calls"] = len(mine)
        out[f"spectral.eigenvalues.{parent}.ms_per_call"] = 1e3 * total / len(mine) if mine else 0.0
    for kind in MODEL_KINDS:
        out[f"estimation.{kind}.nfev"] = sum(sp.attrs.get("nfev", 0) for sp in spans
                                             if sp.attrs.get("kind") == kind)
    out["estimation.nonconverged"] = sum(
        1 for sp in spans if sp.name.startswith("estimation.fit_")
        and sp.attrs.get("error") == "NonConvergenceError")
    fitted = sum(sp.attrs.get("windows_fitted", 0) for sp in spans)
    skipped = sum(sp.attrs.get("windows_skipped", 0) for sp in spans)
    out["validation.windows_fitted"] = fitted
    out["validation.windows_skipped"] = skipped
    out["validation.windows_fitted_ratio"] = fitted / (fitted + skipped) if fitted + skipped else 0.0
    out["validation.mann_whitney_auc.maxrss_delta_mb"] = max(
        [(sp.attrs["maxrss_after_kb"] - sp.attrs["maxrss_before_kb"]) / 1024.0
         for sp in spans if "maxrss_after_kb" in sp.attrs] or [0.0])
    out["trace.parallel_overlap_s"] = overlap
    return out, sum(selfs.values()) - overlap

"""Self-test of the span accounting and of the rebinding wrappers.

    python3 -m pytest -q perfbench/test_spans.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
from spans import Span, Tracer, root_of, self_times  # noqa: E402


def _span(span_id, parent, start, end, name="x"):
    return Span(span_id, parent, name, float(start), float(end))


def test_self_time_is_duration_minus_union_of_children():
    # root [0,10]; children a [1,4] and b [3,6] overlap, c [8,9]; a has a1 [2,3]
    spans = [_span(0, None, 0, 10), _span(1, 0, 1, 4), _span(2, 0, 3, 6),
             _span(3, 0, 8, 9), _span(4, 1, 2, 3)]
    selfs, overlap = self_times(spans)
    assert selfs == pytest.approx({0: 10 - 6, 1: 3 - 1, 2: 3, 3: 1, 4: 1})
    assert overlap == pytest.approx(1.0)  # a and b share [3,4]
    assert sum(selfs.values()) - overlap == pytest.approx(10.0)


def test_parallel_children_are_not_subtracted_twice():
    # two workers covering the same [1,5] under a root of [0,6]
    spans = [_span(0, None, 0, 6), _span(1, 0, 1, 5), _span(2, 0, 1, 5)]
    selfs, overlap = self_times(spans)
    assert selfs[0] == pytest.approx(2.0)
    assert overlap == pytest.approx(4.0)
    assert sum(selfs.values()) - overlap == pytest.approx(6.0)


def test_root_of_follows_parents():
    spans = [_span(0, None, 0, 4, "cli.sample"), _span(1, 0, 1, 3), _span(2, 1, 1, 2),
             _span(3, None, 5, 6, "cli.spectra")]
    roots = root_of(spans)
    assert [roots[k].name for k in range(4)] == ["cli.sample"] * 3 + ["cli.spectra"]


def test_worker_thread_spans_take_the_home_threads_open_span_as_parent():
    from concurrent.futures import ThreadPoolExecutor

    tracer = Tracer("t")
    with tracer.span("outer") as outer:
        with ThreadPoolExecutor(max_workers=2) as pool:
            def work(_):
                with tracer.span("inner"):
                    return 1

            assert sum(pool.map(work, range(4))) == 4
    inner = [sp for sp in tracer.spans if sp.name == "inner"]
    assert len(inner) == 4 and all(sp.parent == outer.span_id for sp in inner)


def _run_cli(tmp: Path, tracer=None):
    from contextlib import nullcontext

    from reconnet import cli

    def main(argv):
        with tracer.span(f"cli.{argv[0]}") if tracer else nullcontext():
            return cli.main(argv)

    assert main(["synth", "--nodes", "30", "--fitness-dist", "lognormal(0,1)",
                 "--model", "fgrm", "--density", "0.05", "--reciprocity", "0.2",
                 "--days", "12", "--year", "2001", "--seed", "3",
                 "--out", str(tmp / "data")]) == 0
    assert main(["fit", "--fitness", str(tmp / "data" / "fitness.csv"), "--model", "fgrm",
                 "--density", "0.2", "--reciprocity", "0.35",
                 "--out", str(tmp / "fit")]) == 0
    assert main(["sample", "--model-file", str(tmp / "fit" / "fitted.json"),
                 "--samples", "6", "--seed", "5", "--write-networks", "3",
                 "--threads", "2", "--out", str(tmp / "sample")]) == 0
    assert main(["spectra", "--networks", str(tmp / "sample" / "samples"), "--rescale",
                 "--threads", "2", "--out", str(tmp / "spectra")]) == 0
    assert main(["validate", "--model-file", str(tmp / "fit" / "fitted.json"),
                 "--transactions", str(tmp / "data" / "transactions.csv"),
                 "--year", "2001", "--delta-t", "6", "--out", str(tmp / "validate")]) == 0
    assert main(["scan", "--transactions", str(tmp / "data" / "transactions.csv"),
                 "--year", "2001", "--delta-t", "3,6,12", "--out", str(tmp / "scan")]) == 0
    return checks.artifact_hashes(tmp)


def _degree_fits():
    from reconnet import estimation

    rng = np.random.default_rng(0)
    a = (rng.random((20, 20)) < 0.4).astype(int)
    np.fill_diagonal(a, 0)
    targets = checks.degree_targets(a)
    return {k: estimation.fit_degree_model(k, **targets[k]).params for k in ("dcm", "grm")}


def test_wrappers_leave_results_unchanged_and_are_removed(tmp_path):
    from reconnet import cli, ensemble, spectral, validation

    originals = (cli.eigenvalues, spectral.eigenvalues, validation.aggregate,
                 cli.figures.emit_figures)
    plain = _run_cli(tmp_path / "plain")
    plain_fits = _degree_fits()

    tracer = Tracer("t")
    tracer.install(layers.TARGETS)
    try:
        # every holder of a wrapped function sees the wrapper
        assert cli.eigenvalues is spectral.eigenvalues is not originals[0]
        assert ensemble.spectral.eigenvalues is spectral.eigenvalues
        traced = _run_cli(tmp_path / "traced", tracer)
        traced_fits = _degree_fits()
    finally:
        tracer.uninstall()

    assert (cli.eigenvalues, spectral.eigenvalues, validation.aggregate,
            cli.figures.emit_figures) == originals
    assert traced == plain  # every artifact but the manifests, byte for byte
    for kind, params in plain_fits.items():
        for name, value in params.items():
            np.testing.assert_array_equal(traced_fits[kind][name], value)

    names = {sp.name for sp in tracer.spans}
    for expected in ("spectral.eigenvalues", "ensemble.sample_adjacency",
                     "ingest.aggregate", "ingest.synth_transactions",
                     "graph.DirectedNetwork.from_weight_matrix", "serialize.read_network",
                     "estimation.fit_degree_model.dcm", "validation.mann_whitney_auc",
                     "figures.emit_figures"):
        assert expected in names
    metrics, accounted = layers.layer_metrics(tracer.spans)
    roots = sum(sp.end - sp.start for sp in tracer.spans if sp.parent is None)
    assert accounted == pytest.approx(roots)
    assert metrics["spectral.eigenvalues.sample.calls"] == 6
    assert metrics["spectral.eigenvalues.spectra.calls"] == 3
    # 6 ensemble samples, and the 3 written networks drawn again by sample_network
    roots_by_id = root_of(tracer.spans)
    assert sum(1 for sp in tracer.spans if sp.name == "ensemble.sample_adjacency"
               and roots_by_id[sp.span_id].name == "cli.sample") == 9
    assert metrics["cli.scan.calls"] == 1 and metrics["validation.windows_fitted"] > 0
    assert metrics["estimation.dcm.nfev"] > 0 and metrics["estimation.nonconverged"] == 0

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from reconnet import DirectedNetwork, FittedModel, ModelKind, cli, sample_network
from reconnet.cli import main, parse_delta_ts
from reconnet.errors import ConfigurationError, DataValidationError, ParseError
from reconnet.graph import MAX_NODES
from reconnet.ingest import FitnessData
from reconnet.serialize import (
    fmt,
    model_to_dict,
    read_csv,
    read_fitness_csv,
    read_json,
    read_model,
    read_network,
    read_nodes,
    read_transactions,
    write_csv,
    write_fitness_csv,
    write_model,
    write_network,
    write_nodes,
)


def tree_digest(root, skip=("manifest.json",)):
    out = {}
    for p in sorted(Path(root).rglob("*")):
        if p.is_file() and p.name not in skip:
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestParseDeltaTs:
    def test_range(self):
        assert parse_delta_ts("1:5") == [1, 2, 3, 4, 5]

    def test_range_with_step(self):
        assert parse_delta_ts("1:10:4") == [1, 5, 9]

    def test_comma_list(self):
        assert parse_delta_ts("21,1,5") == [1, 5, 21]

    def test_bad_values(self):
        for bad in ("0:5", "5:1", "a:b", "1;5", ""):
            with pytest.raises(ConfigurationError):
                parse_delta_ts(bad)

    def test_at_most_the_days_of_a_year(self):
        assert parse_delta_ts("366") == [366]
        assert parse_delta_ts("1:366")[-1] == 366
        for bad in ("367", "1:367", "2,400"):
            with pytest.raises(ConfigurationError, match="at most 366"):
                parse_delta_ts(bad)


class TestFloatFormat:
    @pytest.mark.parametrize("seed", range(20))
    def test_seventeen_digits_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        for x in rng.lognormal(0, 40, 50):
            assert float(fmt(x)) == x


class TestCsvLayer:
    def test_columns_written_by_type(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["id", "count", "x"],
                  [["a", "b,c", "d"], np.array([1, 2, 3]),
                   [0.1, float("nan"), -np.inf]])
        assert path.read_bytes() == (b"id,count,x\r\n"
                                     b"a,1,0.10000000000000001\r\n"
                                     b'"b,c",2,nan\r\n'
                                     b"d,3,-inf\r\n")

    def test_ragged_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [1.0]])

    def test_weighted_edge_list_round_trips(self, tmp_path):
        rng = np.random.default_rng(4)
        w = (rng.random((6, 6)) < 0.4) * rng.lognormal(0, 2, (6, 6))
        np.fill_diagonal(w, 0.0)
        net = DirectedNetwork.from_weight_matrix(w)
        write_network(tmp_path / "e.csv", net)
        back = read_network(tmp_path / "e.csv", 6)
        np.testing.assert_array_equal(back.weights, net.weights)


class TestReadNetworkRejects:
    @pytest.mark.parametrize("row", [
        "-1,0,1",         # would wrap onto node n-1
        "0,3,1",          # past the last node
        "0,1,nan",
        "0,1,inf",
        "0,1,-2.5",
        "0,1,0",          # a zero weight would drop the link
        "0,1",
        "0,1,1,1",
        "0,x,1",
        "2,2,1",          # a self-loop
        '"2",2,1',        # a self-loop only the row-by-row pass reads
    ])
    def test_bad_row_is_parse_error_with_line(self, tmp_path, row):
        path = tmp_path / "e.csv"
        path.write_text(f"source,target,weight\n1,2,1\n{row}\n")
        with pytest.raises(ParseError) as err:
            read_network(path, 3)
        assert err.value.line == 3

    def test_bad_field_after_an_out_of_range_row(self, tmp_path):
        # fields are parsed in one pass, the node range checked after it
        path = tmp_path / "e.csv"
        path.write_text("source,target,weight\n0,5,1\n0,1,1.7\n1,x,1\n")
        with pytest.raises(ParseError) as err:
            read_network(path, 3)
        assert err.value.line == 4 and "bad target 'x'" in str(err.value)

    def test_spectra_exits_with_data_error(self, tmp_path, capsys):
        net_dir = tmp_path / "nets"
        net_dir.mkdir()
        write_nodes(net_dir / "nodes.csv", ["B0", "B1", "B2"])
        (net_dir / "s.csv").write_text("source,target,weight\n0,5,1\n")
        rc = main(["spectra", "--networks", str(net_dir), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_spectra_names_the_file_of_a_bad_field(self, tmp_path, capsys):
        net_dir = tmp_path / "nets"
        net_dir.mkdir()
        write_nodes(net_dir / "nodes.csv", ["B0", "B1", "B2"])
        (net_dir / "a.csv").write_text("source,target,weight\n0,1,1\n1,2,1\n")
        (net_dir / "b.csv").write_text("source,target,weight\n0,1,1\n1,x,1\n")
        rc = main(["spectra", "--networks", str(net_dir), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"line 3: {net_dir / 'b.csv'}: bad target 'x'" in capsys.readouterr().err

    def test_spectra_on_more_than_max_nodes_is_a_data_error(self, tmp_path, capsys):
        net_dir = tmp_path / "nets"
        net_dir.mkdir()
        write_nodes(net_dir / "nodes.csv", [f"B{k}" for k in range(MAX_NODES + 1)])
        # refused before any edge list is read (this one would fail its read)
        (net_dir / "s.csv").write_text("source,target,weight\n0,1,x\n")
        rc = main(["spectra", "--networks", str(net_dir), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"lists {MAX_NODES + 1} nodes; spectra needs 3..{MAX_NODES}" in \
            capsys.readouterr().err


class TestReadNodes:
    def test_round_trip(self, tmp_path):
        write_nodes(tmp_path / "nodes.csv", ["B0", "b,1", " B2 "])
        assert read_nodes(tmp_path / "nodes.csv") == ["B0", "b,1", " B2 "]

    @pytest.mark.parametrize("row", [
        "1",              # one field
        "1,B1,x",         # three fields
        "2,B2",           # index skips 1
        "0,B0",           # index repeats
        "x,B1",           # index not an integer
        "-1,B1",
    ])
    def test_bad_row_is_parse_error_with_line(self, tmp_path, row):
        path = tmp_path / "nodes.csv"
        path.write_text(f"index,label\n0,B0\n{row}\n2,B2\n")
        with pytest.raises(ParseError) as err:
            read_nodes(path)
        assert err.value.line == 3

    def test_index_out_of_order_before_a_short_row(self, tmp_path):
        path = tmp_path / "nodes.csv"
        path.write_text("index,label\n0,B0\n2,B2\n3\n")
        with pytest.raises(ParseError) as err:
            read_nodes(path)
        assert err.value.line == 3 and "bad index '2'" in str(err.value)

    @pytest.mark.parametrize("labels", [[], ["B0", "B1"]])
    def test_spectra_on_fewer_than_three_nodes_is_a_data_error(self, tmp_path, capsys, labels):
        net_dir = tmp_path / "nets"
        net_dir.mkdir()
        write_nodes(net_dir / "nodes.csv", labels)
        (net_dir / "s.csv").write_text("source,target,weight\n0,1,1\n")
        rc = main(["spectra", "--networks", str(net_dir), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{net_dir / 'nodes.csv'} lists {len(labels)} nodes" in err

    def test_spectra_exits_with_data_error(self, tmp_path, capsys):
        net_dir = tmp_path / "nets"
        net_dir.mkdir()
        (net_dir / "nodes.csv").write_text("index,label\n0,B0\n1\n")
        (net_dir / "s.csv").write_text("source,target,weight\n0,1,1\n")
        rc = main(["spectra", "--networks", str(net_dir), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "line 3" in capsys.readouterr().err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth -> fit -> sample -> spectra -> scan -> validate chain."""
    root = tmp_path_factory.mktemp("pipeline")
    rc = main(["synth", "--nodes", "20", "--fitness-dist", "lognormal(0,0.5)",
               "--model", "fgrm", "--density", "0.03", "--reciprocity", "0.25",
               "--days", "30", "--year", "2005", "--seed", "9",
               "--out", str(root / "data")])
    assert rc == 0
    rc = main(["fit", "--fitness", str(root / "data/fitness.csv"), "--model", "fgrm",
               "--density", "0.2", "--reciprocity", "0.4", "--out", str(root / "fit")])
    assert rc == 0
    rc = main(["sample", "--model-file", str(root / "fit/fitted.json"),
               "--samples", "40", "--seed", "21", "--write-networks", "15",
               "--out", str(root / "ens")])
    assert rc == 0
    rc = main(["spectra", "--networks", str(root / "ens/samples"), "--rescale",
               "--model-file", str(root / "fit/fitted.json"),
               "--out", str(root / "spec")])
    assert rc == 0
    rc = main(["scan", "--transactions", str(root / "data/transactions.csv"),
               "--year", "2005", "--delta-t", "1:30:7",
               "--out", str(root / "scan")])
    assert rc == 0
    rc = main(["validate", "--model-file", str(root / "fit/fitted.json"),
               "--transactions", str(root / "data/transactions.csv"),
               "--year", "2005", "--delta-t", "30", "--window", "0",
               "--out", str(root / "val")])
    assert rc == 0
    return root


class TestNotFiniteJsonValues:
    """A value that is infinite by design is written to JSON as null, like NaN."""

    def test_spectra_of_acyclic_networks(self, tmp_path):
        # every eigenvalue of an acyclic network is 0, so the bulk's axis ratio is inf
        net_dir = tmp_path / "nets"
        net_dir.mkdir()
        write_nodes(net_dir / "nodes.csv", ["B0", "B1", "B2", "B3"])
        for k in range(6):
            (net_dir / f"s{k}.csv").write_text("source,target,weight\n0,1,1\n1,2,1\n2,3,1\n")
        out = tmp_path / "out"
        assert main(["spectra", "--networks", str(net_dir), "--out", str(out)]) == 0
        assert read_json(out / "bulk.json")["axis_ratio"] is None
        assert read_json(out / "manifest.json")["result"]["axis_ratio"] is None

    def test_validate_where_a_bank_without_assets_lends(self, tmp_path):
        # B0 lends with zero assets: the model gives that link probability 0
        model = FittedModel(ModelKind.FDCM, {"z": 1.0},
                            fitness=FitnessData(np.array([0.0, 1.0, 1.0]), np.ones(3)))
        write_model(tmp_path / "fitted.json", model)
        (tmp_path / "transactions.csv").write_text(
            "date,lender,borrower,amount\n2005-01-03,B0,B1,1\n2005-01-03,B1,B2,1\n")
        out = tmp_path / "out"
        assert main(["validate", "--model-file", str(tmp_path / "fitted.json"),
                     "--transactions", str(tmp_path / "transactions.csv"),
                     "--year", "2005", "--delta-t", "1", "--out", str(out)]) == 0
        assert read_json(out / "validation.json")["cross_entropy"] is None
        assert read_json(out / "manifest.json")["result"]["cross_entropy"] is None


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        for rel in ("data/fitness.csv", "data/transactions.csv", "data/truth.json",
                    "fit/fitted.json", "fit/tau.csv", "fit/tau_histogram.svg",
                    "ens/ensemble.json", "ens/samples/nodes.csv",
                    "spec/spectra.csv", "spec/bulk.json", "spec/spectrum_scatter.svg",
                    "scan/rho_scan.csv", "scan/rho_windows.csv", "scan/scan.json",
                    "scan/rho_curve.svg", "val/roc.csv", "val/validation.json",
                    "val/roc_curve.svg"):
            assert (pipeline / rel).exists(), rel

    def test_manifest_records_outputs(self, pipeline):
        manifest = json.loads((pipeline / "fit/manifest.json").read_text())
        assert manifest["command"] == "fit"
        names = {o["path"] for o in manifest["outputs"]}
        assert "fitted.json" in names
        for entry in manifest["outputs"]:
            data = (pipeline / "fit" / entry["path"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]

    def test_fitted_model_round_trips(self, pipeline):
        model = read_model(pipeline / "fit/fitted.json")
        assert model.kind.value == "fgrm"
        assert model.params["u"] > 0

    def test_ensemble_json_shape(self, pipeline):
        data = json.loads((pipeline / "ens/ensemble.json").read_text())
        assert data["sample_count"] == 40
        assert len(data["densities"]) == 40
        assert len(data["lambda_max"]) == 40

    def test_lambda_fallbacks_in_manifest_only(self, pipeline):
        manifest = json.loads((pipeline / "ens/manifest.json").read_text())
        assert isinstance(manifest["result"]["lambda_fallbacks"], int)
        assert "lambda_fallbacks" not in json.loads((pipeline / "ens/ensemble.json").read_text())

    def test_report_regenerates_figures(self, pipeline, tmp_path):
        rc = main(["report", "--in", str(pipeline / "spec"), "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "spectrum_scatter.svg").exists()

    def test_spectra_rescale_finds_model_beside_samples(self, pipeline, tmp_path):
        rc = main(["spectra", "--networks", str(pipeline / "ens/samples"),
                   "--rescale", "--out", str(tmp_path)])
        assert rc == 0
        bulk = json.loads((tmp_path / "bulk.json").read_text())
        assert bulk["mean_tau"] is not None

    def test_spectra_row_count(self, pipeline):
        lines = (pipeline / "spec/spectra.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 15 * 20  # header + files * n


class TestManifestExample:
    def test_unit_fitness_fit_manifest_contains_params(self, tmp_path):
        path = tmp_path / "unit.csv"
        write_fitness_csv(path, FitnessData(np.ones(8), np.ones(8)))
        rc = main(["fit", "--fitness", str(path), "--model", "fgrm",
                   "--density", "0.5", "--reciprocity", "0.8",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        manifest = json.loads((tmp_path / "out/manifest.json").read_text())
        assert manifest["result"]["params"]["u"] == pytest.approx(0.25, abs=1e-6)
        assert manifest["result"]["params"]["v"] == pytest.approx(4.0, abs=1e-6)


class TestExitCodes:
    def test_density_out_of_range_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "unit.csv"
        write_fitness_csv(path, FitnessData(np.ones(4), np.ones(4)))
        rc = main(["fit", "--fitness", str(path), "--model", "fgrm",
                   "--density", "1.2", "--reciprocity", "0.5",
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "density" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path):
        rc = main(["scan", "--transactions", str(tmp_path / "nope.csv"),
                   "--year", "2000", "--delta-t", "1:5", "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_malformed_data_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,lender,borrower,amount\n2000-01-03,B1,B1,5\n")
        rc = main(["scan", "--transactions", str(bad), "--year", "2000",
                   "--delta-t", "1", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_missing_required_field(self, tmp_path, capsys):
        rc = main(["fit", "--model", "fgrm", "--density", "0.5",
                   "--reciprocity", "0.5", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "fitness" in capsys.readouterr().err

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        fit_csv = tmp_path / "unit.csv"
        write_fitness_csv(fit_csv, FitnessData(np.ones(6), np.ones(6)))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "fitness": str(fit_csv), "model": "fdcm", "density": 0.5,
            "out": str(tmp_path / "from_config"),
        }))
        rc = main(["fit", "--config", str(cfg), "--density", "0.2",
                   "--out", str(tmp_path / "merged")])
        assert rc == 0
        model = read_model(tmp_path / "merged/fitted.json")
        assert model.params["z"] == pytest.approx(0.25, abs=1e-8)  # flag won

    def test_solver_overrides_starve_the_fit(self, tmp_path, capsys):
        fit_csv = tmp_path / "skewed.csv"
        rng = np.random.default_rng(2)
        write_fitness_csv(fit_csv, FitnessData(rng.lognormal(0, 1, 10),
                                               rng.lognormal(0, 1, 10)))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"solver": {"max_iterations": 2}}))
        rc = main(["fit", "--config", str(cfg), "--fitness", str(fit_csv),
                   "--model", "fgrm", "--density", "0.05",
                   "--reciprocity", "0.6", "--out", str(tmp_path / "o")])
        assert rc == 3  # starved solver -> non-convergence, report in message
        assert "residual" in capsys.readouterr().err


class TestReproducibility:
    def test_rerun_and_thread_independence(self, tmp_path, monkeypatch):
        fit_csv = tmp_path / "f.csv"
        rng = np.random.default_rng(0)
        write_fitness_csv(fit_csv, FitnessData(rng.lognormal(0, 1, 15),
                                               rng.lognormal(0, 1, 15)))
        args = ["fit", "--fitness", str(fit_csv), "--model", "fgrm",
                "--density", "0.3", "--reciprocity", "0.45"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

        sample = ["sample", "--model-file", str(tmp_path / "a/fitted.json"),
                  "--samples", "25", "--seed", "3"]
        assert main(sample + ["--threads", "1", "--out", str(tmp_path / "s1")]) == 0
        monkeypatch.setenv("RECON_NET_THREADS", "4")
        assert main(sample + ["--threads", "1", "--out", str(tmp_path / "s4")]) == 0
        monkeypatch.delenv("RECON_NET_THREADS")
        assert tree_digest(tmp_path / "s1") == tree_digest(tmp_path / "s4")


class TestHardenedReaders:
    """Malformed config, model and report files end in exit 2 with a one-line message."""

    def run_err(self, capsys, argv):
        rc = main(argv)
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) <= 1 and "Traceback" not in err
        return rc, err

    def test_malformed_config_json_is_a_parse_error_with_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text('{\n  "model": "fdcm",\n  "density": 0.2,,\n}\n')
        with pytest.raises(ParseError) as err:
            read_json(cfg)
        assert err.value.line == 3
        rc, msg = self.run_err(capsys, ["fit", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2 and "line 3" in msg

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("params"),
        lambda d: d.update(kind="zzz"),
        lambda d: d.pop("kind"),
        lambda d: d["params"].pop("v"),
        lambda d: d["params"].update(u="big"),
        lambda d: d["params"].update(u=[1.0, 2.0]),
        lambda d: d["params"].update(u=-1.0),
        lambda d: d["params"].update({"\r": None}),  # a name that would split the message
        lambda d: d["fitness"].pop("assets"),
        lambda d: d["fitness"].update(liabilities=[1.0]),
        lambda d: d["fitness"]["assets"].__setitem__(0, "x"),
        lambda d: d.update(fitness=[1, 2]),
    ])
    def test_bad_model_file_is_a_data_error(self, pipeline, tmp_path, capsys, edit):
        data = json.loads((pipeline / "fit/fitted.json").read_text())
        edit(data)
        path = tmp_path / "fitted.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DataValidationError):
            read_model(path)
        rc, _ = self.run_err(capsys, ["sample", "--model-file", str(path), "--samples", "2",
                                      "--seed", "1", "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_every_model_the_program_writes_reads_back(self, pipeline, tmp_path):
        assert main(["fit", "--fitness", str(pipeline / "data/fitness.csv"), "--model", "fdcm",
                     "--density", "0.1", "--out", str(tmp_path / "fdcm")]) == 0
        assert main(["synth", "--nodes", "6", "--fitness-dist", "lognormal(0,1)", "--model",
                     "fdcm", "--density", "0.3", "--days", "3", "--year", "2005", "--seed", "2",
                     "--out", str(tmp_path / "synth")]) == 0
        files = [pipeline / "fit/fitted.json", pipeline / "data/truth.json",
                 pipeline / "ens/samples/fitted.json", tmp_path / "fdcm/fitted.json",
                 tmp_path / "synth/truth.json"]
        rng = np.random.default_rng(5)
        x, y, z = (rng.lognormal(0, 1, 5) for _ in range(3))
        for kind, params in (("dcm", {"x": x, "y": y}), ("grm", {"x": x, "y": y, "z": 0.7}),
                             ("rcm", {"x": x, "y": y, "z": z})):
            path = tmp_path / f"{kind}.json"
            write_model(path, FittedModel(ModelKind(kind), params))
            files.append(path)
        for path in files:
            data = json.loads(path.read_text())
            model = read_model(path)
            assert model_to_dict(model) == {k: v for k, v in data.items() if k != "report"}

    @pytest.mark.parametrize("name,content,line", [
        ("rho_scan.csv", "delta_t,window_count,skipped_windows,mean_density,"
         "mean_reciprocity,mean_r_fdcm,mean_rho\n1,3,0,0.1,0.2,0.1,0.05\n2,3,0\n", 3),
        ("spectra.csv", "sample_id,re,im\ns0,1.0,0.5\ns0,abc,0.0\n", 3),
        ("spectra.csv", "sample_id,re,im\ns0,1.0,inf\n", 2),
        ("roc.csv", "threshold,fpr,tpr\ninf,0,0\n0.5,0.5\n", 3),
        ("tau.csv", "i,j,tau\n0,1,0.3\n0,x,0.1\n", 3),
        ("tau.csv", "i,j\n0,1\n", 1),
    ])
    def test_malformed_report_artifact_is_a_parse_error(self, tmp_path, capsys, name,
                                                        content, line):
        src = tmp_path / "in"
        src.mkdir()
        (src / name).write_text(content)
        rc, msg = self.run_err(capsys, ["report", "--in", str(src), "--out", str(tmp_path / "o")])
        assert rc == 2 and f"line {line}:" in msg

    @pytest.mark.parametrize("bulk", ['[1, 2]', '{"mean_tau": "x"}', '{"mean_tau": [0.1]}'])
    def test_malformed_bulk_json_is_a_data_error(self, pipeline, tmp_path, capsys, bulk):
        src = tmp_path / "in"
        src.mkdir()
        (src / "spectra.csv").write_bytes((pipeline / "spec/spectra.csv").read_bytes())
        (src / "bulk.json").write_text(bulk)
        rc, _ = self.run_err(capsys, ["report", "--in", str(src), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_report_reads_the_artifacts_the_program_writes(self, pipeline, tmp_path):
        # spectra without --rescale, and a scan whose delta_t 1 has only one-link windows
        assert main(["spectra", "--networks", str(pipeline / "ens/samples"),
                     "--out", str(tmp_path / "plain")]) == 0
        tx = tmp_path / "tx.csv"
        tx.write_text("date,lender,borrower,amount\n2007-01-02,A,B,1\n2007-01-03,B,C,1\n")
        assert main(["scan", "--transactions", str(tx), "--year", "2007", "--delta-t", "1,2",
                     "--out", str(tmp_path / "gap")]) == 0
        assert (tmp_path / "gap/rho_scan.csv").read_text().splitlines()[1].startswith("1,0,")
        sources = [pipeline / sub for sub in ("spec", "scan", "val", "fit")]
        redrawn_otherwise = []
        for src in sources + [tmp_path / "plain", tmp_path / "gap"]:
            out = tmp_path / "report" / src.name
            assert main(["report", "--in", str(src), "--out", str(out)]) == 0
            drawn = [p.name for p in out.glob("*.svg")]
            assert drawn == [p.name for p in src.glob("*.svg")] and len(drawn) == 1, src
            if (out / drawn[0]).read_bytes() != (src / drawn[0]).read_bytes():
                redrawn_otherwise.append(f"{src.name}/{drawn[0]}")
        assert redrawn_otherwise == []
        # the ROC label's AUC, from the curve read back, is validation.json's to the bit
        _, fpr, tpr = read_csv(pipeline / "val/roc.csv", ["threshold", "fpr", "tpr"], [float] * 3)
        assert np.trapezoid(tpr, fpr) == read_json(pipeline / "val/validation.json")["auc"]

    def test_report_into_its_input_directory_is_a_usage_error(self, pipeline, tmp_path,
                                                              capsys):
        src = tmp_path / "spec"
        src.mkdir()
        for p in (pipeline / "spec").iterdir():
            (src / p.name).write_bytes(p.read_bytes())
        before = {p.name: p.read_bytes() for p in src.iterdir()}
        rc, msg = self.run_err(capsys, ["report", "--in", str(src), "--out", str(src / ".")])
        assert rc == 1 and "input directory" in msg
        assert {p.name: p.read_bytes() for p in src.iterdir()} == before

    def test_spectra_into_its_networks_directory_is_a_usage_error(self, pipeline, tmp_path,
                                                                   capsys):
        src = tmp_path / "samples"
        src.mkdir()
        for p in (pipeline / "ens/samples").iterdir():
            (src / p.name).write_bytes(p.read_bytes())
        before = {p.name: p.read_bytes() for p in src.iterdir()}
        rc, msg = self.run_err(capsys, ["spectra", "--networks", str(src), "--out", str(src / ".")])
        assert rc == 1 and "input directory" in msg
        assert {p.name: p.read_bytes() for p in src.iterdir()} == before
        # so a second spectra of the same directory still reads only networks
        assert main(["spectra", "--networks", str(src), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("override,code", [
        ({"model": "zzz"}, 1), ({"model": 5}, 1), ({"fitness": 5}, 1),
        ({"solver": 5}, 1), ({"solver": {"max_iterations": "x"}}, 1),
        ({"solver": {"lower_bound": 2.0}}, 1), ({"solver": {"residual_tolerance": None}}, 1),
        ({"reciprocity": "high"}, 1), ({"density": 1e400}, 1),
        ({"solver": {"max_iterations": 10**400}}, 1),
        ({"solver": {"step_tolerance": float("inf")}}, 1),
    ])
    def test_bad_config_values_are_usage_errors(self, pipeline, tmp_path, capsys, override,
                                                code):
        cfg = {"fitness": str(pipeline / "data/fitness.csv"), "model": "fgrm",
               "density": 0.2, "reciprocity": 0.3}
        cfg.update(override)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        rc, _ = self.run_err(capsys, ["fit", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == code


class TestNonUtf8Input:
    """A 0xff byte in a CSV or JSON input is a ParseError naming the file and its line."""

    @pytest.mark.parametrize("read,content", [
        (read_transactions, b"date,lender,borrower,amount\n2007-01-02,A,B,1\nx\xff,A,B,1\n"),
        (read_fitness_csv, b"node,assets,liabilities\nA,1,1\nB\xff,1,1\n"),
        (read_nodes, b"index,label\n0,B0\n1,B\xff\n"),
        (read_nodes, b"index,label\r0,B0\r1,B\xff\r"),
        (lambda p: read_network(p, 3), b"source,target,weight\n0,1,1\n1,2,\xff\n"),
        (lambda p: read_csv(p, ["i", "j", "tau"], [int, int, float]),
         b"i,j,tau\r\n0,1,0.5\r\n0,2,\xff\r\n"),
        (read_json, b'{\n  "a": 1,\n  "b": "\xff"\n}\n'),
    ])
    def test_reader_names_file_and_line(self, tmp_path, read, content):
        path = tmp_path / "input"
        path.write_bytes(content)
        with pytest.raises(ParseError) as err:
            read(path)
        assert err.value.line == 3 and str(path) in str(err.value)
        assert "not UTF-8" in str(err.value)

    def test_edge_list_decoded_past_its_first_chunk(self, tmp_path):
        # the text layer decodes in chunks: here the bad byte is met inside the row loop
        rows = "".join(f"{k % 3},{(k + 1) % 3},1\n" for k in range(5000))
        path = tmp_path / "e.csv"
        path.write_bytes(b"source,target,weight\n" + rows.encode() + b"0,1,\xff\n")
        with pytest.raises(ParseError) as err:
            read_network(path, 3)
        assert err.value.line == 5002 and "not UTF-8" in str(err.value)

    def run_bad(self, capsys, argv, path):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert str(path) in err and "line 2" in err

    def test_scan(self, tmp_path, capsys):
        path = tmp_path / "tx.csv"
        path.write_bytes(b"date,lender,borrower,amount\n2007-01-02,A,B\xff,1\n")
        self.run_bad(capsys, ["scan", "--transactions", str(path), "--year", "2007",
                              "--delta-t", "1", "--out", str(tmp_path / "o")], path)

    def test_fit(self, tmp_path, capsys):
        path = tmp_path / "fitness.csv"
        path.write_bytes(b"node,assets,liabilities\nA\xff,1,1\nB,1,1\n")
        self.run_bad(capsys, ["fit", "--fitness", str(path), "--model", "fdcm",
                              "--density", "0.5", "--out", str(tmp_path / "o")], path)

    @pytest.mark.parametrize("bad", ["nodes.csv", "s.csv"])
    def test_spectra(self, tmp_path, capsys, bad):
        net_dir = tmp_path / "nets"
        net_dir.mkdir()
        write_nodes(net_dir / "nodes.csv", ["B0", "B1", "B2"])
        (net_dir / "s.csv").write_text("source,target,weight\n0,1,1\n")
        header, *rows = (net_dir / bad).read_bytes().splitlines(keepends=True)
        (net_dir / bad).write_bytes(b"".join([header, b"\xff"] + rows))
        self.run_bad(capsys, ["spectra", "--networks", str(net_dir),
                              "--out", str(tmp_path / "o")], net_dir / bad)

    def test_report(self, tmp_path, capsys):
        src = tmp_path / "in"
        src.mkdir()
        (src / "tau.csv").write_bytes(b"i,j,tau\n0,1,\xff\n")
        self.run_bad(capsys, ["report", "--in", str(src), "--out", str(tmp_path / "o")],
                     src / "tau.csv")


class TestScanSkipsUnreachableWindows:
    """A window with one link is reached by no finite z: it is skipped, not fatal."""

    STREAM = ("date,lender,borrower,amount\n2007-01-02,A,B,1\n2007-01-03,A,B,1\n"
              "2007-01-03,B,A,2\n2007-01-03,C,A,2\n2007-01-03,B,C,2\n")

    @pytest.mark.parametrize("pinned,fitted,skipped", [(False, 1, 1), (True, 2, 0)])
    def test_one_link_day(self, tmp_path, pinned, fitted, skipped):
        tx = tmp_path / "tx.csv"
        tx.write_text(self.STREAM)
        argv = ["scan", "--transactions", str(tx), "--year", "2007", "--delta-t", "1",
                "--out", str(tmp_path / "o")]
        if pinned:  # a pinned fitness makes every dyad reachable
            write_fitness_csv(tmp_path / "f.csv", FitnessData(np.ones(3), np.ones(3)))
            argv += ["--fitness", str(tmp_path / "f.csv")]
        assert main(argv) == 0
        rows = (tmp_path / "o/rho_scan.csv").read_text().splitlines()
        assert rows[1].split(",")[:3] == ["1", str(fitted), str(skipped)]
        windows = (tmp_path / "o/rho_windows.csv").read_text().splitlines()[1:]
        assert [w.split(",")[1] for w in windows] == (["0", "1"] if pinned else ["1"])

    def test_strengths_whose_mean_overflows(self, tmp_path):
        # two loans of 1e308 on day 1: the mean strength is inf, so every
        # normalised fitness is 0 and no dyad can carry a link
        tx = tmp_path / "tx.csv"
        tx.write_text(self.STREAM.replace("2007-01-02,A,B,1\n",
                                          "2007-01-02,A,B,1e308\n2007-01-02,C,D,1e308\n"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["scan", "--transactions", str(tx), "--year", "2007", "--delta-t", "1",
                         "--out", str(tmp_path / "o")]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        rows = (tmp_path / "o/rho_scan.csv").read_text().splitlines()
        assert rows[1].split(",")[:3] == ["1", "1", "1"]


class TestScanPinnedFitness:
    @pytest.mark.parametrize("rows", [3, 21])
    def test_fitness_of_another_node_count_is_a_data_error(self, pipeline, tmp_path, capsys,
                                                           rows):
        # the year's stream has 20 banks; no window may be fitted with another count
        write_fitness_csv(tmp_path / "f.csv", FitnessData(np.ones(rows), np.ones(rows)))
        out = tmp_path / "o"
        assert main(["scan", "--transactions", str(pipeline / "data/transactions.csv"),
                     "--year", "2005", "--delta-t", "1:30:7", "--fitness", str(tmp_path / "f.csv"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"fitness has {rows} nodes" in err and "has 20 banks" in err
        assert not out.exists() or not any(out.iterdir())


class TestNoCompleteWindow:
    """A year with fewer trading days than the smallest delta_t has nothing to scan."""

    def run(self, pipeline, out, command, year, delta_t):
        argv = [command, "--transactions", str(pipeline / "data/transactions.csv"),
                "--year", year, "--delta-t", delta_t, "--out", str(out)]
        if command == "validate":
            argv += ["--model-file", str(pipeline / "fit/fitted.json")]
        return main(argv)

    @pytest.mark.parametrize("command", ["scan", "validate"])
    @pytest.mark.parametrize("year,delta_t", [("2006", "1"), ("2005", "40")])
    def test_is_a_data_error(self, pipeline, tmp_path, capsys, command, year, delta_t):
        out = tmp_path / "o"
        assert self.run(pipeline, out, command, year, delta_t) == 2
        err = capsys.readouterr().err
        assert f"no complete windows for year {year}" in err and f"delta_t {delta_t}" in err
        assert not out.exists() or not any(out.iterdir())

    def test_scan_keeps_a_delta_t_without_windows_as_a_missing_row(self, pipeline, tmp_path):
        out = tmp_path / "o"
        assert self.run(pipeline, out, "scan", "2005", "30,40") == 0
        rows = [r.split(",")[:2] for r in (out / "rho_scan.csv").read_text().splitlines()[1:]]
        assert rows == [["30", "1"], ["40", "0"]]

    def test_aggregate_writes_only_the_metrics_header(self, pipeline, tmp_path):
        out = tmp_path / "o"
        assert self.run(pipeline, out, "aggregate", "2005", "40") == 0
        assert (out / "metrics.csv").read_text().splitlines() == \
            ["delta_t,window_index,n,links,recip_links,density,reciprocity"]

    def test_delta_t_above_366_is_a_usage_error(self, pipeline, tmp_path, capsys):
        out = tmp_path / "o"
        assert self.run(pipeline, out, "scan", "2005", "1:367") == 1
        assert "at most 366" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestScanManifestListsOnlyItsFigures:
    def test_a_figure_left_by_an_earlier_run_is_not_listed(self, tmp_path):
        out = tmp_path / "o"
        tx = tmp_path / "tx.csv"
        tx.write_text(TestScanSkipsUnreachableWindows.STREAM)
        argv = ["scan", "--transactions", str(tx), "--year", "2007", "--delta-t", "1",
                "--out", str(out)]
        assert main(argv) == 0
        assert "rho_curve.svg" in {o["path"] for o in
                                   json.loads((out / "manifest.json").read_text())["outputs"]}
        # one link a day: every window is skipped and there is nothing to plot
        tx.write_text("date,lender,borrower,amount\n2007-01-02,A,B,1\n2007-01-03,B,C,1\n")
        assert main(argv) == 0
        assert (out / "rho_curve.svg").exists()  # the earlier run's file is left alone
        names = {o["path"] for o in json.loads((out / "manifest.json").read_text())["outputs"]}
        assert names == {"rho_scan.csv", "rho_windows.csv", "scan.json"}


class TestSynthAmountSigma:
    """A spread that is no lognormal sigma is a usage error; one whose amounts overflow is bad data."""

    def synth(self, tmp_path, capsys, sigma):
        rc = main(["synth", "--nodes", "6", "--fitness-dist", "constant(1)", "--model", "fdcm",
                   "--density", "0.3", "--days", "3", "--year", "2005", "--seed", "2",
                   "--amount-sigma", sigma, "--out", str(tmp_path / "synth")])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
    def test_negative_or_not_finite_is_a_usage_error(self, tmp_path, capsys, sigma):
        rc, err = self.synth(tmp_path, capsys, sigma)
        assert rc == 1
        assert "amount_sigma must be nonnegative and finite" in err

    def test_overflowing_amounts_are_a_data_error(self, tmp_path, capsys):
        rc, err = self.synth(tmp_path, capsys, "1e308")
        assert rc == 2
        assert "amount must be positive and finite" in err

    def test_zero_gives_unit_amounts(self, tmp_path, capsys):
        assert self.synth(tmp_path, capsys, "0")[0] == 0
        assert set(read_transactions(tmp_path / "synth/transactions.csv").amount) == {1.0}


class TestSynthChecksArgumentsBeforeFitting:
    """Days, year and amount spread are usage errors found before the model is fitted."""

    @pytest.fixture(autouse=True)
    def no_fit(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("synth fitted a model before checking its arguments")

        monkeypatch.setattr(cli, "fit_fgrm", fail)

    def synth(self, tmp_path, capsys, days, year="2005", sigma="0", nodes="6"):
        rc = main(["synth", "--nodes", nodes, "--fitness-dist", "constant(1)", "--model", "fgrm",
                   "--density", "0.3", "--reciprocity", "0.2", "--days", days, "--year", year,
                   "--seed", "2", "--amount-sigma", sigma, "--out", str(tmp_path / "synth")])
        assert not (tmp_path / "synth" / "transactions.csv").exists()
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("days", ["-3", "0"])
    def test_fewer_than_one_day(self, tmp_path, capsys, days):
        rc, err = self.synth(tmp_path, capsys, days)
        assert rc == 1
        assert "days must be >= 1" in err

    @pytest.mark.parametrize("days,year,sigma,message", [
        ("300", "2001", "0", "year 2001 has fewer than 300 weekdays"),
        ("3", "0", "0", "year must lie in"),
        ("3", "10000", "0", "year must lie in"),
        ("3", "2005", "-1", "amount_sigma must be nonnegative and finite"),
    ])
    def test_bad_year_or_spread(self, tmp_path, capsys, days, year, sigma, message):
        rc, err = self.synth(tmp_path, capsys, days, year, sigma)
        assert rc == 1
        assert message in err

    @pytest.mark.parametrize("nodes", ["-1", "0", "1", "4097", "5000"])
    def test_node_count_outside_what_the_readers_take(self, tmp_path, capsys, nodes):
        rc, err = self.synth(tmp_path, capsys, "3", nodes=nodes)
        assert rc == 1
        assert f"field 'nodes' must lie in 2..4096, got {nodes}" in err


class TestDefaultThreads:
    """Without --threads or RECON_NET_THREADS, one worker per CPU this process may use."""

    def test_affinity_of_one_cpu(self, monkeypatch):
        monkeypatch.delenv("RECON_NET_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert cli._threads({}) == 1

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delenv("RECON_NET_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._threads({}) == 3


class TestCountsBelowTheirMinimum:
    """A worker count below 1 or a negative number of written networks is a usage error."""

    @pytest.mark.parametrize("threads", ["-3", "0"])
    def test_spectra_threads(self, pipeline, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.delenv("RECON_NET_THREADS", raising=False)
        rc = main(["spectra", "--networks", str(pipeline / "ens/samples"),
                   "--threads", threads, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"field 'threads' must be >= 1, got {threads}" in capsys.readouterr().err
        assert not (tmp_path / "o" / "spectra.csv").exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_environment_threads(self, pipeline, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("RECON_NET_THREADS", threads)
        rc = main(["spectra", "--networks", str(pipeline / "ens/samples"),
                   "--threads", "2", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"RECON_NET_THREADS must be >= 1, got {int(threads)}" in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_one_thread_is_accepted(self, pipeline, tmp_path, monkeypatch):
        monkeypatch.setenv("RECON_NET_THREADS", "1")
        assert main(["spectra", "--networks", str(pipeline / "ens/samples"),
                     "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("count", ["-2", "-1"])
    def test_sample_write_networks(self, pipeline, tmp_path, capsys, count):
        rc = main(["sample", "--model-file", str(pipeline / "fit/fitted.json"),
                   "--samples", "3", "--seed", "1", "--write-networks", count,
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert f"field 'write_networks' must be >= 0, got {count}" in capsys.readouterr().err
        assert not (tmp_path / "o" / "samples").exists()
        assert not (tmp_path / "o" / "ensemble.json").exists()

    def test_sample_refuses_to_write_more_networks_than_it_draws(self, pipeline, tmp_path,
                                                                 capsys):
        rc = main(["sample", "--model-file", str(pipeline / "fit/fitted.json"),
                   "--samples", "3", "--seed", "1", "--write-networks", "4",
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "field 'write_networks' (4) exceeds field 'samples' (3)" in capsys.readouterr().err
        assert not (tmp_path / "o" / "samples").exists()
        assert not (tmp_path / "o" / "ensemble.json").exists()

    def test_sample_writes_no_networks_at_zero(self, pipeline, tmp_path):
        assert main(["sample", "--model-file", str(pipeline / "fit/fitted.json"),
                     "--samples", "3", "--seed", "1", "--write-networks", "0",
                     "--out", str(tmp_path / "o")]) == 0
        assert not (tmp_path / "o" / "samples").exists()


def _modules_after(code):
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    return out.stdout.split()


def test_cli_import_leaves_scipy_optimize_and_multiprocessing_out():
    code = ("import sys, reconnet, reconnet.cli; "
            "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules), "
            "'multiprocessing' in sys.modules)")
    assert _modules_after(code) == ["False", "False"]


def test_fgrm_synth_and_fit_load_no_scipy(tmp_path):
    code = ("import sys; from reconnet.cli import main; "
            f"data, fit = {str(tmp_path / 'data')!r}, {str(tmp_path / 'fit')!r}; "
            "assert main(['synth', '--nodes', '30', '--fitness-dist', 'lognormal(0,1)', "
            "'--model', 'fgrm', '--density', '0.1', '--reciprocity', '0.3', '--days', '3', "
            "'--year', '2005', '--seed', '4', '--out', data]) == 0; "
            "assert main(['fit', '--fitness', data + '/fitness.csv', '--model', 'fgrm', "
            "'--density', '0.2', '--reciprocity', '0.35', '--out', fit]) == 0; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    assert _modules_after(code) == ["[]"]
    assert (tmp_path / "fit" / "fitted.json").exists()


class TestSpectraWorkers:
    """Spectra on worker processes: same bytes, same errors, no process left behind."""

    N = 12

    @pytest.fixture
    def nets(self, tmp_path):
        """Five networks of one model, with their nodes and model files."""
        fitness = FitnessData(np.linspace(0.5, 2.0, self.N), np.linspace(2.0, 0.5, self.N))
        model = FittedModel(ModelKind.FDCM, {"z": 0.3}, fitness=fitness)
        net_dir = tmp_path / "nets"
        net_dir.mkdir()
        write_nodes(net_dir / "nodes.csv", [f"B{k}" for k in range(self.N)])
        write_model(net_dir / "fitted.json", model)
        for k in range(5):
            write_network(net_dir / f"s{k}.csv", sample_network(model, k))
        return net_dir

    def spectra(self, net_dir, out, threads, *extra):
        return main(["spectra", "--networks", str(net_dir), "--threads", str(threads),
                     "--out", str(out), *extra])

    @pytest.mark.parametrize("rescale", [[], ["--rescale"]])
    def test_same_bytes_with_more_workers_than_files(self, nets, tmp_path, rescale):
        one = tmp_path / "one"
        one.mkdir()
        for name in ("nodes.csv", "fitted.json", "s3.csv"):
            (one / name).write_bytes((nets / name).read_bytes())
        for net_dir, thread_counts in ((one, (4,)), (nets, (2, 4))):
            assert self.spectra(net_dir, tmp_path / f"{net_dir.name}1", 1, *rescale) == 0
            serial = tree_digest(tmp_path / f"{net_dir.name}1")
            for threads in thread_counts:
                out = tmp_path / f"{net_dir.name}{threads}"
                assert self.spectra(net_dir, out, threads, *rescale) == 0
                assert tree_digest(out) == serial

    def test_bad_row_in_a_middle_file_keeps_exit_code_and_line(self, nets, tmp_path, capsys):
        (nets / "s2.csv").write_text("source,target,weight\n0,1,1\n2,3,1\n0,12,1\n")
        errors = []
        for threads in (1, 2):
            assert self.spectra(nets, tmp_path / f"o{threads}", threads) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert len(errors[0].strip().splitlines()) == 1
        assert "line 4" in errors[0] and "Traceback" not in errors[0]

    def test_self_loop_names_its_file_and_line(self, nets, tmp_path, capsys):
        (nets / "s2.csv").write_text("source,target,weight\n0,1,1\n2,2,1\n")
        assert self.spectra(nets, tmp_path / "o", 2) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
        assert f"line 3: {nets / 's2.csv'}: self-loop" in err

    def test_eigensolves_run_in_worker_processes(self, nets, tmp_path, monkeypatch):
        pids = tmp_path / "pids"
        eigenvalues = cli.eigenvalues

        def eigenvalues_noting_pid(matrix):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            time.sleep(0.05)  # long enough that one worker cannot take every file
            return eigenvalues(matrix)

        monkeypatch.setattr(cli, "eigenvalues", eigenvalues_noting_pid)
        assert self.spectra(nets, tmp_path / "out", 2) == 0
        seen = pids.read_text().split()
        assert len(seen) == 5
        assert str(os.getpid()) not in seen and len(set(seen)) == 2

    def test_no_worker_process_left_running(self, nets, tmp_path):
        assert self.spectra(nets, tmp_path / "spec", 2, "--rescale") == 0
        assert multiprocessing.active_children() == []
        assert main(["sample", "--model-file", str(nets / "fitted.json"), "--samples", "6",
                     "--seed", "3", "--write-networks", "4", "--threads", "2",
                     "--out", str(tmp_path / "ens")]) == 0
        assert multiprocessing.active_children() == []


class TestValidateWindowIndex:
    @pytest.mark.parametrize("window", ["-1", "-2", "1"])
    def test_index_outside_the_windows_is_a_usage_error(self, pipeline, tmp_path, capsys,
                                                        window):
        rc = main(["validate", "--model-file", str(pipeline / "fit/fitted.json"),
                   "--transactions", str(pipeline / "data/transactions.csv"),
                   "--year", "2005", "--delta-t", "30", "--window", window,
                   "--out", str(tmp_path / "val")])
        assert rc == 1
        assert f"field 'window': index {window} out of range (have 1)" in capsys.readouterr().err
        assert not (tmp_path / "val" / "validation.json").exists()


class TestIntegerConfigFields:
    """A config's integer fields take whole numbers only: no fraction is cut, no bool is 1."""

    def configs(self, root):
        model, tx = str(root / "fit/fitted.json"), str(root / "data/transactions.csv")
        return {
            "synth": {"nodes": 6, "fitness_dist": "constant(1)", "model": "fdcm",
                      "density": 0.3, "seed": 2, "year": 2005, "days": 3},
            "sample": {"model_file": model, "samples": 3, "seed": 1, "write_networks": 2},
            "validate": {"model_file": model, "transactions": tx, "year": 2005,
                         "delta_t": 30, "window": 0},
            "aggregate": {"transactions": tx, "year": 2005, "delta_t": 10},
            "spectra": {"networks": str(root / "ens/samples"), "threads": 1},
        }

    def run(self, pipeline, tmp_path, command, override):
        cfg = self.configs(pipeline)[command]
        cfg.update(override)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        return main([command, "--config", str(path), "--out", str(tmp_path / "o")])

    @pytest.mark.parametrize("command,field", [
        ("synth", "nodes"), ("synth", "days"), ("synth", "seed"), ("synth", "year"),
        ("sample", "samples"), ("sample", "seed"), ("sample", "write_networks"),
        ("validate", "delta_t"), ("validate", "window"), ("validate", "year"),
        ("aggregate", "delta_t"), ("spectra", "threads"),
    ])
    @pytest.mark.parametrize("value", [6.9, 2.7, 0.5, -1.5, True, False, float("inf")])
    def test_non_integral_number_or_bool_is_a_usage_error(self, pipeline, tmp_path, capsys,
                                                          command, field, value):
        assert self.run(pipeline, tmp_path, command, {field: value}) == 1
        err = capsys.readouterr().err
        assert f"field '{field}' has invalid value {value!r}" in err
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_the_example_of_a_truncated_node_count(self, pipeline, tmp_path):
        assert self.run(pipeline, tmp_path, "synth", {"nodes": 6.9, "days": 2.7}) == 1
        assert not (tmp_path / "o" / "fitness.csv").exists()

    @pytest.mark.parametrize("command,field,value", [
        ("synth", "nodes", 6.0), ("sample", "samples", 3.0), ("validate", "window", 0.0)])
    def test_integral_float_is_taken_as_its_integer(self, pipeline, tmp_path, command, field,
                                                    value):
        assert self.run(pipeline, tmp_path, command, {field: value}) == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"][field] == value

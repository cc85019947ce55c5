import json
import hashlib
from pathlib import Path

import numpy as np
import pytest

from reconnet import DirectedNetwork
from reconnet.cli import main, parse_delta_ts
from reconnet.errors import ConfigurationError, ParseError
from reconnet.ingest import FitnessData, write_fitness_csv
from reconnet.serialize import (
    fmt,
    read_model,
    read_network,
    read_nodes,
    write_csv,
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
    ])
    def test_bad_row_is_parse_error_with_line(self, tmp_path, row):
        path = tmp_path / "e.csv"
        path.write_text(f"source,target,weight\n1,2,1\n{row}\n")
        with pytest.raises(ParseError) as err:
            read_network(path, 3)
        assert err.value.line == 3

    def test_spectra_exits_with_data_error(self, tmp_path, capsys):
        net_dir = tmp_path / "nets"
        net_dir.mkdir()
        write_nodes(net_dir / "nodes.csv", ["B0", "B1", "B2"])
        (net_dir / "s.csv").write_text("source,target,weight\n0,5,1\n")
        rc = main(["spectra", "--networks", str(net_dir), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err


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

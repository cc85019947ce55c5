"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. Statistical criteria use ensembles pinned to fixed master seeds;
error bands are 4 standard errors computed from exact per-dyad variances.
"""

import itertools
import json
import hashlib
import math
import time
from pathlib import Path

import numpy as np
from scipy import stats

from oracles import char_poly_roots_4x4, dyad_moment_errors, fgrm_tau, match_sets, pairwise_auc

import reconnet as rn
from reconnet.cli import main as cli_main


def report(num, description, passed, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if passed else 'FAIL'} - {description}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


def random_feasible_targets(rng):
    """(d, r) uniform over the stated boxes, restricted to pairs for which
    the two-parameter system has a positive solution (r d > 2 d - 1, with
    margin for fitness heterogeneity)."""
    while True:
        d = rng.uniform(0.02, 0.6)
        r = rng.uniform(0.05, 0.9)
        if 1.0 - 2.0 * d + d * r > 0.05:
            return d, r


def test_criterion_01_fit_fidelity():
    rng = np.random.default_rng(101)
    sizes = [10, 50, 212]
    worst = 0.0
    slowest = 0.0
    for k in range(50):
        n = sizes[k % 3]
        fitness = rn.FitnessData(rng.lognormal(0, 0.75, n), rng.lognormal(0, 0.75, n))
        d_t, r_t = random_feasible_targets(rng)
        start = time.perf_counter()
        model = rn.fit_fgrm(fitness, d_t, r_t)
        elapsed = time.perf_counter() - start
        d, r = rn.expected_metrics(model)
        worst = max(worst, abs(d - d_t) / d_t, abs(r - r_t) / r_t)
        if n == 212:
            slowest = max(slowest, elapsed)
    report(1, "50 random fits converge with relative residuals <= 1e-8",
           worst <= 1e-8 and slowest < 1.0,
           f"worst residual {worst:.2e}, slowest N=212 fit {slowest * 1e3:.0f} ms")


def test_criterion_02_closed_form_fixtures():
    unit = rn.FitnessData(np.ones(10), np.ones(10))
    m1 = rn.fit_fgrm(unit, 0.5, 0.5)
    m2 = rn.fit_fgrm(unit, 0.5, 0.8)
    err = max(abs(m1.params["u"] - 1.0), abs(m1.params["v"] - 1.0),
              abs(m2.params["u"] - 0.25), abs(m2.params["v"] - 4.0))
    report(2, "unit-fitness fits hit (1,1) and (0.25,4) within 1e-6",
           err < 1e-6, f"max component error {err:.2e}")


def test_criterion_03_fdcm_reduction():
    rng = np.random.default_rng(103)
    fitness = rn.FitnessData(rng.lognormal(0, 1, 60), rng.lognormal(0, 1, 60))
    base = rn.fit_fdcm(fitness, 0.15)
    _, r_fdcm = rn.expected_metrics(base)
    model = rn.fit_fgrm(fitness, 0.15, r_fdcm)
    v_err = abs(model.params["v"] - 1.0)
    pa = rn.dyad_probability_arrays(model)
    pb = rn.dyad_probability_arrays(base)
    dev = max(np.max(np.abs(pa.link - pb.link)), np.max(np.abs(pa.both - pb.both)),
              np.max(np.abs(pa.only - pb.only)))
    report(3, "fit at the density-implied reciprocity collapses onto the 1-parameter model",
           v_err < 1e-4 and dev < 1e-6, f"|v-1|={v_err:.2e}, max dyad dev {dev:.2e}")


def test_criterion_04_enumeration_oracle():
    rng = np.random.default_rng(104)
    worst = 0.0
    fitness = rn.FitnessData(rng.lognormal(0, 1, 3), rng.lognormal(0, 1, 3))
    models = [
        rn.FittedModel(rn.ModelKind.FGRM, {"u": 0.7, "v": 2.2}, fitness=fitness),
        rn.FittedModel(rn.ModelKind.FDCM, {"z": 1.3}, fitness=fitness),
        rn.FittedModel(rn.ModelKind.RCM, {"x": rng.lognormal(0, 1, 3),
                                          "y": rng.lognormal(0, 1, 3),
                                          "z": rng.lognormal(0, 1, 3)}),
        rn.FittedModel(rn.ModelKind.GRM, {"x": rng.lognormal(0, 1, 3),
                                          "y": rng.lognormal(0, 1, 3),
                                          "z": 1.7}),
    ]
    pairs = [(0, 1), (0, 2), (1, 2)]
    for model in models:
        arrs = rn.dyad_probability_arrays(model)
        e_links = e_recip = 0.0
        for states in itertools.product(range(4), repeat=3):
            prob = 1.0
            links = recip = 0
            for (i, j), s in zip(pairs, states):
                prob *= (arrs.none[i, j], arrs.only[i, j], arrs.only[j, i],
                         arrs.both[i, j])[s]
                links += (0, 1, 1, 2)[s]
                recip += (0, 0, 0, 2)[s]
            e_links += prob * links
            e_recip += prob * recip
        d, r = rn.expected_metrics(model)
        worst = max(worst, abs(d * 6 - e_links), abs(r * d * 6 - e_recip))
    report(4, "expected L and L_recip match 64-digraph enumeration to 1e-12",
           worst <= 1e-12, f"worst deviation {worst:.2e}")


def test_criterion_05_ensemble_moments():
    rng = np.random.default_rng(105)
    n, m = 50, 1000
    d_t, r_t = 0.2, 0.45
    fitness = rn.FitnessData(rng.lognormal(0, 0.8, n), rng.lognormal(0, 0.8, n))
    model = rn.fit_fgrm(fitness, d_t, r_t)
    start = time.perf_counter()
    summary = rn.generate_ensemble(model, rn.EnsembleConfig(m, 1005),
                                   compute_lambda=False)
    elapsed = time.perf_counter() - start
    arrs = rn.dyad_probability_arrays(model)
    se_d, se_r = dyad_moment_errors(arrs, d_t, r_t, m)
    links = summary.densities * n * (n - 1)
    recips = summary.reciprocities * links
    r_hat = recips.sum() / links.sum()
    d_dev = abs(summary.mean_density - d_t)
    r_dev = abs(r_hat - r_t)
    report(5, "1000-sample moments match targets within 4 exact standard errors",
           d_dev < 4 * se_d and r_dev < 4 * se_r and elapsed < 10.0,
           f"d dev {d_dev:.2e} vs {4 * se_d:.2e}, r dev {r_dev:.2e} vs "
           f"{4 * se_r:.2e}, {elapsed:.1f}s")


def test_criterion_06_tau_laws():
    rng = np.random.default_rng(106)
    fitness = rn.FitnessData(rng.lognormal(0, 1, 40), rng.lognormal(0, 1, 40))
    fdcm = rn.FittedModel(rn.ModelKind.FDCM, {"z": 0.4}, fitness=fitness)
    tau_f = rn.tau_matrix(fdcm)
    zero_ok = bool((tau_f.values[tau_f.defined] == 0.0).all())

    sign_ok = True
    for v in (0.3, 0.9, 1.5, 4.0):
        model = rn.FittedModel(rn.ModelKind.FGRM, {"u": 0.6, "v": v}, fitness=fitness)
        tau = rn.tau_matrix(model)
        vals = tau.values[tau.defined]
        sign_ok &= bool((np.sign(vals) == np.sign(v * v - 1.0)).all()) if v != 1.0 \
            else bool(np.max(np.abs(vals)) < 1e-14)

    worst = 0.0
    for _ in range(10_000):
        u = rng.lognormal(-1, 1)
        v = rng.lognormal(0, 0.7)
        a_i, l_i, a_j, l_j = rng.lognormal(0, 1, 4)
        pair_fit = rn.FitnessData(np.array([a_i, a_j]), np.array([l_i, l_j]))
        model = rn.FittedModel(rn.ModelKind.FGRM, {"u": u, "v": v}, fitness=pair_fit)
        direct = rn.tau_matrix(model).values[0, 1]
        closed = fgrm_tau(u, v, a_i, l_i, a_j, l_j)
        worst = max(worst, abs(direct - closed))

    unit = rn.FitnessData(np.ones(4), np.ones(4))
    model = rn.FittedModel(rn.ModelKind.FGRM, {"u": 1.0, "v": math.sqrt(2.0)},
                           fitness=unit)
    tau = rn.tau_matrix(model)
    sixth = float(np.max(np.abs(tau.values[tau.defined] - 1.0 / 6.0)))
    report(6, "tau laws: zero for 1-parameter model, sign(v^2-1), closed form, 1/6 fixture",
           zero_ok and sign_ok and worst <= 1e-12 and sixth <= 1e-12,
           f"closed-form dev {worst:.2e}, fixture dev {sixth:.2e}")


def _bulk_ratio(model, master, n_samples=100):
    tau = rn.tau_matrix(model)
    spectra = []
    for k in range(n_samples):
        net = rn.sample_network(model, rn.derive_subseed(master, k))
        spectra.append(rn.eigenvalues(rn.rescale_matrix(net, model)))
    return rn.bulk_shape(spectra, mean_tau=tau.mean_tau).axis_ratio


def test_criterion_07_spectral_shape():
    start = time.perf_counter()
    n, d = 200, 0.2
    unit = rn.FitnessData(np.ones(n), np.ones(n))
    fdcm = rn.fit_fdcm(unit, d)
    _, r0 = rn.expected_metrics(fdcm)
    ratio_circ = _bulk_ratio(fdcm, 207)
    ratio_hi = _bulk_ratio(rn.fit_fgrm(unit, d, 2 * r0), 208)
    ratio_lo = _bulk_ratio(rn.fit_fgrm(unit, d, 0.5 * r0), 209)
    elapsed = time.perf_counter() - start
    report(7, "rescaled bulks: circular at tau=0, squashed/stretched with reciprocity",
           0.9 <= ratio_circ <= 1.1 and ratio_hi < 0.95 and ratio_lo > 1.05
           and elapsed < 300.0,
           f"ratios {ratio_circ:.3f}, {ratio_hi:.3f}, {ratio_lo:.3f}, {elapsed:.0f}s")


def test_criterion_08_zscore_self_consistency():
    # Band sub-criterion: the reconstruction loop exactly as practiced --
    # refit to the pseudo-empirical network's realized (d, r) with the
    # generating fitness, score its leading eigenvalue against the
    # reconstructed ensemble.
    master = 0
    n_trials, m_ens = 100, 300
    in_band = 0
    for t in range(n_trials):
        sub = rn.derive_subseed(master, 500_000 + t)
        fitness = rn.synth_fitness(50, "lognormal(0,1)", rn.derive_subseed(sub, 1))
        truth = rn.fit_fgrm(fitness, 0.15, 0.30)
        emp = rn.sample_network(truth, rn.derive_subseed(sub, 2))
        model = rn.fit_fgrm(fitness, rn.density(emp), rn.reciprocity(emp))
        ens = rn.generate_ensemble(model, rn.EnsembleConfig(m_ens, rn.derive_subseed(sub, 3)))
        z = rn.z_score(rn.leading_eigenvalue(emp), ens.lambda_max)
        in_band += abs(z) < 4.0

    # KS sub-criterion: z-scores are exactly standardized draws only when
    # the ensemble law equals the sampling law, i.e. when the reconstruction
    # targets are the generating (d, r); the refit-to-realized loop above is
    # conditionally centered and provably under-dispersed (see ledger).
    zs = []
    for t in range(n_trials):
        sub = rn.derive_subseed(master, t)
        fitness = rn.synth_fitness(60, "lognormal(0,1)", rn.derive_subseed(sub, 1))
        truth = rn.fit_fgrm(fitness, 0.12, 0.30)
        emp = rn.sample_network(truth, rn.derive_subseed(sub, 2))
        model = rn.fit_fgrm(fitness, 0.12, 0.30)
        ens = rn.generate_ensemble(model, rn.EnsembleConfig(m_ens, rn.derive_subseed(sub, 3)))
        zs.append(rn.z_score(rn.leading_eigenvalue(emp), ens.lambda_max))
    ks_p = stats.kstest(np.array(zs), "norm").pvalue
    report(8, "reconstruction z-scores: >= 95/100 inside the +-4 band, KS-normal at 1%",
           in_band >= 95 and ks_p >= 0.01,
           f"in band {in_band}/100, KS p={ks_p:.3f}")


def test_criterion_09_eigen_oracle():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(500):
        a = rng.uniform(-1, 1, (4, 4))
        worst = max(worst, match_sets(rn.eigenvalues(a).values,
                                      char_poly_roots_4x4(a)))
    trace_ok = True
    for _ in range(100):
        n = int(rng.integers(10, 201))
        adj = (rng.random((n, n)) < rng.uniform(0.05, 0.5)).astype(int)
        np.fill_diagonal(adj, 0)
        vals = rn.eigenvalues(adj.astype(float)).values
        recip_links = (adj * adj.T).sum()
        trace_ok &= abs(vals.sum()) < 1e-6 * n
        trace_ok &= abs((vals**2).sum() - recip_links) < 1e-6 * n
    report(9, "eigenvalues match char-poly roots to 1e-8; trace identities to 1e-6 N",
           worst < 1e-8 and trace_ok, f"worst root deviation {worst:.2e}")


def test_criterion_10_validation_metrics():
    rng = np.random.default_rng(110)
    worst_auc = 0.0
    rank_exact = True
    for _ in range(100):
        n = int(rng.integers(4, 21))
        scores = rng.integers(0, 8, n) / 7.0
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        pairwise = pairwise_auc(scores, labels)
        worst_auc = max(worst_auc, abs(rn.roc_auc(scores, labels).auc - pairwise))
        rank_exact &= rn.mann_whitney_auc(scores, labels) == pairwise

    unit = rn.FitnessData(np.ones(8), np.ones(8))
    uniform = rn.FittedModel(rn.ModelKind.FGRM, {"u": 1.0, "v": 1.0}, fitness=unit)
    net = rn.sample_network(uniform, 7)
    ce_dev = abs(rn.cross_entropy(uniform, net) - math.log(4.0))

    fitness = rn.FitnessData(rng.lognormal(0, 0.5, 40), rng.lognormal(0, 0.5, 40))
    truth = rn.FittedModel(rn.ModelKind.FGRM, {"u": 0.05, "v": 4.0}, fitness=fitness)
    d_truth, _ = rn.expected_metrics(truth)
    rival = rn.fit_fdcm(fitness, d_truth)
    gaps = []
    for k in range(100):
        sample = rn.sample_network(truth, rn.derive_subseed(1010, k))
        gaps.append(rn.cross_entropy(rival, sample) - rn.cross_entropy(truth, sample))
    mean_gap = float(np.mean(gaps))
    report(10, "AUC == pairwise statistic to 1e-12 (rank statistic exactly); ln4 uniform "
           "loss; truth beats rival",
           worst_auc <= 1e-12 and rank_exact and ce_dev <= 1e-12 and mean_gap > 0,
           f"AUC dev {worst_auc:.2e}, ln4 dev {ce_dev:.2e}, CE gap {mean_gap:.4f}")


def test_criterion_11_scan_behavior():
    n, n_days = 40, 120
    delta_ts = [1, 5, 20, 60, 120]
    n_streams = 10

    unit = rn.FitnessData(np.full(n, 1.0), np.full(n, 1.0))
    null_truth = rn.fit_fdcm(unit, 0.02)
    null_rows = {dt: [] for dt in delta_ts}
    for s in range(n_streams):
        records = rn.synth_transactions(null_truth, 2001, n_days,
                                        seed=rn.derive_subseed(1111, s))
        result = rn.scan_aggregations(records, 2001, delta_ts, fitness=unit)
        for row in result.rows:
            if not row.missing:
                null_rows[row.delta_t].append(row.mean_rho)
    null_ok = True
    worst_sigma = 0.0
    for dt in delta_ts:
        vals = np.array(null_rows[dt])
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        worst_sigma = max(worst_sigma, abs(vals.mean()) / se)
        null_ok &= abs(vals.mean()) < 4 * se

    hetero = rn.synth_fitness(n, "lognormal(0,0.25)", 42)
    pos_truth = rn.FittedModel(rn.ModelKind.FGRM, {"u": 0.005, "v": 4.0},
                               fitness=hetero)
    pos_rows = {dt: [] for dt in delta_ts}
    for s in range(n_streams):
        records = rn.synth_transactions(pos_truth, 2001, n_days,
                                        seed=rn.derive_subseed(2222, s))
        result = rn.scan_aggregations(records, 2001, delta_ts, fitness=hetero)
        for row in result.rows:
            if not row.missing:
                pos_rows[row.delta_t].append(row.mean_rho)
    pos_ok = all(np.mean(pos_rows[dt]) > 0 for dt in delta_ts)

    _, _, _, _, t_0 = rn.extract_rho_landmarks(
        [1, 5, 10, 20, 40, 80], [-0.02, 0.01, -0.03, -0.01, 0.02, 0.05])
    crossing_ok = t_0 == 20
    report(11, "scan: null within 4 SE everywhere, v=4 truth positive everywhere, max crossing",
           null_ok and pos_ok and crossing_ok,
           f"null worst {worst_sigma:.2f} sigma")


def _tree_digest(root):
    out = {}
    for p in sorted(Path(root).rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def _manifest_core(path):
    data = json.loads(Path(path).read_text())
    data.pop("timings")
    data["config"].pop("out", None)
    data["config"].pop("threads", None)
    for key in ("in", "transactions", "fitness", "model_file", "networks"):
        data["config"].pop(key, None)
    return data


def test_criterion_12_cli_reproducibility(tmp_path):
    def run_chain(root, threads):
        root.mkdir(exist_ok=True)
        t = ["--threads", str(threads)]
        assert cli_main(["synth", "--nodes", "25", "--fitness-dist", "lognormal(0,0.5)",
                         "--model", "fgrm", "--density", "0.03", "--reciprocity", "0.3",
                         "--days", "40", "--year", "2002", "--seed", "77",
                         "--out", str(root / "data")] + t) == 0
        assert cli_main(["aggregate", "--transactions", str(root / "data/transactions.csv"),
                         "--year", "2002", "--delta-t", "10",
                         "--out", str(root / "agg")] + t) == 0
        assert cli_main(["fit", "--fitness", str(root / "data/fitness.csv"),
                         "--model", "fgrm", "--density", "0.2", "--reciprocity", "0.4",
                         "--out", str(root / "fit")] + t) == 0
        assert cli_main(["sample", "--model-file", str(root / "fit/fitted.json"),
                         "--samples", "30", "--seed", "5", "--write-networks", "10",
                         "--out", str(root / "ens")] + t) == 0
        assert cli_main(["spectra", "--networks", str(root / "ens/samples"),
                         "--rescale", "--model-file", str(root / "fit/fitted.json"),
                         "--out", str(root / "spec")] + t) == 0
        assert cli_main(["scan", "--transactions", str(root / "data/transactions.csv"),
                         "--year", "2002", "--delta-t", "1:40:13",
                         "--out", str(root / "scan")] + t) == 0
        assert cli_main(["validate", "--model-file", str(root / "fit/fitted.json"),
                         "--transactions", str(root / "data/transactions.csv"),
                         "--year", "2002", "--delta-t", "40", "--window", "0",
                         "--out", str(root / "val")] + t) == 0
        assert cli_main(["report", "--in", str(root / "scan"),
                         "--out", str(root / "rep")] + t) == 0

    run_chain(tmp_path / "a", threads=1)
    run_chain(tmp_path / "b", threads=4)
    same_bytes = _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")
    manifests_ok = all(
        _manifest_core(pa) == _manifest_core(pb)
        for pa, pb in zip(sorted((tmp_path / "a").rglob("manifest.json")),
                          sorted((tmp_path / "b").rglob("manifest.json")))
    )
    report(12, "full CLI chain byte-reproduces all CSV/JSON artifacts across thread counts",
           same_bytes and manifests_ok)

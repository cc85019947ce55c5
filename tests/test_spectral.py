import numpy as np
import pytest
from oracles import char_poly_roots_4x4, fgrm_tau, match_sets, spectrum_order_by_blocks

from reconnet import (
    DirectedNetwork,
    FitnessData,
    FittedModel,
    ModelKind,
    bulk_shape,
    derive_subseed,
    dyad_probability_arrays,
    eigenvalues,
    fit_fdcm,
    fit_fgrm,
    leading_eigenvalue,
    rescale_matrix,
    sample_network,
    spectral_radius,
    tau_matrix,
)
from reconnet.errors import (
    DegenerateEnsembleError,
    DomainError,
    InsufficientDataError,
    NumericalError,
)
from reconnet.serialize import write_model, write_network, write_nodes


class TestEigenvalues:
    def test_identity(self):
        spec = eigenvalues(np.eye(3))
        np.testing.assert_allclose(spec.values, [1, 1, 1])

    def test_three_cycle_roots_of_unity(self):
        a = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        spec = eigenvalues(a)
        expected = np.exp(2j * np.pi * np.arange(3) / 3)
        assert match_sets(spec.values, expected) < 1e-10
        # modulus tie broken by real part: the real root leads
        assert spec.leading == pytest.approx(1.0)

    def test_against_characteristic_polynomial(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            a = rng.uniform(-1, 1, (4, 4))
            spec = eigenvalues(a)
            oracle = char_poly_roots_4x4(a)
            assert match_sets(spec.values, oracle) < 1e-8

    def test_sorted_by_modulus_then_real(self):
        spec = eigenvalues(np.diag([1.0, -3.0, 2.0, 3.0]))
        assert list(spec.values.real) == [3.0, -3.0, 2.0, 1.0]

    def test_ties_ordered_like_the_block_walk(self):
        rng = np.random.default_rng(8)
        matrices = [np.zeros((0, 0)), np.zeros((1, 1)), np.eye(5), np.ones((6, 6)) - np.eye(6)]
        matrices += [np.roll(np.eye(k), 1, axis=1) for k in (2, 3, 4, 7, 12)]
        for n in (2, 5, 20, 60, 150):
            for density in (0.05, 0.3):
                a = (rng.random((n, n)) < density).astype(float)
                np.fill_diagonal(a, 0.0)
                matrices += [a, np.maximum(a, a.T)]
        for a in matrices:
            got = eigenvalues(a).values
            want = spectrum_order_by_blocks(a)
            assert got.shape == want.shape and (got == want).all(), a.shape

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericalError):
            eigenvalues(np.array([[np.inf, 0], [0, 1.0]]))


class TestLeadingEigenvalue:
    def test_complete_digraph(self):
        net = DirectedNetwork(np.ones((3, 3)) - np.eye(3))
        assert leading_eigenvalue(net) == pytest.approx(2.0, abs=1e-10)

    def test_single_reciprocated_dyad(self):
        net = DirectedNetwork.from_links(5, [(1, 3), (3, 1)])
        assert leading_eigenvalue(net) == pytest.approx(1.0, abs=1e-10)

    def test_empty(self):
        assert leading_eigenvalue(DirectedNetwork(np.zeros((4, 4)))) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_row_sum_bounds(self, seed):
        rng = np.random.default_rng(40 + seed)
        a = (rng.random((25, 25)) < 0.3).astype(int)
        np.fill_diagonal(a, 0)
        lam = leading_eigenvalue(DirectedNetwork(a))
        sums = a.sum(axis=1)
        assert sums.min() - 1e-8 <= lam <= sums.max() + 1e-8


def dense_radius(a):
    """The dgeev oracle: leading eigenvalue of the full spectrum."""
    return eigenvalues(np.asarray(a, dtype=float)).leading.real


def assert_matches_dgeev(a, fell_back=False):
    lam, flag = spectral_radius(a)
    ref = dense_radius(a)
    assert abs(lam - ref) <= 1e-10 * ref
    assert flag is fell_back
    return lam


def random_digraph(rng, n, p):
    a = (rng.random((n, n)) < p).astype(np.int8)
    np.fill_diagonal(a, 0)
    return a


def cycle(k):
    return np.roll(np.eye(k, dtype=np.int8), 1, axis=1)


class TestSpectralRadius:
    @pytest.mark.parametrize("n", [10, 25, 60, 120, 200])
    def test_random_graphs_match_dgeev(self, n):
        rng = np.random.default_rng(300 + n)
        for p in (0.05, 0.2, 0.5):
            a = random_digraph(rng, n, p)
            lam, _ = spectral_radius(a)
            ref = dense_radius(a)
            assert abs(lam - ref) <= 1e-10 * ref

    def test_weighted_matrix_matches_dgeev(self):
        rng = np.random.default_rng(5)
        a = random_digraph(rng, 80, 0.3) * rng.lognormal(0, 1, (80, 80))
        assert_matches_dgeev(a)

    def test_sinks_and_sources_are_peeled(self):
        # a strongly connected core plus a source feeding it, a sink fed by
        # it and a path leaving it: without peeling, the sink's ratio stays
        # at 1 and the bracket never closes
        rng = np.random.default_rng(6)
        a = np.zeros((40, 40), dtype=np.int8)
        a[:30, :30] = random_digraph(rng, 30, 0.3)
        a[30, :5] = 1      # source -> core
        a[:5, 31] = 1      # core -> sink
        a[32, 33] = a[33, 34] = 1  # a path off the core
        a[10, 32] = 1
        assert_matches_dgeev(a)

    @pytest.mark.parametrize("k", [2, 3, 5, 17, 50])
    def test_directed_cycles(self, k):
        # periodic: A has k eigenvalues of modulus 1, A + I only one
        assert assert_matches_dgeev(cycle(k)) == 1.0

    def test_periodic_irregular_graphs(self):
        # reciprocated bipartite graphs have -rho next to rho, and x = 1 is
        # not their Perron vector, so only the shift makes the iteration settle
        star = np.zeros((6, 6), dtype=np.int8)
        star[0, 1:] = star[1:, 0] = 1
        assert assert_matches_dgeev(star) == pytest.approx(np.sqrt(5.0), rel=1e-12)
        rng = np.random.default_rng(9)
        half = (rng.random((15, 25)) < 0.3).astype(np.int8)
        bipartite = np.zeros((40, 40), dtype=np.int8)
        bipartite[:15, 15:] = half
        bipartite[15:, :15] = half.T
        assert_matches_dgeev(bipartite)

    def test_smaller_component_reachable_from_larger_falls_back(self):
        # a 3-cycle (radius 1) only reachable from a complete digraph on 4
        # nodes (radius 3): the Perron vector vanishes on the 3-cycle
        a = np.zeros((7, 7), dtype=np.int8)
        a[:4, :4] = 1 - np.eye(4, dtype=np.int8)
        a[4:, 4:] = cycle(3)
        a[0, 4] = 1
        assert assert_matches_dgeev(a, fell_back=True) == pytest.approx(3.0, rel=1e-12)

    def test_larger_component_reachable_from_smaller_converges(self):
        a = np.zeros((7, 7), dtype=np.int8)
        a[:4, :4] = 1 - np.eye(4, dtype=np.int8)
        a[4:, 4:] = cycle(3)
        a[4, 0] = 1
        assert assert_matches_dgeev(a) == pytest.approx(3.0, rel=1e-12)

    def test_acyclic_and_empty_graphs_have_radius_zero(self):
        dag = np.triu(np.ones((6, 6), dtype=np.int8), k=1)
        assert spectral_radius(dag) == (0.0, False)
        assert spectral_radius(np.zeros((4, 4))) == (0.0, False)
        assert spectral_radius(np.zeros((0, 0))) == (0.0, False)

    def test_single_reciprocated_dyad(self):
        a = DirectedNetwork.from_links(5, [(1, 3), (3, 1)]).adjacency
        assert assert_matches_dgeev(a) == 1.0

    def test_rejects_matrices_outside_its_domain(self):
        with pytest.raises(DomainError):
            spectral_radius(np.ones((2, 3)))
        with pytest.raises(DomainError):
            spectral_radius(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        with pytest.raises(NumericalError):
            spectral_radius(np.array([[0.0, np.nan], [1.0, 0.0]]))


class TestSpectralIdentities:
    @pytest.mark.parametrize("n", [10, 60, 200])
    def test_trace_identities(self, n):
        rng = np.random.default_rng(n)
        a = (rng.random((n, n)) < 0.2).astype(int)
        np.fill_diagonal(a, 0)
        vals = eigenvalues(a.astype(float)).values
        assert abs(vals.sum()) < 1e-6 * n  # trace of adjacency is 0
        recip_links = (a * a.T).sum()
        assert abs((vals**2).sum() - recip_links) < 1e-6 * n

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(77)
        a = rng.standard_normal((30, 30))
        vals = eigenvalues(a).values
        assert match_sets(vals, np.conj(vals)) < 1e-8


class TestRescale:
    def test_homogeneous_half(self):
        n = 4
        fitness = FitnessData(np.ones(n), np.ones(n))
        model = FittedModel(ModelKind.FDCM, {"z": 1.0}, fitness=fitness)
        net = sample_network(model, 3)
        j = rescale_matrix(net, model)
        a = net.adjacency.astype(float)
        off = ~np.eye(n, dtype=bool)
        np.testing.assert_allclose(j[off], (2 * a[off] - 1) / np.sqrt(n))

    def test_precomputed_link_matrix_gives_the_same_bits(self):
        rng = np.random.default_rng(5)
        fitness = FitnessData(rng.lognormal(0, 1, 30), rng.lognormal(0, 1, 30))
        model = fit_fgrm(fitness, 0.2, 0.35)
        link = dyad_probability_arrays(model).link
        for seed in range(3):
            net = sample_network(model, seed)
            assert rescale_matrix(net, model, link).tobytes() == \
                rescale_matrix(net, model).tobytes()

    def test_spectra_computes_link_probabilities_once(self, tmp_path, monkeypatch):
        from reconnet import cli, models, spectral
        from reconnet.cli import main

        fitness = FitnessData(np.ones(6), np.ones(6))
        model = FittedModel(ModelKind.FDCM, {"z": 0.5}, fitness=fitness)
        net_dir = tmp_path / "nets"
        net_dir.mkdir()
        write_nodes(net_dir / "nodes.csv", [f"B{k}" for k in range(6)])
        write_model(net_dir / "fitted.json", model)
        for k in range(5):
            write_network(net_dir / f"s{k}.csv", sample_network(model, k))
        calls = []

        def counted(m):
            calls.append(m)
            return models.dyad_probability_arrays(m)

        monkeypatch.setattr(cli, "dyad_probability_arrays", counted)
        monkeypatch.setattr(spectral, "dyad_probability_arrays", counted)
        assert main(["spectra", "--networks", str(net_dir), "--rescale", "--threads", "1",
                     "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 2  # the link matrix once, and once for tau

    def test_masked_entries_zero(self):
        fitness = FitnessData(np.array([1.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0]))
        model = FittedModel(ModelKind.FDCM, {"z": 1.0}, fitness=fitness)
        net = DirectedNetwork(np.zeros((3, 3)))
        j = rescale_matrix(net, model)
        assert j[0, 2] == j[2, 0] == j[1, 2] == 0.0

    def test_all_masked_is_degenerate(self):
        fitness = FitnessData(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        # only pair (0,1) in one direction has positive product; kill it too
        fitness = FitnessData(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        model = FittedModel(ModelKind.FDCM, {"z": 1.0}, fitness=fitness)
        with pytest.raises(DegenerateEnsembleError):
            rescale_matrix(DirectedNetwork(np.zeros((2, 2))), model)

    def test_standardization_moments(self):
        n = 200
        rng = np.random.default_rng(12)
        fitness = FitnessData(rng.lognormal(0, 0.5, n), rng.lognormal(0, 0.5, n))
        model = fit_fdcm(fitness, 0.2)
        net = sample_network(model, 99)
        j = rescale_matrix(net, model)
        off = ~np.eye(n, dtype=bool)
        entries = j[off] * np.sqrt(n)
        # each standardized entry has mean 0, variance 1 by construction
        assert abs(entries.mean()) < 4 / np.sqrt(entries.size)
        assert abs((entries**2).mean() - 1.0) < 0.1


class TestTau:
    def test_fdcm_tau_identically_zero(self):
        rng = np.random.default_rng(13)
        fitness = FitnessData(rng.lognormal(0, 1, 20), rng.lognormal(0, 1, 20))
        model = FittedModel(ModelKind.FDCM, {"z": 0.35}, fitness=fitness)
        tau = tau_matrix(model)
        assert (tau.values[tau.defined] == 0.0).all()

    def test_fgrm_v1_tau_zero(self):
        rng = np.random.default_rng(14)
        fitness = FitnessData(rng.lognormal(0, 1, 10), rng.lognormal(0, 1, 10))
        model = FittedModel(ModelKind.FGRM, {"u": 0.8, "v": 1.0}, fitness=fitness)
        tau = tau_matrix(model)
        assert np.max(np.abs(tau.values[tau.defined])) < 1e-14

    def test_unit_fitness_v2_two_gives_one_sixth(self):
        fitness = FitnessData(np.ones(5), np.ones(5))
        model = FittedModel(ModelKind.FGRM, {"u": 1.0, "v": np.sqrt(2.0)},
                            fitness=fitness)
        tau = tau_matrix(model)
        np.testing.assert_allclose(tau.values[tau.defined], 1 / 6, atol=1e-12)
        assert fgrm_tau(1.0, np.sqrt(2.0), 1, 1, 1, 1) == pytest.approx(1 / 6, abs=1e-12)

    def test_sign_law(self):
        rng = np.random.default_rng(15)
        fitness = FitnessData(rng.lognormal(0, 1, 15), rng.lognormal(0, 1, 15))
        for v, sign in ((0.4, -1.0), (1.7, 1.0)):
            model = FittedModel(ModelKind.FGRM, {"u": 0.5, "v": v}, fitness=fitness)
            tau = tau_matrix(model)
            vals = tau.values[tau.defined]
            assert (np.sign(vals) == sign).all()

    def test_direct_matches_closed_form(self):
        rng = np.random.default_rng(16)
        for _ in range(2000):
            u = rng.lognormal(-1, 1)
            v = rng.lognormal(0, 0.7)
            a_i, l_i, a_j, l_j = rng.lognormal(0, 1, 4)
            fitness = FitnessData(np.array([a_i, a_j]), np.array([l_i, l_j]))
            model = FittedModel(ModelKind.FGRM, {"u": u, "v": v}, fitness=fitness)
            tau = tau_matrix(model)
            direct = tau.values[0, 1]
            closed = fgrm_tau(u, v, a_i, l_i, a_j, l_j)
            assert direct == pytest.approx(closed, abs=1e-12)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(18)
        fitness = FitnessData(rng.lognormal(0, 1, 12), rng.lognormal(0, 1, 12))
        model = FittedModel(ModelKind.FGRM, {"u": 0.9, "v": 2.5}, fitness=fitness)
        tau = tau_matrix(model)
        vals = np.nan_to_num(tau.values)
        np.testing.assert_array_equal(vals, vals.T)
        assert (np.abs(tau.values[tau.defined]) <= 1.0).all()


class TestBulkShape:
    def test_insufficient_data(self):
        spec = eigenvalues(np.eye(3))
        with pytest.raises(InsufficientDataError):
            bulk_shape([spec])

    def test_fdcm_bulk_is_circular(self):
        n = 120
        fitness = FitnessData(np.ones(n), np.ones(n))
        model = fit_fdcm(fitness, 0.2)
        spectra = []
        for k in range(20):
            net = sample_network(model, derive_subseed(5, k))
            spectra.append(eigenvalues(rescale_matrix(net, model)))
        shape = bulk_shape(spectra, mean_tau=0.0)
        assert 0.9 <= shape.axis_ratio <= 1.1
        assert shape.pooled_count == 20 * (n - 1)

    def test_elliptic_directionality(self):
        n = 150
        fitness = FitnessData(np.ones(n), np.ones(n))
        pos = fit_fgrm(fitness, 0.2, 0.4)   # tau = +0.25
        neg = fit_fgrm(fitness, 0.2, 0.1)   # tau = -0.125
        ratios = {}
        for name, model in (("pos", pos), ("neg", neg)):
            spectra = []
            for k in range(20):
                net = sample_network(model, derive_subseed(6, k))
                spectra.append(eigenvalues(rescale_matrix(net, model)))
            ratios[name] = bulk_shape(spectra).axis_ratio
        assert ratios["pos"] < 0.95
        assert ratios["neg"] > 1.05

    def test_homogeneous_ellipse_support(self):
        n = 300
        fitness = FitnessData(np.ones(n), np.ones(n))
        model = fit_fgrm(fitness, 0.2, 0.4)
        tau = tau_matrix(model).mean_tau
        net = sample_network(model, 8)
        vals = eigenvalues(rescale_matrix(net, model)).bulk()
        eps = 0.1
        inside = ((vals.real / ((1 + tau) * (1 + eps))) ** 2
                  + (vals.imag / ((1 - tau) * (1 + eps))) ** 2) <= 1.0
        assert inside.mean() >= 0.99

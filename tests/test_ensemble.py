import itertools

import numpy as np
import pytest

from reconnet import (
    EnsembleConfig,
    FitnessData,
    FittedModel,
    ModelKind,
    derive_subseed,
    dyad_probability_arrays,
    eigenvalues,
    expected_metrics,
    fit_fgrm,
    generate_ensemble,
    sample_network,
    sample_networks,
    spectral_radius,
    z_score,
)
from reconnet.ensemble import _DyadSampler
from reconnet.errors import DegenerateEnsembleError, DomainError

UNIT = FitnessData(np.ones(6), np.ones(6))


def fgrm(u, v, fitness=UNIT):
    return FittedModel(ModelKind.FGRM, {"u": u, "v": v}, fitness=fitness)


class TestSubSeeds:
    def test_published_finalizer_values(self):
        # splitmix64(0) first output; locks the documented derivation scheme
        assert derive_subseed(0, 0) == 0
        assert derive_subseed(0, 1) == 16294208416658607535
        assert derive_subseed(12345, 7) == 10626447662073903133

    def test_streams_distinct(self):
        seeds = {derive_subseed(99, k) for k in range(10_000)}
        assert len(seeds) == 10_000


class TestSampleNetwork:
    def test_certain_reciprocation(self):
        model = FittedModel(ModelKind.RCM, {
            "x": np.full(4, 1e-12), "y": np.full(4, 1e-12), "z": np.full(4, 1e15)})
        for seed in range(20):
            a = sample_network(model, seed).adjacency
            assert (a == (1 - np.eye(4))).all()

    def test_impossible_links_never_appear(self):
        # positive fitness only on one side of each node: all dyads have p = 0
        fitness = FitnessData(np.array([1.0, 0, 0, 0]), np.array([1.0, 0, 0, 0]))
        model = fgrm(1.0, 2.0, fitness)
        for seed in range(20):
            assert sample_network(model, seed).adjacency.sum() == 0

    def test_deterministic_in_seed(self):
        model = fgrm(0.3, 2.0)
        a1 = sample_network(model, 42).adjacency
        a2 = sample_network(model, 42).adjacency
        a3 = sample_network(model, 43).adjacency
        assert (a1 == a2).all()
        assert (a1 != a3).any()

    def test_zero_diagonal(self):
        a = sample_network(fgrm(5.0, 3.0), 7).adjacency
        assert not np.diagonal(a).any()


class TestGenerateEnsemble:
    def test_single_sample_summary(self):
        model = fgrm(1.0, 1.0)
        summary = generate_ensemble(model, EnsembleConfig(1, 5))
        net = sample_network(model, derive_subseed(5, 0))
        a = net.adjacency
        assert summary.densities[0] == a.sum() / 30
        assert summary.mean_density == summary.densities[0]

    def test_sample_k_depends_only_on_its_subseed(self):
        model = fgrm(0.5, 2.0)
        full = generate_ensemble(model, EnsembleConfig(40, 11))
        nets = list(sample_networks(model, [derive_subseed(11, k) for k in range(40)]))
        np.testing.assert_array_equal(full.densities, [net.adjacency.sum() / 30 for net in nets])
        # a shorter ensemble is a prefix of a longer one
        for m in (1, 5):
            head = generate_ensemble(model, EnsembleConfig(m, 11))
            for name in ("densities", "reciprocities", "lambda_max"):
                np.testing.assert_array_equal(getattr(head, name), getattr(full, name)[:m])

    def test_density_matches_binomial_error_bar(self):
        n = 50
        model = FittedModel(ModelKind.FDCM, {"z": 1.0},
                            fitness=FitnessData(np.ones(n), np.ones(n)))
        m = 1000
        summary = generate_ensemble(model, EnsembleConfig(m, 2), compute_lambda=False)
        se = np.sqrt(0.25 / (n * (n - 1) * m))
        assert abs(summary.mean_density - 0.5) < 4 * se

    def test_reciprocity_matches_target(self):
        n = 30
        fitness = FitnessData(np.ones(n), np.ones(n))
        from reconnet import fit_fgrm
        model = fit_fgrm(fitness, 0.5, 0.8)
        summary = generate_ensemble(model, EnsembleConfig(1000, 3), compute_lambda=False)
        # homogeneous dyads: exact per-pair variances for the ratio-of-sums
        links = summary.densities * n * (n - 1)
        recips = summary.reciprocities * links
        r_hat = recips.sum() / links.sum()
        assert abs(r_hat - 0.8) < 0.01

    def test_skips_lambda_when_asked(self):
        summary = generate_ensemble(fgrm(1, 1), EnsembleConfig(3, 1), compute_lambda=False)
        assert summary.lambda_max is None
        assert summary.mean_lambda_max is None
        assert summary.lambda_fallbacks is None

    def test_lambda_max_and_fallback_count_per_sample(self):
        # sparse samples often hold a cycle reachable only from a larger
        # one, where the power iteration hands over to the dense solver
        n = 20
        rng = np.random.default_rng(8)
        model = fit_fgrm(FitnessData(rng.lognormal(0, 1, n), rng.lognormal(0, 1, n)),
                         0.1, 0.3)
        summary = generate_ensemble(model, EnsembleConfig(60, 4))
        nets = list(sample_networks(model, [derive_subseed(4, k) for k in range(60)]))
        results = [spectral_radius(net.adjacency) for net in nets]
        assert summary.lambda_max.tolist() == [lam for lam, _ in results]
        assert summary.lambda_fallbacks == sum(flag for _, flag in results) > 0
        for lam, net in zip(summary.lambda_max, nets):
            ref = eigenvalues(net.adjacency).leading.real
            assert abs(lam - ref) <= 1e-10 * max(ref, 1.0)


class TestDyadSamplingLaw:
    def test_outcome_frequencies_match_multinomial(self):
        fitness = FitnessData(np.array([1.0, 2.0]), np.array([2.0, 1.0]))
        model = fgrm(0.4, 1.7, fitness)
        arrs = dyad_probability_arrays(model)
        probs = np.array([arrs.none[0, 1], arrs.only[0, 1], arrs.only[1, 0],
                          arrs.both[0, 1]])
        sampler = _DyadSampler(model)
        m = 100_000
        counts = np.zeros(4)
        for k in range(m):
            a = sampler.sample_adjacency(derive_subseed(31, k))
            counts[a[0, 1] + 2 * a[1, 0]] += 1
        freq = counts / m
        se = np.sqrt(probs * (1 - probs) / m)
        assert (np.abs(freq - probs) < 4 * se + 1e-12).all()

    def test_fdcm_directions_uncorrelated(self):
        n = 6
        model = FittedModel(ModelKind.FDCM, {"z": 0.6},
                            fitness=FitnessData(np.ones(n), np.ones(n)))
        sampler = _DyadSampler(model)
        m = 10_000
        fwd = np.empty(m)
        bwd = np.empty(m)
        for k in range(m):
            a = sampler.sample_adjacency(derive_subseed(17, k))
            fwd[k], bwd[k] = a[0, 1], a[1, 0]
        cov = np.mean(fwd * bwd) - fwd.mean() * bwd.mean()
        p = 0.6 / 1.6
        se = np.sqrt((p * (1 - p)) ** 2 * 2 / m)  # var of product-moment estimate, approx
        assert abs(cov) < 4 * se


class TestExpectedMetrics:
    def test_unit_fdcm(self):
        model = FittedModel(ModelKind.FDCM, {"z": 1.0}, fitness=UNIT)
        d, r = expected_metrics(model)
        assert d == pytest.approx(0.5, abs=1e-12)
        assert r == pytest.approx(0.5, abs=1e-12)

    def test_suppressed_reciprocity_limit(self):
        fitness = FitnessData(np.ones(3), np.ones(3))
        d, r = expected_metrics(fgrm(1.0, 1e-13, fitness))
        assert d == pytest.approx(1 / 3, abs=1e-9)
        assert r < 1e-12

    def test_enumeration_oracle_n3(self):
        rng = np.random.default_rng(23)
        fitness = FitnessData(rng.lognormal(0, 1, 3), rng.lognormal(0, 1, 3))
        model = fgrm(0.7, 2.2, fitness)
        arrs = dyad_probability_arrays(model)
        pairs = [(0, 1), (0, 2), (1, 2)]
        e_links = 0.0
        e_recip = 0.0
        for states in itertools.product(range(4), repeat=3):
            prob = 1.0
            links = recip = 0
            for (i, j), s in zip(pairs, states):
                prob *= [arrs.none[i, j], arrs.only[i, j], arrs.only[j, i],
                         arrs.both[i, j]][s]
                links += (0, 1, 1, 2)[s]
                recip += (0, 0, 0, 2)[s]
            e_links += prob * links
            e_recip += prob * recip
        d, r = expected_metrics(model)
        assert d * 6 == pytest.approx(e_links, abs=1e-12)
        assert r * d * 6 == pytest.approx(e_recip, abs=1e-12)


class TestZScore:
    def test_centered(self):
        assert z_score(2.0, [1.0, 2.0, 3.0]) == 0.0

    def test_two_sigma(self):
        vals = np.array([1.0, 2.0, 3.0])
        mean, std = vals.mean(), vals.std(ddof=1)
        assert z_score(mean + 2 * std, vals) == pytest.approx(2.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateEnsembleError):
            z_score(1.0, [2.0, 2.0, 2.0])
        with pytest.raises(DegenerateEnsembleError):
            z_score(1.0, [2.0])


class TestConfig:
    def test_sample_count_validated(self):
        with pytest.raises(DomainError):
            EnsembleConfig(0, 1)

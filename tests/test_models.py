import math

import numpy as np
import pytest

from oracles import (
    dcm_prob,
    dyad_probs,
    fdcm_dyad_probs,
    fdcm_prob,
    fgrm_dyad_probs,
    grm_dyad_probs,
    rcm_dyad_probs,
)

from reconnet import FitnessData, FittedModel, ModelKind, dyad_probability_arrays
from reconnet.errors import DataValidationError, DomainError
from reconnet.graph import MAX_NODES
from reconnet.models import link_probability
from reconnet.serialize import model_from_dict


class TestLinkKernels:
    def test_dcm_examples(self):
        assert dcm_prob(1, 1) == 0.5
        assert dcm_prob(0, 123.0) == 0.0
        assert dcm_prob(2, 3) == pytest.approx(6 / 7)

    def test_fdcm_examples(self):
        assert fdcm_prob(1, 1, 1) == 0.5
        assert fdcm_prob(0, 5, 7) == 0.0
        assert fdcm_prob(1, 2, 3) == pytest.approx(6 / 7)

    def test_negative_inputs_rejected(self):
        with pytest.raises(DomainError):
            dcm_prob(-1, 1)
        with pytest.raises(DomainError):
            fdcm_prob(1, -2, 3)


class TestFdcmDyad:
    def setup_method(self):
        self.fitness = FitnessData(np.array([1.0, 2.0, 1.0]), np.array([1.0, 3.0, 1.0]))

    def test_symmetric_half(self):
        d = fdcm_dyad_probs(1.0, FitnessData(np.ones(2), np.ones(2)), 0, 1)
        assert d.p_ij_only == d.p_ji_only == d.p_both == d.p_none == 0.25

    def test_zero_branch(self):
        fit = FitnessData(np.array([0.0, 2.0]), np.array([1.0, 1.0]))
        d = fdcm_dyad_probs(1.0, fit, 0, 1)
        p_ji = fdcm_prob(1.0, 2.0, 1.0)
        assert d.p_ij_only == 0.0 and d.p_both == 0.0
        assert d.p_ji_only == pytest.approx(p_ji)
        assert d.p_none == pytest.approx(1 - p_ji)

    def test_unit_fitness_both(self):
        d = fdcm_dyad_probs(1.0, FitnessData(np.ones(4), np.ones(4)), 1, 3)
        assert d.p_both == 0.25

    def test_self_dyad_rejected(self):
        with pytest.raises(DomainError):
            fdcm_dyad_probs(1.0, self.fitness, 2, 2)


class TestGrmRcmDyads:
    def test_grm_symmetric(self):
        d = grm_dyad_probs(1, 1, 1, 1, 1)
        assert d.p_ij_only == d.p_ji_only == d.p_both == d.p_none == 0.25

    def test_grm_suppressed_reciprocity(self):
        assert grm_dyad_probs(1, 1, 1, 1, 0).p_both == 0.0

    def test_grm_z2_two(self):
        d = grm_dyad_probs(1, 1, 1, 1, math.sqrt(2))
        assert d.p_both == pytest.approx(0.4, abs=1e-12)
        assert d.p_ij_only == pytest.approx(0.2, abs=1e-12)

    def test_rcm_uniform(self):
        d = rcm_dyad_probs(1, 1, 1, 1, 1, 1)
        assert d.p_none == 0.25

    def test_rcm_noncommittal_node(self):
        assert rcm_dyad_probs(1, 1, 0, 1, 1, 5).p_both == 0.0

    def test_rcm_asymmetric(self):
        # x=(1,2), y=(1,1), z=(1,1): w = 1 + 1 + 2 + 1 = 5
        d = rcm_dyad_probs(1, 1, 1, 2, 1, 1)
        assert d.p_ij_only == pytest.approx(0.2)
        assert d.p_ji_only == pytest.approx(0.4)
        assert d.p_both == pytest.approx(0.2)
        assert d.p_none == pytest.approx(0.2)


class TestFgrmDyad:
    def test_v_one_collapse_point(self):
        d = fgrm_dyad_probs(1, 1, 1, 1, 1, 1)
        assert d.p_ij_only == d.p_both == 0.25
        assert d.p_ij == 0.5 == fdcm_prob(1, 1, 1)

    def test_v_zero_suppresses_reciprocity(self):
        d = fgrm_dyad_probs(1, 0, 1, 1, 1, 1)
        assert d.p_both == 0.0
        assert d.p_ij_only == pytest.approx(1 / 3)

    def test_v2_two(self):
        d = fgrm_dyad_probs(1, math.sqrt(2), 1, 1, 1, 1)
        assert d.p_both == pytest.approx(0.4, abs=1e-12)
        assert d.p_none == pytest.approx(0.2, abs=1e-12)


class TestDyadProperties:
    N_DRAWS = 100_000

    @pytest.mark.parametrize("kernel", ["fdcm", "grm", "rcm", "fgrm"])
    def test_sums_to_one_on_random_inputs(self, kernel):
        # DyadProbabilities construction itself enforces sum-to-1 within 1e-12
        rng = np.random.default_rng(hash(kernel) % 2**32)
        vals = rng.lognormal(0.0, 2.0, (self.N_DRAWS, 6))
        for row in vals:
            if kernel == "fdcm":
                fit = FitnessData(row[:2], row[2:4])
                fdcm_dyad_probs(row[4], fit, 0, 1)
            elif kernel == "grm":
                grm_dyad_probs(*row[:5])
            elif kernel == "rcm":
                rcm_dyad_probs(*row)
            else:
                fgrm_dyad_probs(*row)

    def test_v1_reduction_matches_fdcm(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            u = rng.lognormal(0, 1)
            a_i, l_i, a_j, l_j = rng.lognormal(0, 1.5, 4)
            fit = FitnessData(np.array([a_i, a_j]), np.array([l_i, l_j]))
            got = fgrm_dyad_probs(u, 1.0, a_i, l_i, a_j, l_j)
            want = fdcm_dyad_probs(u, fit, 0, 1)
            assert got.p_ij_only == pytest.approx(want.p_ij_only, abs=1e-12)
            assert got.p_ji_only == pytest.approx(want.p_ji_only, abs=1e-12)
            assert got.p_both == pytest.approx(want.p_both, abs=1e-12)
            assert got.p_none == pytest.approx(want.p_none, abs=1e-12)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            u, v, a_i, l_i, a_j, l_j = rng.lognormal(0, 1, 6)
            d = fgrm_dyad_probs(u, v, a_i, l_i, a_j, l_j)
            swapped = fgrm_dyad_probs(u, v, a_j, l_j, a_i, l_i)
            assert swapped.p_ij_only == d.p_ji_only
            assert swapped.p_ji_only == d.p_ij_only
            assert swapped.p_both == d.p_both
            assert swapped.p_none == d.p_none

    def test_p_both_increases_in_v(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            u, a_i, l_i, a_j, l_j = rng.lognormal(0, 1, 5)
            vs = np.sort(rng.lognormal(0, 1, 4))
            probs = [fgrm_dyad_probs(u, v, a_i, l_i, a_j, l_j).p_both for v in vs]
            assert all(b > a for a, b in zip(probs, probs[1:]))

    def test_grm_with_fitness_ansatz_equals_fgrm(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            b, c, v = rng.lognormal(0, 1, 3)
            a_i, l_i, a_j, l_j = rng.lognormal(0, 1, 4)
            via_grm = grm_dyad_probs(
                math.sqrt(b) * a_i, math.sqrt(c) * l_i,
                math.sqrt(b) * a_j, math.sqrt(c) * l_j, v)
            direct = fgrm_dyad_probs(math.sqrt(b * c), v, a_i, l_i, a_j, l_j)
            assert via_grm.p_both == pytest.approx(direct.p_both, rel=1e-12)
            assert via_grm.p_ij_only == pytest.approx(direct.p_ij_only, rel=1e-12)

    def test_overflow_guard(self):
        # u A L far beyond 1e300: reciprocal form takes over, both-link wins
        d = fgrm_dyad_probs(1e200, 10.0, 1e100, 1e100, 1e80, 1e90)
        assert d.p_both == pytest.approx(1.0)
        assert d.p_none == 0.0
        total = d.p_ij_only + d.p_ji_only + d.p_both + d.p_none
        assert total == pytest.approx(1.0, abs=1e-12)
        # asymmetric overflow: forward link saturated, reverse impossible
        d2 = fgrm_dyad_probs(1e250, 1.0, 1e100, 0.0, 0.0, 1e100)
        assert d2.p_ij_only == pytest.approx(1.0)
        assert d2.p_both == 0.0


class TestFittedModel:
    def test_param_shape_checked(self):
        with pytest.raises(DomainError):
            FittedModel(ModelKind.FDCM, {"u": 1.0},
                        fitness=FitnessData(np.ones(2), np.ones(2)))

    def test_fitness_required(self):
        with pytest.raises(DomainError):
            FittedModel(ModelKind.FGRM, {"u": 1.0, "v": 1.0})

    def test_positivity_enforced(self):
        with pytest.raises(DomainError):
            FittedModel(ModelKind.FDCM, {"z": 0.0},
                        fitness=FitnessData(np.ones(2), np.ones(2)))

    def test_kind_coercion(self):
        m = FittedModel("fdcm", {"z": 1.0}, fitness=FitnessData(np.ones(2), np.ones(2)))
        assert m.kind is ModelKind.FDCM

    @pytest.mark.parametrize("kind", [ModelKind.DCM, ModelKind.GRM, ModelKind.RCM])
    def test_degree_vectors_longer_than_max_nodes_rejected(self, kind):
        def params(n):
            z = {ModelKind.DCM: {}, ModelKind.GRM: {"z": 1.0}, ModelKind.RCM: {"z": [1.0] * n}}
            return {"x": [1.0] * n, "y": [1.0] * n, **z[kind]}

        assert FittedModel(kind, params(MAX_NODES)).n == MAX_NODES
        with pytest.raises(DomainError, match=f"{MAX_NODES + 1} entries"):
            FittedModel(kind, params(MAX_NODES + 1))
        # a model file with them is a data error
        with pytest.raises(DataValidationError, match=f"{MAX_NODES + 1} entries"):
            model_from_dict({"kind": kind.value, "params": params(MAX_NODES + 1)})


def random_model(kind, rng, n=6):
    if kind is ModelKind.FDCM:
        fit = FitnessData(rng.lognormal(0, 1, n), rng.lognormal(0, 1, n))
        return FittedModel(kind, {"z": rng.lognormal(0, 1)}, fitness=fit)
    if kind is ModelKind.FGRM:
        fit = FitnessData(rng.lognormal(0, 1, n), rng.lognormal(0, 1, n))
        return FittedModel(kind, {"u": rng.lognormal(0, 1), "v": rng.lognormal(0, 1)},
                           fitness=fit)
    x, y = rng.lognormal(0, 1, n), rng.lognormal(0, 1, n)
    if kind is ModelKind.DCM:
        return FittedModel(kind, {"x": x, "y": y})
    if kind is ModelKind.GRM:
        return FittedModel(kind, {"x": x, "y": y, "z": rng.lognormal(0, 1)})
    return FittedModel(kind, {"x": x, "y": y, "z": rng.lognormal(0, 1, n)})


class TestProbabilityArrays:
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_arrays_match_scalar_kernels(self, kind):
        rng = np.random.default_rng(17)
        model = random_model(kind, rng)
        arrs = dyad_probability_arrays(model)
        n = model.n
        for i in range(n):
            for j in range(n):
                if i == j:
                    assert arrs.link[i, j] == 0.0
                    continue
                d = dyad_probs(model, i, j) if i < j else dyad_probs(model, j, i).swapped()
                assert arrs.only[i, j] == pytest.approx(d.p_ij_only, abs=1e-13)
                assert arrs.both[i, j] == pytest.approx(d.p_both, abs=1e-13)
                assert arrs.none[i, j] == pytest.approx(d.p_none, abs=1e-13)
                assert arrs.link[i, j] == pytest.approx(d.p_ij, abs=1e-13)

    def test_zero_fitness_nodes_are_isolated(self):
        fit = FitnessData(np.array([1.0, 0.0, 2.0]), np.array([1.0, 0.0, 1.0]))
        arrs = dyad_probability_arrays(
            FittedModel(ModelKind.FGRM, {"u": 1.0, "v": 2.0}, fitness=fit))
        assert arrs.link[1, :].sum() == 0.0
        assert arrs.link[:, 1].sum() == 0.0


class TestLinkProbability:
    def test_quotient_below_the_limit_and_one_above_it(self):
        m = np.array([0.0, 1e-300, 1.0, 3.0, 1e300, 1e301, 1.7e308, np.inf])
        p = link_probability(m)
        assert p[:5].tobytes() == (m[:5] / (1.0 + m[:5])).tobytes()
        assert (p[5:] == 1.0).all()

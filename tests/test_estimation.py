import numpy as np
import pytest
from oracles import fit_fdcm_trust_region

from reconnet import (
    DirectedNetwork,
    FitnessData,
    FittedModel,
    ModelKind,
    SolverConfig,
    dyad_probability_arrays,
    expected_metrics,
    fit_degree_model,
    fit_fdcm,
    fit_fgrm,
    fitness_from_strengths,
    solve_bounded_least_squares,
)
from reconnet.errors import DataValidationError, DomainError, NonConvergenceError, NumericalError
from reconnet.estimation import DensityFitter, _normalized_fitness

UNIT4 = FitnessData(np.ones(4), np.ones(4))


def _reachable(fitness, d):
    fitter = DensityFitter(fitness.n)
    fitter.use(fitness)
    return fitter.reachable(d)


class TestSolver:
    """The fixed-point loop: a step map gives the residual at x and the next x."""

    def test_linear_root(self):
        # x <- (x + 2) / 2 halves the distance to the root each step
        x, report = solve_bounded_least_squares(lambda t: (t - 2.0, (t + 2.0) / 2.0), 1)
        assert x[0] == pytest.approx(2.0, abs=1e-10)
        assert report.converged and report.residual_norm <= 1e-10
        assert 30 < report.iterations < 40 and report.seconds >= 0.0

    def test_returns_the_point_whose_residual_it_took(self):
        config = SolverConfig(max_iterations=3)
        x, report = solve_bounded_least_squares(lambda t: (t - 2.0, (t + 2.0) / 2.0), 1, config)
        assert not report.converged and report.iterations == 3
        assert x[0] == 1.75 and report.residual_norm == 0.25

    def test_infeasible_root_pins_at_bound(self):
        # the step heads for -1; the floor stops it, and then the step is zero
        config = SolverConfig(max_iterations=200)
        x, report = solve_bounded_least_squares(lambda t: (t + 1.0, t / 2.0 - 1.0), 1, config)
        assert not report.converged and report.iterations == 2
        assert x[0] == config.lower_bound

    def test_step_below_the_step_tolerance_stops(self):
        config = SolverConfig(step_tolerance=1e-3)
        x, report = solve_bounded_least_squares(lambda t: (t - 2.0, t * (1.0 + 1e-4)), 1, config)
        assert not report.converged and report.iterations == 1 and x[0] == 1.0

    def test_start_at_solution(self):
        x, report = solve_bounded_least_squares(
            lambda t: (np.array([t[0] * t[1] - 1.0, t[0] - t[1]]), t + 1.0), 2)
        assert report.converged
        assert report.iterations == 1
        assert tuple(x) == (1.0, 1.0)

    def test_initial_point_is_the_start(self):
        config = SolverConfig(initial_point=np.array([2.0]))
        x, report = solve_bounded_least_squares(lambda t: (t - 2.0, t), 1, config)
        assert report.converged and report.iterations == 1 and x[0] == 2.0

    def test_nonfinite_residual_raises(self):
        with pytest.raises(NumericalError):
            solve_bounded_least_squares(lambda t: (np.array([np.nan]), t), 1)

    def test_bad_initial_point(self):
        for bad in (np.array([0.0]), np.array([1.0, 2.0])):
            with pytest.raises(DomainError):
                solve_bounded_least_squares(
                    lambda t: (t, t), 1, SolverConfig(initial_point=bad))

    @pytest.mark.parametrize("field,value", [
        ("residual_tolerance", float("inf")), ("step_tolerance", float("nan")),
        ("lower_bound", True), ("max_iterations", 10**400), ("max_iterations", 2.5),
        ("residual_tolerance", "1e-10"), ("max_iterations", None)])
    def test_a_setting_that_is_not_a_finite_number_is_a_domain_error(self, field, value):
        # an infinite tolerance would let a fit stop at its start and call it converged
        with pytest.raises(DomainError, match=field):
            SolverConfig(**{field: value})

    def test_settings_of_numpy_number_types(self):
        config = SolverConfig(max_iterations=np.int64(5), lower_bound=np.float64(1e-9))
        assert config.max_iterations == 5


class TestFitFdcm:
    def test_unit_fitness_half_density(self):
        model = fit_fdcm(UNIT4, 0.5)
        assert model.params["z"] == pytest.approx(1.0, abs=1e-8)

    def test_unit_fitness_fifth_density(self):
        # homogeneous closed form: z/(1+z) = d  =>  z = d/(1-d)
        model = fit_fdcm(UNIT4, 0.2)
        assert model.params["z"] == pytest.approx(0.25, abs=1e-8)

    def test_refit_at_own_density_is_fixed_point(self):
        rng = np.random.default_rng(0)
        fitness = FitnessData(rng.lognormal(0, 1, 20), rng.lognormal(0, 1, 20))
        model = fit_fdcm(fitness, 0.17)
        d, _ = expected_metrics(model)
        refit = fit_fdcm(fitness, d)
        assert refit.params["z"] == pytest.approx(model.params["z"], rel=1e-8)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, 1.2, -0.1):
            with pytest.raises(DomainError):
                fit_fdcm(UNIT4, bad)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        a, l = rng.lognormal(0, 1, 12), rng.lognormal(0, 1, 12)
        model = fit_fdcm(FitnessData(a, l), 0.3)
        s, t = 2.5e6, 3.7e-4
        scaled = FittedModel(ModelKind.FDCM, {"z": model.params["z"] / (s * t)},
                             fitness=FitnessData(s * a, t * l))
        p0 = dyad_probability_arrays(model).link
        p1 = dyad_probability_arrays(scaled).link
        np.testing.assert_allclose(p1, p0, rtol=1e-12, atol=0)

    def test_determinism(self):
        rng = np.random.default_rng(2)
        fitness = FitnessData(rng.lognormal(0, 1, 30), rng.lognormal(0, 1, 30))
        z1 = fit_fdcm(fitness, 0.21).params["z"]
        z2 = fit_fdcm(fitness, 0.21).params["z"]
        assert z1 == z2


def _fit_or_error(fit, *args):
    try:
        return fit(*args)
    except NonConvergenceError as exc:
        return exc


class TestFdcmNewtonAgainstTrustRegion:
    """The bracketed Newton solve of fit_fdcm against the trust-region oracle."""

    def assert_same_root(self, fitness, d, config=None):
        newton = fit_fdcm(fitness, d, config)
        oracle = fit_fdcm_trust_region(fitness, d, config)
        assert newton.params["z"] == pytest.approx(oracle.params["z"], rel=1e-12, abs=0)
        tolerance = (config or SolverConfig()).residual_tolerance
        assert newton.report.converged and newton.report.residual_norm <= tolerance
        assert newton.report.seconds >= 0.0
        return newton

    @pytest.mark.parametrize("seed", range(8))
    def test_random_lognormal_fitness(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(5, 150))
        fitness = FitnessData(rng.lognormal(0, 1, n), rng.lognormal(0, 1, n))
        for d in (0.005, 0.05, 0.2, 0.6):
            self.assert_same_root(fitness, d)

    def test_banks_inactive_in_the_window(self):
        # zero rows and columns of alt, as in a window where some banks only lend or borrow
        rng = np.random.default_rng(9)
        a, l = rng.lognormal(0, 1, 60), rng.lognormal(0, 1, 60)
        a[rng.random(60) < 0.4] = 0.0
        l[rng.random(60) < 0.4] = 0.0
        for d in (0.01, 0.1, 0.25):
            self.assert_same_root(FitnessData(a, l), d)

    @pytest.mark.parametrize("d", [0.02, 0.016025641025641024, 0.33589743589743587,
                                   0.6935897435897436, 0.7153846153846154, 0.9076923076923077])
    def test_unit_fitness_at_the_scan_criterion_densities(self, d):
        unit = FitnessData(np.ones(40), np.ones(40))
        model = self.assert_same_root(unit, d)
        assert model.params["z"] == pytest.approx(d / (1 - d), rel=1e-12)

    def test_a_step_that_lands_on_the_root(self):
        # the Newton step hits the root exactly (residual 0.0); it must not be
        # mistaken for a step outside the bracket
        unit = FitnessData(np.ones(40), np.ones(40))
        model = self.assert_same_root(unit, 0.7153846153846154)
        assert model.report.residual_norm == 0.0 and model.report.iterations < 10

    def test_one_link_window_is_not_reached(self):
        # one link: only z -> infinity reaches the target, and both fits raise
        w = np.zeros((6, 6))
        w[2, 4] = 3.0
        fitness = fitness_from_strengths(DirectedNetwork.from_weight_matrix(w))
        assert not _reachable(fitness, 1 / 30)
        for fit in (fit_fdcm, fit_fdcm_trust_region):
            with pytest.raises(NonConvergenceError) as err:
                fit(fitness, 1 / 30)
            assert not err.value.report.converged

    @pytest.mark.parametrize("tiny", [1.0, 1e-100, 1e-200])
    def test_reachability_counts_the_positive_fitness_products(self, tiny):
        # at 1e-200 the products of two tiny entries underflow to 0 and drop out
        rng = np.random.default_rng(2)
        a, l = rng.lognormal(0, 1, 8), rng.lognormal(0, 1, 8)
        a[:3] *= tiny
        l[1:4] *= tiny
        a[6] = l[7] = 0.0
        fitness = FitnessData(a, l)
        positive = np.count_nonzero(_normalized_fitness(fitness)[0])
        assert positive == (36 if tiny == 1e-200 else 43)
        for links in (positive - 1, positive):
            assert _reachable(fitness, links / 56) == (links < positive)

    def test_fitness_whose_mean_overflows_reaches_no_target(self):
        # the mean of the positive entries is inf: every normalised product is 0
        big = np.array([1e308, 0.0, 1e308, 0.0])
        fitness = FitnessData(big, big[::-1].copy())
        with np.errstate(over="ignore"):
            assert not _reachable(fitness, 2 / 12)
            with pytest.raises(NonConvergenceError):
                fit_fdcm(fitness, 2 / 12)
            with pytest.raises(NonConvergenceError):
                fit_fgrm(fitness, 2 / 12, 0.0)

    def test_infinite_fitness_normalises_to_zero(self):
        # inf / inf would be NaN: with an overflowing mean every entry is 0
        fitness = FitnessData(np.array([np.inf, 1.0, 0.0]), np.ones(3))
        alt, scale = _normalized_fitness(fitness)
        assert not alt.any() and scale == np.inf
        assert not _reachable(fitness, 0.1)
        with pytest.raises(NonConvergenceError):
            fit_fgrm(fitness, 0.1, 0.2)

    @pytest.mark.parametrize("d", [2 / 90, 0.05])
    def test_target_at_or_above_the_positive_dyads_with_pinned_fitness(self, d):
        # only nodes 0 and 1 lend and borrow: two of the 90 dyads can carry links
        a = np.zeros(10)
        a[:2] = [1.0, 2.0]
        fitness = FitnessData(a, a.copy())
        assert not _reachable(fitness, d)
        for fit in (fit_fdcm, fit_fdcm_trust_region):
            with pytest.raises(NonConvergenceError) as err:
                fit(fitness, d)
            assert not err.value.report.converged
        assert _reachable(fitness, 1.9 / 90)
        self.assert_same_root(fitness, 1.9 / 90)

    def test_evaluation_budget(self):
        rng = np.random.default_rng(3)
        fitness = FitnessData(rng.lognormal(0, 1, 30), rng.lognormal(0, 1, 30))
        config = SolverConfig(max_iterations=2)
        for fit in (fit_fdcm, fit_fdcm_trust_region):
            with pytest.raises(NonConvergenceError) as err:
                fit(fitness, 0.1, config)
            assert err.value.report.iterations <= 2 and err.value.report.seconds >= 0.0
        self.assert_same_root(fitness, 0.1, SolverConfig(max_iterations=50))

    def test_same_outcome_under_solver_settings(self):
        rng = np.random.default_rng(4)
        fitness = FitnessData(rng.lognormal(0, 1, 25), rng.lognormal(0, 1, 25))
        for config in (SolverConfig(lower_bound=0.5),  # the root lies below the box
                       SolverConfig(max_iterations=1)):
            newton = _fit_or_error(fit_fdcm, fitness, 0.1, config)
            oracle = _fit_or_error(fit_fdcm_trust_region, fitness, 0.1, config)
            assert type(newton) is type(oracle) is NonConvergenceError, config
            assert newton.report.iterations < 100
        self.assert_same_root(fitness, 0.1, SolverConfig(residual_tolerance=1e-13))
        self.assert_same_root(fitness, 0.1, SolverConfig(lower_bound=1e-3))

    @pytest.mark.parametrize("d", [0.1, 0.17, 0.3])
    def test_a_tolerance_below_rounding_stops_on_the_step(self, d):
        # only a residual of exactly 0.0 meets the tolerance, which rounding
        # grants or not; otherwise the step tolerance ends the fit early
        rng = np.random.default_rng(4)
        fitness = FitnessData(rng.lognormal(0, 1, 25), rng.lognormal(0, 1, 25))
        config = SolverConfig(residual_tolerance=1e-300)
        for fit in (fit_fdcm, fit_fdcm_trust_region):
            outcome = _fit_or_error(fit, fitness, d, config)
            assert outcome.report.iterations < 20
            assert outcome.report.converged == (outcome.report.residual_norm == 0.0)

    def test_initial_point_is_the_start(self):
        model = fit_fdcm(UNIT4, 0.5, SolverConfig(initial_point=np.array([1.0])))
        assert model.params["z"] == 1.0 and model.report.iterations == 1
        far = fit_fdcm(UNIT4, 0.2, SolverConfig(initial_point=np.array([1e6])))
        assert far.params["z"] == pytest.approx(0.25, rel=1e-12)
        for bad in (np.array([0.0]), np.array([1.0, 2.0])):
            with pytest.raises(DomainError):
                fit_fdcm(UNIT4, 0.2, SolverConfig(initial_point=bad))

    def test_one_node_is_a_domain_error(self):
        with pytest.raises(DomainError):
            fit_fdcm(FitnessData(np.ones(1), np.ones(1)), 0.5)


class TestDensityFitter:
    def test_reciprocity_is_that_of_the_fitted_model(self):
        rng = np.random.default_rng(5)
        fitter = DensityFitter(30)
        for _ in range(3):  # the same work arrays serve fitness after fitness
            a, l = rng.lognormal(0, 2, 30), rng.lognormal(0, 2, 30)
            a[4] = l[9] = 0.0
            fitness = FitnessData(a, l)
            fitter.use(fitness)
            for d in (0.01, 0.1, 0.5):
                want = expected_metrics(fit_fdcm(fitness, d))[1]
                assert fitter.reciprocity(d) == pytest.approx(want, rel=1e-12, abs=0)

    def test_fit_is_fit_fdcm_bit_for_bit(self):
        # fitness after fitness on one fitter, with more and then fewer positive
        # products than before: no entry of an earlier fitness may leak in
        # (at n = 100 the positive entries are copied in two blocks of rows)
        rng = np.random.default_rng(6)
        fitter = DensityFitter(100)
        fits = 0
        for zeros in (0.0, 0.5, 0.1, 0.7, 0.3):
            a, l = rng.lognormal(0, 2, 100), rng.lognormal(0, 2, 100)
            a[rng.random(100) < zeros] = 0.0
            l[rng.random(100) < zeros] = 0.0
            fitness = FitnessData(a, l)
            fitter.use(fitness)
            for d in (0.005, 0.05, 0.2):
                if not fitter.reachable(d):
                    continue
                fits += 1
                z, report = fitter.fit(d)
                model = fit_fdcm(fitness, d)
                assert z == model.params["z"]
                assert report.iterations == model.report.iterations
                assert report.residual_norm == model.report.residual_norm
                assert report.converged and model.report.converged
        assert fits >= 12

    def test_unreachable_target_is_none_and_no_error(self):
        fitter = DensityFitter(6)
        a = np.zeros(6)
        a[2] = 3.0
        fitter.use(FitnessData(a, np.roll(a, 2)))  # one dyad with a positive product
        assert fitter.reciprocity(1 / 30) is None
        assert fitter.reciprocity(1.0) is None
        assert fitter.reciprocity(0.9 / 30) == 0.0  # its reverse can never link

    def test_errors(self):
        fitter = DensityFitter(4)
        with pytest.raises(DomainError):
            fitter.use(FitnessData(np.ones(5), np.ones(5)))
        fitter.use(UNIT4)
        for d in (0.0, -0.1, float("nan")):
            for call in (fitter.reachable, fitter.fit, fitter.reciprocity):
                with pytest.raises(DomainError):
                    call(d)
        fitter = DensityFitter(4, SolverConfig(max_iterations=1))
        fitter.use(UNIT4)
        with pytest.raises(NonConvergenceError):
            fitter.reciprocity(0.2)


class TestFitFgrm:
    def test_closed_form_balanced(self):
        model = fit_fgrm(UNIT4, 0.5, 0.5)
        assert model.params["u"] == pytest.approx(1.0, abs=1e-6)
        assert model.params["v"] == pytest.approx(1.0, abs=1e-6)

    def test_closed_form_high_reciprocity(self):
        model = fit_fgrm(UNIT4, 0.5, 0.8)
        assert model.params["u"] == pytest.approx(0.25, abs=1e-6)
        assert model.params["v"] == pytest.approx(4.0, abs=1e-6)

    def test_reduces_to_fdcm_at_matched_reciprocity(self):
        rng = np.random.default_rng(3)
        fitness = FitnessData(rng.lognormal(0, 1, 25), rng.lognormal(0, 1, 25))
        base = fit_fdcm(fitness, 0.2)
        _, r_fdcm = expected_metrics(base)
        model = fit_fgrm(fitness, 0.2, r_fdcm)
        assert abs(model.params["v"] - 1.0) < 1e-4
        p_fgrm = dyad_probability_arrays(model)
        p_fdcm = dyad_probability_arrays(base)
        assert np.max(np.abs(p_fgrm.link - p_fdcm.link)) < 1e-6
        assert np.max(np.abs(p_fgrm.both - p_fdcm.both)) < 1e-6

    def test_targets_reproduced_across_sizes(self):
        rng = np.random.default_rng(4)
        for n in (10, 50, 200):
            fitness = FitnessData(rng.lognormal(0, 0.8, n), rng.lognormal(0, 0.8, n))
            d_t, r_t = 0.12, 0.4
            model = fit_fgrm(fitness, d_t, r_t)
            d, r = expected_metrics(model)
            assert abs(d - d_t) <= 1e-8
            assert abs(r - r_t) <= 1e-8

    def test_zero_reciprocity_target(self):
        model = fit_fgrm(UNIT4, 0.3, 0.0)
        _, r = expected_metrics(model)
        assert r < 1e-10

    @pytest.mark.parametrize("lower_bound", [1e-14, 1e-6])
    def test_zero_reciprocity_pins_v_at_the_bound(self, lower_bound):
        # v is unidentified at r = 0: it sits on the floor, and u alone meets the density
        rng = np.random.default_rng(11)
        fitness = FitnessData(rng.lognormal(0, 1, 40), rng.lognormal(0, 1, 40))
        config = SolverConfig(lower_bound=lower_bound)
        model = fit_fgrm(fitness, 0.1, 0.0, config)
        assert model.params["v"] == lower_bound
        d, r = expected_metrics(model)
        assert abs(d - 0.1) / 0.1 <= config.residual_tolerance
        assert r < 1e-10
        assert model.report.converged and model.report.residual_norm <= 1e-10

    def test_zero_reciprocity_initial_point_holds_u_alone(self):
        fitness = FitnessData(np.linspace(0.5, 2.0, 10), np.linspace(2.0, 0.5, 10))
        u = fit_fgrm(fitness, 0.2, 0.0).params["u"]
        scale = _normalized_fitness(fitness)[1]
        start = SolverConfig(initial_point=np.array([u * scale]))
        again = fit_fgrm(fitness, 0.2, 0.0, start)
        assert again.params["u"] == pytest.approx(u, rel=1e-12)
        assert again.report.iterations <= 2
        with pytest.raises(DomainError):
            fit_fgrm(fitness, 0.2, 0.0, SolverConfig(initial_point=np.array([1.0, 1.0])))

    def test_analytic_jacobian_matches_finite_differences(self):
        # the Newton pass's Jacobian in (log u, log v), probed off-optimum by central
        # differences of its own residual
        from reconnet.estimation import _fgrm_equations
        rng = np.random.default_rng(5)
        fitness = FitnessData(rng.lognormal(0, 1, 15), rng.lognormal(0, 1, 15))
        alt, _ = _normalized_fitness(fitness)
        t_link = 15 * 14 * 0.2
        for r_target in (0.3, 0.0):
            for point in ([1.0, 1.0], [0.4, 2.0], [2.0, 0.3]):
                log_point = np.log(point)
                eps = 1e-6
                num = np.empty((2, 2))
                for k in range(2):
                    up, dn = log_point.copy(), log_point.copy()
                    up[k] += eps
                    dn[k] -= eps
                    f_up, _ = _fgrm_equations(np.exp(up), alt, t_link, r_target)
                    f_dn, _ = _fgrm_equations(np.exp(dn), alt, t_link, r_target)
                    num[:, k] = (f_up - f_dn) / (2 * eps)
                _, ana = _fgrm_equations(np.array(point), alt, t_link, r_target)
                np.testing.assert_allclose(ana, num, rtol=1e-6)

    def test_newton_halves_a_step_that_overshoots(self):
        # a far start: the full Newton step from there overflows or overshoots
        rng = np.random.default_rng(12)
        fitness = FitnessData(rng.lognormal(0, 1, 30), rng.lognormal(0, 1, 30))
        config = SolverConfig(initial_point=np.array([1e-9, 1e3]))
        model = fit_fgrm(fitness, 0.2, 0.35, config)
        d, r = expected_metrics(model)
        assert abs(d - 0.2) <= 1e-9 and abs(r - 0.35) <= 1e-9
        plain = fit_fgrm(fitness, 0.2, 0.35)
        assert model.params["u"] == pytest.approx(plain.params["u"], rel=1e-8)

    def test_report_counts_evaluations(self):
        model = fit_fgrm(UNIT4, 0.5, 0.5)
        assert model.report.converged and model.report.iterations == 1
        model = fit_fgrm(UNIT4, 0.5, 0.8)
        assert 2 <= model.report.iterations < 20
        with pytest.raises(NonConvergenceError) as err:
            fit_fgrm(UNIT4, 0.5, 0.8, SolverConfig(max_iterations=2))
        assert not err.value.report.converged and err.value.report.iterations >= 2

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            fit_fgrm(UNIT4, 0.5, 1.0)
        with pytest.raises(DomainError):
            fit_fgrm(UNIT4, 0.5, -0.2)
        with pytest.raises(DomainError):
            fit_fgrm(UNIT4, 1.5, 0.5)
        with pytest.raises(DomainError):
            fit_fgrm(FitnessData(np.ones(1), np.ones(1)), 0.5, 0.5)

    @pytest.mark.parametrize("d", [0.01, 0.5])
    def test_no_dyad_with_positive_fitness(self, d):
        # one node lends and borrows: no dyad can carry a link, whatever u and v
        fitness = FitnessData(np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0, 0.0]))
        with pytest.raises(NonConvergenceError):
            fit_fgrm(fitness, d, 0.4)


class TestFitDegreeModels:
    def test_dcm_uniform_degrees(self):
        model = fit_degree_model(ModelKind.DCM, k_in=[1, 1, 1], k_out=[1, 1, 1])
        p = dyad_probability_arrays(model).link
        off = ~np.eye(3, dtype=bool)
        np.testing.assert_allclose(p[off], 0.5, atol=1e-8)

    def test_dcm_handshake_violation(self):
        with pytest.raises(DataValidationError):
            fit_degree_model(ModelKind.DCM, k_in=[1, 0, 0], k_out=[1, 1, 0])

    def test_dcm_matches_heterogeneous_degrees(self):
        rng = np.random.default_rng(6)
        n = 12
        a = (rng.random((n, n)) < 0.35).astype(int)
        np.fill_diagonal(a, 0)
        k_out, k_in = a.sum(axis=1), a.sum(axis=0)
        model = fit_degree_model(ModelKind.DCM, k_in=k_in, k_out=k_out)
        p = dyad_probability_arrays(model).link
        np.testing.assert_allclose(p.sum(axis=1), k_out, atol=1e-7)
        np.testing.assert_allclose(p.sum(axis=0), k_in, atol=1e-7)

    def test_grm_neutral_reciprocity_target_gives_unit_z(self):
        rng = np.random.default_rng(7)
        n = 10
        a = (rng.random((n, n)) < 0.4).astype(int)
        np.fill_diagonal(a, 0)
        k_out, k_in = a.sum(axis=1), a.sum(axis=0)
        dcm = fit_degree_model(ModelKind.DCM, k_in=k_in, k_out=k_out)
        p = dyad_probability_arrays(dcm).link
        neutral = float((p * p.T).sum())
        model = fit_degree_model(ModelKind.GRM, k_in=k_in, k_out=k_out, l_recip=neutral)
        assert model.params["z"] == pytest.approx(1.0, abs=1e-4)

    def test_rcm_recovers_dyad_sequences(self):
        # interior targets: expected sequences of a known multiplier set
        # (realized integer sequences can sit on the moment-polytope
        # boundary, where multipliers diverge and no fit exists)
        rng = np.random.default_rng(8)
        n = 8
        truth = FittedModel(ModelKind.RCM, {"x": rng.lognormal(0, 0.5, n),
                                            "y": rng.lognormal(0, 0.5, n),
                                            "z": rng.lognormal(0, 0.5, n)})
        want = dyad_probability_arrays(truth)
        model = fit_degree_model(
            ModelKind.RCM,
            k_mono_out=want.only.sum(axis=1), k_mono_in=want.only.sum(axis=0),
            k_recip=want.both.sum(axis=1))
        arrs = dyad_probability_arrays(model)
        np.testing.assert_allclose(arrs.only.sum(axis=1), want.only.sum(axis=1), atol=1e-7)
        np.testing.assert_allclose(arrs.both.sum(axis=1), want.both.sum(axis=1), atol=1e-7)

    def test_rcm_odd_recip_sum_rejected(self):
        with pytest.raises(DataValidationError):
            fit_degree_model(ModelKind.RCM, k_mono_out=[0, 0], k_mono_in=[0, 0],
                             k_recip=[1, 0])

    def test_fitness_kinds_rejected(self):
        with pytest.raises(DomainError):
            fit_degree_model(ModelKind.FDCM, k_in=[1], k_out=[1])


class TestDegreeFitsOnSampledNetworks:
    """The degree fits on one sampled day of a 100-bank fgrm stream, at the default config.

    These inputs have the shape of the benchmark's degree-fit network. At these
    seeds the earlier trust-region solver stopped above the residual tolerance
    (rcm at 21 and 36, grm at 40).
    """

    @pytest.fixture(scope="class", params=[21, 36, 40])
    def day_adjacency(self, request, tmp_path_factory):
        from reconnet.cli import main
        from reconnet.serialize import read_fitness_csv, read_transactions

        out = tmp_path_factory.mktemp(f"degree{request.param}")
        assert main(["synth", "--nodes", "100", "--fitness-dist", "lognormal(0,1)",
                     "--model", "fgrm", "--density", "0.2", "--reciprocity", "0.35",
                     "--days", "1", "--year", "2001", "--seed", str(request.param),
                     "--out", str(out)]) == 0
        _, labels = read_fitness_csv(out / "fitness.csv")
        table = read_transactions(out / "transactions.csv")
        # every bank of the model, with or without a loan that day
        code = np.array([labels.index(name) for name in table.labels])
        a = np.zeros((100, 100), dtype=int)
        a[code[table.lender], code[table.borrower]] = 1
        return a

    def test_dcm_grm_and_rcm_meet_their_targets(self, day_adjacency):
        a = day_adjacency
        both = a * a.T
        k_out, k_in, k_recip = a.sum(axis=1), a.sum(axis=0), both.sum(axis=1)
        targets = {
            ModelKind.DCM: {"k_out": k_out, "k_in": k_in},
            ModelKind.GRM: {"k_out": k_out, "k_in": k_in, "l_recip": float(both.sum())},
            ModelKind.RCM: {"k_mono_out": k_out - k_recip, "k_mono_in": k_in - k_recip,
                            "k_recip": k_recip},
        }
        for kind, target in targets.items():
            model = fit_degree_model(kind, **target)
            assert model.report.converged and model.report.residual_norm <= 1e-10, kind
            arrs = dyad_probability_arrays(model)
            if kind is ModelKind.RCM:
                expected = {"k_mono_out": arrs.only.sum(axis=1),
                            "k_mono_in": arrs.only.sum(axis=0),
                            "k_recip": arrs.both.sum(axis=1)}
            else:
                expected = {"k_out": arrs.link.sum(axis=1), "k_in": arrs.link.sum(axis=0),
                            "l_recip": arrs.both.sum()}
            for name, value in target.items():
                gap = np.abs(expected[name] - value) / np.maximum(value, 1.0)
                assert gap.max() <= 1e-8, (kind, name, gap.max())

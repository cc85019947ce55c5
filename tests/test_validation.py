import dataclasses
import datetime
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (TransactionRecord, aggregate_record_loop, pairwise_auc, records_of,
                     roc_step_path, scan_window_by_window, table_of)

from reconnet import (
    DirectedNetwork,
    FitnessData,
    FittedModel,
    ModelKind,
    aggregate,
    build_windows,
    cross_entropy,
    degrees_strengths,
    derive_subseed,
    expected_metrics,
    extract_rho_landmarks,
    fit_fdcm,
    fit_fgrm,
    fitness_from_strengths,
    mann_whitney_auc,
    rho,
    roc_auc,
    sample_network,
    scan_aggregations,
    synth_fitness,
    synth_transactions,
)
from reconnet.errors import (DataValidationError, DomainError, NonConvergenceError,
                             SingularityError, UndefinedAUCError)
from reconnet.estimation import SolverConfig
from reconnet.ingest import index_year, trading_days


class TestRho:
    def test_matched(self):
        assert rho(0.25, 0.25) == 0.0

    def test_full_reciprocity(self):
        assert rho(1.0, 0.3) == 1.0

    def test_direct_value(self):
        assert rho(0.5, 0.25) == pytest.approx(1 / 3)

    def test_singularity(self):
        with pytest.raises(SingularityError):
            rho(0.5, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            rho(1.5, 0.2)


class TestRocAuc:
    def test_perfect_separation(self):
        roc = roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert roc.auc == 1.0

    def test_uninformative(self):
        roc = roc_auc([0.5] * 6, [1, 0, 1, 0, 1, 0])
        assert roc.auc == 0.5

    def test_hand_case_six_entries(self):
        scores = [0.9, 0.8, 0.7, 0.4, 0.3, 0.1]
        labels = [1, 0, 1, 0, 1, 0]
        roc = roc_auc(scores, labels)
        assert roc.auc == pytest.approx(6 / 9, abs=1e-15)

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedAUCError):
            roc_auc([0.1, 0.2], [1, 1])

    def test_curve_monotone_and_anchored(self):
        rng = np.random.default_rng(1)
        roc = roc_auc(rng.random(50), rng.integers(0, 2, 50))
        assert roc.fpr[0] == roc.tpr[0] == 0.0
        assert roc.fpr[-1] == roc.tpr[-1] == 1.0
        assert (np.diff(roc.fpr) >= 0).all() and (np.diff(roc.tpr) >= 0).all()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_curve_is_the_corners_of_the_step_path(self, data):
        # few score levels make long tie blocks and long straight runs
        levels = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(2, 40))
        scores = np.array(data.draw(st.lists(st.integers(0, levels), min_size=n,
                                             max_size=n))) / levels
        labels = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        assume(0 < labels.sum() < n)
        n_pos, n_neg = int(labels.sum()), int(n - labels.sum())
        roc = roc_auc(scores, labels)
        path = roc_step_path(scores, labels)
        position = {t: k for k, (t, _, _) in enumerate(path)}
        kept = [position[t] for t in roc.thresholds.tolist()]
        # a subsequence of the step path, anchored at (0, 0) and (1, 1)
        assert kept == sorted(set(kept)) and kept[0] == 0 and kept[-1] == len(path) - 1
        assert roc.fpr.tolist() == [path[k][1] / n_neg for k in kept]
        assert roc.tpr.tolist() == [path[k][2] / n_pos for k in kept]
        assert (roc.fpr[0], roc.tpr[0], roc.fpr[-1], roc.tpr[-1]) == (0.0, 0.0, 1.0, 1.0)
        # every dropped point lies on the segment between its kept neighbours
        for a, b in zip(kept, kept[1:]):
            (_, fa, ta), (_, fb, tb) = path[a], path[b]
            for _, f, t in path[a + 1:b]:
                assert (fb - fa) * (t - ta) == (tb - ta) * (f - fa)
                assert fa <= f <= fb and ta <= t <= tb
        # and every kept point inside the curve turns it
        for k in kept[1:-1]:
            (_, f0, t0), (_, f1, t1), (_, f2, t2) = path[k - 1:k + 2]
            assert (f1 - f0) * (t2 - t1) != (t1 - t0) * (f2 - f1)
        assert abs(roc.auc - pairwise_auc(scores, labels)) <= 1e-12

    @pytest.mark.parametrize("seed", range(100))
    def test_trapezoid_equals_mann_whitney(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 21))
        # coarse score grid forces ties through both code paths
        scores = rng.integers(0, 6, n) / 5.0
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            labels[0] = 1 - labels[0]
        auc = roc_auc(scores, labels).auc
        mw = mann_whitney_auc(scores, labels)
        assert auc == pytest.approx(mw, abs=1e-12)

    @pytest.mark.parametrize("levels", [1, 2, 5, 1000])
    def test_rank_statistic_equals_pairwise_count_exactly(self, levels):
        # few score levels make long tie blocks; one level ties every pair
        rng = np.random.default_rng(levels)
        for n in (2, 7, 300):
            scores = rng.integers(0, levels, n) / levels
            labels = rng.integers(0, 2, n)
            labels[:2] = [0, 1]
            assert mann_whitney_auc(scores, labels) == pairwise_auc(scores, labels)
        assert mann_whitney_auc(np.full(6, 0.3), [0, 1, 0, 1, 1, 0]) == 0.5

    def test_rank_statistic_rejects_single_class_and_length_mismatch(self):
        with pytest.raises(UndefinedAUCError):
            mann_whitney_auc([0.1, 0.2], [0, 0])
        with pytest.raises(DomainError):
            mann_whitney_auc([0.1, 0.2, 0.3], [0, 1])


def _unit_fgrm(n, u=1.0, v=1.0):
    fitness = FitnessData(np.ones(n), np.ones(n))
    return FittedModel(ModelKind.FGRM, {"u": u, "v": v}, fitness=fitness)


class TestCrossEntropy:
    def test_uniform_dyads_cost_ln4(self):
        model = _unit_fgrm(6)
        net = sample_network(model, 3)
        assert cross_entropy(model, net) == pytest.approx(math.log(4), abs=1e-12)

    def test_near_certain_model_costs_nothing(self):
        model = FittedModel(ModelKind.RCM, {"x": np.full(4, 1e-300),
                                            "y": np.full(4, 1e-300),
                                            "z": np.full(4, 1e160)})
        net = DirectedNetwork(np.ones((4, 4)) - np.eye(4))
        assert cross_entropy(model, net) == 0.0

    def test_three_node_hand_computation(self):
        fitness = FitnessData(np.array([1.0, 2.0, 0.5]), np.array([1.0, 1.0, 4.0]))
        model = FittedModel(ModelKind.FGRM, {"u": 0.5, "v": 2.0}, fitness=fitness)
        net = DirectedNetwork.from_links(3, [(0, 1), (1, 0), (2, 0)])
        from oracles import fgrm_dyad_probs
        a, l = fitness.assets, fitness.liabilities
        d01 = fgrm_dyad_probs(0.5, 2.0, a[0], l[0], a[1], l[1])
        d02 = fgrm_dyad_probs(0.5, 2.0, a[0], l[0], a[2], l[2])
        d12 = fgrm_dyad_probs(0.5, 2.0, a[1], l[1], a[2], l[2])
        want = -(math.log(d01.p_both) + math.log(d02.p_ji_only)
                 + math.log(d12.p_none)) / 3
        assert cross_entropy(model, net) == pytest.approx(want, abs=1e-12)

    def test_impossible_observation_reports_infinity(self):
        fitness = FitnessData(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        model = FittedModel(ModelKind.FDCM, {"z": 1.0}, fitness=fitness)
        net = DirectedNetwork.from_links(2, [(1, 0)])  # model says p = 0
        assert cross_entropy(model, net) == math.inf

    def test_truth_beats_wrong_model_on_average(self):
        rng = np.random.default_rng(5)
        n = 30
        fitness = FitnessData(rng.lognormal(0, 0.5, n), rng.lognormal(0, 0.5, n))
        from reconnet import fit_fgrm
        truth = fit_fgrm(fitness, 0.15, 0.5)
        d, _ = expected_metrics(truth)
        rival = fit_fdcm(fitness, d)
        gaps = []
        for k in range(40):
            net = sample_network(truth, derive_subseed(9, k))
            gaps.append(cross_entropy(rival, net) - cross_entropy(truth, net))
        assert np.mean(gaps) > 0


class TestRhoLandmarks:
    def test_two_sign_changes_takes_maximum_crossing(self):
        delta_ts = [1, 5, 10, 20, 40, 80]
        rhos = [-0.02, 0.01, -0.03, -0.01, 0.02, 0.05]
        t_min, rho_min, t_max, rho_max, t_0 = extract_rho_landmarks(delta_ts, rhos)
        assert (t_min, rho_min) == (10, -0.03)
        assert (t_max, rho_max) == (80, 0.05)
        # crossings: 1->5, 5->10, and 20->40; the last one wins, and the
        # zero sits at 20 + 20 * (0.01/0.03) = 26.7 days, nearer to 20
        assert t_0 == 20

    def test_crossing_snaps_to_nearer_grid_point(self):
        _, _, _, _, t_0 = extract_rho_landmarks([10, 20], [-0.01, 0.03])
        # zero at 10 + 10 * 0.25 = 12.5 -> nearer to 10
        assert t_0 == 10
        _, _, _, _, t_0 = extract_rho_landmarks([10, 20], [-0.03, 0.01])
        assert t_0 == 20

    def test_exact_zero_is_a_crossing(self):
        _, _, _, _, t_0 = extract_rho_landmarks([1, 2, 3], [-0.1, 0.0, -0.2])
        assert t_0 == 2

    def test_no_crossing(self):
        _, _, _, _, t_0 = extract_rho_landmarks([1, 2], [0.1, 0.2])
        assert t_0 is None


class TestScan:
    def test_fdcm_truth_scans_near_zero(self):
        n = 30
        fitness = FitnessData(np.full(n, 1.0), np.full(n, 1.0))
        truth = fit_fdcm(fitness, 0.03)
        rhos = []
        for s in range(4):
            records = synth_transactions(truth, 2001, 60, seed=derive_subseed(41, s))
            result = scan_aggregations(records, 2001, [1, 10, 30, 60], fitness=fitness)
            rhos.extend(row.mean_rho for row in result.rows if not row.missing)
        assert np.max(np.abs(rhos)) < 0.1
        assert abs(np.mean(rhos)) < 0.02

    def test_window_bookkeeping(self):
        n = 10
        fitness = FitnessData(np.full(n, 1.0), np.full(n, 1.0))
        truth = fit_fdcm(fitness, 0.05)
        records = synth_transactions(truth, 2001, 30, seed=7)
        result = scan_aggregations(records, 2001, [7], fitness=fitness)
        row = result.rows[0]
        assert row.window_count + row.skipped_windows == 4  # 30 // 7
        assert len(result.windows) == row.window_count

    def test_windows_match_the_record_loop_bit_for_bit(self):
        # a stream out of day order with spread-out amounts: each window's
        # weights, hence its fitness and r_fdcm, depend on the summation order
        rng = np.random.default_rng(3)
        days = trading_days(2003, 20)
        banks = [f"B{k}" for k in range(12)]
        records = []
        for _ in range(1000):
            i, j = rng.choice(12, 2, replace=False)
            records.append(TransactionRecord(days[rng.integers(20)], banks[i], banks[j],
                                             float(rng.lognormal(0.0, 2.0))))
        table = table_of(records)
        result = scan_aggregations(table, 2003, [1, 5, 10])
        index = index_year(table, 2003)
        want = []
        for delta_t in (1, 5, 10):
            for window in build_windows(index, delta_t):
                net = aggregate_record_loop(records, 2003, index.days[window.first:window.stop])
                assert np.array_equal(aggregate(index, window).weights, net.weights)
                m = degrees_strengths(net)
                if m.link_count == 0:
                    continue
                _, r_fdcm = expected_metrics(fit_fdcm(fitness_from_strengths(net), m.d))
                want.append((delta_t, window.window_index, m.d, m.r, r_fdcm, rho(m.r, r_fdcm)))
        got = [(w.delta_t, w.window_index, w.density, w.reciprocity, w.r_fdcm, w.rho)
               for w in result.windows]
        # the scan sums strengths in day order, not per cell in file order: the
        # fit's input, hence r_fdcm and rho, may differ in the last bits
        assert [g[:4] for g in got] == [w[:4] for w in want]
        assert [g[4] for g in got] == pytest.approx([w[4] for w in want], rel=1e-12, abs=0)
        assert [g[5] for g in got] == pytest.approx([w[5] for w in want], rel=0, abs=1e-12)
        assert [row.window_count for row in result.rows] == [20, 4, 2]

    def test_window_no_finite_z_reaches_is_skipped(self):
        # day 1 holds one link: with the window's own strengths only that dyad
        # has positive fitness, so the fit could not reach the density
        days = trading_days(2007, 2)
        records = [TransactionRecord(days[0], "A", "B", 1.0)] + [
            TransactionRecord(days[1], i, j, 2.0) for i, j in ("AB", "BA", "CA", "BC")]
        table = table_of(records)
        result = scan_aggregations(table, 2007, [1, 2])
        assert [(r.window_count, r.skipped_windows) for r in result.rows] == [(1, 1), (1, 0)]
        assert [(w.delta_t, w.window_index) for w in result.windows] == [(1, 1), (2, 0)]
        pinned = scan_aggregations(table, 2007, [1], fitness=FitnessData(np.ones(3), np.ones(3)))
        assert (pinned.rows[0].window_count, pinned.rows[0].skipped_windows) == (2, 0)

    @staticmethod
    def _stream_with_edge_windows(seed):
        """A synth stream plus a day with one loan and a trading day with none."""
        fitness = synth_fitness(30, "lognormal(0,1)", seed)
        truth = fit_fgrm(fitness, 0.08, 0.3)
        records = records_of(synth_transactions(truth, 2009, 40, seed=derive_subseed(seed, 1)))
        last = max(r.date for r in records)
        records.append(TransactionRecord(last + datetime.timedelta(days=1), records[0].lender,
                                         records[0].borrower, 2.5))
        table = table_of(records)
        # a date of the calendar that no row refers to: its window has no links
        empty = table.dates[-1] + datetime.timedelta(days=1)
        return fitness, dataclasses.replace(table, dates=table.dates + (empty,))

    @pytest.mark.parametrize("seed", [1, 7919])
    @pytest.mark.parametrize("pinned", [False, True])
    def test_matches_the_window_by_window_oracle(self, seed, pinned):
        fitness, table = self._stream_with_edge_windows(seed)
        grid = [1, 2, 3, 5, 8, 13, 21, 42]
        pin = fitness if pinned else None
        got = scan_aggregations(table, 2009, grid, fitness=pin)
        want = scan_window_by_window(table, 2009, grid, fitness=pin)
        exact = ("delta_t", "window_index", "density", "reciprocity")
        assert [[getattr(w, k) for k in exact] for w in got.windows] == \
            [[getattr(w, k) for k in exact] for w in want.windows]
        assert [w.r_fdcm for w in got.windows] == \
            pytest.approx([w.r_fdcm for w in want.windows], rel=1e-12, abs=0)
        assert [w.rho for w in got.windows] == \
            pytest.approx([w.rho for w in want.windows], rel=0, abs=1e-12)
        exact = ("delta_t", "window_count", "skipped_windows", "mean_density", "mean_reciprocity")
        assert repr([[getattr(r, k) for k in exact] for r in got.rows]) == \
            repr([[getattr(r, k) for k in exact] for r in want.rows])
        assert [r.mean_r_fdcm for r in got.rows] == \
            pytest.approx([r.mean_r_fdcm for r in want.rows], rel=1e-12, abs=0, nan_ok=True)
        assert [r.mean_rho for r in got.rows] == \
            pytest.approx([r.mean_rho for r in want.rows], rel=0, abs=1e-12, nan_ok=True)
        assert (got.t_min, got.t_0, got.t_max) == (want.t_min, want.t_0, want.t_max)
        assert [got.rho_min, got.rho_max] == \
            pytest.approx([want.rho_min, want.rho_max], rel=0, abs=1e-12)
        # the edge windows are there: at delta_t = 1 the loan-less day and,
        # with the window's own strengths, the one-loan day are skipped
        assert got.rows[0].skipped_windows == (1 if pinned else 2)

    def test_nonconvergence_propagates_like_the_oracle(self):
        _, table = self._stream_with_edge_windows(1)
        config = SolverConfig(max_iterations=1)
        for scan in (scan_aggregations, scan_window_by_window):
            with pytest.raises(NonConvergenceError):
                scan(table, 2009, [5], solver_config=config)

    def test_relabeling_invariance_of_rho(self):
        # rho depends only on the two scalar reciprocities
        assert rho(0.4, 0.1) == rho(0.4, 0.1)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(DomainError):
            scan_aggregations(table_of([]), 2001, [5, 1])

    def test_year_shorter_than_the_smallest_delta_t_has_nothing_to_scan(self):
        days = trading_days(2007, 3)
        table = table_of(TransactionRecord(day, "A", "B", 1.0) for day in days)
        for year, grid in ((2007, [4, 5]), (2008, [1])):
            with pytest.raises(DataValidationError, match=f"no complete windows for year {year}"):
                scan_aggregations(table, year, grid)
        # a delta_t longer than the year beside a shorter one is a missing row
        result = scan_aggregations(table, 2007, [3, 4])
        assert [(r.delta_t, r.window_count, r.missing) for r in result.rows] == \
            [(3, 0, True), (4, 0, True)]

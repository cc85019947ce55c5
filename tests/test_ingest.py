import datetime as dt
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    TransactionRecord,
    aggregate_record_loop,
    assert_same_table,
    parse_transactions_row_by_row,
    records_of,
    synth_transactions_per_record,
    table_of,
    write_transactions_per_row,
)

from reconnet import (
    AggregationWindow,
    FitnessData,
    FittedModel,
    ModelKind,
    aggregate,
    build_windows,
    derive_subseed,
    fitness_from_strengths,
    sample_network,
    serialize,
    synth_fitness,
    synth_transactions,
)
from reconnet.errors import ConfigurationError, DataValidationError, ParseError
from reconnet.graph import MAX_NODES
from reconnet.ingest import (
    TransactionTable,
    YearIndex,
    index_year,
    trading_days,
)
from reconnet.serialize import (
    read_fitness_csv,
    read_transactions,
    write_fitness_csv,
    write_transactions_csv,
)

FIXTURE = """date,lender,borrower,amount
2007-03-01,B1,B2,10.5
2007-03-01,B2,B3,4.0
2007-03-02,B1,B2,2.5
2007-03-02,B3,B1,7.0
2007-03-05,B2,B1,1.0
"""


def parse(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "transactions.csv"
        path.write_text(text, encoding="utf-8", newline="")
        return read_transactions(path)


def snapshots(table, delta_t):
    """The networks of the table's delta_t-day windows in 2007."""
    index = index_year(table, 2007)
    return [aggregate(index, window) for window in build_windows(index, delta_t)]


def whole_year(table):
    """The network of one window over every trading day of 2007."""
    index = index_year(table, 2007)
    return aggregate(index, AggregationWindow(len(index.days), 0))


def window_days(index, window):
    return index.days[window.first:window.stop]


class TestParsing:
    def test_single_record_with_maturity(self):
        # the maturity field is width-checked and then dropped
        table = parse("date,lender,borrower,amount,maturity\n2007-03-01,B1,B2,10.5,ON\n")
        assert table.dates == (dt.date(2007, 3, 1),) and table.labels == ("B1", "B2")
        assert (table.day.tolist(), table.lender.tolist(), table.borrower.tolist()) == \
            ([0], [0], [1])
        assert table.amount.tolist() == [10.5] and not hasattr(table, "maturity")
        with pytest.raises(ParseError, match="expected 5 fields, got 4") as err:
            parse("date,lender,borrower,amount,maturity\n2007-03-01,B1,B2,10.5\n")
        assert err.value.line == 2

    def test_negative_amount_rejected_with_line(self):
        with pytest.raises(DataValidationError) as err:
            parse("date,lender,borrower,amount\n2007-03-01,B1,B2,-3\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("amount", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_amount_rejected_with_line(self, amount):
        with pytest.raises(DataValidationError) as err:
            parse(f"date,lender,borrower,amount\n2007-03-01,B1,B2,5\n2007-03-02,B2,B1,{amount}\n")
        assert err.value.line == 3

    def test_missing_column_is_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse("date,lender,borrower,amount\n2007-03-01,B1,5.0\n")
        assert err.value.line == 2

    def test_self_loop_rejected(self):
        with pytest.raises(DataValidationError):
            parse("date,lender,borrower,amount\n2007-03-01,B1,B1,5.0\n")

    def test_bad_date(self):
        with pytest.raises(ParseError):
            parse("date,lender,borrower,amount\n03/01/2007,B1,B2,5.0\n")

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse("when,from,to,how_much\n2007-03-01,B1,B2,5.0\n")

    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse("")

    def test_calendar_is_distinct_sorted_dates(self):
        table = parse(FIXTURE)
        assert table.dates == (dt.date(2007, 3, 1), dt.date(2007, 3, 2), dt.date(2007, 3, 5))


H4 = "date,lender,borrower,amount\n"
H5 = "date,lender,borrower,amount,maturity\n"
ROW = "2007-03-01,B1,B2,5\n"


class TestBulkRead:
    """numpy reads a plain file in bulk; any other file goes to the row reader.

    Either way the table is the row-by-row parser's, and an error keeps its
    type, message and line.
    """

    @staticmethod
    def read(tmp_path, content: bytes):
        """The table or error of ``content``, and whether the csv module read it."""
        path = tmp_path / "transactions.csv"
        path.write_bytes(content)
        with mock.patch.object(serialize, "open_text", wraps=serialize.open_text) as by_row:
            try:
                table = read_transactions(path)
            except (ParseError, DataValidationError) as exc:
                return path, (type(exc), str(exc), exc.line), by_row.called
        assert_same_table(table, table_of(parse_transactions_row_by_row(path)))
        return path, table, by_row.called

    @pytest.mark.parametrize("content,bulk", [
        (H4 + "2007-03-01," + "B" * 16 + ",B2,5\n", True),
        (H4 + "2007-03-01,Caisse régionale de crédit agricole mutuel,B2,5\n", True),
        (H4 + "  2007-03-01    ,B1,B2,5\n" + ROW, True),  # a date of 16 bytes
        (H4 + '2007-03-01,"B,1",B2,5\n', False),
        (H4 + '2007-03-01,"B1",B2,5\n', False),  # numpy would keep the quotes
        (H4 + "2007-03-01,B\x001,B2,5\n", False),
        (H4 + "2007-03-01,B1,B2,5\r2007-03-02,B2,B1,6\r", False),  # numpy refuses a lone \r
        (H4 + "2007-03-01,B1,B2,5\r\r\n2007-03-02,B2,B1,6\r\n", False),
        (H4 + "2007-03-01,\u00a0B1,B2\u2028,5\n2007-03-02,B2,B1 ,6\n", True),  # strip() both
        (H4 + "20070301,B1,B2,5\r\n\r\n2007-03-02,B2,B1,6\r\n", True),
        (H5 + "2007-03-01,B1,B2,5,ON\n", True),  # the maturity field is only counted
        (H4 + "2007-03-01,B1,B2,1_000\n", False),  # float() reads what numpy does not
        (H4, False),  # no rows
        (H4 + "2007-03-01,B1," + "B" * 115 + ",5\n", True),  # a line of 131 bytes
        (H4 + "2007-03-01,B1," + "B" * 116 + ",5\n", False),  # may hold a field of 129 bytes
        (" Date ,LENDER,borrower,Amount\n" + ROW, False),  # numpy takes a lower-case header only
    ])
    def test_a_file_the_row_reader_must_read_is_left_to_it(self, tmp_path, content, bulk):
        _, table, by_row = self.read(tmp_path, content.encode("utf-8"))
        assert isinstance(table, TransactionTable) and by_row != bulk

    @pytest.mark.parametrize("content,error", [
        (H4 + ROW + "2007-03-02,\u00a0,B1,6\n",
         (ParseError, "line 3: empty lender or borrower field", 3)),
        (H4 + ROW + "2001-01,B1,B2,5\n",  # numpy's datetime64 reads it as 2001-01-01
         (ParseError, "line 3: bad ISO-8601 date '2001-01'", 3)),
        (H5 + "2007-03-01,B1,B2,5,ON\n" + ROW, (ParseError, "line 3: expected 5 fields, got 4", 3)),
        (H4 + ROW + "2007-03-02,B2,B1,-6\n",
         (DataValidationError, "line 3: amount must be positive and finite, got -6.0", 3)),
        (H4 + ROW + "2007-03-02,B2,B1,nan\n",
         (DataValidationError, "line 3: amount must be positive and finite, got nan", 3)),
        (H4 + ROW + "2007-03-02,B2, B2 ,6\n",
         (DataValidationError, "line 3: self-loop transaction for 'B2'", 3)),
        (H4 + ROW + "  \n", (ParseError, "line 3: expected 4 fields, got 1", 3)),
        (H4 + ROW + "2007-03-02,B1," + "B" * (1 << 17) + "C,6\n",
         (ParseError, "line 3: field larger than field limit (131072)", 3)),
    ])
    def test_only_the_row_reader_reports_an_error(self, tmp_path, content, error):
        _, outcome, by_row = self.read(tmp_path, content.encode("utf-8"))
        assert outcome == error and by_row

    @pytest.mark.parametrize("content", [
        (H4 + ROW).encode() + b"2007-03-02,B\xff,B1,6\n",
        (H5 + "2007-03-01,B1,B2,5,ON\n").encode() + b"2007-03-02,B2,B1,6,O\xff\n",
    ])
    def test_bytes_that_are_not_utf8_are_left_to_the_row_reader(self, tmp_path, content):
        path, outcome, by_row = self.read(tmp_path, content)
        assert outcome == (ParseError, f"line 3: {path}: not UTF-8 text (invalid start byte)", 3)
        assert by_row

    def test_fields_that_differ_under_one_key_are_left_to_the_row_reader(self, tmp_path):
        # with a zero multiplier a key is a field's last word, 0 for B1 and B2
        with mock.patch.object(serialize, "_MIX", np.uint64(0)):
            _, table, by_row = self.read(tmp_path, (H4 + ROW + "2007-03-02,B2,B1,6\n").encode())
        assert table.labels == ("B1", "B2") and by_row

    @pytest.mark.filterwarnings("error")  # numpy warns on a block of blank lines
    @pytest.mark.parametrize("long", [0, 150, 299])  # the row with a 40-byte lender
    def test_blocks_of_lines_give_the_table_of_the_whole_file(self, tmp_path, long):
        content = (H4 + "\n".join(f"2007-03-{1 + k % 28:02d},{'B' * 39 if k == long else 'B'}"
                                   f"{k % 7},C{k % 5},{k + 1}" for k in range(300))
                   + "\n\n\n").encode()
        _, whole, _ = self.read(tmp_path, content)
        for block_bytes in (1, 64, 4096):
            with mock.patch.object(serialize, "_BLOCK_BYTES", block_bytes):
                _, table, by_row = self.read(tmp_path, content)
            assert_same_table(table, whole)
            assert not by_row


class TestWindows:
    def test_trailing_partial_dropped(self):
        index = index_year(parse(FIXTURE), 2007)  # 3 trading days
        windows = build_windows(index, 2)
        assert windows == [AggregationWindow(2, 0)]
        assert window_days(index, windows[0]) == (dt.date(2007, 3, 1), dt.date(2007, 3, 2))

    def test_windows_disjoint_consecutive(self):
        recs = parse(FIXTURE)
        index = index_year(recs, 2007)
        windows = build_windows(index, 1)
        assert [w.window_index for w in windows] == [0, 1, 2]
        assert [(w.first, w.stop) for w in windows] == [(0, 1), (1, 2), (2, 3)]
        all_days = tuple(d for w in windows for d in window_days(index, w))
        assert all_days == recs.dates

    def test_bad_delta_t(self):
        with pytest.raises(ConfigurationError):
            build_windows(index_year(parse(FIXTURE), 2007), 0)


class TestAggregate:
    def test_collapse_rule(self):
        recs = parse("date,lender,borrower,amount\n"
                     "2007-03-01,B1,B2,5\n2007-03-01,B1,B2,7\n")
        net = snapshots(recs, 1)[0]
        i, j = net.labels.index("B1"), net.labels.index("B2")
        assert net.adjacency[i, j] == 1
        assert net.weights[i, j] == 12.0

    def test_out_of_window_excluded(self):
        net = snapshots(parse(FIXTURE), 1)[0]
        b3, b1 = net.labels.index("B3"), net.labels.index("B1")
        assert net.adjacency[b3, b1] == 0  # B3->B1 happens on day 2

    def test_yearly_window_hand_enumerated(self):
        net = snapshots(parse(FIXTURE), 3)[0]
        assert net.labels == ("B1", "B2", "B3")
        want_w = np.array([
            [0.0, 13.0, 0.0],   # B1->B2: 10.5 + 2.5
            [1.0, 0.0, 4.0],    # B2->B1: 1.0, B2->B3: 4.0
            [7.0, 0.0, 0.0],    # B3->B1: 7.0
        ])
        np.testing.assert_array_equal(net.weights, want_w)
        np.testing.assert_array_equal(net.adjacency, (want_w > 0).astype(int))

    def test_node_set_constant_across_windows(self):
        for net in snapshots(parse(FIXTURE), 1):
            assert net.labels == ("B1", "B2", "B3")

    def test_union_property(self):
        recs = parse(FIXTURE)
        yearly = snapshots(recs, 3)[0].adjacency
        union = np.zeros_like(yearly)
        for net in snapshots(recs, 1):
            union |= net.adjacency
        np.testing.assert_array_equal(union, yearly)

    def test_weight_split_merge(self):
        # both batches touch all three banks, so the label spaces align
        records = records_of(parse(FIXTURE))
        whole = whole_year(table_of(records))
        part1 = whole_year(table_of(records[:3]))
        part2 = whole_year(table_of(records[3:]))
        assert part1.labels == part2.labels == whole.labels
        np.testing.assert_array_equal(part1.weights + part2.weights, whole.weights)


def assert_same_network(got, want):
    """Labels, adjacency and weights equal bit for bit."""
    assert got.labels == want.labels
    assert got.adjacency.tobytes() == want.adjacency.tobytes()
    assert got.weights.dtype == want.weights.dtype
    assert got.weights.tobytes() == want.weights.tobytes()


# trading days straddling a year end, so streams span two years
_DAYS = [dt.date(2006, 12, 27) + dt.timedelta(days=k) for k in range(12)]


@st.composite
def streams(draw, max_records=60):
    """Records in arbitrary (not day) order, several loans per cell, mixed magnitudes."""
    banks = [f"B{k}" for k in range(draw(st.integers(2, 6)))]
    count = draw(st.integers(0, max_records))
    records = []
    for _ in range(count):
        lender, borrower = draw(st.permutations(banks))[:2]
        amount = draw(st.floats(1e-3, 1e9, allow_nan=False, allow_infinity=False)
                      | st.sampled_from([0.1, 0.2, 0.3, 1.0]))
        records.append(TransactionRecord(draw(st.sampled_from(_DAYS)), lender, borrower,
                                         amount))
    return records


class TestIndexedAggregation:
    """The indexed aggregation against the record-loop oracle, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(streams(), st.sampled_from([2006, 2007]), st.integers(1, 9), st.data())
    def test_every_window_matches_the_record_loop(self, records, year, delta_t, data):
        # all the records, and a head of them with its own calendar
        cut = data.draw(st.integers(0, len(records)))
        for part in (records, records[:cut]):
            index = index_year(table_of(part), year)
            windows = build_windows(index, delta_t)
            # a single window over the whole year as well
            if index.days:
                windows.append(AggregationWindow(len(index.days), 0))
            for window in windows:
                want = aggregate_record_loop(part, year, window_days(index, window))
                assert_same_network(aggregate(index, window), want)

    @settings(max_examples=100, deadline=None)
    @given(streams(), st.sampled_from([2006, 2007]))
    def test_index_from_a_table_equals_the_index_from_records(self, records, year):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "transactions.csv"
            write_transactions_csv(path, table_of(records))
            table = read_transactions(path)
        want = index_year(table_of(records), year)
        got = index_year(table, year)
        assert (got.year, got.labels, got.days) == (want.year, want.labels, want.days)
        for name in ("cell", "amount", "order", "bounds"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name

    def test_shuffled_stream_sums_in_file_order(self):
        # in floating point, (1 + 1) + 1e16 is 1e16 + 2 but (1e16 + 1) + 1 is 1e16
        recs = [TransactionRecord(dt.date(2007, 1, 3), "A", "B", 1.0),
                TransactionRecord(dt.date(2007, 1, 3), "A", "B", 1.0),
                TransactionRecord(dt.date(2007, 1, 2), "A", "B", 1e16),
                TransactionRecord(dt.date(2007, 1, 2), "B", "A", 2.0)]
        index = index_year(table_of(recs), 2007)
        net = aggregate(index, build_windows(index, 2)[0])
        assert net.weights[0, 1] == 1e16 + 2.0 != (1e16 + 1.0) + 1.0
        assert_same_network(net, aggregate_record_loop(recs, 2007, index.days))

    def test_index_arrays(self):
        recs = parse(FIXTURE)
        index = index_year(recs, 2007)
        assert index.labels == ("B1", "B2", "B3")
        assert index.days == recs.dates
        np.testing.assert_array_equal(index.cell, [0 * 3 + 1, 1 * 3 + 2, 1, 2 * 3 + 0, 3])
        np.testing.assert_array_equal(index.amount, [10.5, 4.0, 2.5, 7.0, 1.0])
        np.testing.assert_array_equal(index.bounds, [0, 2, 4, 5])

    def test_other_years_left_out(self):
        recs = parse(FIXTURE + "2008-01-02,B4,B1,3.0\n")
        index = index_year(recs, 2007)
        assert "B4" not in index.labels and len(index.amount) == 5
        assert index.days == recs.dates[:3]
        assert len(build_windows(index, 1)) == 3

    def test_window_past_the_last_day_rejected(self):
        index = index_year(parse(FIXTURE), 2007)  # 3 trading days
        aggregate(index, AggregationWindow(1, 2))
        for window in (AggregationWindow(1, 3), AggregationWindow(2, 1), AggregationWindow(4, 0)):
            with pytest.raises(ConfigurationError, match="ends after day 3"):
                aggregate(index, window)

    def test_empty_stream_gives_an_empty_index(self):
        index = index_year(table_of([]), 2007)
        assert isinstance(index, YearIndex) and index.labels == index.days == ()
        assert build_windows(index, 1) == []

    def test_more_banks_than_max_nodes_is_a_data_error(self):
        # every bank lends in 2006; two of them lend in 2007
        n = MAX_NODES + 1
        banks = np.arange(n)
        table = TransactionTable(
            dates=(dt.date(2006, 12, 29), dt.date(2007, 1, 2)),
            day=np.repeat([0, 1], [n, 2]), labels=tuple(f"B{k:05d}" for k in banks),
            lender=np.concatenate([banks, [0, 1]]),
            borrower=np.concatenate([(banks + 1) % n, [1, 0]]),
            amount=np.ones(n + 2))
        with pytest.raises(DataValidationError, match=f"year 2006 has {n} banks"):
            index_year(table, 2006)
        assert index_year(table, 2007).labels == ("B00000", "B00001")


class TestFitness:
    def test_single_loan(self):
        recs = parse("date,lender,borrower,amount\n2007-03-01,B1,B2,5\n")
        fit = fitness_from_strengths(snapshots(recs, 1)[0])
        np.testing.assert_array_equal(fit.assets, [5.0, 0.0])
        np.testing.assert_array_equal(fit.liabilities, [0.0, 5.0])

    def test_reciprocal_loans(self):
        recs = parse("date,lender,borrower,amount\n"
                     "2007-03-01,B1,B2,2\n2007-03-01,B2,B1,3\n")
        fit = fitness_from_strengths(snapshots(recs, 1)[0])
        np.testing.assert_array_equal(fit.assets, [2.0, 3.0])
        np.testing.assert_array_equal(fit.liabilities, [3.0, 2.0])

    def test_fixture_totals_match_volume(self):
        recs = parse(FIXTURE)
        fit = fitness_from_strengths(snapshots(recs, 3)[0])
        total = sum(recs.amount.tolist())
        assert fit.assets.sum() == pytest.approx(total)
        assert fit.liabilities.sum() == pytest.approx(total)

    def test_more_nodes_than_max_nodes_is_a_data_error(self):
        assert FitnessData(np.ones(MAX_NODES), np.ones(MAX_NODES)).n == MAX_NODES
        n = MAX_NODES + 1
        with pytest.raises(DataValidationError, match=f"fitness has {n} nodes"):
            FitnessData(np.ones(n), np.ones(n))

    @pytest.mark.parametrize("assets,liabilities", [([np.nan, 1.0], [1.0, 1.0]),
                                                    ([1.0, 1.0], [1.0, np.nan])])
    def test_nan_fitness_is_a_data_error(self, assets, liabilities):
        with pytest.raises(DataValidationError, match="NaN"):
            FitnessData(np.array(assets), np.array(liabilities))

    def test_infinite_fitness_is_taken(self):
        assert FitnessData(np.array([np.inf, 1.0]), np.ones(2)).n == 2

    def test_unweighted_rejected(self):
        from reconnet import DirectedNetwork
        with pytest.raises(DataValidationError):
            fitness_from_strengths(DirectedNetwork(np.zeros((3, 3))))


class TestSynthFitness:
    def test_constant(self):
        fit = synth_fitness(10, "constant(1)", 0)
        assert (fit.assets == 1.0).all() and (fit.liabilities == 1.0).all()

    def test_deterministic(self):
        a = synth_fitness(50, "lognormal(0,1)", 7)
        b = synth_fitness(50, "lognormal(0,1)", 7)
        np.testing.assert_array_equal(a.assets, b.assets)
        np.testing.assert_array_equal(a.liabilities, b.liabilities)

    def test_lognormal_log_mean(self):
        n = MAX_NODES
        fit = synth_fitness(n, "lognormal(0,1)", 3)
        assert abs(np.log(fit.assets).mean()) < 4 / np.sqrt(n)

    def test_pareto_support(self):
        fit = synth_fitness(1000, "pareto(2.5,3.0)", 5)
        assert fit.assets.min() >= 3.0

    def test_bad_specs(self):
        for bad in ("lognormal(0)", "uniform(0,1)", "pareto(-1,1)", "constant(0)",
                    "lognormal(a,b)"):
            with pytest.raises(ConfigurationError):
                synth_fitness(5, bad, 0)

    def test_too_few_nodes(self):
        with pytest.raises(ConfigurationError):
            synth_fitness(1, "constant(1)", 0)


class TestSynthTransactions:
    def test_deterministic_and_well_formed(self):
        fitness = FitnessData(np.ones(5), np.ones(5))
        model = FittedModel(ModelKind.FDCM, {"z": 1.0}, fitness=fitness)
        recs1 = records_of(synth_transactions(model, 2010, 10, seed=4))
        recs2 = records_of(synth_transactions(model, 2010, 10, seed=4))
        assert [(r.date, r.lender, r.borrower, r.amount) for r in recs1] == \
               [(r.date, r.lender, r.borrower, r.amount) for r in recs2]
        assert all(r.date.year == 2010 and r.date.weekday() < 5 for r in recs1)
        assert len({r.date for r in recs1}) <= 10

    def test_day_k_is_the_network_drawn_with_sub_seed_k(self):
        fitness = FitnessData(np.linspace(0.5, 2.0, 6), np.linspace(2.0, 0.5, 6))
        model = FittedModel(ModelKind.FDCM, {"z": 0.4}, fitness=fitness)
        recs = records_of(synth_transactions(model, 2010, 8, seed=11))
        for k, day in enumerate(trading_days(2010, 8)):
            a = np.zeros((6, 6), dtype=np.int8)
            for r in recs:
                if r.date == day:
                    a[int(r.lender[1:]), int(r.borrower[1:])] = 1
            np.testing.assert_array_equal(a, sample_network(model, derive_subseed(11, k)).adjacency)

    def test_record_validation(self):
        # the reader raises the record's own message
        with pytest.raises(DataValidationError) as want:
            TransactionRecord(dt.date(2010, 1, 1), "A", "B", 0.0)
        with pytest.raises(DataValidationError) as err:
            parse("date,lender,borrower,amount\n2010-01-01,A,B,0\n")
        assert str(err.value) == f"line 2: {want.value}"

    @pytest.mark.parametrize("sigma", [-0.5, float("nan"), float("inf")])
    def test_amount_sigma_must_be_nonnegative_and_finite(self, sigma):
        model = FittedModel(ModelKind.FDCM, {"z": 1.0}, fitness=FitnessData(np.ones(4), np.ones(4)))
        with pytest.raises(ConfigurationError, match="amount_sigma"):
            synth_transactions(model, 2010, 2, seed=1, amount_sigma=sigma)

    def test_overflowing_amounts_are_rejected(self):
        model = FittedModel(ModelKind.FDCM, {"z": 1.0}, fitness=FitnessData(np.ones(4), np.ones(4)))
        with pytest.raises(DataValidationError, match="positive and finite"):
            synth_transactions(model, 2010, 2, seed=1, amount_sigma=1e308)


class TestSynthAgainstPerRecordOracle:
    """The columnar synth and writer against the record-by-record ones, byte for byte."""

    MODELS = {
        "fdcm": FittedModel(ModelKind.FDCM, {"z": 0.3}, fitness=FitnessData(
            np.linspace(0.2, 3.0, 14), np.linspace(3.0, 0.2, 14))),
        "fgrm": FittedModel(ModelKind.FGRM, {"u": 0.05, "v": 6.0}, fitness=FitnessData(
            np.geomspace(0.1, 10.0, 17), np.geomspace(5.0, 0.5, 17))),
    }

    @pytest.mark.parametrize("kind", ["fdcm", "fgrm"])
    @pytest.mark.parametrize("sigma", [0.0, 2.0])
    @pytest.mark.parametrize("seed", [1, 7919, 2**64 - 1])
    def test_transactions_csv_is_byte_identical(self, tmp_path, kind, sigma, seed):
        model = self.MODELS[kind]
        table = synth_transactions(model, 2011, 12, seed, amount_sigma=sigma)
        records = synth_transactions_per_record(model, 2011, 12, seed, amount_sigma=sigma)
        assert records_of(table) == records
        write_transactions_csv(tmp_path / "table.csv", table)
        write_transactions_per_row(tmp_path / "oracle.csv", records)
        assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        want = table_of(records)
        assert (table.dates, table.labels) == (want.dates, want.labels)
        for name in ("day", "lender", "borrower", "amount"):
            got, expected = getattr(table, name), getattr(want, name)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name

    def test_days_and_banks_without_links_are_left_out(self):
        # z = 0 except through one bank: only its links, on the days they fall
        fitness = FitnessData(np.array([0.0, 0.0, 5.0, 0.0]), np.array([1.0, 1.0, 0.0, 0.0]))
        model = FittedModel(ModelKind.FDCM, {"z": 0.2}, fitness=fitness)
        table = synth_transactions(model, 2011, 30, seed=3)
        records = synth_transactions_per_record(model, 2011, 30, seed=3)
        assert 0 < len(table.dates) < 30
        assert table.labels == ("B0000", "B0001", "B0002")
        assert records_of(table) == records


class TestFitnessCsv:
    def test_roundtrip(self, tmp_path):
        fit = FitnessData(np.array([1.5, 0.0, 2.25]), np.array([0.5, 3.0, 0.025]))
        path = tmp_path / "fitness.csv"
        write_fitness_csv(path, fit, labels=["a", "b", "c"])
        back, labels = read_fitness_csv(path)
        np.testing.assert_array_equal(back.assets, fit.assets)
        np.testing.assert_array_equal(back.liabilities, fit.liabilities)
        assert labels == ["a", "b", "c"]


class TestTradingDays:
    def test_first_weekdays(self):
        days = trading_days(2010, 3)
        assert days == [dt.date(2010, 1, 1), dt.date(2010, 1, 4), dt.date(2010, 1, 5)]

    def test_every_weekday_of_a_year_ending_on_a_weekday(self):
        days = trading_days(2001, 261)  # 2001-12-31 is a Monday
        assert days[-1] == dt.date(2001, 12, 31)
        assert len(set(days)) == 261 and all(d.weekday() < 5 for d in days)

    @pytest.mark.parametrize("year,n_days,message", [
        (2010, 0, "days must be >= 1"),
        (2010, -3, "days must be >= 1"),
        (2001, 262, "fewer than 262 weekdays"),
        (0, 5, "year must lie in"),
        (10000, 5, "year must lie in"),
        (9999, 300, "fewer than 300 weekdays"),
    ])
    def test_rejected(self, year, n_days, message):
        with pytest.raises(ConfigurationError, match=message):
            trading_days(year, n_days)

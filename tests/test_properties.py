"""Property tests of the CSV readers and writers.

Writing then reading transactions, fitness, edge lists and node lists
gives back what was written, bit for bit. A valid file with one malformed
row inserted anywhere must end in a ParseError or DataValidationError that
names that row's line, and in CLI exit code 2. The bulk edge-list and
transactions readers and the distinct-value CSV writer match their
row-by-row and cell-by-cell references, the writer across chunks of rows
too. A mutated config, model, report, node, edge-list, fitness or
transactions file must end the CLI with exit code 0, 1, 2 or 3 and at most
a one-line message, never a traceback. An integer config field refuses a
number with a fraction and a bool with exit code 1.
"""

import contextlib
import datetime as dt
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    TransactionRecord,
    assert_same_table,
    parse_transactions_row_by_row,
    read_fitness_row_by_row,
    read_network_row_by_row,
    records_of,
    table_of,
    write_csv_per_cell,
    write_transactions_per_row,
)

from reconnet import DirectedNetwork, serialize
from reconnet.cli import main
from reconnet.errors import DataValidationError, ParseError, ReconError
from reconnet.ingest import FitnessData, parse_transactions
from reconnet.serialize import (
    read_fitness_csv,
    read_network,
    read_nodes,
    read_transactions,
    write_csv,
    write_fitness_csv,
    write_network,
    write_nodes,
    write_transactions_csv,
)

FUZZ = settings(max_examples=60, deadline=None)
CLI_FUZZ = settings(max_examples=10, deadline=None)

# any text without surrogates; the readers strip names, so these are stripped too
text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
names = text.map(str.strip).filter(bool)
positive = st.floats(min_value=5e-324, max_value=1.7e308)
nonnegative = st.floats(min_value=0.0, max_value=1.7e308)


def _tmp():
    return tempfile.TemporaryDirectory()


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


@st.composite
def transaction_records(draw):
    lender, borrower = draw(st.lists(names, min_size=2, max_size=2, unique=True))
    return TransactionRecord(draw(st.dates()), lender, borrower, draw(positive))


@FUZZ
@given(st.lists(transaction_records(), max_size=20))
def test_transactions_round_trip(records):
    with _tmp() as tmp:
        path = Path(tmp) / "transactions.csv"
        want = table_of(records)
        write_transactions_csv(path, want)
        table = read_transactions(path)
        assert records_of(parse_transactions(path)) == records
    assert records_of(table) == records
    assert_same_table(table, want)


@st.composite
def loan_lists(draw):
    """Records with labels the csv module must quote, and repeated dates."""
    awkward = st.sampled_from(['a,b', 'say "hi"', "two\nlines", "semi;colon", "B0001"])
    dates = draw(st.lists(st.dates(), min_size=1, max_size=3))
    records = []
    for _ in range(draw(st.integers(0, 25))):
        lender, borrower = draw(st.lists(awkward | names, min_size=2, max_size=2, unique=True))
        amount = draw(positive | st.integers(1, 2**70) | st.sampled_from([0.1, 1.0, 1e-300]))
        records.append(TransactionRecord(draw(st.sampled_from(dates)), lender, borrower, amount))
    return records


@FUZZ
@given(loan_lists())
def test_transactions_writer_matches_the_per_row_writer(records):
    with _tmp() as tmp:
        want = Path(tmp) / "oracle.csv"
        write_transactions_per_row(want, records)
        got = Path(tmp) / "table.csv"
        write_transactions_csv(got, table_of(records))
        assert got.read_bytes() == want.read_bytes()


@FUZZ
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(names, min_size=n, max_size=n, unique=True),
    st.lists(nonnegative, min_size=n, max_size=n),
    st.lists(nonnegative, min_size=n, max_size=n))))
def test_fitness_round_trip(drawn):
    labels, assets, liabilities = drawn
    assume(max(assets) > 0 and max(liabilities) > 0)
    fitness = FitnessData(np.array(assets), np.array(liabilities))
    with _tmp() as tmp:
        path = Path(tmp) / "fitness.csv"
        write_fitness_csv(path, fitness, labels=labels)
        back, back_labels = read_fitness_csv(path)
    assert back_labels == labels
    assert back.assets.tobytes() == fitness.assets.tobytes()
    assert back.liabilities.tobytes() == fitness.liabilities.tobytes()


@FUZZ
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), positive), max_size=30),
    st.just(n))))
def test_edge_list_round_trip(drawn):
    links, n = drawn
    w = np.zeros((n, n))
    for i, j, weight in links:
        if i != j:
            w[i, j] = weight
    net = DirectedNetwork.from_weight_matrix(w)
    with _tmp() as tmp:
        path = Path(tmp) / "edges.csv"
        write_network(path, net)
        back = read_network(path, n)
    assert back.adjacency.tobytes() == net.adjacency.tobytes()
    assert back.weights.tobytes() == net.weights.tobytes()


@FUZZ
@given(st.lists(text, max_size=12, unique=True))
def test_nodes_round_trip(labels):
    with _tmp() as tmp:
        path = Path(tmp) / "nodes.csv"
        write_nodes(path, labels)
        assert read_nodes(path) == labels


# ---------------------------------------------------------------------------
# malformed rows
# ---------------------------------------------------------------------------

# single-line tokens: no delimiter, quote or line break, so one row is one line
token = st.text(st.sampled_from("abxyz0123456789-.+eE :_"), max_size=8)
nonblank = token.filter(str.strip)


def _fails(parse):
    def check(value):
        try:
            parse(value)
        except ValueError:
            return True
        return False
    return check


def wrong_arity(arities):
    return st.sampled_from(arities).flatmap(
        lambda k: st.lists(nonblank, min_size=k, max_size=k))


bad_float = token.filter(_fails(float)) | st.sampled_from(
    ["nan", "inf", "-inf", "1e400", "0", "-0", "-2.5"])
bad_nonnegative = token.filter(_fails(float)) | st.sampled_from(
    ["nan", "inf", "-inf", "1e400", "-2.5", "-1e-300"])


def _bad_date(value):
    try:
        dt.date.fromisoformat(value.strip())
    except ValueError:
        return True
    return False


GOOD_TX = ["2007-03-01", "B1", "B2", "5.0"]
bad_transaction = st.one_of(
    wrong_arity([1, 2, 3, 5, 6]),
    token.filter(_bad_date).map(lambda d: [d, "B1", "B2", "5.0"]),
    bad_float.map(lambda a: ["2007-03-01", "B1", "B2", a]),
    st.sampled_from(["", " "]).map(lambda name: ["2007-03-01", name, "B2", "5.0"]),
    st.sampled_from(["", " "]).map(lambda name: ["2007-03-01", "B1", name, "5.0"]),
    st.just(["2007-03-01", "B1", "B1", "5.0"]),
)

GOOD_EDGE = ["0", "1", "2.5"]
bad_edge = st.one_of(
    wrong_arity([1, 2, 4, 5]),
    token.filter(_fails(int)).map(lambda i: [i, "1", "1.0"]),
    token.filter(_fails(int)).map(lambda j: ["1", j, "1.0"]),
    (st.integers(max_value=-1) | st.integers(min_value=4)).map(lambda i: [str(i), "1", "1"]),
    (st.integers(max_value=-1) | st.integers(min_value=4)).map(lambda j: ["1", str(j), "1"]),
    bad_float.map(lambda w: ["0", "1", w]),
)

GOOD_FITNESS = ["B1", "1.5", "2.0"]
bad_fitness = st.one_of(
    wrong_arity([1, 2, 4, 5]),
    bad_nonnegative.map(lambda a: ["B9", a, "1.0"]),
    bad_nonnegative.map(lambda l: ["B9", "1.0", l]),
)


def _file(header, good_row, rows_before, bad_row, rows_after):
    rows = [header] + [good_row] * rows_before + [bad_row] + [good_row] * rows_after
    return "".join(",".join(row) + "\n" for row in rows)


placement = st.tuples(st.integers(0, 4), st.integers(0, 4))


def _assert_rejected_at(read, content, line):
    with _tmp() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_text(content, encoding="utf-8")
        try:
            read(path)
        except (ParseError, DataValidationError) as exc:
            assert exc.line == line, f"{exc} (expected line {line})"
        else:
            raise AssertionError(f"accepted a malformed row on line {line}:\n{content}")


@FUZZ
@given(bad_transaction, placement)
def test_malformed_transaction_row_names_its_line(bad, where):
    content = _file(["date", "lender", "borrower", "amount"], GOOD_TX, where[0], bad, where[1])
    _assert_rejected_at(parse_transactions, content, 2 + where[0])


def _outcome(read, path):
    try:
        return read(path)
    except (ParseError, DataValidationError) as exc:
        return type(exc), str(exc), exc.line


# rows that parse, some of them over two lines or with a delimiter in quotes
good_tx_line = st.sampled_from([
    "2007-03-01,B1,B2,5.0",
    "2007-03-02, B2 ,B1,1e-3",
    '2007-03-02,"B\n3",B1,2.5',
    '2007-03-05,"B,4",B2,7',
    "20070306,B2,B1, 1_000 ",
    "",
])
oversized = "2007-03-01,B1," + "x" * 200_000 + ",1"


@st.composite
def transaction_files(draw):
    """A transactions file with blank and multi-line rows and up to two bad rows."""
    maturity = draw(st.booleans())
    bad = st.one_of(bad_transaction.map(",".join), st.just(oversized))
    rows = draw(st.lists(good_tx_line, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(bad))
    if maturity:
        rows = [row + "," + draw(st.sampled_from(["", "ON", " 1W "])) if row else row
                for row in rows]
    header = "date,lender,borrower,amount" + (",maturity" if maturity else "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([header] + rows) + newline


@FUZZ
@given(transaction_files())
def test_read_transactions_accepts_and_rejects_like_the_row_by_row_parser(content):
    with _tmp() as tmp:
        path = Path(tmp) / "transactions.csv"
        path.write_bytes(content.encode("utf-8"))
        want = _outcome(parse_transactions_row_by_row, path)
        assert _outcome(lambda p: records_of(read_transactions(p)), path) == want


# characters of a plain field: U+00A0, U+0085, U+2028 and \f are whitespace to
# str.strip, and a multi-byte letter makes a field longer in bytes than in letters
plain_char = st.sampled_from("AbZ09 _-.\t\f\u00a0\u0085\u2028é中🙂")
name_pad = st.sampled_from(["", "", "", " ", "\u00a0", "\u00a0\u2028"])
date_pad = st.sampled_from(["", " ", "\u00a0"])


@st.composite
def plain_transaction_files(draw):
    """A well-formed transactions file without quotes, its lines at most 128 bytes long."""
    label = st.text(plain_char, min_size=1, max_size=30)
    names = draw(st.lists(label.filter(lambda n: n.strip() and len(n.encode()) <= 30),
                          min_size=2, max_size=5, unique_by=str.strip))
    dates = draw(st.lists(st.dates(), min_size=1, max_size=4))
    maturity = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        d = draw(st.sampled_from(dates))
        date = d.isoformat() if draw(st.booleans()) else f"{d.year:04d}{d.month:02d}{d.day:02d}"
        pair = [draw(name_pad) + name + draw(name_pad) for name in draw(st.permutations(names))[:2]]
        amount = draw(st.sampled_from([repr, "{:.17g}".format, "{:e}".format]))(draw(positive))
        row = [draw(date_pad) + date + draw(date_pad), *pair,
               draw(st.sampled_from(["", " ", "\t"])) + amount]
        if maturity:
            row.append(draw(st.sampled_from(["", "ON", " 1W ", "über"])))
        rows.append(",".join(row))
        rows.extend([""] * draw(st.integers(0, 1)))  # a blank line
    header = "date,lender,borrower,amount" + ",maturity" * maturity
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join([header] + rows) + newline


@FUZZ
@given(plain_transaction_files(), st.sampled_from([1, 50, 1 << 18]))
def test_bulk_read_of_a_plain_file_equals_the_row_by_row_parser(content, block_bytes):
    csv_open = mock.patch.object(serialize, "open_text", wraps=serialize.open_text)
    with _tmp() as tmp, mock.patch.object(serialize, "_BLOCK_BYTES", block_bytes), \
            csv_open as rows_read:
        path = Path(tmp) / "transactions.csv"
        path.write_bytes(content.encode("utf-8"))
        table = read_transactions(path)
        want = table_of(parse_transactions_row_by_row(path))
    assert not rows_read.called
    assert_same_table(table, want)


@st.composite
def fitness_files(draw):
    """A fitness file with a blank row and up to two bad rows, one of them maybe bad twice."""
    good = st.sampled_from([GOOD_FITNESS, ["B2", "0", "3.5"], [" B3 ", "2e-300", "0.0"]])
    bad_twice = st.tuples(bad_nonnegative, bad_nonnegative).map(lambda values: ["B9", *values])
    rows = draw(st.lists(good, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(bad_fitness | bad_twice))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [])
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(",".join(row) for row in [["node", "assets", "liabilities"]] + rows) \
        + newline


def _fitness_outcome(read, path):
    try:
        fitness, labels = read(path)
    except (ParseError, DataValidationError) as exc:
        return type(exc), exc.line
    return labels, fitness.assets.tobytes(), fitness.liabilities.tobytes()


@FUZZ
@given(fitness_files())
@example("node,assets,liabilities\nB1,1.5,2.0\nB9,-2.5,abc\n")  # a value below 0, then no number
@example("node,assets,liabilities\nB9,nan,1\nB1,1.5\n")  # a bad value before a short row
def test_read_fitness_accepts_and_rejects_like_the_row_by_row_reader(content):
    with _tmp() as tmp:
        path = Path(tmp) / "fitness.csv"
        path.write_bytes(content.encode("utf-8"))
        assert _fitness_outcome(read_fitness_csv, path) == \
            _fitness_outcome(read_fitness_row_by_row, path)


@FUZZ
@given(bad_edge, placement)
def test_malformed_edge_row_names_its_line(bad, where):
    content = _file(["source", "target", "weight"], GOOD_EDGE, where[0], bad, where[1])
    _assert_rejected_at(lambda path: read_network(path, 4), content, 2 + where[0])


@FUZZ
@given(bad_fitness, placement)
def test_malformed_fitness_row_names_its_line(bad, where):
    content = _file(["node", "assets", "liabilities"], GOOD_FITNESS, where[0], bad, where[1])
    _assert_rejected_at(read_fitness_csv, content, 2 + where[0])


@st.composite
def nodes_with_bad_row(draw):
    """A nodes file whose row ``before`` breaks the 0, 1, 2, ... index order or arity."""
    before, after = draw(placement)
    bad = draw(st.one_of(
        wrong_arity([1, 3, 4]),
        token.filter(_fails(int)).map(lambda i: [i, "X"]),
        st.integers().filter(lambda i: i != before).map(lambda i: [str(i), "X"]),
    ))
    rows = [["index", "label"]] + [[str(k), f"B{k}"] for k in range(before)] + [bad]
    rows += [[str(before + 1 + k), f"B{before + 1 + k}"] for k in range(after)]
    return "".join(",".join(row) + "\n" for row in rows), 2 + before


@FUZZ
@given(nodes_with_bad_row())
def test_malformed_nodes_row_names_its_line(drawn):
    content, line = drawn
    _assert_rejected_at(read_nodes, content, line)


@pytest.mark.parametrize("content,read", [
    ("date,lender,borrower,amount\n2007-03-01,B1,B2,5.0\n2007-03-01,B1,{},5.0\n",
     parse_transactions),
    ("source,target,weight\n0,1,2.5\n0,2,{}\n", lambda path: read_network(path, 4)),
    ("node,assets,liabilities\nB1,1.0,1.0\n{},1.0,1.0\n", read_fitness_csv),
    ("index,label\n0,B0\n1,{}\n", read_nodes),
])
def test_field_past_the_csv_limit_is_parse_error_with_line(content, read):
    huge = "x" * 200_000  # the csv module refuses fields over 131 072 characters
    _assert_rejected_at(read, content.format(huge), 3)


# ---------------------------------------------------------------------------
# bulk edge-list reads and distinct-value writes against their references
# ---------------------------------------------------------------------------

# node indices and weights that int() and float() take, in forms numpy may not
node_forms = st.just(str) | st.sampled_from([
    " {} ".format, "+{}".format, "0{}".format, "0_{}".format, lambda k: chr(0x660 + k),
    "\xa0{}".format, "{}\x0b".format, '"{}"'.format])
good_node = st.tuples(node_forms, st.integers(0, 3)).map(lambda drawn: drawn[0](drawn[1]))
good_weight = positive.map("{:.17g}".format) | st.sampled_from(
    ["2.5", " .5", "5.", "1_0", "\u0662.\u0665", '"2.5"', "1e-3 ", "+7", "1.00000000000000011"])
# and fields that fail a parse or a check
edge_field = good_node | good_weight | st.integers(-1, 4).map(str) | st.sampled_from([
    "1.0", "1e0", "inf", "-inf", "nan", "1e400", "1e-400", "-2.5", "0", "infinity", "0x10",
    "", " ", "\t", "\x00", "1\x00", "1\x85", '"1\n"', '"0,1"', "9" * 20, "-" + "9" * 20,
])
good_edge_row = st.tuples(node_forms, node_forms, st.permutations(range(4)), good_weight).map(
    lambda drawn: f"{drawn[0](drawn[2][0])},{drawn[1](drawn[2][1])},{drawn[3]}")
odd_edge_row = st.lists(edge_field, min_size=1, max_size=4).map(",".join) | st.sampled_from(
    ["", " ", "\t", "0,1,2,", "0,1,2.5,,", "\x00"])
edge_headers = st.just("source,target,weight") | st.sampled_from([
    " Source , TARGET,weight\t", '"source",target,"weight"', "source,target", "src,dst,w", "",
    "source\r,target,weight", '"source\n",target,weight',
])


@st.composite
def edge_files(draw):
    """An edge list of repeated and odd rows under odd headers, line ends mixed."""
    rows = draw(st.lists(good_edge_row, max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(odd_edge_row))
    if rows and draw(st.booleans()):  # repeat a few rows: repeated links add up
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    rows.insert(0, draw(edge_headers))
    newlines = st.sampled_from(["\n", "\r\n", "\r"])
    ends = [draw(newlines)] * len(rows) if draw(st.booleans()) else \
        [draw(newlines) for _ in rows]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(row + end for row, end in zip(rows, ends))


def _network_outcome(read, path):
    try:
        net = read(path)
    except ReconError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return net.weights.tobytes(), net.adjacency.tobytes()


@settings(max_examples=400, deadline=None)
@given(edge_files())
@example("source,target,weight\n0,1,1\n2,2,1\n0,4,1\n")  # a self-loop, then a bad node
@example('source,target,weight\n"3",3,1\n0,1,0\n')  # a bad weight after a quoted self-loop
def test_read_network_accepts_and_rejects_like_the_row_by_row_reader(content):
    with _tmp() as tmp:
        path = Path(tmp) / "edges.csv"
        path.write_bytes(content.encode("utf-8"))
        want = _network_outcome(lambda p: read_network_row_by_row(p, 4), path)
        assert _network_outcome(lambda p: read_network(p, 4), path) == want


@pytest.mark.parametrize("content,accepted", [
    # forms only the csv module and int()/float() read
    ("source,target,weight\r0,1,1\r2,3,1\r", True),
    ("source,target,weight\n0,1,1_0\n", True),
    ("source,target,weight\n0,1,\u0662\n", True),
    ('source,target,weight\n"0",1,2\n', True),
    ("source,target,weight", True),
    ("source,target,weight\n\n\n", True),
    # forms both read, repeated links
    ("source,target,weight\r\n0,1,1.0000000000000002\r\n1,2,0.30000000000000004\r\n"
     "0,1,1e-300\r\n", True),
    # a lone \r ends the header row for csv
    ("source\r,target,weight\n0,1,2\n", False),
    ("source,target,weight\n0,1,2\n  \n", False),
    ("source,target,weight\n0,1,2,\n", False),
    ("source,target,weight\n0,1,2\x00\n", False),
    ("source,target,weight\n0,1,1e400\n", False),
    ("source,target,weight\n0,4,1\n", False),
    # integer fields written as floats: int() rejects them, so must numpy
    ("source,target,weight\n1.7,0,2\n", False),
    ("source,target,weight\n0.5,1,2\n", False),
    ("source,target,weight\n1.0,2,3\n", False),
    ("source,target,weight\n0,1e0,2\n", False),
    ("", False),
])
def test_read_network_on_the_forms_numpy_and_csv_read_differently(tmp_path, content, accepted):
    path = tmp_path / "edges.csv"
    path.write_bytes(content.encode("utf-8"))
    want = _network_outcome(lambda p: read_network_row_by_row(p, 4), path)
    assert isinstance(want[0], bytes) == accepted
    assert _network_outcome(lambda p: read_network(p, 4), path) == want


special_floats = st.sampled_from([
    0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324,
    2.2250738585072009e-308, 1e-310, 0.1, 1 / 3, 1e16, 1.7976931348623157e308])


@st.composite
def csv_columns(draw):
    """Columns of one length: float, int and str arrays, ranges and lists."""
    n = draw(st.integers(0, 12))
    kinds = st.sampled_from(["float64", "float32", "float list", "nan payloads", "int64",
                             "uint64", "int list", "range", "str list", "str array"])
    columns = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=5)):
        if kind == "range":
            columns.append(range(n))
        elif kind in ("int64", "uint64", "int list"):
            lo, hi = (0, 2**64 - 1) if kind == "uint64" else (-2**63, 2**63 - 1)
            values = draw(st.lists(st.integers(lo, hi) | st.integers(max(lo, -3), 3),
                                   min_size=n, max_size=n))
            columns.append(values if kind == "int list" else np.array(values, dtype=kind))
        elif kind in ("str list", "str array"):
            values = draw(st.lists(text, min_size=n, max_size=n))
            columns.append(values if kind == "str list" else np.array(values))
        else:
            values = draw(st.lists(special_floats | st.floats(), min_size=n, max_size=n))
            array = np.array(values)
            if kind == "nan payloads":  # NaNs that differ in sign and payload bits
                bits = array.view(np.int64)
                bits[np.isnan(array)] |= draw(st.integers(1, 2**51 - 1))
            with np.errstate(over="ignore"):
                columns.append(values if kind == "float list" else array.astype(
                    np.float32 if kind == "float32" else np.float64))
    return columns


@FUZZ
@given(csv_columns())
def test_write_csv_writes_the_bytes_of_the_per_cell_writer(columns):
    header = [f"c{k}" for k in range(len(columns))]
    with _tmp() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        write_csv(got, header, columns)
        write_csv_per_cell(want, header, columns)
        assert got.read_bytes() == want.read_bytes()


CHUNK = 1 << 16  # the rows write_csv formats at a time


def _across_a_chunk_boundary(values, fill):
    """A column of 2 chunks and a bit: ``fill``, with ``values`` on both sides of row CHUNK."""
    column = [fill] * (2 * CHUNK + 7)
    column[CHUNK - len(values):CHUNK + len(values)] = values[::-1] + values
    return column


@pytest.mark.parametrize("kinds", [("int64", "float64"), ("float64",), ("text",),
                                   ("text", "int64", "float64"), ("float32", "bool", "int list")])
def test_write_csv_in_chunks_writes_the_bytes_of_the_per_cell_writer(tmp_path, kinds):
    columns = []
    for kind in kinds:
        if kind in ("float64", "float32"):
            values = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 0.1, 1e16 + 2]
            columns.append(np.array(_across_a_chunk_boundary(values, 1 / 3), dtype=kind))
        elif kind == "text":
            columns.append(_across_a_chunk_boundary(['say "hi", twice', "", "a\nb", " x"], "B"))
        elif kind == "bool":
            columns.append(np.array(_across_a_chunk_boundary([True, False], True)))
        else:
            values = [2**63 - 1, -2**63, 0, -1]
            column = _across_a_chunk_boundary(values, 7)
            columns.append(column if kind == "int list" else np.array(column, dtype=kind))
    header = [f"c{k}" for k in range(len(columns))]
    write_csv(tmp_path / "got.csv", header, columns)
    write_csv_per_cell(tmp_path / "want.csv", header, columns)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("columns", [
    [np.arange(CHUNK + 1), np.zeros(CHUNK)],
    [np.zeros(CHUNK + 1), ["x"] * (CHUNK + 2)],
    [["x"] * 3, range(CHUNK)],
])
def test_write_csv_refuses_columns_of_unequal_length(tmp_path, columns):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], columns)


# ---------------------------------------------------------------------------
# the same rows through the CLI: exit code 2
# ---------------------------------------------------------------------------


@CLI_FUZZ
@given(bad_transaction, placement)
def test_cli_scan_exits_2_on_a_malformed_transaction(bad, where):
    with _tmp() as tmp:
        path = Path(tmp) / "tx.csv"
        path.write_text(_file(["date", "lender", "borrower", "amount"], GOOD_TX,
                              where[0], bad, where[1]), encoding="utf-8")
        assert main(["scan", "--transactions", str(path), "--year", "2007",
                     "--delta-t", "1", "--out", str(Path(tmp) / "out")]) == 2


@CLI_FUZZ
@given(bad_fitness, placement)
def test_cli_fit_exits_2_on_a_malformed_fitness_row(bad, where):
    with _tmp() as tmp:
        path = Path(tmp) / "fitness.csv"
        path.write_text(_file(["node", "assets", "liabilities"], GOOD_FITNESS,
                              where[0], bad, where[1]), encoding="utf-8")
        assert main(["fit", "--fitness", str(path), "--model", "fdcm", "--density", "0.5",
                     "--out", str(Path(tmp) / "out")]) == 2


@CLI_FUZZ
@given(st.one_of(nodes_with_bad_row().map(lambda drawn: (drawn[0], None)),
                 bad_edge.map(lambda row: (None, row))))
def test_cli_spectra_exits_2_on_a_malformed_nodes_or_edge_row(drawn):
    nodes, bad_edge_row = drawn
    with _tmp() as tmp:
        net_dir = Path(tmp) / "nets"
        net_dir.mkdir()
        if nodes is None:
            write_nodes(net_dir / "nodes.csv", ["B0", "B1", "B2", "B3"])
            edges = _file(["source", "target", "weight"], GOOD_EDGE, 1, bad_edge_row, 1)
        else:
            (net_dir / "nodes.csv").write_text(nodes, encoding="utf-8")
            edges = "source,target,weight\n0,1,1.0\n"
        (net_dir / "s.csv").write_text(edges, encoding="utf-8")
        assert main(["spectra", "--networks", str(net_dir),
                     "--out", str(Path(tmp) / "out")]) == 2


# ---------------------------------------------------------------------------
# mutated config, model and report files through the CLI
# ---------------------------------------------------------------------------

MUTATION_FUZZ = settings(max_examples=25, deadline=None)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A small synth -> fit -> sample -> spectra -> scan -> validate chain, and a config."""
    root = tmp_path_factory.mktemp("artifacts")
    runs = [
        ["synth", "--nodes", "8", "--fitness-dist", "lognormal(0,0.5)", "--model", "fgrm",
         "--density", "0.2", "--reciprocity", "0.3", "--days", "8", "--year", "2005",
         "--seed", "3", "--out", str(root / "data")],
        ["fit", "--fitness", str(root / "data/fitness.csv"), "--model", "fgrm",
         "--density", "0.3", "--reciprocity", "0.4", "--out", str(root / "fit")],
        ["sample", "--model-file", str(root / "fit/fitted.json"), "--samples", "4",
         "--seed", "5", "--write-networks", "3", "--out", str(root / "ens")],
        ["spectra", "--networks", str(root / "ens/samples"), "--rescale",
         "--out", str(root / "spec")],
        ["scan", "--transactions", str(root / "data/transactions.csv"), "--year", "2005",
         "--delta-t", "1:8:3", "--out", str(root / "scan")],
        ["validate", "--model-file", str(root / "fit/fitted.json"),
         "--transactions", str(root / "data/transactions.csv"), "--year", "2005",
         "--delta-t", "8", "--out", str(root / "val")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
    (root / "config.json").write_text(json.dumps({
        "fitness": str(root / "data/fitness.csv"), "model": "fgrm", "density": 0.3,
        "reciprocity": 0.4, "solver": {"max_iterations": 200, "residual_tolerance": 1e-10}},
        indent=2))
    (root / "validate.json").write_text(json.dumps({
        "model_file": str(root / "fit/fitted.json"),
        "transactions": str(root / "data/transactions.csv"),
        "year": 2005, "delta_t": 4, "window": 1}, indent=2))
    return root


mutation_text = st.text(st.sampled_from(',"\n{}[]:0123456789.-+eEnaifNIxz '), max_size=6)
# what an integer field must refuse (a number with a fraction, a bool) or range-check
# (a negative count or index)
non_integral = st.floats().filter(lambda x: not x.is_integer())
negative = st.integers(max_value=-1) | st.sampled_from([-1, -2])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | non_integral | negative,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=5)


def _mutate_text(draw, text):
    """Delete, insert or overwrite up to three short runs of characters."""
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["delete", "insert", "overwrite", "truncate"]))
        pos = draw(st.integers(0, len(text)))
        chunk = draw(mutation_text)
        if op == "delete":
            text = text[:pos] + text[pos + 1 + len(chunk):]
        elif op == "insert":
            text = text[:pos] + chunk + text[pos:]
        elif op == "overwrite":
            text = text[:pos] + chunk + text[pos + len(chunk):]
        else:
            text = text[:pos]
    return text


def _mutate_json(draw, text):
    """A text mutation, or one value of the parsed document deleted or replaced."""
    if draw(st.booleans()):
        return _mutate_text(draw, text)
    data = json.loads(text)
    slots = []

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            slots.append((node, key))
            if isinstance(value, (dict, list)):
                walk(value)

    walk(data)
    node, key = draw(st.sampled_from(slots))
    if draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(json_values)
    return json.dumps(data)


def _assert_clean_exit(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    message = err.getvalue()
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in message
    if rc:
        assert len(message.strip().splitlines()) == 1, message


@MUTATION_FUZZ
@given(st.data())
def test_cli_fit_survives_a_mutated_config(artifacts, data):
    text = _mutate_json(data.draw, (artifacts / "config.json").read_text())
    with _tmp() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(text, encoding="utf-8")
        _assert_clean_exit(["fit", "--config", str(config), "--out", str(Path(tmp) / "out")])


@MUTATION_FUZZ
@given(st.data())
def test_cli_validate_survives_a_mutated_config(artifacts, data):
    text = _mutate_json(data.draw, (artifacts / "validate.json").read_text())
    with _tmp() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(text, encoding="utf-8")
        _assert_clean_exit(["validate", "--config", str(config),
                            "--out", str(Path(tmp) / "out")])


INTEGER_FIELDS = {
    "validate": ("year", "delta_t", "window"),
    "sample": ("samples", "seed", "write_networks"),
    "spectra": ("threads",),
    "synth": ("nodes", "days", "seed", "year"),
}


def _integer_field_config(artifacts, command):
    if command == "validate":
        return json.loads((artifacts / "validate.json").read_text())
    if command == "sample":
        return {"model_file": str(artifacts / "fit/fitted.json"), "samples": 3, "seed": 1,
                "write_networks": 2}
    if command == "spectra":
        return {"networks": str(artifacts / "ens/samples"), "threads": 2}
    return {"nodes": 5, "fitness_dist": "constant(1)", "model": "fdcm", "density": 0.3,
            "seed": 2, "year": 2005, "days": 3}


@MUTATION_FUZZ
@given(st.data())
def test_cli_integer_fields_refuse_fractions_and_bools(artifacts, data):
    """A fraction or a bool is a usage error, and so is a negative window index, a
    worker count below 1 or a number of networks to write that is negative or
    above the number of samples; any other negative value ends in a clean exit."""
    command = data.draw(st.sampled_from(sorted(INTEGER_FIELDS)))
    field = data.draw(st.sampled_from(INTEGER_FIELDS[command]))
    value = data.draw(non_integral | st.booleans() | negative
                      | (st.just(0) if field == "threads" else st.nothing())
                      | (st.integers(4, 10**6) if field == "write_networks" else st.nothing()))
    cfg = _integer_field_config(artifacts, command)
    cfg[field] = value
    with _tmp() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([command, "--config", str(config), "--out", str(Path(tmp) / "out")])
    if isinstance(value, (bool, float)):
        assert rc == 1 and f"field '{field}' has invalid value" in err.getvalue()
    elif field == "window":
        assert rc == 1 and "out of range" in err.getvalue()
    elif field == "write_networks" and value > 0:
        assert rc == 1 and f"field 'write_networks' ({value}) exceeds field 'samples' (3)" \
            in err.getvalue()
    elif field in ("threads", "write_networks"):
        assert rc == 1 and f"field '{field}' must be >= {int(field == 'threads')}, got {value}" \
            in err.getvalue()
    else:  # a negative year has no windows, a negative count is refused or writes none
        assert rc in (0, 1, 2) and "Traceback" not in err.getvalue()
        assert len(err.getvalue().strip().splitlines()) == (1 if rc else 0)


@MUTATION_FUZZ
@given(st.data())
def test_cli_sample_survives_a_mutated_model_file(artifacts, data):
    text = _mutate_json(data.draw, (artifacts / "fit/fitted.json").read_text())
    with _tmp() as tmp:
        model = Path(tmp) / "fitted.json"
        model.write_text(text, encoding="utf-8")
        _assert_clean_exit(["sample", "--model-file", str(model), "--samples", "2",
                            "--seed", "1", "--out", str(Path(tmp) / "out")])


@pytest.mark.parametrize("artifact", ["spec/spectra.csv", "scan/rho_scan.csv", "val/roc.csv",
                                      "fit/tau.csv"])
@MUTATION_FUZZ
@given(data=st.data())
def test_cli_report_survives_a_mutated_artifact(artifacts, artifact, data):
    text = _mutate_text(data.draw, (artifacts / artifact).read_text())
    with _tmp() as tmp:
        src = Path(tmp) / "in"
        src.mkdir()
        (src / Path(artifact).name).write_text(text, encoding="utf-8")
        _assert_clean_exit(["report", "--in", str(src), "--out", str(Path(tmp) / "out")])


def _mutate_bytes(draw, path):
    """A text mutation of the file at ``path``, sometimes with a byte that is not UTF-8."""
    data = _mutate_text(draw, path.read_bytes().decode("utf-8")).encode("utf-8")
    if draw(st.integers(0, 4)) == 0:
        pos = draw(st.integers(0, len(data)))
        data = data[:pos] + b"\xff" + data[pos:]
    return data


@pytest.mark.parametrize("name", ["nodes.csv", "sample_00001.csv"])
@MUTATION_FUZZ
@given(data=st.data())
def test_cli_spectra_survives_a_mutated_network_file(artifacts, name, data):
    samples = artifacts / "ens/samples"
    with _tmp() as tmp:
        net_dir = Path(tmp) / "nets"
        net_dir.mkdir()
        for path in samples.iterdir():
            (net_dir / path.name).write_bytes(path.read_bytes())
        (net_dir / name).write_bytes(_mutate_bytes(data.draw, samples / name))
        _assert_clean_exit(["spectra", "--networks", str(net_dir), "--rescale",
                            "--out", str(Path(tmp) / "out")])


@MUTATION_FUZZ
@given(st.data())
def test_cli_fit_survives_a_mutated_fitness_file(artifacts, data):
    with _tmp() as tmp:
        path = Path(tmp) / "fitness.csv"
        path.write_bytes(_mutate_bytes(data.draw, artifacts / "data/fitness.csv"))
        _assert_clean_exit(["fit", "--fitness", str(path), "--model", "fgrm", "--density", "0.3",
                            "--reciprocity", "0.4", "--out", str(Path(tmp) / "out")])


@MUTATION_FUZZ
@given(st.data())
def test_cli_scan_survives_a_mutated_transactions_file(artifacts, data):
    with _tmp() as tmp:
        path = Path(tmp) / "transactions.csv"
        path.write_bytes(_mutate_bytes(data.draw, artifacts / "data/transactions.csv"))
        _assert_clean_exit(["scan", "--transactions", str(path), "--year", "2005",
                            "--delta-t", "1:8:3", "--out", str(Path(tmp) / "out")])

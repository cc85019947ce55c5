"""Deterministic CSV/JSON artifact writers, and the readers of every input file.

Numbers go to CSV at 17 significant digits so they round-trip through
float parsing losslessly; JSON uses sorted keys and the shortest
round-trip float repr. NaN and +-inf become null in JSON; in CSV they
are "nan" and "inf"/"-inf".

Every reader takes a path to a UTF-8 file. A malformed row is a
ParseError with its line number, as the csv module counts lines.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import io
import itertools
import json
import math
import re
import warnings
from contextlib import contextmanager, suppress
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataValidationError, DomainError, ParseError
from .graph import DirectedNetwork
from .ingest import FitnessData, TransactionTable
from .models import FittedModel, ModelKind


fmt = "{:.17g}".format  # a float's 17-significant-digit decimal form: a lossless round trip
_CHUNK_ROWS = 1 << 16  # rows formatted at a time, which bounds the writer's memory


class Coded(NamedTuple):
    """A CSV column whose row k holds ``values[codes[k]]``."""
    values: Sequence
    codes: np.ndarray


def write_csv(path, header, columns) -> None:
    """A header row, then row k holding item k of every column.

    Columns are arrays, sequences or ``Coded`` pairs, of equal length. A float
    column is written through ``fmt``, any other as the csv module writes its
    items. Rows go out 64 Ki at a time: one row format when every column is a
    float array, else one join of cell texts, each made once per distinct value.
    """
    ends = [","] * (len(columns) - 1) + ["\r\n"]
    columns = [_quoted_or_numeric(c, end, len(columns) == 1) for c, end in zip(columns, ends)]
    lengths = {len(c.codes) if isinstance(c, Coded) else len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError("columns differ in length")
    n = max(lengths, default=0)
    text = any(isinstance(c, Coded) for c in columns)
    row = "{:.17g}," * (len(columns) - 1) + "{:.17g}\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, n, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, n)
            if not text and all(c.dtype.kind == "f" for c in columns):
                fh.write("".join(map(row.format, *(c[start:stop].tolist() for c in columns))))
                continue
            # each cell's text ends in its separator, so the chunk is one join of them
            cells = np.empty((stop - start, len(columns)), dtype=object)
            for k, (column, end) in enumerate(zip(columns, ends)):
                if isinstance(column, Coded):
                    cells[:, k] = column.values[column.codes[start:stop]]
                elif column.dtype.kind == "f" and not text:  # many distinct (tau); beside text, few
                    cells[:, k] = [f"{v:.17g}{end}" for v in column[start:stop].tolist()]
                else:
                    cells[:, k] = _distinct_texts(column[start:stop], end)
            fh.write("".join(cells.ravel().tolist()))


def _quoted_or_numeric(column, end, alone) -> np.ndarray | Coded:
    """A float or numpy integer array as it is; else ``Coded`` texts, the csv module's text
    of each distinct item then ``end`` (``alone``: the row's only field, as a whole row)."""
    if not isinstance(column, Coded):
        # a sequence keeps its items unless they are floats: a numpy str array drops trailing NULs
        array = np.asarray(column)
        if array.dtype.kind == "f" or isinstance(column, np.ndarray) and array.dtype.kind in "biu":
            return array
        items = column.tolist() if isinstance(column, np.ndarray) else list(column)
        first = {}  # an item's type and text, which fix its field: its code and first item
        codes = [first.setdefault((type(item), str(item)), (len(first), item))[0] for item in items]
        column = Coded([item for _, item in first.values()], np.array(codes, dtype=np.intp))
    writer = csv.writer(SimpleNamespace(write=str))  # writerow returns its row's line
    texts = [writer.writerow([value]) if alone else writer.writerow([value, ""])[:-3] + end
             for value in column.values]
    return Coded(np.array(texts, dtype=object), column.codes)


def _distinct_texts(values, end) -> np.ndarray:
    """The text of each value then ``end``, formatted once per distinct value: an integer's
    ``str``, a float's ``fmt``, floats told apart by their bits."""
    if values.dtype.kind == "f":
        bits, inverse = np.unique(values.astype(np.float64).view(np.int64), return_inverse=True)
        texts = [f"{v:.17g}{end}" for v in bits.view(np.float64).tolist()]
        return np.array(texts, dtype=object)[inverse]
    lo, hi = int(values.min()), int(values.max())
    if values.dtype.kind != "b" and hi - lo < len(values):  # as node indices: no sort
        # a value's offset from the least wraps to its true value read as unsigned
        offsets = (values - values.min()).view(f"u{values.itemsize}")
        return np.array([f"{v}{end}" for v in range(lo, hi + 1)], dtype=object)[offsets]
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([f"{v}{end}" for v in distinct.tolist()], dtype=object)[inverse]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Text input: UTF-8 files, rows split by the csv module
# ---------------------------------------------------------------------------

_LINE_BREAK = re.compile(rb"\r\n|\r|\n")


@contextmanager
def open_text(path, newline=""):
    """``path`` opened as UTF-8 text.

    Text is decoded in chunks, so a byte that is not UTF-8 can surface
    before the rows ahead of it are read; in the block it becomes a
    ParseError naming ``path`` and the line of the first such byte, found
    by reading the file again.
    """
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = len(_LINE_BREAK.findall(data, 0, exc.start)) + 1
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})", line=line) from None
        raise


def line_of_row(path, k: int) -> int | None:
    """Line number of the k-th nonempty row after the header of the CSV file ``path``."""
    with open_text(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        for m, _ in enumerate(row for row in reader if row):
            if m == k:
                return reader.line_num
    return None


def read_json(path):
    """The JSON value in ``path``; text that is not JSON is a ParseError with its line."""
    with open_text(path, newline=None) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc.msg} (column {exc.colno})", line=exc.lineno) from None


def finite_float(text: str) -> float:
    """``float(text)`` when it is finite; ValueError otherwise."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def read_csv(path, header, kinds) -> list:
    """The columns of a CSV file whose first row is ``header``.

    Field k of every other nonempty row goes through ``kinds[k]`` (``int``,
    ``float``, ``finite_float``, ``str``, ...). A different header, a line
    the csv module cannot split, a row with another number of fields and a
    field its kind rejects with ValueError are ParseErrors with the line
    number. A kind may raise DataValidationError for a value it reads but
    does not accept; that error gets the line number once the row's other
    fields have been read, so a field that does not parse is reported
    first. Every error names ``path``. A file of ``int``, ``float`` and
    ``finite_float`` fields is read into arrays by ``_read_numeric`` first.
    """
    if all(kind in (int, float, finite_float) for kind in kinds):
        with suppress(ValueError, UserWarning):  # a UnicodeDecodeError is a ValueError
            return _read_numeric(path, header, kinds)
    columns = [[] for _ in header]
    with open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None or [h.strip().lower() for h in first] != list(header):
                raise ParseError(f"bad header in {path}, expected {','.join(header)}", line=1)
            for row in filter(None, reader):
                if len(row) != len(header):
                    raise ParseError(f"{path}: expected {len(header)} fields, got {len(row)}",
                                     line=reader.line_num)
                invalid = None
                for column, kind, name, field in zip(columns, kinds, header, row):
                    try:
                        column.append(kind(field))
                    except ValueError:
                        raise ParseError(f"{path}: bad {name} {field!r}",
                                         line=reader.line_num) from None
                    except DataValidationError as exc:
                        invalid = invalid or exc
                if invalid is not None:
                    raise DataValidationError(f"{path}: {invalid}", line=reader.line_num)
        except csv.Error as exc:  # a line the csv module cannot split
            raise ParseError(f"{path}: {exc}", line=reader.line_num) from None
    return columns


def _read_numeric(path, header, kinds) -> list[np.ndarray]:
    """``read_csv`` by numpy, which parses a number as ``int`` and ``float`` do; ValueError
    for a file numpy may read otherwise than the row loop."""
    def blocks():  # of whole lines, split at \n: numpy refuses a lone \r inside a line
        while block := fh.read(1 << 16) + fh.readline():
            lines, limit = block.split("\n"), csv.field_size_limit()
            # numpy may crash on a character past U+FFFF, and skips \x1c-\x1f as spaces
            if (not block.isascii() or any(c in block for c in "\x1c\x1d\x1e\x1f")
                    or len(block) > limit and max(map(len, lines)) > limit):  # a field too long
                raise ValueError("text numpy may read unlike int, float and the csv module")
            yield lines

    with open(path, "r", encoding="utf-8", newline="") as fh:
        # the csv module's header row: readline ends it where csv does, and a quote fails
        if [h.strip().lower() for h in fh.readline().split(",")] != list(header):
            raise ValueError("not the header")
        with warnings.catch_warnings(action="error", category=UserWarning):  # of no rows
            columns = np.loadtxt(itertools.chain.from_iterable(blocks()), delimiter=",",
                                 dtype=[("", np.int64 if kind is int else np.float64)
                                        for kind in kinds], comments=None, ndmin=1, unpack=True)
    if not all(np.isfinite(c).all() for c, kind in zip(columns, kinds) if kind is finite_float):
        raise ValueError("a value finite_float refuses")
    return columns


# ---------------------------------------------------------------------------
# Fitness and transactions (UTF-8, '.' decimal point, no thousands separators)
# ---------------------------------------------------------------------------

_FITNESS_HEADER = ["node", "assets", "liabilities"]


def write_fitness_csv(path, fitness: FitnessData, labels=None) -> None:
    labels = labels or [f"B{k:04d}" for k in range(fitness.n)]
    write_csv(path, _FITNESS_HEADER, [labels, fitness.assets, fitness.liabilities])


def _fitness_value(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:  # NaN fails both
        raise DataValidationError(f"fitness values must be finite and nonnegative, got {text!r}")
    return value


def read_fitness_csv(path) -> tuple[FitnessData, list[str]]:
    """Fitness and node labels from rows ``node,assets,liabilities``; labels are stripped."""
    labels, assets, liabilities = read_csv(path, _FITNESS_HEADER,
                                           [str.strip, _fitness_value, _fitness_value])
    return FitnessData(assets=np.array(assets), liabilities=np.array(liabilities)), labels


_TRANSACTIONS_HEADER = ["date", "lender", "borrower", "amount"]


def write_transactions_csv(path, table: TransactionTable) -> None:
    """Write a ``TransactionTable`` as a transactions CSV.

    Amounts are written through ``fmt``, and the maturity column is left
    empty. Each distinct date, bank name and amount is formatted once.
    """
    write_csv(path, _TRANSACTIONS_HEADER + ["maturity"],
              [Coded([d.isoformat() for d in table.dates], table.day),
               Coded(table.labels, table.lender), Coded(table.labels, table.borrower),
               table.amount, Coded([""], np.broadcast_to(0, len(table.day)))])


def read_transactions(path) -> TransactionTable:
    """Read a transactions CSV (header date,lender,borrower,amount[,maturity]) into columns.

    A maturity column is accepted, and every row must have the field, but it is
    not kept.

    Raises ParseError with the offending line number on malformed rows and
    on bytes that are not UTF-8, and DataValidationError on semantic
    violations (an amount that is not positive and finite, self-loops).

    Two paths read a file, to the same table. numpy reads a plain file in
    bulk: the header as above, UTF-8 text with no quote or NUL, and rows
    numpy parses that pass every check. Any other file is read by the csv
    module, the only reader that reports an error: in one pass into column
    lists checked as arrays; only a rejected file is read again, to find the
    line of its first bad row.
    """
    try:
        return _read_plain_transactions(path)
    except ValueError:  # not plain; a UnicodeDecodeError is one
        pass
    columns = date_col, lender_col, borrower_col, amount_col = [], [], [], []
    stop = None  # the error that ended the pass early, raised unless an earlier row is bad
    with open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError("empty file, expected a header row", line=1) from None
            header = [h.strip().lower() for h in header]
            if header != _TRANSACTIONS_HEADER and header != _TRANSACTIONS_HEADER + ["maturity"]:
                raise ParseError(
                    f"bad header {header!r}, expected date,lender,borrower,amount[,maturity]",
                    line=1)
            width = len(header)
            add_date, add_lender, add_borrower, add_amount = (c.append for c in columns)
            for row in reader:
                if len(row) == width:
                    add_date(row[0])
                    add_lender(row[1])
                    add_borrower(row[2])
                    add_amount(row[3])
                elif row:
                    stop = ParseError(f"expected {width} fields, got {len(row)}",
                                      line=reader.line_num)
                    break
        except csv.Error as exc:
            stop = ParseError(str(exc), line=reader.line_num)
    n = len(date_col)

    # every distinct field is converted once; a field that does not convert gets code -1
    parsed = {}
    for text in set(date_col):
        try:
            parsed[text] = dt.date.fromisoformat(text.strip())
        except ValueError:
            parsed[text] = None
    dates = sorted({d for d in parsed.values() if d is not None})
    date_code = {d: k for k, d in enumerate(dates)}
    day_of = {text: -1 if d is None else date_code[d] for text, d in parsed.items()}
    names = {text: text.strip() for text in set(lender_col).union(borrower_col)}
    labels = sorted({name for name in names.values() if name})
    label_code = {name: k for k, name in enumerate(labels)}
    node_of = {text: label_code.get(name, -1) for text, name in names.items()}
    day = np.fromiter(map(day_of.__getitem__, date_col), dtype=np.intp, count=n)
    lender = np.fromiter(map(node_of.__getitem__, lender_col), dtype=np.intp, count=n)
    borrower = np.fromiter(map(node_of.__getitem__, borrower_col), dtype=np.intp, count=n)
    not_a_number = np.zeros(n, dtype=bool)
    try:
        amount = np.fromiter(map(float, amount_col), dtype=float, count=n)
    except ValueError:
        amount = np.ones(n)
        for k, text in enumerate(amount_col):
            try:
                amount[k] = float(text)
            except ValueError:
                not_a_number[k] = True

    bad = ((day < 0) | (lender < 0) | (borrower < 0) | not_a_number | (lender == borrower)
           | ~((amount > 0) & (amount < math.inf)))  # NaN fails both comparisons
    if bad.any():
        k = int(np.argmax(bad))
        line = line_of_row(path, k)
        if day[k] < 0:
            raise ParseError(f"bad ISO-8601 date {date_col[k]!r}", line=line)
        if lender[k] < 0 or borrower[k] < 0:
            raise ParseError("empty lender or borrower field", line=line)
        if not_a_number[k]:
            raise ParseError(f"bad amount {amount_col[k]!r}", line=line)
        if not 0 < amount[k] < math.inf:  # NaN fails both comparisons
            raise DataValidationError(
                f"amount must be positive and finite, got {float(amount[k])}", line=line)
        raise DataValidationError(f"self-loop transaction for {labels[lender[k]]!r}", line=line)
    if stop is not None:
        raise stop
    return TransactionTable(dates=tuple(dates), day=day, labels=tuple(labels), lender=lender,
                            borrower=borrower, amount=amount)


_PLAIN_HEADERS = (b"date,lender,borrower,amount", b"date,lender,borrower,amount,maturity")
_BLOCK_BYTES = 1 << 18  # so that no array of the bulk read outgrows the table's columns
_FIELD_BYTES = 128  # the widest date or name field the bulk read holds, for the same reason
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd, so a word times it is a one-to-one map


def _ids(column, ids, parse=str) -> np.ndarray:
    """Each row's id in ``ids``, which numbers the parsed values of a column as first seen.

    np.unique sorts one 8-byte key per row, mixed from the field's 8-byte
    words, in a third of the time it takes to sort the fields; fields that
    differ under one key raise ValueError.
    """
    words = np.ascontiguousarray(column).view(np.uint64).reshape(len(column), -1)
    keys, inverse = np.unique(functools.reduce(lambda key, word: key * _MIX ^ word, words.T),
                              return_inverse=True)
    values = np.empty(len(keys), dtype=column.dtype)
    values[inverse] = column
    if (values.view(np.uint64).reshape(len(keys), -1)[inverse] != words).any():
        raise ValueError("fields that differ under one key")
    return np.array([ids.setdefault(parse(v.decode().strip()), len(ids)) for v in values.tolist()],
                    dtype=np.intp)[inverse]


def _read_plain_transactions(path) -> TransactionTable:
    """``read_transactions`` of a plain file, a block of lines at a time; ValueError otherwise."""
    date_ids, name_ids, blocks, field_bytes = {}, {}, [], []
    with open(path, "rb") as fh:
        header = fh.readline().rstrip(b"\r\n")
        if header not in _PLAIN_HEADERS:
            raise ValueError("not a plain header")
        width = header.count(b",") + 1
        body = fh.tell()
        # every block is screened before any is parsed: a file left to the row reader costs
        # one pass over its bytes, not the blocks parsed before
        for block in iter(lambda: fh.read(_BLOCK_BYTES) + fh.readline(), b""):
            if b'"' in block or b"\0" in block:
                raise ValueError("a quote or a NUL, which the csv module reads unlike numpy")
            block.decode()
            # numpy cuts a field longer than its dtype short silently; a
            # field is shorter than its line by a comma per other field
            ends = np.flatnonzero(np.frombuffer(block, np.uint8) == ord("\n"))
            field_bytes.append(np.diff(ends, prepend=-1, append=len(block)).max() - width)
            if field_bytes[-1] > _FIELD_BYTES:
                raise ValueError("a line that may hold a field wider than numpy takes")
        fh.seek(body)
        for longest in field_bytes:
            block = fh.read(_BLOCK_BYTES) + fh.readline()
            if block.strip(b"\r\n"):  # numpy warns on a block of no rows
                text = f"S{-(-longest // 8) * 8}"  # whole 8-byte words
                fields = [("date", text), ("lender", text), ("borrower", text), ("amount", "f8"),
                          ("maturity", "S1")]  # only counted: a row without it still fails
                rows = np.loadtxt(io.BytesIO(block), dtype=fields[:width], delimiter=",",
                                  comments=None, ndmin=1, encoding="latin-1")
                blocks.append((_ids(rows["date"], date_ids, dt.date.fromisoformat),
                               _ids(rows["lender"], name_ids), _ids(rows["borrower"], name_ids),
                               rows["amount"].copy()))
    # a file of no rows has no blocks to unpack: ValueError
    day, lender, borrower, amount = (np.concatenate(column) for column in zip(*blocks))
    del blocks  # the read's memory peaks at twice the table's columns
    if ("" in name_ids or (lender == borrower).any()
            or not ((amount > 0) & (amount < math.inf)).all()):  # NaN fails both
        raise ValueError("an empty name, a self-loop or an amount not positive and finite")
    dates, labels = sorted(date_ids), sorted(name_ids)
    position = np.argsort([name_ids[name] for name in labels])  # of each name's id
    return TransactionTable(dates=tuple(dates), day=np.argsort([date_ids[d] for d in dates])[day],
                            labels=tuple(labels), lender=position[lender],
                            borrower=position[borrower], amount=amount)


# ---------------------------------------------------------------------------
# Fitted models
# ---------------------------------------------------------------------------


def model_to_dict(model: FittedModel) -> dict:
    out = {"kind": model.kind.value, "params": _jsonable(model.params)}
    if model.fitness is not None:
        out["fitness"] = {
            "assets": _jsonable(model.fitness.assets),
            "liabilities": _jsonable(model.fitness.liabilities),
        }
    if model.report is not None:
        # wall-clock seconds stay out: fitted.json must be byte-reproducible
        out["report"] = {
            "iterations": model.report.iterations,
            "residual_norm": model.report.residual_norm,
            "converged": model.report.converged,
        }
    return out


def _numbers(value, name):
    """A finite float, or a 1-d array of them from a list; DataValidationError otherwise."""
    items = value if isinstance(value, list) else [value]
    try:
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in items):
            raise TypeError
        array = np.array([float(v) for v in items], dtype=float)
    except (TypeError, OverflowError):
        raise DataValidationError(f"{name} must be a number or a list of numbers") from None
    if not np.isfinite(array).all():
        raise DataValidationError(f"{name} must be finite")
    return array if isinstance(value, list) else float(array[0])


def model_from_dict(data) -> FittedModel:
    """The model of a dict as ``model_to_dict`` writes it.

    A missing or unknown kind, missing or malformed parameters or fitness
    data, and values that are not finite numbers (parameters: positive) are
    DataValidationErrors.
    """
    if not isinstance(data, dict):
        raise DataValidationError("a model must be a JSON object")
    try:
        kind = ModelKind(data.get("kind"))
    except ValueError:
        raise DataValidationError(f"unknown model kind {data.get('kind')!r}") from None
    params = data.get("params")
    if not isinstance(params, dict):
        raise DataValidationError("a model needs a 'params' object")
    fitness = None
    if "fitness" in data:
        if not isinstance(data["fitness"], dict):
            raise DataValidationError("'fitness' must be an object of assets and liabilities")
        fitness = FitnessData(
            *(_numbers(data["fitness"].get(key), f"fitness {key}")
              for key in ("assets", "liabilities")))
    try:
        return FittedModel(kind, {k: _numbers(v, f"parameter {k!r}") for k, v in params.items()},
                           fitness=fitness)
    except DomainError as exc:
        raise DataValidationError(str(exc)) from None


def write_model(path, model: FittedModel) -> None:
    write_json(path, model_to_dict(model))


def read_model(path) -> FittedModel:
    return model_from_dict(read_json(path))


# ---------------------------------------------------------------------------
# Networks as edge lists (one nodes.csv per directory fixes N and labels)
# ---------------------------------------------------------------------------


def write_nodes(path, labels) -> None:
    write_csv(path, ["index", "label"], [range(len(labels)), labels])


def read_nodes(path) -> list[str]:
    """Node labels from rows ``index,label`` whose indices run 0, 1, ... in order.

    Any other row is a ParseError with its line number.
    """
    position = itertools.count()

    def index(text):
        if text.strip() != str(next(position)):
            raise ValueError("node index out of order")

    return read_csv(path, ["index", "label"], [index, str])[1]


def write_network(path, net: DirectedNetwork) -> None:
    src, dst = np.nonzero(net.adjacency)
    # a binary network's weights are its adjacency values, which print as the floats would
    w = net.weights if net.weights is not None else net.adjacency
    write_csv(path, ["source", "target", "weight"], [src, dst, w[src, dst]])


def read_network(path, n: int) -> DirectedNetwork:
    """Edge list (header source,target,weight) on nodes 0..n-1; repeated links add up.

    A row that is not two integer node indices and a weight, a node index
    outside 0..n-1, a weight that is not a positive finite number and a
    link from a node to itself are ParseErrors with the line number (the
    last three name the file too): none may wrap onto another node or drop
    a link unnoticed.
    """
    i, j, weight = map(np.asarray, read_csv(path, ["source", "target", "weight"],
                                            [int, int, float]))
    for bad, message in (((i < 0) | (i >= n) | (j < 0) | (j >= n),
                          f"node index outside 0..{n - 1}"),
                         (~((weight > 0) & (weight < math.inf)),  # NaN fails both
                          "weight must be positive and finite"),
                         (i == j, "self-loop")):
        if bad.any():
            k = int(np.argmax(bad))
            raise ParseError(f"{path}: {message} in row {i[k]},{j[k]},{float(weight[k])!r}",
                             line=line_of_row(path, k))
    # bincount adds repeated links in file order, as a running sum would
    cell = i.astype(np.intp) * n + j.astype(np.intp)
    w = np.bincount(cell, weights=weight, minlength=n * n).reshape(n, n)
    return DirectedNetwork.from_weight_matrix(w)

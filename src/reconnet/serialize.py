"""Deterministic CSV/JSON artifact writers, and the readers of every input file.

Numbers go to CSV at 17 significant digits so they round-trip through
float parsing losslessly; JSON uses sorted keys and the shortest
round-trip float repr. NaN and +-inf become null in JSON; in CSV they
are "nan" and "inf"/"-inf".

Every reader takes a path to a UTF-8 file and goes through ``read_csv``'s
row loop, which alone reports an error (naming the file and the line, as
the csv module counts lines), or ``_plain_blocks``, the bulk passes' one block loop.
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
from typing import Iterator, NamedTuple, Sequence

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
        row = next(itertools.islice(filter(None, reader), k, None), None)
        return None if row is None else reader.line_num


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
    """The columns of a CSV file whose first row is ``header``; every error names ``path``.

    Field k of every other nonempty row goes through ``kinds[k]`` (``int``, ``float``,
    ``finite_float``, ``str``, ...). A different header, a line the csv module cannot
    split, a row of another width, a field its kind rejects with ValueError and a kind's
    own ParseError are ParseErrors with the line. A kind's DataValidationError gets the
    line once the row's other fields have parsed. A file of ``int``, ``float`` and
    ``finite_float`` fields is read by ``_read_numeric`` first.
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
                    except (ValueError, ParseError) as exc:
                        why = exc if isinstance(exc, ParseError) else f"bad {name} {field!r}"
                        raise ParseError(f"{path}: {why}", line=reader.line_num) from None
                    except DataValidationError as exc:
                        invalid = invalid or exc
                if invalid is not None:
                    raise DataValidationError(f"{path}: {invalid}", line=reader.line_num)
        except csv.Error as exc:  # a line the csv module cannot split
            raise ParseError(f"{path}: {exc}", line=reader.line_num) from None
    return columns


_BLOCK_BYTES = 1 << 18  # bytes a bulk pass parses at a time, so no array of it outgrows its columns
_FIELD_BYTES = 128  # the widest field a bulk pass takes, for the same reason
# a quote or NUL, which the csv module splits unlike numpy, and \x1c-\x1f, which numpy
# skips around a number as spaces where float() and int() refuse them
_SCREENED = (b'"', b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _plain_blocks(fh, headers) -> tuple[list, Iterator[tuple[bytes, int]]]:
    """The header of the binary file ``fh``, one of ``headers`` as written, and the rest of the
    file in blocks of whole lines, each with its widest field, once every block has passed the
    screens; ValueError for another header, at a byte of ``_SCREENED``, a byte that is not
    UTF-8 or a field over ``_FIELD_BYTES``, which numpy would cut short. A file left to the
    row loop costs one pass over its bytes, not the blocks parsed before."""
    header = fh.readline().rstrip(b"\r\n").decode().split(",")
    if header not in headers:
        raise ValueError("not a header as written")  # other forms are the row loop's
    body, widest = fh.tell(), []
    for block in iter(lambda: fh.read(_BLOCK_BYTES) + fh.readline(), b""):
        block.decode()  # a UnicodeDecodeError is a ValueError
        if any(byte in block for byte in _SCREENED):
            raise ValueError("a byte numpy reads unlike the row loop")
        data = np.frombuffer(block, np.uint8)  # a field's bytes lie between two separators
        ends = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
        widest.append(int(np.diff(ends, prepend=-1, append=len(block)).max()) - 1)
        if widest[-1] > _FIELD_BYTES:
            raise ValueError("a field wider than a bulk pass takes")
    fh.seek(body)
    return header, ((fh.read(_BLOCK_BYTES) + fh.readline(), field_bytes) for field_bytes in widest)


def _read_numeric(path, header, kinds) -> list[np.ndarray]:
    """``read_csv`` by numpy, which parses a number as ``int`` and ``float`` do; ValueError
    for a file numpy may read otherwise than the row loop."""
    with open(path, "rb") as fh:
        _, blocks = _plain_blocks(fh, [list(header)])
        # lines split at \n: numpy refuses a lone \r inside a line. Text numpy parses as
        # numbers is ASCII: it may crash on a character past U+FFFF
        lines = (line for block, _ in blocks for line in block.decode("ascii").split("\n"))
        with warnings.catch_warnings(action="error", category=UserWarning):  # of no rows
            columns = np.loadtxt(lines, delimiter=",", comments=None, ndmin=1, unpack=True,
                                 dtype=[("", np.int64 if kind is int else np.float64)
                                        for kind in kinds])
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


_TRANSACTIONS_HEADER = ["date", "lender", "borrower", "amount", "maturity"]


def write_transactions_csv(path, table: TransactionTable) -> None:
    """Write a ``TransactionTable`` as a transactions CSV.

    Amounts are written through ``fmt``, and the maturity column is left
    empty. Each distinct date, bank name and amount is formatted once.
    """
    write_csv(path, _TRANSACTIONS_HEADER,
              [Coded([d.isoformat() for d in table.dates], table.day),
               Coded(table.labels, table.lender), Coded(table.labels, table.borrower),
               table.amount, Coded([""], np.broadcast_to(0, len(table.day)))])


def _date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError:
        raise ParseError(f"bad ISO-8601 date {text!r}") from None


def _name(text: str) -> str:
    if name := text.strip():
        return name
    raise ParseError("empty lender or borrower field")


def _amount(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # NaN fails both
        raise DataValidationError(f"amount must be positive and finite, got {value}")
    return value


def _coded(values) -> tuple[list, np.ndarray]:
    """The distinct values, sorted, and each item's index among them."""
    distinct = sorted(set(values))
    index = {value: k for k, value in enumerate(distinct)}
    return distinct, np.fromiter(map(index.__getitem__, values), dtype=np.intp, count=len(values))


def read_transactions(path) -> TransactionTable:
    """The table of a transactions CSV, header date,lender,borrower,amount[,maturity].

    A row has a maturity field when the header names it; it is not kept. A plain file is
    read by ``_read_plain_transactions``, any other by ``read_csv``, which parses each distinct
    date and name once: its errors name ``path`` and the line, and a self-loop, the one check
    across fields, is a DataValidationError once every row has parsed.
    """
    try:
        (dates, day), (labels, names), amount = _read_plain_transactions(path)
    except ValueError:  # not plain; a UnicodeDecodeError is one
        name = functools.cache(_name)  # dates and names repeat over many rows
        kinds = [functools.cache(_date), name, name, _amount, str]
        try:
            date, lender, borrower, amount, _ = read_csv(path, _TRANSACTIONS_HEADER, kinds)
        except ParseError as exc:  # a header without maturity, or an error of the header row
            if exc.line != 1:
                raise
            date, lender, borrower, amount = read_csv(path, _TRANSACTIONS_HEADER[:4], kinds[:4])
        (dates, day), (labels, names) = _coded(date), _coded(lender + borrower)
    lender, borrower = np.split(names, 2)
    if (lender == borrower).any():
        k = int(np.argmax(lender == borrower))
        raise DataValidationError(f"{path}: self-loop transaction for {labels[lender[k]]!r}",
                                  line=line_of_row(path, k))
    return TransactionTable(dates=tuple(dates), day=day, labels=tuple(labels), lender=lender,
                            borrower=borrower, amount=np.asarray(amount, dtype=float))


_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd, so a word times it is a one-to-one map


def _distinct(column) -> tuple[np.ndarray, np.ndarray]:
    """A column's distinct fields and each row's index among them, found by np.unique of one
    key per row mixed from the field's 8-byte words, in a third of the time it takes to sort
    the fields; ValueError for fields that differ under one key."""
    words = np.ascontiguousarray(column).view(np.uint64).reshape(len(column), -1)
    keys, inverse = np.unique(functools.reduce(lambda key, word: key * _MIX ^ word, words.T),
                              return_inverse=True)
    fields = np.empty(len(keys), dtype=column.dtype)
    fields[inverse] = column
    # a key and every word of a field but its last fix the last, so only those are compared
    if (fields.view(np.uint64).reshape(len(keys), -1)[inverse, :-1] != words[:, :-1]).any():
        raise ValueError("fields that differ under one key")
    return fields, inverse


def _file_codes(blocks, parse) -> tuple[list, np.ndarray]:
    """The sorted distinct values of a column read as ``_distinct`` blocks, and each row's
    index among them: each distinct field of the file is decoded and parsed once."""
    fields, rows = zip(*blocks)
    distinct, inverse = _distinct(np.concatenate(fields))
    values, codes = _coded([parse(field.decode().strip()) for field in distinct.tolist()])
    starts = np.cumsum([0] + [len(f) for f in fields])  # of each block's fields, in order
    for start, r in zip(starts, rows):  # in place, so the rows are held once, then concatenated
        r[:] = codes[inverse[start + r]]
    return values, np.concatenate(rows)


def _read_plain_transactions(path) -> tuple[tuple, tuple, np.ndarray]:
    """The ``_file_codes`` of the dates and of the lenders then borrowers of a plain file, and
    its amounts, read a block of lines at a time; ValueError for any other file."""
    blocks = []
    with open(path, "rb") as fh:
        header, plain = _plain_blocks(fh, [_TRANSACTIONS_HEADER, _TRANSACTIONS_HEADER[:4]])
        for block, field_bytes in plain:
            if block.strip(b"\r\n"):  # numpy warns on a block of no rows
                text = ("", f"S{-(-field_bytes // 8) * 8}")  # whole 8-byte words
                # latin-1 keeps a field's bytes; a stream of text, not a list of lines, leaves
                # no small objects behind in the allocator. maturity is only counted
                date, lender, borrower, amount, *_ = np.loadtxt(
                    io.StringIO(block.decode("latin-1")), delimiter=",", comments=None, ndmin=1,
                    unpack=True, dtype=[text, text, text, ("", "f8"), ("", "S1")][:len(header)])
                blocks.append((_distinct(date), _distinct(lender), _distinct(borrower),
                               amount.copy()))
    dates, lenders, borrowers, amount = zip(*blocks)  # a file of no rows has none: ValueError
    names, amount = _file_codes(lenders + borrowers, str), np.concatenate(amount)
    if "" in names[0] or not ((amount > 0) & (amount < math.inf)).all():  # NaN fails both
        raise ValueError("an empty name or an amount not positive and finite")
    return _file_codes(dates, dt.date.fromisoformat), names, amount


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

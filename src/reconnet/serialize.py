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
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataValidationError, DomainError, ParseError
from .graph import DirectedNetwork
from .ingest import FitnessData, TransactionTable
from .models import FittedModel, ModelKind


fmt = "{:.17g}".format  # a float's 17-significant-digit decimal form: a lossless round trip
_CHUNK_ROWS = 1 << 16  # rows formatted at a time, which bounds the writer's memory


def write_csv(path, header, columns) -> None:
    """A header row, then row k holding item k of every column.

    Columns are arrays or sequences of equal length. A float column is
    written through ``fmt``, any other column as ``str`` of its items. Rows
    go out 64 Ki at a time: by one row format when every column is a float
    or numpy integer array, else by the csv module, with each distinct float
    formatted once (a float column next to text, such as amounts, has few).
    """
    # a sequence keeps its items unless they are floats: a numpy str array drops trailing NULs
    arrays = [array if array.dtype.kind == "f" or isinstance(column, np.ndarray)
              else np.array(column, dtype=object)
              for column, array in zip(columns, map(np.asarray, columns))]
    if len({len(array) for array in arrays}) > 1:
        raise ValueError("columns differ in length")
    kinds = [array.dtype.kind for array in arrays]
    row = ",".join("{:.17g}" if kind == "f" else "{}" for kind in kinds) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, len(arrays[0]) if arrays else 0, _CHUNK_ROWS):
            chunk = [array[start:start + _CHUNK_ROWS] for array in arrays]
            if set(kinds) <= set("biuf"):
                fh.write("".join(map(row.format, *(part.tolist() for part in chunk))))
            else:
                writer.writerows(zip(*(_float_texts(part) if kind == "f" else part.tolist()
                                       for part, kind in zip(chunk, kinds))))


def _float_texts(values) -> list[str]:
    """``fmt`` of each value, formatted once per distinct value, told apart by its bits."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    _, first, inverse = np.unique(values.view(np.int64), return_index=True, return_inverse=True)
    return np.array(list(map(fmt, values[first].tolist())), dtype=object)[inverse].tolist()


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


def read_csv(path, header, kinds) -> list[list]:
    """The columns of a CSV file whose first row is ``header``.

    Field k of every other nonempty row goes through ``kinds[k]`` (``int``,
    ``float``, ``finite_float``, ``str``, ...). A different header, a line
    the csv module cannot split, a row with another number of fields and a
    field its kind rejects with ValueError are ParseErrors with the line
    number. A kind may raise DataValidationError for a value it reads but
    does not accept; that error gets the line number once the row's other
    fields have been read, so a field that does not parse is reported
    first. Every error names ``path``.
    """
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
    empty. Each distinct date is formatted once.
    """
    dates = np.array([d.isoformat() for d in table.dates], dtype=object)
    labels = np.array(table.labels, dtype=object)
    write_csv(path, _TRANSACTIONS_HEADER + ["maturity"],
              [dates[table.day], labels[table.lender], labels[table.borrower], table.amount,
               [""] * len(table.day)])


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


_EDGE_HEADER = ["source", "target", "weight"]
_EDGE_ROW = np.dtype([("source", np.int64), ("target", np.int64), ("weight", np.float64)])


def read_network(path, n: int) -> DirectedNetwork:
    """Edge list (header source,target,weight) on nodes 0..n-1; repeated links add up.

    A row that is not two integer node indices and a weight, a node index
    outside 0..n-1, a weight that is not a positive finite number and a
    link from a node to itself are ParseErrors with the line number (the
    last three name the file too): none may wrap onto another node or drop
    a link unnoticed.

    The body is parsed in bulk by numpy and checked as arrays. numpy takes
    a subset of the rows the csv module and ``int``/``float`` take, with
    the same values. When it fails, or a check fails, the file is read
    again by ``read_csv``: that pass names the line of a bad row, and
    takes what only the csv module reads (quoted fields, ``1_0``, non-ASCII
    digits, a file with no rows).
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header, _, body = fh.read().partition("\n")
        header = header.removesuffix("\r")
        # csv ends a row at a lone \r, which strip() would take for a space
        if "\r" in header or [h.strip().lower() for h in header.split(",")] != _EDGE_HEADER:
            raise ValueError("not a plain edge-list header")
        if not body.strip("\r\n"):  # no rows, which numpy would warn about
            raise ValueError("no rows")
        rows = np.loadtxt(io.StringIO(body, newline=""), delimiter=",", comments=None,
                          ndmin=1, dtype=_EDGE_ROW)
        i, j, weight = rows["source"], rows["target"], rows["weight"]
        if any(bad.any() for bad, _ in _edge_checks(i, j, weight, n)):
            raise ValueError("a row that fails a check")
    except ValueError:  # a UnicodeDecodeError is one
        src, dst, weights = read_csv(path, _EDGE_HEADER, [int, int, float])
        i, j, weight = np.array(src), np.array(dst), np.array(weights, dtype=float)
        for bad, message in _edge_checks(i, j, weight, n):
            if bad.any():
                k = int(np.argmax(bad))
                raise ParseError(f"{path}: {message} in row {src[k]},{dst[k]},{weights[k]!r}",
                                 line=line_of_row(path, k)) from None
    # bincount adds repeated links in file order, as a running sum would
    cell = i.astype(np.intp) * n + j.astype(np.intp)
    w = np.bincount(cell, weights=weight, minlength=n * n).reshape(n, n)
    return DirectedNetwork.from_weight_matrix(w)


def _edge_checks(i, j, weight, n):
    """The checks of an edge list's columns, each as (mask of failing rows, message)."""
    return (((i < 0) | (i >= n) | (j < 0) | (j >= n), f"node index outside 0..{n - 1}"),
            (~((weight > 0) & (weight < math.inf)),  # NaN fails both
             "weight must be positive and finite"),
            (i == j, "self-loop"))

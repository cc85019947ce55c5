"""Deterministic CSV/JSON artifact writers and readers.

Numbers go to CSV at 17 significant digits so they round-trip through
float parsing losslessly; JSON uses sorted keys and the shortest
round-trip float repr. NaN becomes null in JSON and "nan" in CSV.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from .errors import DataValidationError, DomainError, ParseError
from .graph import DirectedNetwork
from .ingest import FitnessData, TransactionTable, csv_reader, line_of_row, open_text
from .models import FittedModel, ModelKind


_FLOAT17 = "{:.17g}".format


def fmt(x) -> str:
    """17-significant-digit decimal form of a float (lossless round trip)."""
    return _FLOAT17(float(x))


def write_csv(path, header, columns) -> None:
    """A header row, then row k holding item k of every column.

    Columns are arrays or sequences of equal length. A float column is
    written through ``fmt``, any other column as ``str`` of its items. A
    float array is formatted once per distinct value, told apart by its
    bits, which keeps -0.0 apart from 0.0.
    """
    cells = []
    for column in columns:
        array = np.asarray(column)
        if array.dtype.kind == "f":
            array = np.ascontiguousarray(array, dtype=np.float64)
            _, first, inverse = np.unique(array.view(np.int64), return_index=True,
                                          return_inverse=True)
            texts = np.array(list(map(_FLOAT17, array[first].tolist())), dtype=object)
            cells.append(texts[inverse].tolist())
        else:
            # items of a sequence as they are: a numpy str array drops trailing NULs
            cells.append(array.tolist() if isinstance(column, np.ndarray) else list(column))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells, strict=True))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return None if math.isnan(x) else x
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


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
    ``float``, ``finite_float``, ``str``, ...). A different header, a row
    with another number of fields and a field its kind rejects with
    ValueError are ParseErrors with the line number. A kind may raise
    DataValidationError for a value it reads but does not accept; that
    error gets the line number once the row's other fields have been read,
    so a field that does not parse is reported first.
    """
    columns = [[] for _ in header]
    with open_text(path) as fh, csv_reader(fh) as reader:
        first = next(reader, None)
        if first is None or [h.strip().lower() for h in first] != list(header):
            raise ParseError(f"bad header in {path}, expected {','.join(header)}", line=1)
        for row in filter(None, reader):
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}",
                                 line=reader.line_num)
            invalid = None
            for column, kind, name, field in zip(columns, kinds, header, row):
                try:
                    column.append(kind(field))
                except ValueError:
                    raise ParseError(f"bad {name} {field!r}", line=reader.line_num) from None
                except DataValidationError as exc:
                    invalid = invalid or exc
            if invalid is not None:
                raise DataValidationError(str(invalid), line=reader.line_num)
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


def write_transactions_csv(path, table: TransactionTable) -> None:
    """Write a ``TransactionTable`` as a transactions CSV.

    Amounts are written through ``fmt`` and a missing maturity as an empty
    field. Each distinct date is formatted once.
    """
    dates = np.array([d.isoformat() for d in table.dates], dtype=object)
    labels = np.array(table.labels, dtype=object)
    write_csv(path, ["date", "lender", "borrower", "amount", "maturity"],
              [dates[table.day], labels[table.lender], labels[table.borrower], table.amount,
               np.array([m or "" for m in table.maturity], dtype=object)])


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
        return FittedModel(kind, {k: _numbers(v, f"parameter {k}") for k, v in params.items()},
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
    labels = []
    with open_text(path) as fh, csv_reader(fh) as reader:
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["index", "label"]:
            raise ParseError(f"bad nodes header in {path}", line=1)
        for row in filter(None, reader):
            if len(row) != 2:
                raise ParseError(f"expected 2 fields, got {len(row)}", line=reader.line_num)
            if row[0].strip() != str(len(labels)):
                raise ParseError(f"node index {row[0]!r} out of order, expected {len(labels)}",
                                 line=reader.line_num)
            labels.append(row[1])
    return labels


def write_network(path, net: DirectedNetwork) -> None:
    src, dst = np.nonzero(net.adjacency)
    w = net.weights if net.weights is not None else net.adjacency
    write_csv(path, ["source", "target", "weight"], [src, dst, w[src, dst].astype(float)])


_EDGE_HEADER = ["source", "target", "weight"]
_EDGE_ROW = np.dtype([("source", np.int64), ("target", np.int64), ("weight", np.float64)])


def read_network(path, n: int, labels=None) -> DirectedNetwork:
    """Edge list (header source,target,weight) on nodes 0..n-1; repeated links add up.

    A row that is not two integer node indices and a weight, a node index
    outside 0..n-1 and a weight that is not a positive finite number are
    ParseErrors with the line number: none may wrap onto another node or
    drop a link unnoticed.

    The body is parsed in bulk by numpy and checked as arrays. numpy takes
    a subset of the rows the csv module and ``int``/``float`` take, with
    the same values. When it fails, or a check fails, the file is read
    again row by row: that pass names the line of a bad row, and takes
    what only the csv module reads (quoted fields, ``1_0``, non-ASCII
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
        if ((i < 0) | (i >= n) | (j < 0) | (j >= n)).any() \
                or not ((weight > 0) & (weight < math.inf)).all():  # NaN fails both
            raise ValueError("a row outside the nodes or a weight that is not positive")
    except ValueError:  # a UnicodeDecodeError is one
        return _read_network_rows(path, n, labels)
    return _weight_network(i, j, weight, n, labels)


def _weight_network(i, j, weight, n, labels):
    # bincount adds repeated links in file order, as a running sum would
    cell = i.astype(np.intp) * n + j.astype(np.intp)
    w = np.bincount(cell, weights=weight, minlength=n * n).reshape(n, n)
    return DirectedNetwork.from_weight_matrix(w, labels=labels)


def _read_network_rows(path, n: int, labels=None) -> DirectedNetwork:
    """``read_network`` one row at a time, raising the error of the first bad row."""
    src, dst, weights = [], [], []
    with open_text(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != _EDGE_HEADER:
            raise ParseError(f"bad edge-list header in {path}", line=1)
        row = None
        try:
            for row in filter(None, reader):
                i, j, weight = row
                src.append(int(i))
                dst.append(int(j))
                weights.append(float(weight))
        except UnicodeDecodeError:
            raise  # a file that is not UTF-8, not a bad row
        except (ValueError, csv.Error):
            raise ParseError(f"bad edge row {row!r}", line=reader.line_num) from None
    i, j, weight = np.array(src), np.array(dst), np.array(weights, dtype=float)
    for bad, message in (((i < 0) | (i >= n) | (j < 0) | (j >= n),
                          f"node index outside 0..{n - 1}"),
                         (~(np.isfinite(weight) & (weight > 0)),
                          "weight must be positive and finite")):
        if bad.any():
            k = int(np.argmax(bad))
            with open(path, "r", encoding="utf-8", newline="") as fh:
                line = line_of_row(fh, k)
            raise ParseError(f"{message} in row {src[k]},{dst[k]},{weights[k]!r}", line=line)
    return _weight_network(i, j, weight, n, labels)

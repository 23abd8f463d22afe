"""Text tables: the triplet CSV and the edge TSV are written by one block
writer of integer rows, and they, the embedding CSV and the
cluster-assignment CSV are read by one reader of a table's body, whose
lines hold a fixed number of integer fields, then of float fields, joined
by one delimiter. The labels CSV and the node CSV, whose fields are
strings, are written by one writer and read by one header-checked reader.
"""

from __future__ import annotations

import csv
import warnings
from array import array
from itertools import islice

import numpy as np

from .errors import ParseError

# lines per block of write_int_rows: its buffers stay within a few MB
_WRITE_ROWS = 1 << 16


def write_int_rows(fh, columns, sep: str) -> None:
    """Write equal-length columns of non-negative integers to the binary file
    ``fh`` as ASCII decimal lines, the fields joined by ``sep``.

    Works in blocks of ``_WRITE_ROWS`` lines, so its buffers stay within a
    few MB however long the columns are. A block is laid out as one
    contiguous row per byte column of its lines, a column's field as wide as
    its widest value: the digits are taken from the values as uint32 (uint64
    where the block's largest is at least 2^32) by division by 10, the
    leading zeros are masked out and the rest is written at once, in line
    order. A column may be of any numeric dtype holding integers.
    """
    columns = [np.asarray(col) for col in columns]
    ends = [ord(sep)] * (len(columns) - 1) + [ord("\n")]
    for start in range(0, len(columns[0]), _WRITE_ROWS):
        block = [col[start : start + _WRITE_ROWS] for col in columns]
        if any(values.min() < 0 for values in block):
            raise ValueError("negative value in an integer column")
        tops = [int(values.max()) for values in block]
        widths = [len(str(top)) for top in tops]
        text = np.empty((sum(widths) + len(widths), len(block[0])), dtype=np.uint8)
        keep = np.ones(text.shape, dtype=bool)
        pos = 0
        for values, top, width, end in zip(block, tops, widths, ends):
            rest = values.astype(np.uint32 if top < 2**32 else np.uint64)
            last = pos + width - 1  # the units digit
            for col in range(pos, last):  # a leading digit is kept once nonzero
                np.greater_equal(rest, 10 ** (last - col), out=keep[col])
            for col in range(last, pos - 1, -1):
                quotient = rest // 10
                np.subtract(rest, quotient * 10, out=text[col], casting="unsafe")
                rest = quotient
            text[pos : last + 1] += ord("0")
            text[last + 1] = end
            pos = last + 2
        fh.write(text.T[keep.T])


def write_csv_rows(path, header, rows) -> None:
    """A string CSV: the ``header`` row, then ``rows``, a None field left empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv_rows(path, header):
    """(lineno, row) per nonblank row, after a header whose first fields strip to ``header``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or [h.strip() for h in first[: len(header)]] != header:
            raise ParseError(f"expected '{','.join(header)}' header in {path}", line=1)
        for row in reader:
            if row:
                yield reader.line_num, row


def _loadtxt(path, start, delimiter, ints, floats):
    """The body as (integer, float) arrays in one numpy call on the path, which
    reads in blocks, or None where a line is outside numpy's syntax, narrower
    than ``int()``'s and ``float()``'s. Some NumPy 1.x releases read ``1.5``
    in an integer field as its truncation with a DeprecationWarning, made an
    error here. A plain 2-D int64 array parses faster than a structured one."""
    layout = [("ints", np.int64, (ints,)), ("floats", np.float64, (floats,))]
    dtype = np.dtype(layout if floats else np.int64)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        warnings.filterwarnings("error", category=DeprecationWarning)
        try:
            body = np.loadtxt(path, delimiter=delimiter, dtype=dtype, ndmin=1 if floats else 2,
                              comments=None, skiprows=start - 1)
        except (ValueError, DeprecationWarning):
            return None
    if floats:
        return body["ints"], np.ascontiguousarray(body["floats"])
    if body.size and body.shape[1] != ints:
        return None
    return body.reshape(-1, ints), np.empty((len(body), 0))


def _scan(path, start, delimiter, fields, ints, floats):
    """The lines from ``start`` on as ``int()`` and ``float()`` read them,
    blank ones skipped: the rows before the first malformed line, their line
    numbers, and that line's ParseError, or None."""
    values, reals, linenos, error = array("q"), array("d"), array("q"), None
    with open(path) as fh:
        for lineno, line in enumerate(islice(fh, start - 1, None), start=start):
            line = line.strip()
            if not line:
                continue
            parts = line.split(delimiter)
            if len(parts) != ints + floats:
                error = ParseError(f"expected {fields} got {line!r}", line=lineno)
                break
            try:
                values.extend(map(int, parts[:ints]))
                reals.extend(map(float, parts[ints:]))
            except (ValueError, OverflowError):
                kind = "numbers" if floats else "integers"
                error = ParseError(f"expected {kind}, got {line!r}", line=lineno)
                break
            linenos.append(lineno)
    m = len(linenos)  # the malformed line may have left some values behind
    values = np.frombuffer(values, dtype=np.int64)[: m * ints].reshape(m, ints)
    reals = np.frombuffer(reals, dtype=np.float64)[: m * floats].reshape(m, floats)
    return values, reals, np.frombuffer(linenos, dtype=np.int64), error


def _row_faults(values, bounds, counted):
    """Per row: 1 where an integer lies outside ``bounds``, else 2 where, with
    ``counted``, the first column is not the row's position, else 0."""
    faults = np.zeros(len(values), dtype=np.int8)
    if counted:
        faults[values[:, 0] != np.arange(len(values))] = 2
    for column, (lower, upper) in zip(values.T, bounds):
        # a column's extremes, cheaper than a row mask, say whether one is needed
        if len(column) and (column.min() < lower or column.max() > upper):
            faults[(column < lower) | (column > upper)] = 1
    return faults


def _pair_order(values):
    """The order of the rows by their first two columns, None where they
    already ascend strictly, and the rows that repeat an earlier row's pair."""
    a, b = values[:, 0], values[:, 1]
    if ((a[1:] > a[:-1]) | (a[1:] == a[:-1]) & (b[1:] > b[:-1])).all():
        return None, np.empty(0, dtype=np.int64)
    order = np.lexsort((b, a))  # stable: a repeat sorts after its first row
    a, b = a[order], b[order]
    return order, order[np.flatnonzero((a[1:] == a[:-1]) & (b[1:] == b[:-1])) + 1]


def read_rows(path, start, fields, what, *, ints, floats=0, delimiter=",", bounds=(),
              counted=False, unique=None):
    """The body of a numeric table from line ``start`` on, ``ints`` integers
    then ``floats`` floats per line, as (m, ints) int64 and (m, floats)
    float64 arrays. Checks: integers lie within ``bounds``, one inclusive
    (lower, upper) pair per leading column; with ``counted``, the first column
    counts up from 0; with ``unique``, the name of the first two columns'
    pair, no pair repeats, and the rows come back ordered by it.

    One ``np.loadtxt`` call parses the body. If it rejects the body or a
    check fails, the lines are scanned once with ``int()`` and ``float()``,
    and a ParseError names the first line out of shape, syntax, range or
    count, else the first line repeating a pair; ``fields`` and ``what`` name
    a line's fields and a row in its message."""
    parsed = _loadtxt(path, start, delimiter, ints, floats)
    if parsed is not None and not _row_faults(parsed[0], bounds, counted).any():
        order, repeats = _pair_order(parsed[0]) if unique else (None, ())
        if not len(repeats):
            return parsed if order is None else (parsed[0][order], parsed[1][order])
    values, reals, linenos, error = _scan(path, start, delimiter, fields, ints, floats)
    faults = _row_faults(values, bounds, counted)
    if faults.any():
        first = int(np.flatnonzero(faults)[0])
        lineno = int(linenos[first])
        with open(path) as fh:
            line = next(islice(fh, lineno - 1, None)).strip()
        problem = "out of range" if faults[first] == 1 else "out of order"
        raise ParseError(f"{what} {problem}: {line!r}", line=lineno)
    if error is not None:
        raise error
    order, repeats = _pair_order(values) if unique else (None, ())
    if len(repeats):
        raise ParseError(f"duplicate {unique} {what} in {path}", line=int(linenos[repeats].min()))
    return (values, reals) if order is None else (values[order], reals[order])

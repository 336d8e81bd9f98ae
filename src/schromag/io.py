"""Text formats: coordinate matrices, vectors, CSV traces, JSON reports.

Matrix files: header line ``rows cols nnz`` followed by one ``i j re im``
entry per line, 0-based indices.  Entries that repeat an index pair are
summed, as in the COO convention (scipy.sparse does the same).  The
matrix is stored dense, so a header whose rows*cols exceeds
MAX_DENSE_ENTRIES is rejected before anything is allocated.  Vector
files: one ``re im`` pair per line.  A nan or infinite entry is rejected
with its file and line.  Floats are written with repr
(shortest round-trip) so identical inputs produce byte-identical files;
JSON reports are strict, with null for a nan or infinite value.
`write_rows` writes every other text table, each writer here and each CSV
of the CLI, from columns through `ndarray.tolist()`, so repr sees Python
floats.  The field snapshot, the one large file, gets the same text from
`floatrepr.format_rows`, which formats a block of float64 rows with
whole-array numpy arithmetic instead of one repr call per value.
"""

from __future__ import annotations

import cmath
import json
import math
import os

import numpy as np

from .errors import InputError
from .linalg import as_cmatrix, as_cvector

# 4096 x 4096 complex is 256 MiB; a run holds the matrix and the full
# SVD's U and V^H, three times that
MAX_DENSE_ENTRIES = 1 << 24
# rows of a text table, the field snapshot included, formatted and written per block
_BLOCK_ROWS = 32


def _floats(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def nan_as_empty(x) -> list:
    """x as Python floats, with None (an empty cell) at each nan or None."""
    return [None if math.isnan(v) else v for v in _floats(x).tolist()]


def write_rows(path, header, columns, sep: str = ",") -> None:
    """One line per row of the zipped columns: each cell repr of its value,
    a str as it is, None empty; a header that is not None comes first, and
    every line ends in a newline (no header and no rows: one empty line).
    Each block of _BLOCK_ROWS rows is formatted column by column and
    written, so neither the whole file's cells nor its text are held."""
    rows = min(map(len, columns), default=0)
    with _create(path) as fh:
        if header is not None or not rows:
            fh.write(f"{header or ''}\n")
        for lo in range(0, rows, _BLOCK_ROWS):
            cells = [_cells(c[lo:lo + _BLOCK_ROWS]) for c in columns]
            fh.write("\n".join(map(sep.join, zip(*cells))) + "\n")


def _cells(column) -> list:
    values = column.tolist() if isinstance(column, np.ndarray) else column
    return ["" if v is None else v if type(v) is str else repr(v) for v in values]


def write_matrix_coo(path, m) -> None:
    m = as_cmatrix(m)
    ii, jj = np.nonzero(m)  # row-major, as argwhere
    entries = m[ii, jj]
    write_rows(path, f"{m.shape[0]} {m.shape[1]} {ii.size}",
               [ii, jj, entries.real, entries.imag], sep=" ")


def read_matrix_coo(path) -> np.ndarray:
    try:
        with open(path) as fh:
            tokens = fh.read().split("\n")
    except OSError as exc:
        raise InputError(f"cannot read matrix file {path}: {exc}") from exc
    header = tokens[0].split()
    if len(header) != 3:
        raise InputError(f"{path}: expected header 'rows cols nnz'")
    try:
        rows, cols, nnz = (int(t) for t in header)
    except ValueError as exc:
        raise InputError(f"{path}: malformed header {tokens[0]!r}") from exc
    if rows < 1 or cols < 1 or rows * cols > MAX_DENSE_ENTRIES:
        raise InputError(
            f"{path}: a {rows} x {cols} matrix is outside 1 <= rows, cols and "
            f"rows*cols <= {MAX_DENSE_ENTRIES}"
        )
    m = np.zeros((rows, cols), dtype=np.complex128)
    entries = [(k, ln) for k, ln in enumerate(tokens[1:], 2) if ln.strip()]
    if len(entries) != nnz:
        raise InputError(f"{path}: header promises {nnz} entries, found {len(entries)}")
    for k, ln in entries:
        parts = ln.split()
        if len(parts) != 4:
            raise InputError(f"{path}: malformed entry line {ln!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            re, im = float(parts[2]), float(parts[3])
        except ValueError as exc:
            raise InputError(f"{path}: malformed entry line {ln!r}") from exc
        if not (0 <= i < rows and 0 <= j < cols):
            raise InputError(f"{path}: index ({i},{j}) out of range")
        m[i, j] += _finite(path, k, ln, re + 1j * im)
    return m


def _finite(path, line_no: int, line: str, value: complex) -> complex:
    """value, or InputError naming the file and line if it is nan or infinite."""
    if not cmath.isfinite(value):
        raise InputError(f"{path}: line {line_no}: non-finite entry {line!r}")
    return value


def write_vector(path, v) -> None:
    v = as_cvector(v)
    write_rows(path, None, [v.real, v.imag], sep=" ")


def read_vector(path) -> np.ndarray:
    try:
        with open(path) as fh:
            lines = [(k, ln) for k, ln in enumerate(fh.read().split("\n"), 1) if ln.strip()]
    except OSError as exc:
        raise InputError(f"cannot read vector file {path}: {exc}") from exc
    out = []
    for k, ln in lines:
        parts = ln.split()
        if len(parts) != 2:
            raise InputError(f"{path}: expected 're im' per line, got {ln!r}")
        try:
            value = float(parts[0]) + 1j * float(parts[1])
        except ValueError as exc:
            raise InputError(f"{path}: malformed line {ln!r}") from exc
        out.append(_finite(path, k, ln, value))
    return np.array(out, dtype=np.complex128)


def write_trace_csv(path, residuals, relative_residuals=None) -> None:
    """Iteration trace: step, residual, relative_residual (empty without one)."""
    residuals = _floats(residuals)
    relative = ([None] * residuals.size if relative_residuals is None
                else _floats(relative_residuals))
    write_rows(path, "step,residual,relative_residual",
               [range(residuals.size), residuals, relative])


def write_trajectory_csv(path, times, solved, aux, ratios) -> None:
    """Flow samples: time, solved_re, solved_im, aux_re, aux_im, ratio.

    The ratio column holds the real part of aux/solved and is left empty
    at gap samples (near-zero denominator).
    """
    solved, aux = np.asarray(solved), np.asarray(aux)
    write_rows(path, "time,solved_re,solved_im,aux_re,aux_im,ratio",
               [_floats(c) for c in (times, solved.real, solved.imag, aux.real, aux.imag)]
               + [nan_as_empty(ratios)])


def write_solution_csv(path, u, xs, ys=None) -> None:
    u, nodes = as_cvector(u), [xs] if ys is None else [xs, ys]
    write_rows(path, "node_index,x,u_re,u_im" if ys is None else "node_index,x,y,u_re,u_im",
               [range(u.size), *map(_floats, nodes), u.real, u.imag])


def write_field_snapshot_csv(path, points, field) -> None:
    """Warped-field snapshot: one row per grid point p_k, columns per component.

    Rows are formatted and written _BLOCK_ROWS at a time, so the
    text of the whole file is never held in memory.  Each cell is
    repr(float(value)), through `floatrepr.format_rows`.
    """
    # imported on use: run without cached bytecode, compiling the formatter
    # added ~3 ms to the import of every command
    from .floatrepr import format_rows

    field = np.ascontiguousarray(field, dtype=np.complex128)
    points = np.asarray(points, dtype=np.float64)
    ncomp = field.shape[1]
    header = ["p"]
    for c in range(ncomp):
        header += [f"comp{c}_re", f"comp{c}_im"]
    with _create(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for lo in range(0, points.size, _BLOCK_ROWS):
            hi = lo + _BLOCK_ROWS
            # re/im interleaved as plain floats
            fh.write(format_rows(np.column_stack([points[lo:hi], field[lo:hi].view(np.float64)])))


def write_json(path, payload) -> None:
    """Strict JSON: a nan or infinite float anywhere in payload is written as null."""
    with _create(path) as fh:
        fh.write(json.dumps(_finite_or_null(payload), indent=2, sort_keys=True,
                            allow_nan=False) + "\n")


def _finite_or_null(value):
    """value with each non-finite float in its dicts, lists and tuples made None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _create(path, mode: str = "w"):
    """Open path for writing, creating its directory if needed."""
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, mode)

"""Text formats: coordinate matrices, vectors, CSV traces, JSON reports.

Matrix files: header line ``rows cols nnz`` followed by one ``i j re im``
entry per line, 0-based indices.  Entries that repeat an index pair are
summed, as in the COO convention (scipy.sparse does the same).  The
matrix is stored dense, so a header whose rows*cols exceeds
MAX_DENSE_ENTRIES is rejected before anything is allocated.  Vector
files: one ``re im`` pair per line.  A nan or infinite entry is rejected
with its file and line.  Floats are written with repr
(shortest round-trip) so identical inputs produce byte-identical files.
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
# rows of the field snapshot formatted and written per block
_SNAPSHOT_BLOCK_ROWS = 32


def _fmt(x: float) -> str:
    return repr(float(x))


def write_matrix_coo(path, m) -> None:
    m = as_cmatrix(m)
    rows, cols = m.shape
    idx = np.argwhere(m != 0)
    lines = [f"{rows} {cols} {len(idx)}"]
    for i, j in idx:
        e = m[i, j]
        lines.append(f"{i} {j} {_fmt(e.real)} {_fmt(e.imag)}")
    write_text(path, "\n".join(lines) + "\n")


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
    lines = [f"{_fmt(e.real)} {_fmt(e.imag)}" for e in v]
    write_text(path, "\n".join(lines) + "\n")


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
    """Iteration trace: step, residual, relative_residual (may be empty)."""
    lines = ["step,residual,relative_residual"]
    for k, r in enumerate(residuals):
        rel = ""
        if relative_residuals is not None and not math.isinf(relative_residuals[k]):
            rel = _fmt(relative_residuals[k])
        lines.append(f"{k},{_fmt(r)},{rel}")
    write_text(path, "\n".join(lines) + "\n")


def write_trajectory_csv(path, times, solved, aux, ratios) -> None:
    """Flow samples: time, solved_re, solved_im, aux_re, aux_im, ratio.

    The ratio column holds the real part of aux/solved and is left empty
    at gap samples (near-zero denominator).
    """
    lines = ["time,solved_re,solved_im,aux_re,aux_im,ratio"]
    for t, s, a, r in zip(times, solved, aux, ratios):
        rcol = "" if (r is None or math.isnan(r)) else _fmt(r)
        lines.append(
            f"{_fmt(t)},{_fmt(s.real)},{_fmt(s.imag)},{_fmt(a.real)},{_fmt(a.imag)},{rcol}"
        )
    write_text(path, "\n".join(lines) + "\n")


def write_solution_csv(path, u, xs, ys=None) -> None:
    u = as_cvector(u)
    if ys is None:
        lines = ["node_index,x,u_re,u_im"]
        for k in range(u.size):
            lines.append(f"{k},{_fmt(xs[k])},{_fmt(u[k].real)},{_fmt(u[k].imag)}")
    else:
        lines = ["node_index,x,y,u_re,u_im"]
        for k in range(u.size):
            lines.append(
                f"{k},{_fmt(xs[k])},{_fmt(ys[k])},{_fmt(u[k].real)},{_fmt(u[k].imag)}"
            )
    write_text(path, "\n".join(lines) + "\n")


def write_field_snapshot_csv(path, points, field) -> None:
    """Warped-field snapshot: one row per grid point p_k, columns per component.

    Rows are formatted and written _SNAPSHOT_BLOCK_ROWS at a time, so the
    text of the whole file is never held in memory.
    """
    field = np.ascontiguousarray(field, dtype=np.complex128)
    points = np.asarray(points, dtype=np.float64)
    ncomp = field.shape[1]
    header = ["p"]
    for c in range(ncomp):
        header += [f"comp{c}_re", f"comp{c}_im"]
    with _create(path) as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, points.size, _SNAPSHOT_BLOCK_ROWS):
            hi = lo + _SNAPSHOT_BLOCK_ROWS
            # re/im interleaved as plain floats; repr of a Python float is _fmt
            table = np.column_stack([points[lo:hi], field[lo:hi].view(np.float64)])
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in table.tolist()))


def write_json(path, payload) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_text(path, text: str) -> None:
    with _create(path) as fh:
        fh.write(text)


def _create(path):
    """Open path for writing text, creating its directory if needed."""
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return open(path, "w")

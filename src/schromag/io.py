"""Text formats: coordinate matrices, vectors, CSV traces, JSON reports.

Matrix files: header line ``rows cols nnz`` followed by one ``i j re im``
entry per line, 0-based indices.  Vector files: one ``re im`` pair per
line.  Floats are written with repr (shortest round-trip) so identical
inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import InputError
from .linalg import as_cmatrix, as_cvector


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
    m = np.zeros((rows, cols), dtype=np.complex128)
    entries = [ln for ln in tokens[1:] if ln.strip()]
    if len(entries) != nnz:
        raise InputError(f"{path}: header promises {nnz} entries, found {len(entries)}")
    for ln in entries:
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
        m[i, j] = re + 1j * im
    return m


def write_vector(path, v) -> None:
    v = as_cvector(v)
    lines = [f"{_fmt(e.real)} {_fmt(e.imag)}" for e in v]
    write_text(path, "\n".join(lines) + "\n")


def read_vector(path) -> np.ndarray:
    try:
        with open(path) as fh:
            lines = [ln for ln in fh.read().split("\n") if ln.strip()]
    except OSError as exc:
        raise InputError(f"cannot read vector file {path}: {exc}") from exc
    out = []
    for ln in lines:
        parts = ln.split()
        if len(parts) != 2:
            raise InputError(f"{path}: expected 're im' per line, got {ln!r}")
        try:
            out.append(float(parts[0]) + 1j * float(parts[1]))
        except ValueError as exc:
            raise InputError(f"{path}: malformed line {ln!r}") from exc
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
    """Warped-field snapshot: one row per grid point p_k, columns per component."""
    field = np.ascontiguousarray(field, dtype=np.complex128)
    ncomp = field.shape[1]
    header = ["p"]
    for c in range(ncomp):
        header += [f"comp{c}_re", f"comp{c}_im"]
    lines = [",".join(header)]
    # re/im interleaved as plain floats; repr of a Python float is _fmt
    table = np.column_stack([np.asarray(points, dtype=np.float64),
                             field.view(np.float64)])
    lines += [",".join(map(repr, row.tolist())) for row in table]
    write_text(path, "\n".join(lines) + "\n")


def write_json(path, payload) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_text(path, text: str) -> None:
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)

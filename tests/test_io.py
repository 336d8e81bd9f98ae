import json
import math
import os
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from schromag import floatrepr, io
from schromag.errors import InputError
from schromag.io import (
    read_matrix_coo,
    read_vector,
    write_field_snapshot_csv,
    write_matrix_coo,
    write_trace_csv,
    write_trajectory_csv,
    write_vector,
)

import reference
from reference import sci_rows


class TestMatrixFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
        m[1, 2] = 0.0
        path = tmp_path / "m.coo"
        write_matrix_coo(path, m)
        back = read_matrix_coo(path)
        assert np.array_equal(back, np.asarray(m, dtype=complex))

    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.coo"
        write_matrix_coo(path, np.diag([1.0, 2.0]))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "2 2 2"
        assert lines[1].split()[:2] == ["0", "0"]

    def test_malformed_inputs_rejected(self, tmp_path):
        bad1 = tmp_path / "bad1.coo"
        bad1.write_text("2 2\n")
        with pytest.raises(InputError):
            read_matrix_coo(bad1)
        bad2 = tmp_path / "bad2.coo"
        bad2.write_text("2 2 1\n0 0 1.0\n")
        with pytest.raises(InputError):
            read_matrix_coo(bad2)
        bad3 = tmp_path / "bad3.coo"
        bad3.write_text("2 2 1\n5 0 1.0 0.0\n")
        with pytest.raises(InputError):
            read_matrix_coo(bad3)
        with pytest.raises(InputError):
            read_matrix_coo(tmp_path / "missing.coo")

    def test_duplicate_entries_are_summed(self, tmp_path):
        path = tmp_path / "dup.coo"
        path.write_text("2 2 3\n0 0 1 0\n1 0 0.5 2\n0 0 1 0\n")
        m = read_matrix_coo(path)
        assert np.array_equal(m, np.array([[2.0, 0.0], [0.5 + 2.0j, 0.0]]))

    def test_nnz_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "bad.coo"
        bad.write_text("2 2 2\n0 0 1.0 0.0\n")
        with pytest.raises(InputError):
            read_matrix_coo(bad)


class TestVectorFormat:
    def test_round_trip(self, tmp_path):
        v = np.array([1.0 + 2.0j, -0.5, 0.0])
        path = tmp_path / "v.vec"
        write_vector(path, v)
        assert np.array_equal(read_vector(path), np.asarray(v, dtype=complex))

    def test_determinism(self, tmp_path):
        v = np.array([1 / 3, math.pi]) + 1j * np.array([0.1, -0.2])
        p1, p2 = tmp_path / "a.vec", tmp_path / "b.vec"
        write_vector(p1, v)
        write_vector(p2, v)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed(self, tmp_path):
        bad = tmp_path / "bad.vec"
        bad.write_text("1.0\n")
        with pytest.raises(InputError):
            read_vector(bad)


class TestCsv:
    def test_trace_with_infinite_kappa_gap(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace_csv(path, [1.0, 0.5], None)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,residual,relative_residual"
        assert lines[1].endswith(",")  # empty relative column

    def test_trajectory_gaps(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory_csv(
            path, [0.0, 1.0], [1 + 0j, 2 + 0j], [0j, 1 + 0j], [math.nan, 0.5]
        )
        lines = path.read_text().strip().split("\n")
        assert lines[1].endswith(",")
        assert lines[2].endswith(",0.5")

    def test_field_snapshot_bytes_match_per_element_format(self, tmp_path):
        self._check_snapshot_bytes(tmp_path)

    def test_field_snapshot_blocks_join_seamlessly(self, tmp_path, monkeypatch):
        # 5 rows in blocks of 2: two full blocks and a short one
        monkeypatch.setattr(io, "_BLOCK_ROWS", 2)
        self._check_snapshot_bytes(tmp_path)

    def _check_snapshot_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        field = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        field[0, 0] = complex(-0.0, 1e-300)
        field[1, 2] = complex(5e-324, -0.0)
        field[2, 1] = complex(-5e-324, -1e-300)
        field[3, :] = 0.0
        points = np.array([-0.0, 1e-300, 5e-324, 1 / 3, -2.5])
        path = tmp_path / "snap.csv"
        write_field_snapshot_csv(path, points, field)
        lines = [",".join(["p"] + [f"comp{c}_{part}" for c in range(3)
                                   for part in ("re", "im")])]
        for k, p in enumerate(points):
            row = ["%.16e" % p]
            for c in range(3):
                row += ["%.16e" % field[k, c].real, "%.16e" % field[k, c].imag]
            lines.append(",".join(row))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_field_snapshot_memory_is_one_block(self, tmp_path):
        # the whole 1024 x 1024 complex snapshot is ~50 MB of text; the
        # writer holds one block of rows, never the file as one string
        rng = np.random.default_rng(4)
        field = rng.normal(size=(1024, 1024)) + 1j * rng.normal(size=(1024, 1024))
        points = np.linspace(-30.0, 20.0, 1024)
        path = tmp_path / "snap.csv"
        tracemalloc.start()
        try:
            write_field_snapshot_csv(path, points, field)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 32 * 2**20
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# signed zeros, subnormals, the extremes near 1e+-300 and 1e+-308, and any double
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
          1e-300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308]
_FINITE = st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=False, allow_infinity=False),
                    st.floats(1e295, 1e305), st.floats(-1e-295, -1e-305))
_ANY = _FINITE | st.sampled_from([math.nan, math.inf, -math.inf])


def _complex(shape):
    return arrays(np.complex128, shape, elements=st.builds(complex, _FINITE, _FINITE))


def _reals(n):
    return arrays(np.float64, n, elements=_ANY)


@st.composite
def _matrices(draw):
    m = draw(_complex(st.tuples(st.integers(0, 6), st.integers(1, 6))))
    # whole rows of zeros, +0.0 or -0.0 in either part, write no entries
    zero = draw(arrays(np.bool_, m.shape[0]))
    m[zero] = complex(draw(st.sampled_from([0.0, -0.0])), draw(st.sampled_from([0.0, -0.0])))
    return m


@st.composite
def _nodes_and_values(draw, columns):
    n = draw(st.integers(0, 12))
    return draw(_complex(n)), *(draw(_reals(n)) for _ in range(columns))


class TestWriterBytes:
    """Every io writer that formats Python floats, byte for byte against
    reference's one repr(float(x)) per value."""

    @staticmethod
    def _same(name, *args):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = os.path.join(tmp, "got"), os.path.join(tmp, "want")
            getattr(io, name)(got, *args)
            getattr(reference, name)(want, *args)
            with open(got, "rb") as g, open(want, "rb") as w:
                assert g.read() == w.read()

    @given(_matrices())
    @settings(max_examples=150, deadline=None)
    def test_matrix_coo(self, m):
        self._same("write_matrix_coo", m)

    @given(_complex(st.integers(0, 12)))
    @settings(max_examples=100, deadline=None)
    def test_vector(self, v):
        self._same("write_vector", v)

    @given(_nodes_and_values(1))
    @settings(max_examples=100, deadline=None)
    def test_solution_csv_1d(self, drawn):
        u, xs = drawn
        self._same("write_solution_csv", u, xs)

    @given(_nodes_and_values(2))
    @settings(max_examples=100, deadline=None)
    def test_solution_csv_2d(self, drawn):
        u, xs, ys = drawn
        self._same("write_solution_csv", u, xs, ys)

    @given(st.lists(_ANY, max_size=12), st.booleans(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_trace_csv(self, residuals, with_relative, data):
        relative = None
        if with_relative:
            relative = data.draw(st.lists(_ANY, min_size=len(residuals),
                                          max_size=len(residuals)))
        self._same("write_trace_csv", residuals, relative)

    @given(_nodes_and_values(1), st.data())
    @settings(max_examples=100, deadline=None)
    def test_trajectory_csv(self, drawn, data):
        solved, times = drawn
        aux = data.draw(_complex(solved.size))
        # the ratio column: a value, nan or None (both gaps)
        ratios = data.draw(st.lists(_ANY | st.none(), min_size=solved.size,
                                    max_size=solved.size))
        self._same("write_trajectory_csv", times, solved, aux, ratios)


# cells io.write_rows formats: any float, an int, None (empty) and a str (as it is)
_CELLS = _ANY | st.integers() | st.none() | st.text("ab ,-", max_size=3)


@st.composite
def _columns(draw):
    """1-4 columns of up to 6 cells, of different lengths, each a list of
    any cells, a float64 array or an int64 array."""
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 6))
        columns.append(draw(st.one_of(
            st.lists(_CELLS, min_size=n, max_size=n), _reals(n),
            arrays(np.int64, n, elements=st.integers(-2**63, 2**63 - 1)))))
    return columns


class TestWriteRows:
    """The one row writer on tables that none of the file writers makes."""

    # blocks of 1 and 2 rows put block boundaries inside the drawn tables
    @given(st.none() | st.text("ab,", max_size=4), _columns(), st.sampled_from([",", " "]),
           st.sampled_from([1, 2, io._BLOCK_ROWS]))
    @settings(max_examples=200, deadline=None)
    def test_matches_one_cell_at_a_time(self, header, columns, sep, block_rows):
        with mock.patch.object(io, "_BLOCK_ROWS", block_rows):
            TestWriterBytes._same("write_rows", header, columns, sep)

    @pytest.mark.parametrize("header, columns, sep, text", [
        (None, [], ",", "\n"),
        ("h", [[]], ",", "h\n"),
        ("a;b", [["x", None], [1, 2.5], [None, -0.0]], ";", "a;b\nx;1;\n;2.5;-0.0\n"),
        (None, [range(3), np.array([0.1, np.nan, np.inf])], " ", "0 0.1\n1 nan\n2 inf\n"),
    ], ids=["no-header-no-rows", "header-only", "str-none-int", "range-and-array"])
    def test_text(self, tmp_path, header, columns, sep, text):
        io.write_rows(tmp_path / "t.csv", header, columns, sep)
        assert (tmp_path / "t.csv").read_text() == text


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=3) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=12)


class TestJson:
    @given(_JSON)
    @settings(max_examples=200, deadline=None)
    def test_strict_with_null_for_non_finite(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "report.json")
            io.write_json(path, payload)
            with open(path) as fh:
                text = fh.read()

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        # what the standard encoder writes, with NaN and +-Infinity read as null
        want = json.loads(json.dumps(payload), parse_constant=lambda _: None)
        assert json.loads(text, parse_constant=reject) == want
        try:
            plain = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        except ValueError:  # a non-finite float somewhere
            return
        assert text == plain + "\n"


def _edge_values() -> np.ndarray:
    """Values where a shortcut to the 17 digits of '%.16e' would most likely slip."""
    vals = [0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1e-280, 1e280,
            1.7976931348623157e308, 9999999999999998.0, 1e16, 1e-4, 1e-5, 1e22, 1e23,
            0.1, 0.3, 2.0 / 3.0, math.pi]
    vals += [2.0**k for k in range(-1074, 1024)]
    vals += [float(f"1e{k}") for k in range(-323, 309)]
    # 1..17 significant digits, at the exponents where repr changes layout
    # (decpt -3/-4 and 16/17), inside the fast path's range and with 3-digit exponents
    for p in range(1, 18):
        for digits in ("12345678901234567", "98765432109876543", "99999999999999999",
                       "10000000000000001", "50000000000000005"):
            for e in (-330, -310, -300, -281, -280, -279, -100, -99, -20, -5, -4, -3, -2,
                      0, 1, 14, 15, 16, 17, 18, 22, 99, 100, 279, 280, 300):
                vals.append(float(f"0.{digits[:p]}e{e}"))
    x = np.array(vals)
    with np.errstate(over="ignore"):  # the neighbour of the largest double is inf
        up = np.nextafter(x, np.inf)
        x = np.concatenate([x, up, np.nextafter(up, np.inf), np.nextafter(x, -np.inf)])
    return np.concatenate([x, -x, [math.nan]])


class TestReprKernel:
    """floatrepr.format_rows against one '%.16e' per value (reference.sci_rows)."""

    @staticmethod
    def _check(table):
        table = np.atleast_2d(np.asarray(table, dtype=np.float64))
        got, want = floatrepr.format_rows(table), sci_rows(table).encode()
        if got != want:
            bad = [(float(v), g) for v, g in zip(table.ravel(), got.replace(b"\n", b",").split(b","))
                   if b"%.16e" % v != g]
            raise AssertionError(f"{len(bad)} cells differ from '%.16e', first {bad[:3]}")

    def test_edge_values(self):
        x = _edge_values()
        self._check(x[: x.size // 3 * 3].reshape(-1, 3))
        self._check(x)
        # most of them take the fast path, so the check above is not '%' vs '%'
        assert floatrepr.digits(x)[2].mean() < 0.5

    def test_random_bit_patterns_and_magnitudes(self):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2**64, size=(100, 1000), dtype=np.uint64, endpoint=False)
        self._check(bits.view(np.float64))
        scaled = rng.standard_normal((100, 1000)) * 10.0 ** rng.integers(-300, 300, (100, 1000))
        self._check(scaled)
        # '%' formats the magnitudes outside 1e-280..1e280 by design (~7% here)
        inside = (np.abs(scaled) > 1e-280) & (np.abs(scaled) < 1e280)
        assert floatrepr.digits(scaled[inside])[2].mean() < 0.01

    @given(arrays(np.uint64, st.tuples(st.integers(1, 3), st.integers(1, 40))))
    @settings(max_examples=200, deadline=None)
    def test_any_bit_pattern(self, bits):
        self._check(bits.view(np.float64))

    @given(st.lists(st.builds(lambda m, e: float(f"{m}e{e}"), st.integers(-10**17, 10**17),
                              st.integers(-340, 320)), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_short_decimal_strings(self, values):
        self._check(values)

    def test_carry_into_the_next_decade(self):
        # the doubles nearest 1e-14, 1e98 and 1e129 lie below them by less
        # than half a unit of the 17th digit: each rounds up to 1.0000000000000000
        x = np.array([1e-14, -1e-14, 1e98, 1e129])
        self._check(x)
        sig, expo, slow = floatrepr.digits(x)
        assert not slow.any()
        assert np.array_equal(sig, [10**16] * 4) and np.array_equal(expo, [-14, -14, 98, 129])

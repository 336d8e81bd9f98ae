import math
import tracemalloc

import numpy as np
import pytest

from schromag import io
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
        write_trace_csv(path, [1.0, 0.5], [math.inf, math.inf])
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

    def test_field_snapshot_bytes_match_per_element_repr(self, tmp_path):
        self._check_snapshot_bytes(tmp_path)

    def test_field_snapshot_blocks_join_seamlessly(self, tmp_path, monkeypatch):
        # 5 rows in blocks of 2: two full blocks and a short one
        monkeypatch.setattr(io, "_SNAPSHOT_BLOCK_ROWS", 2)
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
            row = [repr(float(p))]
            for c in range(3):
                row += [repr(float(field[k, c].real)), repr(float(field[k, c].imag))]
            lines.append(",".join(row))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_field_snapshot_memory_is_one_block(self, tmp_path):
        # the whole 1024 x 1024 complex snapshot is ~48 MB of text; the
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

import math
from dataclasses import asdict

import numpy as np
import pytest

from schromag.complexity import (
    LITERATURE,
    SystemSummary,
    chi,
    comparison_rows,
    gates,
    method_complexity,
    repetitions,
)

from reference import queries

DIAG_SUMMARY = SystemSummary(
    s=1,
    sigma_min=0.1,
    sigma_max=10.0,
    a_max_norm=10.0,
    ata_max_norm=100.0,
    delta=0.01,
    n_p=128,
    n=2,
)


class TestChi:
    def test_unit(self):
        assert chi(1, 1.0, 1.0) == 1.0

    def test_product(self):
        assert chi(2, 3.0, 10.0) == 60.0

    def test_sparsity_squares_through_gram(self):
        # s(A^H A) = O(s^2) is how the bound consumes the matrix sparsity
        a = np.diag([1.0, 2.0, 3.0]) + np.diag([0.5, 0.5], k=1)
        s = int(np.max(np.count_nonzero(a, axis=1)))
        gram = a.conj().T @ a
        s_gram = int(np.max(np.count_nonzero(gram, axis=1)))
        assert s_gram <= s * s

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            chi(0, 1.0, 1.0)


class TestQueries:
    """The query-count estimate criterion 10 checks, kept in `reference`."""

    def test_documented_value(self):
        got = queries(60.0, 0.01)
        ln = math.log(6000.0)
        assert got == pytest.approx(60.0 * ln / math.log(ln), rel=1e-12)
        assert got == pytest.approx(241.288, abs=5e-3)

    def test_e_squared(self):
        got = queries(math.e**2, 1.0)
        assert got == pytest.approx(2.0 * math.e**2 / math.log(2.0), rel=1e-12)
        assert got == pytest.approx(21.32, abs=5e-3)

    def test_monotone_in_chi(self):
        assert queries(120.0, 0.01) > queries(60.0, 0.01)

    def test_undefined_region_rejected(self):
        with pytest.raises(ValueError):
            queries(1.0, 1.0)


class TestGates:
    def test_formula(self):
        c, d, n = 60.0, 0.01, 16
        ln = math.log(c / d)
        expect = c * (math.log(n) + ln**2.5) * ln / math.log(ln)
        assert gates(c, d, n) == pytest.approx(expect, rel=1e-12)


class TestRepetitions:
    def test_unit(self):
        assert repetitions(1.0, 1.0, math.exp(-1.0)) == pytest.approx(1.0)

    def test_documented_value(self):
        assert repetitions(10.0, 100.0, 0.01) == pytest.approx(
            math.log(100.0) * 100.0 * 100.0, rel=1e-12
        )

    def test_linear_in_kappa(self):
        r1 = repetitions(2.0, 10.0, 0.1)
        r2 = repetitions(2.0, 20.0, 0.1)
        assert r2 == pytest.approx(2.0 * r1, rel=1e-12)


class TestMethodComplexity:
    def test_mag_documented_value(self):
        rep = method_complexity("mag", DIAG_SUMMARY)
        expect = math.log(100.0) * 7.0 * 1.0 * 100.0 * math.log(100.0)
        assert rep.queries == pytest.approx(expect, rel=1e-12)
        assert rep.kappa_like == pytest.approx(100.0)

    def test_gradient_kappa(self):
        rep = method_complexity("gradient", DIAG_SUMMARY)
        assert rep.kappa_like == pytest.approx(1e4)
        mag = method_complexity("mag", DIAG_SUMMARY)
        # kappa_g / kappa_hat = 100 and the log factor doubles
        assert rep.queries == pytest.approx(mag.queries * 100.0 * 2.0, rel=1e-12)

    def test_damped_kappa(self):
        rep = method_complexity("damped", DIAG_SUMMARY)
        assert rep.kappa_like == pytest.approx(100.0)

    def test_ordering_on_diag_family(self):
        g = method_complexity("gradient", DIAG_SUMMARY).queries
        d = method_complexity("damped", DIAG_SUMMARY).queries
        m = method_complexity("mag", DIAG_SUMMARY).queries
        assert g >= d >= m

    def test_degenerate_kappa_flagged(self):
        summary = SystemSummary(
            s=1, sigma_min=1.0, sigma_max=1.0, a_max_norm=1.0,
            ata_max_norm=1.0, delta=0.01, n_p=128, n=2,
        )
        # kappa = 1 takes ln(kappa + 1) = ln 2 for its log factor
        rep = method_complexity("mag", summary)
        assert rep.queries == pytest.approx(math.log(100.0) * 7.0 * math.log(2.0), rel=1e-12)

    def test_linear_in_kappa_scaling(self):
        # the estimate is exactly linear in kappa * ln(kappa), so decade
        # growth factors are 10 * ln(k2)/ln(k1) (20 and 15 on this sweep)
        qs = []
        for kappa in (10.0, 100.0, 1000.0):
            summary = SystemSummary(
                s=1, sigma_min=1.0, sigma_max=kappa, a_max_norm=kappa,
                ata_max_norm=kappa**2, delta=0.01, n_p=128, n=2,
            )
            qs.append(method_complexity("mag", summary).queries)
        normalized = [
            q / (k * math.log(k)) for q, k in zip(qs, (10.0, 100.0, 1000.0))
        ]
        assert normalized[0] == pytest.approx(normalized[1], rel=1e-12)
        assert normalized[1] == pytest.approx(normalized[2], rel=1e-12)
        assert qs[1] / qs[0] == pytest.approx(20.0, rel=1e-12)
        assert qs[2] / qs[1] == pytest.approx(15.0, rel=1e-12)

    def test_reports_are_reproducible(self):
        a = asdict(method_complexity("mag", DIAG_SUMMARY))
        b = asdict(method_complexity("mag", DIAG_SUMMARY))
        assert a == b

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            method_complexity("jacobi", DIAG_SUMMARY)


class TestTable:
    def test_rows_cover_methods(self):
        rows = comparison_rows(DIAG_SUMMARY)
        assert [r["method"] for r in rows] == [
            "mag", "gradient", "damped", "hhl-reference",
        ]

    def test_literature_is_static_metadata(self):
        assert len(LITERATURE) == 6
        assert all("complexity" in row for row in LITERATURE)

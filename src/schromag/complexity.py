"""Closed-form cost estimators: queries, gates, evolution times, repetitions.

All suppressed constants are set to one and results are order estimates,
functions of the `SystemSummary` alone.  The auxiliary-dimension operator
norm enters as log2(N_p).  The sparse-oracle and amplitude-amplification
machinery is represented only through these formulas, never as circuits.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import InputError

METHODS = ("mag", "gradient", "damped", "hhl-reference")

# Query complexities of earlier linear-system algorithms, reported as
# static metadata only.
LITERATURE = (
    {"year": 2009, "authors": "Harrow et al.", "complexity": "kappa^2 / delta"},
    {"year": 2017, "authors": "Childs et al.", "complexity": "kappa polylog(kappa/delta)"},
    {"year": 2019, "authors": "Subasi et al.", "complexity": "kappa log(kappa) / delta"},
    {"year": 2022, "authors": "Costa et al.", "complexity": "kappa log(1/delta)"},
    {"year": 2020, "authors": "Shao et al.", "complexity": "kappa_s^2 log(1/delta)"},
    {"year": 2024, "authors": "Li et al.", "complexity": "kappa_s^2 log(1/delta)"},
)


def chi(s: int, max_norm: float, t: float) -> float:
    """Simulation cost parameter: sparsity * max-norm * evolution time."""
    if s <= 0 or max_norm <= 0 or t <= 0:
        raise ValueError("all chi inputs must be positive")
    return float(s) * float(max_norm) * float(t)


def gates(chi_value: float, delta: float, n: int) -> float:
    """Two-qubit gate count: chi * [m + ln^2.5(chi/delta)] * ln/lnln, with
    m = ln(max(n, 2)) for the system register."""
    ratio = chi_value / delta
    if ratio <= math.e:
        raise InputError(f"estimate undefined for chi/delta = {ratio:.4g} <= e")
    ln = math.log(ratio)
    return chi_value * (math.log(max(n, 2)) + ln**2.5) * ln / math.log(ln)


def repetitions(a_norm: float, kappa_hat: float, delta: float) -> float:
    """Measurement repetitions after amplitude amplification."""
    if a_norm <= 0 or kappa_hat <= 0 or not (0.0 < delta < 1.0):
        raise ValueError("inputs must be positive with delta in (0,1)")
    return math.log(1.0 / delta) * a_norm**2 * kappa_hat


@dataclass(frozen=True)
class SystemSummary:
    """Everything the method estimators consume."""

    s: int  # nonzeros per row of A
    sigma_min: float
    sigma_max: float
    a_max_norm: float  # ||A||_max
    ata_max_norm: float  # ||A^H A||_max
    delta: float
    n_p: int
    n: int


@dataclass
class ComplexityReport:
    method: str
    chi: float
    queries: float
    gates: float
    repetitions: float
    kappa_like: float


def method_complexity(method: str, summary: SystemSummary) -> ComplexityReport:
    """Query estimate per method, with its condition-like number.

    mag:      kappa_hat = sigma_max/sigma_min
    gradient: kappa_g   = ||A^H A||_max / sigma_min^2
    damped:   kappa_d   = ||A||_max / sigma_min
    hhl-reference: plain kappa, order ln(1/delta) * s * kappa

    The auxiliary-dimension operator norm enters as log2(N_p).  A
    condition-like number of exactly 1 takes ln(kappa + 1) for its log
    factor, so the estimate does not vanish.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if summary.sigma_min <= 0 or summary.sigma_max < summary.sigma_min:
        raise ValueError("summary needs 0 < sigma_min <= sigma_max")

    log_delta = math.log(1.0 / summary.delta)
    dtheta = math.log2(summary.n_p)
    s2 = summary.s**2

    if method == "mag":
        kappa_like = summary.sigma_max / summary.sigma_min
    elif method == "gradient":
        kappa_like = summary.ata_max_norm / summary.sigma_min**2
    elif method == "damped":
        kappa_like = summary.a_max_norm / summary.sigma_min
    else:
        kappa_like = summary.sigma_max / summary.sigma_min

    log_kappa = math.log(kappa_like + 1.0 if kappa_like == 1.0 else kappa_like)

    if method == "hhl-reference":
        q = log_delta * summary.s * kappa_like
    else:
        q = log_delta * dtheta * s2 * kappa_like * log_kappa

    chi_value = chi(s2, max(dtheta, 1.0), kappa_like * log_delta)
    return ComplexityReport(
        method=method,
        chi=chi_value,
        queries=q,
        gates=gates(chi_value, summary.delta, summary.n),
        repetitions=repetitions(max(summary.a_max_norm, 1e-300),
                                summary.sigma_max / summary.sigma_min,
                                summary.delta),
        kappa_like=kappa_like,
    )


def comparison_rows(summary: SystemSummary) -> list[dict]:
    """One row per method for the comparison table: the report's fields."""
    return [asdict(method_complexity(m, summary)) for m in METHODS]


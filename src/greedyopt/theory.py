"""Quantitative apparatus for greedy convergence analysis.

Provides the root solver for the xi quantity of a power-type smoothness
modulus (`objectives.SmoothnessParams`; xi drives step-size choices in the
convergence proofs), the inverse-gap recurrence verifier in its product
form, the calibrated check of a run against the shape of its rule's proven
rate, and empirical log-log slope fitting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algorithms import RunTrace, UpdateRule, WeaknessLike, as_weakness
from .objectives import SmoothnessParams

XI_LOWER = 1e-300
XI_UPPER = 2.0
XI_REL_TOL = 1e-12
RECURRENCE_SLACK = 1e-10
GAP_FLOOR = 1e-14


class InsufficientDataError(ValueError):
    """Too few usable points for a fit."""


def theta0(smoothness: SmoothnessParams) -> float:
    """Largest admissible theta: s(2) = rho(2)/2."""
    return smoothness.s(XI_UPPER)


def xi_closed_form(gamma: float, q: float, t: float, theta: float) -> float:
    """Root of gamma*u**(q-1) = theta*t, for power-type moduli."""
    return (theta * t / gamma) ** (1.0 / (q - 1.0))


def solve_xi_flagged(
    smoothness: SmoothnessParams, t_m: float, theta: float
) -> tuple:
    """Solve rho(xi)/xi = theta*t_m by bisection on (1e-300, 2].

    Returns (xi, underflowed). When the root lies below the bracket the lower
    endpoint is returned with underflowed=True. Relative tolerance 1e-12 on
    the ratio value.
    """
    if not (0.0 < t_m <= 1.0):
        raise ValueError(f"t_m must be in (0, 1], got {t_m}")
    cap = theta0(smoothness)
    if not (0.0 < theta <= cap):
        raise ValueError(f"theta must be in (0, {cap:.6g}], got {theta}")
    target = theta * t_m
    if smoothness.s(XI_LOWER) >= target:
        return XI_LOWER, True

    lo, hi = math.log(XI_LOWER), math.log(XI_UPPER)
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        value = smoothness.s(math.exp(mid))
        if abs(value - target) <= XI_REL_TOL * target:
            return math.exp(mid), False
        if value < target:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi)), False


def solve_xi(smoothness: SmoothnessParams, t_m: float, theta: float) -> float:
    xi, _ = solve_xi_flagged(smoothness, t_m, theta)
    return xi


# ---------------------------------------------------------------------------
# inverse-gap recurrence


@dataclass(frozen=True)
class RecurrenceReport:
    passed: bool
    first_violation: Optional[int] = None
    kind: Optional[str] = None  # "hypothesis" | "conclusion"
    min_slack: float = float("inf")

    def __bool__(self) -> bool:
        return self.passed


def verify_recurrence(y: Sequence[float], w: Sequence[float]) -> RecurrenceReport:
    """Check the per-step inequality y_k <= y_{k-1} * (1 - w_k * y_{k-1}) and
    its telescoped form 1/y_m >= 1/y_0 + sum_{k=1..m} w_k, each with slack
    >= -1e-10 (Dereventsov & Temlyakov 2019).

    y has entries y_0..y_M; w has one entry per transition, w[k-1] governing
    y_{k-1} -> y_k. Reports the first violating index k (hypothesis) or m
    (conclusion).
    """
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if y.ndim != 1 or w.ndim != 1 or len(w) != len(y) - 1:
        raise ValueError(
            f"need len(w) == len(y) - 1, got {len(w)} and {len(y)}"
        )
    if np.any(y < 0.0):
        raise ValueError("y must be nonnegative")
    if np.any(w < 0.0):
        raise ValueError("w must be nonnegative")

    min_slack = float("inf")
    for k in range(1, len(y)):
        slack = y[k - 1] * (1.0 - w[k - 1] * y[k - 1]) - y[k]
        min_slack = min(min_slack, slack)
        if slack < -RECURRENCE_SLACK:
            return RecurrenceReport(False, k, "hypothesis", min_slack)

    w_sum = 0.0
    for m in range(1, len(y)):
        w_sum += w[m - 1]
        if y[m] == 0.0:
            continue  # 1/y_m is +inf, conclusion trivially holds onward
        if y[0] == 0.0:
            return RecurrenceReport(False, m, "conclusion", min_slack)
        slack = 1.0 / y[m] - 1.0 / y[0] - w_sum
        min_slack = min(min_slack, slack)
        if slack < -RECURRENCE_SLACK:
            return RecurrenceReport(False, m, "conclusion", min_slack)

    return RecurrenceReport(True, None, None, min_slack)


# ---------------------------------------------------------------------------
# decay envelopes


@dataclass(frozen=True)
class EnvelopeReport:
    passed: bool
    max_ratio: float
    argmax_m: Optional[int]
    c: float  # the constant calibrated at m = 1

    def __bool__(self) -> bool:
        return self.passed


def check_envelope(
    trace: RunTrace,
    rule: type[UpdateRule],
    q: float,
    weakness: WeaknessLike,
    reference: float = 0.0,
    rtol: float = 1e-6,
) -> EnvelopeReport:
    """Check the gaps of a run of `rule`, a rule class whose `rated` is set,
    against the shape of the paper's rate, with S_m = sum_{k<=m} t_k**p and
    p = q/(q-1):

    convex rule (WRGA): envelope(m) = (1 + c * S_m)**(1-q)
    WCGA/WGAFR:         envelope(m) = c * (1 + S_m)**(1-q)

    The WCGA/WGAFR form is the theorem's C * A**q * (C_E + S_m)**(1-q) at
    C_E = 1, with C * A**q folded into c. c is calibrated so envelope(1)
    equals the gap at m=1; then every later gap must satisfy
    gap(m) <= envelope(m) up to relative slack rtol. Reports the max ratio.
    """
    if not rule.rated:
        raise ValueError(f"rule {rule.name!r} has no rate envelope")
    if not (1.0 < q <= 2.0):
        raise ValueError(f"q must be in (1, 2], got {q}")
    ms = trace.ms()
    gaps = trace.gaps(reference)
    if len(ms) == 0 or ms[0] != 1:
        raise ValueError("trace must start at iteration 1 for calibration")
    gap_1 = float(gaps[0])
    if gap_1 <= 0.0:
        raise ValueError(f"gap at m=1 must be > 0 to calibrate, got {gap_1}")
    t, p = as_weakness(weakness).t, q / (q - 1.0)
    sums = np.cumsum([t(m) ** p for m in range(1, int(ms.max()) + 1)])
    s_1, later = float(sums[0]), sums[ms[1:] - 1]
    if rule.convex:
        c = (gap_1 ** (1.0 / (1.0 - q)) - 1.0) / s_1
        if c <= 0.0:
            raise ValueError(
                f"gap at m=1 is {gap_1}, too large for a positive constant"
            )
        bounds = [(1.0 + c * s_m) ** (1.0 - q) for s_m in later]
    else:
        c = gap_1 / (1.0 + s_1) ** (1.0 - q)
        bounds = [c * (1.0 + s_m) ** (1.0 - q) for s_m in later]
    if len(ms) == 1:
        return EnvelopeReport(True, 1.0, 1, c)
    ratios = gaps[1:] / np.array(bounds, dtype=float)
    worst = int(np.argmax(ratios))
    max_ratio = float(ratios[worst])
    return EnvelopeReport(
        max_ratio <= 1.0 + rtol, max_ratio, int(ms[1 + worst]), c
    )


# ---------------------------------------------------------------------------
# slope fitting


def fit_power_slope(
    ms: Sequence[int],
    values: Sequence[float],
    m_min: int = 1,
    floor: float = GAP_FLOOR,
) -> float:
    """Least-squares slope of log(values) against log(m) for m >= m_min.

    Points at or below the floor are excluded; fewer than 4 surviving points
    raises InsufficientDataError.
    """
    ms = np.asarray(ms, dtype=float)
    values = np.asarray(values, dtype=float)
    if ms.shape != values.shape:
        raise ValueError("ms and values must have matching shapes")
    window = ms >= m_min
    if int(window.sum()) < 8:
        raise InsufficientDataError(
            f"need >= 8 iterations past m_min={m_min}, have {int(window.sum())}"
        )
    keep = window & (values > floor)
    if int(keep.sum()) < 4:
        raise InsufficientDataError(
            f"only {int(keep.sum())} points above the {floor:g} floor"
        )
    x = np.log(ms[keep])
    z = np.log(values[keep])
    slope, _ = np.polyfit(x, z, 1)
    return float(slope)


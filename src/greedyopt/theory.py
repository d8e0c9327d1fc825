"""Quantitative apparatus for greedy convergence analysis.

Provides the root solver for the xi quantity of a power-type smoothness
modulus (`objectives.SmoothnessParams`; xi drives step-size choices in the
convergence proofs), the inverse-gap recurrence verifier, decay envelopes for
the three rules with a proven rate, and empirical log-log slope fitting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
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


def conjugate_exponent(q: float) -> float:
    """p = q/(q-1), the exponent controlling weakness-sum divergence."""
    if not (1.0 < q <= 2.0):
        raise ValueError(f"q must be in (1, 2], got {q}")
    return q / (q - 1.0)


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


def t_power_sum(weakness: WeaknessLike, p: float, m_max: int) -> float:
    tau = as_weakness(weakness)
    return sum(tau.t(m) ** p for m in range(1, m_max + 1))


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


def verify_recurrence(
    y: Sequence[float],
    w: Sequence[float],
    n: int = 0,
    hypothesis_form: str = "product",
) -> RecurrenceReport:
    """Check the per-step inequality and its telescoped form
    1/y_m >= 1/y_n + sum_{k=n+1..m} w_k, with slack >= -1e-10.

    y has entries y_0..y_M; w has one entry per transition, w[k-1] governing
    y_{k-1} -> y_k. hypothesis_form picks the per-step check:
      "product":   y_k <= y_{k-1} * (1 - w_k * y_{k-1})   (the strict form)
      "increment": 1/y_k >= 1/y_{k-1} + w_k   (implied by "product"; holds
                   with equality for the harmonic exemplar y_k = 1/(k+1), w=1)
    Reports the first violating index k (hypothesis) or m (conclusion).
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
    if hypothesis_form not in ("product", "increment"):
        raise ValueError(f"unknown hypothesis_form {hypothesis_form!r}")
    m_top = len(y) - 1
    if not (0 <= n <= m_top):
        raise ValueError(f"n must be in [0, {m_top}], got {n}")

    min_slack = float("inf")
    for k in range(n + 1, m_top + 1):
        if hypothesis_form == "product":
            bound = y[k - 1] * (1.0 - w[k - 1] * y[k - 1])
            slack = bound - y[k]
        else:
            if y[k] == 0.0:
                continue  # 1/y_k is +inf: step holds trivially
            if y[k - 1] == 0.0:
                return RecurrenceReport(False, k, "hypothesis", -np.inf)
            slack = 1.0 / y[k] - 1.0 / y[k - 1] - w[k - 1]
        min_slack = min(min_slack, slack)
        if slack < -RECURRENCE_SLACK:
            return RecurrenceReport(False, k, "hypothesis", min_slack)

    w_sum = 0.0
    for m in range(n + 1, m_top + 1):
        w_sum += w[m - 1]
        if y[m] == 0.0:
            continue  # 1/y_m is +inf, conclusion trivially holds onward
        if y[n] == 0.0:
            return RecurrenceReport(False, m, "conclusion", min_slack)
        slack = 1.0 / y[m] - 1.0 / y[n] - w_sum
        min_slack = min(min_slack, slack)
        if slack < -RECURRENCE_SLACK:
            return RecurrenceReport(False, m, "conclusion", min_slack)

    return RecurrenceReport(True, None, None, min_slack)


# ---------------------------------------------------------------------------
# decay envelopes


@dataclass(frozen=True)
class RateEnvelope:
    """Decay envelope for the energy gap of a run of `rule`, a rule class
    whose `rated` is set.

    WCGA/WGAFR: value(m) = max(2*eps, C * A**kappa * (C_E + S_m)**(1-q))
    WRGA:       value(m) = (1 + C1 * S_m)**(1-q)
    where S_m = sum_{k<=m} t_k**p and p = q/(q-1). The WRGA formula is the
    one of the convex rule; there C plays the role of C1, and eps/A must be
    left at their defaults.
    """

    rule: type[UpdateRule]
    q: float
    weakness: WeaknessLike  # held as a WeaknessSequence
    c: float = 1.0
    c_e: float = 1.0
    eps: float = 0.0
    a_eps: float = 1.0
    kappa: Optional[float] = None  # None -> q (exponent on A)

    def __post_init__(self):
        if not self.rule.rated:
            raise ValueError(f"rule {self.rule.name!r} has no rate envelope")
        if not (1.0 < self.q <= 2.0):
            raise ValueError(f"q must be in (1, 2], got {self.q}")
        if self.kappa is not None and self.kappa not in (1.0, self.q):
            raise ValueError(f"kappa must be 1 or q, got {self.kappa}")
        if self.rule.convex and (self.eps != 0.0 or self.a_eps != 1.0):
            raise ValueError("WRGA envelopes take no eps/A parameters")
        object.__setattr__(self, "weakness", as_weakness(self.weakness))

    @property
    def p(self) -> float:
        return conjugate_exponent(self.q)

    def weight_sum(self, m: int) -> float:
        return t_power_sum(self.weakness, self.p, m)

    def _at_sum(self, s_m: float) -> float:
        """The envelope at weight sum S_m (the formula in the class doc)."""
        if self.rule.convex:
            return (1.0 + self.c * s_m) ** (1.0 - self.q)
        kappa = self.q if self.kappa is None else self.kappa
        tail = self.c * self.a_eps**kappa * (self.c_e + s_m) ** (1.0 - self.q)
        return max(2.0 * self.eps, tail)

    def value(self, m: int) -> float:
        return self._at_sum(self.weight_sum(m))

    def values(self, ms: Sequence[int]) -> np.ndarray:
        t, top = self.weakness.t, int(max(ms))
        sums = np.cumsum([t(m) ** self.p for m in range(1, top + 1)])
        return np.array(
            [self._at_sum(sums[int(m) - 1] if m >= 1 else 0.0) for m in ms],
            dtype=float,
        )


@dataclass(frozen=True)
class EnvelopeReport:
    passed: bool
    max_ratio: float
    argmax_m: Optional[int]
    calibrated: RateEnvelope

    def __bool__(self) -> bool:
        return self.passed


def calibrate_envelope(
    envelope: RateEnvelope, gap_at_1: float
) -> RateEnvelope:
    """Pin the free constant so value(1) equals the observed gap at m=1.

    WCGA/WGAFR: solves for C (C_E stays fixed, the eps floor is ignored while
    fitting). WRGA: solves for C1, which must come out positive.
    """
    if gap_at_1 <= 0.0:
        raise ValueError(f"gap at m=1 must be > 0 to calibrate, got {gap_at_1}")
    s_1 = envelope.weight_sum(1)
    if envelope.rule.convex:
        c1 = (gap_at_1 ** (1.0 / (1.0 - envelope.q)) - 1.0) / s_1
        if c1 <= 0.0:
            raise ValueError(
                f"gap at m=1 is {gap_at_1}, too large for a positive constant"
            )
        return replace(envelope, c=c1)
    kappa = envelope.q if envelope.kappa is None else envelope.kappa
    c = gap_at_1 / (
        envelope.a_eps**kappa * (envelope.c_e + s_1) ** (1.0 - envelope.q)
    )
    return replace(envelope, c=c)


def check_envelope(
    trace: RunTrace,
    envelope: RateEnvelope,
    reference: float = 0.0,
    rtol: float = 1e-6,
) -> EnvelopeReport:
    """Calibrate the envelope at m=1, then require gap(m) <= envelope(m) for
    every later iteration up to relative slack rtol. Reports the max ratio."""
    ms = trace.ms()
    gaps = trace.gaps(reference)
    if len(ms) == 0 or ms[0] != 1:
        raise ValueError("trace must start at iteration 1 for calibration")
    fitted = calibrate_envelope(envelope, float(gaps[0]))
    if len(ms) == 1:
        return EnvelopeReport(True, 1.0, 1, fitted)
    later = ms[1:]
    bounds = fitted.values(later)
    ratios = gaps[1:] / bounds
    worst = int(np.argmax(ratios))
    max_ratio = float(ratios[worst])
    return EnvelopeReport(
        max_ratio <= 1.0 + rtol, max_ratio, int(later[worst]), fitted
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


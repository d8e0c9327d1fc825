"""Modulus solver, recurrence verifier, envelopes, and slope fits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greedyopt.algorithms import (
    RULES,
    Chebyshev,
    ConvexRelaxation,
    FreeRelaxation,
    StopRule,
    WeaknessSequence,
    run_greedy,
)
from greedyopt.dictionaries import FiniteDictionary
from greedyopt.objectives import SmoothnessParams, make_least_squares
from greedyopt.theory import (
    InsufficientDataError,
    check_envelope,
    fit_power_slope,
    solve_xi,
    solve_xi_flagged,
    theta0,
    verify_recurrence,
    xi_closed_form,
)

from oracles import loglog_slope


# ---------------------------------------------------------------------------
# power-type moduli and constants


def test_power_modulus_validation():
    for gamma, q in ((0.0, 2.0), (math.nan, 2.0), (1.0, 1.0), (1.0, 2.5)):
        with pytest.raises(ValueError):
            SmoothnessParams(gamma, q)
    spec = SmoothnessParams(0.5, 2.0)
    assert spec.rho(2.0) == 2.0
    assert spec.rho(-2.0) == 2.0  # even
    assert spec.s(1.0) == 0.5
    with pytest.raises(ValueError):
        spec.s(0.0)


def test_theta0_values():
    assert theta0(SmoothnessParams(1.0, 2.0)) == 2.0
    assert theta0(SmoothnessParams(0.5, 2.0)) == 1.0
    assert theta0(SmoothnessParams(1.0, 1.5)) == math.sqrt(2.0)


# ---------------------------------------------------------------------------
# xi solver


def test_solve_xi_known_roots():
    assert solve_xi(SmoothnessParams(0.5, 2.0), 1.0, 0.1) == pytest.approx(
        0.2, rel=1e-10
    )
    assert solve_xi(SmoothnessParams(1.0, 1.5), 1.0, 0.01) == pytest.approx(
        1e-4, rel=1e-10
    )
    # at theta = theta0 the root is the bracket's upper endpoint
    spec = SmoothnessParams(1.0, 2.0)
    assert solve_xi(spec, 1.0, theta0(spec)) == pytest.approx(2.0, rel=1e-10)


def test_solve_xi_validation():
    spec = SmoothnessParams(1.0, 2.0)
    with pytest.raises(ValueError):
        solve_xi(spec, 0.0, 0.1)
    with pytest.raises(ValueError):
        solve_xi(spec, 1.5, 0.1)
    with pytest.raises(ValueError):
        solve_xi(spec, 1.0, 0.0)
    with pytest.raises(ValueError):
        solve_xi(spec, 1.0, theta0(spec) * 1.01)


def test_solve_xi_underflow_flag():
    # with q near 1 the ratio s(1e-300) ~ 1e-15 stays representable, so a
    # target below it provably sits under the bracket and must be flagged
    spec = SmoothnessParams(1.0, 1.05)
    xi, underflowed = solve_xi_flagged(spec, 1.0, 1e-16)
    assert underflowed
    assert xi == 1e-300
    xi, underflowed = solve_xi_flagged(SmoothnessParams(1.0, 2.0), 1.0, 0.5)
    assert not underflowed
    assert xi == pytest.approx(0.5, rel=1e-10)


@given(
    gamma=st.floats(0.1, 5.0),
    q=st.floats(1.1, 2.0),
    t=st.floats(0.01, 1.0),
    frac=st.floats(1e-6, 1.0),
)
@settings(max_examples=100, deadline=None)
def test_solve_xi_matches_closed_form(gamma, q, t, frac):
    spec = SmoothnessParams(gamma, q)
    theta = frac * theta0(spec)
    xi = solve_xi(spec, t, theta)
    assert xi == pytest.approx(xi_closed_form(gamma, q, t, theta), rel=1e-10)


# ---------------------------------------------------------------------------
# recurrence verifier


def harmonic(m_top):
    y = [1.0 / (k + 1) for k in range(m_top + 1)]
    w = [1.0] * m_top
    return y, w


def test_recurrence_harmonic_fails_product_form():
    # the harmonic exemplar saturates the telescoped form but violates the
    # per-step product inequality immediately
    y, w = harmonic(10)
    report = verify_recurrence(y, w)
    assert not report.passed
    assert report.first_violation == 1
    assert report.kind == "hypothesis"


def test_recurrence_constant_with_zero_weights():
    report = verify_recurrence([0.5] * 5, [0.0] * 4)
    assert report.passed
    assert report.min_slack == 0.0


def test_recurrence_validation():
    with pytest.raises(ValueError):
        verify_recurrence([1.0, 0.5], [1.0, 1.0])
    with pytest.raises(ValueError):
        verify_recurrence([1.0, -0.5], [1.0])
    with pytest.raises(ValueError):
        verify_recurrence([1.0, 0.5], [-1.0])


def test_recurrence_zero_handling():
    # reaching zero is fine (1/y is +inf from then on) ...
    assert verify_recurrence([0.5, 0.0, 0.0], [1.0, 1.0]).passed
    # ... but leaving zero for a positive value is flagged
    report = verify_recurrence([0.0, 0.5], [1.0])
    assert not report.passed
    assert (report.first_violation, report.kind) == (1, "hypothesis")


def test_recurrence_conclusion_only_violation():
    # per-step drift of -0.9e-10 stays inside the per-step slack but the
    # telescoped sum crosses the threshold at m=2
    inv = [1.0]
    for _ in range(50):
        inv.append(inv[-1] - 0.9e-10)
    y = [1.0 / v for v in inv]
    w = [0.0] * 50
    report = verify_recurrence(y, w)
    assert not report.passed
    assert report.kind == "conclusion"
    assert report.first_violation == 2


def test_recurrence_generated_cases_pass():
    rng = np.random.default_rng(0)
    for _ in range(100):
        y = [float(rng.uniform(0.1, 1.0))]
        w = []
        for _ in range(rng.integers(1, 30)):
            wk = float(rng.uniform(0.0, 1.0 / y[-1] if y[-1] > 0 else 1.0))
            shrink = float(rng.uniform(0.5, 1.0))
            y.append(max(y[-1] * (1.0 - wk * y[-1]), 0.0) * shrink)
            w.append(wk)
        assert verify_recurrence(y, w).passed


def test_recurrence_closes_on_real_relaxed_run():
    # back out per-step weights from an actual run; the verifier must accept
    # them since they are defined to make the product form an identity
    obj = make_least_squares(np.array([0.6, 0.8]))
    trace = run_greedy(
        obj,
        FiniteDictionary(np.eye(2)),
        WeaknessSequence.constant(1.0),
        ConvexRelaxation(),
        StopRule(max_m=40, sup_tol=-1.0),
    )
    y = [trace.initial_energy] + list(trace.energies())
    w = []
    for prev, cur in zip(y, y[1:]):
        w.append(max((prev - cur) / (prev * prev), 0.0))
    assert verify_recurrence(y, w).passed


# ---------------------------------------------------------------------------
# envelopes


class FakeTrace:
    """Duck-typed stand-in carrying just ms() and gaps()."""

    def __init__(self, ms, gaps):
        self._ms = np.asarray(ms, dtype=int)
        self._gaps = np.asarray(gaps, dtype=float)

    def ms(self):
        return self._ms

    def gaps(self, reference=0.0):
        return self._gaps - reference


def test_wrga_envelope_shape():
    # (1 + c*S_m)**(1-q) with t = 1, q = 2: S_m = m, and c = 1 at gap 0.5
    trace = FakeTrace([1, 3], [0.5, 0.25])
    report = check_envelope(trace, ConvexRelaxation, 2.0, 1.0)
    assert report.c == 1.0
    assert report.max_ratio == 1.0 and report.argmax_m == 3


def test_wcga_envelope_shape():
    # c*(1 + S_m)**(1-q) with t = 1, q = 2: c = 1 at gap 0.5
    trace = FakeTrace([1, 3], [0.5, 0.25])
    for rule in (Chebyshev, FreeRelaxation):
        report = check_envelope(trace, rule, 2.0, 1.0)
        assert report.c == 1.0
        assert report.max_ratio == 1.0 and report.argmax_m == 3


def test_envelope_validation():
    trace = FakeTrace([1, 2], [0.5, 0.3])
    with pytest.raises(ValueError):
        check_envelope(trace, Chebyshev, 1.0, 1.0)
    with pytest.raises(ValueError):
        check_envelope(trace, Chebyshev, 2.5, 1.0)
    # only the three rules the paper gives a rate have an envelope
    for rule in RULES.values():
        if rule not in (Chebyshev, ConvexRelaxation, FreeRelaxation):
            with pytest.raises(ValueError, match="no rate envelope"):
                check_envelope(trace, rule, 2.0, 1.0)


def test_envelope_power_weakness_slope():
    # t_k = k^{-1/4} with q=2 gives S_m ~ 2 sqrt(m), so the envelope decays
    # like m^{-1/2}: gaps 0.5 m^{-1/2} stay under it, with a ratio tending
    # to 1 (1 - 0.23/sqrt(m)); gaps decaying slower cross it
    tau = WeaknessSequence.power(0.25)
    ms = np.arange(1, 10_001)
    fast, slow = FakeTrace(ms, 0.5 * ms**-0.5), FakeTrace(ms, 0.5 * ms**-0.4)
    report = check_envelope(fast, ConvexRelaxation, 2.0, tau)
    assert report.passed and report.argmax_m == 10_000
    assert report.max_ratio == pytest.approx(1.0, abs=0.003)
    assert not check_envelope(slow, ConvexRelaxation, 2.0, tau).passed


def test_calibrate_wrga():
    report = check_envelope(FakeTrace([1], [0.5]), ConvexRelaxation, 2.0, 1.0)
    assert report.c == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):  # too large for a positive constant
        check_envelope(FakeTrace([1], [1.0]), ConvexRelaxation, 2.0, 1.0)
    with pytest.raises(ValueError):
        check_envelope(FakeTrace([1], [0.0]), ConvexRelaxation, 2.0, 1.0)


def test_calibrate_wcga():
    report = check_envelope(FakeTrace([1], [0.3]), Chebyshev, 2.0, 1.0)
    assert report.c == pytest.approx(0.6, rel=1e-12)


@given(gap=st.floats(1e-6, 100.0))
@settings(max_examples=50, deadline=None)
def test_calibration_pins_first_value(gap):
    # with gap(2) = gap(1) the ratio is envelope(1)/envelope(2), whatever
    # gap(1) is, only if the calibration makes envelope(1) = gap(1)
    q, p = 1.7, 1.7 / 0.7
    s_1, s_2 = 0.9**p, 2.0 * 0.9**p
    expected = ((1.0 + s_2) / (1.0 + s_1)) ** (q - 1.0)
    trace = FakeTrace([1, 2], [gap, gap])
    report = check_envelope(trace, FreeRelaxation, q, 0.9)
    assert report.max_ratio == pytest.approx(expected, rel=1e-12)


def test_check_envelope_exact_trace_passes():
    ms = np.arange(1, 11)
    gaps = 1.0 / (1.0 + ms)
    report = check_envelope(FakeTrace(ms, gaps), ConvexRelaxation, 2.0, 1.0)
    assert report.passed
    assert report.max_ratio == pytest.approx(1.0, rel=1e-12)
    assert report.c == pytest.approx(1.0, rel=1e-12)


def test_check_envelope_catches_slow_trace():
    ms = np.arange(1, 11)
    gaps = 1.0 / (1.0 + ms)
    gaps[1:] *= 1.01
    report = check_envelope(FakeTrace(ms, gaps), ConvexRelaxation, 2.0, 1.0)
    assert not report.passed
    assert report.max_ratio == pytest.approx(1.01, rel=1e-12)
    assert report.argmax_m == 2


def test_check_envelope_requires_first_iteration():
    with pytest.raises(ValueError):
        check_envelope(
            FakeTrace([2, 3], [0.5, 0.3]), ConvexRelaxation, 2.0, 1.0
        )
    with pytest.raises(ValueError):
        check_envelope(FakeTrace([], []), ConvexRelaxation, 2.0, 1.0)


def test_check_envelope_single_record():
    report = check_envelope(FakeTrace([1], [0.5]), ConvexRelaxation, 2.0, 1.0)
    assert report.passed and report.max_ratio == 1.0


# ---------------------------------------------------------------------------
# slope fitting


def test_fit_power_slope_exact_powers():
    ms = np.arange(1, 51)
    assert fit_power_slope(ms, 1.0 / ms) == pytest.approx(-1.0, abs=1e-9)
    assert fit_power_slope(ms, 5.0 * ms**-0.5) == pytest.approx(-0.5, abs=1e-9)


def test_fit_power_slope_window_and_floor_errors():
    ms = np.arange(1, 11)
    values = 1.0 / ms
    with pytest.raises(InsufficientDataError):
        fit_power_slope(ms, values, m_min=4)  # only 7 points past m_min
    tiny = np.full(12, 1e-20)
    tiny[:3] = [1.0, 0.5, 0.25]
    with pytest.raises(InsufficientDataError):
        fit_power_slope(np.arange(1, 13), tiny)  # 3 points above the floor
    with pytest.raises(ValueError):
        fit_power_slope(ms, values[:-1])


def test_fit_power_slope_matches_covariance_oracle():
    rng = np.random.default_rng(4)
    ms = np.arange(1, 101)
    values = 3.0 * ms**-0.7 * np.exp(rng.normal(0.0, 0.05, size=ms.size))
    ours = fit_power_slope(ms, values)
    ref = loglog_slope(ms, values)
    assert ours == pytest.approx(ref, abs=1e-12)


def test_fit_rate_slope_on_real_trace():
    rng = np.random.default_rng(1)
    dic = FiniteDictionary.from_matrix(rng.standard_normal((16, 64)))
    obj = make_least_squares(rng.standard_normal(16))
    trace = run_greedy(
        obj,
        dic,
        WeaknessSequence.constant(1.0),
        ConvexRelaxation(),
        StopRule(max_m=30, sup_tol=-1.0),
    )
    assert fit_power_slope(trace.ms(), trace.gaps(0.0), m_min=2) < 0.0

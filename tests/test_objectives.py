"""Objective constructors: values, gradients, smoothness envelopes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from greedyopt import objectives
from greedyopt.objectives import (
    DimensionMismatchError,
    NonFiniteEnergyError,
    Objective,
    SmoothnessParams,
    check_smoothness_inequality,
    empirical_modulus,
    l2_norm,
    lr_norm,
    make_least_squares,
    make_logistic,
    make_norm_power,
)

from oracles import fd_gradient


def finite_vec(n, lo=-10.0, hi=10.0):
    return arrays(
        np.float64,
        (n,),
        elements=st.floats(min_value=lo, max_value=hi, allow_nan=False),
    )


# ---------------------------------------------------------------------------
# norms


def test_l2_norm_345():
    assert l2_norm(np.array([3.0, 4.0])) == 5.0


def test_lr_norm_values():
    assert lr_norm(np.array([1.0, 1.0]), 4.0) == pytest.approx(2.0**0.25, rel=1e-15)
    assert lr_norm(np.zeros(3), 4.0) == 0.0
    assert lr_norm(np.array([0.0, -2.0]), 3.0) == pytest.approx(2.0, rel=1e-15)


def test_lr_norm_underflow_resistant():
    # naive sum(|v|**r)**(1/r) underflows to 0 here; the scaled form must not
    v = np.array([1e-200, 1e-200])
    assert lr_norm(v, 4.0) == pytest.approx(1e-200 * 2.0**0.25, rel=1e-12)


@given(v=finite_vec(5), c=st.floats(-100, 100, allow_nan=False))
@settings(max_examples=50, deadline=None)
def test_lr_norm_homogeneous(v, c):
    n = lr_norm(c * v, 4.0)
    assert n == pytest.approx(abs(c) * lr_norm(v, 4.0), rel=1e-12, abs=1e-300)


@given(v=finite_vec(5), w=finite_vec(5))
@settings(max_examples=50, deadline=None)
def test_lr_norm_triangle(v, w):
    assert lr_norm(v + w, 4.0) <= lr_norm(v, 4.0) + lr_norm(w, 4.0) + 1e-9


# ---------------------------------------------------------------------------
# least squares


def test_least_squares_values():
    obj = make_least_squares(np.array([3.0, 4.0]))
    assert obj.value(np.zeros(2)) == 12.5
    assert obj.value(np.array([3.0, 4.0])) == 0.0
    assert np.array_equal(obj.gradient(np.zeros(2)), [-3.0, -4.0])
    assert obj.sublevel_radius == 10.0
    assert (obj.smoothness.gamma, obj.smoothness.q) == (0.5, 2.0)


def test_least_squares_small_examples():
    obj = make_least_squares(np.array([1.0, 0.0]))
    assert obj.value(np.zeros(2)) == 0.5
    assert np.array_equal(obj.gradient(np.zeros(2)), [-1.0, 0.0])


@given(y=finite_vec(4), x=finite_vec(4))
@settings(max_examples=50, deadline=None)
def test_least_squares_gradient_closed_form(y, x):
    obj = make_least_squares(y)
    assert np.array_equal(obj.gradient(x), x - y)


def test_dimension_mismatch():
    obj = make_least_squares(np.array([1.0, 2.0]))
    with pytest.raises(DimensionMismatchError):
        obj.value(np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        obj.gradient(np.zeros(1))


def test_non_finite_input_rejected():
    obj = make_least_squares(np.array([1.0, 2.0]))
    with pytest.raises(NonFiniteEnergyError):
        obj.value(np.array([np.nan, 0.0]))
    with pytest.raises(NonFiniteEnergyError):
        obj.gradient(np.array([np.inf, 0.0]))


def test_non_finite_energy_rejected():
    obj = Objective(
        dimension=1,
        value_fn=lambda x: float("nan"),
        gradient_fn=lambda x: x,
        label="bad",
    )
    with pytest.raises(NonFiniteEnergyError):
        obj.value(np.zeros(1))


# ---------------------------------------------------------------------------
# norm power


def test_norm_power_examples():
    obj = make_norm_power(np.array([1.0, 0.0]), 2.0, 2.0)
    assert np.allclose(obj.gradient(np.zeros(2)), [-2.0, 0.0], atol=1e-12)
    assert obj.value(np.array([0.0, 1.0])) == pytest.approx(2.0, rel=1e-14)
    assert obj.value(np.array([1.0, 0.0])) == 0.0
    obj4 = make_norm_power(np.array([1.0, 1.0]), 4.0, 2.0)
    assert obj4.value(np.zeros(2)) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_norm_power_r2_reduction_exact():
    rng = np.random.default_rng(0)
    f = rng.standard_normal(6)
    obj = make_norm_power(f, 2.0, 2.0)
    for _ in range(20):
        x = rng.standard_normal(6)
        assert np.allclose(obj.gradient(x), 2.0 * (x - f), atol=1e-12)


def test_norm_power_gradient_zero_at_target():
    f = np.array([0.3, -0.7, 1.1])
    obj = make_norm_power(f, 4.0, 2.0)
    assert np.array_equal(obj.gradient(f), np.zeros(3))


def test_norm_power_gamma_default():
    obj = make_norm_power(np.array([1.0, 1.0]), 4.0, 2.0)
    assert obj.smoothness.gamma == 3.0  # r - 1 for q = 2, r >= 2
    assert obj.smoothness.q == 2.0


@pytest.mark.parametrize(
    "r, q, pinned",
    [(3.0, 1.5, "0x1.b646258998e8cp+0"), (1.5, 2.0, "0x1.cc20a3bcd0000p+4")],
)
def test_calibrated_gamma_is_sampled_on_first_read(monkeypatch, r, q, pinned):
    # the factory samples nothing; the first read of gamma runs the seeded
    # calibration once, bitwise the value the factory used to compute eagerly
    calls = []
    calibrate = objectives._calibrate_gamma
    monkeypatch.setattr(
        objectives,
        "_calibrate_gamma",
        lambda *a, **k: calls.append(1) or calibrate(*a, **k),
    )
    f = np.random.default_rng(3).standard_normal(6)
    obj = make_norm_power(f, r, q)
    repr(obj)
    assert obj == obj and obj.smoothness == obj.smoothness
    assert calls == []
    gamma = obj.smoothness.gamma
    assert calls == [1]
    direct = calibrate(obj.value_fn, 6, obj.sublevel_radius, obj.norm, q, seed=2024)
    assert gamma.hex() == direct.hex() == pinned
    assert obj.smoothness.rho(0.5) == gamma * 0.5**q
    assert obj.smoothness.gamma == gamma
    assert calls == [1]


@pytest.mark.parametrize(
    "make",
    [
        lambda f, rng: make_least_squares(f),
        lambda f, rng: make_norm_power(f, 3.0, 1.5, gamma=1.0),
        lambda f, rng: make_logistic(
            np.where(rng.standard_normal(40) > 0.0, 1.0, -1.0),
            rng.standard_normal((40, f.size)),
            0.1,
        ),
    ],
    ids=["least_squares", "norm_power", "logistic"],
)
def test_sublevel_sampler_draws_away_from_zero(make):
    # D = {E <= E(0)} has 0 on its boundary: halving a draw toward 0 alone
    # ends at x ~ 0 for about half the draws, where E rounds to E(0)
    rng = np.random.default_rng(7)
    obj = make(rng.standard_normal(12), rng)
    e0 = obj.value(np.zeros(12))
    radius = obj.sublevel_radius
    near_zero = 0
    for _ in range(500):
        x, y = objectives.sample_sublevel_pair(
            obj.value, e0, 12, radius, obj.norm, rng
        )
        assert obj.value(x) <= e0
        assert obj.norm(y) == pytest.approx(1.0, rel=1e-12)
        near_zero += obj.norm(x) < 1e-9 * radius
    assert near_zero < 5  # fewer than 1 % of the draws


def test_exact_and_explicit_gamma_are_eager(monkeypatch):
    # least squares, q = 2 with r >= 2 and an explicit gamma never sample,
    # and an explicit gamma is checked at construction
    monkeypatch.setattr(objectives, "_calibrate_gamma", None)
    f = np.ones(3)
    assert make_least_squares(f).smoothness.gamma == 0.5
    assert make_norm_power(f, 4.0, 2.0).smoothness.gamma == 3.0
    assert make_norm_power(f, 3.0, 1.5, gamma=2).smoothness.gamma == 2.0
    with pytest.raises(ValueError):
        make_norm_power(f, 3.0, 1.5, gamma=0.0)


def test_norm_power_validation():
    f = np.ones(2)
    with pytest.raises(ValueError):
        make_norm_power(f, 1.0, 2.0)
    with pytest.raises(ValueError):
        make_norm_power(f, 2.0, 2.5)
    with pytest.raises(ValueError):
        make_norm_power(f, 2.0, 1.0)


def test_norm_power_norming_functional_duality():
    # <F_v, v> = ||v||_r and for the gradient: <E'(x), f - x> = -q ||f-x||^q
    rng = np.random.default_rng(1)
    f = rng.standard_normal(5)
    obj = make_norm_power(f, 4.0, 2.0)
    for _ in range(10):
        x = rng.standard_normal(5)
        v = f - x
        inner = float(np.dot(obj.gradient(x), v))
        assert inner == pytest.approx(-2.0 * lr_norm(v, 4.0) ** 2, rel=1e-10)


# ---------------------------------------------------------------------------
# logistic


def test_logistic_zero_features():
    obj = make_logistic(np.array([1.0, -1.0]), np.zeros((2, 3)), 1.0)
    assert obj.value(np.zeros(3)) == pytest.approx(np.log(2.0), rel=1e-15)
    assert np.allclose(obj.gradient(np.zeros(3)), 0.0, atol=1e-15)


def test_logistic_single_sample():
    features = np.zeros((1, 3))
    features[0, 0] = 1.0
    obj = make_logistic(np.array([1.0]), features, 1.0)
    assert np.allclose(obj.gradient(np.zeros(3)), [-0.5, 0.0, 0.0], atol=1e-15)


def test_logistic_validation():
    with pytest.raises(ValueError):
        make_logistic(np.array([1.0, 0.5]), np.zeros((2, 2)), 1.0)
    with pytest.raises(ValueError):
        make_logistic(np.array([1.0]), np.zeros((1, 2)), 0.0)
    with pytest.raises(ValueError):
        make_logistic(np.array([1.0, -1.0]), np.zeros((3, 2)), 1.0)


def test_logistic_large_inputs_stable():
    rng = np.random.default_rng(2)
    obj = make_logistic(
        np.where(rng.standard_normal(10) > 0, 1.0, -1.0),
        rng.standard_normal((10, 4)),
        0.1,
    )
    x = 50.0 * rng.standard_normal(4)
    assert np.isfinite(obj.value(x))
    assert np.all(np.isfinite(obj.gradient(x)))


# ---------------------------------------------------------------------------
# gradients vs finite differences, convexity


def _sample_objectives():
    rng = np.random.default_rng(3)
    return [
        make_least_squares(rng.standard_normal(6)),
        make_norm_power(rng.standard_normal(6), 4.0, 2.0),
        make_norm_power(rng.standard_normal(6), 3.0, 1.5),
        make_logistic(
            np.where(rng.standard_normal(12) > 0, 1.0, -1.0),
            rng.standard_normal((12, 6)),
            0.5,
        ),
    ]


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    for obj in _sample_objectives():
        for _ in range(25):
            x = rng.standard_normal(obj.dimension) * 0.5
            g = obj.gradient(x)
            fd = fd_gradient(obj.value, x, h=1e-6 * (1.0 + l2_norm(x)))
            scale = max(l2_norm(g), l2_norm(fd), 1.0)
            assert l2_norm(g - fd) / scale < 1e-6


def test_convexity_inequality():
    rng = np.random.default_rng(5)
    for obj in _sample_objectives():
        for _ in range(250):
            x = rng.standard_normal(obj.dimension)
            y = rng.standard_normal(obj.dimension)
            lin = obj.value(x) + float(np.dot(obj.gradient(x), y - x))
            assert obj.value(y) - lin >= -1e-10


# ---------------------------------------------------------------------------
# smoothness


def test_smoothness_params_validation():
    with pytest.raises(ValueError):
        SmoothnessParams(gamma=0.0, q=2.0)
    with pytest.raises(ValueError):
        SmoothnessParams(gamma=1.0, q=1.0)
    with pytest.raises(ValueError):
        SmoothnessParams(gamma=1.0, q=2.5)
    params = SmoothnessParams(gamma=0.5, q=2.0)
    assert params.rho(0.2) == pytest.approx(0.02, rel=1e-15)


def test_smoothness_inequality_quadratic_exact():
    # for E = 0.5||y-z||^2 the Bregman term is u^2/2 identically
    target = np.array([1.0, -2.0, 0.5])
    obj = make_least_squares(target)
    rng = np.random.default_rng(6)
    for _ in range(20):
        # D is the ball of radius ||target|| around the target
        bump = rng.standard_normal(3)
        x = target + 0.9 * l2_norm(target) * bump / l2_norm(bump)
        y = rng.standard_normal(3)
        y /= l2_norm(y)
        u = float(rng.uniform(0.01, 1.5))
        lhs, margin = check_smoothness_inequality(obj, x, y, u)
        assert lhs == pytest.approx(0.5 * u * u, rel=1e-9)
        assert margin == pytest.approx(0.5 * u * u, rel=1e-9)


def test_smoothness_inequality_u_zero():
    obj = make_least_squares(np.array([1.0, 0.0]))
    lhs, margin = check_smoothness_inequality(obj, np.zeros(2), np.array([1.0, 0.0]), 0.0)
    assert lhs == 0.0
    assert margin == 0.0


def test_smoothness_inequality_norm_power_example():
    obj = make_norm_power(np.array([1.0, 0.0]), 2.0, 2.0)
    assert obj.smoothness.gamma == 1.0
    lhs, margin = check_smoothness_inequality(
        obj, np.zeros(2), np.array([1.0, 0.0]), 0.1
    )
    assert lhs == pytest.approx(0.01, rel=1e-10)
    assert margin == pytest.approx(0.01, rel=1e-10)


def test_smoothness_inequality_errors():
    obj = make_least_squares(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):  # y not unit
        check_smoothness_inequality(obj, np.zeros(2), np.array([2.0, 0.0]), 0.1)
    with pytest.raises(ValueError):  # x outside sublevel set
        check_smoothness_inequality(
            obj, np.array([100.0, 0.0]), np.array([1.0, 0.0]), 0.1
        )
    bare = Objective(
        dimension=2,
        value_fn=lambda x: float(x @ x),
        gradient_fn=lambda x: 2.0 * x,
    )
    with pytest.raises(ValueError):  # no declared envelope
        check_smoothness_inequality(bare, np.zeros(2), np.array([1.0, 0.0]), 0.1)


# ---------------------------------------------------------------------------
# empirical modulus


def test_empirical_modulus_least_squares_exact():
    # the quadratic's second difference is u^2 regardless of the sample
    obj = make_least_squares(np.array([0.7, -0.3, 0.1]))
    assert empirical_modulus(obj, 0.2) == pytest.approx(0.02, abs=1e-12)
    assert empirical_modulus(obj, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_empirical_modulus_u_zero():
    obj = make_least_squares(np.array([1.0, 0.0]))
    assert empirical_modulus(obj, 0.0) == 0.0


def test_empirical_modulus_l4_squared_bracket():
    # at x = f the second difference of ||f-x||_4^2 is exactly 2u^2, so the
    # sampled sup is >= u^2 (up to sampling); the declared gamma = r-1 = 3
    # envelope must dominate it
    obj = make_norm_power(np.array([1.0, 1.0]), 4.0, 2.0)
    u = 0.1
    value = empirical_modulus(obj, u, sample_count=200, rng_seed=0)
    assert value <= 3.0 * u * u + 1e-9
    assert value >= 0.5 * u * u  # well above trivial, kink region was sampled


def test_empirical_modulus_requires_radius():
    bare = Objective(
        dimension=2,
        value_fn=lambda x: float(x @ x),
        gradient_fn=lambda x: 2.0 * x,
    )
    with pytest.raises(ValueError):
        empirical_modulus(bare, 0.1)


def test_declared_envelope_dominates_samples():
    for obj in _sample_objectives():
        gamma, q = obj.smoothness.gamma, obj.smoothness.q
        for k in range(0, 11):
            u = 2.0**-k
            assert empirical_modulus(obj, u, 200) <= gamma * u**q + 1e-9


def test_projection_target_marks_exactly_the_quadratic_factories():
    # E(x) = a ||t - x||_2^2 + b names t; any other objective names none
    y = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(make_least_squares(y).projection_target, y)
    assert np.array_equal(make_norm_power(y, 2.0, 2.0).projection_target, y)
    assert make_norm_power(y, 3.0, 1.5).projection_target is None
    assert make_norm_power(y, 4.0, 2.0).projection_target is None
    assert make_norm_power(y, 2.0, 1.5).projection_target is None
    logistic = make_logistic(np.array([1.0, -1.0]), np.eye(2, 3), 0.1)
    assert logistic.projection_target is None

"""Objective constructors: values, gradients, smoothness envelopes."""

import math
import re
import warnings

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

from oracles import fd_gradient, fd_span_hessian, span_hessian_wrapped


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


def test_lr_norm_of_an_infinite_entry_is_inf():
    # no inf / inf: the norm is inf, with no RuntimeWarning
    assert lr_norm(np.array([1.0, -np.inf, 2.0]), 3.0) == math.inf
    assert lr_norm(np.array([np.inf, 1e200]), 1.5) == math.inf


def test_norm_power_overflowing_residual_raises_without_a_warning():
    # f - x overflows to +-inf (silent under the CLI's errstate): E and E'
    # are rejected, and the span Hessian is not finite, with no warning
    obj = make_norm_power(np.array([1e308, -1e308]), 3.0, 1.5)
    x = np.array([-1e308, 1e308])
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in (obj.value, obj.value_and_gradient, obj.value_gradient_hessian):
            with pytest.raises(NonFiniteEnergyError):
                evaluate(x)
        assert not np.isfinite(obj.value_gradient_hessian_fn(x)[2](np.eye(2))).any()


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
        value_and_gradient_fn=lambda x: (float("nan"), x),
        label="bad",
    )
    with pytest.raises(NonFiniteEnergyError):
        obj.value(np.zeros(1))


# ---------------------------------------------------------------------------
# value_and_gradient: one call, the bits and errors of E' then E


def _fused_cases(f):
    """Each objective kind at target f, with its E' formula written out as
    the separate gradient it replaced."""
    rng = np.random.default_rng(4)
    labels = np.where(rng.standard_normal(8) > 0, 1.0, -1.0)
    features, mu = rng.standard_normal((8, f.size)), 0.5
    yield make_least_squares(f), lambda x: x - f
    la = labels[:, None] * features

    def logistic_gradient(x):
        s = 0.5 * (1.0 + np.tanh(-0.5 * (la @ x)))
        return -(la.T @ s) / len(labels) + mu * x

    yield make_logistic(labels, features, mu), logistic_gradient
    for r in (1.5, 2.0, 3.0, 4.0):
        for q in (1.2, 1.5, 2.0):
            if q > r:  # no envelope: the factory rejects it
                continue

            def norm_power_gradient(x, r=r, q=q):
                v = f - x
                nv = lr_norm(v, r)
                if nv == 0.0:
                    return np.zeros(f.size)
                w = v / nv
                return np.sign(w) * np.abs(w) ** (r - 1.0) * (-q * nv ** (q - 1.0))

            yield make_norm_power(f, r, q), norm_power_gradient


@given(f=finite_vec(5), x=finite_vec(5), at_target=st.booleans())
@settings(max_examples=60, deadline=None)
def test_value_and_gradient_is_bitwise_the_two_calls(f, x, at_target):
    # E from the one call is bitwise value_fn's, and E' the gradient
    # formula's. finite_vec draws -0.0 too, which r = 2's w = v / ||v||
    # must map to the +0.0 of sign(w) * |w|
    if at_target:
        x = f.copy()
    for obj, gradient in _fused_cases(f):
        e, g = obj.value_and_gradient(x)
        assert e == obj.value(x), obj.label
        assert g.tobytes() == gradient(x).tobytes(), obj.label
        assert obj.gradient(x).tobytes() == g.tobytes(), obj.label


def _outcome(fn):
    """(E, bytes of E') from fn(), or the type and message of its error."""
    try:
        e, g = fn()
    except (NonFiniteEnergyError, DimensionMismatchError) as exc:
        return type(exc), str(exc)
    return e, g.tobytes()


def test_value_and_gradient_raises_what_the_two_calls_raise():
    # the one call raises value(x)'s error, with its type and message, where
    # value(x) raises: for these objectives E' is finite wherever E is
    f = np.array([1.0, -2.0, 0.5])
    bad = Objective(
        dimension=3,
        value_fn=lambda x: float("nan"),
        value_and_gradient_fn=lambda x: (float("nan"), x),
        label="bad",
    )
    points = [
        np.array([np.nan, 0.0, 0.0]),  # a non-finite input
        np.array([0.0, np.inf, 0.0]),
        np.zeros(4),  # a wrong shape
        np.full(3, 1e200),  # E overflows: inf for least squares, ** raises
        np.zeros(3),  # fine except for `bad`
    ]
    errors = set()
    for obj in [*(obj for obj, _ in _fused_cases(f)), bad]:
        for x in points:
            with np.errstate(over="ignore"):  # np.dot warns on the inf it returns
                expected = _outcome(lambda: (obj.value(x), obj.gradient(x)))
                assert _outcome(lambda: obj.value_and_gradient(x)) == expected
            if isinstance(expected[0], type):
                errors.add(expected[1].split(" for ")[0])
    assert errors == {
        "non-finite input point",
        "expected shape (3,), got (4,)",
        "E(x) is not finite",
        "E(x) overflows",
    }


def test_value_and_gradient_checks_the_gradient_before_the_energy():
    # a wrong shape or a non-finite E' raises E''s error, even when E is
    # not finite either
    x = np.zeros(2)
    for grad, error, message in (
        (np.zeros(3), DimensionMismatchError, "gradient shape (3,) != (2,)"),
        (np.array([np.nan, 0.0]), NonFiniteEnergyError, "E'(x) is not finite"),
    ):
        obj = Objective(
            dimension=2,
            value_fn=lambda x: float("nan"),
            value_and_gradient_fn=lambda x: (float("nan"), grad),
        )
        with pytest.raises(error, match=re.escape(message)):
            obj.value_and_gradient(x)
        with pytest.raises(error, match=re.escape(message)):
            obj.gradient(x)


def test_norming_functional_at_r_two_is_the_general_form():
    # r = 2 returns w = v / ||v|| instead of sign(w) * |w| ** 1: the same
    # bits, -0.0 entries included
    v = np.array([3.0, -0.0, 0.0, -4.0, 1e-300])
    nv = lr_norm(v, 2.0)
    w = v / nv
    general = np.sign(w) * np.abs(w) ** 1.0
    got = objectives._norming_functional(v, nv, 2.0)
    assert got.tobytes() == general.tobytes()
    assert not np.signbit(got[1])


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
    "make",
    [
        lambda f, rng: make_least_squares(f),
        lambda f, rng: make_norm_power(f, 3.0, 1.5),
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


def test_gamma_is_the_closed_form():
    # least squares 0.5; a norm power max(1, r - 1)^(q/2)
    f = np.ones(3)
    assert make_least_squares(f).smoothness.gamma == 0.5
    for r, q, gamma in ((4.0, 2.0, 3.0), (3.0, 1.5, 2.0**0.75), (1.5, 1.2, 1.0)):
        assert make_norm_power(f, r, q).smoothness.gamma == gamma


def test_norm_power_validation():
    f = np.ones(2)
    with pytest.raises(ValueError):
        make_norm_power(f, 1.0, 2.0)
    with pytest.raises(ValueError):
        make_norm_power(f, 2.0, 2.5)
    with pytest.raises(ValueError):
        make_norm_power(f, 2.0, 1.0)


@pytest.mark.parametrize("q", [1.05, 1.2, 1.5, 2.0])
@pytest.mark.parametrize("r", [1.2, 1.5, 2.0, 3.0, 6.0])
def test_norm_power_envelope_holds_where_it_is_tight(r, q):
    # the sandwich at x = f_i e_i, y = e_i (i the largest |f_i|), where the
    # residual has a 0 entry and E grows like u^r along y, and at x = f;
    # for q > r no envelope exists there, so the factory must refuse
    f = np.random.default_rng(12).standard_normal(16)
    if q > r:
        with pytest.raises(ValueError, match=f"q = {q} > r = {r}"):
            make_norm_power(f, r, q)
        return
    obj = make_norm_power(f, r, q)
    i = int(np.argmax(np.abs(f)))
    y = np.eye(16)[i]
    e0 = obj.value(np.zeros(16))
    for x in (f[i] * y, f):
        for k in range(13):
            lhs, margin = check_smoothness_inequality(obj, x, y, 2.0**-k, e0)
            assert min(lhs, margin) >= -1e-10, (k, lhs, margin)


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
        make_norm_power(rng.standard_normal(6), 1.5, 1.5),
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


@pytest.mark.parametrize(
    "r, q",
    [(r, q) for r in (1.5, 2.0, 3.0, 6.0) for q in (1.2, 1.5, 2.0) if q <= r],
)
def test_span_hessian_matches_finite_differences(r, q):
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = rng.standard_normal(7)
        x = rng.standard_normal(7)
        basis = rng.standard_normal((7, 3))
        obj = make_norm_power(f, r, q)
        hess = obj.value_gradient_hessian(x)[2](basis)
        fd = fd_span_hessian(obj.value_and_gradient, x, basis, 1e-6)
        assert hess.shape == (3, 3)
        assert np.abs(hess - fd).max() <= 1e-6 * max(np.abs(fd).max(), 1.0)


def test_span_hessian_is_infinite_where_e_has_none():
    # E'' does not exist at the target, nor, for r < 2, where a residual
    # entry is 0; least squares and logistic declare no span Hessian
    f = np.array([1.0, -2.0, 0.5])
    basis = np.eye(3)[:, :2]
    for r, q, x in ((3.0, 1.5, f), (2.0, 2.0, f), (1.5, 1.5, np.array([1.0, 0.0, 0.0]))):
        hess = make_norm_power(f, r, q).value_gradient_hessian(x)[2](basis)
        assert hess.shape == (2, 2) and not np.isfinite(hess).any()
    x = np.array([1.0, 0.0, 0.0])
    hess = make_norm_power(f, 3.0, 1.5).value_gradient_hessian(x)[2](basis)
    assert np.isfinite(hess).all()
    assert make_least_squares(f).value_gradient_hessian_fn is None
    logistic = make_logistic(np.array([1.0, -1.0]), np.eye(2, 3), 0.1)
    assert logistic.value_gradient_hessian_fn is None


def test_span_hessian_drops_its_evaluations_residual():
    # the Hessian holds its evaluation's f - x, ||f - x||_r and F_v and
    # releases them as it forms the matrix, also where it is infinite
    f = np.array([1.0, -2.0, 0.5])
    basis = np.eye(3)[:, :2]
    for r, x in ((3.0, np.zeros(3)), (1.5, np.array([1.0, 0.0, 0.0]))):
        _, _, hessian = make_norm_power(f, r, 1.5).value_gradient_hessian(x)
        cells = [cell.cell_contents for cell in hessian.__closure__]
        (held,) = [c for c in cells if isinstance(c, list)]
        assert np.array_equal(held[0], f - x) and len(held) == 3
        hessian(basis)
        assert held == []


@pytest.mark.parametrize(
    "r, q",
    [(r, q) for r in (1.5, 2.0, 3.0, 4.0, 6.0) for q in (1.2, 1.5, 2.0) if q <= r],
)
def test_span_hessian_from_an_evaluation_matches_its_twin(r, q):
    # the Hessian an evaluation returns is bitwise the one recomputed from
    # f - x, at every basis width 1-9, infinite ones too (x = f, and a zero
    # residual entry at r < 2); the evaluation's E and E' are bitwise those
    # of value_and_gradient_fn
    rng = np.random.default_rng(12)
    f = rng.standard_normal(16)
    on_entry = rng.standard_normal(16)
    on_entry[3] = f[3]
    obj = make_norm_power(f, r, q)
    for x in (rng.standard_normal(16), rng.standard_normal(16), f, on_entry):
        basis = rng.standard_normal((16, 9))
        for k in range(1, 10):
            energy, grad, hessian = obj.value_gradient_hessian(x)
            e, g = obj.value_and_gradient_fn(x)
            assert energy == e and grad.tobytes() == g.tobytes()
            expected = span_hessian_wrapped(f, r, q, x, basis[:, :k])
            assert hessian(basis[:, :k]).tobytes() == expected.tobytes()
        finite = np.isfinite(expected).all()
        assert finite == (x is not f and (r >= 2.0 or x is not on_entry))


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
        lhs, margin = check_smoothness_inequality(obj, x, y, u, obj.value(np.zeros(3)))
        assert lhs == pytest.approx(0.5 * u * u, rel=1e-9)
        assert margin == pytest.approx(0.5 * u * u, rel=1e-9)


def test_smoothness_inequality_u_zero():
    obj = make_least_squares(np.array([1.0, 0.0]))
    lhs, margin = check_smoothness_inequality(
        obj, np.zeros(2), np.array([1.0, 0.0]), 0.0, 0.5
    )
    assert lhs == 0.0
    assert margin == 0.0


def test_smoothness_inequality_norm_power_example():
    obj = make_norm_power(np.array([1.0, 0.0]), 2.0, 2.0)
    assert obj.smoothness.gamma == 1.0
    lhs, margin = check_smoothness_inequality(
        obj, np.zeros(2), np.array([1.0, 0.0]), 0.1, 1.0
    )
    assert lhs == pytest.approx(0.01, rel=1e-10)
    assert margin == pytest.approx(0.01, rel=1e-10)


def test_smoothness_inequality_errors():
    obj = make_least_squares(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):  # y not unit
        check_smoothness_inequality(obj, np.zeros(2), np.array([2.0, 0.0]), 0.1, 0.5)
    with pytest.raises(ValueError):  # x outside sublevel set
        check_smoothness_inequality(
            obj, np.array([100.0, 0.0]), np.array([1.0, 0.0]), 0.1, 0.5
        )
    bare = Objective(
        dimension=2,
        value_fn=lambda x: float(x @ x),
        value_and_gradient_fn=lambda x: (float(x @ x), 2.0 * x),
    )
    with pytest.raises(ValueError):  # no declared envelope
        check_smoothness_inequality(bare, np.zeros(2), np.array([1.0, 0.0]), 0.1, 0.0)


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
        value_and_gradient_fn=lambda x: (float(x @ x), 2.0 * x),
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

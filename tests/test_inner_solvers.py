"""Line search, slice solves (free relaxation included) and the Chebyshev
subspace solver."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from greedyopt import inner_solvers
from greedyopt.inner_solvers import (
    DERIVATIVE_TOL,
    NonConvexityError,
    SpanFactor,
    SubspaceToleranceError,
    UnboundedBelowError,
    _min_norm_solve,
    line_search,
    minimize_on_slice,
    minimize_subspace,
)
from greedyopt.objectives import make_least_squares, make_norm_power

from oracles import (
    free_relaxation_joint_minimum,
    quadratic_line_minimum,
    quadratic_ray_minimum,
)


def vec(n, lo=-5.0, hi=5.0):
    return arrays(
        np.float64,
        (n,),
        elements=st.floats(min_value=lo, max_value=hi, allow_nan=False),
    )


def square(center, shift=0.0):
    """(c - center)^2 + shift and its derivative."""
    return (lambda c: (c - center) ** 2 + shift), (lambda c: 2.0 * (c - center))


# ---------------------------------------------------------------------------
# ray / interval search


def test_ray_quadratic_vertex():
    res = line_search(*square(3.0), 0.0, math.inf)
    assert res.argmin == pytest.approx(3.0, abs=1e-8)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_ray_boundary_minimum():
    res = line_search(*square(0.0), 1.0, 2.0)
    assert res.argmin == 1.0
    assert res.derivative == pytest.approx(2.0, rel=1e-6)


def test_ray_flat_at_origin():
    res = line_search(*square(0.0), 0.0, math.inf)
    assert res.argmin == 0.0
    assert res.value == 0.0


def test_ray_with_analytic_derivative():
    res = line_search(*square(7.0, 1.0), 0.0, math.inf)
    assert res.argmin == pytest.approx(7.0, abs=1e-8)
    assert res.value == pytest.approx(1.0, abs=1e-12)


def test_ray_unbounded_below():
    with pytest.raises(UnboundedBelowError):
        line_search(lambda c: -c, lambda c: -1.0, 0.0, math.inf)


def test_ray_nonconvexity_detected():
    # derivative claims descent while the values rise: inconsistent profile
    with pytest.raises(NonConvexityError):
        line_search(lambda c: c, lambda c: -1.0, 0.0, math.inf)


@pytest.mark.parametrize("bounds", [(-math.inf, 0.0), (0.0, -1.0), (math.inf, math.inf)])
def test_line_search_rejects_unsupported_bounds(bounds):
    with pytest.raises(ValueError):
        line_search(*square(1.0), *bounds)


@given(y=vec(4), g=vec(4), phi=vec(4))
@settings(max_examples=60, deadline=None)
def test_ray_matches_quadratic_closed_form(y, g, phi):
    if np.linalg.norm(phi) < 1e-6:
        return
    phi = phi / np.linalg.norm(phi)
    c_star, v_star = quadratic_ray_minimum(y, g, phi)

    def energy(c):
        d = y - g - c * phi
        return 0.5 * float(d @ d)

    def denergy(c):
        return float(np.dot(phi, g + c * phi - y))

    res = line_search(energy, denergy, 0.0, math.inf)
    assert res.argmin == pytest.approx(c_star, abs=1e-8 * (1.0 + abs(c_star)))
    assert res.value <= v_star + 1e-10 * (1.0 + abs(v_star))


# ---------------------------------------------------------------------------
# full-line search


def test_real_negative_side():
    phi, dphi = square(-2.0)
    res = line_search(phi, dphi)
    assert res.argmin == pytest.approx(-2.0, abs=1e-8)
    # the mirrored search reports phi's own derivative, not the mirror's
    assert res.derivative == dphi(res.argmin)


def test_real_positive_side():
    res = line_search(*square(2.0))
    assert res.argmin == pytest.approx(2.0, abs=1e-8)


def test_real_negative_side_evaluates_origin_slope_once():
    # the mirrored ray reuses phi'(0): a search on the negative side costs
    # as many derivative calls as its mirror image on the positive side
    counts = {}
    for center in (-2.0, 2.0):
        phi, dphi = square(center)
        calls = []
        res = line_search(phi, lambda c: calls.append(c) or dphi(c))
        assert res.argmin == pytest.approx(center, abs=1e-8)
        assert sum(1 for c in calls if c == 0.0) == 1
        counts[center] = len(calls)
    assert counts[-2.0] == counts[2.0]


def test_real_stationary_origin():
    res = line_search(*square(0.0))
    assert res.argmin == 0.0


@given(y=vec(3), g=vec(3), phi=vec(3))
@settings(max_examples=60, deadline=None)
def test_real_matches_quadratic_closed_form(y, g, phi):
    if np.linalg.norm(phi) < 1e-6:
        return
    phi = phi / np.linalg.norm(phi)  # atoms are unit-norm in the library
    c_star, v_star = quadratic_line_minimum(y, g, phi)

    def energy(c):
        d = y - g - c * phi
        return 0.5 * float(d @ d)

    def denergy(c):
        return float(np.dot(phi, g + c * phi - y))

    res = line_search(energy, denergy)
    assert res.argmin == pytest.approx(c_star, abs=1e-8 * (1.0 + abs(c_star)))
    assert res.value <= v_star + 1e-10 * (1.0 + abs(v_star))


# ---------------------------------------------------------------------------
# unit interval


def test_unit_interval_clipped_vertex():
    assert line_search(*square(2.0), 0.0, 1.0).argmin == 1.0


def test_unit_interval_interior_vertex():
    res = line_search(*square(0.25), 0.0, 1.0)
    assert res.argmin == pytest.approx(0.25, abs=1e-8)


def test_unit_interval_monotone():
    assert line_search(lambda t: t, lambda t: 1.0, 0.0, 1.0).argmin == 0.0


# ---------------------------------------------------------------------------
# free relaxation: the plane slice (base, atom), searched and in closed form


def both_paths(objective):
    """The objective as declared, and as one the searches must solve."""
    return objective, dataclasses.replace(objective, projection_target=None)


def test_free_relaxation_matches_normal_equations():
    rng = np.random.default_rng(0)
    for _ in range(25):
        y = rng.standard_normal(6)
        base = rng.standard_normal(6)
        atom = rng.standard_normal(6)
        atom /= np.linalg.norm(atom)
        _, _, v_star = free_relaxation_joint_minimum(y, base, atom)
        for obj in both_paths(make_least_squares(y)):
            res = minimize_on_slice(obj, base, (base, atom))
            assert res.energy <= v_star + 1e-8 * (1.0 + abs(v_star))
            assert res.energy >= v_star - 1e-10  # oracle is the exact minimum


def test_free_relaxation_dominates_endpoints():
    rng = np.random.default_rng(1)
    y = rng.standard_normal(5)
    base = rng.standard_normal(5)
    atom = rng.standard_normal(5)
    atom /= np.linalg.norm(atom)
    for obj in (make_least_squares(y), make_norm_power(y, 4.0, 2.0)):
        res = minimize_on_slice(obj, base, (base, atom))
        # the single-atom step (w = 0) and the restart (w = 1) are line slices
        best_step = minimize_on_slice(obj, base, (atom,)).energy
        restart = minimize_on_slice(obj, np.zeros_like(base), (atom,)).energy
        assert res.energy <= best_step + 1e-10
        assert res.energy <= restart + 1e-10


def test_free_relaxation_zero_base_is_line_search():
    y = np.array([2.0, 1.0, 0.0])
    atom = np.array([1.0, 0.0, 0.0])
    c_star, v_star = quadratic_line_minimum(y, np.zeros(3), atom)
    for obj in both_paths(make_least_squares(y)):
        res = minimize_on_slice(obj, np.zeros(3), (np.zeros(3), atom))
        assert res.coefficients[1] == pytest.approx(c_star, abs=1e-8)
        assert res.energy == pytest.approx(v_star, abs=1e-10)
        assert res.coefficients[0] == 0.0  # w = 0


def test_free_relaxation_parallel_directions():
    # atom parallel to base: the 2-D problem degenerates to 1-D; the energy
    # must still match the 1-D closed form along that direction
    y = np.array([3.0, 0.0])
    base = np.array([2.0, 0.0])
    atom = np.array([1.0, 0.0])
    for obj in both_paths(make_least_squares(y)):
        res = minimize_on_slice(obj, base, (base, atom))
        assert res.energy == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# slice solves: projections of the objective's target


def _ls_slice(seed, dim=6):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(dim)
    g = rng.standard_normal(dim)
    phi = rng.standard_normal(dim)
    return y, g, phi / np.linalg.norm(phi)


@pytest.mark.parametrize("seed", range(10))
def test_slice_ray_matches_closed_form(seed):
    y, g, phi = _ls_slice(seed)
    res = minimize_on_slice(make_least_squares(y), g, (phi,), 0.0, math.inf)
    c_star, v_star = quadratic_ray_minimum(y, g, phi)
    assert res.coefficients[0] == pytest.approx(c_star, abs=1e-12 * (1 + abs(c_star)))
    assert res.energy == pytest.approx(v_star, abs=1e-12 * (1 + v_star))
    if c_star == 0.0:
        assert res.coefficients[0] == 0.0  # clipped at the ray's start


@pytest.mark.parametrize("seed", range(10))
def test_slice_line_matches_closed_form(seed):
    y, g, phi = _ls_slice(seed)
    res = minimize_on_slice(make_least_squares(y), g, (phi,))
    c_star, v_star = quadratic_line_minimum(y, g, phi)
    assert res.coefficients[0] == pytest.approx(c_star, abs=1e-12 * (1 + abs(c_star)))
    assert res.energy == pytest.approx(v_star, abs=1e-12 * (1 + v_star))


@pytest.mark.parametrize("vertex", [-0.5, 0.25, 3.0])
def test_slice_unit_interval_clips_at_each_end(vertex):
    # E(g + c phi) has its unconstrained vertex at c = vertex
    y = np.array([1.0, 2.0, -1.0])
    phi = np.array([0.0, 0.6, 0.8])
    g = y - vertex * phi
    res = minimize_on_slice(make_least_squares(y), g, (phi,), 0.0, 1.0)
    c_line, _ = quadratic_line_minimum(y, g, phi)
    expected = min(max(c_line, 0.0), 1.0)
    assert res.coefficients[0] == pytest.approx(expected, abs=1e-12)
    if vertex < 0.0:
        assert res.coefficients[0] == 0.0
    if vertex > 1.0:
        assert res.coefficients[0] == 1.0


def test_slice_plane_zero_base_is_line_search():
    y, _, phi = _ls_slice(11)
    zero = np.zeros_like(y)
    res = minimize_on_slice(make_least_squares(y), zero, (zero, phi))
    _, lam, v_star = free_relaxation_joint_minimum(y, zero, phi)
    assert res.coefficients[0] == 0.0  # min-norm: w = 0
    assert res.coefficients[1] == pytest.approx(lam, abs=1e-12)
    assert res.energy == pytest.approx(v_star, abs=1e-12)


def test_slice_plane_parallel_atom_takes_min_norm_step():
    y = np.array([3.0, 1.0, 0.0])
    phi = np.array([0.6, 0.8, 0.0])
    base = 2.0 * phi
    res = minimize_on_slice(make_least_squares(y), base, (base, phi))
    _, _, v_star = free_relaxation_joint_minimum(y, base, phi)
    minus_w, lam = res.coefficients
    point = (1.0 + minus_w) * base + lam * phi
    assert make_least_squares(y).value(point) == pytest.approx(v_star, abs=1e-12)
    # base + c1 base + c2 phi only depends on 2 c1 + c2; the min-norm c is
    # the multiple of (2, 1)
    assert minus_w == pytest.approx(2.0 * lam, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_slice_plane_matches_normal_equations(seed):
    y, base, phi = _ls_slice(seed)
    obj = make_least_squares(y)
    res = minimize_on_slice(obj, base, (base, phi))
    alpha, lam, v_star = free_relaxation_joint_minimum(y, base, phi)
    assert 1.0 + res.coefficients[0] == pytest.approx(alpha, abs=1e-10)
    assert res.coefficients[1] == pytest.approx(lam, abs=1e-10)
    assert res.energy == pytest.approx(v_star, abs=1e-12)
    # endpoint domination: the line slices at base (w = 0) and at 0 (w = 1)
    _, v_best = quadratic_line_minimum(y, base, phi)
    _, v_restart = quadratic_line_minimum(y, np.zeros_like(y), phi)
    assert res.energy <= v_best + 1e-12
    assert res.energy <= v_restart + 1e-12
    best_step = minimize_on_slice(obj, base, (phi,))
    restart = minimize_on_slice(obj, np.zeros_like(y), (phi,))
    assert best_step.energy == pytest.approx(v_best, abs=1e-12)
    assert restart.energy == pytest.approx(v_restart, abs=1e-12)


# ---------------------------------------------------------------------------
# the closed-form Gram solve against np.linalg.lstsq

EPS = np.finfo(float).eps


def _lstsq(directions, residual):
    """What the projection step solved before: lstsq on the Gram system."""
    gram = np.array([[float(np.dot(a, b)) for b in directions] for a in directions])
    rhs = np.array([float(np.dot(d, residual)) for d in directions])
    return np.linalg.lstsq(gram, rhs, rcond=None)[0] + 0.0


def _one_direction(g, r):
    """(d,), residual in R^1 with d . d = g and d . residual = r, to rounding."""
    d = np.array([math.sqrt(g)])
    return (d,), np.array([r / d[0]]) if g > 0.0 else np.array([r])


def test_line_solve_is_lstsq_bit_for_bit():
    rng = np.random.default_rng(0)
    gs = 10.0 ** rng.uniform(-150.0, 150.0, 20000)
    rs = rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-150.0, 150.0, 20000)
    for g, r in zip(gs, rs):
        directions, residual = _one_direction(g, r)
        got = _min_norm_solve(directions, residual)
        assert got.tobytes() == _lstsq(directions, residual).tobytes(), (g, r)


@pytest.mark.parametrize("g", [0.0, 1.0, 1e-150, 1e150])
@pytest.mark.parametrize("r", [0.0, -0.0])
def test_line_solve_zero_gives_no_negative_zero(g, r):
    directions, residual = _one_direction(g, r)
    got = _min_norm_solve(directions, residual)
    assert got[0] == 0.0 and not np.signbit(got[0])
    assert got.tobytes() == _lstsq(directions, residual).tobytes()


def _gram_ratio(directions):
    """lambda_min / lambda_max of the rounded Gram matrix, its determinant in
    exact rational arithmetic: (ratio, (a, b, c))."""
    d0, d1 = directions
    a, b, c = (float(np.dot(x, y)) for x, y in ((d0, d0), (d0, d1), (d1, d1)))
    lam_max = 0.5 * (a + c) + math.hypot(0.5 * (a - c), b)
    if lam_max == 0.0:
        return 0.0, (a, b, c)
    det = Fraction(a) * Fraction(c) - Fraction(b) ** 2
    return float(det / Fraction(lam_max) ** 2), (a, b, c)


def _slice_energy(directions, residual, c):
    r = residual - c[0] * directions[0] - c[1] * directions[1]
    return 0.5 * float(np.dot(r, r))


def _pair(rng, sin, spread=3.0, dim=8):
    """d0 and d1 at angle asin(sin), their norms log-uniform over
    10^[-spread, spread]."""
    d0 = rng.standard_normal(dim)
    u = rng.standard_normal(dim)
    u -= np.dot(u, d0) / np.dot(d0, d0) * d0
    d0 /= np.linalg.norm(d0)
    d1 = math.sqrt(1.0 - sin * sin) * d0 + sin * u / np.linalg.norm(u)
    return tuple(d * 10.0 ** rng.uniform(-spread, spread) for d in (d0, d1))


def test_plane_solve_matches_lstsq_when_well_conditioned():
    # both are backward stable on the same rounded Gram system, so each
    # coefficient vector is within about eps * cond of its exact solution;
    # the closed form agrees with lstsq to 1e-12 up to cond ~ 1e3 and to
    # 4 eps cond above, and is within 2 eps cond of the exact solution
    rng = np.random.default_rng(1)
    solved = 0
    for _ in range(2000):
        directions = _pair(rng, 10.0 ** rng.uniform(-3.5, 0.0), spread=1.0)
        residual = rng.standard_normal(8) * 10.0 ** rng.uniform(-3, 3)
        ratio, (a, b, c) = _gram_ratio(directions)
        cond = 1.0 / ratio
        if cond > 1e8:
            continue
        solved += 1
        got = _min_norm_solve(directions, residual)
        ref = _lstsq(directions, residual)
        scale = np.linalg.norm(ref)
        assert np.linalg.norm(got - ref) <= max(1e-12, 4.0 * EPS * cond) * scale
        r0, r1 = (Fraction(float(np.dot(d, residual))) for d in directions)
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        det = a * c - b * b
        num = (c * r0 - b * r1, a * r1 - b * r0)
        exact = np.array([float(n / det) for n in num])
        assert np.linalg.norm(got - exact) <= 2.0 * EPS * cond * np.linalg.norm(exact)
    assert solved >= 1500


def _degenerate_planes(rng):
    """(directions, residual, exactly singular) for the degenerate set."""
    for _ in range(400):
        residual = rng.standard_normal(8) * 10.0 ** rng.uniform(-3, 3)
        d = rng.standard_normal(8) * 10.0 ** rng.uniform(-3, 3)
        yield (np.zeros(8), d), residual, True  # zero base: G = 0 at m = 1
        s = rng.choice([-1.0, 1.0]) * 2.0 ** int(rng.integers(-6, 7))
        yield (d, s * d), residual, True  # exact multiple: exactly singular
        s = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)
        yield (d, s * d), residual, False  # singular up to rounding
        # nearly parallel, Gram cond up to ~1e15 and past it
        directions = _pair(rng, 10.0 ** rng.uniform(-8.5, -4.0))
        yield directions, residual, False
        scale = 10.0 ** rng.choice([-150.0, 150.0])
        directions = _pair(rng, 10.0 ** rng.uniform(-8.5, 0.0))
        yield tuple(scale * d for d in directions), scale * residual, False


def test_plane_solve_on_degenerate_gram_systems():
    # The cutoff drops eigenvalues at most 2 eps lambda_max. Near that band
    # the rounding of lambda_min decides, in lstsq as here, so coefficients
    # and energies are compared only where the exact ratio is clear of it:
    # both drop (ratio <= eps / 4) or both keep. Kept, each solve is within
    # about eps cond of the exact one, and E within (eps cond)^2 relative, so
    # energies are compared up to cond 1e8 and coefficients to 4 eps cond.
    rng = np.random.default_rng(2)
    compared = dropped = 0
    for directions, residual, singular in _degenerate_planes(rng):
        ratio, _ = _gram_ratio(directions)
        got = _min_norm_solve(directions, residual)
        ref = _lstsq(directions, residual)
        e_got = _slice_energy(directions, residual, got)
        e_ref = _slice_energy(directions, residual, ref)
        if singular:
            assert ratio == 0.0
            assert np.linalg.norm(got) <= np.linalg.norm(ref) * (1.0 + 1e-12)
        if ratio <= EPS / 4.0:
            dropped += 1
            assert e_got <= e_ref + 1e-12 * (1.0 + abs(e_ref))
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.linalg.norm(ref))
        elif ratio >= 16.0 * EPS:
            compared += 1
            cond = 1.0 / ratio
            scale = np.linalg.norm(ref)
            assert np.linalg.norm(got - ref) <= max(1e-12, 4.0 * EPS * cond) * scale
            if cond <= 1e8:
                assert e_got <= e_ref + 1e-12 * (1.0 + abs(e_ref))
    assert dropped >= 1000 and compared >= 250


def _wrong_target(y):
    """Least squares for y that names y + 1 as its projection target."""
    return dataclasses.replace(make_least_squares(y), projection_target=y + 1.0)


@pytest.mark.parametrize(
    "bounds", [(0.0, math.inf), (-math.inf, math.inf), (0.0, 1.0)]
)
def test_slice_misdeclared_quadratic_falls_back(bounds):
    # the wrong projection fails the first-order test, and the step is
    # bitwise the search's (which hands back no gradient)
    y = np.array([2.0, -1.0, 0.5])
    obj = _wrong_target(y)
    honest = dataclasses.replace(obj, projection_target=None)
    base = np.zeros(3)
    d = np.array([2.0, 1.0, 0.0])  # the true minimizer is at c = 0.6
    res = minimize_on_slice(obj, base, (d,), *bounds)
    searched = minimize_on_slice(honest, base, (d,), *bounds)
    assert res.coefficients.tobytes() == searched.coefficients.tobytes()
    assert res.point.tobytes() == searched.point.tobytes()
    assert res.energy == searched.energy
    assert res.gradient is None
    c = res.coefficients[0]
    # the returned step passes the first-order test of the searches
    slope = float(np.dot(obj.gradient(base + c * d), d))
    dtol = DERIVATIVE_TOL * (1.0 + abs(obj.value(base)))
    if c == bounds[0]:
        assert slope >= -dtol
    elif c == bounds[1]:
        assert slope <= dtol
    else:
        assert abs(slope) <= dtol


def test_slice_misdeclared_quadratic_plane_falls_back():
    y = np.array([2.0, -1.0, 0.5])
    obj = _wrong_target(y)
    base = np.array([0.5, 0.5, 0.0])
    atom = np.array([0.0, 0.6, 0.8])
    res = minimize_on_slice(obj, base, (base, atom))
    searched = minimize_on_slice(
        dataclasses.replace(obj, projection_target=None), base, (base, atom)
    )
    assert res.coefficients.tobytes() == searched.coefficients.tobytes()
    assert res.point.tobytes() == searched.point.tobytes()
    assert res.energy == searched.energy
    # the plane's L-BFGS-B pass hands back E' at its point
    assert res.gradient.tobytes() == searched.gradient.tobytes()
    assert res.gradient.tobytes() == obj.gradient(res.point).tobytes()


def _slices(base, phi):
    """(directions, lower, upper) of every slice shape a rule names."""
    return [
        ((phi,), 0.0, math.inf),
        ((phi,), 0.0, 1.0),
        ((phi,), -math.inf, math.inf),
        ((-phi,), -math.inf, math.inf),  # the other side of the whole line
        ((base, phi), -math.inf, math.inf),
    ]


_BOTH_PATHS = [make_least_squares, lambda y: make_norm_power(y, 4.0, 2.0)]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("make", _BOTH_PATHS)
def test_slice_given_energy_and_gradient_is_bit_identical(seed, make):
    # the run takes E, and E' where the solver evaluated it, from the
    # result instead of evaluating them at its point: both must be bitwise
    # what that evaluation gives, and a second solve of the same slice must
    # give bitwise the same result
    y, base, phi = _ls_slice(seed)
    obj = make(y)
    for directions, lower, upper in _slices(base, phi):
        res = minimize_on_slice(obj, base, directions, lower, upper)
        again = minimize_on_slice(obj, base.copy(), directions, lower, upper)
        assert again.coefficients.tobytes() == res.coefficients.tobytes()
        assert again.point.tobytes() == res.point.tobytes()
        assert res.energy == obj.value(res.point)
        if obj.projection_target is None and len(directions) == 1:
            assert res.gradient is None  # a line search hands back no E'
        else:
            assert res.gradient.tobytes() == obj.gradient(res.point).tobytes()


def test_slice_given_energy_skips_one_evaluation():
    # the projection's first-order test is scaled by E at its point, which
    # the result needs anyway: E' there, then E there, and no E(base)
    y, base, phi = _ls_slice(5)
    calls = []
    obj = make_least_squares(y)
    counted = dataclasses.replace(
        obj,
        value_fn=lambda x: calls.append(("value", x)) or obj.value_fn(x),
        gradient_fn=lambda x: calls.append(("gradient", x)) or obj.gradient_fn(x),
    )
    res = minimize_on_slice(counted, base, (base, phi))
    assert [name for name, _ in calls] == ["gradient", "value"]
    assert all(np.array_equal(x, res.point) for _, x in calls)


def test_slice_projection_test_is_scaled_by_the_energy_at_its_point():
    # a target off by 1e-9 along the line leaves a slope of 1e-9 at the
    # projected point, where E is 5e-19: above the test's 1e-10 * (1 + E),
    # though under the 1e-10 * (1 + E(base)) = 5.1e-9 of the base, so the
    # step falls back to the search
    y = np.zeros(2)
    base, d = np.array([10.0, 0.0]), np.array([-1.0, 0.0])
    misdeclared = dataclasses.replace(
        make_least_squares(y), projection_target=np.array([1e-9, 0.0])
    )
    searched = dataclasses.replace(misdeclared, projection_target=None)
    res = minimize_on_slice(misdeclared, base, (d,))
    expected = minimize_on_slice(searched, base, (d,))
    assert res.gradient is None
    assert res.coefficients.tobytes() == expected.coefficients.tobytes()
    assert res.point.tobytes() == expected.point.tobytes()
    assert res.energy == expected.energy


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("make", _BOTH_PATHS)
def test_slice_result_carries_its_point(seed, make):
    # on every path the result's point is base + sum_i c_i d_i, E there is
    # its energy and, on the projection path, E' there its gradient
    y, base, phi = _ls_slice(seed)
    obj = make(y)
    for directions, lower, upper in _slices(base, phi):
        res = minimize_on_slice(obj, base, directions, lower, upper)
        assert res.energy == obj.value(res.point)
        if res.gradient is not None:
            assert np.array_equal(res.gradient, obj.gradient(res.point))
        if len(directions) == 1:
            c = res.coefficients[0]
            assert np.array_equal(res.point, base + c * directions[0])
        else:
            minus_w, lam = res.coefficients
            expected = (1.0 + minus_w) * base + lam * phi
            assert np.allclose(res.point, expected, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("bounds", [(0.0, 1.0), (0.0, math.inf), (-math.inf, math.inf)])
def test_slice_gradient(bounds):
    # the exact step returns the gradient its first-order test evaluated at
    # base + c d, bitwise; a search returns no gradient
    y, base, phi = _ls_slice(2)
    d = phi - base
    exact = minimize_on_slice(make_least_squares(y), base, (d,), *bounds)
    (c,) = exact.coefficients.tolist()
    assert np.array_equal(exact.gradient, make_least_squares(y).gradient(base + c * d))
    searched = minimize_on_slice(make_norm_power(y, 4.0, 2.0), base, (d,), *bounds)
    assert searched.gradient is None


@pytest.mark.parametrize("seed", range(3))
def test_slice_plane_is_one_lbfgs_pass(monkeypatch, seed):
    # a non-quadratic plane is one L-BFGS-B pass and no line search; a
    # least-squares plane is the closed form, with neither
    def no_line_search(*args, **kwargs):
        raise AssertionError("the plane called line_search")

    passes = []
    scipy_minimize = inner_solvers._scipy_minimize

    def counted(*args, **kwargs):
        passes.append(1)
        return scipy_minimize(*args, **kwargs)

    monkeypatch.setattr(inner_solvers, "line_search", no_line_search)
    monkeypatch.setattr(inner_solvers, "_scipy_minimize", counted)
    y, base, phi = _ls_slice(seed)
    minimize_on_slice(make_norm_power(y, 4.0, 2.0), base, (base, phi))
    assert len(passes) == 1
    minimize_on_slice(make_least_squares(y), base, (base, phi))
    assert len(passes) == 1


def _counted_passes(monkeypatch):
    """Patches `_lbfgs` to log each pass: (its start, its result)."""
    passes = []
    lbfgs = inner_solvers._lbfgs

    def counted(objective, basis, coef, options):
        res = lbfgs(objective, basis, coef, options)
        passes.append((coef, res))
        return res

    monkeypatch.setattr(inner_solvers, "_lbfgs", counted)
    return passes


@pytest.mark.parametrize("seed", range(3))
def test_lbfgs_pass_evaluates_no_point_twice(monkeypatch, seed):
    # an L-BFGS-B pass hands back E and E' at its point from its own last
    # evaluations: in the pass that the plane or a non-quadratic span solve
    # returns, no point gets a second E or E'. Points may repeat across the
    # passes of one span solve, and inside a pass that stalls at the
    # roundoff floor, which revisits points (seed 2's first span pass)
    y, base, phi = _ls_slice(seed)
    obj = make_norm_power(y, 4.0, 2.0)
    evaluations = []  # one list per pass
    lbfgs = inner_solvers._lbfgs

    def per_pass(*args):
        evaluations.append([])
        return lbfgs(*args)

    monkeypatch.setattr(inner_solvers, "_lbfgs", per_pass)
    counted = dataclasses.replace(
        obj,
        value_fn=lambda x: evaluations[-1].append(("value", x.tobytes()))
        or obj.value_fn(x),
        gradient_fn=lambda x: evaluations[-1].append(("gradient", x.tobytes()))
        or obj.gradient_fn(x),
    )
    plane = minimize_on_slice(counted, base, (base, phi))
    plane_calls = evaluations[-1]
    span = minimize_subspace(counted, np.column_stack((base, phi)))
    for res, calls in ((plane, plane_calls), (span, evaluations[-1])):
        assert len(calls) == len(set(calls)) > 0
        assert ("value", res.point.tobytes()) in calls
        assert ("gradient", res.point.tobytes()) in calls
        assert res.energy == obj.value(res.point)
        assert res.gradient.tobytes() == obj.gradient(res.point).tobytes()


def test_span_solve_starts_at_the_minimizers_projection(monkeypatch):
    # E = ||y - x||_4^2 has its minimizer at y: the first pass starts at y's
    # l2 projection onto the span and, here, meets the contract alone
    passes = _counted_passes(monkeypatch)
    y, base, phi = _ls_slice(0)
    basis = np.column_stack((base, phi))
    res = minimize_subspace(make_norm_power(y, 4.0, 2.0), basis)
    assert len(passes) == 1
    expected, *_ = np.linalg.lstsq(basis, y, rcond=None)
    assert np.allclose(passes[0][0], expected, rtol=1e-12, atol=1e-14)
    assert res.grad_inf <= 1e-8


def test_span_solve_falls_through_when_the_projection_pass_misses(monkeypatch):
    # here the pass from y's projection stops on its relative-decrease test
    # at max_j |<E', phi_j>| ~ 4e-8: the two passes from x0 follow, as
    # without that start, and the result still meets the contract
    passes = _counted_passes(monkeypatch)
    y, base, phi = _ls_slice(2)
    obj = make_norm_power(y, 4.0, 2.0)
    basis = np.column_stack((base, phi))
    res = minimize_subspace(obj, basis)
    assert len(passes) >= 2
    assert passes[0][1].grad_inf > 1e-8
    assert res.grad_inf <= 1e-8
    assert float(np.max(np.abs(basis.T @ obj.gradient(res.point)))) <= 1e-8


def test_slice_rejects_unsupported_shapes():
    obj = make_least_squares(np.ones(2))
    base, d = np.ones(2), np.array([1.0, 0.0])
    with pytest.raises(ValueError):  # a plane must contain base's own ray
        minimize_on_slice(obj, base, (d, d))
    with pytest.raises(ValueError):  # bounded plane
        minimize_on_slice(obj, base, (base, d), 0.0, 1.0)
    with pytest.raises(ValueError):
        minimize_on_slice(obj, base, (d, d, d))
    with pytest.raises(ValueError):  # half-line bounded above only
        minimize_on_slice(obj, base, (d,), -math.inf, 0.0)


# ---------------------------------------------------------------------------
# subspace minimization


def test_subspace_orthonormal_projection():
    y = np.array([3.0, 4.0, 5.0])
    obj = make_least_squares(y)
    basis = np.eye(3)[:, :2]
    res = minimize_subspace(obj, basis)
    assert np.allclose(res.coefficients, [3.0, 4.0], atol=1e-10)
    assert res.grad_inf <= 1e-8


def test_subspace_matches_gram_solve():
    rng = np.random.default_rng(2)
    for _ in range(10):
        y = rng.standard_normal(8)
        basis = rng.standard_normal((8, 3))
        obj = make_least_squares(y)
        res = minimize_subspace(obj, basis)
        expected = np.linalg.solve(basis.T @ basis, basis.T @ y)
        assert np.allclose(res.coefficients, expected, atol=1e-8)


def test_subspace_single_atom_is_line_search():
    y = np.array([2.0, 2.0])
    atom = np.array([1.0, 0.0])
    obj = make_least_squares(y)
    res = minimize_subspace(obj, atom[:, None])
    c_star, v_star = quadratic_line_minimum(y, np.zeros(2), atom)
    assert res.coefficients[0] == pytest.approx(c_star, abs=1e-8)
    assert res.energy == pytest.approx(v_star, abs=1e-10)


def test_subspace_empty_basis():
    obj = make_least_squares(np.array([1.0, 2.0]))
    res = minimize_subspace(obj, np.zeros((2, 0)))
    assert res.coefficients.size == 0
    assert res.energy == obj.value(np.zeros(2))


def test_subspace_without_hook_meets_contract():
    # norm-power with r=4 has no closed-form hook; the iterative path must
    # still reach the projected-gradient exit condition
    rng = np.random.default_rng(3)
    f = rng.standard_normal(6)
    obj = make_norm_power(f, 4.0, 2.0)
    basis = rng.standard_normal((6, 2))
    res = minimize_subspace(obj, basis, tol=1e-8)
    assert res.grad_inf <= 1e-8
    grad = obj.gradient(res.point)
    assert float(np.max(np.abs(basis.T @ grad))) <= 1e-8


@pytest.mark.parametrize("make", _BOTH_PATHS)
def test_subspace_result_carries_the_contract_gradient(make):
    # E' at the point, which the contract check evaluated, comes back with it
    rng = np.random.default_rng(6)
    obj = make(rng.standard_normal(6))
    basis = rng.standard_normal((6, 2))
    for cols in (basis, basis[:, :0]):
        res = minimize_subspace(obj, cols)
        assert res.energy == obj.value(res.point)
        assert np.array_equal(res.gradient, obj.gradient(res.point))
    assert res.grad_inf == 0.0  # the empty basis
    res = minimize_subspace(obj, basis)
    assert np.max(np.abs(basis.T @ res.gradient)) <= res.grad_inf + 1e-14 <= 1e-8


def test_subspace_unreachable_tolerance_raises():
    # a correlated basis leaves a machine-noise projected gradient after the
    # exact solve, which can never reach an absurd 1e-30 tolerance
    rng = np.random.default_rng(4)
    y = rng.standard_normal(3)
    obj = make_least_squares(y)
    basis = rng.standard_normal((3, 2))
    with pytest.raises(SubspaceToleranceError) as err:
        minimize_subspace(obj, basis, tol=1e-30)
    assert err.value.achieved > 1e-30


# ---------------------------------------------------------------------------
# span factor (thin QR of the Chebyshev basis)


def test_span_factor_is_orthogonal_at_cs_wcga_size():
    # 400 unit columns in R^512, as in the cs_wcga workload's basis at m = 400
    rng = np.random.default_rng(5)
    cols = rng.standard_normal((512, 400))
    cols /= np.linalg.norm(cols, axis=0)
    factor = SpanFactor(512)
    for col in cols.T:
        factor.append(col)
    assert factor.usable and factor.size == 400
    q, r = factor.q, factor.r
    assert np.array_equal(factor.basis, cols)
    assert np.max(np.abs(q.T @ q - np.eye(400))) <= 1e-12
    assert np.array_equal(r, np.triu(r))
    assert np.linalg.norm(q @ r - cols) <= 1e-12 * np.linalg.norm(cols)
    y = rng.standard_normal(512)
    expected, *_ = np.linalg.lstsq(cols, y, rcond=None)
    assert np.max(np.abs(factor.solve(y) - expected)) <= 1e-10


def test_span_factor_grows_its_buffers_by_doubling():
    factor = SpanFactor(1000)
    for i in range(9):
        factor.append(np.eye(1000)[i])
    assert factor.size == 9
    assert factor._bt.shape == factor._qt.shape == (16, 1000)
    assert factor._r.shape == (16, 16)


@pytest.mark.parametrize(
    "columns",
    [
        # two equal columns, as two dictionary indices holding one vector
        np.array([[1.0, 0.0, 1.0], [2.0, 1.0, 2.0], [0.0, 3.0, 0.0], [1.0, 1.0, 1.0]]),
        # more columns than the dimension
        np.random.default_rng(6).standard_normal((3, 4)),
    ],
    ids=["equal_columns", "more_than_dim"],
)
def test_dependent_column_turns_the_factor_off(monkeypatch, columns):
    factor = SpanFactor.of(columns[:, :-1])
    assert factor.usable
    factor.append(columns[:, -1])
    assert not factor.usable
    assert np.array_equal(factor.basis, columns)
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(
        np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k)
    )
    y = np.arange(1.0, columns.shape[0] + 1.0)
    obj = make_least_squares(y)
    res = minimize_subspace(obj, factor)
    assert calls == [1]
    assert res.grad_inf <= 1e-8
    assert np.max(np.abs(columns.T @ obj.gradient(res.point))) <= 1e-8
    expected, *_ = lstsq(columns, y, rcond=None)
    assert np.array_equal(res.coefficients, expected)

"""Exact minimizers of E on the small slices the greedy drivers search.

Every relaxed update rule moves to the minimizer of E over a slice
base + sum_i c_i d_i with one or two directions; `minimize_on_slice` is the
single entry point. When the objective declares itself quadratic the slice
problem is solved in closed form from one gradient per direction, and the
result must pass the same first-order test the searches stop on, or the
step falls back to the searches. Other objectives go straight to the
searches: derivative bisection on a ray, an interval or the whole line, and
alternating line searches on the free-relaxation plane. The Chebyshev rule's
span solve (`minimize_subspace`) has its own closed-form hook.

All routines assume convexity along the searched directions and verify it
opportunistically: bracket/derivative inconsistencies raise instead of
returning a silently wrong step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import minimize as _scipy_minimize

from .objectives import Objective

DERIVATIVE_TOL = 1e-10
SUBSPACE_TOL = 1e-8
BRACKET_CAP = 2.0**60
MAX_BISECT = 200
FREE_RELAX_SWEEPS = 100
# An eigenvalue of a slice's curvature matrix below -INDEFINITE_TOL times its
# largest magnitude (and below gradient roundoff) is clearly negative.
INDEFINITE_TOL = 1e-8
_EPS = float(np.finfo(float).eps)


class LineSearchError(RuntimeError):
    pass


class UnboundedBelowError(LineSearchError):
    """Bracketing exceeded the doubling cap without a derivative sign change."""


class NonConvexityError(LineSearchError):
    """Observed values/derivatives inconsistent with a convex profile."""


class SubspaceToleranceError(RuntimeError):
    def __init__(self, achieved: float, tol: float):
        super().__init__(
            f"subspace solve stalled at max_j |<E', phi_j>| = {achieved:.3e} > {tol:.3e}"
        )
        self.achieved = achieved
        self.tol = tol


@dataclass
class LineSearchResult:
    argmin: float
    value: float
    derivative: float
    evaluations: int


def _fd_derivative(phi: Callable[[float], float]) -> Callable[[float], float]:
    def dphi(c: float) -> float:
        h = 1e-7 * (1.0 + abs(c))
        return (phi(c + h) - phi(c - h)) / (2.0 * h)

    return dphi


def line_search_ray(
    phi: Callable[[float], float],
    lower: float = 0.0,
    upper: float = math.inf,
    tol: float = DERIVATIVE_TOL,
    dphi: Optional[Callable[[float], float]] = None,
) -> LineSearchResult:
    """Minimize a convex scalar function over [lower, upper].

    Derivative bisection: brackets a sign change by doubling from step 1 (cap
    2^60), then bisects until either |phi'| <= tol * (1 + |phi(lower)|) or the
    bracket width collapses. For quadratics the returned value is within
    O(tol^2) of the true minimum.
    """
    nfev = 0

    def f(c):
        nonlocal nfev
        nfev += 1
        return phi(c)

    d = dphi if dphi is not None else _fd_derivative(f)
    ref = 1.0 + abs(f(lower))
    dtol = tol * ref

    d_lo = d(lower)
    if d_lo >= -dtol:
        # convex with nonnegative inward slope: boundary minimum
        return LineSearchResult(lower, f(lower), d_lo, nfev)

    if math.isfinite(upper):
        d_hi = d(upper)
        if d_hi <= dtol:
            return LineSearchResult(upper, f(upper), d_hi, nfev)
        a, b = lower, upper
    else:
        step = 1.0
        a = lower
        v_prev = f(lower)
        while True:
            b = lower + step
            d_b = d(b)
            v_b = f(b)
            if d_b > 0.0:
                break
            if v_b > v_prev + dtol * (1.0 + abs(v_prev)):
                raise NonConvexityError(
                    f"value rose ({v_prev} -> {v_b}) while derivative stayed <= 0"
                )
            a, v_prev = b, v_b
            step *= 2.0
            if step > BRACKET_CAP:
                raise UnboundedBelowError(
                    f"no derivative sign change within step {BRACKET_CAP:g}"
                )

    mid, d_mid = a, d_lo
    for _ in range(MAX_BISECT):
        if b - a <= tol * (1.0 + abs(a) + abs(b)):
            break
        mid = 0.5 * (a + b)
        d_mid = d(mid)
        if abs(d_mid) <= dtol:
            return LineSearchResult(mid, f(mid), d_mid, nfev)
        if d_mid < 0.0:
            a = mid
        else:
            b = mid
    c = 0.5 * (a + b)
    return LineSearchResult(c, f(c), d(c), nfev)


def line_search_real(
    phi: Callable[[float], float],
    tol: float = DERIVATIVE_TOL,
    dphi: Optional[Callable[[float], float]] = None,
) -> LineSearchResult:
    """Minimize a convex scalar function over all of R.

    Picks the descent side from the sign of phi'(0) and delegates to the ray
    search (mirrored for the negative side).
    """
    d = dphi if dphi is not None else _fd_derivative(phi)
    if d(0.0) <= 0.0:
        return line_search_ray(phi, 0.0, math.inf, tol, dphi)
    mirrored = line_search_ray(
        lambda c: phi(-c),
        0.0,
        math.inf,
        tol,
        (lambda c: -d(-c)) if dphi is not None else None,
    )
    return LineSearchResult(
        -mirrored.argmin, mirrored.value, mirrored.derivative, mirrored.evaluations
    )


def minimize_unit_interval(
    phi: Callable[[float], float],
    tol: float = DERIVATIVE_TOL,
    dphi: Optional[Callable[[float], float]] = None,
) -> LineSearchResult:
    """Minimize a convex scalar function over [0, 1]."""
    return line_search_ray(phi, 0.0, 1.0, tol, dphi)


@dataclass
class SliceResult:
    coefficients: np.ndarray  # c: the minimizer is base + sum_i c_i d_i
    energy: float  # E there (the quadratic model's value on the exact path)


def _slice_model(objective, base, directions):
    """E(base), b and M of E(base + D c) = E(base) + b.c + c.M c / 2 for a
    quadratic E, and the roundoff bound on the entries of M.

    b = D^T E'(base) and M_ij = <E'(base + d_j) - E'(base), d_i>,
    symmetrized: one gradient per direction. The gradients die with this
    frame, so no dim-sized temporary outlives the model.
    """
    g = objective.gradient(base)
    slope = np.array([float(np.dot(g, d)) for d in directions])
    diffs = [objective.gradient(base + d) - g for d in directions]
    curvature = np.array([[float(np.dot(h, d)) for h in diffs] for d in directions])
    grad_scale = max(float(np.linalg.norm(h)) for h in diffs)
    grad_scale += 2.0 * float(np.linalg.norm(g))
    roundoff = (
        64.0 * _EPS * grad_scale * max(float(np.linalg.norm(d)) for d in directions)
    )
    return objective.value(base), slope, 0.5 * (curvature + curvature.T), roundoff


def _quadratic_step(objective, base, directions, lower, upper, tol):
    """Closed-form minimizer of a quadratic E on base + span(directions).

    M c = -b (see _slice_model) takes its min-norm solution, so a zero
    direction or two parallel ones get coefficient mass only where it lowers
    E, and a one-direction step is clipped to [lower, upper].

    Returns (c, E(base), b, M), or None when the directional derivatives at
    the result fail the searches' stopping test, tol * (1 + |E(base)|), so
    that the caller falls back to a search. Raises NonConvexityError when M
    is clearly indefinite: an eigenvalue below -INDEFINITE_TOL times the
    largest magnitude and below the gradient roundoff.
    """
    e0, slope, curvature, roundoff = _slice_model(objective, base, directions)
    k = len(directions)
    eigvals, eigvecs = np.linalg.eigh(curvature)
    top = max(-eigvals[0], eigvals[-1])
    if eigvals[0] < -max(INDEFINITE_TOL * top, roundoff):
        raise NonConvexityError(
            f"slice curvature has eigenvalue {eigvals[0]:.3e} "
            f"(largest magnitude {top:.3e})"
        )
    keep = eigvals > k * _EPS * top
    basis = eigvecs[:, keep]
    c = basis @ ((basis.T @ -slope) / eigvals[keep]) + 0.0  # + 0.0: no -0.0
    if k == 1:
        c[0] = min(max(c[0], lower), upper)

    point = base + c[0] * directions[0]
    for c_i, d_i in zip(c[1:], directions[1:]):
        point = point + c_i * d_i
    grad = objective.gradient(point)
    dtol = tol * (1.0 + abs(e0))
    for c_i, d_i in zip(c, directions):
        s = float(np.dot(grad, d_i))
        if c_i == lower:
            ok = s >= -dtol
        elif c_i == upper:
            ok = s <= dtol
        else:
            ok = abs(s) <= dtol
        if not ok:
            return None
    return c, e0, slope, curvature


def _model_value(e0: float, slope, curvature, c) -> float:
    return e0 + float(slope @ c) + 0.5 * float(c @ curvature @ c)


def _line_minimum(e0: float, slope: float, curvature: float) -> float:
    """min over t of e0 + slope * t + curvature * t**2 / 2 (min-norm t when
    the curvature vanishes)."""
    if curvature <= 0.0:
        return e0
    return e0 - 0.5 * slope * slope / curvature


def minimize_on_slice(
    objective: Objective,
    base: np.ndarray,
    directions,
    lower: float = -math.inf,
    upper: float = math.inf,
    tol: float = DERIVATIVE_TOL,
    max_sweeps: int = FREE_RELAX_SWEEPS,
) -> SliceResult:
    """Minimize E(base + sum_i c_i d_i) over the slice an update rule names.

    One direction: c in [lower, upper], with lower finite, or the whole line
    (lower = -inf, upper = inf). Two directions: the free-relaxation plane,
    directions = (base, atom) with no bounds; the coefficients (-w, lam)
    give the point (1 - w) base + lam atom.

    A quadratic objective (`objective.quadratic`) is solved in closed form
    from one gradient per direction; a result that fails the first-order
    test falls back to the search below. Other objectives go straight to
    derivative bisection (`line_search_ray` on [lower, upper],
    `line_search_real` on the line) or, on the plane, to
    `minimize_free_relaxation`.
    """
    directions = tuple(directions)
    unbounded = lower == -math.inf and upper == math.inf
    if len(directions) == 2:
        if not unbounded or not np.array_equal(directions[0], base):
            raise ValueError(
                "a two-direction slice is the free-relaxation plane: "
                "directions (base, atom) and no bounds"
            )
        res = minimize_free_relaxation(
            objective, base, directions[1], tol, max_sweeps
        )
        return SliceResult(np.array([-res.w, res.lam]), res.energy)
    if len(directions) != 1:
        raise ValueError(f"slices have one or two directions, got {len(directions)}")
    if not (unbounded or (math.isfinite(lower) and lower <= upper)):
        raise ValueError(f"unsupported slice bounds [{lower}, {upper}]")

    if objective.quadratic:
        step = _quadratic_step(objective, base, directions, lower, upper, tol)
        if step is not None:
            c, *model = step
            return SliceResult(c, _model_value(*model, c))

    (d,) = directions

    def phi(c):
        return objective.value(base + c * d)

    def dphi(c):
        return float(np.dot(objective.gradient(base + c * d), d))

    if unbounded:
        res = line_search_real(phi, tol, dphi)
    else:
        res = line_search_ray(phi, lower, upper, tol, dphi)
    return SliceResult(np.array([res.argmin]), res.value)


@dataclass
class FreeRelaxationResult:
    lam: float
    w: float
    energy: float
    sweeps: int
    best_step_energy: float  # min over lambda of E(base + lambda * atom), w = 0
    restart_energy: float  # min over lambda of E(lambda * atom), w = 1


def minimize_free_relaxation(
    objective: Objective,
    base: np.ndarray,
    atom: np.ndarray,
    tol: float = DERIVATIVE_TOL,
    max_sweeps: int = FREE_RELAX_SWEEPS,
) -> FreeRelaxationResult:
    """Minimize E((1 - w) * base + lam * atom) jointly over (lam, w).

    Alternating exact line searches, both coordinates unconstrained (signs are
    absorbed by lam and 1 - w). Starts from the better of the pure single-atom
    step (w = 0) and the restart (w = 1), so the returned energy never exceeds
    either; each sweep must be non-increasing.

    A quadratic objective is solved as the 2x2 system of the plane
    base + span(base, atom) instead, with no sweeps; the single-atom and
    restart energies are read from the same quadratic model. A zero base or
    an atom parallel to it gets the min-norm (w, lam), so w = 0 at base = 0.
    """
    if objective.quadratic:
        step = _quadratic_step(
            objective, base, (base, atom), -math.inf, math.inf, tol
        )
        if step is not None:
            c, e0, b, m = step
            # the single-atom step sits at w = 0, the restart at w = 1
            best_step = _line_minimum(e0, b[1], m[1, 1])
            restart = _line_minimum(
                e0 - b[0] + 0.5 * m[0, 0], b[1] - m[0, 1], m[1, 1]
            )
            return FreeRelaxationResult(
                float(c[1]),
                0.0 - float(c[0]),  # 0.0 - c: no -0.0 when c = 0
                _model_value(e0, b, m, c),
                0,
                best_step,
                restart,
            )

    def energy_at(alpha: float, lam: float) -> float:
        return objective.value(alpha * base + lam * atom)

    def lam_search(alpha: float) -> LineSearchResult:
        shifted = alpha * base

        def phi(c):
            return objective.value(shifted + c * atom)

        def dphi(c):
            return float(np.dot(objective.gradient(shifted + c * atom), atom))

        return line_search_real(phi, tol, dphi)

    r_a = lam_search(1.0)  # w = 0
    base_norm = float(np.linalg.norm(base))
    if base_norm == 0.0:
        return FreeRelaxationResult(
            r_a.argmin, 0.0, r_a.value, 0, r_a.value, r_a.value
        )
    r_r = lam_search(0.0)  # w = 1

    if r_a.value <= r_r.value:
        alpha, lam, energy = 1.0, r_a.argmin, r_a.value
    else:
        alpha, lam, energy = 0.0, r_r.argmin, r_r.value

    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        before = energy

        def phi_a(a):
            return energy_at(a, lam)

        def dphi_a(a):
            return float(
                np.dot(objective.gradient(a * base + lam * atom), base)
            )

        res_a = line_search_real(phi_a, tol, dphi_a)
        alpha = res_a.argmin

        res_l = lam_search(alpha)
        lam, energy = res_l.argmin, res_l.value

        if energy > before + 1e-10 * (1.0 + abs(before)):
            raise NonConvexityError(
                f"free-relaxation sweep increased energy {before} -> {energy}"
            )
        if before - energy <= tol * (1.0 + abs(before)):
            break

    return FreeRelaxationResult(
        lam, 1.0 - alpha, energy, sweeps, r_a.value, r_r.value
    )


@dataclass
class SubspaceResult:
    coefficients: np.ndarray
    point: np.ndarray
    energy: float
    grad_inf: float
    iterations: int


def minimize_subspace(
    objective: Objective,
    basis: np.ndarray,
    tol: float = SUBSPACE_TOL,
    x0: Optional[np.ndarray] = None,
) -> SubspaceResult:
    """Minimize E over span of the basis columns.

    Exit condition (the contract): max_j |<E'(x), phi_j>| <= tol at the
    returned point. Method: the objective's closed-form hook when available,
    else L-BFGS with analytic gradient followed by cyclic exact coordinate
    line searches; raises SubspaceToleranceError if the residual stalls.
    """
    basis = np.asarray(basis, dtype=float)
    k, m = basis.shape
    if m == 0:
        point = np.zeros(k)
        return SubspaceResult(np.zeros(0), point, objective.value(point), 0.0, 0)

    nit = 0
    coef = None
    if objective.subspace_hook is not None:
        coef = np.asarray(objective.subspace_hook(basis), dtype=float)
        point = basis @ coef
        ginf = float(np.max(np.abs(basis.T @ objective.gradient(point))))
        if ginf <= tol:
            return SubspaceResult(coef, point, objective.value(point), ginf, 0)
        # hook missed the contract (degenerate basis etc.): fall through

    def fun(c):
        return objective.value(basis @ c)

    def jac(c):
        return basis.T @ objective.gradient(basis @ c)

    start = coef if coef is not None else (
        np.asarray(x0, dtype=float) if x0 is not None else np.zeros(m)
    )
    res = _scipy_minimize(
        fun,
        start,
        jac=jac,
        method="L-BFGS-B",
        options={"maxiter": 4000, "maxfun": 8000, "gtol": tol * 1e-2, "ftol": 1e-18},
    )
    coef = np.asarray(res.x, dtype=float)
    nit += int(res.nit)
    point = basis @ coef
    ginf = float(np.max(np.abs(basis.T @ objective.gradient(point))))

    if ginf > tol:
        # exact coordinate-descent polish
        for _ in range(60):
            for j in range(m):
                col = basis[:, j]

                def phi(t, col=col):
                    return objective.value(point + t * col)

                def dphi(t, col=col):
                    return float(np.dot(objective.gradient(point + t * col), col))

                step = line_search_real(phi, DERIVATIVE_TOL, dphi)
                coef[j] += step.argmin
                point = point + step.argmin * col
                nit += 1
            ginf = float(np.max(np.abs(basis.T @ objective.gradient(point))))
            if ginf <= 0.5 * tol:
                break
        if ginf > tol:
            res = _scipy_minimize(
                fun,
                coef,
                jac=jac,
                method="L-BFGS-B",
                options={"maxiter": 8000, "gtol": tol * 1e-3, "ftol": 0.0},
            )
            coef = np.asarray(res.x, dtype=float)
            nit += int(res.nit)
            point = basis @ coef
            ginf = float(np.max(np.abs(basis.T @ objective.gradient(point))))
        if ginf > tol:
            raise SubspaceToleranceError(ginf, tol)

    return SubspaceResult(coef, point, objective.value(point), ginf, nit)

"""Exact minimizers of E on the small slices the greedy drivers search.

Every relaxed update rule moves to the minimizer of E over a slice
base + sum_i c_i d_i with one or two directions, and `minimize_on_slice` is
its one solver. When E's minimizer over any affine set is the l2 projection
of `Objective.projection_target`, the slice step is that projection, from
the slice's 1x1 or 2x2 Gram system in closed form with lstsq's min-norm
cutoff and one E' and one E at its point; it must pass the searches'
first-order test, or the step falls back to the search. Otherwise one
direction goes to `line_search` (derivative bisection on an interval, a ray
or the whole line), and the plane, E over span{base, atom}, to one L-BFGS-B
pass (Byrd, Lu, Nocedal & Zhu 1995) on those two columns.

The Chebyshev rule's span solve (`minimize_subspace`) is separate. Its basis
lives in a `SpanFactor`, a thin QR grown by one CGS2 column per atom. With a
projection target the coefficients come from R c = Q^T target, then from a
full `lstsq` if those miss the span contract. Otherwise it runs L-BFGS-B
through the plane's helper (`_lbfgs`): first from the l2 projection of
`Objective.minimizer`, E's global minimizer, when one is known (at an exact
fit that projection is the fit), then, if that misses the contract or
there is none, from the previous solution, with one stricter pass when
that misses it. Every solve returns a `SliceResult`: its point and E
there, and E' but after a line search: the projection step's and the span
contract's checks read it, and an L-BFGS-B pass that ends on its last trial
point hands back its own evaluations there.

All routines assume convexity along the searched directions and verify it
opportunistically: bracket/derivative inconsistencies raise instead of
returning a silently wrong step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import minimize as _scipy_minimize

from .objectives import Objective

DERIVATIVE_TOL = 1e-10
SUBSPACE_TOL = 1e-8
BRACKET_CAP = 2.0**60
MAX_BISECT = 200
# The plane's one L-BFGS-B pass: the span's first pass at its default
# tolerance, with no contract to meet afterwards.
PLANE_OPTIONS = {"maxiter": 4000, "maxfun": 8000, "gtol": DERIVATIVE_TOL, "ftol": 1e-18}
# A column whose part orthogonal to the factored span, after CGS2, is at most
# DEPENDENT_TOL times its norm is numerically dependent on that span.
DEPENDENT_TOL = 1e-10
# lstsq's default cutoff for a 2x2 system: eigenvalues of the Gram matrix at
# most this times its largest are dropped.
GRAM_CUTOFF = 2.0 * np.finfo(float).eps


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


def _whole_line(lower: float, upper: float) -> bool:
    """True for (-inf, inf), False for a finite lower <= upper; raises on
    any other bounds."""
    if lower == -math.inf and upper == math.inf:
        return True
    if math.isfinite(lower) and lower <= upper:
        return False
    raise ValueError(f"unsupported bounds [{lower}, {upper}]")


def line_search(
    phi: Callable[[float], float],
    dphi: Callable[[float], float],
    lower: float = -math.inf,
    upper: float = math.inf,
    tol: float = DERIVATIVE_TOL,
) -> LineSearchResult:
    """Minimize a convex scalar function with derivative dphi over
    [lower, upper]: an interval, a ray (upper = inf) or, with lower = -inf
    and upper = inf, the whole line.

    On the whole line the sign of phi'(0) picks the descent side, and the
    negative side is searched as the mirrored ray c -> phi(-c). Derivative
    bisection: brackets a sign change by doubling from step 1 (cap 2^60),
    then bisects until either |phi'| <= tol * (1 + |phi(lower)|) or the
    bracket width collapses. For quadratics the returned value is within
    O(tol^2) of the true minimum.
    """
    whole_line = _whole_line(lower, upper)
    if whole_line:
        lower = 0.0
    d_lo = dphi(lower)
    if whole_line and d_lo > 0.0:
        mirrored = _search(
            lambda c: phi(-c), lambda c: -dphi(-c), 0.0, math.inf, tol, -d_lo
        )
        return LineSearchResult(-mirrored.argmin, mirrored.value, -mirrored.derivative)
    return _search(phi, dphi, lower, upper, tol, d_lo)


def _search(phi, dphi, lower, upper, tol, d_lo) -> LineSearchResult:
    """`line_search` on [lower, upper] with lower finite, given
    d_lo = phi'(lower)."""
    v_lo = phi(lower)
    dtol = tol * (1.0 + abs(v_lo))
    if d_lo >= -dtol:
        # convex with nonnegative inward slope: boundary minimum
        return LineSearchResult(lower, v_lo, d_lo)

    if math.isfinite(upper):
        d_hi = dphi(upper)
        if d_hi <= dtol:
            return LineSearchResult(upper, phi(upper), d_hi)
        a, b = lower, upper
    else:
        step = 1.0
        a, v_prev = lower, v_lo
        while True:
            b = lower + step
            d_b = dphi(b)
            v_b = phi(b)
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
        d_mid = dphi(mid)
        if abs(d_mid) <= dtol:
            return LineSearchResult(mid, phi(mid), d_mid)
        if d_mid < 0.0:
            a = mid
        else:
            b = mid
    c = 0.5 * (a + b)
    return LineSearchResult(c, phi(c), dphi(c))


def _along(objective: Objective, point: np.ndarray, d: np.ndarray):
    """c -> E(point + c d) and its derivative, for `line_search`."""

    def phi(c):
        return objective.value(point + c * d)

    def dphi(c):
        return float(np.dot(objective.gradient(point + c * d), d))

    return phi, dphi


@dataclass
class SliceResult:
    """The result of every inner solve: a slice's or a span's."""

    coefficients: np.ndarray  # slice: base + sum_i c_i d_i; span: B c
    point: np.ndarray  # that minimizer, bitwise the point E was evaluated at
    energy: float  # E(point)
    gradient: Optional[np.ndarray] = None  # E'(point); None after a line search
    grad_inf: float = math.nan  # span only: max_j |<E'(point), phi_j>|


def _min_norm_solve(directions, residual) -> np.ndarray:
    """`lstsq(D^T D, D^T residual, rcond=None)[0]` in closed form for D's one
    or two columns: min-norm, Gram eigenvalues <= GRAM_CUTOFF * the largest
    dropped. One column keeps lstsq's bits: dgelsd scales by 1 / g (dlascl),
    so not r / g. Two: one Jacobi rotation (Golub & Van Loan 8.5), any rank."""
    d0, d1 = directions[0], directions[-1]
    a, r0 = float(np.dot(d0, d0)), float(np.dot(d0, residual))
    if len(directions) == 1:
        return np.array([r0 * (1.0 / a) if a > 0.0 else 0.0]) + 0.0  # no -0.0
    b, c, r1 = float(np.dot(d0, d1)), float(np.dot(d1, d1)), float(np.dot(d1, residual))
    theta = (c - a) / (2.0 * b) if b != 0.0 else math.inf  # b = 0: t = 0
    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
    cs = 1.0 / math.sqrt(1.0 + t * t)
    sn = t * cs
    lam = (a - t * b, c + t * b)
    cutoff = GRAM_CUTOFF * max(abs(lam[0]), abs(lam[1]))
    z = (cs * r0 - sn * r1, sn * r0 + cs * r1)
    y0, y1 = (z_i / l if abs(l) > cutoff else 0.0 for z_i, l in zip(z, lam))
    return np.array([cs * y0 + sn * y1, cs * y1 - sn * y0]) + 0.0


def _projection_step(objective, base, directions, lower, upper):
    """The slice's point nearest `objective.projection_target` t.

    c is the min-norm solution of the Gram system D^T D c = D^T (t - base)
    (`_min_norm_solve`), so a zero direction or two parallel ones get
    coefficient mass only where it lowers E; a one-direction step is clipped
    to [lower, upper]. Returns None when the directional derivatives at the
    point fail the searches' stopping test, scaled by E at the point,
    DERIVATIVE_TOL * (1 + |E|), so that the caller falls back to a search.
    The slice holds base (c = 0), so at its minimizer that test is no looser
    than the searches' own, which is scaled by E(base).
    """
    c = _min_norm_solve(directions, objective.projection_target - base)
    if len(directions) == 1:
        c[0] = min(max(c[0], lower), upper)

    point = base
    for c_i, d_i in zip(c, directions):
        point = point + c_i * d_i
    grad = objective.gradient(point)
    energy = objective.value(point)
    dtol = DERIVATIVE_TOL * (1.0 + abs(energy))
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
    return SliceResult(c, point, energy, gradient=grad)


def _lbfgs(objective, basis, coef, options) -> SliceResult:
    """L-BFGS-B on c -> E(basis @ c) with the analytic gradient, from coef.

    The result carries the point, E and E' there. The pass keeps basis @ c
    for its last c, and E and E' there once evaluated: E and E' at one c
    share one product, and a pass that ends on its last trial point (most
    do) hands back its own evaluations, so only what it lacks at the
    returned c is evaluated after it."""
    last = [None, None, None, None]  # bytes of c, basis @ c, E and E' there

    def at(c):
        key = c.tobytes()
        if key != last[0]:
            last[:] = key, basis @ c, None, None
        return last

    def fun(c):
        rec = at(c)
        if rec[2] is None:
            rec[2] = objective.value(rec[1])
        return rec[2]

    def grad(c):
        rec = at(c)
        if rec[3] is None:
            rec[3] = objective.gradient(rec[1])
        return rec[3]

    res = _scipy_minimize(
        fun, coef, jac=lambda c: basis.T @ grad(c), method="L-BFGS-B", options=options
    )
    c = np.asarray(res.x, dtype=float)
    return SliceResult(c, at(c)[1], fun(c), grad(c))


def _free_relaxation(objective, base, atom) -> SliceResult:
    """Minimize E(alpha * base + lam * atom) over the plane, from
    (alpha, lam) = (1, 0), that is from base, by one L-BFGS-B pass
    (PLANE_OPTIONS); the coefficients are (alpha - 1, lam), and the result
    carries E' at its point for the next selection. L-BFGS-B only accepts
    points that lower E, so E(point) <= E(base); the run's monotone check
    guards it all the same."""
    basis = np.column_stack((base, atom))
    res = _lbfgs(objective, basis, np.array([1.0, 0.0]), PLANE_OPTIONS)
    res.coefficients[0] -= 1.0
    return res


def minimize_on_slice(
    objective: Objective,
    base: np.ndarray,
    directions,
    lower: float = -math.inf,
    upper: float = math.inf,
) -> SliceResult:
    """Minimize E(base + sum_i c_i d_i) over the slice an update rule names.

    One direction: c in [lower, upper], with lower finite, or the whole line
    (lower = -inf, upper = inf). Two directions: the free-relaxation plane,
    directions = (base, atom) with no bounds; the coefficients (-w, lam)
    give the point (1 - w) base + lam atom.

    When `objective.projection_target` is set, the minimizer is that
    target's l2 projection onto the slice (`_projection_step`), at the cost
    of one E' and one E at its point, which its first-order test reads and
    the result carries. A point that fails that test falls back to the
    search below. Other objectives go straight to `line_search` or, on the
    plane, to one L-BFGS-B pass (`_free_relaxation`). Every result carries
    its point and E there, and E' but after a line search.
    """
    directions = tuple(directions)
    whole_line = _whole_line(lower, upper)
    if len(directions) == 2:
        d0 = directions[0]
        if not whole_line or not (d0 is base or np.array_equal(d0, base)):
            raise ValueError(
                "a two-direction slice is the free-relaxation plane: "
                "directions (base, atom) and no bounds"
            )
    elif len(directions) != 1:
        raise ValueError(f"slices have one or two directions, got {len(directions)}")

    if objective.projection_target is not None:
        step = _projection_step(objective, base, directions, lower, upper)
        if step is not None:
            return step
    if len(directions) == 2:
        return _free_relaxation(objective, base, directions[1])
    (d,) = directions
    res = line_search(*_along(objective, base, d), lower, upper)
    return SliceResult(np.array([res.argmin]), base + res.argmin * d, res.value)


class SpanFactor:
    """The Chebyshev basis B = [phi_1 ... phi_k] and its thin QR, B = Q R.

    `append` stores the column in B and extends Q and R by classical
    Gram-Schmidt with one reorthogonalization pass (CGS2; Giraud et al.
    2005), which keeps Q orthogonal to working precision in O(dim k). A
    column that is numerically dependent on the span (DEPENDENT_TOL) turns
    the factor off for good: `usable` is then False and only B grows. The
    buffers double when full, so they hold O(dim k), not O(dim max_m).
    """

    def __init__(self, dim: int):
        self._bt = np.empty((0, dim))  # row i is column i of B
        self._qt = np.empty((0, dim))  # row i is column i of Q
        self._r = np.empty((0, 0))
        self.size = 0
        self.usable = True

    @classmethod
    def of(cls, columns: np.ndarray) -> "SpanFactor":
        """The factor of a (dim, k) array's columns, appended in order."""
        columns = np.asarray(columns, dtype=float)
        factor = cls(columns.shape[0])
        for vec in columns.T:
            factor.append(vec)
        return factor

    @property
    def basis(self) -> np.ndarray:
        """B, a (dim, k) view of the stored columns."""
        return self._bt[: self.size].T

    @property
    def q(self) -> np.ndarray:
        """Q, (dim, k), orthonormal columns; meaningful while `usable`."""
        return self._qt[: self.size].T

    @property
    def r(self) -> np.ndarray:
        """R, (k, k), upper triangular; meaningful while `usable`."""
        return self._r[: self.size, : self.size]

    def append(self, vec: np.ndarray) -> None:
        k = self.size
        if k == len(self._bt):
            cap = max(8, 2 * k)
            self._bt = _grown(self._bt, (cap, self._bt.shape[1]))
            self._qt = _grown(self._qt, (cap, self._qt.shape[1]))
            self._r = _grown(self._r, (cap, cap))
        self._bt[k] = vec
        self.size = k + 1
        if not self.usable:
            return
        q = self._qt[:k]
        h = q @ vec
        w = vec - h @ q
        h2 = q @ w
        w -= h2 @ q
        rho = float(np.linalg.norm(w))
        if rho <= DEPENDENT_TOL * float(np.linalg.norm(vec)):
            self.usable = False
            return
        self._qt[k] = w / rho
        self._r[:k, k] = h + h2
        self._r[k, k] = rho

    def solve(self, target: np.ndarray) -> np.ndarray:
        """argmin_c ||target - B c||_2 from R c = Q^T target; needs `usable`."""
        return solve_triangular(self.r, self.q.T @ target, check_finite=False)


def _grown(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    out = np.zeros(shape)
    out[: buffer.shape[0], : buffer.shape[1]] = buffer
    return out


def _projections(span: SpanFactor, target: np.ndarray):
    """argmin_c ||target - B c||_2, computed lazily: from the factor while it
    is usable, then by a full `lstsq` on B."""
    if span.usable:
        yield span.solve(target)
    yield np.linalg.lstsq(span.basis, target, rcond=None)[0]


def minimize_subspace(
    objective: Objective,
    basis,
    tol: float = SUBSPACE_TOL,
    x0: Optional[np.ndarray] = None,
) -> SliceResult:
    """Minimize E over the span of the basis columns: a `SpanFactor`, or a
    (dim, k) array, which is factored here.

    Exit condition (the contract): max_j |<E'(x), phi_j>| <= tol at the
    returned point, checked from B^T E'(x) for every candidate. When E's span
    minimizer is the l2 projection of `objective.projection_target`, the
    candidates are the factor's R c = Q^T target (while the factor is
    usable), then a full `lstsq` on B. Otherwise, when `objective.minimizer`
    is set, the first candidate is one L-BFGS-B pass from that point's l2
    projection onto the span (the same factor solve, or `lstsq`): once the
    span holds E's minimizer, the pass starts there. When those miss, or
    there are none, L-BFGS-B with the analytic gradient from the last
    `projection_target` candidate, x0 or zero and, if that misses the contract, a
    stricter L-BFGS-B pass from its result; raises SubspaceToleranceError if
    both miss it.
    """
    span = basis if isinstance(basis, SpanFactor) else SpanFactor.of(basis)
    basis = span.basis
    k, m = basis.shape
    if m == 0:
        point = np.zeros(k)
        return SliceResult(
            np.zeros(0), point, objective.value(point), objective.gradient(point), 0.0
        )

    def grad_inf(grad):
        return float(np.max(np.abs(basis.T @ grad)))

    def lbfgs(coef, options):
        res = _lbfgs(objective, basis, coef, options)
        res.grad_inf = grad_inf(res.gradient)
        return res

    passes = (
        {"maxiter": 4000, "maxfun": 8000, "gtol": tol * 1e-2, "ftol": 1e-18},
        {"maxiter": 8000, "gtol": tol * 1e-3, "ftol": 0.0},
    )
    coef = None
    if objective.projection_target is not None:
        for coef in _projections(span, objective.projection_target):
            point = basis @ coef
            grad = objective.gradient(point)
            ginf = grad_inf(grad)
            if ginf <= tol:
                return SliceResult(coef, point, objective.value(point), grad, ginf)
        # both missed the contract (degenerate basis etc.): fall through
    elif objective.minimizer is not None:
        res = lbfgs(next(_projections(span, objective.minimizer)), passes[0])
        if res.grad_inf <= tol:
            return res
        # missed the contract: the passes from x0 below

    if coef is None:
        coef = np.asarray(x0, dtype=float) if x0 is not None else np.zeros(m)
    for options in passes:
        res = lbfgs(coef, options)
        if res.grad_inf <= tol:
            return res
        coef = res.coefficients
    raise SubspaceToleranceError(res.grad_inf, tol)

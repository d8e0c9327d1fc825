"""Exact minimizers of E on the small slices the greedy drivers search.

Every relaxed update rule moves to the minimizer of E over a slice
base + sum_i c_i d_i with one or two directions, and `minimize_on_slice` is
its one solver. When E's minimizer over any affine set is the l2 projection
of `Objective.projection_target`, the slice step is that projection, from
the slice's 1x1 or 2x2 Gram system in closed form with lstsq's min-norm
cutoff and one `Objective.value_and_gradient` call at its point; it must
pass a first-order test, or the step falls back to L-BFGS-B. Every other
slice is one L-BFGS-B pass (Byrd, Lu, Nocedal & Zhu 1995) on the two
columns [base, d]: the plane, E over span{base, atom}, with both
coefficients free, and one direction with base's coefficient fixed at 1
and d's bounded to its interval, ray or line.

The Chebyshev rule's span solve (`minimize_subspace`) is separate. Its basis
lives in a `SpanFactor`, a thin QR grown by one CGS2 column per atom. It
evaluates the l2 projection of `Objective.minimizer` onto the span once and
checks the span contract, max_j |<E', phi_j>| <= SUBSPACE_TOL, there: for
least squares and the r = 2 norm powers, and once the span holds the
minimizer, that is the whole solve. The projection's triangular system
R c = Q^T minimizer is one call of LAPACK's `trtrs` (`dtrtrs`), without
scipy's `solve_triangular` wrapper around it, whose per-call cost is several
times the solve's at the span's sizes. On a miss it takes damped Newton
steps with the span Hessian (`_newton`), then the L-BFGS-B passes of
`SPAN_PASSES` through the slices' helper (`_lbfgs`): one from the
projection, which takes its E and E', then one from the previous solution
and a stricter one from its result. Every solve returns a
`SliceResult`: its point, and E and E' there. Every point a solver
evaluates is one evaluation: a `value_and_gradient` call, or, for the
projection and Newton's trial points of an objective with a span Hessian,
one `value_gradient_hessian` call, whose Hessian is formed from that
evaluation's residual only at a point Newton steps from. An L-BFGS-B pass
hands back its own evaluations when it ends on one of its last two points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs
from scipy.optimize import minimize as _scipy_minimize

from .objectives import Objective

DERIVATIVE_TOL = 1e-10
# The span contract: every span solve returns a point x with
# max_j |<E'(x), phi_j>| <= SUBSPACE_TOL, or raises SubspaceToleranceError.
SUBSPACE_TOL = 1e-8


# The span's two L-BFGS-B passes, the second stricter: gtol a hundredth and
# a thousandth of the span contract SUBSPACE_TOL. A slice's one pass is the
# first (gtol SUBSPACE_TOL * 1e-2 = DERIVATIVE_TOL), with no contract to
# meet afterwards.
SPAN_PASSES = (
    {"maxiter": 4000, "maxfun": 8000, "gtol": SUBSPACE_TOL * 1e-2, "ftol": 1e-18},
    {"maxiter": 8000, "gtol": SUBSPACE_TOL * 1e-3, "ftol": 0.0},
)
SLICE_OPTIONS = SPAN_PASSES[0]
# A column whose part orthogonal to the factored span, after CGS2, is at most
# DEPENDENT_TOL times its norm is numerically dependent on that span.
DEPENDENT_TOL = 1e-10
# lstsq's default cutoff for a 2x2 system: eigenvalues of the Gram matrix at
# most this times its largest are dropped.
GRAM_CUTOFF = 2.0 * np.finfo(float).eps
# The span's Newton steps: at most NEWTON_STEPS of them, each backtracked
# from the full step by halving, at most ARMIJO_HALVINGS times, to Armijo's
# sufficient decrease E(c + t p) <= E(c) + ARMIJO_C1 t <grad, p>.
NEWTON_STEPS = 50
ARMIJO_C1 = 1e-4
ARMIJO_HALVINGS = 30


class SubspaceToleranceError(RuntimeError):
    def __init__(self, achieved: float):
        super().__init__(
            f"subspace solve stalled at max_j |<E', phi_j>| = {achieved:.3e}"
            f" > {SUBSPACE_TOL:.3e}"
        )
        self.achieved = achieved


@dataclass
class SliceResult:
    """The result of every inner solve: a slice's or a span's."""

    coefficients: np.ndarray  # slice: base + sum_i c_i d_i; span: B c
    point: np.ndarray  # that minimizer, bitwise the point E was evaluated at
    energy: float  # E(point)
    gradient: np.ndarray  # E'(point)
    grad_inf: float = math.nan  # span only: max_j |<E'(point), phi_j>|


def _min_norm_solve(directions, residual) -> np.ndarray:
    """`lstsq(D^T D, D^T residual, rcond=None)[0]` in closed form for D's one
    or two columns: min-norm, Gram eigenvalues <= GRAM_CUTOFF * the largest
    dropped. One column keeps lstsq's bits: dgelsd scales by 1 / g (dlascl),
    so not r / g. Two: one Jacobi rotation (Golub & Van Loan 8.5), any rank.
    The products are `ndarray.dot`, which `np.dot` ends in, and the rest is
    arithmetic on Python floats."""
    d0, d1 = directions[0], directions[-1]
    a, r0 = float(d0.dot(d0)), float(d0.dot(residual))
    if len(directions) == 1:
        return np.array([(r0 * (1.0 / a) if a > 0.0 else 0.0) + 0.0])  # no -0.0
    b, c, r1 = float(d0.dot(d1)), float(d1.dot(d1)), float(d1.dot(residual))
    theta = (c - a) / (2.0 * b) if b != 0.0 else math.inf  # b = 0: t = 0
    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
    cs = 1.0 / math.sqrt(1.0 + t * t)
    sn = t * cs
    lam0, lam1 = a - t * b, c + t * b
    cutoff = GRAM_CUTOFF * max(abs(lam0), abs(lam1))
    y0 = (cs * r0 - sn * r1) / lam0 if abs(lam0) > cutoff else 0.0
    y1 = (sn * r0 + cs * r1) / lam1 if abs(lam1) > cutoff else 0.0
    return np.array([cs * y0 + sn * y1 + 0.0, cs * y1 - sn * y0 + 0.0])


def _projection_step(objective, base, directions, lower, upper):
    """The slice's point nearest `objective.projection_target` t.

    c is the min-norm solution of the Gram system D^T D c = D^T (t - base)
    (`_min_norm_solve`), so a zero direction or two parallel ones get
    coefficient mass only where it lowers E; a one-direction step is clipped
    to [lower, upper]. Returns None when the directional derivatives at the
    point fail the first-order test DERIVATIVE_TOL * (1 + |E|), scaled by E
    at the point and one-sided at a bound, so that the caller falls back to
    L-BFGS-B. The point and the test take c's entries as Python floats,
    which numpy multiplies into an array with the same bits as its own
    scalars and less dispatch.
    """
    c = _min_norm_solve(directions, objective.projection_target - base)
    if len(directions) == 1:
        c[0] = min(max(c[0], lower), upper)

    point, steps = base, c.tolist()
    for c_i, d_i in zip(steps, directions):
        point = point + c_i * d_i
    energy, grad = objective.value_and_gradient(point)
    dtol = DERIVATIVE_TOL * (1.0 + abs(energy))
    for c_i, d_i in zip(steps, directions):
        s = float(grad.dot(d_i))
        if c_i == lower:
            ok = s >= -dtol
        elif c_i == upper:
            ok = s <= dtol
        else:
            ok = abs(s) <= dtol
        if not ok:
            return None
    return SliceResult(c, point, energy, gradient=grad)


def _lbfgs(objective, basis, coef, options, bounds=None, at_start=None) -> SliceResult:
    """L-BFGS-B on c -> E(basis @ c) with the analytic gradient, from coef,
    with c_i in [bounds[i][0], bounds[i][1]] (ends may be infinite) or, with
    no bounds, c free; L-BFGS-B clips a start outside them.

    The result carries the point, E and E' there. L-BFGS-B asks for E and
    E' at every point it tries, so each point gets one
    `Objective.value_and_gradient` call. The pass keeps basis @ c, E and E'
    for its last two c: a pass whose line search fails returns to the
    iterate before its trial point, and a pass that ends on one of them
    (most do) hands back its own evaluations there. at_start, when the
    caller holds them, is (E, E') at basis @ coef, which the pass then does
    not evaluate again."""
    memo = []  # up to two (bytes of c, basis @ c, E, E'), the newest last
    if at_start is not None:
        memo.append((coef.tobytes(), basis @ coef, *at_start))

    def at(c):
        key = c.tobytes()
        for rec in memo:
            if rec[0] == key:
                return rec
        point = basis @ c
        rec = (key, point, *objective.value_and_gradient(point))
        memo[:] = memo[-1:] + [rec]
        return rec

    res = _scipy_minimize(
        lambda c: at(c)[2],
        coef,
        jac=lambda c: basis.T @ at(c)[3],
        method="L-BFGS-B",
        bounds=bounds,
        options=options,
    )
    c = np.asarray(res.x, dtype=float)
    return SliceResult(c, *at(c)[1:])


def minimize_on_slice(
    objective: Objective,
    base: np.ndarray,
    directions,
    lower: float = -math.inf,
    upper: float = math.inf,
    at_base: Optional[tuple] = None,
) -> SliceResult:
    """Minimize E(base + sum_i c_i d_i) over the slice an update rule names.

    One direction d: c in [lower, upper], which must hold a finite c; either
    end may be infinite. Two directions: the free-relaxation plane,
    directions = (base, atom) with no bounds; the coefficients (-w, lam)
    give the point (1 - w) base + lam atom.

    When `objective.projection_target` is set, the minimizer is that
    target's l2 projection onto the slice (`_projection_step`), at the cost
    of one `value_and_gradient` call at its point, which its first-order
    test reads and the result carries. A point that fails that test falls
    back to L-BFGS-B. Other objectives go straight to it: one pass
    (SLICE_OPTIONS) on the columns [base, d] from (1, 0), that is from base.
    On the plane both coefficients are free, and the result's are
    (alpha - 1, lam). On one direction base's is fixed at 1 and d's, the
    result's one coefficient, is bounded by [lower, upper]. L-BFGS-B
    accepts only points that lower E, so E(point) <= E(base) when the slice
    holds base; the run's monotone check guards it all the same. at_base,
    when the caller holds them, is (E(base), E'(base)): the pass starts at
    base and takes them instead of evaluating base again. Every result
    carries its point, and E and E' there.
    """
    directions = tuple(directions)
    if not (lower <= upper and lower < math.inf and upper > -math.inf):  # NaN too
        raise ValueError(f"slice bounds [{lower}, {upper}] hold no finite c")
    if len(directions) == 2:
        d0 = directions[0]
        unbounded = (lower, upper) == (-math.inf, math.inf)
        if not unbounded or not (d0 is base or np.array_equal(d0, base)):
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
    basis = np.column_stack((base, directions[-1]))
    bounds = None if len(directions) == 2 else [(1.0, 1.0), (lower, upper)]
    res = _lbfgs(objective, basis, np.array([1.0, 0.0]), SLICE_OPTIONS, bounds, at_base)
    if bounds is None:
        res.coefficients[0] -= 1.0
    else:
        res.coefficients = res.coefficients[1:]
    return res


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
        rho = math.sqrt(w @ w)  # numpy's own 1-D 2-norm, without its wrapper
        if rho <= DEPENDENT_TOL * math.sqrt(vec @ vec):
            self.usable = False
            return
        self._qt[k] = w / rho
        self._r[:k, k] = h + h2
        self._r[k, k] = rho

    def solve(self, target: np.ndarray) -> np.ndarray:
        """argmin_c ||target - B c||_2 from R c = Q^T target; needs `usable`.

        LAPACK's `dtrtrs` solves it as `scipy.linalg.solve_triangular` calls
        it for this R, a view into a C-ordered buffer (L = R^T, lower, and
        L^T c = Q^T target): the wrapper's bits without its per-call cost.
        A singular R raises LinAlgError."""
        x, info = dtrtrs(self.r.T, self.q.T @ target, lower=1, trans=1)
        if info > 0:
            raise LinAlgError(f"singular R: zero diagonal entry {info - 1}")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dtrtrs")
        return x


def _grown(buffer: np.ndarray, shape: tuple) -> np.ndarray:
    out = np.zeros(shape)
    out[: buffer.shape[0], : buffer.shape[1]] = buffer
    return out


def _newton(
    objective, basis, start: SliceResult, bg, hessian
) -> Optional[SliceResult]:
    """Damped Newton on c -> E(basis @ c) from start, an evaluated point, with
    bg = B^T E' there and hessian its evaluation's span Hessian (Nocedal &
    Wright, Numerical Optimization, 3.1 and 3.5).

    Each step forms H = hessian(basis) from the evaluation of the point it
    steps from, solves H p = -bg by Cholesky and backtracks from the full
    step to Armijo's decrease. Every trial point is one
    `objective.value_gradient_hessian` call. A rejected trial's evaluation is
    dropped before the next trial's, and an accepted one's residual as its H
    is formed, so no point's Hessian is formed unless Newton steps from it.
    Returns the first point that meets the span contract (SUBSPACE_TOL), or
    None when H is not finite or not positive definite, p is not a descent
    direction, a backtrack fails, or NEWTON_STEPS steps miss it."""
    coef, energy = start.coefficients, start.energy
    for _ in range(NEWTON_STEPS):
        hess = hessian(basis)
        if not np.isfinite(hess).all():
            return None
        chol, info = dpotrf(hess)
        if info != 0:
            return None
        p = -dpotrs(chol, bg)[0]
        slope = float(bg @ p)
        if not slope < 0.0:
            return None
        t = 1.0
        for _ in range(ARMIJO_HALVINGS):
            trial = coef + t * p
            point = basis @ trial
            trial_energy, grad, hessian = objective.value_gradient_hessian(point)
            if trial_energy <= energy + ARMIJO_C1 * t * slope:
                break
            hessian = None
            t *= 0.5
        else:
            return None
        coef, energy = trial, trial_energy
        bg = basis.T @ grad
        ginf = float(np.abs(bg).max())
        if ginf <= SUBSPACE_TOL:
            return SliceResult(coef, point, energy, grad, ginf)
    return None


def minimize_subspace(
    objective: Objective,
    basis,
    x0: Optional[np.ndarray] = None,
) -> SliceResult:
    """Minimize E over the span of the basis columns: a `SpanFactor`, or a
    (dim, k) array, which is factored here.

    Exit condition (the contract): max_j |<E'(x), phi_j>| <= SUBSPACE_TOL
    at the returned point, read from B^T E'(x); the constant has no option.
    When `objective.minimizer` is set, its l2 projection onto the span
    (R c = Q^T minimizer while the factor is usable, else `lstsq` on B) is
    evaluated once and checked; it is the span minimizer when E is a
    function of the l2 distance to the minimizer (least squares, the r = 2
    norm powers) or when the span holds it. When the objective has a span
    Hessian (`objective.value_gradient_hessian_fn`), that one evaluation
    also gives it: on a miss, damped Newton steps (`_newton`) start there
    with it and with B^T E', already read for the check. Then comes one
    L-BFGS-B pass from the projection, which takes its E and E'. When those
    miss, or there is no minimizer, the passes of `SPAN_PASSES` run from x0
    or zero, the second from the first's result; raises
    SubspaceToleranceError if both miss the contract.
    """
    span = basis if isinstance(basis, SpanFactor) else SpanFactor.of(basis)
    basis = span.basis
    k, m = basis.shape
    if m == 0:
        point = np.zeros(k)
        return SliceResult(np.zeros(0), point, *objective.value_and_gradient(point), 0.0)

    def lbfgs(coef, options, at_start=None):
        res = _lbfgs(objective, basis, coef, options, at_start=at_start)
        res.grad_inf = float(np.abs(basis.T @ res.gradient).max())
        return res

    target = objective.minimizer
    if target is not None:
        if span.usable:
            coef = span.solve(target)
        else:
            coef = np.linalg.lstsq(basis, target, rcond=None)[0]
        point = basis @ coef
        newton = objective.value_gradient_hessian_fn is not None
        if newton:
            energy, grad, hessian = objective.value_gradient_hessian(point)
        else:
            energy, grad = objective.value_and_gradient(point)
        bg = basis.T @ grad
        start = SliceResult(coef, point, energy, grad, float(np.abs(bg).max()))
        if start.grad_inf <= SUBSPACE_TOL:
            return start
        if newton:
            res = _newton(objective, basis, start, bg, hessian)
            if res is not None:
                return res
        res = lbfgs(coef, SPAN_PASSES[0], at_start=(energy, grad))
        if res.grad_inf <= SUBSPACE_TOL:
            return res
        # missed the contract: the passes from x0 below

    coef = np.asarray(x0, dtype=float) if x0 is not None else np.zeros(m)
    for options in SPAN_PASSES:
        res = lbfgs(coef, options)
        if res.grad_inf <= SUBSPACE_TOL:
            return res
        coef = res.coefficients
    raise SubspaceToleranceError(res.grad_inf)

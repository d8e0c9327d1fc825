"""Smooth convex objectives with explicit uniform-smoothness envelopes.

An objective here is E: R^dim -> R, convex and Frechet differentiable, together
with optional metadata used by the greedy drivers and the verification harness:
a power-type smoothness envelope rho(E, u) <= gamma * u^q with 1 < q <= 2, a
radius bound on the sublevel set D = {x : E(x) <= E(0)}, and the ambient norm
the envelope refers to (l2 unless stated otherwise). Every envelope is a
proven closed form, never a sampled estimate: least squares and logistic from
their Hessian bounds, and a norm power ||f - x||_r^q from the uniform
smoothness of l_r (proof in `make_norm_power`), which gives one only for
q <= min(r, 2), so the factory rejects q > r.

Every caller that needs E' needs E at the same point, so an objective has one
function for the two, `value_and_gradient_fn`, beside `value_fn` for E
alone: a norm power computes both from one residual f - x and one l_r norm of
it, logistic from one product z = (l * A) x. A norm power also gives E's
Hessian on a span, B^T E''(x) B, for the Chebyshev span solve's Newton steps,
from the same evaluation (`value_gradient_hessian_fn`): E, E' and a
function of B built on that point's residual, which no Hessian recomputes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


class NonFiniteEnergyError(RuntimeError):
    """Objective evaluation produced NaN or infinity."""


class DimensionMismatchError(ValueError):
    """Input point does not match the objective dimension."""


def l2_norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


def lr_norm(v: np.ndarray, r: float) -> float:
    """||v||_r, scaled by the largest |v_i|: np.linalg.norm(v, ord=r)
    underflows for tiny entries raised to a large r. In place, with one
    temporary of v's size and the bits of top * sum((|v| / top) ** r) **
    (1 / r). A zero v has norm 0, and one with an infinite entry inf, with
    no 0/0 or inf/inf; a NaN entry gives NaN."""
    a = np.abs(np.asarray(v, dtype=float))
    top = float(a.max()) if a.size else 0.0
    if top == 0.0 or top == math.inf:
        return top
    a /= top
    a **= r
    return top * float(a.sum() ** (1.0 / r))


@dataclass(frozen=True)
class SmoothnessParams:
    """Power-type modulus of smoothness envelope rho(u) = gamma * u^q.

    Args:
        gamma: envelope constant, > 0.
        q: envelope exponent, in (1, 2]. q = 2 for quadratic-like objectives.
    """

    gamma: float
    q: float

    def __post_init__(self):
        if not (self.gamma > 0):
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if not (1.0 < self.q <= 2.0):
            raise ValueError(f"q must be in (1, 2], got {self.q}")

    def rho(self, u: float) -> float:
        """Envelope value gamma * |u|^q."""
        return self.gamma * abs(u) ** self.q

    def s(self, u: float) -> float:
        """The ratio rho(u)/u for u > 0, nondecreasing in u (theory's xi
        solves s(xi) = theta * t_m)."""
        if u <= 0.0:
            raise ValueError(f"s(u) needs u > 0, got {u}")
        return self.rho(u) / u


@dataclass(frozen=True)
class Objective:
    """Differentiable convex objective with optional smoothness metadata.

    `value_fn` gives E(x) and `value_and_gradient_fn` gives (E(x), E'(x)) at
    one point. The E of the two functions must be bitwise equal, so a copy
    that swaps one of them must swap both. value, gradient and
    value_and_gradient validate dimensions and reject non-finite results
    instead of letting NaN propagate into a greedy run. Two optional points
    guide the inner solvers: `projection_target` t, when E is a quadratic
    around t, which only the slice solver reads, and `minimizer`, a point
    where E attains its minimum over R^dim (the target of least squares and
    of every norm power; None for logistic), whose l2 projection onto the
    span starts every span solve that has one.

    `value_gradient_hessian_fn(x)`, optional, is one evaluation that also
    gives E's span Hessian there: (E(x), E'(x), hessian), where hessian(B)
    is B^T E''(x) B for a (dim, k) array B, the (k, k) Hessian of
    c -> E(x + B c) at c = 0. Its E and E' are bitwise those of
    `value_and_gradient_fn`, and hessian reuses the evaluation's own
    residual, so a Hessian costs no second evaluation of the point; it may
    be called once, and releases that residual. It is E's, so a copy that
    swaps E must swap or drop it too. Where E''(x) does not exist, hessian
    returns a matrix that is not finite. With it, the span solve takes
    Newton steps from the minimizer's projection; the matrix is not checked
    here, and the solver falls back to L-BFGS-B when it is not finite or
    not positive definite. `value_gradient_hessian` checks E and E' as
    `value_and_gradient` does.
    """

    dimension: int
    value_fn: Callable[[np.ndarray], float]
    value_and_gradient_fn: Callable[[np.ndarray], tuple]
    smoothness: Optional[SmoothnessParams] = None
    sublevel_radius: Optional[float] = None
    norm: Callable[[np.ndarray], float] = l2_norm
    label: str = ""
    # A t such that E(x) = a ||t - x||_2^2 + b with a > 0: E's minimizer over
    # a rule's slice is then t's l2 projection onto it (minimize_on_slice).
    projection_target: Optional[np.ndarray] = field(
        default=None, compare=False, repr=False
    )
    minimizer: Optional[np.ndarray] = field(default=None, compare=False, repr=False)
    value_gradient_hessian_fn: Optional[Callable[[np.ndarray], tuple]] = field(
        default=None, compare=False, repr=False
    )

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"expected shape ({self.dimension},), got {x.shape}"
            )
        if not np.isfinite(x).all():
            raise NonFiniteEnergyError(f"non-finite input point for {self.label!r}")
        return x

    def _energy(self, v) -> float:
        v = float(v)
        if not math.isfinite(v):
            raise NonFiniteEnergyError(f"E(x) is not finite for {self.label!r}")
        return v

    def value(self, x: np.ndarray) -> float:
        x = self._check(x)
        try:
            return self._energy(self.value_fn(x))
        except OverflowError as exc:  # a Python float's ** raises, not inf
            raise NonFiniteEnergyError(f"E(x) overflows for {self.label!r}") from exc

    def _gradient(self, g) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        if g.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"gradient shape {g.shape} != ({self.dimension},)"
            )
        if not np.isfinite(g).all():
            raise NonFiniteEnergyError(f"E'(x) is not finite for {self.label!r}")
        return g

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(E(x), E'(x)) from one `value_and_gradient_fn` call, E' checked
        before E. An OverflowError is E's: a Python float's ** raises it,
        and E' is finite wherever E is for every objective here."""
        x = self._check(x)
        try:
            v, g = self.value_and_gradient_fn(x)
        except OverflowError as exc:
            raise NonFiniteEnergyError(f"E(x) overflows for {self.label!r}") from exc
        g = self._gradient(g)
        return self._energy(v), g

    def value_gradient_hessian(self, x: np.ndarray) -> tuple:
        """(E(x), E'(x), hessian) from one `value_gradient_hessian_fn` call,
        E and E' checked as `value_and_gradient` checks them; hessian(B) is
        B^T E''(x) B, unchecked."""
        x = self._check(x)
        try:
            v, g, hessian = self.value_gradient_hessian_fn(x)
        except OverflowError as exc:
            raise NonFiniteEnergyError(f"E(x) overflows for {self.label!r}") from exc
        g = self._gradient(g)
        return self._energy(v), g, hessian

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return self.value_and_gradient(x)[1]


def make_least_squares(target: np.ndarray) -> Objective:
    """E(x) = 0.5 * ||target - x||_2^2 on R^len(target).

    Exact smoothness: the second difference is u^2 * ||y||^2 identically, so
    rho(E, u) = 0.5 * u^2 (gamma = 0.5, q = 2). Sublevel set is the ball of
    radius ||target|| around target, hence ||x|| <= 2 ||target|| on D.
    """
    y = np.asarray(target, dtype=float).copy()
    y.setflags(write=False)

    def value(x):
        d = y - x
        return 0.5 * float(np.dot(d, d))

    return Objective(
        dimension=y.shape[0],
        value_fn=value,
        value_and_gradient_fn=lambda x: (value(x), x - y),
        smoothness=SmoothnessParams(gamma=0.5, q=2.0),
        sublevel_radius=2.0 * l2_norm(y),
        norm=l2_norm,
        label="least_squares",
        projection_target=y,
        minimizer=y,
    )


def _norming_functional(v: np.ndarray, nv: float, r: float) -> np.ndarray:
    """F_v with <F_v, v> = ||v||_r and dual norm 1, for 1 < r < infinity,
    given nv = lr_norm(v, r) > 0. In place, with the bits of
    sign(w) * |w| ** (r - 1) for w = v / nv: at r = 2 that is w itself,
    with +0.0 for -0.0 (np.sign(-0.0) is +0.0)."""
    w = v / nv
    if r == 2.0:
        w += 0.0
        return w
    f = np.abs(w)
    f **= r - 1.0
    f *= np.sign(w)
    return f


def _infinite_hessian(B: np.ndarray) -> np.ndarray:
    """The span Hessian at a point where E'' does not exist."""
    return np.full((B.shape[1], B.shape[1]), math.inf)


def sample_sublevel_pair(value, e0, dim, radius, norm, rng) -> tuple:
    """Random (x, y) for the smoothness checks of E = `value`: x drawn in
    the `norm` ball of the given radius and halved toward 0 until x or -x
    is in D = {value <= e0 = E(0)}, y a unit vector in `norm`.

    D is convex with 0 on its boundary, so halving x alone never enters D
    when <E'(0), x> > 0: it would end at x ~ 0, where E rounds to E(0).
    Then -x is the side that enters D."""
    x = rng.standard_normal(dim)
    nx = norm(x)
    if nx > 0.0:
        x *= radius * rng.random() ** (1.0 / dim) / nx
    for _ in range(200):
        if value(x) <= e0:
            break
        if value(-x) <= e0:
            x = -x
            break
        x *= 0.5
    y = rng.standard_normal(dim)
    return x, y / norm(y)


def make_norm_power(target: np.ndarray, r: float, q: float) -> Objective:
    """E(x) = ||target - x||_r^q with the l_r ambient norm.

    Gradient: -q ||v||_r^(q-1) F_v at v = target - x, where F_v is the l_r
    norming functional sign(v_i)|v_i|^(r-1) / ||v||_r^(r-1); zero at v = 0
    (q > 1 makes E differentiable there).

    Hessian, with N = ||v||_r and s = sign(v)|v|^(r-1):
    E'' = q(r-1) N^(q-r) diag(|v|^(r-2)) + q(q-r) N^(q-2r) s s^T, that is
    q N^(q-2) [(r-1) diag(|w|^(r-2)) + (q-r) F F^T] with w = v / N and
    F = F_v, the scaled form that `value_gradient_hessian_fn` returns: an
    evaluation's E, E' and a function B -> B^T E'' B, O(dim k^2) with no
    (dim, dim) array, that closes over the evaluation's v, N and F_v, so
    a point's residual is computed once for its E, E' and Hessian. The
    function forms one Hessian: it drops v and F_v as it goes, so that no
    residual outlives its use. It is infinite where E'' does not exist: at
    v = 0, and where some v_i = 0 when r < 2.

    Envelope: rho(E, u) <= gamma u^q on all of R^dim, with
    gamma = max(1, r - 1)^(q/2), for every 1 < q <= min(r, 2). Proof: fix x,
    y with ||y||_r = 1 and u >= 0; let v = f - x, A = ||v + u y||_r and
    B = ||v - u y||_r. Take p = 2 and c = r - 1 for r >= 2, where l_r is
    2-uniformly smooth (Ball, Carlen & Lieb, Invent. Math. 115, 1994), and
    p = r and c = 1 for 1 < r <= 2, where Clarkson's
    |a + b|^r + |a - b|^r <= 2 (|a|^r + |b|^r) holds for each coordinate.
    Either way (A^p + B^p) / 2 <= ||v||^p + c u^p. As q <= p, t -> t^(q/p)
    is concave, so Jensen and (a + b)^k <= a^k + b^k for k = q/p <= 1 give
    (A^q + B^q) / 2 <= (||v||^p + c u^p)^(q/p) <= ||v||^q + c^(q/p) u^q,
    and c^(q/p) = gamma. So the second difference E(x + u y) + E(x - u y)
    - 2 E(x) is at most 2 gamma u^q, and by convexity it bounds the Bregman
    term of the smoothness sandwich. At q = 2, r >= 2 gamma is the sharp
    r - 1. For q > r (so r < 2) there is no power-q envelope: where v_i = 0,
    E'(x) e_i = 0 and E(x + u e_i) - E(x) grows like u^r, so the factory
    raises ValueError.
    """
    if not (1.0 < r < np.inf):
        raise ValueError(f"r must be in (1, inf), got {r}")
    if not (1.0 < q <= 2.0):
        raise ValueError(f"q must be in (1, 2], got {q}")
    if q > r:
        raise ValueError(
            f"q = {q} > r = {r}: ||f - x||_r^q has no power-q smoothness envelope"
        )
    f = np.asarray(target, dtype=float).copy()
    f.setflags(write=False)
    dim = f.shape[0]

    def norm(v):
        return lr_norm(v, r)

    def value(x):
        return lr_norm(f - x, r) ** q

    def value_and_grad(x):
        v = f - x
        nv = lr_norm(v, r)
        if nv == 0.0:
            return 0.0, np.zeros_like(f)
        if not math.isfinite(nv):  # f - x overflowed: so do E and E'
            return nv, np.full_like(f, nv)
        g = _norming_functional(v, nv, r)
        g *= -q * nv ** (q - 1.0)
        return nv**q, g

    def value_grad_hessian(x):
        v = f - x
        nv = lr_norm(v, r)
        if nv == 0.0:
            return 0.0, np.zeros_like(f), _infinite_hessian
        if not math.isfinite(nv):
            return nv, np.full_like(f, nv), _infinite_hessian
        fv = _norming_functional(v, nv, r)
        g = fv * (-q * nv ** (q - 1.0))  # value_and_grad's in-place bits
        held = [v, nv, fv]

        def hessian(B):  # empties held as it forms the matrix: call once
            v, nv, fv = held
            held.clear()
            if r < 2.0 and not v.all():
                return _infinite_hessian(B)
            w = np.abs(v)
            del v
            w /= nv
            w **= r - 2.0
            bf = B.T @ fv
            del fv
            h = (B.T * w) @ B
            h *= r - 1.0
            h += (q - r) * (bf[:, None] * bf)  # np.outer's multiply
            h *= q * nv ** (q - 2.0)
            return h

        return nv**q, g, hessian

    return Objective(
        dimension=dim,
        value_fn=value,
        value_and_gradient_fn=value_and_grad,
        smoothness=SmoothnessParams(gamma=max(1.0, r - 1.0) ** (q / 2.0), q=q),
        sublevel_radius=2.0 * norm(f),
        norm=norm,
        label=f"norm_power(r={r}, q={q})",
        projection_target=f if r == 2.0 and q == 2.0 else None,
        minimizer=f,
        value_gradient_hessian_fn=value_grad_hessian,
    )


def make_logistic(labels: np.ndarray, features: np.ndarray, mu: float) -> Objective:
    """Mean logistic loss plus a quadratic proximal term.

    E(x) = mean_i log(1 + exp(-l_i <a_i, x>)) + (mu/2) ||x||_2^2 with labels
    l_i in {-1, +1} and feature rows a_i. Smoothness: the loss Hessian is
    bounded by lambda_max(A^T A) / (4N) and the proximal term adds mu, so
    gamma = (lambda_max(A^T A) / (4N) + mu) / 2, q = 2. The proximal term
    gives (mu/2)||x||^2 <= E(x) <= E(0) on D, hence the sublevel radius
    sqrt(2 E(0) / mu).
    """
    A = np.asarray(features, dtype=float)
    l = np.asarray(labels, dtype=float)
    if A.ndim != 2 or l.shape != (A.shape[0],):
        raise ValueError("features must be (N, dim), labels (N,)")
    if not np.all(np.abs(l) == 1.0):
        raise ValueError("labels must be +-1")
    if not (mu > 0):
        raise ValueError(f"mu must be > 0, got {mu}")
    N, dim = A.shape
    LA = l[:, None] * A

    def energy(x, z):  # E at x, given z = LA @ x
        # log(1 + exp(-z)) computed stably for both signs of z.
        loss = np.logaddexp(0.0, -z).mean()
        return loss + 0.5 * mu * float(np.dot(x, x))

    def value_and_grad(x):
        z = LA @ x
        s = 0.5 * (1.0 + np.tanh(-0.5 * z))  # sigmoid(-z), overflow-safe
        return energy(x, z), -(LA.T @ s) / N + mu * x

    gram_top = float(np.linalg.eigvalsh(A.T @ A)[-1])
    gamma = (gram_top / (4.0 * N) + mu) / 2.0
    e0 = float(np.log(2.0))

    return Objective(
        dimension=dim,
        value_fn=lambda x: energy(x, LA @ x),
        value_and_gradient_fn=value_and_grad,
        smoothness=SmoothnessParams(gamma=gamma, q=2.0),
        sublevel_radius=float(np.sqrt(2.0 * e0 / mu)),
        norm=l2_norm,
        label=f"logistic(mu={mu})",
    )


def check_smoothness_inequality(
    obj: Objective, x: np.ndarray, y: np.ndarray, u: float, e0: float
) -> tuple[float, float]:
    """Two-sided smoothness check at (x, y, u).

    Requires E(x) <= e0 = E(0) (x in the sublevel set), ||y|| = 1 within
    1e-12 in the objective's ambient norm, and a declared envelope. Returns
    (lhs, rhs - lhs) for the sandwich

        0 <= E(x + u y) - E(x) - u <E'(x), y> <= 2 gamma |u|^q,

    so both entries must be >= 0 up to roundoff for the inequality to hold.
    """
    if obj.smoothness is None:
        raise ValueError("objective declares no smoothness envelope")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ny = obj.norm(y)
    if abs(ny - 1.0) > 1e-12:
        raise ValueError(f"y must be unit in the ambient norm, got {ny}")
    ex, gx = obj.value_and_gradient(x)
    if ex > e0 + 1e-10 * (1.0 + abs(e0)):
        raise ValueError("x is outside the sublevel set D = {E <= E(0)}")
    lhs = obj.value(x + u * y) - ex - u * float(np.dot(gx, y))
    rhs = 2.0 * obj.smoothness.rho(u)
    return lhs, rhs - lhs


def empirical_modulus(
    obj: Objective, u: float, sample_count: int = 200, rng_seed: int = 0
) -> float:
    """Sampled lower estimate of the modulus of smoothness at scale u.

    rho(E, u) = 0.5 sup {|E(x+uy) + E(x-uy) - 2E(x)| : x in D, ||y|| = 1}.
    (x, y) come from `sample_sublevel_pair` in the ball of the declared
    sublevel radius. Returns the max over samples: a certified lower bound
    on the sup, and <= gamma u^q + tol when the declared envelope is honest.
    """
    if obj.sublevel_radius is None:
        raise ValueError("objective declares no sublevel radius")
    if u == 0.0:
        return 0.0
    rng = np.random.default_rng(rng_seed)
    e0 = obj.value(np.zeros(obj.dimension))
    best = 0.0
    for _ in range(sample_count):
        x, y = sample_sublevel_pair(
            obj.value, e0, obj.dimension, obj.sublevel_radius, obj.norm, rng
        )
        second = obj.value(x + u * y) + obj.value(x - u * y) - 2.0 * obj.value(x)
        best = max(best, 0.5 * abs(second))
    return best

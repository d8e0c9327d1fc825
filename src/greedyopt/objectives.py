"""Smooth convex objectives with explicit uniform-smoothness envelopes.

An objective here is E: R^dim -> R, convex and Frechet differentiable, together
with optional metadata used by the greedy drivers and the verification harness:
a power-type smoothness envelope rho(E, u) <= gamma * u^q with 1 < q <= 2, a
radius bound on the sublevel set D = {x : E(x) <= E(0)}, and the ambient norm
the envelope refers to (l2 unless stated otherwise).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np


class NonFiniteEnergyError(RuntimeError):
    """Objective evaluation produced NaN or infinity."""


class DimensionMismatchError(ValueError):
    """Input point does not match the objective dimension."""


def l2_norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


def lr_norm(v: np.ndarray, r: float) -> float:
    # np.linalg.norm(v, ord=r) underflows for tiny entries raised to large r;
    # factoring out the max keeps the computation scaled. In place: one
    # temporary of v's size, with the bits of (|v| / top) ** r.
    a = np.abs(np.asarray(v, dtype=float))
    top = float(a.max()) if a.size else 0.0
    if top == 0.0:
        return 0.0
    a /= top
    a **= r
    return top * float(np.sum(a) ** (1.0 / r))


@dataclass(frozen=True)
class SmoothnessParams:
    """Power-type modulus of smoothness envelope rho(u) = gamma * u^q.

    Args:
        gamma: envelope constant, > 0, or a zero-argument function that
            computes it. The function runs on the first read of `gamma` (or
            `rho`), and its value is checked and cached then; repr and ==
            see the function, so they never run it.
        q: envelope exponent, in (1, 2]. q = 2 for quadratic-like objectives.
    """

    _gamma: Union[float, Callable[[], float]]
    q: float

    def __init__(self, gamma: Union[float, Callable[[], float]], q: float):
        object.__setattr__(self, "_gamma", gamma)
        object.__setattr__(self, "q", q)
        if not callable(gamma):
            self.gamma  # a constant is checked at once
        if not (1.0 < q <= 2.0):
            raise ValueError(f"q must be in (1, 2], got {q}")

    def __repr__(self) -> str:
        return f"SmoothnessParams(gamma={self._gamma!r}, q={self.q!r})"

    @cached_property
    def gamma(self) -> float:
        gamma = float(self._gamma() if callable(self._gamma) else self._gamma)
        if not (gamma > 0):
            raise ValueError(f"gamma must be > 0, got {gamma}")
        return gamma

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

    value/gradient validate dimensions and reject non-finite results instead
    of letting NaN propagate into a greedy run. Two optional points guide
    the inner solvers: `projection_target` t, when E is a quadratic around
    t, and `minimizer`, a point where E attains its minimum over R^dim (the
    target of least squares and of every norm power; None for logistic),
    whose l2 projection onto the span starts the non-quadratic span solve.
    """

    dimension: int
    value_fn: Callable[[np.ndarray], float]
    gradient_fn: Callable[[np.ndarray], np.ndarray]
    smoothness: Optional[SmoothnessParams] = None
    sublevel_radius: Optional[float] = None
    norm: Callable[[np.ndarray], float] = l2_norm
    label: str = ""
    # A t such that E(x) = a ||t - x||_2^2 + b with a > 0: E's minimizer over
    # an affine set (a rule's slice, the Chebyshev span) is then t's l2
    # projection onto it (see inner_solvers).
    projection_target: Optional[np.ndarray] = field(
        default=None, compare=False, repr=False
    )
    minimizer: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"expected shape ({self.dimension},), got {x.shape}"
            )
        if not np.isfinite(x).all():
            raise NonFiniteEnergyError(f"non-finite input point for {self.label!r}")
        return x

    def value(self, x: np.ndarray) -> float:
        x = self._check(x)
        try:
            v = float(self.value_fn(x))
        except OverflowError as exc:  # a Python float's ** raises, not inf
            raise NonFiniteEnergyError(f"E(x) overflows for {self.label!r}") from exc
        if not math.isfinite(v):
            raise NonFiniteEnergyError(f"E(x) is not finite for {self.label!r}")
        return v

    def gradient(self, x: np.ndarray) -> np.ndarray:
        x = self._check(x)
        try:
            g = np.asarray(self.gradient_fn(x), dtype=float)
        except OverflowError as exc:
            raise NonFiniteEnergyError(f"E'(x) overflows for {self.label!r}") from exc
        if g.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"gradient shape {g.shape} != ({self.dimension},)"
            )
        if not np.isfinite(g).all():
            raise NonFiniteEnergyError(f"E'(x) is not finite for {self.label!r}")
        return g


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

    def grad(x):
        return x - y

    return Objective(
        dimension=y.shape[0],
        value_fn=value,
        gradient_fn=grad,
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
    sign(w) * |w| ** (r - 1) for w = v / nv."""
    w = v / nv
    f = np.abs(w)
    f **= r - 1.0
    f *= np.sign(w)
    return f


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


def _sampled_modulus(value, e0, dim, radius, norm, u, samples, rng) -> float:
    """Sampled lower estimate of rho(E, u) from `sample_sublevel_pair`."""
    best = 0.0
    for _ in range(samples):
        x, y = sample_sublevel_pair(value, e0, dim, radius, norm, rng)
        second = value(x + u * y) + value(x - u * y) - 2.0 * value(x)
        best = max(best, 0.5 * abs(second))
    return best


def _calibrate_gamma(value_fn, dim, radius, norm, q, seed=2024) -> float:
    """Sampled lower estimate of sup rho(u)/u^q over u = 2^-k, k = 0..8,
    doubled as a safety margin. The raw value_fn keeps it fast."""
    rng = np.random.default_rng(seed)
    e0 = value_fn(np.zeros(dim))
    worst = 0.0
    for k in range(9):
        u = 2.0 ** (-k)
        best = _sampled_modulus(value_fn, e0, dim, radius, norm, u, 250, rng)
        worst = max(worst, best / u**q)
    return 2.0 * max(worst, 1e-12)


def make_norm_power(
    target: np.ndarray, r: float, q: float, gamma: Optional[float] = None
) -> Objective:
    """E(x) = ||target - x||_r^q with the l_r ambient norm.

    Gradient: -q ||v||_r^(q-1) F_v at v = target - x, where F_v is the l_r
    norming functional sign(v_i)|v_i|^(r-1) / ||v||_r^(r-1); zero at v = 0
    (q > 1 makes E differentiable there).

    gamma default: for q = 2 and r >= 2 the sharp two-point constant r - 1;
    otherwise a seeded empirical calibration (doubled sampled estimate), run
    on the first read of `smoothness.gamma` and cached there. The
    (r, q) compatibility is not enforced; the envelope is validated by
    sampling in the test harness.
    """
    if not (1.0 < r < np.inf):
        raise ValueError(f"r must be in (1, inf), got {r}")
    if not (1.0 < q <= 2.0):
        raise ValueError(f"q must be in (1, 2], got {q}")
    f = np.asarray(target, dtype=float).copy()
    f.setflags(write=False)
    dim = f.shape[0]

    def norm(v):
        return lr_norm(v, r)

    def value(x):
        return norm(f - x) ** q

    def grad(x):
        v = f - x
        nv = norm(v)
        if nv == 0.0:
            return np.zeros(dim)
        g = _norming_functional(v, nv, r)
        g *= -q * nv ** (q - 1.0)
        return g

    radius = 2.0 * norm(f)
    if gamma is None:
        if q == 2.0 and r >= 2.0:
            gamma = r - 1.0
        else:  # sampled on the first read of gamma; no run reads it
            gamma = lambda: _calibrate_gamma(value, dim, radius, norm, q)

    return Objective(
        dimension=dim,
        value_fn=value,
        gradient_fn=grad,
        smoothness=SmoothnessParams(gamma=gamma, q=q),
        sublevel_radius=radius,
        norm=norm,
        label=f"norm_power(r={r}, q={q})",
        projection_target=f if r == 2.0 and q == 2.0 else None,
        minimizer=f,
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

    def value(x):
        z = LA @ x
        # log(1 + exp(-z)) computed stably for both signs of z.
        loss = np.logaddexp(0.0, -z).mean()
        return loss + 0.5 * mu * float(np.dot(x, x))

    def grad(x):
        z = LA @ x
        s = 0.5 * (1.0 + np.tanh(-0.5 * z))  # sigmoid(-z), overflow-safe
        return -(LA.T @ s) / N + mu * x

    gram_top = float(np.linalg.eigvalsh(A.T @ A)[-1])
    gamma = (gram_top / (4.0 * N) + mu) / 2.0
    e0 = float(np.log(2.0))

    return Objective(
        dimension=dim,
        value_fn=value,
        gradient_fn=grad,
        smoothness=SmoothnessParams(gamma=gamma, q=2.0),
        sublevel_radius=float(np.sqrt(2.0 * e0 / mu)),
        norm=l2_norm,
        label=f"logistic(mu={mu})",
    )


def check_smoothness_inequality(
    obj: Objective, x: np.ndarray, y: np.ndarray, u: float
) -> tuple[float, float]:
    """Two-sided smoothness check at (x, y, u).

    Requires E(x) <= E(0) (x in the sublevel set), ||y|| = 1 within 1e-12 in
    the objective's ambient norm, and a declared envelope. Returns
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
    e0 = obj.value(np.zeros(obj.dimension))
    ex = obj.value(x)
    if ex > e0 + 1e-10 * (1.0 + abs(e0)):
        raise ValueError("x is outside the sublevel set D = {E <= E(0)}")
    lhs = obj.value(x + u * y) - ex - u * float(np.dot(obj.gradient(x), y))
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
    return _sampled_modulus(
        obj.value, e0, obj.dimension, obj.sublevel_radius, obj.norm, u,
        sample_count, rng,
    )

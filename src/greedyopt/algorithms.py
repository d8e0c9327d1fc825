"""Greedy approximation drivers over symmetric dictionaries.

Every algorithm shares the same skeleton: G_0 = 0; at step m select an atom
(gradient-greedy with weakness t_m, or energy-greedy for `Prescribed`), then
move by the update rule. A rule class names itself and its properties
(`UpdateRule`; `RULES` maps config names to classes), and every rule but the
Chebyshev one declares its step as a `Step`: a slice (a segment, a ray, a
line or the plane span{G_{m-1}, phi}) that `inner_solvers.minimize_on_slice`
minimizes E on, or a fixed step. `run_greedy` takes them on one path.

The Chebyshev rule re-minimizes E over the span of all selected atoms with
`minimize_subspace`. The run keeps one `SpanFactor`, the basis and its thin
QR, and appends a column only for an atom that does not merge into the
basis. A merged atom leaves the span unchanged, so the previous span
solution, which met the contract on it, stands without a new solve.

Every solver hands back its point, E there and, where it evaluated it, E'
there: the run takes G and E from the result, and E' as the next selection
gradient. A step short of the slice's minimizer, or with no slice, evaluates
E itself, and E' at the next step.

A record keeps its coefficients over the run's atoms (`RunTrace.atoms`), not
a copy of G: a relaxed rule appends its atom every step, with coefficients
(alpha * previous, lam); a Chebyshev run's atoms are its basis. An abort, an
exhausted weakness list or step schedule included, raises `GreedyRunError`
with the records before it.
"""
from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .dictionaries import (
    Atom,
    Dictionary,
    FiniteDictionary,
    SelectionCertificate,
    WeaknessCertificationError,
    select_e_greedy_fixed,
    select_gradient_greedy,
)
from .inner_solvers import (
    SUBSPACE_TOL,
    LineSearchError,
    SpanFactor,
    SubspaceToleranceError,
    minimize_on_slice,
    minimize_subspace,
)
from .objectives import NonFiniteEnergyError, Objective

ENERGY_SLACK = 1e-10
MERGE_COLINEAR_TOL = 1e-10


class StopReason(enum.Enum):
    MAX_ITERATIONS = "MaxIterations"
    SUP_SCORE_TOL = "SupScoreTol"
    GAP_TOL = "GapTol"
    INNER_FAILURE = "InnerFailure"
    ABORTED = "Aborted"


class MonotonicityError(RuntimeError):
    """A provably non-increasing rule increased the energy."""


class GreedyRunError(RuntimeError):
    """A run's abort, annotated with the iteration and the partial trace."""

    def __init__(self, iteration: int, trace: "RunTrace", cause: Exception):
        super().__init__(f"iteration {iteration}: {cause}")
        self.iteration = iteration
        self.trace = trace
        self.cause = cause


class ScheduleExhaustedError(ValueError):
    """A weakness list or step schedule has no value for this iteration."""


@dataclass(frozen=True)
class StopRule:
    """Stopping configuration.

    sup_tol: stop when the selection's reference sup-score drops to this level
    (negative disables). gap_tol: stop when energy - reference <= gap_tol
    (None disables, the default).
    """

    max_m: int = 500
    sup_tol: float = 1e-10
    gap_tol: Optional[float] = None
    reference: float = 0.0


def _check(spec, valid, what: str) -> None:
    """Raise ValueError unless the value, or each value of a sequence, is valid."""
    for value in [spec] if isinstance(spec, (int, float, np.number)) else spec:
        if not valid(float(value)):
            raise ValueError(f"{what}, got {value}")


def _schedule_value(spec, m: int, what: str = "schedule") -> float:
    """Value of a per-iteration schedule given as a scalar or a sequence."""
    if isinstance(spec, (int, float, np.number)):
        return float(spec)
    if m > len(spec):
        raise ScheduleExhaustedError(f"{what} of length {len(spec)} exhausted at m={m}")
    return float(spec[m - 1])


@dataclass(frozen=True)
class WeaknessSequence:
    """Weakness parameters t_m in (0, 1], 1-based: a constant, a list
    (exhausted past its end) or, with exponent > 0, t_m = m^-exponent."""

    schedule: object = 1.0  # the constant or the list
    exponent: float = 0.0

    @classmethod
    def constant(cls, t: float) -> "WeaknessSequence":
        _check(t, lambda t: 0.0 < t <= 1.0, "t must be in (0, 1]")
        return cls(float(t))

    @classmethod
    def from_list(cls, ts: Sequence[float]) -> "WeaknessSequence":
        ts = tuple(float(t) for t in ts)
        _check(ts, lambda t: 0.0 < t <= 1.0, "every t must be in (0, 1]")
        return cls(ts)

    @classmethod
    def power(cls, exponent: float) -> "WeaknessSequence":
        _check(exponent, lambda e: e >= 0.0, "exponent must be >= 0")
        return cls(exponent=exponent)

    def t(self, m: int) -> float:
        if m < 1:
            raise ValueError(f"iterations are 1-based, got {m}")
        if self.exponent:
            return float(m) ** (-self.exponent)
        return _schedule_value(self.schedule, m, "weakness list")


WeaknessLike = Union[WeaknessSequence, float, Sequence[float]]


def as_weakness(spec: WeaknessLike) -> WeaknessSequence:
    if isinstance(spec, WeaknessSequence):
        return spec
    if isinstance(spec, (int, float)):
        return WeaknessSequence.constant(float(spec))
    return WeaknessSequence.from_list(spec)


# ---------------------------------------------------------------------------
# update rules


@dataclass
class Step:
    """Step m of a relaxed rule: G_m = alpha * G_{m-1} + lam * phi.

    With a slice base = alpha * G_{m-1}, lam = b * c[-1] for the minimizer c
    of E over base + sum_i c_i d_i, c in [lower, upper] for one direction;
    with shares[i] G_{m-1}'s coefficient in d_i (none: 0), alpha gains and
    the recorded w_or_r loses sum_i c_i shares[i]. b < 1 steps short of the
    solver's point, and a step with no slice (base None) has a fixed lam:
    both move to G_{m-1} + lam * phi.
    """

    base: Optional[np.ndarray]
    directions: tuple = ()
    lower: float = -math.inf
    upper: float = math.inf
    shares: tuple = ()
    alpha: float = 1.0
    w_or_r: float = math.nan
    b: float = 1.0
    lam: float = math.nan


class UpdateRule:
    """An update rule's config name and properties. monotone: E never rises,
    checked every step. convex: G_m stays in the convex hull of the signed
    atoms, so selection certifies the functional shifted by -G,
    <-E'(G), phi - G>, and the l1 mass is checked. orthogonal: E is
    re-minimized over the span of the selected atoms (the Chebyshev span
    path), so E'(G_m) is orthogonal to each. rated: the paper proves a
    convergence rate for the rule, and `theory.check_envelope` checks it."""

    name: str
    monotone = convex = orthogonal = rated = False
    selection = "gradient"


@dataclass(frozen=True)
class Chebyshev(UpdateRule):
    """G_m minimizes E over the span of all selected atoms."""

    subspace_tol: float = SUBSPACE_TOL

    name = "wcga"
    monotone = orthogonal = rated = True


@dataclass(frozen=True)
class ConvexRelaxation(UpdateRule):
    """G_m = (1 - lam) G_{m-1} + lam phi with the best lam in [0, 1]."""

    name = "wrga"
    monotone = convex = rated = True

    def step(self, G, phi, m) -> Step:
        return Step(G, (phi - G,), 0.0, 1.0, shares=(-1.0,))


@dataclass(frozen=True)
class FreeRelaxation(UpdateRule):
    """G_m = (1 - w) G_{m-1} + lam phi with the best (w, lam)."""

    name = "wgafr"
    monotone = rated = True

    def step(self, G, phi, m) -> Step:
        return Step(G, (G, phi), shares=(1.0, 0.0), w_or_r=0.0)


@dataclass(frozen=True)
class BestStep(UpdateRule):
    """G_m = G_{m-1} + c phi with the best c >= 0."""

    name = "best_step"
    monotone = True

    def step(self, G, phi, m) -> Step:
        return Step(G, (phi,), 0.0, math.inf)


@dataclass(frozen=True)
class ReducedStep(UpdateRule):
    """G_m = G_{m-1} + b c phi with BestStep's c."""

    b: float = 0.5

    name = "reduced_step"

    def __post_init__(self):
        _check(self.b, lambda b: 0.0 < b < 1.0, "b must be in (0, 1)")

    def step(self, G, phi, m) -> Step:
        return Step(G, (phi,), 0.0, math.inf, w_or_r=self.b, b=self.b)


@dataclass(frozen=True)
class FixedRelaxation(UpdateRule):
    """G_m = (1 - r_m) G_{m-1} + c phi with the best c."""

    schedule: object = 0.0  # r_m in [0, 1): scalar or sequence

    name = "fixed_relaxation"

    def __post_init__(self):
        _check(self.schedule, lambda r: 0.0 <= r < 1.0, "r_m must be in [0, 1)")

    def step(self, G, phi, m) -> Step:
        r = _schedule_value(self.schedule, m)
        return Step((1.0 - r) * G, (phi,), alpha=1.0 - r, w_or_r=r)


@dataclass(frozen=True)
class Prescribed(UpdateRule):
    """G_m = G_{m-1} + c_m phi, with phi selected by E' or, with
    selection "energy", by E(G_{m-1} + c_m phi)."""

    steps: object = 1.0  # c_m > 0: scalar or sequence
    selection: str = "gradient"  # "gradient" | "energy"

    name = "prescribed"

    def __post_init__(self):
        _check(self.steps, lambda c: c > 0.0, "prescribed step must be > 0")
        if self.selection not in ("gradient", "energy"):
            raise ValueError(f"unknown selection {self.selection!r}")

    def step(self, G, phi, m) -> Step:
        return Step(None, lam=_schedule_value(self.steps, m))


# config name -> rule class, in the order the classes are defined
RULES = {rule.name: rule for rule in UpdateRule.__subclasses__()}


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True)
class IterationRecord:
    m: int
    energy: float
    atom: Atom
    score: float
    sup_score: float
    weakness_ratio: float
    lam: float
    w_or_r: float
    l1_mass: float
    wall_ns: int
    coefficients: np.ndarray  # read-only, over the first len() of trace.atoms
    grad_inf: float = float("nan")


@dataclass
class RunTrace:
    algorithm: str
    objective_label: str
    stop_reason: StopReason
    initial_energy: float
    records: list = field(default_factory=list)
    atoms: list = field(default_factory=list)  # term atoms, in order
    point: Optional[np.ndarray] = None  # G at the last record

    @property
    def iterations(self) -> int:
        return len(self.records)

    def terms(self, i: int = -1) -> list:
        """Record i's (atom, coefficient) pairs."""
        return list(zip(self.atoms, self.records[i].coefficients.tolist()))

    def energies(self) -> np.ndarray:
        return np.array([r.energy for r in self.records], dtype=float)

    def gaps(self, reference: float = 0.0) -> np.ndarray:
        return self.energies() - reference

    def ms(self) -> np.ndarray:
        return np.array([r.m for r in self.records], dtype=int)


# ---------------------------------------------------------------------------
# driver


def run_greedy(
    objective: Objective,
    dictionary: Dictionary,
    weakness: WeaknessLike,
    rule: UpdateRule,
    stop: StopRule = StopRule(),
) -> RunTrace:
    """Run a greedy algorithm; see the module docstring for rule semantics."""
    tau = as_weakness(weakness)
    dim = objective.dimension
    if dictionary.ambient_dim != dim:
        raise ValueError(
            f"dictionary dim {dictionary.ambient_dim} != objective dim {dim}"
        )

    G = np.zeros(dim)
    coefficients = np.zeros(0)
    span = SpanFactor(dim) if rule.orthogonal else None
    span_result = None
    gradient = None  # E'(G), when the last solver handed it back
    trace = RunTrace(
        algorithm=rule.name,
        objective_label=objective.label,
        stop_reason=StopReason.MAX_ITERATIONS,
        initial_energy=math.nan,
    )
    try:
        e_prev = trace.initial_energy = objective.value(G)
    except NonFiniteEnergyError as exc:  # E(G_0) overflows: no record at all
        trace.stop_reason = StopReason.ABORTED
        raise GreedyRunError(0, trace, exc) from exc

    for m in range(1, stop.max_m + 1):
        t0 = time.perf_counter_ns()
        lam = w_or_r = grad_inf = math.nan

        try:
            t_m = tau.t(m)
            if gradient is None:
                gradient = objective.gradient(G)
            direction = -gradient

            # --- selection -------------------------------------------------
            if rule.selection == "energy":
                c_m = _schedule_value(rule.steps, m)
                atom = select_e_greedy_fixed(dictionary, objective, G, c_m)
                score = float(np.dot(direction, dictionary.realize(atom)))
                cert = SelectionCertificate(atom, score, math.nan, t_m, math.nan)
            else:
                # a convex rule's functional is shifted by -G: the same
                # argmax atom, but score and reference include the shift
                shift = float(np.dot(direction, G)) if rule.convex else 0.0
                cert = select_gradient_greedy(dictionary, direction, t_m, shift)
                if cert.reference <= stop.sup_tol:
                    trace.stop_reason = StopReason.SUP_SCORE_TOL
                    break

            atom = cert.atom
            phi = dictionary.realize(atom)

            # --- update: the span solve, or the rule's declared step -------
            if span is not None:
                position = _basis_position(dictionary, atom, phi, trace.atoms, span)
                if position is None:
                    trace.atoms.append(atom)
                    span.append(phi)
                    position = len(trace.atoms) - 1
                    x0 = np.zeros(1)
                    if span_result is not None:
                        x0 = np.append(span_result.coefficients, 0.0)
                    span_result = minimize_subspace(
                        objective, span, rule.subspace_tol, x0=x0
                    )
                G, energy = span_result.point, span_result.energy
                gradient = span_result.gradient
                coefficients = span_result.coefficients
                lam = float(coefficients[position])
                grad_inf = span_result.grad_inf
            else:
                step = rule.step(G, phi, m)
                alpha, lam, w_or_r = step.alpha, step.lam, step.w_or_r
                solved = None
                if step.base is not None:
                    solved = minimize_on_slice(
                        objective, step.base, step.directions, step.lower, step.upper
                    )
                    c = solved.coefficients.tolist()
                    gain = sum(c_i * share for c_i, share in zip(c, step.shares))
                    alpha, w_or_r = alpha + gain, w_or_r - gain
                    lam = step.b * c[-1]
                if solved is None or step.b != 1.0:
                    G = G + lam * phi
                    energy, gradient = objective.value(G), None
                else:
                    G, energy, gradient = solved.point, solved.energy, solved.gradient
                trace.atoms.append(atom)
                coefficients = np.append(alpha * coefficients, lam)
            coefficients.setflags(write=False)

            if rule.monotone and energy > e_prev + ENERGY_SLACK:
                raise MonotonicityError(
                    f"m={m}: energy rose {e_prev:.17g} -> {energy:.17g}"
                )
        except (LineSearchError, SubspaceToleranceError) as exc:
            trace.stop_reason = StopReason.INNER_FAILURE
            raise GreedyRunError(m, trace, exc) from exc
        except (
            NonFiniteEnergyError,
            WeaknessCertificationError,
            MonotonicityError,
            ScheduleExhaustedError,
        ) as exc:
            trace.stop_reason = StopReason.ABORTED
            raise GreedyRunError(m, trace, exc) from exc
        e_prev = energy

        trace.records.append(
            IterationRecord(
                m=m,
                energy=energy,
                atom=atom,
                score=cert.score,
                sup_score=cert.reference,
                weakness_ratio=cert.ratio,
                lam=lam,
                w_or_r=w_or_r,
                l1_mass=float(np.sum(np.abs(coefficients))),
                wall_ns=time.perf_counter_ns() - t0,
                coefficients=coefficients,
                grad_inf=grad_inf,
            )
        )
        trace.point = G

        if (
            stop.gap_tol is not None
            and energy - stop.reference <= stop.gap_tol
        ):
            trace.stop_reason = StopReason.GAP_TOL
            break

    return trace


def _basis_position(dictionary, atom, vec, atoms, span) -> Optional[int]:
    """Position of the basis column that already spans the atom (a rank-one
    merge reports the last column), or None when the atom is new."""
    if isinstance(dictionary, FiniteDictionary):
        for i, b in enumerate(atoms):
            if b.index == atom.index:
                return i
    else:
        for bv in span.basis.T:
            if abs(float(np.dot(vec, bv))) >= 1.0 - MERGE_COLINEAR_TOL:
                return len(atoms) - 1
    return None

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
basis; a finite dictionary's atom finds its basis position by its column
index in one dict. A merged atom leaves the span unchanged, so the previous
span solution, which met the contract on it, stands without a new solve.

Every solver hands back its point, and E and E' there: the run takes G and
E from the result, and E' as the next selection gradient. A slice whose base
is G_{m-1} is handed E and E' there, so its L-BFGS-B pass does not evaluate
its start again. G_0, a step short of the slice's minimizer and a step with
no slice evaluate both by one `Objective.value_and_gradient` call. The
selection's certificate carries the vector it scored, and the step moves
along it, so a step realizes its atom once; at a wcga fixed point the finite
dictionary hands back its last vector.

A record keeps its coefficients over the run's atoms (`RunTrace.atoms`), not
a copy of G: a relaxed rule appends its atom every step, with coefficients
(alpha * previous, lam); a Chebyshev run's atoms are its basis. An abort, an
exhausted weakness or step schedule included, raises `GreedyRunError` with
the records before it.

A step's vectors die with the step. Between steps the run holds only the
iterate (G, E(G), E'(G) and G's coefficients, one `SliceResult`; for the
Chebyshev rule it is the span solution), the span factor and the trace.
The selection direction -E'(G) lives only in `_select`, and the atom's
vector, the rule's `Step` and the slice result only in `_take_step`, so
none of them is alive during the next step.
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
    SliceResult,
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
    """A weakness or step schedule has no value for this iteration."""


@dataclass(frozen=True)
class StopRule:
    """Stopping configuration.

    sup_tol: stop when the selection's reference sup-score drops to this level
    (negative disables). gap_tol: stop when the energy, the gap to the optimum
    0 of every planted instance, is <= gap_tol (None disables, the default).
    """

    max_m: int = 500
    sup_tol: float = 1e-10
    gap_tol: Optional[float] = None

    def __post_init__(self):
        _check(self.max_m, lambda m: m >= 0, "max_m must be >= 0")
        if self.gap_tol is not None:
            _check(self.gap_tol, lambda g: g >= 0.0, "gap_tol must be >= 0")


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
    (exhausted past its end) or, with exponent > 0, t_m = m^-exponent
    (exhausted where it underflows to 0)."""

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
            t = float(m) ** (-self.exponent)
            if t == 0.0:
                raise ScheduleExhaustedError(
                    f"weakness m**-{self.exponent:g} underflows to 0 at m={m}"
                )
            return t
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
    """G_m minimizes E over the span of all selected atoms, to the span
    contract `inner_solvers.SUBSPACE_TOL`; it has no option."""

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
    """Run a greedy algorithm; see the module docstring for rule semantics.

    Each step is one `_take_step` call from the iterate (G, E(G), E'(G) and
    G's coefficients). Between steps the run holds that iterate, the span
    factor (Chebyshev) and the trace, and no other vector of a step."""
    tau = as_weakness(weakness)
    dim = objective.dimension
    if dictionary.ambient_dim != dim:
        raise ValueError(
            f"dictionary dim {dictionary.ambient_dim} != objective dim {dim}"
        )

    span = SpanFactor(dim) if rule.orthogonal else None
    positions = {}  # the Chebyshev basis: atom index -> position in trace.atoms
    trace = RunTrace(stop_reason=StopReason.MAX_ITERATIONS, initial_energy=math.nan)
    try:
        iterate = _evaluated(objective, np.zeros(0), np.zeros(dim))
    except NonFiniteEnergyError as exc:  # E or E' not finite at G_0: no record
        trace.stop_reason = StopReason.ABORTED
        raise GreedyRunError(0, trace, exc) from exc
    trace.initial_energy = iterate.energy
    mass = 0.0  # the iterate's l1 mass, which a merged wcga step keeps

    for m in range(1, stop.max_m + 1):
        t0 = time.perf_counter_ns()
        try:
            done = _take_step(
                objective, dictionary, rule, tau.t(m), stop.sup_tol, span,
                positions, trace.atoms, m, iterate, mass, t0,
            )
        except SubspaceToleranceError as exc:
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
        if done is None:
            trace.stop_reason = StopReason.SUP_SCORE_TOL
            break
        iterate, record = done
        mass = record.l1_mass
        trace.records.append(record)
        trace.point = iterate.point

        if stop.gap_tol is not None and iterate.energy <= stop.gap_tol:
            trace.stop_reason = StopReason.GAP_TOL
            break

    return trace


def _evaluated(objective, coefficients, point) -> SliceResult:
    """The iterate at `point`, E and E' by one `value_and_gradient` call."""
    return SliceResult(coefficients, point, *objective.value_and_gradient(point))


def _take_step(objective, dictionary, rule, t_m, sup_tol, span, positions, atoms,
               m, it, mass, t0):
    """Step m from the iterate `it` (G_{m-1}, E and E' there, and G_{m-1}'s
    coefficients over `atoms`, whose l1 mass is `mass`; for the Chebyshev
    rule, `positions` maps each basis atom's index to its position in
    `atoms`): select an atom, move by the rule, check. Returns (G_m's
    iterate, record m), or None when the selection's reference is at
    sup_tol. The atom's vector, the rule's `Step` and the slice result are
    locals of this call, so they are gone before the next selection."""
    cert = _select(objective, dictionary, rule, it, t_m, m)
    if cert.reference <= sup_tol:  # NaN for energy selection: never
        return None
    atom, phi = cert.atom, cert.vector
    w_or_r = math.nan

    # --- update: the span solve, or the rule's declared step ---------------
    if span is not None:
        new = it
        position = _basis_position(dictionary, atom, phi, positions, span)
        if position is None:
            position = positions[atom.index] = len(atoms)
            atoms.append(atom)
            span.append(phi)
            x0 = np.append(it.coefficients, 0.0)
            new = minimize_subspace(objective, span, x0=x0)
        lam = float(new.coefficients[position])
    else:
        step = rule.step(it.point, phi, m)
        alpha, lam, w_or_r = step.alpha, step.lam, step.w_or_r
        solved = None
        if step.base is not None:
            solved = minimize_on_slice(
                objective, step.base, step.directions, step.lower, step.upper,
                (it.energy, it.gradient) if step.base is it.point else None,
            )
            c = solved.coefficients.tolist()
            gain = sum(c_i * share for c_i, share in zip(c, step.shares))
            alpha, w_or_r = alpha + gain, w_or_r - gain
            lam = step.b * c[-1]
        coefficients = np.empty(len(it.coefficients) + 1)
        np.multiply(alpha, it.coefficients, out=coefficients[:-1])
        coefficients[-1] = lam  # the bits of np.append(alpha * c, lam)
        if solved is None or step.b != 1.0:
            new = _evaluated(objective, coefficients, it.point + lam * phi)
        else:
            new = SliceResult(
                coefficients, solved.point, solved.energy, solved.gradient
            )
        atoms.append(atom)
    new.coefficients.setflags(write=False)

    if rule.monotone and new.energy > it.energy + ENERGY_SLACK:
        raise MonotonicityError(
            f"m={m}: energy rose {it.energy:.17g} -> {new.energy:.17g}"
        )
    if new is not it:  # a merged wcga step keeps the iterate and its mass
        mass = float(np.abs(new.coefficients).sum())
    return new, IterationRecord(
        m=m,
        energy=new.energy,
        atom=atom,
        score=cert.score,
        sup_score=cert.reference,
        weakness_ratio=cert.ratio,
        lam=lam,
        w_or_r=w_or_r,
        l1_mass=mass,
        wall_ns=time.perf_counter_ns() - t0,
        coefficients=new.coefficients,
        grad_inf=new.grad_inf,
    )


def _select(objective, dictionary, rule, it, t_m, m) -> SelectionCertificate:
    """Step m's selection at the iterate `it`: its certificate, whose vector
    the step moves along. The direction -E'(G) lives only in this call, so
    it is gone before the step's update."""
    direction = -it.gradient
    if rule.selection == "energy":
        c_m = _schedule_value(rule.steps, m)
        atom = select_e_greedy_fixed(dictionary, objective, it.point, c_m)
        phi = dictionary.realize(atom)
        score = float(np.dot(direction, phi))
        return SelectionCertificate(atom, score, math.nan, math.nan, phi)
    # a convex rule's functional is shifted by -G: the same argmax atom, but
    # score and reference include the shift
    shift = float(direction.dot(it.point)) if rule.convex else 0.0
    return select_gradient_greedy(dictionary, direction, t_m, shift)


def _basis_position(dictionary, atom, vec, positions, span) -> Optional[int]:
    """Position of the basis column that already spans the atom, or None
    when the atom is new. A finite dictionary's atom is looked up by its
    column index in `positions` (index -> position), in O(1); a rank-one
    atom (index -1 for all of them) merges when it is colinear with a basis
    column, and the merge reports the last column."""
    if isinstance(dictionary, FiniteDictionary):
        return positions.get(atom.index)
    for bv in span.basis.T:
        if abs(float(np.dot(vec, bv))) >= 1.0 - MERGE_COLINEAR_TOL:
            return span.size - 1
    return None

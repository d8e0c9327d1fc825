"""Greedy approximation drivers over symmetric dictionaries.

Every driver shares the same skeleton: G_0 = 0; at step m select an atom
(gradient-greedy with weakness t_m, or energy-greedy for the prescribed-step
variant), then move according to the update rule:

  Chebyshev        re-minimize E over the span of all selected atoms
  ConvexRelaxation G_m = (1 - lam) G_{m-1} + lam phi, lam in [0, 1]
  FreeRelaxation   G_m = (1 - w) G_{m-1} + lam phi, (w, lam) jointly optimal
  BestStep         G_m = G_{m-1} + c phi with c from exact line search
  ReducedStep      as BestStep but apply b * c, 0 < b < 1
  FixedRelaxation  G_m = (1 - r_m) G_{m-1} + c phi, c from line search
  Prescribed       G_m = G_{m-1} + c_m phi with c_m given up front

Selection is `select_gradient_greedy` for every gradient rule; the convex
relaxation certifies the functional shifted by -G, <-E'(G), phi - G>. The
five line-search and relaxation rules each name a slice (a segment, a ray, a
line or the plane span{G_{m-1}, phi}) and hand it to
`inner_solvers.minimize_on_slice`, together with E(G) when the slice starts
at G. Only the Chebyshev span solve, `minimize_subspace`, is separate: the
run keeps one `SpanFactor`, the basis and its thin QR, and appends a column
only for an atom that does not merge into the basis. A merged atom leaves the
span unchanged, so the previous span solution, which met the contract on it,
stands without a new solve.

Every solver hands back its point, E there and, where it evaluated it, E'
there: the run takes G and E from the result, and E' as the next selection
gradient. Only reduced_step and prescribed, which do not move to a solver's
point, evaluate E themselves, and E' at the next step.

A record keeps its coefficients over the run's atoms (`RunTrace.atoms`), not
a copy of G. A relaxed rule appends its atom every step, with coefficients
(alpha * previous, lam) for its factor alpha; a Chebyshev run's atoms are its
basis. An abort raises `GreedyRunError` with the records before it.
"""
from __future__ import annotations

import enum
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
    synthesis_l1,
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


@dataclass(frozen=True)
class WeaknessSequence:
    """Weakness parameters t_m in (0, 1], 1-based.

    kinds: "constant", "list" (errors past the end of the list), or "power"
    (t_m = m^-exponent with exponent >= 0).
    """

    kind: str
    value: float = 1.0
    values: tuple = ()
    exponent: float = 0.0

    @classmethod
    def constant(cls, t: float) -> "WeaknessSequence":
        if not (0.0 < t <= 1.0):
            raise ValueError(f"t must be in (0, 1], got {t}")
        return cls(kind="constant", value=t)

    @classmethod
    def from_list(cls, ts: Sequence[float]) -> "WeaknessSequence":
        ts = tuple(float(t) for t in ts)
        for t in ts:
            if not (0.0 < t <= 1.0):
                raise ValueError(f"every t must be in (0, 1], got {t}")
        return cls(kind="list", values=ts)

    @classmethod
    def power(cls, exponent: float) -> "WeaknessSequence":
        if exponent < 0.0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        return cls(kind="power", exponent=exponent)

    def t(self, m: int) -> float:
        if m < 1:
            raise ValueError(f"iterations are 1-based, got {m}")
        if self.kind == "constant":
            return self.value
        if self.kind == "list":
            if m > len(self.values):
                raise ValueError(
                    f"weakness list of length {len(self.values)} exhausted at m={m}"
                )
            return self.values[m - 1]
        if self.kind == "power":
            return float(m) ** (-self.exponent)
        raise ValueError(f"unknown weakness kind {self.kind!r}")


WeaknessLike = Union[WeaknessSequence, float, Sequence[float]]


def as_weakness(spec: WeaknessLike) -> WeaknessSequence:
    if isinstance(spec, WeaknessSequence):
        return spec
    if isinstance(spec, (int, float)):
        return WeaknessSequence.constant(float(spec))
    return WeaknessSequence.from_list(spec)


def _schedule_value(spec, m: int) -> float:
    """Value of a per-iteration schedule given as a scalar or a sequence."""
    if isinstance(spec, (int, float)):
        return float(spec)
    if m > len(spec):
        raise ValueError(f"schedule of length {len(spec)} exhausted at m={m}")
    return float(spec[m - 1])


# ---------------------------------------------------------------------------
# update rules


@dataclass(frozen=True)
class Chebyshev:
    subspace_tol: float = SUBSPACE_TOL


@dataclass(frozen=True)
class ConvexRelaxation:
    """wrga: G_m = (1 - lam) G_{m-1} + lam phi with the best lam in [0, 1]."""


@dataclass(frozen=True)
class FreeRelaxation:
    """wgafr: G_m = (1 - w) G_{m-1} + lam phi with the best (w, lam)."""


@dataclass(frozen=True)
class BestStep:
    """G_m = G_{m-1} + c phi with the best c >= 0."""


@dataclass(frozen=True)
class ReducedStep:
    b: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.b < 1.0):
            raise ValueError(f"b must be in (0, 1), got {self.b}")


def _check_schedule(spec, valid, what: str) -> None:
    """Raise ValueError unless every value of the schedule is valid."""
    for value in [spec] if isinstance(spec, (int, float)) else spec:
        if not valid(float(value)):
            raise ValueError(f"{what}, got {value}")


@dataclass(frozen=True)
class FixedRelaxation:
    schedule: object = 0.0  # r_m in [0, 1): scalar or sequence

    def __post_init__(self):
        _check_schedule(
            self.schedule, lambda r: 0.0 <= r < 1.0, "r_m must be in [0, 1)"
        )


@dataclass(frozen=True)
class Prescribed:
    steps: object = 1.0  # c_m > 0: scalar or sequence
    selection: str = "gradient"  # "gradient" | "energy"

    def __post_init__(self):
        _check_schedule(self.steps, lambda c: c > 0.0, "prescribed step must be > 0")
        if self.selection not in ("gradient", "energy"):
            raise ValueError(f"unknown selection {self.selection!r}")


UpdateRule = Union[
    Chebyshev,
    ConvexRelaxation,
    FreeRelaxation,
    BestStep,
    ReducedStep,
    FixedRelaxation,
    Prescribed,
]

# rules with a per-step non-increase guarantee, enforced at runtime
MONOTONE_RULES = (Chebyshev, ConvexRelaxation, FreeRelaxation, BestStep)


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


def _rule_name(rule: UpdateRule) -> str:
    return {
        Chebyshev: "wcga",
        ConvexRelaxation: "wrga",
        FreeRelaxation: "wgafr",
        BestStep: "best_step",
        ReducedStep: "reduced_step",
        FixedRelaxation: "fixed_relaxation",
        Prescribed: "prescribed",
    }[type(rule)]


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
    span = SpanFactor(dim) if isinstance(rule, Chebyshev) else None
    span_result = None
    e_prev = objective.value(G)
    gradient = None  # E'(G), when the last solver handed it back
    trace = RunTrace(
        algorithm=_rule_name(rule),
        objective_label=objective.label,
        stop_reason=StopReason.MAX_ITERATIONS,
        initial_energy=e_prev,
    )

    for m in range(1, stop.max_m + 1):
        t0 = time.perf_counter_ns()
        t_m = tau.t(m)
        lam = w_or_r = grad_inf = float("nan")
        alpha = 1.0  # a relaxed rule's factor on the previous coefficients

        try:
            if gradient is None:
                gradient = objective.gradient(G)
            direction = -gradient

            # --- selection -------------------------------------------------
            sup_for_stop: Optional[float] = None
            if isinstance(rule, Prescribed) and rule.selection == "energy":
                lam = _schedule_value(rule.steps, m)
                atom = select_e_greedy_fixed(dictionary, objective, G, lam)
                score = float(np.dot(direction, dictionary.realize(atom)))
                cert = SelectionCertificate(
                    atom, score, float("nan"), t_m, float("nan")
                )
            else:
                # wrga's functional is shifted by -G: the same argmax atom,
                # but score and reference include the shift
                shift = (
                    float(np.dot(direction, G))
                    if isinstance(rule, ConvexRelaxation)
                    else 0.0
                )
                cert = select_gradient_greedy(dictionary, direction, t_m, shift)
                sup_for_stop = cert.reference

            if sup_for_stop is not None and sup_for_stop <= stop.sup_tol:
                trace.stop_reason = StopReason.SUP_SCORE_TOL
                break

            atom = cert.atom
            phi = dictionary.realize(atom)

            # --- update: a solver's result, or G + lam * phi ---------------
            step = None
            if isinstance(rule, Chebyshev):
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
                step = span_result
                coefficients = step.coefficients
                lam = float(coefficients[position])
                grad_inf = step.grad_inf
            elif isinstance(rule, ConvexRelaxation):
                step = minimize_on_slice(objective, G, (phi - G,), 0.0, 1.0, e_prev)
                (lam,) = step.coefficients.tolist()
                alpha = 1.0 - lam
            elif isinstance(rule, FreeRelaxation):
                step = minimize_on_slice(objective, G, (G, phi), energy=e_prev)
                minus_w, lam = step.coefficients.tolist()
                w_or_r = 0.0 - minus_w  # 0.0 - c: no -0.0 when c = 0
                alpha = 1.0 - w_or_r
            elif isinstance(rule, (BestStep, ReducedStep)):
                step = minimize_on_slice(objective, G, (phi,), 0.0, np.inf, e_prev)
                (lam,) = step.coefficients.tolist()
                if isinstance(rule, ReducedStep):
                    lam *= rule.b
                    w_or_r = rule.b
                    step = None
            elif isinstance(rule, FixedRelaxation):
                w_or_r = _schedule_value(rule.schedule, m)
                alpha = 1.0 - w_or_r
                step = minimize_on_slice(objective, alpha * G, (phi,))
                (lam,) = step.coefficients.tolist()
            elif isinstance(rule, Prescribed) and rule.selection == "gradient":
                lam = _schedule_value(rule.steps, m)
            if step is None:
                G = G + lam * phi
                energy, gradient = objective.value(G), None
            else:
                G, energy, gradient = step.point, step.energy, step.gradient
            if not isinstance(rule, Chebyshev):
                trace.atoms.append(atom)
                coefficients = np.append(alpha * coefficients, lam)
            coefficients.setflags(write=False)

            if isinstance(rule, MONOTONE_RULES) and energy > e_prev + ENERGY_SLACK:
                raise MonotonicityError(
                    f"m={m}: energy rose {e_prev:.17g} -> {energy:.17g}"
                )
        except (LineSearchError, SubspaceToleranceError) as exc:
            trace.stop_reason = StopReason.INNER_FAILURE
            raise GreedyRunError(m, trace, exc) from exc
        except (
            NonFiniteEnergyError, WeaknessCertificationError, MonotonicityError
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
                l1_mass=synthesis_l1(coefficients),
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

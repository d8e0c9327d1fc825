"""Symmetric dictionaries and greedy atom selection with weakness certificates.

Two dictionary flavors: an explicit finite set of +-column atoms, and the
implicit rank-one dictionary {+- u v^T : ||u||_2 = ||v||_2 = 1} over flattened
n x n matrices (its convex hull is the nuclear-norm ball).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .objectives import Objective

WEAKNESS_SLACK = 1e-10
RAYLEIGH_TOL = 1e-10
COLINEAR_TOL = 1e-10


class WeaknessCertificationError(RuntimeError):
    """Selected atom cannot be certified at the requested weakness."""


class UnsupportedDictionaryError(TypeError):
    """Operation requires an explicit finite dictionary."""


@dataclass(frozen=True, eq=False)
class Atom:
    """A signed dictionary element.

    Finite dictionaries key atoms by column index; rank-one atoms carry their
    unit factor pair (index is -1). sign is +1 or -1.
    """

    index: int
    sign: int
    factors: Optional[tuple] = None

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +-1, got {self.sign}")

    def __eq__(self, other):
        if not isinstance(other, Atom):
            return NotImplemented
        if (self.index, self.sign) != (other.index, other.sign):
            return False
        if (self.factors is None) != (other.factors is None):
            return False
        if self.factors is None:
            return True
        return all(
            np.array_equal(a, b) for a, b in zip(self.factors, other.factors)
        )

    def __hash__(self):
        return hash((self.index, self.sign))

    def flipped(self) -> "Atom":
        return Atom(self.index, -self.sign, self.factors)


@dataclass(frozen=True)
class SelectionCertificate:
    """Records what a greedy selection achieved.

    score: <w, realize(atom)> for the selected atom.
    reference: exact sup over the dictionary (finite) or the certified
        power-iteration Rayleigh value (rank-one, converged); Frobenius upper
        bound when the iteration cap was hit unconverged.
    weakness: the t_m the selection claims.
    ratio: score / reference (1.0 when the reference is 0).
    converged: False only for a capped rank-one power iteration.
    """

    atom: Atom
    score: float
    reference: float
    weakness: float
    ratio: float
    converged: bool = True


class FiniteDictionary:
    """Explicit dictionary of unit columns, used with both signs."""

    def __init__(self, columns: np.ndarray, norm: Optional[Callable] = None):
        cols = np.asarray(columns, dtype=float)
        if cols.ndim != 2 or cols.shape[1] == 0:
            raise ValueError("columns must be a nonempty (k, n) matrix")
        measure = norm if norm is not None else (
            lambda c: float(np.linalg.norm(c))
        )
        for j in range(cols.shape[1]):
            nj = measure(cols[:, j])
            if abs(nj - 1.0) > 1e-12:
                raise ValueError(f"column {j} has norm {nj}, expected 1")
        self._columns = cols.copy()
        self._columns.setflags(write=False)

    @classmethod
    def from_matrix(cls, raw: np.ndarray) -> "FiniteDictionary":
        """Column-normalize (l2) an arbitrary matrix; zero columns rejected."""
        raw = np.asarray(raw, dtype=float)
        norms = np.linalg.norm(raw, axis=0)
        if np.any(norms == 0.0):
            raise ValueError("zero column cannot be normalized")
        return cls(raw / norms)

    @classmethod
    def from_gaussian(cls, k: int, n: int, seed: int) -> "FiniteDictionary":
        rng = np.random.default_rng(seed)
        return cls.from_matrix(rng.standard_normal((k, n)))

    @classmethod
    def from_csv(cls, path) -> "FiniteDictionary":
        with open(path, newline="") as fh:
            rows = [[float(v) for v in row] for row in csv.reader(fh) if row]
        return cls.from_matrix(np.asarray(rows))

    @property
    def ambient_dim(self) -> int:
        return self._columns.shape[0]

    @property
    def size(self) -> int:
        return self._columns.shape[1]

    @property
    def columns(self) -> np.ndarray:
        return self._columns

    def realize(self, atom: Atom) -> np.ndarray:
        if not (0 <= atom.index < self.size):
            raise IndexError(f"atom index {atom.index} out of range")
        return atom.sign * self._columns[:, atom.index]

    def certified_sup(self, w: np.ndarray):
        """(value, atom, upper, converged): exact sup of <w, g> over +-columns.

        Ties break to the lowest index; a zero (or fully orthogonal) w maps to
        atom(0, +1) with value 0.
        """
        w = np.asarray(w, dtype=float)
        scores = self._columns.T @ w
        j = int(np.argmax(np.abs(scores)))
        value = float(abs(scores[j]))
        sign = 1 if scores[j] >= 0.0 else -1
        return value, Atom(j, sign), value, True


def power_top_singular(
    W: np.ndarray,
    tol: float = RAYLEIGH_TOL,
    max_iter: Optional[int] = None,
):
    """Top singular triple of W by power iteration on W^T W.

    Start vector: W^T W applied to the ones vector (deterministic), with unit
    basis fallbacks if that lands in the kernel. Stops when the Rayleigh value
    ||W v|| stabilizes to relative tol or after max_iter (default 10 n)
    iterations. Returns (u, v, sigma, converged, iterations); sigma is the
    certified lower bound ||W v|| <= sigma_max.
    """
    W = np.asarray(W, dtype=float)
    n = W.shape[1]
    cap = max_iter if max_iter is not None else 10 * n

    v = W.T @ (W @ np.ones(n))
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        for j in range(n):
            cand = W.T @ (W @ np.eye(n)[j])
            nc = float(np.linalg.norm(cand))
            if nc > 0.0:
                v, nv = cand, nc
                break
        else:  # W == 0
            u0 = np.zeros(W.shape[0])
            u0[0] = 1.0
            e0 = np.zeros(n)
            e0[0] = 1.0
            return u0, e0, 0.0, True, 0
    v /= nv

    sigma = float(np.linalg.norm(W @ v))
    converged = False
    it = 0
    for it in range(1, cap + 1):
        z = W.T @ (W @ v)
        nz = float(np.linalg.norm(z))
        if nz == 0.0:
            converged = True
            break
        v = z / nz
        new = float(np.linalg.norm(W @ v))
        if abs(new - sigma) <= tol * max(new, 1e-300):
            sigma = new
            converged = True
            break
        sigma = new

    Wv = W @ v
    nu = float(np.linalg.norm(Wv))
    u = Wv / nu if nu > 0.0 else np.eye(W.shape[0])[0]
    return u, v, sigma, converged, it


SUP_ITERATION_BUDGET = 5000


class RankOneDictionary:
    """Implicit dictionary {+- u v^T} over flattened n x n matrices.

    Selection budget: greedy residuals develop clustered top singular values,
    where Rayleigh stagnation needs far more than the 10*n sweeps that suffice
    for generic matrices, so the dictionary defaults to a generous cap. A
    selection that still fails to stabilize is certified against the Frobenius
    upper bound and errors out if the weakness cannot be met.
    """

    def __init__(self, side: int, tol: float = RAYLEIGH_TOL,
                 max_iter: Optional[int] = None):
        if side < 1:
            raise ValueError("side must be >= 1")
        self.side = side
        self.tol = tol
        self.max_iter = (
            max(10 * side, SUP_ITERATION_BUDGET) if max_iter is None else max_iter
        )

    @property
    def ambient_dim(self) -> int:
        return self.side * self.side

    def realize(self, atom: Atom) -> np.ndarray:
        if atom.factors is None:
            raise ValueError("rank-one atom requires (u, v) factors")
        u, v = atom.factors
        return atom.sign * np.outer(u, v).ravel()

    def certified_sup(self, w: np.ndarray):
        """(value, atom, upper, converged) with value = Rayleigh lower bound
        of sigma_max(W), upper = ||W||_F, W = reshape(w)."""
        W = np.asarray(w, dtype=float).reshape(self.side, self.side)
        upper = float(np.linalg.norm(W))
        if upper == 0.0:
            u0 = np.zeros(self.side)
            u0[0] = 1.0
            return 0.0, Atom(-1, 1, (u0.copy(), u0.copy())), 0.0, True
        u, v, sigma, converged, _ = power_top_singular(
            W, self.tol, self.max_iter
        )
        return sigma, Atom(-1, 1, (u, v)), upper, converged


Dictionary = FiniteDictionary | RankOneDictionary


def select_gradient_greedy(
    dictionary: Dictionary,
    direction: np.ndarray,
    weakness: float,
    shift: float = 0.0,
) -> SelectionCertificate:
    """Pick an atom with <direction, g> - shift >= weakness * (sup - shift),
    certified.

    direction is -E'(G) in the greedy drivers; the convex relaxation passes
    shift = <direction, G>, which is constant over the dictionary, so it
    moves score and reference but not the selected atom. For finite
    dictionaries the argmax is exact (ratio 1). For rank-one, a converged
    power iteration certifies against its Rayleigh value; if the cap was hit
    unconverged, the certificate is checked against the Frobenius upper bound
    and the selection fails loudly when weakness cannot be certified.
    """
    if not (0.0 < weakness <= 1.0):
        raise ValueError(f"weakness must be in (0, 1], got {weakness}")
    value, atom, upper, converged = dictionary.certified_sup(direction)
    score = float(np.dot(direction, dictionary.realize(atom))) - shift
    reference = (value if converged else upper) - shift
    ratio = 1.0 if reference == 0.0 else score / reference
    if score < weakness * reference - WEAKNESS_SLACK:
        raise WeaknessCertificationError(
            f"achieved {score:.6e} < t * reference = "
            f"{weakness * reference:.6e} (converged={converged})"
        )
    return SelectionCertificate(atom, score, reference, weakness, ratio, converged)


def select_e_greedy(
    dictionary: FiniteDictionary,
    objective: Objective,
    current: np.ndarray,
    tol: float = 1e-10,
) -> tuple[Atom, float]:
    """Energy-greedy step: the atom whose exactly line-searched energy
    inf_c E(current + c * atom) is minimal, with its optimal step c.

    Finite dictionaries only. Because c ranges over all reals, an atom and
    its negation reach the same minimum, so the positive-sign atom is always
    reported and c carries the sign; ties break to the lowest index.
    """
    from .inner_solvers import line_search

    if not isinstance(dictionary, FiniteDictionary):
        raise UnsupportedDictionaryError(
            "energy-greedy selection needs an explicit finite dictionary"
        )
    best: Optional[tuple[Atom, float]] = None
    best_energy = np.inf
    for j in range(dictionary.size):
        atom = Atom(j, 1)
        phi = dictionary.realize(atom)

        def phi_c(c, phi=phi):
            return objective.value(current + c * phi)

        def dphi_c(c, phi=phi):
            return float(np.dot(objective.gradient(current + c * phi), phi))

        res = line_search(phi_c, dphi_c, tol=tol)
        if res.value < best_energy:
            best = (atom, res.argmin)
            best_energy = res.value
    return best


def select_e_greedy_fixed(
    dictionary: FiniteDictionary,
    objective: Objective,
    current: np.ndarray,
    step: float,
) -> Atom:
    """argmin over signed atoms of E(current + step * g) at a fixed step,
    as used by the prescribed-step rule. Ties break to the lowest index,
    positive sign first.
    """
    if not isinstance(dictionary, FiniteDictionary):
        raise UnsupportedDictionaryError(
            "energy-greedy selection needs an explicit finite dictionary"
        )
    if not (step > 0.0):
        raise ValueError(f"step must be > 0, got {step}")
    best_atom, best_energy = None, np.inf
    for j in range(dictionary.size):
        for sign in (1, -1):
            atom = Atom(j, sign)
            e = objective.value(current + step * dictionary.realize(atom))
            if e < best_energy:
                best_atom, best_energy = atom, e
    return best_atom


def synthesis_l1(coefficients: Iterable[float]) -> float:
    """l1 mass of a synthesis coefficient sequence."""
    return float(np.sum(np.abs(np.fromiter(coefficients, dtype=float))))

"""Symmetric dictionaries and greedy atom selection with weakness certificates.

Two dictionary flavors: an explicit finite set of +-column atoms, and the
implicit rank-one dictionary {+- u v^T : ||u||_2 = ||v||_2 = 1} over flattened
n x n matrices (its convex hull is the nuclear-norm ball). Each answers
`certified_sup(w)` with (value, atom, upper): the atom's score, the atom, and
an upper bound on the sup of <w, g> over the dictionary. A finite dictionary
is searched exactly (upper == value). The rank-one one takes s_1 from a
values-only SVD, widened by a backward-error margin, as upper, and its atom
from one shifted inverse-iteration solve on (W / s_1)^T (W / s_1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np
from scipy.linalg.lapack import dgesv, dgetrs

from .objectives import Objective, lr_norm

WEAKNESS_SLACK = 1e-10  # relative; see select_gradient_greedy
# backward-error factor c of the SVD's top singular value, also the shift's;
# see RankOneDictionary.certified_sup
SVD_ERROR_FACTOR = 4.0
# columns per block of lr_column_norms: its temporaries stay this many
# columns wide whatever the dictionary's size; FiniteDictionary's l_r check
# takes blocks of rows of as many entries
LR_NORM_BLOCK = 16
_EPS = float(np.finfo(float).eps)
# lr_column_norms divides each column by its max clipped to this range, so a
# zero column divides 0 and an infinite one keeps inf, with no 0/0 or inf/inf
_TOP_RANGE = (float(np.nextafter(0.0, 1.0)), float(np.finfo(float).max))


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


@dataclass(frozen=True)
class SelectionCertificate:
    """Records what a greedy selection achieved.

    score: <w, realize(atom)> - shift for the selected atom.
    reference: an upper bound on sup_g <w, g> - shift over the dictionary:
        the exact sup for finite dictionaries, the SVD's s_1 widened
        by a backward-error margin for rank-one. For wrga (shift = <w, G>)
        it bounds the Frank-Wolfe duality gap.
    ratio: score / reference (1.0 when the reference is 0).
    vector: realize(atom), the vector the score was computed from, which
        the greedy drivers step along instead of realizing the atom again.
    """

    atom: Atom
    score: float
    reference: float
    ratio: float
    vector: np.ndarray = field(compare=False, repr=False)


def column_norms(a: np.ndarray) -> np.ndarray:
    """l2 norm of each column of a 2-D array: the bits of
    np.linalg.norm(a, axis=0) without its k x n array of squares.

    On a C-ordered array of two or more columns both sum each column's
    squares row by row, so einsum gives the same bits; on any other layout
    numpy's reduction runs down the column in another order, so that case
    keeps np.linalg.norm."""
    if a.flags.c_contiguous and a.shape[1] > 1:
        return np.sqrt(np.einsum("ij,ij->j", a, a))
    return np.linalg.norm(a, axis=0)


def lr_column_norms(a: np.ndarray, r: float) -> np.ndarray:
    """l_r norm of each column of a 2-D array: the bits of
    objectives.lr_norm on each column, LR_NORM_BLOCK columns at a time.

    Each block is copied into C-ordered rows, so every column is scaled by
    its max and summed as a contiguous vector, as lr_norm sums it; a
    Fortran-ordered sum runs in another order. The root is taken per column
    on a numpy scalar, as lr_norm takes it: numpy's array power differs
    from it by one ulp on some columns. A column with an infinite entry has
    norm inf, as in lr_norm."""
    norms = np.empty(a.shape[1])
    inv = 1.0 / r
    for j in range(0, a.shape[1], LR_NORM_BLOCK):
        block = np.abs(a[:, j : j + LR_NORM_BLOCK].T, order="C")
        top = block.max(axis=1, initial=0.0)
        block /= np.minimum(np.maximum(top, _TOP_RANGE[0]), _TOP_RANGE[1])[:, None]
        block **= r
        roots = [float(s**inv) for s in block.sum(axis=1)]
        norms[j : j + LR_NORM_BLOCK] = top * np.array(roots)
    return norms


def _lr_check_norms(a: np.ndarray, r: float) -> np.ndarray:
    """l_r norm of each column of a (k, n) array for FiniteDictionary's
    unit check: |a_ij|^r summed unscaled, max(1, LR_NORM_BLOCK * k // n)
    rows at a time, so the temporaries are one block of as many entries as
    one of lr_column_norms' and one row of sums.

    No entry of a unit column exceeds 1, so its sum cannot overflow, and a
    term that underflows is below 1e-300. A column whose sum overflows to
    inf or underflows to 0 is far from unit and fails either way, so
    overflow is ignored."""
    k, n = a.shape
    rows = max(1, LR_NORM_BLOCK * k // n)
    block = np.empty((min(rows, k), n))
    sums = np.zeros(n)
    with np.errstate(over="ignore"):
        for i in range(0, k, rows):
            part = np.abs(a[i : i + rows], out=block[: min(rows, k - i)])
            part **= r
            for row in part:
                sums += row
    sums **= 1.0 / r
    return sums


def unit_columns(raw: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Divide raw's columns by their norms in place (`column_norms` for l2,
    `lr_column_norms` for l_r); a zero norm is rejected.

    The bits of raw / norms, with no array of raw's size allocated. It
    divides row by row: a broadcast division allocates a 64 KB ufunc
    buffer, an eighth of a 128 x 512 matrix."""
    if np.any(norms == 0.0):
        raise ValueError("zero column cannot be normalized")
    for row in raw:
        row /= norms
    return raw


class FiniteDictionary:
    """Explicit dictionary of unit columns, used with both signs.

    The dictionary keeps its columns as one read-only C-ordered float64
    array. A float64 C-ordered ndarray that owns its data is adopted, not
    copied: it is frozen in place, so a later write through the caller's
    reference raises. Views made of it before the call stay writable, so
    pass a copy if you keep writing to yours. Any other input (a view, a
    list, another dtype or layout) is copied once.

    Columns must have unit norm in l_r, for 1 < r < inf (any other r
    raises ValueError, as in make_norm_power): a column is rejected unless
    |norm - 1| <= 1e-12, so a NaN or infinite norm fails too. l2, the
    default, takes `column_norms`. Any other r > 1 takes `_lr_check_norms`,
    one pass over blocks of rows that sums |c_ij|^r unscaled and takes the
    r-th root: an accurate norm, not lr_norm's bits, which only the
    normalization that defines an instance needs (`lr_column_norms`). With
    k rows and u = 2^-53, each power is within an ulp (2u relative), the
    row-order sum of k nonnegative terms within (k - 1) u and the root
    within an ulp, so the norm is within about (k / r + 3) u of the true
    one: under 2e-13, a fifth of the tolerance, for k up to 1000. The error
    names the first bad column with its lr_norm.
    """

    def __init__(self, columns: np.ndarray, r: float = 2.0):
        if not 1.0 < r < math.inf:
            raise ValueError(f"r must be in (1, inf), got {r}")
        adopt = (
            type(columns) is np.ndarray
            and columns.dtype == np.float64
            and columns.flags.owndata
            and columns.flags.c_contiguous
        )
        cols = columns if adopt else np.array(columns, dtype=float, order="C")
        if cols.ndim != 2 or cols.shape[1] == 0:
            raise ValueError("columns must be a nonempty (k, n) matrix")
        norms = column_norms(cols) if r == 2.0 else _lr_check_norms(cols, r)
        unit = np.abs(norms - 1.0) <= 1e-12
        if not unit.all():
            j = int(unit.argmin())
            norm = norms[j] if r == 2.0 else lr_norm(cols[:, j], r)
            raise ValueError(f"column {j} has norm {norm}, expected 1")
        cols.setflags(write=False)
        self._columns = cols
        self._last = (None, None)  # bytes of the last query, and its answer
        self._realized = (None, None)  # the last atom realized, and its vector

    @classmethod
    def from_matrix(cls, raw: np.ndarray) -> "FiniteDictionary":
        """Column-normalize (l2) a copy of raw, which the dictionary then
        adopts; zero columns rejected."""
        a = np.array(raw, dtype=float)
        return cls(unit_columns(a, column_norms(a)))

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
        """sign * column, read-only. The atom object realized last (the one
        `certified_sup` hands back again at a wcga fixed point) gets the
        same vector back without a new copy."""
        if atom is not self._realized[0]:
            if not (0 <= atom.index < self.size):
                raise IndexError(f"atom index {atom.index} out of range")
            vec = atom.sign * self._columns[:, atom.index]
            vec.setflags(write=False)
            self._realized = (atom, vec)
        return self._realized[1]

    def certified_sup(self, w: np.ndarray):
        """(value, atom, upper): exact sup of <w, g> over +-columns, so
        upper == value.

        Ties break to the lowest index; a zero (or fully orthogonal) w maps to
        atom(0, +1) with value 0. A w bitwise equal to the last query (a wcga
        fixed point) gets the last answer object back without the product.
        The search calls `ndarray.argmax`, which `np.argmax` ends in, and
        reads the score as a Python float: the same bits without numpy's
        Python-level dispatch.
        """
        w = np.asarray(w, dtype=float)
        key = w.tobytes()
        if key != self._last[0]:
            scores = self._columns.T @ w
            j = int(np.abs(scores).argmax())
            score = scores.item(j)
            value = abs(score)
            sign = 1 if score >= 0.0 else -1
            self._last = (key, (value, Atom(j, sign), value))
        return self._last[1]


class RankOneDictionary:
    """Implicit dictionary {+- u v^T} over flattened n x n matrices."""

    def __init__(self, side: int):
        if side < 1:
            raise ValueError("side must be >= 1")
        self.side = side
        # inverse iteration's start (certified_sup), computed once per side
        self._start = np.sin(np.arange(1.0, side + 1.0))
        self._start.setflags(write=False)

    @property
    def ambient_dim(self) -> int:
        return self.side * self.side

    def realize(self, atom: Atom) -> np.ndarray:
        if atom.factors is None:
            raise ValueError("rank-one atom requires (u, v) factors")
        u, v = atom.factors
        return np.outer(atom.sign * u, v).ravel()  # the bits of sign * (u v^T)

    def certified_sup(self, w: np.ndarray):
        """(value, atom, upper) for W = reshape(w): s_1 from a values-only
        SVD (LAPACK gesdd), v from inverse iteration.

        upper = max(s_1, ||W v||) * (1 + c * side * eps) with
        c = SVD_ERROR_FACTOR. The margin is a heuristic, not a proven bound:
        gesdd is backward stable, so its s_1 is within p * eps * sigma_max
        of the true value, but LAPACK states p only as a "modestly growing
        function" of the dimensions (Users' Guide, section 4.9); c * side =
        4 * side is a guess at it. The tests check upper against sigma_max
        from eigvalsh(W^T W) and from spectra known by construction.

        v is two inverse-iteration steps (Ipsen 1997) on one LU factorization
        (dgesv, then dgetrs): with A = W / s_1, which makes them scale-free,
        and M = A^T A - mu I for mu = 1 + c * side * eps, just above A^T A's
        top eigenvalue, M y = start, M x = y / ||y|| and v = x / ||x||. Each
        step scales the components off v_1 by about
        (mu - lambda_1) / (mu - lambda_i). The start, sin(1..side), is dense
        and no integer stencil is orthogonal to it, as (1, -2, 1) is to an
        affine ramp. Only v comes from A^T A, and its error enters the score
        at second order. value = ||W v|| <= sigma_max(W) is attained by the
        atom u v^T, u = W v / ||W v||, and `select_gradient_greedy` checks it
        against upper. A W = 0, or an s_1 that overflows, gets unit factors,
        value 0 and upper s_1; an exactly singular M raises
        WeaknessCertificationError.

        Every 2-norm is `math.sqrt(x.dot(x))`, numpy's own 1-D norm without
        `np.linalg.norm`'s wrapper: the same bits.
        """
        n = self.side
        W = np.asarray(w, dtype=float).reshape(n, n)
        s1 = float(np.linalg.svd(W, compute_uv=False)[0])
        if s1 == 0.0 or not math.isfinite(s1):
            e1 = np.zeros(n)
            e1[0] = 1.0
            return 0.0, Atom(-1, 1, (e1, e1.copy())), s1
        A = W / s1
        M = A.T @ A
        M.flat[:: n + 1] -= 1.0 + SVD_ERROR_FACTOR * n * _EPS
        start = self._start
        # A.T @ A is exactly symmetric (syrk), so M.T is M in Fortran order,
        # which dgesv factors in place
        lu, piv, x, info = dgesv(M.T, start, overwrite_a=True)
        if info != 0:
            raise WeaknessCertificationError(f"shifted system is singular (dgesv {info})")
        x, _ = dgetrs(lu, piv, x / math.sqrt(x.dot(x)))
        v = x / math.sqrt(x.dot(x))
        Av = A @ v
        norm = math.sqrt(Av.dot(Av))
        value = s1 * norm
        upper = max(s1, value) * (1.0 + SVD_ERROR_FACTOR * n * _EPS)
        return value, Atom(-1, 1, (Av / norm, v)), upper


Dictionary = FiniteDictionary | RankOneDictionary


def select_gradient_greedy(
    dictionary: Dictionary,
    direction: np.ndarray,
    weakness: float,
    shift: float = 0.0,
) -> SelectionCertificate:
    """Pick an atom with <direction, g> - shift >= weakness * (upper - shift),
    certified against the dictionary's upper bound on the sup up to
    WEAKNESS_SLACK * max(1, upper, |shift|).

    direction is -E'(G) in the greedy drivers; the convex relaxation passes
    shift = <direction, G>, which is constant over the dictionary, so it
    moves score and reference but not the selected atom. For finite
    dictionaries the argmax is exact (ratio 1); for rank-one the reference
    is the SVD's widened s_1, and the selection fails loudly when the
    weakness cannot be certified against it. The slack is relative because
    the score's roundoff and the rank-one margin, about
    4 * side * eps * sigma_max, grow with the scale of the sup.
    """
    if not (0.0 < weakness <= 1.0):
        raise ValueError(f"weakness must be in (0, 1], got {weakness}")
    _, atom, upper = dictionary.certified_sup(direction)
    if not math.isfinite(upper):  # a slack of 1e-10 * inf certifies anything
        raise WeaknessCertificationError(f"reference sup is not finite: {upper}")
    vector = dictionary.realize(atom)
    score = float(direction.dot(vector)) - shift
    reference = upper - shift
    ratio = 1.0 if reference == 0.0 else score / reference
    slack = WEAKNESS_SLACK * max(1.0, upper, abs(shift))
    if not score >= weakness * reference - slack:  # a NaN score fails too
        raise WeaknessCertificationError(
            f"achieved {score:.6e} < t * reference = {weakness * reference:.6e}"
        )
    return SelectionCertificate(atom, score, reference, ratio, vector)


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

"""Symmetric dictionaries and greedy atom selection with weakness certificates.

Two dictionary flavors: an explicit finite set of +-column atoms, and the
implicit rank-one dictionary {+- u v^T : ||u||_2 = ||v||_2 = 1} over flattened
n x n matrices (its convex hull is the nuclear-norm ball). Each answers
`certified_sup(w)` with (value, atom, upper): the atom's score, the atom, and
an upper bound on the sup of <w, g> over the dictionary. A finite dictionary
is searched exactly (upper == value). The rank-one one, at sides up to
PROOF_SIDE, proves upper >= sigma_max(W) by one verified Cholesky
factorization (`verified_cholesky`) of a shifted (W / max|W|)^T (W / max|W|)
and takes its atom from two solves on the same factor. The shift is placed
above an estimate of the top eigenvalue: above SKETCH_WIDTH a Rayleigh-Ritz
value on SKETCH_WIDTH of W's columns (`_sketch_estimate`), when they hold
W's energy, as they do on a gradient of rank at most SKETCH_WIDTH;
otherwise, or when its try fails, dsyevr's. Above PROOF_SIDE it takes s_1
from a values-only SVD, widened by a backward-error margin, and its atom
from one shifted inverse-iteration solve.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np
from scipy.linalg.blas import dtrmv
from scipy.linalg.lapack import dgeqrf, dgesv, dgetrs, dorgqr, dpotrf, dpotrs, dsyevr

from .objectives import Objective, lr_norm

# columns of A the rank-one proof's shift estimate orthonormalizes, at
# sides above it (`_sketch_estimate`): twice the planted rank of the
# low_rank_wrga workload, 8, which bounds its gradients' rank
SKETCH_WIDTH = 16
# the share of ||A||_F^2 the sketch must hold for its estimate to be taken
SKETCH_ENERGY = 1.0 - 1e-8
# relative, 100 times PROOF_RTOL, the rank-one bound's largest looseness at
# t = 1; see select_gradient_greedy
WEAKNESS_SLACK = 1e-10
# backward-error factor c of the SVD's top singular value, also the shift's,
# on the rank-one path above PROOF_SIDE; see RankOneDictionary.certified_sup
SVD_ERROR_FACTOR = 4.0
# the rank-one proof's shift above the top-eigenvalue estimate, in units of
# (side + 1) u, one entry per Cholesky try before the SVD path takes over
SHIFT_MARGINS = (2.0, 4.0, 8.0)
# how far the proven rank-one upper bound may exceed sigma_max, relative, at
# every side it runs at: the t = 1 certificates' 1 - ratio budget
PROOF_RTOL = 1e-12
# columns per block of lr_column_norms: its temporaries stay this many
# columns wide whatever the dictionary's size; FiniteDictionary's l_r check
# takes blocks of rows of as many entries
LR_NORM_BLOCK = 16
_EPS = float(np.finfo(float).eps)
_U = _EPS / 2.0  # the unit roundoff u
# lr_column_norms divides each column by its max clipped to this range, so a
# zero column divides 0 and an infinite one keeps inf, with no 0/0 or inf/inf
_TOP_RANGE = (float(np.nextafter(0.0, 1.0)), float(np.finfo(float).max))


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), the rounding of a k-term inner
    product, relative to the sum of its terms' magnitudes."""
    return k * _U / (1.0 - k * _U)


def _eigenvalue_bound(
    n: int, mu: float, trace_m: float, trace_c: float, rows: float = math.inf
) -> float:
    """A proven upper bound on lambda_max(A^T A), for an n x n A, when the
    floating-point Cholesky factorization L L^T of M = fl(mu I - C),
    C = fl(A^T A), ran to completion; trace_m and trace_c are the float sums
    of M's and C's diagonals and rows an upper bound on the largest row sum
    of |L| |L|^T (`_row_sum_bound`). The terms are derived in
    `verified_cholesky`."""
    summed = 1.0 - _gamma(n - 1)  # a float sum of n terms >= 0, from below
    frobenius = trace_c / ((1.0 - _gamma(n)) * summed)  # >= ||A||_F^2
    trace = trace_m / (summed * (1.0 - _gamma(n + 1)))  # >= ||L||_F^2
    cholesky = _gamma(n + 1) * (rows if rows < trace else trace)
    allowance = _gamma(n) * frobenius + cholesky + _U / (1.0 - _U) * mu
    return (mu + allowance) * (1.0 + 8.0 * _U)


def _row_sum_bound(f: np.ndarray) -> float:
    """An upper bound on the largest row sum of B = F F^T, where F is the
    lower triangle of the nonnegative Fortran-ordered f: max_i (F (F^T 1))_i,
    two products (dtrmv). Each sums nonnegative terms, so the exact B 1 is
    at most the float one over (1 - gamma_n)^2; the roundings of that
    division and the terms that underflow are covered by
    `_eigenvalue_bound`'s factor."""
    y = dtrmv(f, dtrmv(f, np.ones(len(f)), lower=1, trans=1), lower=1)
    return float(y.max()) / (1.0 - _gamma(len(f))) ** 2


def _sigma_factor(n: int) -> float:
    """The factor that takes sqrt of `_eigenvalue_bound` for A = fl(W / top)
    to a bound on sigma_max(W) / top: it covers A's rounding (u ||A||_F,
    with ||A||_F <= sqrt(n) sigma_max(A), and underflow) and the square root's
    and the products' roundings."""
    return 1.0 + (2.0 * math.sqrt(n) + 4.0) * _U


def _proof_looseness(n: int) -> float:
    """The largest relative excess of the proven rank-one upper bound over
    sigma_max(W) at side n: at the last shift margin above an exact estimate
    lambda = 1, with the whole trace n mu on the Cholesky term, whose factor
    is the larger of the two trace terms, and no row-sum bound below it."""
    mu = 1.0 + SHIFT_MARGINS[-1] * (n + 1) * _U
    bound = _eigenvalue_bound(n, mu, n * mu * (1.0 + _gamma(n)), 0.0)
    return math.sqrt(bound) * _sigma_factor(n) - 1.0


# the largest side whose proof is at most PROOF_RTOL loose: (n + 1) n u / 2
# grows past it just above n = 128 in double precision
PROOF_SIDE = next(n for n in itertools.count(1) if _proof_looseness(n + 1) > PROOF_RTOL)


def verified_cholesky(c: np.ndarray, diagonal: np.ndarray, mu: float, solve=None):
    """(solved, bound): a proof that lambda_max(A^T A) <= bound by the
    floating-point Cholesky factorization of M = fl(mu I - C), where
    C = fl(A^T A) for an n x n A, as syrk forms it, and solve(factor) (None
    without solve); or (None, inf) when dpotrf fails.

    c is C-ordered and (n, n); only its upper triangle above the diagonal
    is read, which must hold C's, and `diagonal` holds C's diagonal. c is
    overwritten: M is formed in it by negation, and dpotrf factors it in
    place as M = L L^T (on c.T, lower, which is c's upper triangle).
    `solve` gets that view, for `dpotrs(factor, b, lower=1)`; the proof then
    overwrites it with |L|.

    Proof, with u the unit roundoff and gamma_k = k u / (1 - k u). Each
    entry of C is an inner product of length n, so |C - A^T A| <=
    gamma_n |A|^T |A| entrywise (Higham, Accuracy and Stability, section
    3.5) and ||C - A^T A||_2 <= gamma_n ||A||_F^2; C's diagonal entries are
    sums of squares, so ||A||_F^2 <= tr(C) / (1 - gamma_n), and a float sum
    of n nonnegative terms is short of the exact one by at most its
    gamma_{n-1}. The diagonal of M is rounded: M = mu I - C + D with D
    diagonal and |D_ii| <= u M_ii / (1 - u) <= u mu / (1 - u), since
    0 < M_ii <= mu where the factorization succeeds. A Cholesky
    factorization that runs to completion gives L L^T = M + E with
    |E| <= gamma_{n+1} |L| |L^T| (Higham, Thm 10.3), in any order of its
    inner products, so also for LAPACK's blocked dpotrf. As the 2-norm is
    monotone on nonnegative matrices, ||E||_2 <= gamma_{n+1} rho(|L| |L|^T),
    and rho(|L| |L|^T) is at most ||L||_F^2 = tr(M + E) <= tr(M) +
    gamma_{n+1} ||L||_F^2, so at most tr(M) / (1 - gamma_{n+1}): Rump's
    trace allowance (S. M. Rump, "Verification of positive definiteness",
    BIT 2006). It is also at most the largest row sum of the nonnegative
    |L| |L|^T (Gershgorin), `_row_sum_bound(|L|)`, and the proof takes the
    smaller. So mu I - C + D + E = L L^T is positive semidefinite, and
    lambda_max(A^T A) <= mu + ||D||_2 + ||E||_2 + gamma_n ||A||_F^2, which
    `_eigenvalue_bound` adds up. Each term is computed within a few
    roundings, and its factor 1 + 8u covers them and the sums while the
    allowance is below mu / 10, as it is for n below 10^7. Underflow adds
    absolute terms of order n (n + mu) 2^-1074 (Rump's corollary), which the
    same factor covers for mu >= 1.

    The trace terms share C's trace between them (tr(M) + tr(C) is about
    n mu), so without the row-sum bound the proof is loose by about
    gamma_{n+1} n mu in lambda: (n + 1) n u / 2 relative in sigma, 2.5e-13
    at n = 64 and 3.7e-12 at n = 256. The row-sum bound is that large only
    where |L| is dense and flat; on the `low_rank_wrga` selections at n = 64
    it is 8 to 13 mu, not 64 mu.
    """
    n = len(diagonal)
    trace_c = float(diagonal.sum())
    shifted = mu - diagonal
    trace_m = float(shifted.sum())
    np.negative(c, out=c)
    c.flat[:: n + 1] = shifted
    factor, info = dpotrf(c.T, lower=1, overwrite_a=1, clean=0)
    if info != 0:
        return None, math.inf
    solved = None if solve is None else solve(factor)
    np.abs(factor, out=factor)
    return solved, _eigenvalue_bound(n, mu, trace_m, trace_c, _row_sum_bound(factor))


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
        the exact sup for finite dictionaries; for rank-one a proven bound
        on sigma_max (a verified Cholesky factorization, shifted above a
        Ritz value on a column sketch of W or above dsyevr's top
        eigenvalue) at sides up to PROOF_SIDE, and the SVD's s_1 widened by
        a backward-error margin above. For wrga (shift = <w, G>) it bounds
        the Frank-Wolfe duality gap.
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
        """(value, atom, upper) for W = reshape(w): upper >= sigma_max(W)
        and the atom u v^T with value = ||W v||.

        At sides n <= PROOF_SIDE upper is proven. With top = max|W| and
        A = fl(W / top), C = A^T A is one syrk. An estimate lambda of C's
        top eigenvalue places the shift, mu = lambda (1 + k (n + 1) u), one
        Cholesky try each (`verified_cholesky`) until one succeeds; the
        estimates come from `_shift_estimates`. Above SKETCH_WIDTH (16) the
        first is a Rayleigh-Ritz value on SKETCH_WIDTH evenly spaced columns
        of A (`_sketch_estimate`), tried at the first margin, when those
        columns hold all but 1e-8 of ||A||_F^2. Then `dsyevr` gives C's top
        eigenvalue, tried at each k in SHIFT_MARGINS. C's upper triangle
        survives dsyevr, which overwrites only the lower one and the
        diagonal (kept aside), so a try needs no copy of C; a retry forms C
        again. An estimate only places the shift: one that is too low fails
        its try, and the proof below does not depend on where it came from.

        A `low_rank` gradient of planted rank up to SKETCH_WIDTH passes the
        sketch's screen: W = 2 (F - G) for the planted F, and each atom is a
        top singular pair of an earlier gradient, so it lies in F's column
        and row spaces, and so do G and W; W's rank is at most the planted
        rank, 8 on the `low_rank_wrga` workload, and its Ritz value is exact
        to roundoff. A
        full-rank W is screened out and pays the sketch on top of dsyevr:
        about 30, 15 and 9 % more per call at sides 32, 64 and 128.

        Proof: a successful factorization proves
        lambda_max(A^T A) <= bound (`verified_cholesky`), so
        sigma_max(A) <= sqrt(bound). W / top differs from A by a rounding of
        each entry, at most u |A_ij| / (1 - u) plus 2^-1075 where it
        underflows, so sigma_max(W / top) <= sigma_max(A) + u ||A||_F /
        (1 - u) + n 2^-1075; as ||A||_F <= sqrt(n) sigma_max(A) and
        sigma_max(A) >= 1 (A holds an entry 1), that is at most
        sigma_max(A) (1 + 2 sqrt(n) u). The remaining 4u of `_sigma_factor`
        covers the roundings of the square root and the two products, so
        upper = top * sqrt(bound) * `_sigma_factor(n)` >= sigma_max(W); an
        overflow makes it inf, which stays a bound. The proof is loose by
        the allowance it adds up: at most about (n + 1) n u / 2 relative,
        whatever W's spectrum, since the two trace terms share C's trace
        between them, and about a quarter of that (4e-14 to 8e-14 at
        n = 64) on `low_rank` gradients, where the row-sum bound takes the
        Cholesky term. PROOF_SIDE (129) is the largest side where
        `_proof_looseness`, the worst case at the last margin, is within
        PROOF_RTOL (1e-12), the t = 1 certificates' budget.

        v is two inverse-iteration steps (Ipsen 1997) on the same factor
        L L^T of mu I - C: L L^T y = start, L L^T x = y / ||y||,
        v = x / ||x|| (dpotrs). Each step scales the components off v_1 by
        about (mu - lambda_1) / (mu - lambda_i). The start, sin(1..side), is
        dense and no integer stencil is orthogonal to it, as (1, -2, 1) is to
        an affine ramp. Only v comes from A^T A, and its error enters the
        score at second order. value = top ||A v|| <= sigma_max(W) is
        attained by the atom u v^T, u = A v / ||A v||, and
        `select_gradient_greedy` checks it against upper, which is raised to
        value if the rounding of value ever put it above.

        The SVD path runs above PROOF_SIDE, where the proof would be looser
        than PROOF_RTOL, and where dsyevr fails or every dsyevr try's
        factorization does: `_svd_sup`, with the bits it has always had.

        A W = 0, or one with an entry that is not finite, gets unit factors,
        value 0 and upper max|W| (0, inf or NaN; the last two fail the
        selection). Every 2-norm is `math.sqrt(x.dot(x))`, numpy's own 1-D
        norm without `np.linalg.norm`'s wrapper: the same bits.
        """
        n = self.side
        W = np.asarray(w, dtype=float).reshape(n, n)
        if n > PROOF_SIDE:
            return self._svd_sup(W)
        top = float(np.abs(W).max())
        if top == 0.0 or not math.isfinite(top):
            return 0.0, _unit_atom(n), top
        A = W / top
        sketched = _sketch_estimate(A)
        C = A.T @ A  # exactly symmetric (syrk)
        diagonal = C.diagonal().copy()
        for lam, k in _shift_estimates(C, diagonal, sketched):
            mu = lam * (1.0 + k * (n + 1) * _U)
            x, bound = verified_cholesky(C, diagonal, mu, self._inverse_iteration)
            if x is not None:
                value, atom = _top_pair(A, x, top)
                upper = top * math.sqrt(bound) * _sigma_factor(n)
                return value, atom, max(upper, value)
            np.matmul(A.T, A, out=C)  # the failed try overwrote C
        return self._svd_sup(W)

    def _inverse_iteration(self, factor: np.ndarray) -> np.ndarray:
        """Two solves from the start on the Cholesky factor L of mu I - C:
        L L^T y = start, L L^T x = y / ||y||."""
        y, _ = dpotrs(factor, self._start, lower=1)
        x, _ = dpotrs(factor, y / math.sqrt(y.dot(y)), lower=1)
        return x

    def _svd_sup(self, W: np.ndarray):
        """(value, atom, upper) for W: s_1 from a values-only SVD (LAPACK
        gesdd), v from inverse iteration.

        upper = max(s_1, ||W v||) * (1 + c * side * eps) with
        c = SVD_ERROR_FACTOR. The margin is a heuristic, not a proven bound:
        gesdd is backward stable, so its s_1 is within p * eps * sigma_max
        of the true value, but LAPACK states p only as a "modestly growing
        function" of the dimensions (Users' Guide, section 4.9); c * side =
        4 * side is a guess at it. The tests check upper against sigma_max
        from eigvalsh(W^T W) and from spectra known by construction.

        v is two inverse-iteration steps on one LU factorization (dgesv,
        then dgetrs): with A = W / s_1, which makes them scale-free, and
        M = A^T A - mu I for mu = 1 + c * side * eps, just above A^T A's top
        eigenvalue, M y = start, M x = y / ||y|| and v = x / ||x||. A W = 0,
        or an s_1 that overflows, gets unit factors, value 0 and upper s_1;
        an exactly singular M raises WeaknessCertificationError.
        """
        n = self.side
        s1 = float(np.linalg.svd(W, compute_uv=False)[0])
        if s1 == 0.0 or not math.isfinite(s1):
            return 0.0, _unit_atom(n), s1
        A = W / s1
        M = A.T @ A
        M.flat[:: n + 1] -= 1.0 + SVD_ERROR_FACTOR * n * _EPS
        # A.T @ A is exactly symmetric (syrk), so M.T is M in Fortran order,
        # which dgesv factors in place
        lu, piv, x, info = dgesv(M.T, self._start, overwrite_a=True)
        if info != 0:
            raise WeaknessCertificationError(f"shifted system is singular (dgesv {info})")
        x, _ = dgetrs(lu, piv, x / math.sqrt(x.dot(x)))
        value, atom = _top_pair(A, x, s1)
        upper = max(s1, value) * (1.0 + SVD_ERROR_FACTOR * n * _EPS)
        return value, atom, upper


def _shift_estimates(C: np.ndarray, diagonal: np.ndarray, sketched: Optional[float]):
    """(lambda, k) per Cholesky try of `RankOneDictionary.certified_sup`:
    an estimate lambda of C's top eigenvalue, for C = fl(A^T A) with its
    diagonal kept aside, and the shift margin k to place the try above it.

    The sketch's estimate (`_sketch_estimate`), if there is one, comes
    first, at the first margin. Then `dsyevr`'s, at each margin in turn:
    C.T is C in Fortran order, and dsyevr overwrites its upper triangle,
    which is C's lower one, and the diagonal. The caller forms C again
    after each failed try."""
    if sketched is not None:
        yield sketched, SHIFT_MARGINS[0]
    n = len(diagonal)
    lam, _, _, _, info = dsyevr(C.T, compute_v=0, range="I", il=n, iu=n, overwrite_a=1)
    if info == 0:
        for k in SHIFT_MARGINS:
            yield lam[0], k


def _sketch_estimate(A: np.ndarray) -> Optional[float]:
    """A Rayleigh-Ritz estimate of lambda_max(A^T A) for an n x n A from
    SKETCH_WIDTH evenly spaced columns of A (Halko, Martinsson & Tropp,
    "Finding structure with randomness", SIAM Review 2011); None when they
    miss A's energy, or when n <= SKETCH_WIDTH, where they would be all of
    A.

    Q is an orthonormal basis of the picked columns (dgeqrf, dorgqr) and
    B = Q^T A. The estimate is the top eigenvalue of the SKETCH_WIDTH-square
    B B^T = Q^T A A^T Q (dsyevr), which in exact arithmetic is at most
    lambda_max(A A^T) = lambda_max(A^T A), and equal to it when range(Q)
    holds A's range. tr(B B^T) = ||B||_F^2 is the part of ||A||_F^2 that
    lies in range(Q): below SKETCH_ENERGY ||A||_F^2 the columns miss some
    of A's range, and no estimate is taken. A W of rank at most
    SKETCH_WIDTH whose picked columns span its range passes, with an
    estimate exact to roundoff. The caller runs it before it forms A^T A,
    so its temporaries never sit beside an n x n array other than A."""
    n = len(A)
    if n <= SKETCH_WIDTH:
        return None
    picked = A.T[(np.arange(SKETCH_WIDTH) * n) // SKETCH_WIDTH]  # A's columns
    qr, tau, _, _ = dgeqrf(picked.T, overwrite_a=1)
    B = dorgqr(qr, tau, overwrite_a=1)[0].T @ A
    # tr(B B^T) as ||B||_F^2: gram.trace() here left about one 55-byte
    # block per selection traced to the end of a low_rank_wrga run, +5 KB
    # on its tracemalloc peak
    b, a = B.ravel(), A.ravel()
    if b.dot(b) < SKETCH_ENERGY * a.dot(a):
        return None
    gram = B @ B.T  # exactly symmetric (syrk)
    lam, _, _, _, info = dsyevr(
        gram, compute_v=0, range="I", il=SKETCH_WIDTH, iu=SKETCH_WIDTH, overwrite_a=1
    )
    return float(lam[0]) if info == 0 else None


def _unit_atom(n: int) -> Atom:
    """The atom e_1 e_1^T, with factors that share no memory."""
    e1 = np.zeros(n)
    e1[0] = 1.0
    return Atom(-1, 1, (e1, e1.copy()))


def _top_pair(A: np.ndarray, x: np.ndarray, scale: float):
    """(value, atom) for v = x / ||x||: the atom u v^T with u = A v / ||A v||
    and value = scale * ||A v||."""
    v = x / math.sqrt(x.dot(x))
    Av = A @ v
    norm = math.sqrt(Av.dot(Av))
    return scale * norm, Atom(-1, 1, (Av / norm, v))


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
    is `RankOneDictionary.certified_sup`'s upper bound, proven at sides up
    to PROOF_SIDE, and the selection fails loudly when the weakness cannot
    be certified against it. The slack is relative because the score's
    roundoff and the rank-one margin grow with the scale of the sup: the
    proof is loose by at most PROOF_RTOL * sigma_max (about
    (side + 1) side u / 2 relative), the SVD path's margin is
    4 * side * eps * sigma_max.
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

"""Instance generators with synthesis certificates.

Each generator plants a target inside the atom hull of the dictionary it
returns, along with a certificate listing the planted atoms and coefficients.
Coefficient magnitudes are Dirichlet-distributed fractions of the requested
mass, quantized to the dyadic grid 2**-30 with the last entry absorbing the
remainder: every fraction and every partial sum of fractions is then an exact
double, so the certified mass equals the coefficient sum bit-for-bit (and
equals the requested mass exactly whenever it is a power of two).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dictionaries import (
    Atom,
    Dictionary,
    FiniteDictionary,
    RankOneDictionary,
    column_norms,
    lr_column_norms,
    synthesis_l1,
    unit_columns,
)
from .objectives import Objective, make_norm_power

DYADIC_BITS = 30
CERTIFICATE_TOL = 1e-12


@dataclass(frozen=True)
class SynthesisCertificate:
    """Planted expansion of a target: terms ((Atom, coefficient), ...).

    mass is the synthesis l1 norm, computed from the coefficients themselves.
    reference_optimum is the known infimum of the paired objective (0.0 for
    exact-fit instances), or None when unknown.
    """

    terms: tuple
    mass: float
    reference_optimum: Optional[float] = 0.0

    def realize(self, dictionary: Dictionary) -> np.ndarray:
        out = np.zeros(dictionary.ambient_dim)
        for atom, coef in self.terms:
            out += coef * dictionary.realize(atom)
        return out

    def coefficients(self) -> np.ndarray:
        return np.array([c for _, c in self.terms], dtype=float)


def verify_certificate(
    dictionary: Dictionary,
    target: np.ndarray,
    certificate: SynthesisCertificate,
    tol: float = CERTIFICATE_TOL,
) -> float:
    """Max abs deviation between the realized synthesis and the target;
    raises if it exceeds tol or if the recorded mass is not the exact sum."""
    flat = np.ravel(np.asarray(target, dtype=float))
    gap = float(np.max(np.abs(certificate.realize(dictionary) - flat)))
    if gap > tol:
        raise ValueError(f"certificate mismatch {gap:.3e} > {tol:g}")
    expected = synthesis_l1(c for _, c in certificate.terms)
    if certificate.mass != expected:
        raise ValueError(
            f"certificate mass {certificate.mass!r} != coefficient sum "
            f"{expected!r}"
        )
    return gap


def _dyadic_fractions(
    count: int, rng: np.random.Generator, min_frac: float = 0.0
) -> np.ndarray:
    """Dirichlet(1,..,1) fractions quantized to multiples of 2**-30 that sum
    to exactly 1.0. min_frac floors every fraction (count*min_frac == 1 forces
    the equal split)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not min_frac >= 0.0:  # NaN too
        raise ValueError(f"min_frac must be >= 0, got {min_frac}")
    scale = 1 << DYADIC_BITS
    if count == 1:
        return np.array([1.0])
    total_floor = count * min_frac
    if total_floor > 1.0 + 1e-9:
        raise ValueError(
            f"count * min_frac = {total_floor} exceeds the unit budget"
        )
    if total_floor >= 1.0 - 1e-9:
        raw = np.full(count, 1.0 / count)
    else:
        raw = rng.dirichlet(np.ones(count))
        raw = raw * (1.0 - total_floor) + min_frac
    ks = np.maximum(np.floor(raw * scale).astype(np.int64), 1)
    ks[-1] += scale - int(ks.sum())
    if ks[-1] < 1:
        raise ValueError("dyadic quantization left no mass for the last entry")
    return ks.astype(float) / float(scale)


def _check_mass(mass: float) -> None:
    if not 0.0 < mass < np.inf:
        raise ValueError(f"mass must be finite and > 0, got {mass}")


def _planted_terms(
    rng: np.random.Generator,
    population: int,
    s: int,
    mass: float,
    min_coef: float,
) -> tuple:
    _check_mass(mass)
    support = rng.choice(population, size=s, replace=False)
    signs = rng.choice(np.array([-1.0, 1.0]), size=s)
    fractions = _dyadic_fractions(s, rng, min_coef)
    return tuple(
        (Atom(int(j), 1), float(sgn * (mass * frac)))
        for j, sgn, frac in zip(support, signs, fractions)
    )


def gen_compressed_sensing(
    k: int,
    n: int,
    s: int,
    mass: float = 1.0,
    seed: int = 0,
    min_coef: float = 0.0,
) -> tuple:
    """Gaussian k x n dictionary with unit columns and an s-sparse planted
    target y of synthesis mass `mass`. Returns (dictionary, y, certificate).
    min_coef floors each |coefficient| at min_coef * mass."""
    if s > n:
        raise ValueError(f"sparsity {s} exceeds dictionary size {n}")
    if s < 1 or k < 1:
        raise ValueError(f"need s >= 1 and k >= 1, got s={s}, k={k}")
    rng = np.random.default_rng(seed)
    # normalized in place and adopted: the bits of from_matrix, one matrix
    raw = rng.standard_normal((k, n))
    dictionary = FiniteDictionary(unit_columns(raw, column_norms(raw)))
    terms = _planted_terms(rng, n, s, mass, min_coef)
    y = np.zeros(k)
    for atom, coef in terms:
        y += coef * dictionary.realize(atom)
    certificate = SynthesisCertificate(
        terms, synthesis_l1(c for _, c in terms), 0.0
    )
    return dictionary, y, certificate


def gen_low_rank(
    n: int, rank: int, mass: float = 1.0, seed: int = 0
) -> tuple:
    """Rank-one dictionary over n x n matrices with a planted target
    F = sum_i sigma_i u_i v_i^T, orthonormal factor columns, sum sigma = mass.
    Returns (dictionary, F, certificate); F has shape (n, n)."""
    if rank > n:
        raise ValueError(f"rank {rank} exceeds side {n}")
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    _check_mass(mass)
    rng = np.random.default_rng(seed)
    u_cols, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    v_cols, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    fractions = _dyadic_fractions(rank, rng)
    sigmas = mass * fractions
    terms = tuple(
        (
            Atom(-1, 1, (u_cols[:, i].copy(), v_cols[:, i].copy())),
            float(sigmas[i]),
        )
        for i in range(rank)
    )
    dictionary = RankOneDictionary(n)
    target = np.zeros((n, n))
    for atom, coef in terms:
        target += coef * dictionary.realize(atom).reshape(n, n)
    certificate = SynthesisCertificate(
        terms, synthesis_l1(c for _, c in terms), 0.0
    )
    return dictionary, target, certificate


def gen_lp_approx(
    n: int,
    r: float,
    q: float,
    seed: int = 0,
    s: int = 2,
    mass: float = 1.0,
    dict_size: Optional[int] = None,
    min_coef: float = 0.0,
) -> tuple:
    """Random dictionary with unit columns in the l_r norm and the objective
    E(x) = ||f - x||_r**q for a planted target f. Returns
    (dictionary, objective, certificate)."""
    if not r > 1.0:
        raise ValueError(f"r must be > 1, got {r}")
    if not (1.0 < q <= 2.0):
        raise ValueError(f"q must be in (1, 2], got {q}")
    if dict_size is None:
        dict_size = 4 * n
    if s > dict_size:
        raise ValueError(f"sparsity {s} exceeds dictionary size {dict_size}")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, dict_size))
    dictionary = FiniteDictionary(unit_columns(raw, lr_column_norms(raw, r)), r=r)
    terms = _planted_terms(rng, dict_size, s, mass, min_coef)
    f = np.zeros(n)
    for atom, coef in terms:
        f += coef * dictionary.realize(atom)
    objective = make_norm_power(f, r, q)
    certificate = SynthesisCertificate(
        terms, synthesis_l1(c for _, c in terms), 0.0
    )
    return dictionary, objective, certificate

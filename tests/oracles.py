"""Independent reference implementations used to freeze expected test values.

Everything here is deliberately written against plain numpy primitives that
differ from the package's code paths (normal equations instead of lstsq,
closed forms or bisection instead of L-BFGS-B), so agreement is evidence
rather than a tautology. `count_calls` is the objective wrapper that every
call-count test shares.

The bitwise oracles (`min_norm_solve_wrapped`, `rank_one_sup_wrapped`,
`rank_one_proof_sup_wrapped`, `rank_one_realize_wrapped`,
`relaxed_coefficients_wrapped`) are the same arithmetic written through
numpy's Python-level wrappers (np.dot, np.linalg.norm, np.append), where the
package calls the array methods and ufuncs those wrappers end in, and
through scipy.linalg's qr and eigh, where it calls their LAPACK routines;
they call the same LAPACK and BLAS kernels. The package must agree with them
bit for bit. `rank_one_proof_sup_wrapped` also writes the proof's bound out
again from its terms. `rank_one_realize_wrapped` is np.outer, which
`RankOneDictionary.realize` still calls: it guards any later change there. `span_hessian_wrapped` is a
norm power's span Hessian recomputed from its point, with np.outer, where
the package builds it from the point's own evaluation.

`lr_unit_check_scaled` is FiniteDictionary's l_r unit-column check on
lr_norm's max-scaled norms, where the package sums unscaled rows: the
verdict and the message must agree.
"""

import dataclasses
import math

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dtrmv
from scipy.linalg.lapack import dgesv, dgetrs, dpotrf, dpotrs, dsyevr


def count_calls(obj, log):
    """obj with each evaluation passed to log: log("value", x) for a
    value_fn call, log("gradient", x) then log("value", x) for a
    value_and_gradient_fn or value_gradient_hessian_fn call, which compute
    both, and log("hessian", x) when a span Hessian is formed from the
    evaluation at x, when obj has one. Every function is wrapped: a copy
    that wraps one leaves the others uncounted."""

    def value(x):
        log("value", x)
        return obj.value_fn(x)

    def value_and_gradient(x):
        log("gradient", x)
        log("value", x)
        return obj.value_and_gradient_fn(x)

    def value_gradient_hessian(x):
        log("gradient", x)
        log("value", x)
        energy, grad, hessian = obj.value_gradient_hessian_fn(x)

        def counted(basis):
            log("hessian", x)
            return hessian(basis)

        return energy, grad, counted

    has_hessian = obj.value_gradient_hessian_fn is not None
    return dataclasses.replace(
        obj,
        value_fn=value,
        value_and_gradient_fn=value_and_gradient,
        value_gradient_hessian_fn=value_gradient_hessian if has_hessian else None,
    )


def span_hessian_wrapped(f, r, q, x, basis):
    """B^T E''(x) B of E = ||f - x||_r^q, recomputed from f - x: its max-
    scaled l_r norm N, w = v / N, the norming functional
    sign(w) |w|^(r-1), and np.outer for the rank-one term. The bitwise twin
    of the Hessian a norm power's evaluation returns; not finite where
    E''(x) does not exist."""
    v = f - x
    a = np.abs(v)
    top = float(a.max())
    k = basis.shape[1]
    if top == 0.0 or not math.isfinite(top) or (r < 2.0 and not v.all()):
        return np.full((k, k), math.inf)
    nv = top * float(np.sum((a / top) ** r) ** (1.0 / r))
    w = v / nv
    bf = basis.T @ (np.abs(w) ** (r - 1.0) * np.sign(w))
    h = (r - 1.0) * ((basis.T * (a / nv) ** (r - 2.0)) @ basis)
    return q * nv ** (q - 2.0) * (h + (q - r) * np.outer(bf, bf))


def fd_gradient(fn, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step.flat[i] = h
        grad.flat[i] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return grad


def fd_span_hessian(value_and_gradient, x, basis, h):
    """Central finite differences of c -> B^T E'(x + B c) at c = 0, from
    value_and_gradient's E', one column of B at a time: the (k, k) span
    Hessian B^T E''(x) B."""
    basis = np.asarray(basis, dtype=float)
    cols = []
    for b in basis.T:
        up = value_and_gradient(x + h * b)[1]
        down = value_and_gradient(x - h * b)[1]
        cols.append(basis.T @ (up - down) / (2.0 * h))
    return np.column_stack(cols)


def quadratic_ray_minimum(y, g, phi):
    """Exact minimizer of c -> 0.5*||y - g - c*phi||^2 over c >= 0.

    Returns (c_star, value_at_c_star).
    """
    r = np.asarray(y, dtype=float) - np.asarray(g, dtype=float)
    phi = np.asarray(phi, dtype=float)
    denom = float(phi @ phi)
    if denom == 0.0:
        return 0.0, 0.5 * float(r @ r)
    c = max(float(r @ phi) / denom, 0.0)
    diff = r - c * phi
    return c, 0.5 * float(diff @ diff)


def convex_ray_minimum(value, slope, tol):
    """Minimizer of a convex c -> value(c) over c >= 0, given its derivative
    slope, by a doubling bracket and derivative bisection.

    The bracket [a, b] doubles from [0, 1] until slope(b) >= 0, then halves
    on the sign of slope at its midpoint until b - a <= tol * (1 + b).
    Returns (c, value(c)) at the bracket's midpoint, or at 0 when
    slope(0) >= 0.
    """
    if slope(0.0) >= 0.0:
        return 0.0, value(0.0)
    a, b = 0.0, 1.0
    while slope(b) < 0.0:
        if b > 2.0**60:
            raise ValueError("no minimizer on the ray")
        a, b = b, 2.0 * b
    while b - a > tol * (1.0 + b):
        mid = 0.5 * (a + b)
        if slope(mid) < 0.0:
            a = mid
        else:
            b = mid
    c = 0.5 * (a + b)
    return c, value(c)


def quadratic_line_minimum(y, g, phi):
    """Exact minimizer of c -> 0.5*||y - g - c*phi||^2 over all of R."""
    r = np.asarray(y, dtype=float) - np.asarray(g, dtype=float)
    phi = np.asarray(phi, dtype=float)
    denom = float(phi @ phi)
    if denom == 0.0:
        return 0.0, 0.5 * float(r @ r)
    c = float(r @ phi) / denom
    diff = r - c * phi
    return c, 0.5 * float(diff @ diff)


def free_relaxation_joint_minimum(y, g, phi):
    """Exact (alpha, lam) minimizing 0.5*||y - alpha*g - lam*phi||^2.

    Solves the 2x2 normal equations directly; returns (alpha, lam, value).
    The package parameterization is G_m = (1 - w) G + lam phi, so alpha
    corresponds to 1 - w.
    """
    y = np.asarray(y, dtype=float)
    g = np.asarray(g, dtype=float)
    phi = np.asarray(phi, dtype=float)
    a = np.array([[g @ g, g @ phi], [phi @ g, phi @ phi]])
    b = np.array([g @ y, phi @ y])
    if abs(np.linalg.det(a)) < 1e-14 * max(1.0, float(np.abs(a).max()) ** 2):
        # Degenerate (parallel or zero vectors): fall back to the single
        # direction with larger norm.
        if phi @ phi >= g @ g:
            lam, val = quadratic_line_minimum(y, np.zeros_like(y), phi)
            return 0.0, lam, val
        alpha, val = quadratic_line_minimum(y, np.zeros_like(y), g)
        return alpha, 0.0, val
    alpha, lam = np.linalg.solve(a, b)
    diff = y - alpha * g - lam * phi
    return float(alpha), float(lam), 0.5 * float(diff @ diff)


def omp_normal_equations(columns, y, steps):
    """Orthogonal matching pursuit via explicit normal equations.

    Independent of the package driver: selection by argmax |Phi^T r| with
    lowest-index ties, re-fit by solving B^T B c = B^T y with np.linalg.solve.
    Returns a list of (selected_index, coefficient_dict) per iteration, where
    coefficient_dict maps column index -> signed coefficient.
    """
    phi = np.asarray(columns, dtype=float)
    y = np.asarray(y, dtype=float)
    chosen = []
    out = []
    for _ in range(steps):
        r = y if not chosen else y - phi[:, chosen] @ coef
        scores = np.abs(phi.T @ r)
        j = int(np.argmax(scores))
        if j not in chosen:
            chosen.append(j)
        basis = phi[:, chosen]
        gram = basis.T @ basis
        coef = np.linalg.solve(gram, basis.T @ y)
        out.append((j, {idx: float(c) for idx, c in zip(chosen, coef)}))
    return out


def xi_closed_form(gamma, q, t, theta):
    """Root of gamma * u**(q-1) = theta * t in closed form."""
    return (theta * t / gamma) ** (1.0 / (q - 1.0))


def loglog_slope(ms, values):
    """Least-squares slope of log(values) against log(ms), explicit formula."""
    x = np.log(np.asarray(ms, dtype=float))
    z = np.log(np.asarray(values, dtype=float))
    xm = x.mean()
    zm = z.mean()
    return float(((x - xm) @ (z - zm)) / ((x - xm) @ (x - xm)))


def brute_force_sup(columns, w):
    """Certified sup over signed atoms of a finite dictionary, by enumeration.

    Returns (value, index, sign) with the package tie rule: lowest index wins,
    sign +1 when the inner product is >= 0.
    """
    phi = np.asarray(columns, dtype=float)
    w = np.asarray(w, dtype=float)
    inner = phi.T @ w
    best_val = -1.0
    best = (0.0, 0, 1)
    for j in range(phi.shape[1]):
        v = abs(float(inner[j]))
        if v > best_val + 0.0:
            best_val = v
            best = (v, j, 1 if inner[j] >= 0.0 else -1)
    return best


def top_singular_eigh(w):
    """Top singular triple from the symmetric eigenproblem of W^T W, no SVD:
    v is the top eigenvector, sigma = ||W v|| and u = W v / sigma."""
    w = np.asarray(w, dtype=float)
    _, vecs = np.linalg.eigh(w.T @ w)
    v = vecs[:, -1]
    wv = w @ v
    sigma = float(np.linalg.norm(wv))
    return wv / sigma, v, sigma


def sigma_max_eigvalsh(w):
    """sigma_max(W) = sqrt(lambda_max(W^T W)), by eigvalsh."""
    w = np.asarray(w, dtype=float)
    return float(np.sqrt(max(np.linalg.eigvalsh(w.T @ w)[-1], 0.0)))


def known_spectrum(s, seed):
    """(W, U, V) with W = U diag(s) V^T and U, V orthogonal by QR, so the
    singular values of W are s by construction."""
    rng = np.random.default_rng(seed)
    n = len(s)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (u * np.asarray(s, dtype=float)) @ v.T, u, v


def nuclear_norm(w):
    return float(np.linalg.svd(np.asarray(w, dtype=float), compute_uv=False).sum())


def iterate(trace, dictionary, i):
    """G_i rebuilt as the sum of coef * realize(atom) over record i's
    coefficients and the run's atoms, one term at a time."""
    point = np.zeros(dictionary.ambient_dim)
    for atom, coef in zip(trace.atoms, trace.records[i].coefficients):
        point = point + coef * dictionary.realize(atom)
    return point


def orthogonality_defect_loop(objective, dictionary, trace):
    """Max |<E'(G_m), phi>| over every record and every atom of its terms,
    one scalar product at a time.

    Each iterate is rebuilt with the span solve's own product, B^T c with
    the realized atoms as the rows of B, so it is bitwise the run's G. A
    term-by-term sum (`iterate`) differs from it in roundoff, and at an exact
    fit with q < 2 E' turns that into a change of order 1e-8 in the defect."""
    worst = 0.0
    rows = np.array([dictionary.realize(atom) for atom in trace.atoms])
    for rec in trace.records:
        basis = rows[: len(rec.coefficients)]
        grad = objective.gradient(basis.T @ rec.coefficients)
        for phi in basis:
            worst = max(worst, abs(float(np.dot(grad, phi))))
    return worst


def min_norm_solve_wrapped(directions, residual):
    """`inner_solvers._min_norm_solve` through np.dot, with the rotated
    right-hand side unpacked from a generator: min-norm lstsq of the 1x1 or
    2x2 Gram system in closed form."""
    d0, d1 = directions[0], directions[-1]
    a, r0 = float(np.dot(d0, d0)), float(np.dot(d0, residual))
    if len(directions) == 1:
        return np.array([r0 * (1.0 / a) if a > 0.0 else 0.0]) + 0.0
    b, c, r1 = float(np.dot(d0, d1)), float(np.dot(d1, d1)), float(np.dot(d1, residual))
    theta = (c - a) / (2.0 * b) if b != 0.0 else math.inf
    t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
    cs = 1.0 / math.sqrt(1.0 + t * t)
    sn = t * cs
    lam = (a - t * b, c + t * b)
    cutoff = 2.0 * np.finfo(float).eps * max(abs(lam[0]), abs(lam[1]))
    z = (cs * r0 - sn * r1, sn * r0 + cs * r1)
    y0, y1 = (z_i / l if abs(l) > cutoff else 0.0 for z_i, l in zip(z, lam))
    return np.array([cs * y0 + sn * y1, cs * y1 - sn * y0]) + 0.0


def rank_one_sup_wrapped(w, n, shift_factor):
    """`RankOneDictionary.certified_sup`'s SVD path through np.linalg.norm:
    (value, u, v, upper) for the n x n W = reshape(w) from a values-only SVD
    and two inverse-iteration steps on A^T A - mu I, with
    mu = 1 + shift_factor * n * eps, from sin(1..n). Covers W != 0 with a
    finite s_1 only."""
    start = np.sin(np.arange(1.0, n + 1.0))
    eps = float(np.finfo(float).eps)
    W = np.asarray(w, dtype=float).reshape(n, n)
    s1 = float(np.linalg.svd(W, compute_uv=False)[0])
    A = W / s1
    M = A.T @ A
    M.flat[:: n + 1] -= 1.0 + shift_factor * n * eps
    lu, piv, x, info = dgesv(M.T, start, overwrite_a=True)
    assert info == 0
    x, _ = dgetrs(lu, piv, x / np.linalg.norm(x))
    v = x / np.linalg.norm(x)
    Av = A @ v
    norm = float(np.linalg.norm(Av))
    value = s1 * norm
    upper = max(s1, value) * (1.0 + shift_factor * n * eps)
    return value, Av / norm, v, upper


def rank_one_proof_sup_wrapped(w, n, margins, sketch=True):
    """`RankOneDictionary.certified_sup`'s proof path through numpy's and
    scipy's wrappers: (value, u, v, upper) for the n x n W = reshape(w), or
    None when every try's factorization fails. A = W / max|W|. The tries:
    with sketch and n > 16, the sketch's estimate at margins[0], when it
    holds A's energy; then dsyevr's estimate on A^T A at each margin. The
    sketch: Q from scipy.linalg.qr of A's 16 columns floor(i n / 16),
    B = Q^T A, and lambda the top eigenvalue of B B^T (scipy.linalg.eigh,
    driver evr, upper triangle), taken when ||B||_F^2 >= (1 - 1e-8)
    ||A||_F^2. Per try at margin k, the Cholesky factor L of
    fl(mu I - A^T A) at mu = lambda (1 + k (n + 1) u); v from two solves on
    it, from sin(1..n); and upper = max|W| sqrt(B) (1 + (2 sqrt(n) + 4) u),
    raised to value, where B is mu plus gamma_n ||A||_F^2, gamma_{n+1} times
    the smaller of Rump's trace bound and the largest row sum of |L| |L|^T,
    and u mu / (1 - u), times 1 + 8u. Covers W != 0 with finite entries
    only."""
    u = float(np.finfo(float).eps) / 2.0

    def gamma(k):
        return k * u / (1.0 - k * u)

    W = np.asarray(w, dtype=float).reshape(n, n)
    top = float(np.max(np.abs(W)))
    A = W / top
    diagonal = np.diagonal(np.dot(A.T, A)).copy()
    tries = []
    if sketch and n > 16:
        picked = np.linspace(0, n, 16, endpoint=False).astype(int)
        Q = scipy.linalg.qr(A[:, picked], mode="economic")[0]
        B = np.dot(Q.T, A)
        if np.dot(B.ravel(), B.ravel()) >= (1.0 - 1e-8) * np.dot(A.ravel(), A.ravel()):
            lam = scipy.linalg.eigh(np.dot(B, B.T), lower=False, eigvals_only=True,
                                    subset_by_index=[15, 15], driver="evr")
            tries.append((float(lam[0]), margins[0]))
    lam, _, _, _, info = dsyevr(np.dot(A.T, A).T, compute_v=0, range="I", il=n, iu=n)
    assert info == 0
    tries += [(lam[0], k) for k in margins]
    for lam, k in tries:
        mu = lam * (1.0 + k * (n + 1) * u)
        shifted = mu - diagonal
        M = -np.dot(A.T, A)
        np.fill_diagonal(M, shifted)
        L, info = dpotrf(M.T, lower=1, overwrite_a=1, clean=0)
        if info != 0:
            continue
        y, _ = dpotrs(L, np.sin(np.arange(1.0, n + 1.0)), lower=1)
        x, _ = dpotrs(L, y / np.linalg.norm(y), lower=1)
        v = x / np.linalg.norm(x)
        Av = np.dot(A, v)
        norm = float(np.linalg.norm(Av))
        value = top * norm
        F = np.abs(L)
        rows = dtrmv(F, dtrmv(F, np.ones(n), lower=1, trans=1), lower=1)
        rows = float(np.max(rows)) / (1.0 - gamma(n)) ** 2
        summed = 1.0 - gamma(n - 1)
        frobenius = float(np.sum(diagonal)) / ((1.0 - gamma(n)) * summed)
        trace = float(np.sum(shifted)) / (summed * (1.0 - gamma(n + 1)))
        cholesky = gamma(n + 1) * (rows if rows < trace else trace)
        allowance = gamma(n) * frobenius + cholesky + u / (1.0 - u) * mu
        bound = (mu + allowance) * (1.0 + 8.0 * u)
        upper = top * math.sqrt(bound) * (1.0 + (2.0 * math.sqrt(n) + 4.0) * u)
        return value, Av / norm, v, max(upper, value)
    return None


def rank_one_realize_wrapped(sign, u, v):
    """A rank-one atom's vector through np.outer: sign * (u v^T), flattened."""
    return np.outer(sign * u, v).ravel()


def relaxed_coefficients_wrapped(algorithm, previous, record):
    """A relaxed step's coefficients through np.append: alpha * previous
    with lam appended, for the record of the rule named `algorithm`. The
    record keeps lam and w_or_r, and alpha follows from them bitwise: the
    rule's alpha plus the slice's gain is 1 - lam for wrga (its gain is -lam)
    and 1 - w_or_r for wgafr and fixed_relaxation (w_or_r is the rule's w or
    r minus the same gain); every other relaxed rule has alpha 1."""
    if algorithm == "wrga":
        alpha = 1.0 - record.lam
    elif algorithm in ("wgafr", "fixed_relaxation"):
        alpha = 1.0 - record.w_or_r
    else:
        alpha = 1.0
    return np.append(alpha * previous, record.lam)


def lr_unit_check_scaled(columns, r):
    """The l_r unit-column check on each column's max-scaled norm
    top * sum((|c| / top) ** r) ** (1 / r), the bits of objectives.lr_norm
    (the check FiniteDictionary made through lr_column_norms before it
    summed rows unscaled): the message naming the first column whose norm
    is more than 1e-12 from 1, or None."""
    for j, c in enumerate(np.asarray(columns, dtype=float).T):
        a = np.abs(c)
        top = float(a.max())
        norm = top * float(np.sum((a / top) ** r) ** (1.0 / r)) if top else 0.0
        if abs(norm - 1.0) > 1e-12:
            return f"column {j} has norm {norm}, expected 1"
    return None

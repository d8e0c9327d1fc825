"""Acceptance suite: twelve end-to-end checks at fixed tolerances.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or on
failure) and then asserts, so the suite doubles as a human-readable report:

    python3 -m pytest tests/test_acceptance.py -s -q
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from greedyopt.algorithms import (
    Chebyshev,
    ConvexRelaxation,
    FreeRelaxation,
    StopRule,
    run_greedy,
)
from greedyopt.dictionaries import RankOneDictionary
from greedyopt.experiment import (
    check_omp_equivalence,
    check_recurrence,
    check_smoothness_sampling,
    check_xi_agreement,
    monotonicity_defect,
    orthogonality_defect,
)
from greedyopt.instances import gen_compressed_sensing, gen_low_rank, gen_lp_approx
from greedyopt.objectives import make_least_squares, make_norm_power
from greedyopt.theory import check_envelope, fit_power_slope

from oracles import convex_ray_minimum, iterate, top_singular_eigh

SLOPE_BOUND = -0.40
GRID_SEEDS = (1, 2)
GRID_RULES = (
    ("wcga", Chebyshev),
    ("wrga", ConvexRelaxation),
    ("wgafr", FreeRelaxation),
)


def _report(number, passed, detail):
    print(f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'} {detail}")


def _grid_instances(seed):
    dic, y, _ = gen_compressed_sensing(16, 64, 4, mass=1.0, seed=seed)
    yield "compressed_sensing", make_least_squares(y), dic
    dic, target, _ = gen_low_rank(8, 2, mass=1.0, seed=seed)
    yield "low_rank", make_norm_power(target.ravel(), 2.0, 2.0), dic
    dic, objective, _ = gen_lp_approx(16, 4.0, 2.0, seed=seed, s=3, mass=1.0)
    yield "lp_approx", objective, dic


@pytest.fixture(scope="module")
def grid():
    """Three algorithms x three instance families x two seeds, 100 iterations."""
    entries = []
    for seed in GRID_SEEDS:
        for inst_name, objective, dictionary in _grid_instances(seed):
            for algo_name, rule_cls in GRID_RULES:
                trace = run_greedy(
                    objective,
                    dictionary,
                    1.0,
                    rule_cls(),
                    StopRule(max_m=100),
                )
                entries.append(
                    SimpleNamespace(
                        algo=algo_name,
                        instance=inst_name,
                        seed=seed,
                        objective=objective,
                        dictionary=dictionary,
                        trace=trace,
                    )
                )
    return entries


def _residual_slope(trace, m_min=4):
    """Log-log slope of the l2 residual norm (= sqrt(2 * energy))."""
    residuals = np.sqrt(2.0 * np.maximum(trace.energies(), 0.0))
    return fit_power_slope(trace.ms(), residuals, m_min=m_min, floor=1e-7)


def test_criterion_01_recovery_rate():
    """Chebyshev-rule runs on 64x256 8-sparse instances decay fast enough."""
    slopes, elapsed = [], []
    for seed in (1, 2, 3, 4, 5):
        dic, y, _ = gen_compressed_sensing(64, 256, 8, mass=1.0, seed=seed)
        start = time.perf_counter()
        trace = run_greedy(
            make_least_squares(y),
            dic,
            1.0,
            Chebyshev(),
            StopRule(max_m=64, sup_tol=-1.0),
        )
        elapsed.append(time.perf_counter() - start)
        slopes.append(_residual_slope(trace))
    passed = max(slopes) <= SLOPE_BOUND and max(elapsed) < 5.0
    _report(
        1,
        passed,
        f"worst slope {max(slopes):.3f} (bound {SLOPE_BOUND}), "
        f"slowest seed {max(elapsed):.2f}s (bound 5s)",
    )
    assert max(slopes) <= SLOPE_BOUND
    assert max(elapsed) < 5.0


def test_criterion_02_relaxed_envelope():
    """Relaxed-rule gap stays under the calibrated (1 + C1 m)^-1 envelope."""
    dic, y, _ = gen_compressed_sensing(8, 16, 2, mass=0.5, seed=1)
    trace = run_greedy(
        make_least_squares(y),
        dic,
        1.0,
        ConvexRelaxation(),
        StopRule(max_m=200, sup_tol=-1.0),
    )
    report = check_envelope(trace, ConvexRelaxation, 2.0, 1.0)
    passed = report.passed and trace.iterations == 200
    _report(
        2,
        passed,
        f"max gap/envelope ratio {report.max_ratio:.4f} over m in [2, 200] "
        f"(bound 1 + 1e-6)",
    )
    assert trace.iterations == 200
    assert report.passed, f"ratio {report.max_ratio} at m={report.argmax_m}"


def test_criterion_03_monotonicity(grid):
    """Energy never increases by more than 1e-10 for the three main rules."""
    worst = max(monotonicity_defect(e.trace) for e in grid)
    passed = worst <= 1e-10
    _report(3, passed, f"max energy increase {worst:.3e} (bound 1e-10)")
    assert passed


def test_criterion_04_orthogonality(grid):
    """Chebyshev runs keep gradients orthogonal to every selected atom."""
    worst = max(
        orthogonality_defect(e.objective, e.dictionary, e.trace)
        for e in grid
        if e.algo == "wcga"
    )
    passed = worst <= 1e-8
    _report(4, passed, f"max |<grad, atom>| {worst:.3e} (bound 1e-8)")
    assert passed


def test_criterion_05_omp_equivalence():
    """On quadratics the Chebyshev rule reproduces normal-equations OMP."""
    result = check_omp_equivalence(instances=20, steps=10, seed=0)
    _report(5, result.passed, result.detail + " (bound 1e-8, 20 instances)")
    assert result.passed, result.detail


def test_criterion_06_smoothness_sandwich():
    """Both smoothness inequalities hold on 10^4 sampled triples/objective."""
    result = check_smoothness_sampling(samples=10_000, seed=0)
    _report(6, result.passed, result.detail + " (slack bound -1e-10)")
    assert result.passed, result.detail


def test_criterion_07_xi_agreement():
    """Step roots xi solve s(xi) = theta*t to 1e-10 relative on 100 draws."""
    result = check_xi_agreement(draws=100, seed=0)
    _report(7, result.passed, result.detail + " (bound 1e-10, 100 draws)")
    assert result.passed, result.detail


def test_criterion_08_recurrence():
    """1000 generated gap sequences verify; a planted violation is located."""
    result = check_recurrence(trials=1000, seed=0)
    _report(8, result.passed, result.detail)
    assert result.passed, result.detail


def test_criterion_09_free_relaxation_dominates(grid):
    """Per iteration, the jointly-relaxed step is at least as good as the
    plain line-search step from the same point along the same atom."""
    worst = -np.inf
    for entry in (e for e in grid if e.algo == "wgafr"):
        objective, dictionary = entry.objective, entry.dictionary
        prev = np.zeros(objective.dimension)
        for i, rec in enumerate(entry.trace.records):
            phi = dictionary.realize(rec.atom)

            def value(c, prev=prev, phi=phi):
                return objective.value(prev + c * phi)

            def slope(c, prev=prev, phi=phi):
                return float(np.dot(objective.gradient(prev + c * phi), phi))

            _, best = convex_ray_minimum(value, slope, 1e-12)
            worst = max(worst, rec.energy - best)
            prev = iterate(entry.trace, dictionary, i)
    passed = worst <= 1e-9
    _report(9, passed, f"max energy excess {worst:.3e} (bound 1e-9)")
    assert passed


def test_criterion_10_l1_confinement(grid):
    """Relaxed-rule iterates never leave the unit synthesis l1 ball."""
    worst = max(
        rec.l1_mass
        for entry in grid
        if entry.algo == "wrga"
        for rec in entry.trace.records
    )
    passed = worst <= 1.0 + 1e-12
    _report(10, passed, f"max l1 mass {worst:.12f} (bound 1 + 1e-12)")
    assert passed


def test_criterion_11_rank_one_selection():
    """Rank-one selection matches the eigenproblem of W^T W and its bound
    holds; rank-2 target solved by m=4."""
    rng = np.random.default_rng(0)
    worst_cos, worst_sigma = 0.0, 0.0
    for i in range(50):
        n = 2 + (i % 7)
        w = rng.standard_normal((n, n))
        sigma, atom, upper = RankOneDictionary(n).certified_sup(w.ravel())
        u, v = atom.factors
        u_ref, v_ref, sigma_ref = top_singular_eigh(w)
        assert sigma <= upper and sigma_ref <= upper
        worst_cos = max(
            worst_cos,
            1.0 - abs(float(u @ u_ref)),
            1.0 - abs(float(v @ v_ref)),
        )
        worst_sigma = max(worst_sigma, abs(sigma - sigma_ref) / sigma_ref)

    dic, target, _ = gen_low_rank(8, 2, mass=1.0, seed=1)
    trace = run_greedy(
        make_norm_power(target.ravel(), 2.0, 2.0),
        dic,
        1.0,
        Chebyshev(),
        StopRule(max_m=6),
    )
    solved_at = next(
        (rec.m for rec in trace.records if rec.energy < 1e-8), None
    )
    passed = worst_cos <= 1e-8 and worst_sigma <= 1e-8 and (
        solved_at is not None and solved_at <= 4
    )
    _report(
        11,
        passed,
        f"max vector misalignment {worst_cos:.3e}, max sigma rel err "
        f"{worst_sigma:.3e} (bounds 1e-8); rank-2 solved at m={solved_at} "
        f"(bound 4)",
    )
    assert worst_cos <= 1e-8
    assert worst_sigma <= 1e-8
    assert solved_at is not None and solved_at <= 4


def test_criterion_12_dimension_free_rate():
    """Median recovery slope is stable as the dictionary grows 128 -> 512."""
    medians = {}
    for n in (128, 256, 512):
        slopes = []
        for seed in range(1, 31):
            dic, y, _ = gen_compressed_sensing(
                64, n, 8, mass=1.0, seed=seed, min_coef=0.125
            )
            trace = run_greedy(
                make_least_squares(y),
                dic,
                1.0,
                Chebyshev(),
                StopRule(max_m=64, sup_tol=-1.0),
            )
            slopes.append(_residual_slope(trace))
        medians[n] = float(np.median(slopes))
    spread = max(medians.values()) - min(medians.values())
    passed = spread < 0.1 and all(m <= SLOPE_BOUND for m in medians.values())
    detail = ", ".join(f"n={n}: {m:.4f}" for n, m in medians.items())
    _report(12, passed, f"median slopes {detail}; spread {spread:.4f} (bound 0.1)")
    assert spread < 0.1
    assert all(m <= SLOPE_BOUND for m in medians.values())

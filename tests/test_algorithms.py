"""Greedy run loop, update rules, and trace bookkeeping."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from greedyopt.dictionaries import (
    Atom,
    FiniteDictionary,
    RankOneDictionary,
    UnsupportedDictionaryError,
    select_gradient_greedy,
)
from greedyopt.algorithms import (
    BestStep,
    Chebyshev,
    ConvexRelaxation,
    FixedRelaxation,
    FreeRelaxation,
    GreedyRunError,
    Prescribed,
    ReducedStep,
    StopReason,
    StopRule,
    WeaknessSequence,
    run_greedy,
)
from greedyopt import algorithms, inner_solvers
from greedyopt.inner_solvers import minimize_on_slice
from greedyopt.instances import gen_compressed_sensing, gen_low_rank, gen_lp_approx
from greedyopt.objectives import l2_norm, make_least_squares, make_norm_power

from oracles import free_relaxation_joint_minimum, iterate, quadratic_ray_minimum


def canonical(n=2):
    return FiniteDictionary(np.eye(n))


def run_ls(target, rule, *, weakness=1.0, dic=None, **stop_kwargs):
    dic = canonical(len(target)) if dic is None else dic
    obj = make_least_squares(np.asarray(target, dtype=float))
    stop = StopRule(**stop_kwargs) if stop_kwargs else StopRule(max_m=50)
    return run_greedy(obj, dic, WeaknessSequence.constant(weakness), rule, stop)


# ---------------------------------------------------------------------------
# weakness sequences


def test_weakness_constant_and_power():
    t = WeaknessSequence.constant(0.5)
    assert t.t(1) == 0.5 and t.t(100) == 0.5
    p = WeaknessSequence.power(0.5)  # t_m = m^{-1/2}
    assert p.t(1) == 1.0
    assert p.t(4) == pytest.approx(0.5, rel=1e-15)


def test_weakness_validation():
    with pytest.raises(ValueError):
        WeaknessSequence.constant(0.0)
    with pytest.raises(ValueError):
        WeaknessSequence.constant(1.5)
    with pytest.raises(ValueError):
        WeaknessSequence.power(-0.5)
    with pytest.raises(ValueError):
        WeaknessSequence.from_list([1.0, 0.0])
    with pytest.raises(ValueError):
        WeaknessSequence.constant(0.5).t(0)


def test_weakness_list_exhaustion_in_run():
    # a 1-entry list cannot cover a second iteration: the run aborts there
    # and keeps its first record
    obj = make_least_squares(np.array([3.0, 4.0]))
    with pytest.raises(GreedyRunError) as err:
        run_greedy(
            obj,
            canonical(),
            WeaknessSequence.from_list([1.0]),
            BestStep(),
            StopRule(max_m=5, sup_tol=-1.0),
        )
    assert isinstance(err.value.cause, ValueError)
    assert err.value.trace.stop_reason is StopReason.ABORTED
    assert [rec.m for rec in err.value.trace.records] == [1]


@pytest.mark.parametrize(
    "weakness, rule",
    [
        ([0.9, 0.9], BestStep()),
        (1.0, Prescribed([0.1, 0.1])),
        (1.0, Prescribed([0.1, 0.1], selection="energy")),
        (1.0, FixedRelaxation([0.1, 0.1])),
    ],
    ids=["weakness", "prescribed", "prescribed_energy", "fixed_relaxation"],
)
def test_exhausted_schedule_aborts_with_the_records_before_it(weakness, rule):
    # a 2-entry weakness list or step schedule has no value at m = 3: the
    # run aborts there with records 1 and 2, as any other abort does
    dic, y, _ = gen_compressed_sensing(16, 64, 4, mass=1.0, seed=3)
    with pytest.raises(GreedyRunError) as err:
        run_greedy(
            make_least_squares(y), dic, weakness, rule, StopRule(max_m=5, sup_tol=-1.0)
        )
    assert err.value.iteration == 3
    assert "exhausted at m=3" in str(err.value)
    assert isinstance(err.value.cause, ValueError)
    trace = err.value.trace
    assert trace.stop_reason is StopReason.ABORTED
    assert [rec.m for rec in trace.records] == [1, 2]
    assert len(trace.atoms) == 2
    assert np.allclose(trace.point, iterate(trace, dic, -1), rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Chebyshev (full re-minimization)


def test_chebyshev_canonical_two_steps():
    trace = run_ls([3.0, 4.0], Chebyshev())
    assert trace.iterations == 2
    first, second = trace.records
    assert first.atom == Atom(1, 1)
    assert first.score == 4.0
    assert first.energy == 4.5
    assert np.allclose(iterate(trace, canonical(), 0), [0.0, 4.0], atol=1e-12)
    assert second.atom == Atom(0, 1)
    assert second.energy == pytest.approx(0.0, abs=1e-20)
    assert trace.stop_reason is StopReason.SUP_SCORE_TOL


def test_chebyshev_zero_target():
    trace = run_ls([0.0, 0.0], Chebyshev())
    assert trace.iterations == 0
    assert trace.point is None
    assert trace.stop_reason is StopReason.SUP_SCORE_TOL


def test_max_m_zero():
    trace = run_ls([3.0, 4.0], Chebyshev(), max_m=0)
    assert trace.iterations == 0
    assert trace.stop_reason is StopReason.MAX_ITERATIONS


def test_gap_tol_stop():
    trace = run_ls([1.0, 0.0], Chebyshev(), max_m=50, gap_tol=1e-12, sup_tol=-1.0)
    assert trace.stop_reason is StopReason.GAP_TOL
    assert trace.records[-1].energy <= 1e-12


def test_chebyshev_merges_repeated_atoms():
    # after both atoms are selected once the residual stays in their span, so
    # forcing extra iterations must re-use entries instead of growing the basis
    trace = run_ls([3.0, 4.0], Chebyshev(), max_m=3, sup_tol=-1.0)
    assert trace.iterations == 3
    assert len(trace.terms()) <= 2


def _fixed_point_run(weakness=1.0, max_m=24):
    # lp_approx n=64 instance 1001: atoms 1-16 are new, and from m = 17 on
    # every selection merges into the span, so G and E'(G) stop changing
    dic, obj, _ = gen_lp_approx(64, 3.0, 1.5, s=8, seed=1001)
    stop = StopRule(max_m=max_m, sup_tol=-1.0)
    return run_greedy(obj, dic, weakness, Chebyshev(), stop)


def _same_bits(a, b):
    if isinstance(a, (float, np.ndarray)):
        return np.asarray(a).tobytes() == np.asarray(b).tobytes()
    return a == b


def test_chebyshev_fixed_point_repeats_the_sup_answer(monkeypatch):
    answers = []
    certified_sup = FiniteDictionary.certified_sup

    def counted(self, w):
        answers.append(certified_sup(self, w))
        return answers[-1]

    monkeypatch.setattr(FiniteDictionary, "certified_sup", counted)
    trace = _fixed_point_run()
    assert trace.iterations == 24
    # certified_sup still runs once per step: the step marker stays
    assert len(answers) == len(trace.records)
    indices = [r.atom.index for r in trace.records]
    merged = next(i for i, j in enumerate(indices) if j in indices[:i])
    assert merged == 16
    # from the first merged step on the dictionary answers from its memo
    assert answers[merged - 1] is not answers[merged]
    assert all(a is answers[merged] for a in answers[merged:])
    # and every later record repeats the one before it, bit for bit
    kept = [f.name for f in dataclasses.fields(trace.records[0])]
    kept = [name for name in kept if name not in ("m", "wall_ns")]
    for prev, rec in zip(trace.records[merged:], trace.records[merged + 1 :]):
        for name in kept:
            assert _same_bits(getattr(prev, name), getattr(rec, name)), name


def test_weakness_list_exhausted_at_fixed_point():
    # each step still reads its own t_m, so a list that runs out inside the
    # fixed point aborts at the same m and keeps its partial trace
    full = _fixed_point_run()
    with pytest.raises(GreedyRunError) as err:
        _fixed_point_run(WeaknessSequence.from_list([1.0] * 20))
    assert err.value.iteration == 21
    assert isinstance(err.value.cause, algorithms.ScheduleExhaustedError)
    partial = err.value.trace
    assert partial.stop_reason is StopReason.ABORTED
    assert [r.m for r in partial.records] == list(range(1, 21))
    for got, want in zip(partial.records, full.records):
        assert got.energy == want.energy and got.atom == want.atom


def test_chebyshev_inner_failure_is_loud():
    # correlated basis vectors leave machine-noise projected gradient, which
    # an impossible tolerance turns into a loud failure with a partial trace
    rng = np.random.default_rng(2)
    dic = FiniteDictionary.from_matrix(rng.standard_normal((3, 6)))
    with pytest.raises(GreedyRunError) as err:
        run_ls(
            rng.standard_normal(3),
            Chebyshev(subspace_tol=1e-30),
            dic=dic,
            max_m=5,
            sup_tol=-1.0,
        )
    assert err.value.iteration >= 1
    assert err.value.trace.iterations == err.value.iteration - 1
    assert err.value.trace.stop_reason is StopReason.INNER_FAILURE


def test_chebyshev_non_quadratic_span_is_lbfgs_only(monkeypatch):
    # on a non-quadratic objective the span solve is L-BFGS-B alone: no
    # coordinate line searches, and a few hundred gradients for ten steps
    # even where the planted target enters the span (E ~ 1e-25 from m = 8)
    def no_line_search(*args, **kwargs):
        raise AssertionError("minimize_subspace called line_search")

    monkeypatch.setattr(inner_solvers, "line_search", no_line_search)
    dic, obj, _ = gen_lp_approx(64, 3.0, 1.5, s=8, seed=1000)
    calls = []
    counted = dataclasses.replace(
        obj, gradient_fn=lambda x: calls.append(1) or obj.gradient_fn(x)
    )
    trace = run_greedy(
        counted, dic, 1.0, Chebyshev(), StopRule(max_m=10, sup_tol=-1.0)
    )
    assert trace.iterations == 10
    assert len(calls) <= 1000
    # E at m = 10 from the three-stage solver (L-BFGS-B, coordinate polish,
    # L-BFGS-B) that this path replaced
    assert trace.records[-1].energy == pytest.approx(4.911012862748374e-25, abs=1e-20)


def test_chebyshev_exact_fit_span_solve_is_one_lbfgs_pass(monkeypatch):
    # lp_approx n=64 instance 1001: at m = 8 the span holds the planted
    # target, E's minimizer, so the pass started at its projection meets the
    # contract alone. The solver before that start, from the previous
    # solution with a 0 appended, made 231 E and 231 E' calls in these 8
    # steps; this one makes 80 of each.
    widths = []
    lbfgs = inner_solvers._lbfgs

    def counted_pass(objective, basis, coef, options):
        widths.append(basis.shape[1])
        return lbfgs(objective, basis, coef, options)

    monkeypatch.setattr(inner_solvers, "_lbfgs", counted_pass)
    dic, obj, _ = gen_lp_approx(64, 3.0, 1.5, s=8, seed=1001)
    calls = {"value": 0, "gradient": 0}

    def counting(name, fn):
        return lambda x: calls.__setitem__(name, calls[name] + 1) or fn(x)

    counted = dataclasses.replace(
        obj,
        value_fn=counting("value", obj.value_fn),
        gradient_fn=counting("gradient", obj.gradient_fn),
    )
    trace = run_greedy(counted, dic, 1.0, Chebyshev(), StopRule(max_m=8, sup_tol=-1.0))
    assert len(trace.terms()) == 8
    assert widths.count(8) == 1
    assert trace.records[-1].grad_inf <= 1e-8
    assert trace.records[-1].energy <= 1e-20
    assert calls["value"] <= 120 and calls["gradient"] <= 120


def test_chebyshev_well_conditioned_span_never_calls_lstsq(monkeypatch):
    # a generic target over a compressed-sensing dictionary: 40 distinct
    # atoms, and the factor's triangular solve meets the contract at every
    # step, so the full lstsq fallback never runs
    def no_lstsq(*args, **kwargs):
        raise AssertionError("the span solve fell back to lstsq")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    dic, _, _ = gen_compressed_sensing(64, 256, 8, seed=3)
    y = np.random.default_rng(3).standard_normal(64)
    trace = run_ls(y, Chebyshev(), dic=dic, max_m=40, sup_tol=-1.0)
    assert trace.iterations == 40
    assert len(trace.terms()) == 40
    assert max(r.grad_inf for r in trace.records) <= 1e-8


@pytest.mark.parametrize("rule", [FreeRelaxation(), ConvexRelaxation()])
def test_relaxed_projection_steps_never_call_lstsq_or_search(monkeypatch, rule):
    # every slice step of a least-squares run is the closed-form projection:
    # no lstsq, and no step falls back to a search (a line search, or the
    # plane's L-BFGS-B pass)
    def forbidden(*args, **kwargs):
        raise AssertionError("the slice step left the closed form")

    monkeypatch.setattr(np.linalg, "lstsq", forbidden)
    monkeypatch.setattr(inner_solvers, "line_search", forbidden)
    monkeypatch.setattr(inner_solvers, "_scipy_minimize", forbidden)
    dic, y, _ = gen_compressed_sensing(64, 256, 8, seed=3)
    trace = run_ls(y, rule, dic=dic, max_m=60, sup_tol=-1.0)
    assert trace.iterations == 60
    assert trace.records[-1].energy < 0.05 * trace.initial_energy


def test_chebyshev_more_atoms_than_dim_meets_the_contract(monkeypatch):
    # e1, e2, e3 fit the target exactly at m = 3; the zero gradient then
    # selects atom 0, the fourth column in R^3, which turns the factor off,
    # and the span solve falls back to one lstsq
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(
        np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k)
    )
    dic = FiniteDictionary.from_matrix(
        np.column_stack([np.ones(3) / np.sqrt(3.0), np.eye(3)])
    )
    trace = run_ls([10.0, 0.1, 0.01], Chebyshev(), dic=dic, max_m=6, sup_tol=-1.0)
    assert [r.atom.index for r in trace.records[:4]] == [1, 2, 3, 0]
    assert trace.records[2].energy == 0.0
    assert len(trace.terms()) == 4
    assert calls == [1]
    assert trace.point == pytest.approx([10.0, 0.1, 0.01], abs=1e-14)
    assert max(r.grad_inf for r in trace.records) <= 1e-8


def test_chebyshev_merged_step_skips_the_span_solve(monkeypatch):
    # from m = 9 every selection merges into the basis of the planted target;
    # the span is unchanged, so its solve is not repeated
    solves = []
    solve = algorithms.minimize_subspace
    monkeypatch.setattr(
        algorithms,
        "minimize_subspace",
        lambda *a, **k: solves.append(1) or solve(*a, **k),
    )
    dic, obj, _ = gen_lp_approx(64, 3.0, 1.5, s=8, seed=1000)
    trace = run_greedy(obj, dic, 1.0, Chebyshev(), StopRule(max_m=20, sup_tol=-1.0))
    assert trace.iterations == 20
    assert len(solves) == len(trace.atoms) < 20
    for prev, rec in zip(trace.records, trace.records[1:]):
        if len(rec.coefficients) == len(prev.coefficients):
            assert np.array_equal(rec.coefficients, prev.coefficients)
            assert rec.grad_inf == prev.grad_inf


# ---------------------------------------------------------------------------
# convex relaxation (steps stay in the unit simplex over atoms)


def test_relaxation_single_atom_halfway():
    trace = run_ls([0.5, 0.0], ConvexRelaxation())
    first = trace.records[0]
    assert first.atom == Atom(0, 1)
    assert first.lam == 0.5
    assert first.energy == 0.0


def test_relaxation_zero_target_keeps_going_without_sup_stop():
    trace = run_ls([0.0, 0.0], ConvexRelaxation(), max_m=3, sup_tol=-1.0)
    assert trace.iterations == 3
    assert all(rec.lam == 0.0 for rec in trace.records)
    assert all(rec.energy == 0.0 for rec in trace.records)


def test_relaxation_outside_hull_converges_to_projection():
    # (0.6, 0.8) sits outside the cross-polytope; the limit is the l1 projection
    # (0.4, 0.6) with energy 0.5 * 0.08^2 = 0.04 ... no: 0.5*||(0.2,0.2)||^2 = 0.04
    trace = run_ls([0.6, 0.8], ConvexRelaxation(), max_m=500, sup_tol=-1.0)
    assert trace.records[-1].energy >= 0.04 - 1e-12
    assert trace.records[-1].energy <= 0.04 + 1e-3


def test_relaxation_lambda_and_mass_bounds():
    trace = run_ls([0.6, 0.8], ConvexRelaxation(), max_m=60, sup_tol=-1.0)
    for rec in trace.records:
        assert 0.0 <= rec.lam <= 1.0
        assert rec.l1_mass <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# free relaxation (joint scaling of history and new atom)


def test_free_relaxation_first_step_matches_best_step():
    free = run_ls([3.0, 4.0], FreeRelaxation(), max_m=1, sup_tol=-1.0)
    best = run_ls([3.0, 4.0], BestStep(), max_m=1, sup_tol=-1.0)
    assert free.records[0].atom == best.records[0].atom
    assert free.records[0].energy == pytest.approx(best.records[0].energy, abs=1e-12)


def test_free_relaxation_matches_joint_oracle():
    rng = np.random.default_rng(5)
    cols = rng.standard_normal((6, 2))
    dic = FiniteDictionary.from_matrix(cols)
    target = rng.standard_normal(6)
    obj = make_least_squares(target)
    trace = run_greedy(
        obj,
        dic,
        WeaknessSequence.constant(1.0),
        FreeRelaxation(),
        StopRule(max_m=8, sup_tol=-1.0),
    )
    prev = np.zeros(6)
    for i, rec in enumerate(trace.records):
        phi = dic.realize(rec.atom)
        _, _, best = free_relaxation_joint_minimum(target, prev, phi)
        assert rec.energy <= best + 1e-8 * (1.0 + abs(best))
        prev = iterate(trace, dic, i)


@pytest.mark.parametrize("seed", [1001, 1002])
def test_free_relaxation_non_quadratic_plane_calls_per_step(seed):
    # lp n=64, r=3, q=1.5, s=8: the plane is one L-BFGS-B pass, about 29
    # E/E' calls per step, where alternating line searches took about 300
    dic, obj, _ = gen_lp_approx(64, 3.0, 1.5, s=8, seed=seed)
    calls = []
    counted = dataclasses.replace(
        obj,
        value_fn=lambda x: calls.append(1) or obj.value_fn(x),
        gradient_fn=lambda x: calls.append(1) or obj.gradient_fn(x),
    )
    trace = run_greedy(counted, dic, 1.0, FreeRelaxation(), StopRule(max_m=40))
    assert trace.iterations == 40
    assert len(calls) <= 40 * trace.iterations


def test_free_relaxation_never_worse_than_best_step_per_iteration():
    rng = np.random.default_rng(9)
    dic = FiniteDictionary.from_matrix(rng.standard_normal((8, 16)))
    target = rng.standard_normal(8)
    obj = make_least_squares(target)
    trace = run_greedy(
        obj,
        dic,
        WeaknessSequence.constant(1.0),
        FreeRelaxation(),
        StopRule(max_m=10, sup_tol=-1.0),
    )
    prev = np.zeros(8)
    for i, rec in enumerate(trace.records):
        phi = dic.realize(rec.atom)
        c_star, best_step = quadratic_ray_minimum(target, prev, phi)
        assert rec.energy <= best_step + 1e-9
        prev = iterate(trace, dic, i)


# ---------------------------------------------------------------------------
# best step / reduced step


def test_best_step_matches_matching_pursuit_oracle():
    rng = np.random.default_rng(21)
    dic = FiniteDictionary.from_matrix(rng.standard_normal((8, 16)))
    target = rng.standard_normal(8)
    obj = make_least_squares(target)
    trace = run_greedy(
        obj,
        dic,
        WeaknessSequence.constant(1.0),
        BestStep(),
        StopRule(max_m=8, sup_tol=-1.0),
    )
    residual = target.copy()
    for rec in trace.records:
        scores = dic.columns.T @ residual
        idx = int(np.argmax(np.abs(scores)))
        sign = 1 if scores[idx] >= 0 else -1
        assert (rec.atom.index, rec.atom.sign) == (idx, sign)
        phi = dic.realize(rec.atom)
        lam, _ = quadratic_ray_minimum(residual, np.zeros(8), phi)
        assert rec.lam == pytest.approx(lam, abs=1e-8)
        residual = residual - rec.lam * phi


def test_reduced_step_canonical():
    trace = run_ls([3.0, 4.0], ReducedStep(0.5), max_m=1, sup_tol=-1.0)
    rec = trace.records[0]
    assert rec.atom == Atom(1, 1)
    assert rec.lam == pytest.approx(2.0, abs=1e-8)  # b * c* = 0.5 * 4
    assert rec.energy == pytest.approx(6.5, abs=1e-8)
    assert rec.w_or_r == 0.5


def test_reduced_step_near_one_tracks_best_step():
    full = run_ls([3.0, 4.0], BestStep(), max_m=1, sup_tol=-1.0)
    near = run_ls([3.0, 4.0], ReducedStep(1.0 - 1e-9), max_m=1, sup_tol=-1.0)
    assert near.records[0].energy == pytest.approx(full.records[0].energy, abs=1e-8)


def test_reduced_step_validates_b():
    with pytest.raises(ValueError):
        ReducedStep(0.0)
    with pytest.raises(ValueError):
        ReducedStep(1.5)


# ---------------------------------------------------------------------------
# closed-form slice steps against the searches they replace

# rule -> the slice it minimizes from the previous point P along the atom,
# and the point a slice coefficient vector c gives
_SLICES = {
    "wrga": (
        ConvexRelaxation(),
        lambda P, phi: (P, (phi - P,), 0.0, 1.0),
        lambda P, phi, c: P + c[0] * (phi - P),
    ),
    "wgafr": (
        FreeRelaxation(),
        lambda P, phi: (P, (P, phi), -np.inf, np.inf),
        lambda P, phi, c: (1.0 + c[0]) * P + c[1] * phi,
    ),
    "best_step": (
        BestStep(),
        lambda P, phi: (P, (phi,), 0.0, np.inf),
        lambda P, phi, c: P + c[0] * phi,
    ),
    "reduced_step": (
        ReducedStep(0.5),
        lambda P, phi: (P, (phi,), 0.0, np.inf),
        lambda P, phi, c: P + c[0] * phi,
    ),
    "fixed_relaxation": (
        FixedRelaxation(0.25),
        lambda P, phi: (0.75 * P, (phi,), -np.inf, np.inf),
        lambda P, phi, c: 0.75 * P + c[0] * phi,
    ),
}


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 8),
    n=st.integers(2, 12),
    name=st.sampled_from(sorted(_SLICES)),
)
@settings(max_examples=60, deadline=None)
def test_exact_steps_never_worse_than_searches(seed, k, n, name):
    rng = np.random.default_rng(seed)
    dic = FiniteDictionary.from_matrix(rng.standard_normal((k, n)))
    obj = make_least_squares(rng.standard_normal(k))
    searched = dataclasses.replace(obj, projection_target=None)
    rule, slice_of, point_of = _SLICES[name]
    trace = run_greedy(obj, dic, 1.0, rule, StopRule(max_m=6, sup_tol=-1.0))
    prev = np.zeros(k)
    for i, rec in enumerate(trace.records):
        phi = dic.realize(rec.atom)
        base, directions, lower, upper = slice_of(prev, phi)
        c = minimize_on_slice(searched, base, directions, lower, upper).coefficients
        e_search = obj.value(point_of(prev, phi, c))
        if name == "reduced_step":
            # the trace applies half the step; compare the slice minima
            e_exact = obj.value(prev + (rec.lam / 0.5) * phi)
        else:
            e_exact = rec.energy
        assert e_exact <= e_search + 1e-12 * (1.0 + abs(e_search))
        prev = iterate(trace, dic, i)


# ---------------------------------------------------------------------------
# fixed relaxation / prescribed steps


# (values, gradients) over 20 steps: E and E' at G_0, then one E and one E'
# per new atom, where the first-order test or the span contract evaluated
# them (6 atoms for wcga on the cs instance, 15 on the low-rank one). A
# reduced step evaluates E at its own point and E' at the next step, a
# prescribed one only E
_CALLS = {
    "compressed_sensing": {
        "wcga": (7, 7),
        "wrga": (21, 21),
        "wgafr": (21, 21),
        "best_step": (21, 21),
        "fixed_relaxation": (21, 21),
        "reduced_step": (41, 40),
        "prescribed": (21, 20),
    },
    "low_rank": {
        "wcga": (16, 16),
        "wrga": (21, 21),
        "wgafr": (21, 21),
        "best_step": (21, 21),
        "fixed_relaxation": (21, 21),
        "reduced_step": (41, 40),
        "prescribed": (21, 20),
    },
}


@pytest.mark.parametrize(
    "rule",
    [
        Chebyshev(),
        ConvexRelaxation(),
        FreeRelaxation(),
        BestStep(),
        FixedRelaxation(0.25),
        ReducedStep(0.5),
        Prescribed(0.05),
    ],
)
@pytest.mark.parametrize("kind", ["compressed_sensing", "low_rank"])
def test_slice_gradient_is_the_next_selection_gradient(rule, kind):
    # every rule that moves to a solver's point takes E and the next
    # selection's gradient from the solver's result. Replaying each
    # selection on a fresh E'(G_{m-1}) gives bitwise the same record
    if kind == "compressed_sensing":
        dic, y, _ = gen_compressed_sensing(16, 64, 4, mass=1.0, seed=3)
        obj = make_least_squares(y)
    else:
        dic, target, _ = gen_low_rank(8, 2, mass=1.0, seed=3)
        obj = make_norm_power(target.ravel(), 2.0, 2.0)
    calls = []
    counted = dataclasses.replace(
        obj,
        value_fn=lambda x: calls.append("value") or obj.value_fn(x),
        gradient_fn=lambda x: calls.append("gradient") or obj.gradient_fn(x),
    )
    trace = run_greedy(counted, dic, 1.0, rule, StopRule(max_m=20, sup_tol=-1.0))
    assert trace.iterations == 20
    counts = (calls.count("value"), calls.count("gradient"))
    assert counts == _CALLS[kind][rule.name]
    # G replayed with the run's own update, so it is bitwise the run's G
    stack = np.array([dic.realize(atom) for atom in trace.atoms])
    G = np.zeros(obj.dimension)
    for rec in trace.records:
        direction = -obj.gradient(G)
        shift = float(np.dot(direction, G)) if rule.convex else 0.0
        cert = select_gradient_greedy(dic, direction, 1.0, shift)
        assert cert.atom == rec.atom
        assert (cert.score, cert.reference, cert.ratio) == (
            rec.score,
            rec.sup_score,
            rec.weakness_ratio,
        )
        phi = dic.realize(rec.atom)
        if isinstance(rule, Chebyshev):
            G = stack[: len(rec.coefficients)].T @ rec.coefficients
        elif isinstance(rule, ConvexRelaxation):
            G = G + rec.lam * (phi - G)
        elif isinstance(rule, FreeRelaxation):
            G = G + (-rec.w_or_r) * G + rec.lam * phi
        elif isinstance(rule, FixedRelaxation):
            G = (1.0 - rec.w_or_r) * G + rec.lam * phi
        else:
            G = G + rec.lam * phi
    assert np.array_equal(G, trace.point)


def test_fixed_relaxation_zero_schedule_is_best_step():
    fixed = run_ls(
        [3.0, 4.0], FixedRelaxation([0.0] * 4), max_m=4, sup_tol=-1.0
    )
    best = run_ls([3.0, 4.0], BestStep(), max_m=4, sup_tol=-1.0)
    assert [r.atom for r in fixed.records] == [r.atom for r in best.records]
    assert np.allclose(fixed.energies(), best.energies(), atol=1e-12)
    assert all(r.w_or_r == 0.0 for r in fixed.records)


def test_fixed_relaxation_rejects_unit_shrink():
    with pytest.raises(ValueError):
        FixedRelaxation([0.5, 1.0])
    with pytest.raises(ValueError):
        run_ls([3.0, 4.0], FixedRelaxation(1.0), max_m=2, sup_tol=-1.0)


def test_prescribed_steps_run_exactly_and_record_lam():
    steps = Prescribed([1.0 / m for m in range(1, 6)])
    trace = run_ls([3.0, 4.0], steps, max_m=5, sup_tol=-1.0)
    assert trace.iterations == 5
    for rec in trace.records:
        assert rec.lam == pytest.approx(1.0 / rec.m, rel=1e-15)
    # prescribed steps need not be monotone in energy
    assert trace.stop_reason is StopReason.MAX_ITERATIONS


def test_prescribed_energy_selection_requires_finite_dictionary():
    obj = make_least_squares(np.zeros(4))
    with pytest.raises(UnsupportedDictionaryError):
        run_greedy(
            obj,
            RankOneDictionary(2),
            WeaknessSequence.constant(1.0),
            Prescribed(0.5, selection="energy"),
            StopRule(max_m=2),
        )


def test_prescribed_validates_steps_and_selection():
    with pytest.raises(ValueError):
        run_ls([1.0, 0.0], Prescribed(-0.5), max_m=2, sup_tol=-1.0)
    with pytest.raises(ValueError):
        Prescribed([0.5, 0.0])
    with pytest.raises(ValueError):
        Prescribed(0.5, selection="other")


def test_numpy_scalar_schedules_run_as_python_scalars():
    # a weakness or step schedule given as a numpy scalar is read as the same
    # Python float at every iteration
    for np_rule, rule in [
        (FixedRelaxation(np.float32(0.25)), FixedRelaxation(0.25)),
        (Prescribed(np.int64(1)), Prescribed(1.0)),
    ]:
        a = run_ls([3.0, 4.0], np_rule, weakness=np.float32(0.5), max_m=3, sup_tol=-1.0)
        b = run_ls([3.0, 4.0], rule, weakness=0.5, max_m=3, sup_tol=-1.0)
        assert np.array_equal(a.energies(), b.energies())


# ---------------------------------------------------------------------------
# trace invariants


def test_runs_are_deterministic():
    a = run_ls([0.6, 0.8], ConvexRelaxation(), max_m=40, sup_tol=-1.0)
    b = run_ls([0.6, 0.8], ConvexRelaxation(), max_m=40, sup_tol=-1.0)
    assert np.array_equal(a.energies(), b.energies())
    assert [r.atom for r in a.records] == [r.atom for r in b.records]


def test_approximant_point_matches_terms():
    rng = np.random.default_rng(3)
    dic = FiniteDictionary.from_matrix(rng.standard_normal((6, 12)))
    target = rng.standard_normal(6)
    trace = run_greedy(
        make_least_squares(target),
        dic,
        WeaknessSequence.constant(0.7),
        Chebyshev(),
        StopRule(max_m=6, sup_tol=-1.0),
    )
    point = np.zeros(6)
    mass = 0.0
    for atom, coef in trace.terms():
        point = point + coef * dic.realize(atom)
        mass += abs(coef)
    assert np.allclose(trace.point, point, atol=1e-10 * (1.0 + mass))


@pytest.mark.parametrize(
    "rule",
    [
        Chebyshev(),
        ConvexRelaxation(),
        FreeRelaxation(),
        BestStep(),
        ReducedStep(),
        FixedRelaxation(0.1),
        Prescribed(0.05),
    ],
    ids=lambda rule: type(rule).__name__,
)
def test_records_hold_coefficients_not_points(rule):
    # a record keeps its coefficients over the run's atoms, never a copy of G:
    # no field is a dim-sized array, and the last point is the terms' sum
    dic, y, _ = gen_compressed_sensing(32, 64, 4, seed=2)
    trace = run_ls(y, rule, dic=dic, max_m=12, sup_tol=-1.0)
    assert trace.iterations == 12
    for rec in trace.records:
        for f in dataclasses.fields(rec):
            value = getattr(rec, f.name)
            assert not (isinstance(value, np.ndarray) and value.size == 32)
        assert not rec.coefficients.flags.writeable
        assert len(rec.coefficients) <= len(trace.atoms)
    assert trace.point == pytest.approx(iterate(trace, dic, -1), abs=1e-12)


def test_iterates_stay_in_sublevel_set():
    rng = np.random.default_rng(17)
    dic = FiniteDictionary.from_matrix(rng.standard_normal((5, 10)))
    target = rng.standard_normal(5)
    obj = make_least_squares(target)
    for rule in (Chebyshev(), ConvexRelaxation(), FreeRelaxation(), BestStep()):
        trace = run_greedy(
            obj,
            dic,
            WeaknessSequence.constant(1.0),
            rule,
            StopRule(max_m=20, sup_tol=-1.0),
        )
        for i, rec in enumerate(trace.records):
            # energy never exceeds E(0), so iterates stay within the sublevel
            # ball of radius 2*||target|| around the target
            assert rec.energy <= obj.value(np.zeros(5)) + 1e-12
            assert (
                l2_norm(iterate(trace, dic, i) - target)
                <= obj.sublevel_radius + 1e-9
            )


def test_trace_accessors():
    trace = run_ls([3.0, 4.0], Chebyshev())
    assert list(trace.ms()) == [1, 2]
    assert list(trace.energies()) == [rec.energy for rec in trace.records]
    assert np.array_equal(trace.gaps(0.0), trace.energies())
    assert np.array_equal(trace.gaps(-1.0), trace.energies() + 1.0)
    assert trace.atoms == [Atom(1, 1), Atom(0, 1)]
    assert [a for a, _ in trace.terms(0)] == [Atom(1, 1)]
    assert [c for _, c in trace.terms()] == pytest.approx([4.0, 3.0], abs=1e-12)
    assert trace.point == pytest.approx([3.0, 4.0], abs=1e-12)
    assert trace.initial_energy == 12.5
    assert trace.algorithm == "wcga"


def test_weakness_ratio_recorded():
    trace = run_ls([3.0, 4.0], Chebyshev(), weakness=0.5, max_m=2, sup_tol=-1.0)
    for rec in trace.records:
        assert rec.weakness_ratio >= 0.5 - 1e-12
        assert rec.score <= rec.sup_score + 1e-12

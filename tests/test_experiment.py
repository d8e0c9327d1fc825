"""Config handling, experiment runs, artifact determinism, and the
programmatic verification checks."""

import dataclasses
import json
import math

import numpy as np
import pytest

from greedyopt import experiment, objectives

from greedyopt.algorithms import (
    BestStep,
    Chebyshev,
    ConvexRelaxation,
    FixedRelaxation,
    FreeRelaxation,
    Prescribed,
    ReducedStep,
    StopReason,
    StopRule,
    run_greedy,
)
from greedyopt.dictionaries import Atom, FiniteDictionary
from greedyopt.experiment import (
    TRACE_COLUMNS,
    ConfigError,
    build_instance,
    build_rule,
    build_stop,
    build_weakness,
    check_gradient_fd,
    check_omp_equivalence,
    check_orthogonality,
    check_recurrence,
    check_smoothness_sampling,
    check_xi_agreement,
    config_hash,
    l1_defect,
    load_config,
    make_recurrence_case,
    monotonicity_defect,
    omp_reference,
    orthogonality_defect,
    run_experiment,
    sample_sublevel_triple,
    signal_coefficients,
    trace_rows,
    validate_config,
    write_trace_csv,
)
from greedyopt.instances import gen_compressed_sensing, verify_certificate
from greedyopt.objectives import make_least_squares, make_norm_power
from greedyopt.theory import check_envelope, verify_recurrence

from oracles import omp_normal_equations, orthogonality_defect_loop


BASE = {
    "instance": "compressed_sensing",
    "algorithm": "wcga",
    "seed": 1,
    "k": 16,
    "n": 64,
    "s": 4,
    "max_m": 30,
    "sup_tol": -1.0,
}


def cfg(**overrides):
    out = dict(BASE)
    out.update(overrides)
    return out


# ---------------------------------------------------------------------------
# config validation and hashing


def test_validate_accepts_base_config():
    assert validate_config(cfg()) == cfg()


def test_validate_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config keys"):
        validate_config(cfg(seeed=3))


def test_validate_requires_core_keys():
    for key in ("instance", "algorithm", "seed"):
        broken = cfg()
        del broken[key]
        with pytest.raises(ConfigError, match=key):
            validate_config(broken)


def test_validate_requires_instance_parameters():
    broken = cfg()
    del broken["k"]
    with pytest.raises(ConfigError, match="requires key 'k'"):
        validate_config(broken)
    with pytest.raises(ConfigError, match="requires key 'rank'"):
        validate_config(
            {"instance": "low_rank", "algorithm": "wrga", "seed": 0, "n": 8}
        )


def test_validate_rejects_bad_values():
    with pytest.raises(ConfigError, match="unknown instance kind"):
        validate_config(cfg(instance="dense"))
    with pytest.raises(ConfigError, match="unknown algorithm"):
        validate_config(cfg(algorithm="sgd"))
    with pytest.raises(ConfigError, match="expected"):
        validate_config(cfg(seed="one"))
    with pytest.raises(ConfigError, match="got bool"):
        validate_config(cfg(weakness=True))
    with pytest.raises(ConfigError):
        validate_config(["not", "a", "dict"])


def test_validate_weakness_exclusivity():
    with pytest.raises(ConfigError, match="not both"):
        validate_config(cfg(weakness=0.5, weakness_exponent=0.25))
    validate_config(cfg(weakness=0.5))
    validate_config(cfg(weakness_exponent=0.25))


@pytest.mark.parametrize(
    "key, bad, good",
    [
        ("weakness", [0.0, -0.5, 1.5], [1e-3, 1.0]),
        ("weakness_exponent", [-0.25], [0.0, 0.5]),
        ("step_b", [0.0, 1.0, 2.0], [0.5]),
        ("relaxation_r", [-0.1, 1.0], [0.0, 0.5]),
        ("prescribed_step", [0.0, -1.0], [0.05]),
    ],
)
def test_validate_rejects_out_of_range_values(key, bad, good):
    # each key on an algorithm that reads it (the weakness keys: all do)
    algorithm = _READER.get(key, "wcga")
    for value in bad:
        with pytest.raises(ConfigError, match=key):
            validate_config(cfg(algorithm=algorithm, **{key: value}))
    for value in good:
        validate_config(cfg(algorithm=algorithm, **{key: value}))


# rule key -> an algorithm whose rule has its field
_READER = {
    "subspace_tol": "wcga",
    "step_b": "reduced_step",
    "relaxation_r": "fixed_relaxation",
    "prescribed_step": "prescribed",
    "prescribed_selection": "prescribed",
}


@pytest.mark.parametrize("key", sorted(_READER))
def test_validate_rejects_rule_key_its_rule_does_not_read(key):
    value = "gradient" if key == "prescribed_selection" else 0.5
    for algorithm in sorted(set(experiment.RULES) - {_READER[key]}):
        with pytest.raises(ConfigError, match=f"{key}.*{algorithm}"):
            validate_config(cfg(algorithm=algorithm, **{key: value}))
    validate_config(cfg(algorithm=_READER[key], **{key: value}))


# instance kind -> a config of it; instance key -> (a value, the kinds that read it)
_KINDS = {
    "compressed_sensing": dict(instance="compressed_sensing", k=32, n=64, s=4),
    "low_rank": dict(instance="low_rank", n=8, rank=2),
    "lp_approx": dict(instance="lp_approx", n=16, r=3.0, q=1.5),
}
_INSTANCE_READERS = {
    "k": (32, {"compressed_sensing"}),
    "s": (4, {"compressed_sensing", "lp_approx"}),
    "rank": (2, {"low_rank"}),
    "r": (3.0, {"lp_approx"}),
    "q": (1.5, {"lp_approx"}),
    "dict_size": (64, {"lp_approx"}),
    "min_coef": (0.01, {"compressed_sensing", "lp_approx"}),
}


@pytest.mark.parametrize("key", sorted(_INSTANCE_READERS))
def test_validate_rejects_instance_key_its_kind_does_not_read(key):
    value, readers = _INSTANCE_READERS[key]
    for kind, instance in _KINDS.items():
        config = dict(instance, algorithm="wcga", seed=0, **{key: value})
        if kind in readers:
            validate_config(config)
        else:
            with pytest.raises(ConfigError, match=f"{key}.*{kind}"):
                validate_config(config)


def test_validate_rejects_more_planted_atoms_than_n():
    with pytest.raises(ConfigError, match="'s' = 65 exceeds n = 64"):
        validate_config(cfg(s=65))
    validate_config(cfg(s=64))
    low_rank = {"instance": "low_rank", "algorithm": "wrga", "seed": 0, "n": 8}
    with pytest.raises(ConfigError, match="'rank' = 9 exceeds n = 8"):
        validate_config({**low_rank, "rank": 9})
    validate_config({**low_rank, "rank": 8})


def test_config_hash_canonical():
    a = cfg()
    b = dict(reversed(list(cfg().items())))
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(cfg(seed=2))
    assert len(config_hash(a)) == 64


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg()))
    assert load_config(path) == cfg()
    path.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_config(path)


# ---------------------------------------------------------------------------
# builders


def test_build_rule_mapping():
    assert isinstance(build_rule(cfg()), Chebyshev)
    assert build_rule(cfg(subspace_tol=1e-6)).subspace_tol == 1e-6
    assert isinstance(build_rule(cfg(algorithm="wrga")), ConvexRelaxation)
    assert isinstance(build_rule(cfg(algorithm="wgafr")), FreeRelaxation)
    assert isinstance(build_rule(cfg(algorithm="best_step")), BestStep)
    reduced = build_rule(cfg(algorithm="reduced_step", step_b=0.25))
    assert isinstance(reduced, ReducedStep) and reduced.b == 0.25
    fixed = build_rule(cfg(algorithm="fixed_relaxation", relaxation_r=0.1))
    assert isinstance(fixed, FixedRelaxation) and fixed.schedule == 0.1
    pre = build_rule(
        cfg(algorithm="prescribed", prescribed_step=0.3, prescribed_selection="energy")
    )
    assert isinstance(pre, Prescribed)
    assert (pre.steps, pre.selection) == (0.3, "energy")
    # every name the schema accepts builds its rule, runs under that name
    # and reports the invariants its rule declares; the three rules with a
    # rate envelope, and only they, report its ratio
    assert sorted(experiment.RULES) == sorted(_INVARIANTS)
    for name, keys in _INVARIANTS.items():
        result = run_experiment(cfg(algorithm=name, max_m=3))
        assert build_rule(result.config).name == name
        assert result.trace.algorithm == name
        assert sorted(result.summary["invariants"]) == sorted(keys)
        enveloped = name in ("wcga", "wrga", "wgafr")
        assert (result.summary["envelope_ratio"] is not None) == enveloped


_INVARIANTS = {
    "wcga": ("certificate", "monotone", "orthogonality"),
    "wrga": ("certificate", "monotone", "l1_confinement"),
    "wgafr": ("certificate", "monotone"),
    "best_step": ("certificate", "monotone"),
    "reduced_step": ("certificate",),
    "fixed_relaxation": ("certificate",),
    "prescribed": ("certificate",),
}


def test_build_weakness():
    assert build_weakness(cfg()).t(5) == 1.0
    assert build_weakness(cfg(weakness=0.5)).t(5) == 0.5
    assert build_weakness(cfg(weakness_exponent=0.5)).t(4) == pytest.approx(0.5)


def test_build_stop_defaults_and_reference():
    objective, dictionary, certificate, _ = build_instance(cfg())
    stop = build_stop({"max_m": 7}, certificate)
    assert stop == StopRule(max_m=7, sup_tol=1e-10, gap_tol=None, reference=0.0)
    stop = build_stop({"gap_tol": 1e-9, "reference": 0.25}, certificate)
    assert stop.gap_tol == 1e-9 and stop.reference == 0.25


@pytest.mark.parametrize(
    "seed", [1004, 1005, 1011, 1013, 1016, 1021, 1023, 1024, 1028]
)
def test_low_rank_wrga_runs_to_max_m(seed):
    # instances on which a capped power iteration could not certify the
    # selection: the SVD's bound certifies every step
    result = run_experiment(
        {
            "instance": "low_rank",
            "algorithm": "wrga",
            "seed": seed,
            "n": 64,
            "rank": 8,
            "max_m": 100,
        }
    )
    assert result.ok
    assert result.trace.iterations == 100
    assert result.trace.stop_reason is StopReason.MAX_ITERATIONS
    assert min(r.weakness_ratio for r in result.trace.records) >= 1.0 - 1e-12


@pytest.mark.parametrize("mass", [1e4, 1e6])
def test_low_rank_wrga_certifies_at_large_mass(mass):
    # the selection gradient scales with the target's mass, and so does the
    # SVD's margin; the certificate at t = 1 holds at every scale. Far
    # outside the unit nuclear ball the first step reaches the projection,
    # so later gaps sit at the roundoff floor, where the ratio means nothing
    result = run_experiment(
        {
            "instance": "low_rank",
            "algorithm": "wrga",
            "seed": 1004,
            "n": 64,
            "rank": 8,
            "mass": mass,
            "weakness": 1.0,
            "max_m": 100,
        }
    )
    assert result.ok
    assert result.trace.iterations == 100
    first, *rest = result.trace.records
    assert first.weakness_ratio >= 1.0 - 1e-12
    assert max(r.sup_score for r in rest) <= 1e-12 * mass


def test_build_instance_kinds():
    objective, dictionary, certificate, target = build_instance(cfg())
    assert objective.dimension == 16 and dictionary.size == 64
    verify_certificate(dictionary, target, certificate)
    objective, dictionary, certificate, target = build_instance(
        {"instance": "low_rank", "algorithm": "wcga", "seed": 0, "n": 6, "rank": 2}
    )
    assert objective.dimension == 36 and dictionary.ambient_dim == 36
    assert target.shape == (36,)
    verify_certificate(dictionary, target, certificate)
    objective, dictionary, certificate, target = build_instance(
        {
            "instance": "lp_approx",
            "algorithm": "wcga",
            "seed": 0,
            "n": 8,
            "r": 4.0,
            "q": 2.0,
        }
    )
    assert objective.dimension == 8 and dictionary.size == 32
    verify_certificate(dictionary, target, certificate)


LP = {
    "instance": "lp_approx",
    "algorithm": "wgafr",
    "seed": 0,
    "n": 8,
    "r": 4.0,
    "q": 2.0,
    "max_m": 3,
}


def test_certificate_invariant_checks_the_objectives_target(monkeypatch):
    assert run_experiment(LP).summary["invariants"]["certificate"]
    objective, dictionary, certificate, target = build_instance(LP)
    # the objective's own target moves off the planted one: the certificate
    # still synthesizes the returned target, but no longer attains E = 0
    f = target.copy()
    f[0] += 1e-3
    perturbed = make_norm_power(f, 4.0, 2.0)
    monkeypatch.setattr(
        experiment,
        "build_instance",
        lambda config: (perturbed, dictionary, certificate, target),
    )
    result = run_experiment(LP)
    assert result.summary["invariants"]["certificate"] is False
    assert not result.ok


# ---------------------------------------------------------------------------
# run_experiment


def test_run_experiment_summary_shape(tmp_path):
    result = run_experiment(cfg(), out_dir=tmp_path)
    assert set(result.summary) == {
        "config_hash",
        "stopping_reason",
        "final_gap",
        "slope",
        "envelope_ratio",
        "invariants",
    }
    assert result.ok
    assert result.summary["config_hash"] == config_hash(cfg())
    assert result.summary["stopping_reason"] == "MaxIterations"
    assert result.summary["final_gap"] <= 1e-10
    assert result.summary["invariants"]["certificate"]
    assert result.summary["invariants"]["monotone"]
    assert result.summary["invariants"]["orthogonality"]
    assert result.trace_path.exists() and result.summary_path.exists()
    written = json.loads(result.summary_path.read_text())
    assert written["config_hash"] == result.summary["config_hash"]


def test_run_experiment_is_byte_deterministic(tmp_path):
    a = run_experiment(cfg(), out_dir=tmp_path / "a")
    b = run_experiment(cfg(), out_dir=tmp_path / "b")
    assert a.trace_path.read_bytes() == b.trace_path.read_bytes()
    assert a.summary_path.read_bytes() == b.summary_path.read_bytes()


def test_run_experiment_never_reads_the_sampled_gamma(tmp_path, monkeypatch):
    # no output of an lp run reads its sampled gamma: with the calibration
    # made to fail, the run writes the bytes of an unpatched run, and gamma
    # is sampled only when something reads it
    config = dict(
        instance="lp_approx", algorithm="wcga", seed=1, n=16, r=3.0, q=1.5, s=4,
        max_m=20, sup_tol=-1.0,
    )
    plain = run_experiment(config, out_dir=tmp_path / "plain")

    def refuse(*args, **kwargs):
        raise AssertionError("gamma was calibrated")

    monkeypatch.setattr(objectives, "_calibrate_gamma", refuse)
    lazy = run_experiment(config, out_dir=tmp_path / "lazy")
    assert plain.ok and lazy.ok
    assert lazy.summary_path.read_bytes() == plain.summary_path.read_bytes()
    assert lazy.trace_path.read_bytes() == plain.trace_path.read_bytes()
    objective = build_instance(config)[0]
    with pytest.raises(AssertionError, match="calibrated"):
        objective.smoothness.gamma


def test_trace_csv_format(tmp_path):
    result = run_experiment(cfg(), out_dir=tmp_path)
    lines = result.trace_path.read_text().strip().split("\n")
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 1 + result.trace.iterations
    for line, rec in zip(lines[1:], result.trace.records):
        fields = line.split(",")
        assert len(fields) == len(TRACE_COLUMNS)
        assert int(fields[0]) == rec.m
        assert float(fields[1]) == rec.energy  # %.17g round-trips exactly
        assert int(fields[3]) == rec.atom.index
        assert int(fields[4]) == rec.atom.sign
        assert float(fields[10]) == rec.l1_mass
        assert fields[11] == "0"  # wall_ns zeroed without timings


def test_trace_csv_timings_flag(tmp_path):
    result = run_experiment(cfg(timings=True, max_m=5), out_dir=tmp_path)
    lines = result.trace_path.read_text().strip().split("\n")
    walls = [int(line.split(",")[11]) for line in lines[1:]]
    assert any(w > 0 for w in walls)


def _joined_trace_csv(trace, reference, timings) -> bytes:
    # the whole text built in memory and joined, each value formatted alone
    def fmt(value):
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return format(float(value), ".17g")

    lines = [",".join(TRACE_COLUMNS)]
    for row in trace_rows(trace, reference, timings):
        lines.append(",".join(fmt(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_streamed_trace_csv_keeps_the_joined_bytes(tmp_path):
    # one format string per line writes the bytes of formatting each value
    # alone: nan, inf, -0, large and tiny floats, and the int columns
    result = run_experiment(cfg(timings=True, max_m=6))
    trace = result.trace
    assert any(math.isnan(rec.lam) or math.isnan(rec.w_or_r) for rec in trace.records)
    odd = (math.inf, -math.inf, -0.0, 1e300, 5e-324, 0.1)
    trace.records[:3] = [
        dataclasses.replace(rec, lam=x, w_or_r=y, score=-0.0)
        for rec, x, y in zip(trace.records, odd, odd[::-1])
    ]
    for timings in (True, False):
        path = tmp_path / f"trace_{timings}.csv"
        write_trace_csv(path, trace, 0.25, timings)
        assert path.read_bytes() == _joined_trace_csv(trace, 0.25, timings)


def test_run_experiment_zero_iterations():
    result = run_experiment(cfg(max_m=0))
    assert result.summary["stopping_reason"] == "MaxIterations"
    assert result.summary["final_gap"] == result.trace.initial_energy
    assert result.summary["slope"] is None
    assert result.summary["envelope_ratio"] is None
    assert result.ok


def test_run_experiment_inner_failure_reported():
    result = run_experiment(cfg(subspace_tol=1e-30))
    assert result.summary["stopping_reason"] == "InnerFailure"
    assert result.summary["invariants"]["inner_solver"] is False
    assert not result.ok
    # the summary says which error stopped the run, and at which step
    assert result.summary["failure"].startswith("iteration 1: subspace solve stalled")


def test_run_experiment_envelope_for_relaxed_run():
    result = run_experiment(
        cfg(algorithm="wrga", k=8, n=16, s=2, mass=0.5, max_m=50)
    )
    assert result.ok
    assert result.summary["envelope_ratio"] is not None
    assert result.summary["envelope_ratio"] <= 1.0 + 1e-6
    assert result.summary["invariants"]["l1_confinement"]


def test_envelope_ratio_is_null_for_a_convex_rule_outside_its_hull():
    # WRGA stays in the unit l1 hull; a target of planted mass 1.5 lies
    # outside it, and its gaps against 0 read 8.94 without this rule
    result = run_experiment(
        cfg(algorithm="wrga", k=32, n=64, s=4, mass=1.5, max_m=40)
    )
    assert result.ok
    assert result.summary["envelope_ratio"] is None


@pytest.mark.parametrize("mass", [0.5, 1.0])
def test_envelope_ratio_inside_the_hull_keeps_its_bits(mass):
    config = cfg(algorithm="wrga", k=32, n=64, s=4, mass=mass, max_m=40)
    result = run_experiment(config)
    expected = check_envelope(
        result.trace, ConvexRelaxation, 2.0, build_weakness(config), 0.0
    ).max_ratio
    assert result.summary["envelope_ratio"] == expected


def test_prescribed_run_is_not_monotone():
    result = run_experiment(
        cfg(algorithm="prescribed", prescribed_step=2.0, max_m=6)
    )
    assert monotonicity_defect(result.trace) > 0.0
    assert "monotone" not in result.summary["invariants"]


def test_l1_defect_empty_trace():
    result = run_experiment(cfg(max_m=0))
    assert l1_defect(result.trace) == 0.0


# ---------------------------------------------------------------------------
# OMP reference and coefficient maps


def test_omp_reference_matches_independent_oracle():
    rng = np.random.default_rng(13)
    dic = FiniteDictionary.from_matrix(rng.standard_normal((12, 24)))
    y = rng.standard_normal(12)
    ours = omp_reference(dic.columns, y, 8)
    ref = omp_normal_equations(dic.columns, y, 8)
    for (j, _, coefs), (j_ref, coefs_ref) in zip(ours, ref):
        assert j == j_ref
        assert set(coefs) == set(coefs_ref)
        for idx, c in coefs_ref.items():
            assert coefs[idx] == pytest.approx(c, abs=1e-10)


def test_signal_coefficients_merges_repeated_atoms():
    dic = FiniteDictionary(np.eye(2)[:, :1])  # single-atom dictionary
    obj = make_least_squares(np.array([1.0, 0.0]))
    trace = run_greedy(obj, dic, 1.0, BestStep(), StopRule(max_m=3, sup_tol=-1.0))
    assert len(trace.terms()) == 3  # one term per iteration
    merged = signal_coefficients(trace)
    assert set(merged) == {0}
    assert merged[0] == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# verification checks (small budgets; the acceptance tests run full ones)


def test_sample_sublevel_triple_contract():
    objective, _, _, _ = build_instance(cfg())
    rng = np.random.default_rng(0)
    for _ in range(200):
        x, y, u = sample_sublevel_triple(objective, rng)
        assert objective.value(x) <= objective.value(np.zeros(16)) + 1e-12
        assert objective.norm(y) == pytest.approx(1.0, rel=1e-12)
        assert 0.0 < u <= 2.0


def test_check_smoothness_sampling_small():
    result = check_smoothness_sampling(samples=100, seed=0)
    assert result.passed, result.detail


def test_check_gradient_fd():
    result = check_gradient_fd(seed=0)
    assert result.passed, result.detail


def test_check_orthogonality():
    result = check_orthogonality(seed=0)
    assert result.passed, result.detail


@pytest.mark.parametrize(
    "config",
    [
        dict(instance="compressed_sensing", algorithm="wcga", k=32, n=64, s=4),
        dict(instance="compressed_sensing", algorithm="wrga", k=32, n=64, s=4),
        dict(instance="low_rank", algorithm="wcga", n=8, rank=2),
        dict(instance="lp_approx", algorithm="wcga", n=16, r=3.0, q=1.5, s=3),
    ],
    ids=["cs_wcga", "cs_wrga", "low_rank_wcga", "lp_wcga"],
)
def test_orthogonality_defect_matches_the_loop(config):
    # the batched replay reads the same products as one scalar product per
    # (record, term) pair
    config = validate_config(dict(config, seed=5, max_m=30, sup_tol=-1.0))
    objective, dictionary, certificate, _ = build_instance(config)
    trace = run_greedy(
        objective,
        dictionary,
        build_weakness(config),
        build_rule(config),
        build_stop(config, certificate),
    )
    assert trace.iterations == 30
    batched = orthogonality_defect(objective, dictionary, trace)
    assert batched == pytest.approx(
        orthogonality_defect_loop(objective, dictionary, trace), rel=0, abs=1e-15
    )


@pytest.mark.parametrize(
    "config",
    [
        dict(instance="compressed_sensing", algorithm="wcga", k=32, n=64, s=4),
        dict(instance="lp_approx", algorithm="wcga", n=16, r=3.0, q=1.5, s=3),
    ],
    ids=["cs_wcga", "lp_wcga"],
)
def test_orthogonality_defect_one_gradient_per_iterate(config, monkeypatch):
    # past the exact fit every selection merges into the span, so the
    # records share the last span solution and the replay takes its
    # gradient once
    config = validate_config(dict(config, seed=5, max_m=30, sup_tol=-1.0))
    objective, dictionary, certificate, _ = build_instance(config)
    trace = run_greedy(
        objective,
        dictionary,
        build_weakness(config),
        build_rule(config),
        build_stop(config, certificate),
    )
    iterates = len({id(rec.coefficients) for rec in trace.records})
    assert iterates < trace.iterations == 30
    expected = orthogonality_defect_loop(objective, dictionary, trace)
    calls = []
    gradient = objectives.Objective.gradient
    monkeypatch.setattr(
        objectives.Objective,
        "gradient",
        lambda self, x: calls.append(1) or gradient(self, x),
    )
    defect = orthogonality_defect(objective, dictionary, trace)
    assert len(calls) == iterates
    assert defect == pytest.approx(expected, rel=0, abs=1e-15)


def test_orthogonality_defect_compares_no_atoms(monkeypatch):
    # the replay reads the run's atoms by position, so it neither hashes nor
    # compares them: every rank-one atom of one sign hashes alike, so a map
    # keyed by atoms would compare factor arrays
    config = validate_config(
        dict(
            instance="low_rank", algorithm="wcga", n=32, rank=4, seed=1,
            max_m=60, sup_tol=-1.0,
        )
    )
    objective, dictionary, certificate, _ = build_instance(config)
    trace = run_greedy(
        objective,
        dictionary,
        build_weakness(config),
        build_rule(config),
        build_stop(config, certificate),
    )
    assert trace.iterations == 60
    calls = []
    eq = Atom.__eq__
    monkeypatch.setattr(
        Atom, "__eq__", lambda self, other: calls.append(1) or eq(self, other)
    )
    orthogonality_defect(objective, dictionary, trace)
    assert len(calls) == 0


def test_orthogonality_defect_of_an_empty_trace_is_zero():
    dic, y, _ = gen_compressed_sensing(8, 16, 2, seed=0)
    obj = make_least_squares(y)
    trace = run_greedy(obj, dic, 1.0, Chebyshev(), StopRule(max_m=0))
    assert orthogonality_defect(obj, dic, trace) == 0.0


def test_make_recurrence_case_valid():
    rng = np.random.default_rng(7)
    for _ in range(25):
        y, w = make_recurrence_case(rng)
        assert len(w) == len(y) - 1
        assert verify_recurrence(y, w).passed


def test_check_recurrence_small():
    result = check_recurrence(trials=25, seed=0)
    assert result.passed, result.detail
    assert "plant flagged" in result.detail


def test_check_xi_agreement_small():
    result = check_xi_agreement(draws=10, seed=0)
    assert result.passed, result.detail


def test_check_omp_equivalence_small():
    result = check_omp_equivalence(instances=2, steps=8, seed=0)
    assert result.passed, result.detail

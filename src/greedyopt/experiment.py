"""Experiment orchestration: config validation, deterministic trace CSVs,
summary JSON, and the programmatic verification suite behind `verify`.

Configs are flat JSON documents; unknown keys are hard errors so that typos
cannot silently change an experiment, and so is a rule key that the
config's algorithm does not read (`step_b` on `wcga`). Two runs of the same
config produce byte-identical outputs (wall-clock columns are zeroed unless
`timings` is set, since timings are inherently non-deterministic).
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .algorithms import (
    ENERGY_SLACK,
    RULES,
    Chebyshev,
    GreedyRunError,
    RunTrace,
    StopReason,
    StopRule,
    UpdateRule,
    WeaknessSequence,
    run_greedy,
)
from .dictionaries import FiniteDictionary
from .inner_solvers import SUBSPACE_TOL
from .instances import (
    CERTIFICATE_TOL,
    SynthesisCertificate,
    check_synthesis,
    gen_compressed_sensing,
    gen_low_rank,
    gen_lp_approx,
)
from .objectives import (
    Objective,
    SmoothnessParams,
    check_smoothness_inequality,
    make_least_squares,
    make_logistic,
    make_norm_power,
    sample_sublevel_pair,
)
from .theory import (
    GAP_FLOOR,
    InsufficientDataError,
    check_envelope,
    fit_power_slope,
    solve_xi,
    theta0,
    verify_recurrence,
)

TRACE_COLUMNS = (
    "m",
    "energy",
    "gap",
    "atom_id",
    "atom_sign",
    "score",
    "sup_score",
    "weakness_ratio",
    "lambda",
    "w_or_r",
    "l1_mass",
    "wall_ns",
)

L1_CONFINEMENT_TOL = 1e-12
# the `verify` suite's bounds
SANDWICH_SLACK = -1e-10
GRADIENT_FD_RTOL = 1e-6
XI_RESIDUAL_RTOL = 1e-10
OMP_COEF_TOL = 1e-8

# instance kind -> (the keys its generator needs, the others it reads); an
# instance key that the config's kind does not read is an error. These are
# also the `gen` flags, and the needed ones the flags `gen` requires.
INSTANCE_KEYS = {
    "compressed_sensing": (("k", "n", "s"), ("mass", "min_coef")),
    "low_rank": (("n", "rank"), ("mass",)),
    "lp_approx": (("n", "r", "q"), ("s", "dict_size", "mass", "min_coef")),
}
# every instance key once, in the order of INSTANCE_KEYS
ALL_INSTANCE_KEYS = tuple(dict.fromkeys(
    key for needed, others in INSTANCE_KEYS.values() for key in needed + others
))

# key -> (allowed types, short description)
_SCHEMA = {
    "instance": (str, "instance kind: " + "|".join(INSTANCE_KEYS)),
    "algorithm": (str, "update rule: " + "|".join(RULES)),
    "seed": (int, "instance RNG seed"),
    "k": (int, "signal dimension (compressed_sensing)"),
    "n": (int, "dictionary size / matrix side"),
    "s": (int, "planted sparsity"),
    "rank": (int, "planted rank (low_rank)"),
    "r": ((int, float), "ambient norm exponent (lp_approx)"),
    "q": ((int, float), "objective power (lp_approx)"),
    "dict_size": (int, "dictionary size (lp_approx)"),
    "mass": ((int, float), "planted synthesis l1 mass"),
    "min_coef": ((int, float), "coefficient floor as a fraction of mass"),
    "weakness": ((int, float), "constant weakness t in (0, 1]"),
    "weakness_exponent": ((int, float), "power weakness t_m = m**-e"),
    "max_m": (int, "iteration cap"),
    "sup_tol": ((int, float), "stop when sup-score <= this (negative disables)"),
    "gap_tol": ((int, float), "stop when the gap, the energy, <= this"),
    "step_b": ((int, float), "step shrink factor (ReducedStep)"),
    "relaxation_r": ((int, float), "contraction r_m (FixedRelaxation)"),
    "prescribed_step": ((int, float), "fixed step c_m (Prescribed)"),
    "prescribed_selection": (str, "prescribed selection: gradient|energy"),
    "fit_m_min": (int, "first iteration used in slope fits"),
    "timings": (bool, "record real wall_ns instead of zeros"),
    "trace": (str, "trace CSV filename"),
    "summary": (str, "summary JSON filename"),
}

# config key -> the rule field it sets; a rule without that field rejects it
_RULE_FIELDS = {
    "step_b": "b",
    "relaxation_r": "schedule",
    "prescribed_step": "steps",
    "prescribed_selection": "selection",
}

# instance kind -> the key that may not exceed n
_AT_MOST_N = {"compressed_sensing": "s", "low_rank": "rank"}


class ConfigError(ValueError):
    pass


def key_type(key: str) -> type:
    """The type a config key's value is passed as: float for a key the schema
    lets be an int or a float, else the schema's one type."""
    want = _SCHEMA[key][0]
    return float if want == (int, float) else want


def _given(config: dict, keys) -> dict:
    """key -> value, each as its `key_type`, for those of keys the config
    gives: a key it leaves out takes the default of the object it sets."""
    return {key: key_type(key)(config[key]) for key in keys if key in config}


def _output_names(config: dict) -> dict:
    """The run's output file names: the config's, else the defaults."""
    return {"trace": config.get("trace", "trace.csv"),
            "summary": config.get("summary", "summary.json")}


def check_instance_keys(config: dict) -> None:
    """ConfigError unless config["instance"] is a kind, the config gives the
    keys that kind needs, and it gives no instance key the kind does not
    read; `run` reads these keys from a config and `gen` from its flags."""
    kind = config["instance"]
    if kind not in INSTANCE_KEYS:
        raise ConfigError(f"unknown instance kind {kind!r}")
    needed, others = INSTANCE_KEYS[kind]
    for key in needed:
        if key not in config:
            raise ConfigError(f"instance {kind!r} requires key {key!r}")
    unread = sorted(set(ALL_INSTANCE_KEYS).intersection(config) - {*needed, *others})
    if unread:
        raise ConfigError(f"key {unread[0]!r}: instance {kind!r} does not read it")


def validate_config(config: dict) -> dict:
    if not isinstance(config, dict):
        raise ConfigError(f"config must be a JSON object, got {type(config)}")
    unknown = sorted(set(config) - set(_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key in ("instance", "algorithm", "seed"):
        if key not in config:
            raise ConfigError(f"missing required key {key!r}")
    for key, value in config.items():
        want, _ = _SCHEMA[key]
        if isinstance(value, bool) and want is not bool:
            raise ConfigError(f"key {key!r}: expected {want}, got bool")
        if not isinstance(value, want):
            raise ConfigError(
                f"key {key!r}: expected {want}, got {type(value).__name__}"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"key {key!r}: {value} is not finite")
    check_instance_keys(config)
    if config["algorithm"] not in RULES:
        raise ConfigError(f"unknown algorithm {config['algorithm']!r}")
    if "weakness" in config and "weakness_exponent" in config:
        raise ConfigError("give weakness or weakness_exponent, not both")
    # a range is checked where it is defined: by building the object the
    # key sets, from that key alone, so the error names the key
    for key in ("weakness", "weakness_exponent", *_RULE_FIELDS, "max_m", "gap_tol"):
        if key not in config:
            continue
        try:
            if key in _RULE_FIELDS:
                build_rule({"algorithm": config["algorithm"], key: config[key]})
            elif key.startswith("weakness"):
                build_weakness({key: config[key]})
            else:
                StopRule(**{key: config[key]})
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}") from exc
    if config.get("fit_m_min", 1) < 1:
        raise ConfigError(f"key 'fit_m_min': must be >= 1, got {config['fit_m_min']}")
    key = _AT_MOST_N.get(config["instance"])
    if key is not None and config[key] > config["n"]:
        raise ConfigError(
            f"key {key!r} = {config[key]} exceeds n = {config['n']}"
        )
    selection = config.get("prescribed_selection")
    if config["instance"] == "low_rank" and selection == "energy":
        raise ConfigError("prescribed_selection 'energy' needs a finite dictionary")
    names = _output_names(config)
    for key, name in names.items():
        if name in ("", ".", "..") or os.path.basename(name) != name:
            raise ConfigError(f"key {key!r}: {name!r} is not a plain file name")
    if names["trace"] == names["summary"]:
        raise ConfigError("keys 'trace' and 'summary' name the same file")
    return config


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_config(json.load(fh))


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def build_instance(config: dict) -> tuple:
    """(objective, dictionary, certificate, target) for a validated config.

    The generator of the config's kind takes the instance keys the config
    gives by name, so a key left out takes the generator's default. target
    is the planted vector the certificate must reproduce, and it is the
    objective's own read-only copy (`Objective.minimizer`), so a run holds
    the target once."""
    kind = config["instance"]
    needed, others = INSTANCE_KEYS[kind]
    kwargs = _given(config, needed + others)
    if kind == "compressed_sensing":
        dictionary, target, cert = gen_compressed_sensing(seed=config["seed"], **kwargs)
        objective = make_least_squares(target)
    elif kind == "low_rank":
        dictionary, target, cert = gen_low_rank(seed=config["seed"], **kwargs)
        objective = make_norm_power(target.ravel(), 2.0, 2.0)
    else:
        dictionary, objective, cert = gen_lp_approx(seed=config["seed"], **kwargs)
    return objective, dictionary, cert, objective.minimizer


def build_rule(config: dict) -> UpdateRule:
    """The config's rule, given the rule keys the config gives; a ValueError
    for a rule key out of range or one the rule has no field for."""
    rule = RULES[config["algorithm"]]
    names = {f.name for f in fields(rule)}
    kwargs = {}
    for key, value in _given(config, _RULE_FIELDS).items():
        if _RULE_FIELDS[key] not in names:
            raise ValueError(f"algorithm {rule.name!r} does not read it")
        kwargs[_RULE_FIELDS[key]] = value
    return rule(**kwargs)


def build_weakness(config: dict) -> WeaknessSequence:
    given = _given(config, ("weakness", "weakness_exponent"))
    if "weakness_exponent" in given:
        return WeaknessSequence.power(given["weakness_exponent"])
    if "weakness" in given:
        return WeaknessSequence.constant(given["weakness"])
    return WeaknessSequence()


def build_stop(config: dict) -> StopRule:
    """The StopRule of the stop keys the config gives, so a key left out
    takes StopRule's default."""
    return StopRule(**_given(config, ("max_m", "sup_tol", "gap_tol")))


# ---------------------------------------------------------------------------
# trace persistence


def trace_rows(trace: RunTrace, timings: bool) -> Iterator[tuple]:
    """One tuple of TRACE_COLUMNS per record, made as it is read: the rows
    are never held as a list. The gap is the energy: every planted instance
    has optimum 0."""
    for rec in trace.records:
        yield (
            rec.m,
            rec.energy,
            rec.energy,
            rec.atom.index,
            rec.atom.sign,
            rec.score,
            rec.sup_score,
            rec.weakness_ratio,
            rec.lam,
            rec.w_or_r,
            rec.l1_mass,
            rec.wall_ns if timings else 0,
        )


# one line of trace_rows: the ints m, atom_id, atom_sign and wall_ns in
# decimal, the floats in 17 significant digits (nan and inf as words)
_ROW_FORMAT = ",".join(
    "%d" if c in ("m", "atom_id", "atom_sign", "wall_ns") else "%.17g"
    for c in TRACE_COLUMNS
) + "\n"


def write_trace_csv(path, trace: RunTrace, timings: bool):
    """Write the header and one line per record to `path`, each line made
    from one `trace_rows` row as it is written, so neither the rows nor the
    file's text is held in memory whole."""
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(",".join(TRACE_COLUMNS) + "\n")
        for row in trace_rows(trace, timings):
            out.write(_ROW_FORMAT % row)


# ---------------------------------------------------------------------------
# invariant checks on a finished trace


def orthogonality_defect(objective: Objective, dictionary, trace: RunTrace) -> float:
    """Max |<E'(G_m), phi>| over the iterations m and the atoms phi in G_m's
    terms (Chebyshev runs re-minimize over the selected span, so this should
    sit at solver tol).

    An independent replay: the atoms realized once, each distinct iterate
    rebuilt as stack[:k].T @ coefficients (the span solve's product, so
    bitwise the run's G), then one product of E' at each with the stack,
    read at the iterate's terms. A record whose coefficient array is the
    one before it (a Chebyshev fixed point keeps its span solution) is the
    same iterate, so it adds no gradient."""
    records = trace.records
    if not records:
        return 0.0
    stack = np.empty((len(trace.atoms), dictionary.ambient_dim))
    for row, atom in zip(stack, trace.atoms):
        row[:] = dictionary.realize(atom)
    distinct = [
        rec.coefficients
        for i, rec in enumerate(records)
        if i == 0 or rec.coefficients is not records[i - 1].coefficients
    ]
    sizes = np.array([len(c) for c in distinct])
    grads = np.empty((len(distinct), objective.dimension))
    for grad, k, c in zip(grads, sizes, distinct):
        grad[:] = objective.gradient(stack[:k].T @ c)
    terms = np.arange(len(stack)) < sizes[:, None]
    return float(np.max(np.abs(grads @ stack.T)[terms]))


def monotonicity_defect(trace: RunTrace) -> float:
    energies = np.concatenate(([trace.initial_energy], trace.energies()))
    return float(np.max(np.diff(energies), initial=0.0))


def l1_defect(trace: RunTrace) -> float:
    if not trace.records:
        return 0.0
    return float(max(rec.l1_mass for rec in trace.records)) - 1.0


def collect_invariants(
    objective: Objective,
    dictionary,
    certificate: SynthesisCertificate,
    target: np.ndarray,
    trace: RunTrace,
    rule: UpdateRule,
) -> dict:
    # the certificate must synthesize the target and attain the optimum 0 in
    # the objective: that catches an objective whose own target is not the
    # planted one. Both facts are read on one realization.
    synthesis = certificate.realize(dictionary)
    try:
        check_synthesis(synthesis, target)
        holds = objective.value(synthesis) <= CERTIFICATE_TOL
    except ValueError:
        holds = False
    invariants = {"certificate": holds}
    if rule.monotone:
        invariants["monotone"] = monotonicity_defect(trace) <= ENERGY_SLACK
    if rule.convex:
        invariants["l1_confinement"] = l1_defect(trace) <= L1_CONFINEMENT_TOL
    if rule.orthogonal:
        invariants["orthogonality"] = (
            orthogonality_defect(objective, dictionary, trace) <= SUBSPACE_TOL
        )
    return invariants


# ---------------------------------------------------------------------------
# experiment runner


@dataclass
class ExperimentResult:
    config: dict
    summary: dict
    trace: Optional[RunTrace]
    trace_path: Optional[Path]
    summary_path: Optional[Path]

    @property
    def ok(self) -> bool:
        failed = (StopReason.INNER_FAILURE.value, StopReason.ABORTED.value)
        if self.summary["stopping_reason"] in failed:
            return False
        return all(self.summary["invariants"].values())


def _fit_slope(config: dict, objective: Objective, trace: RunTrace):
    # E ~ ||residual||^q on an exact fit, so the residual norm ~ gap^(1/q)
    expo = 1.0 / objective.smoothness.q
    try:
        return fit_power_slope(
            trace.ms(),
            trace.energies() ** expo,
            m_min=config.get("fit_m_min", 4),
            floor=GAP_FLOOR**expo,
        )
    except InsufficientDataError:
        return None


def _envelope_ratio(
    rule: UpdateRule,
    weakness: WeaknessSequence,
    objective: Objective,
    trace: RunTrace,
    mass: float,
):
    if not rule.rated or len(trace.records) < 2:
        return None
    if rule.convex and mass > 1.0 + L1_CONFINEMENT_TOL:
        # a convex rule stays in the unit l1 hull, and a target of planted
        # mass > 1 lies outside it: its gap need not go to 0
        return None
    q = objective.smoothness.q
    try:
        return check_envelope(trace, type(rule), q, weakness).max_ratio
    except ValueError:
        return None


def _final_gap(trace: RunTrace):
    # None (JSON null, where json.dumps would write NaN) when the gap is not
    # finite: E(G_0) overflowed, and the run aborted with no record
    gap = float(trace.records[-1].energy if trace.records else trace.initial_energy)
    return gap if math.isfinite(gap) else None


def run_experiment(config: dict, out_dir=None) -> ExperimentResult:
    config = validate_config(dict(config))
    try:
        objective, dictionary, certificate, target = build_instance(config)
    except ValueError as exc:  # a generator's range check: a config error
        raise ConfigError(str(exc)) from exc
    rule = build_rule(config)
    stop = build_stop(config)
    weakness = build_weakness(config)

    failure = None
    try:
        trace = run_greedy(objective, dictionary, weakness, rule, stop)
    except GreedyRunError as exc:
        trace, failure = exc.trace, str(exc)

    invariants = collect_invariants(
        objective, dictionary, certificate, target, trace, rule
    )
    if trace.stop_reason is StopReason.INNER_FAILURE:
        invariants["inner_solver"] = False

    summary = {
        "config_hash": config_hash(config),
        "stopping_reason": trace.stop_reason.value,
        "final_gap": _final_gap(trace),
        "slope": _fit_slope(config, objective, trace),
        "envelope_ratio": _envelope_ratio(
            rule, weakness, objective, trace, certificate.mass
        ),
        "invariants": invariants,
    }
    if failure is not None:  # "iteration m: <the error that stopped the run>"
        summary["failure"] = failure

    trace_path = summary_path = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        names = _output_names(config)
        trace_path, summary_path = out_dir / names["trace"], out_dir / names["summary"]
        write_trace_csv(trace_path, trace, config.get("timings", False))
        summary_path.write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return ExperimentResult(config, summary, trace, trace_path, summary_path)


# ---------------------------------------------------------------------------
# verification suite (the `verify` subcommand)


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    detail: str

    def __bool__(self) -> bool:
        return self.passed


def _sample_objectives(seed: int) -> list:
    rng = np.random.default_rng(seed)
    dic, y, _ = gen_compressed_sensing(16, 32, 4, seed=seed)
    objs = [make_least_squares(y)]
    _, obj_np, _ = gen_lp_approx(16, 4.0, 2.0, seed=seed, s=3)
    objs.append(obj_np)
    labels = np.where(rng.standard_normal(40) > 0.0, 1.0, -1.0)
    features = rng.standard_normal((40, 12))
    objs.append(make_logistic(labels, features, 0.1))
    return objs


def check_smoothness_sampling(samples: int = 10_000, seed: int = 0) -> CheckResult:
    """Both sides of the smoothness sandwich, each >= SANDWICH_SLACK, on random
    (x, y, u) triples: x in the sublevel set {E <= E(0)}, y unit in the
    objective's ambient norm, u in [1e-6, 2)."""
    rng = np.random.default_rng(seed)
    worst = np.inf
    for obj in _sample_objectives(seed):
        e0 = obj.value(np.zeros(obj.dimension))
        for _ in range(samples):
            x, y = sample_sublevel_pair(
                obj.value, e0, obj.dimension, obj.sublevel_radius, obj.norm, rng
            )
            u = float(rng.uniform(1e-6, 2.0))
            lhs, margin = check_smoothness_inequality(obj, x, y, u, e0)
            worst = min(worst, lhs, margin)
            if min(lhs, margin) < SANDWICH_SLACK:
                return CheckResult(
                    False, f"{obj.label}: slack {min(lhs, margin):.3e}"
                )
    return CheckResult(True, f"min slack {worst:.3e} over {samples} triples")


def check_gradient_fd(seed: int = 0) -> CheckResult:
    """Central differences against E', each mismatch <= GRADIENT_FD_RTOL."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for obj in _sample_objectives(seed):
        for _ in range(10):
            x = rng.standard_normal(obj.dimension) * 0.3
            g = obj.gradient(x)
            h = 1e-6
            for _ in range(5):
                j = int(rng.integers(obj.dimension))
                e = np.zeros(obj.dimension)
                e[j] = 1.0
                fd = (obj.value(x + h * e) - obj.value(x - h * e)) / (2 * h)
                scale = max(abs(fd), abs(g[j]), 1.0)
                worst = max(worst, abs(fd - g[j]) / scale)
    passed = worst <= GRADIENT_FD_RTOL
    return CheckResult(passed, f"max FD mismatch {worst:.3e}")


def check_orthogonality(seed: int = 0) -> CheckResult:
    dic, y, _ = gen_compressed_sensing(16, 32, 4, seed=seed)
    obj = make_least_squares(y)
    trace = run_greedy(
        obj, dic, 1.0, Chebyshev(), StopRule(max_m=12, sup_tol=-1.0)
    )
    defect = orthogonality_defect(obj, dic, trace)
    return CheckResult(
        defect <= SUBSPACE_TOL, f"max |<grad, atom>| = {defect:.3e}"
    )


def make_recurrence_case(rng: np.random.Generator, length: int = 40) -> tuple:
    """Random (y, w) satisfying the per-step inequality by construction."""
    y = [float(rng.uniform(0.2, 1.0))]
    w = []
    for _ in range(length):
        w_k = float(rng.uniform(0.0, 0.9)) / max(y[-1], 1e-12)
        w_k = min(w_k, 0.9 / y[-1])
        bound = y[-1] * (1.0 - w_k * y[-1])
        y.append(float(rng.uniform(0.2, 1.0)) * bound)
        w.append(w_k)
    return np.array(y), np.array(w)


def check_recurrence(trials: int = 1000, seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    for i in range(trials):
        y, w = make_recurrence_case(rng)
        report = verify_recurrence(y, w)
        if not report:
            return CheckResult(
                False, f"trial {i}: flagged at {report.first_violation}"
            )
    y, w = make_recurrence_case(rng)
    bad = y.copy()
    k = len(y) // 2
    bad[k] = 1.5 * bad[k - 1]  # an increase violates the step in any form
    report = verify_recurrence(bad, w)
    if report or report.first_violation != k:
        return CheckResult(
            False,
            f"corrupted index {k} flagged at {report.first_violation}",
        )
    return CheckResult(True, f"{trials} generated cases pass; plant flagged")


def check_xi_agreement(draws: int = 100, seed: int = 0) -> CheckResult:
    """xi <= 2 solves its defining equation s(xi) = theta*t, each relative
    residual <= XI_RESIDUAL_RTOL."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        gamma = float(rng.uniform(0.1, 5.0))
        q = float(rng.uniform(1.1, 2.0))
        smoothness = SmoothnessParams(gamma, q)
        theta = float(rng.uniform(0.05, 1.0)) * theta0(smoothness)
        t = float(rng.uniform(0.05, 1.0))
        xi = solve_xi(smoothness, t, theta)
        if xi > 2.0:
            return CheckResult(False, f"xi {xi} exceeds 2")
        target = theta * t
        worst = max(worst, abs(smoothness.s(xi) - target) / target)
    return CheckResult(worst <= XI_RESIDUAL_RTOL, f"max rel error {worst:.3e}")


def omp_reference(columns: np.ndarray, y: np.ndarray, steps: int) -> list:
    """Plain normal-equations orthogonal matching pursuit: per step returns
    (column index, sign of the correlation, {index: coefficient})."""
    support: list = []
    residual = y.astype(float).copy()
    rows = []
    for _ in range(steps):
        scores = columns.T @ residual
        j = int(np.argmax(np.abs(scores)))
        sign = 1 if scores[j] >= 0.0 else -1
        if j not in support:
            support.append(j)
        basis = columns[:, support]
        coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
        residual = y - basis @ coef
        rows.append((j, sign, dict(zip(support, coef.tolist()))))
    return rows


def signal_coefficients(trace: RunTrace, i: int = -1) -> dict:
    """Column-index -> signed coefficient map of record i of a
    finite-dictionary run."""
    out: dict = {}
    for atom, coef in trace.terms(i):
        out[atom.index] = out.get(atom.index, 0.0) + atom.sign * coef
    return out


def check_omp_equivalence(
    instances: int = 5, steps: int = 10, seed: int = 0
) -> CheckResult:
    """Chebyshev-rule greedy on random quadratics must reproduce plain OMP,
    each coefficient within OMP_COEF_TOL.

    Targets are generic Gaussian vectors (not planted sparse combinations),
    so the residual stays well away from zero and the argmax is well-posed
    for every compared step."""
    worst = 0.0
    for i in range(instances):
        rng = np.random.default_rng(seed + i)
        dic = FiniteDictionary.from_matrix(rng.standard_normal((16, 32)))
        y = rng.standard_normal(16)
        y /= float(np.linalg.norm(y))
        obj = make_least_squares(y)
        trace = run_greedy(
            obj, dic, 1.0, Chebyshev(), StopRule(max_m=steps, sup_tol=-1.0)
        )
        expected = omp_reference(dic.columns, y, len(trace.records))
        for rec, (j, sign, coefs) in zip(trace.records, expected):
            if rec.atom.index != j or rec.atom.sign != sign:
                return CheckResult(
                    False,
                    f"instance {i} m={rec.m}: atom {rec.atom.index} != {j}",
                )
            mine = signal_coefficients(trace, rec.m - 1)
            if set(mine) != set(coefs):
                return CheckResult(False, f"instance {i} m={rec.m}: support")
            for idx, c in coefs.items():
                worst = max(worst, abs(mine[idx] - c))
    return CheckResult(worst <= OMP_COEF_TOL, f"max coefficient gap {worst:.3e}")


def run_verification_suite(seed: int = 0, samples: int = 10_000) -> dict:
    return {
        "smoothness_sandwich": check_smoothness_sampling(samples, seed),
        "gradient_fd": check_gradient_fd(seed),
        "wcga_orthogonality": check_orthogonality(seed),
        "recurrence": check_recurrence(1000, seed),
        "xi_agreement": check_xi_agreement(100, seed),
        "omp_equivalence": check_omp_equivalence(5, 10, seed),
    }

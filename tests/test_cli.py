"""End-to-end CLI behavior: exit codes, artifacts, and overrides."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from greedyopt.algorithms import RULES
from greedyopt.cli import main
from greedyopt.experiment import _SCHEMA, INSTANCE_KEYS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

QUICK = {
    "instance": "compressed_sensing",
    "algorithm": "wcga",
    "seed": 1,
    "k": 16,
    "n": 64,
    "s": 4,
    "max_m": 40,
    "sup_tol": -1.0,
}


# a valid config whose first step overflows the energy
OVERFLOW = {
    "instance": "compressed_sensing",
    "algorithm": "prescribed",
    "k": 16,
    "n": 32,
    "s": 2,
    "prescribed_step": 1e300,
    "seed": 1,
}

# q = 1.2 puts the span contract out of reach at an exact fit: InnerFailure
LP_STALL = {
    "instance": "lp_approx",
    "algorithm": "wcga",
    "seed": 1,
    "n": 16,
    "r": 3.0,
    "q": 1.2,
    "s": 8,
    "max_m": 30,
    "fit_m_min": 1,
    "sup_tol": -1.0,
}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture
def quick_config(tmp_path):
    path = tmp_path / "quick.json"
    path.write_text(json.dumps(QUICK))
    return path


# ---------------------------------------------------------------------------
# usage errors


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "greedyopt" in capsys.readouterr().out


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_run_missing_config(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2


def test_run_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({**QUICK, "seeed": 3}))
    assert main(["run", str(path)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_run_reference_is_an_unknown_key(tmp_path, capsys):
    # a gap is the energy, since every planted instance has optimum 0, so
    # `reference` is no longer a key, even at 0
    path = tmp_path / "reference.json"
    path.write_text(json.dumps({**QUICK, "reference": 0.0}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "unknown config keys: reference" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "overrides",
    [
        {"weakness": 0.0},
        {"weakness_exponent": -1.0},
        {"algorithm": "reduced_step", "step_b": 1.0},
        {"algorithm": "fixed_relaxation", "relaxation_r": 1.0},
        {"algorithm": "prescribed", "prescribed_step": 0.0},
        {"s": 80},
        {"instance": "low_rank", "n": 4, "rank": 5, "k": None, "s": None},
        # range checks of the instance generators
        {"k": 0},
        {"s": 0},
        {"mass": 0},
        {"instance": "lp_approx", "k": None, "r": 3.0, "q": 1.5, "s": 20,
         "dict_size": 8},
        {"instance": "lp_approx", "r": 1.0, "q": 1.5, "k": None},
        {"s": 2, "min_coef": 0.9},
        {
            "instance": "low_rank",
            "n": 4,
            "rank": 2,
            "k": None,
            "s": None,
            "algorithm": "prescribed",
            "prescribed_selection": "energy",
        },
        {"algorithm": "prescribed", "prescribed_selection": "random"},
        # a rule key the algorithm (wcga) does not read
        {"step_b": 0.5},
        # an instance key the kind (compressed_sensing) does not read
        {"rank": 2},
        # output names that are not a plain file name, or name one file
        {"summary": ""},
        {"trace": "sub/trace.csv"},
        {"trace": "summary.json"},
        # a number that is not finite
        {"gap_tol": float("nan")},
        {"sup_tol": float("inf")},
    ],
)
def test_run_out_of_range_config_is_usage_error(tmp_path, capsys, overrides):
    # an override of None drops that key of QUICK
    config = {k: v for k, v in {**QUICK, **overrides}.items() if v is not None}
    path = tmp_path / "range.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# QUICK as an lp_approx config, n = 64 and s = 4
_LP_OVER_QUICK = {"instance": "lp_approx", "k": None, "r": 3.0, "q": 1.5}


@pytest.mark.parametrize(
    "key,overrides",
    [
        ("subspace_tol", {"subspace_tol": -1.0}),
        ("subspace_tol", {"subspace_tol": 0}),
        ("max_m", {"max_m": -1}),
        ("gap_tol", {"gap_tol": -1.0}),
        ("fit_m_min", {"fit_m_min": -1}),
        ("min_coef", {"s": 1, "min_coef": 1.5}),
        ("seed", {"seed": -1}),
        ("dict_size", {**_LP_OVER_QUICK, "dict_size": -1}),
        ("dict_size", {**_LP_OVER_QUICK, "dict_size": 0}),
        ("dict_size", {**_LP_OVER_QUICK, "dict_size": 3}),  # below s = 4
        ("n", {**_LP_OVER_QUICK, "n": 0}),
        ("s", {**_LP_OVER_QUICK, "s": 0}),
    ],
)
def test_run_range_error_names_its_key(tmp_path, capsys, key, overrides):
    # without its range check each of these runs and exits 0; seed,
    # dict_size and lp's n and s exited 2 with numpy's message or one naming
    # another key. subspace_tol is no longer a key (the span contract is a
    # constant), so it exits 2 as an unknown key. An override of None drops
    # that key of QUICK.
    config = {k: v for k, v in {**QUICK, **overrides}.items() if v is not None}
    path = tmp_path / "range.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert re.search(rf"\b{key}\b", err)  # the key as a word, not a letter of one
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["compressed_sensing", "--n", "8", "--s", "2", "--k", "0"],
        ["lp_approx", "--n", "8", "--r", "3", "--q", "2.5"],
        ["lp_approx", "--n", "8", "--r", "3", "--q", "1.5", "--mass", "0"],
        ["low_rank", "--n", "4", "--rank", "2", "--seed", "-1"],
        ["lp_approx", "--n", "8", "--r", "3", "--q", "1.5", "--dict-size", "0"],
        ["lp_approx", "--n", "8", "--r", "3", "--q", "1.5", "--s", "4",
         "--dict-size", "3"],
    ],
)
def test_gen_range_error_is_usage_error(tmp_path, capsys, argv):
    # the last flag is the one out of range, and the error names it
    out = tmp_path / "out"
    assert main(["gen", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert re.search(rf"\b{argv[-2].removeprefix('--').replace('-', '_')}\b", err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "rates", "gen"])
def test_norm_power_without_an_envelope_is_usage_error(tmp_path, capsys, command):
    # ||f - x||_1.5^2 has no power-2 smoothness envelope: exit 2, no files
    out = tmp_path / "out"
    if command == "gen":
        argv = ["gen", "lp_approx", "--n", "8", "--r", "1.5", "--q", "2"]
    else:
        path = tmp_path / "lp.json"
        path.write_text(json.dumps({**LP_STALL, "r": 1.5, "q": 2.0}))
        argv = [command, str(path)]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "q = 2.0 > r = 1.5" in err
    assert not out.exists()


def test_gen_missing_parameters(tmp_path, capsys):
    assert main(["gen", "compressed_sensing", "--out", str(tmp_path)]) == 2
    assert "requires" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["low_rank", "--n", "4", "--rank", "2", "--k", "5", "--r", "3"], "k"),
        (["compressed_sensing", "--k", "4", "--n", "8", "--s", "2", "--q", "1.5",
          "--dict-size", "3"], "dict_size"),
    ],
)
def test_gen_flag_its_kind_does_not_read_is_usage_error(tmp_path, capsys, argv, flag):
    # `run` rejects these keys in a config; `gen` wrote files and ignored them
    out = tmp_path / "out"
    assert main(["gen", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert re.search(rf"\b{flag}\b.*does not read it", err)
    assert not out.exists()


def test_run_subspace_tol_is_an_unknown_key(tmp_path, capsys):
    # the span contract is the constant SUBSPACE_TOL: naming it exits 2,
    # even at its old default
    path = tmp_path / "tol.json"
    path.write_text(json.dumps({**QUICK, "subspace_tol": 1e-8}))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "unknown config keys: subspace_tol" in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# run


def test_run_writes_artifacts(quick_config, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(quick_config), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "stopping_reason: MaxIterations" in printed
    assert "invariant orthogonality: pass" in printed
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {
        "config_hash",
        "stopping_reason",
        "final_gap",
        "slope",
        "envelope_ratio",
        "invariants",
    }
    header = (out / "trace.csv").read_text().splitlines()[0]
    assert header.startswith("m,energy,gap,")


def test_run_seed_override_changes_trace(quick_config, tmp_path):
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    assert main(["run", str(quick_config), "--out", str(out1), "--quiet"]) == 0
    assert main(["run", str(quick_config), "--out", str(out2), "--quiet"]) == 0
    assert (
        main(
            ["run", str(quick_config), "--out", str(out3), "--seed", "2", "--quiet"]
        )
        == 0
    )
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "trace.csv").read_bytes() != (out3 / "trace.csv").read_bytes()


def test_run_max_m_override(quick_config, tmp_path):
    out = tmp_path / "short"
    rc = main(
        ["run", str(quick_config), "--out", str(out), "--max-m", "3", "--quiet"]
    )
    assert rc == 0
    rows = (out / "trace.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 3


def test_run_tol_override_stops_early(quick_config, tmp_path):
    out = tmp_path / "tol"
    rc = main(
        ["run", str(quick_config), "--out", str(out), "--tol", "1e-10", "--quiet"]
    )
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stopping_reason"] == "SupScoreTol"
    rows = (out / "trace.csv").read_text().strip().splitlines()
    assert len(rows) - 1 < QUICK["max_m"]


def test_run_invariant_failure_exit_code(tmp_path):
    path = tmp_path / "hopeless.json"
    path.write_text(json.dumps(LP_STALL))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out), "--quiet"]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stopping_reason"] == "InnerFailure"


def test_run_abort_writes_both_files_and_exits_1(tmp_path, capsys):
    # the overflow aborts the run with its (empty) partial trace, exit 1,
    # both files and no traceback
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(OVERFLOW))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    printed = capsys.readouterr()
    assert "Traceback" not in printed.out + printed.err
    assert "stopping_reason: Aborted" in printed.out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stopping_reason"] == "Aborted"
    assert len((out / "trace.csv").read_text().strip().splitlines()) == 1


@pytest.mark.parametrize(
    "config, error",
    [
        (
            {"instance": "compressed_sensing", "k": 16, "n": 32, "s": 4,
             "mass": 1e160, "algorithm": "wcga"},
            "E(x) is not finite for 'least_squares'",
        ),
        (
            {"instance": "low_rank", "n": 8, "rank": 2, "mass": 1e160,
             "algorithm": "wrga"},
            "E(x) overflows for 'norm_power(r=2.0, q=2.0)'",
        ),
        (
            {"instance": "lp_approx", "n": 16, "r": 3.0, "q": 1.5,
             "mass": 1e250, "algorithm": "wcga"},
            "E(x) overflows for 'norm_power(r=3.0, q=1.5)'",
        ),
    ],
)
def test_run_energy_overflowing_at_zero_aborts(tmp_path, capsys, config, error):
    # E(G_0) itself is not finite: the run aborts at iteration 0 with no
    # record, exit 1, both files and no traceback
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**config, "seed": 1, "max_m": 20}))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    printed = capsys.readouterr()
    assert "Traceback" not in printed.out + printed.err
    assert f"failure: iteration 0: {error}\n" in printed.err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stopping_reason"] == "Aborted"
    assert summary["failure"] == f"iteration 0: {error}"
    assert len((out / "trace.csv").read_text().strip().splitlines()) == 1
    # strict JSON: no NaN or Infinity; an unknown gap is null
    strict = json.loads(
        (out / "summary.json").read_text(), parse_constant=_reject_constant
    )
    assert strict["final_gap"] is None
    assert "final_gap: None\n" in printed.out


@pytest.mark.parametrize("algorithm", sorted(RULES))
def test_run_underflowing_power_weakness_aborts(tmp_path, capsys, algorithm):
    # t_2 = 2**-1100 rounds to 0: the weakness is exhausted at m = 2, so the
    # run aborts there with its first record, exit 1 and no traceback
    path = tmp_path / "underflow.json"
    path.write_text(json.dumps(
        {**QUICK, "algorithm": algorithm, "weakness_exponent": 1100, "max_m": 5}
    ))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 1
    printed = capsys.readouterr()
    assert "Traceback" not in printed.out + printed.err
    failure = "iteration 2: weakness m**-1100 underflows to 0 at m=2"
    assert f"failure: {failure}\n" in printed.err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stopping_reason"] == "Aborted"
    assert summary["failure"] == failure
    assert len((out / "trace.csv").read_text().strip().splitlines()) == 2


@pytest.mark.parametrize(
    "config",
    [
        # S_1 = t**2 underflows to 0
        {"instance": "compressed_sensing", "k": 16, "n": 32, "s": 2,
         "weakness": 1e-320},
        # gap_1**(1/(1-q)) = gap_1**-1000 overflows
        {"instance": "lp_approx", "n": 8, "r": 2, "q": 1.001},
    ],
    ids=["cs_tiny_weakness", "lp_q_near_1"],
)
def test_run_wrga_envelope_out_of_float_range_is_null(tmp_path, capsys, config):
    # the convex envelope's constant is not a finite positive float: the run
    # reports no ratio, and still succeeds
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "algorithm": "wrga", "seed": 1}))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    printed = capsys.readouterr()
    assert "Traceback" not in printed.out + printed.err
    assert "envelope_ratio: None\n" in printed.out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["envelope_ratio"] is None
    assert summary["stopping_reason"] == "MaxIterations"


@pytest.mark.parametrize("command", ["run", "rates"])
def test_abort_reports_the_failure(tmp_path, capsys, command):
    # the error and its iteration go to summary.json and to stderr
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(OVERFLOW))
    out = tmp_path / "out"
    assert main([command, str(path), "--out", str(out)]) == 1
    failure = "iteration 1: E(x) is not finite for 'least_squares'"
    assert f"failure: {failure}\n" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["failure"] == failure
    assert len(summary) == 7


# ---------------------------------------------------------------------------
# any config: a documented exit code, never a traceback

# per schema key, (values in range, values out of range) at tiny sizes; NaN
# and infinity are out of range (json writes and reads them)
_NAN, _INF = float("nan"), float("inf")
_SIZES = (st.integers(1, 16), st.sampled_from([-1, 0]))
_CONFIG_VALUES = {
    "instance": (st.sampled_from(list(INSTANCE_KEYS)), st.just("sparse")),
    "algorithm": (st.sampled_from(list(RULES)), st.just("omp")),
    "seed": (st.integers(0, 5), st.just(-1)),
    "k": _SIZES,
    "n": _SIZES,
    "s": _SIZES,
    "rank": _SIZES,
    "dict_size": _SIZES,
    "r": (st.sampled_from([1.5, 2, 3.0, 4.0]), st.sampled_from([0.5, 1, _NAN])),
    "q": (st.sampled_from([1.05, 1.2, 1.5, 2]), st.sampled_from([1, 2.5, _NAN])),
    "mass": (
        st.sampled_from([0.5, 1, 3.0, 1e160]),
        st.sampled_from([-1.0, 0, _NAN, _INF]),
    ),
    "min_coef": (st.sampled_from([0, 0.1, 0.3]), st.sampled_from([-0.1, 1.5, _NAN])),
    "weakness": (st.sampled_from([0.3, 1]), st.sampled_from([0, 1.5, _NAN])),
    "weakness_exponent": (
        st.sampled_from([0, 0.25, 1.0]),
        st.sampled_from([-1.0, _NAN, _INF]),
    ),
    "max_m": (st.integers(0, 8), st.just(-1)),
    "sup_tol": (st.sampled_from([-1, 0, 1e-10, 0.3]), st.sampled_from([_NAN, _INF])),
    "gap_tol": (st.sampled_from([0, 1e-6, 0.3]), st.sampled_from([-1.0, _NAN])),
    "step_b": (st.sampled_from([0.3, 0.9]), st.sampled_from([0, 1, 2.0, _NAN])),
    "relaxation_r": (st.sampled_from([0, 0.3]), st.sampled_from([-0.5, 1, 2.0, _NAN])),
    "prescribed_step": (
        st.sampled_from([0.5, 1, 1e300]),
        st.sampled_from([-1.0, 0, _NAN, _INF]),
    ),
    "prescribed_selection": (
        st.sampled_from(["gradient", "energy"]),
        st.just("random"),
    ),
    "fit_m_min": (st.integers(1, 8), st.just(-1)),
    "timings": (st.booleans(), st.just("yes")),
    "trace": (
        st.just("t.csv"),
        st.sampled_from(["", "..", "no/such/dir.csv", "summary.json"]),
    ),
    "summary": (
        st.just("s.json"),
        st.sampled_from(["", ".", "no/such/dir.json", "trace.csv"]),
    ),
}
# per schema type, JSON values of other types: "1" is a valid file name, so
# a str key's wrong types hold no string; True is an int to Python, and the
# schema takes a bool only for a bool key
_WRONG_TYPES = {
    str: [None, 1, [1]],
    int: [None, "1", [1], 1.5, True],
    (int, float): [None, "1", [1], True],
    bool: [None, "1", [1], 1],
}


def _wrong_type(key):
    return st.sampled_from(_WRONG_TYPES[_SCHEMA[key][0]])


@st.composite
def _configs(draw):
    """(config, bad): a kind, an algorithm, a seed, `max_m`, the keys the
    kind needs and up to three other keys of the schema; about half of the
    configs have one key, bad, out of range or of the wrong type, and the
    others have bad None."""
    kind = draw(_CONFIG_VALUES["instance"][0])
    keys = ["instance", "algorithm", "seed", "max_m", *INSTANCE_KEYS[kind][0]]
    extra = st.sampled_from(sorted(set(_SCHEMA) - set(keys)))
    keys += draw(st.lists(extra, max_size=3, unique=True))
    bad = draw(st.sampled_from(keys)) if draw(st.booleans()) else None
    config = {"instance": kind}
    for key in keys:
        good, out_of_range = _CONFIG_VALUES[key]
        if key == bad:
            config[key] = draw(out_of_range | _wrong_type(key))
        elif key != "instance":
            config[key] = draw(good)
    return config, bad


def test_config_values_cover_the_schema():
    assert set(_CONFIG_VALUES) == set(_SCHEMA)


def test_every_wrong_type_draw_fails_its_keys_type(tmp_path, capsys):
    # each value `_wrong_type(key)` can draw is rejected by the schema's type
    # check for that key, so a config holding it must exit 2
    path = tmp_path / "config.json"
    for key, (want, _) in _SCHEMA.items():
        for value in _WRONG_TYPES[want]:
            path.write_text(json.dumps({**QUICK, key: value}))
            rc = main(["run", str(path), "--out", str(tmp_path / "out"), "--quiet"])
            assert rc == 2, (key, value)
            assert f"error: key {key!r}: expected" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()


@given(drawn=_configs())
@example(  # an empty name made the summary path the output directory
    drawn=({**QUICK, "max_m": 0, "summary": ""}, "summary")
)
@settings(max_examples=150, deadline=None)
def test_run_any_config_exits_cleanly(drawn):
    _exits_cleanly("run", *drawn)


@given(drawn=_configs())
@settings(max_examples=60, deadline=None)
def test_rates_any_config_exits_cleanly(drawn):
    _exits_cleanly("rates", *drawn)


def _exits_cleanly(command, config, bad):
    """`command` on `config`: a documented exit code, 2 when the key bad is
    out of range, no traceback, and strict JSON with the trace beside it
    whenever a run wrote its files."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([command, str(path), "--out", str(out), "--quiet"])
        event(f"exit {rc}")
        assert rc == 2 if bad is not None else rc in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if rc in (0, 1):
            summary = out / config.get("summary", "summary.json")
            json.loads(summary.read_text(), parse_constant=_reject_constant)
        if rc == 1:
            assert (out / config.get("trace", "trace.csv")).is_file()
            assert summary.is_file()


@st.composite
def _gen_argv(draw):
    """`gen` arguments: a kind, `--seed`, the flags the kind needs and any of
    its optional ones; about half of the draws have one flag out of range,
    not a number, or left out."""
    kind = draw(_CONFIG_VALUES["instance"][0])
    needed, others = INSTANCE_KEYS[kind]
    keys = ["seed", *needed, *draw(st.lists(st.sampled_from(others), unique=True))]
    bad = draw(st.sampled_from(keys)) if draw(st.booleans()) else None
    argv = [kind]
    for key in keys:
        good, out_of_range = _CONFIG_VALUES[key]
        value = draw(out_of_range | st.sampled_from(["x", None]) if key == bad else good)
        if value is not None:
            argv += ["--" + key.replace("_", "-"), str(value)]
    return argv


@given(argv=_gen_argv())
@example(  # an infinite mass made the target NaN, with a numpy warning
    argv=["compressed_sensing", "--k", "4", "--n", "8", "--s", "2", "--mass", "inf"]
)
@example(  # a NaN min_coef reached an integer cast, with a numpy warning
    argv=["lp_approx", "--n", "8", "--r", "3", "--q", "1.5", "--min-coef", "nan"]
)
@settings(max_examples=100, deadline=None)
def test_gen_any_flags_exit_cleanly(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["gen", *argv, "--out", str(out), "--quiet"])
        event(f"exit {rc}")
        assert rc in (0, 2)
        assert "Traceback" not in err.getvalue()
        if rc == 0:
            certificate = (out / "certificate.json").read_text()
            json.loads(certificate, parse_constant=_reject_constant)


# ---------------------------------------------------------------------------
# rates


def test_rates_shipped_config_passes(tmp_path, capsys):
    rc = main(["rates", str(CONFIGS / "rates_cs64.json")])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "slope:" in printed


def test_rates_failed_run_exits_1(tmp_path, capsys):
    # the slope passes the threshold, but the run ended in InnerFailure
    path = tmp_path / "stall.json"
    path.write_text(json.dumps(LP_STALL))
    out = tmp_path / "out"
    assert main(["rates", str(path), "--slope-max", "0", "--out", str(out)]) == 1
    printed = capsys.readouterr()
    slope = json.loads((out / "summary.json").read_text())["slope"]
    assert slope is not None and slope <= 0.0
    assert "failure: iteration" in printed.err
    assert main(["run", str(path), "--out", str(out), "--quiet"]) == 1


@pytest.mark.parametrize("slope_max", ["nan", "inf", "-inf"])
def test_rates_non_finite_slope_max_is_usage_error(tmp_path, capsys, slope_max):
    # slope > nan is never true, so a NaN threshold would pass any slope
    out = tmp_path / "out"
    argv = ["rates", str(CONFIGS / "rates_cs64.json"), f"--slope-max={slope_max}"]
    assert main([*argv, "--out", str(out), "--quiet"]) == 2
    assert f"error: --slope-max must be finite, got {float(slope_max)}" in (
        capsys.readouterr().err
    )
    assert not out.exists()


def test_rates_strict_threshold_fails(tmp_path):
    rc = main(
        [
            "rates",
            str(CONFIGS / "rates_cs64.json"),
            "--slope-max",
            "-10",
            "--quiet",
        ]
    )
    assert rc == 1


# ---------------------------------------------------------------------------
# gen


def test_gen_compressed_sensing(tmp_path):
    rc = main(
        [
            "gen",
            "compressed_sensing",
            "--k",
            "8",
            "--n",
            "16",
            "--s",
            "3",
            "--out",
            str(tmp_path),
            "--quiet",
        ]
    )
    assert rc == 0
    columns = np.loadtxt(tmp_path / "dictionary.csv", delimiter=",")
    target = np.loadtxt(tmp_path / "target.csv", delimiter=",")
    assert columns.shape == (8, 16)
    assert target.shape == (8,)
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["mass"] == 1.0
    assert len(cert["terms"]) == 3
    synthesized = np.zeros(8)
    for term in cert["terms"]:
        synthesized += term["coefficient"] * columns[:, term["index"]]
    assert np.allclose(synthesized, target, atol=1e-10)


def test_gen_low_rank(tmp_path):
    rc = main(
        [
            "gen",
            "low_rank",
            "--n",
            "6",
            "--rank",
            "2",
            "--out",
            str(tmp_path),
            "--quiet",
        ]
    )
    assert rc == 0
    target = np.loadtxt(tmp_path / "target.csv", delimiter=",")
    assert target.shape == (6, 6)
    cert = json.loads((tmp_path / "certificate.json").read_text())
    for term in cert["terms"]:
        assert len(term["u"]) == 6 and len(term["v"]) == 6
    rebuilt = sum(
        term["coefficient"] * np.outer(term["u"], term["v"])
        for term in cert["terms"]
    )
    assert np.allclose(rebuilt, target, atol=1e-12)


def test_gen_lp_approx(tmp_path):
    rc = main(
        [
            "gen",
            "lp_approx",
            "--n",
            "8",
            "--r",
            "4.0",
            "--q",
            "2.0",
            "--out",
            str(tmp_path),
            "--quiet",
        ]
    )
    assert rc == 0
    columns = np.loadtxt(tmp_path / "dictionary.csv", delimiter=",")
    assert columns.shape == (8, 32)


# ---------------------------------------------------------------------------
# verify


def test_verify_suite_passes(capsys):
    assert main(["verify", "--quiet"]) == 0


def test_verify_negative_seed_is_usage_error(capsys):
    # numpy's default_rng printed its traceback and the command exited 1
    assert main(["verify", "--seed", "-1", "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert re.search(r"\bseed\b", err)

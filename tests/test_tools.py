"""Tests of the two tools a performance change's evidence comes from: the
gain rule of `tools/bench_pairs.py` on synthetic pairs, and the run matrix
and `verify` digest of `tools/output_digests.py`, with no benchmark and no
`verify` run; the matrix reads the workload definitions under `benchmarks/`
and the shipped configs. One test is a byte-identity gate: it reruns the
committed gate listing's experiments on the build that listing names."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _tool("bench_pairs")
output_digests = _tool("output_digests")

METRICS = [{"name": "iter_ms", "better": "lower"}, {"name": "m_to_tol", "better": "higher"}]


def _runs(parent, change, failed=(0, 0), attempted=(10, 10), correct=(True, True)):
    """Synthetic pairs: pair i has iter_ms parent[i] and change[i], m_to_tol
    their negatives, and the first pair carries each side's failed and
    attempted counts and correct flag (every other run attempts and fails
    nothing, and is correct)."""
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        runs.append({
            side: {"failed": failed[k] if i == 0 else 0,
                   "attempted": attempted[k] if i == 0 else 0,
                   "correct": correct[k] if i == 0 else True,
                   "metrics": {"iter_ms": value, "m_to_tol": -value}}
            for k, (side, value) in enumerate((("parent", p), ("change", c)))
        })
    return runs


PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def _summary(change, parent=PARENT, **first_pair):
    return bench_pairs.summarize(_runs(parent, change, **first_pair), METRICS)


def test_gain_when_every_pair_is_better_by_more_than_the_iqr():
    summary = _summary([p - 0.2 for p in PARENT])
    for name in ("iter_ms", "m_to_tol"):  # lower is better, then higher
        s = summary[name]
        assert (s["change_better_in"], s["change_worse_in"]) == (10, 0)
        assert s["gain"] is True
    s = summary["iter_ms"]
    assert s["parent_median"] == pytest.approx(1.045)
    assert s["change_median"] == pytest.approx(0.845)
    assert (s["parent_q1"], s["parent_q3"]) == pytest.approx((1.0225, 1.0675))


def test_gain_needs_nine_of_ten_pairs():
    nine = [p - 0.2 for p in PARENT[:9]] + [PARENT[9] + 0.2]
    assert _summary(nine)["iter_ms"]["gain"] is True
    eight = [p - 0.2 for p in PARENT[:8]] + [p + 0.2 for p in PARENT[8:]]
    s = _summary(eight)["iter_ms"]
    assert (s["change_better_in"], s["change_worse_in"]) == (8, 2)
    assert s["gain"] is False
    # a tie counts for neither side: 8 better and 2 ties are not 9 of 10
    tie = [p - 0.2 for p in PARENT[:8]] + PARENT[8:]
    s = _summary(tie)["iter_ms"]
    assert (s["change_better_in"], s["change_worse_in"]) == (8, 0)
    assert s["gain"] is False


def test_gain_needs_medians_apart_by_more_than_the_parents_iqr():
    wide = [1.0 + 0.1 * i for i in range(10)]  # IQR 0.45
    s = _summary([p - 0.4 for p in wide], parent=wide)["iter_ms"]
    assert (s["change_better_in"], s["change_worse_in"]) == (10, 0)
    assert s["gain"] is False
    assert _summary([p - 0.5 for p in wide], parent=wide)["iter_ms"]["gain"] is True


def test_gain_needs_no_more_failed_operations_in_the_change():
    faster = [p - 0.2 for p in PARENT]
    assert _summary(faster, failed=(1, 1))["iter_ms"]["gain"] is True
    assert _summary(faster, failed=(0, 1))["iter_ms"]["gain"] is False
    assert _summary(faster, failed=(1, 0))["iter_ms"]["gain"] is True


def test_gain_needs_no_higher_failed_share_in_the_change():
    # runs are time-bounded: 1 failed of 50 attempted is twice the share of
    # 1 of 100, though the counts are equal
    faster = [p - 0.2 for p in PARENT]
    assert _summary(faster, failed=(1, 1), attempted=(100, 50))["iter_ms"]["gain"] is False
    assert _summary(faster, failed=(1, 1), attempted=(50, 100))["iter_ms"]["gain"] is True
    assert _summary(faster, failed=(2, 1), attempted=(100, 50))["iter_ms"]["gain"] is True


def test_gain_needs_every_change_run_correct():
    faster = [p - 0.2 for p in PARENT]
    assert _summary(faster, correct=(True, False))["iter_ms"]["gain"] is False
    assert _summary(faster, correct=(False, True))["iter_ms"]["gain"] is True
    t = bench_pairs.tally(_runs(PARENT, faster, correct=(False, True)))
    assert t == {"parent": {"failed": 0, "attempted": 10, "incorrect": 1},
                 "change": {"failed": 0, "attempted": 10, "incorrect": 0}}


def test_output_digest_matrix_names_1019_runs_in_a_fixed_order(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # matrix() prepends benchmarks/
    runs = list(output_digests.matrix(ROOT))
    names = [name for name, _ in runs]
    assert len(names) == 1019
    assert len(set(names)) == 1019
    assert names == [name for name, _ in output_digests.matrix(ROOT)]
    # small instances x rules, the same with a power weakness or a gap_tol
    # stop, the shipped configs, the workload instances, then the stress family
    assert names[0] == "cs32_wcga_1"
    variants = [name for name in names if name.endswith(("_power_1", "_gaptol_1"))]
    assert len(variants) == 36
    assert sum("weakness_exponent" in config for _, config in runs) == 18
    assert sum("gap_tol" in config for _, config in runs) == 18
    assert names[-1] == "stress_r6_q2_n64_s8_3"
    configs = sorted(path.stem for path in (ROOT / "configs").glob("*.json"))
    first = names.index(configs[0])
    assert names[first : first + len(configs)] == configs
    assert sum(name.startswith("stress_") for name in names) == 132
    assert all(name.startswith("stress_") for name in names[-132:])
    assert all("seed" in config and "algorithm" in config for _, config in runs)


def test_output_digest_gen_matrix_writes_every_kind():
    runs = list(output_digests.gen_matrix())
    assert [name for name, _ in runs] == [
        "gen_cs32", "gen_cs64", "gen_lr8", "gen_lp3", "gen_lp4", "gen_lp15"
    ]
    assert {argv[0] for _, argv in runs} == {"compressed_sensing", "low_rank", "lp_approx"}
    assert all(argv[1:3] == ["--seed", "1"] for _, argv in runs)


def test_output_digest_verify_line_hashes_what_verify_prints():
    def cli(argv):
        assert argv == ["verify", "--seed", "0"]
        print("PASS xi_agreement: max rel error 3.830e-16")
        return 0

    expected = hashlib.sha256(b"PASS xi_agreement: max rel error 3.830e-16\n")
    assert output_digests.verify_digest(cli) == expected.hexdigest()
    with pytest.raises(SystemExit, match="verify exited 1"):
        output_digests.verify_digest(lambda argv: 1)


GATE_LISTING = ROOT / "tests" / "output_digests_gate.txt"


def test_output_digest_gate_matrix_is_the_lp_wcga_and_stress_runs(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    names = [name for name, _ in output_digests.gate(ROOT)]
    assert len(names) == 78 + 132
    assert sum(name.startswith("lp_wcga_") for name in names) == 78
    recorded = GATE_LISTING.read_text(encoding="utf-8").splitlines()
    assert recorded[0].startswith("build {")
    assert [line.split()[0] for line in recorded[1:]] == names


def test_gate_outputs_are_byte_identical_to_the_committed_listing(
    monkeypatch, tmp_path
):
    # the lp wcga workload instances and the stress family, whose span
    # solves take Newton steps and reach every fallback, must write the
    # bytes the committed listing names. Other numpy, scipy, BLAS, C
    # library or Python builds may round differently: there the test skips
    # and names both builds. On the recorded build a mismatch fails
    build, *expected = GATE_LISTING.read_text(encoding="utf-8").splitlines()
    here = output_digests.build_line()
    if here != build:
        pytest.skip(f"the gate listing was recorded on {build}, this is {here}")
    monkeypatch.setattr(sys, "path", list(sys.path))
    runs = output_digests.gate(ROOT)
    assert list(output_digests.run_lines(runs, tmp_path)) == expected

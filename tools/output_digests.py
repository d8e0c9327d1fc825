"""Digests of the outputs of a fixed run matrix, for byte-identity checks.

    python3 tools/output_digests.py [--root CHECKOUT] [--keep DIR] > digests.txt

Runs greedyopt from CHECKOUT/src (default: this checkout) on small instances
times every update rule (`max_m` 60, seeds 1-2), the same instances under the
`wcga`, `wrga` and `wgafr` rules with a power weakness or a `gap_tol` stop
(`VARIANTS`, seed 1), the shipped configs, every benchmark workload instance
of workload seeds 0-12 and the lp `wcga` stress family (`STRESS`: r, q <= r,
n, s, seeds 1-3, `max_m` 30), whose span solves reach the fallbacks after the
projection, and prints per run its name, stop reason and the sha256 of
trace.csv and summary.json. Then it writes each small instance with `gen`
(seed 1) and prints per instance `gen_<name>`, the word gen and the sha256 of
each file `gen` wrote, in file-name order. Last it prints `verify`, the word
stdout and the sha256 of what `greedyopt verify --seed 0` prints (`VERIFY`).
Equal listings mean byte-identical outputs. --keep DIR keeps the files in
DIR/<name>/.

    python3 tools/output_digests.py --gate > tests/output_digests_gate.txt

prints the gate listing instead: a `build` line (`build_line`: the numpy
and scipy versions, their BLAS builds and the BLAS kernels chosen for this
CPU, the C library and Python), then the lines of the runs `gate` picks (the
small instances and their variants, the shipped configs, the lp `wcga`
workload instances, the stress family and the `low_rank_wrga` workload
instances of workload seed 0: every run but the cs workload instances and
the other `low_rank_wrga` ones), the `gen` lines and the `verify` line.
`tests/test_tools.py` recomputes the committed copy on the build it names.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import itertools
import json
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
INSTANCES = {
    "cs32": dict(instance="compressed_sensing", k=32, n=64, s=4),
    "cs64": dict(instance="compressed_sensing", k=64, n=256, s=8),
    "lr8": dict(instance="low_rank", n=8, rank=2),
    "lp3": dict(instance="lp_approx", n=16, r=3.0, q=1.5),
    "lp4": dict(instance="lp_approx", n=16, r=4.0, q=2.0),
    "lp15": dict(instance="lp_approx", n=16, r=1.5, q=1.5),
}
RULES = {
    "wcga": dict(algorithm="wcga"),
    "wrga": dict(algorithm="wrga"),
    "wgafr": dict(algorithm="wgafr"),
    "best": dict(algorithm="best_step"),
    "reduced": dict(algorithm="reduced_step", step_b=0.5),
    "fixed": dict(algorithm="fixed_relaxation", relaxation_r=0.1),
    "prescribed": dict(algorithm="prescribed", prescribed_step=0.05),
    "energy": dict(algorithm="prescribed", prescribed_step=0.05,
                   prescribed_selection="energy"),
}
# the weakness schedule and stop key that no other run sets
VARIANTS = {"power": dict(weakness_exponent=0.5), "gaptol": dict(gap_tol=1e-6)}
# lp `wcga` near the roundoff floor: Newton misses and the L-BFGS-B passes run.
STRESS = dict(r=(1.5, 3.0, 4.0, 6.0), q=(1.2, 1.5, 2.0), n=(16, 64), s=(2, 8))
VERIFY = ["verify", "--seed", "0"]
# the run-name prefixes of the gate listing besides the shipped configs and
# GATE_WORKLOAD_SEED's runs: the small instances and their variants, and the
# groups a span solve's Newton steps reach
GATE = (*(f"{name}_" for name in INSTANCES), "lp_wcga_", "stress_")
# the workload seed whose low_rank_wrga instances the gate listing also
# takes: the gate's only rank-one runs above side 16, whose selections take
# the sketch estimate. With the configs, gen and verify the gate takes about
# 10 s; the cs workload instances and the other low_rank_wrga ones (about
# 30 s) stay in the full listing
GATE_WORKLOAD_SEED = 0


def matrix(root: Path):
    """(name, config) for every run, in a fixed order."""
    for iname, instance in INSTANCES.items():
        for rname, rule in RULES.items():
            if rname == "energy" and instance["instance"] == "low_rank":
                continue  # energy selection needs a finite dictionary
            for seed in (1, 2):
                config = dict(instance, **rule, seed=seed, max_m=60)
                yield f"{iname}_{rname}_{seed}", config
    for iname, instance in INSTANCES.items():
        for rname in ("wcga", "wrga", "wgafr"):
            for vname, variant in VARIANTS.items():
                config = dict(instance, **RULES[rname], **variant, seed=1, max_m=60)
                yield f"{iname}_{rname}_{vname}_1", config
    for path in sorted((root / "configs").glob("*.json")):
        yield path.stem, json.loads(path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(HERE / "benchmarks"))
    from workloads import WORKLOADS, instance_seeds

    for wname, workload in WORKLOADS.items():
        for wseed in range(13):
            for seed in instance_seeds(workload, wseed):
                yield f"{wname}_{seed}", dict(workload.config, seed=seed)
    for r, q, n, s, seed in itertools.product(*STRESS.values(), (1, 2, 3)):
        if q <= r:
            config = dict(instance="lp_approx", algorithm="wcga", r=r, q=q, n=n, s=s,
                          seed=seed, max_m=30)
            yield f"stress_r{r:g}_q{q:g}_n{n}_s{s}_{seed}", config


def gen_matrix():
    """(name, `gen` arguments) for every small instance, at seed 1."""
    for iname, instance in INSTANCES.items():
        argv = [instance["instance"], "--seed", "1"]
        for key, value in instance.items():
            if key != "instance":
                argv += ["--" + key.replace("_", "-"), str(value)]
        yield f"gen_{iname}", argv


def gate(root: Path):
    """(name, config) for the runs of the gate listing, in matrix order:
    the runs named by a GATE prefix, the shipped configs and the
    low_rank_wrga instances of workload seed GATE_WORKLOAD_SEED."""
    runs = list(matrix(root))  # which puts benchmarks/ on sys.path
    from workloads import WORKLOADS, instance_seeds

    names = {path.stem for path in (root / "configs").glob("*.json")}
    seeds = instance_seeds(WORKLOADS["low_rank_wrga"], GATE_WORKLOAD_SEED)
    names.update(f"low_rank_wrga_{seed}" for seed in seeds)
    return [
        (name, config) for name, config in runs if name.startswith(GATE) or name in names
    ]


def run_lines(runs, out: Path):
    """Per run: its name, stop reason and the sha256 of trace.csv and
    summary.json, written under out/<name>/."""
    from greedyopt.experiment import run_experiment

    for name, config in runs:
        result = run_experiment(config, out / name)
        paths = (result.trace_path, result.summary_path)
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]
        yield " ".join([name, result.summary["stopping_reason"], *digests])


def gen_lines(cli_main, out: Path):
    """Per small instance: `gen_<name>`, the word gen and the sha256 of each
    file `cli_main(["gen", ...])` wrote under out/gen_<name>/, in file-name
    order; SystemExit if gen fails."""
    for name, gen_argv in gen_matrix():
        if cli_main(["gen", *gen_argv, "--out", str(out / name), "--quiet"]) != 0:
            raise SystemExit(f"gen failed for {name}")
        paths = sorted((out / name).iterdir())
        digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]
        yield " ".join([name, "gen", *digests])


def _blas_cores() -> dict:
    """The OpenBLAS kernel set chosen for this CPU, per wheel that bundles
    one ("unknown" where none is found): the build's bits depend on it."""
    import numpy
    import scipy

    cores = {}
    for module in (numpy, scipy):
        libs = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
        cores[module.__name__] = "unknown"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for symbol in ("scipy_openblas_get_corename64_",
                           "scipy_openblas_get_corename", "openblas_get_corename"):
                corename = getattr(lib, symbol, None)
                if corename is not None:
                    corename.restype = ctypes.c_char_p
                    cores[module.__name__] = corename().decode()
                    break
    return cores


def build_line() -> str:
    """`build` and a JSON object naming the numpy and scipy versions, each
    one's BLAS build and the BLAS kernels chosen for this CPU, and the C
    library and Python, whose pow and float formatting the outputs use."""
    import numpy
    import scipy

    build = {"libc": " ".join(platform.libc_ver()),
             "python": platform.python_version()}
    for module in (numpy, scipy):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        build[module.__name__] = {
            "version": module.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_config": blas.get("openblas configuration", ""),
        }
    for name, core in _blas_cores().items():
        build[name]["blas_core"] = core
    return "build " + json.dumps(build, sort_keys=True)


def verify_digest(cli_main) -> str:
    """sha256 of the text `cli_main(VERIFY)` prints; SystemExit unless it
    returns 0."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        rc = cli_main(VERIFY)
    if rc != 0:
        raise SystemExit(f"verify exited {rc}:\n{text.getvalue()}")
    return hashlib.sha256(text.getvalue().encode("utf-8")).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=HERE)
    parser.add_argument("--keep", type=Path)
    parser.add_argument("--gate", action="store_true",
                        help="print the build line, then the gate's runs, gen and verify")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "src"))
    from greedyopt.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        out = args.keep or Path(tmp)
        if args.gate:
            print(build_line(), flush=True)
        runs = gate(args.root) if args.gate else matrix(args.root)
        for line in itertools.chain(run_lines(runs, out), gen_lines(cli_main, out)):
            print(line, flush=True)
    print("verify", "stdout", verify_digest(cli_main), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

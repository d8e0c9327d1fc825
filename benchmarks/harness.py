"""Runs one workload through greedyopt.experiment.run_experiment, checks every
output and prints the metrics named in BENCHMARK.json.

A run is one run_experiment call on one instance. A pass runs every instance
of the workload once; passes repeat until the measuring time is spent, and
always end whole, so failure counts and the counts read from the first pass
repeat exactly between runs of the same code. Untraced runs give the
end-to-end metrics. With tracing on, each instance runs once untraced and
once traced per pass, in alternating order, and the traced runs give the
per-layer metrics.
"""
from __future__ import annotations

import csv
import gc
import importlib
import json
import shutil
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path
from time import perf_counter

from host import NOMINAL_S, SpeedProbe
from layers import Tracer
from workloads import WORKLOADS, instance_seeds

# Traced runs must account for their wall time in layer self times to within
# this share; the rest is the root wrapper's own cost.
COVERAGE_TOL = 0.02
OUT_DIR = ".bench_out"
# Metrics reported as the mean of their samples; all others as the median.
# m_to_tol is exact for each instance, so its spread between workload seeds
# comes only from the instances drawn, and their mean spreads less than their
# median.
MEAN_OF = ("m_to_tol",)


class PhaseTimer:
    """Wraps run_greedy where run_experiment looks it up, so each run splits
    into set-up (before the call), the greedy loop and the rest."""

    def __init__(self, experiment):
        self.module = experiment
        self.original = original = experiment.run_greedy
        self.start = self.end = None
        timer = self

        def run_greedy(*args, **kwargs):
            timer.start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                timer.end = perf_counter()

        run_greedy.__module__ = original.__module__
        run_greedy.__qualname__ = original.__qualname__
        run_greedy.__wrapped__ = original
        experiment.run_greedy = run_greedy

    def reset(self):
        self.start = self.end = None

    def close(self):
        self.module.run_greedy = self.original


def stopped_at(exc: BaseException):
    """The iteration run_greedy was in when `exc` passed through it."""
    m = None
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_name == "run_greedy":
            m = tb.tb_frame.f_locals.get("m", m)
        tb = tb.tb_next
    return m


def check_outputs(result, m_tol: float) -> tuple:
    """(wrong, problems, iterations, m_to_tol) for a run that returned ok.

    `wrong` lists outputs that contradict each other: the written trace and
    summary must match what the run returned. `problems` lists runs that
    fall short: the run must use all its iterations and reach
    gap / initial gap <= m_tol."""
    wrong, problems = [], []
    summary = result.summary
    if summary["stopping_reason"] != "MaxIterations":
        problems.append(f"stopped by {summary['stopping_reason']}")
    if result.summary_path is None or result.trace_path is None:
        return wrong + ["no output files written"], problems, 0, None
    written = json.loads(Path(result.summary_path).read_text(encoding="utf-8"))
    if json.dumps(written, sort_keys=True) != json.dumps(summary, sort_keys=True):
        wrong.append("summary.json differs from the returned summary")
    with open(result.trace_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    energies = [float(row["energy"]) for row in rows]
    if energies != result.trace.energies().tolist():
        wrong.append("trace.csv energies differ from the returned trace")
    m_to_tol = None
    if rows:
        first = rows[0]
        reference = float(first["energy"]) - float(first["gap"])
        initial_gap = result.trace.initial_energy - reference
        for row in rows:
            if float(row["gap"]) <= m_tol * initial_gap:
                m_to_tol = int(row["m"])
                break
    if m_to_tol is None:
        problems.append(f"gap never reached {m_tol:g} of the initial gap")
    return wrong, problems, len(rows), m_to_tol


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def module_lines(src: Path) -> dict:
    """Non-blank, non-comment lines per module of src/greedyopt."""
    out = {}
    for path in sorted((src / "greedyopt").glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        out[path.stem] = sum(
            1 for line in lines if line.strip() and not line.strip().startswith("#")
        )
    return out


class Bench:
    def __init__(self, args, root: Path, blas_env: dict):
        self.args = args
        self.root = root
        self.blas_env = blas_env
        self.workload = WORKLOADS[args.workload]
        self.seeds = instance_seeds(self.workload, args.seed)
        self.spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        package = importlib.import_module("greedyopt")
        self.experiment = importlib.import_module("greedyopt.experiment")
        self.phase = PhaseTimer(self.experiment)
        self.tracer = Tracer(package) if args.trace else None
        self.samples: list = []
        self.first_result: dict = {}  # instance seed -> outcome of its first run
        self.incorrect: list = []
        self.first_spans: list = []
        self.speed = SpeedProbe()

    def close(self):
        self.phase.close()

    # -- one run ---------------------------------------------------------

    def run_once(self, pass_no: int, seed: int, traced: bool, out_dir: Path) -> dict:
        config = dict(self.workload.config, seed=seed)
        gc.collect()
        sample = {
            "pass": pass_no,
            "instance": seed,
            "traced": traced,
            "unix_time": time.time(),
        }
        self.phase.reset()
        self.speed.on_sample = self.tracer.add_probe_span if traced else None
        if traced:
            self.tracer.begin_run()
            self.tracer.install()
        error = None
        with self.speed as speed:
            t0 = perf_counter()
            try:
                result = self.experiment.run_experiment(config, out_dir)
            except Exception as exc:  # one run's failure must not stop the others
                result = None
                error = {
                    "type": type(exc).__name__,
                    "message": str(exc)[:300],
                    "iteration": stopped_at(exc),
                }
            t1 = perf_counter()
        if traced:
            self.tracer.uninstall()
        sample["ref_s"] = speed.ref_s
        sample["probes"] = len(speed.times)
        own = speed.nominal
        sample["wall_s"] = t1 - t0
        sample["run_s"] = own(t0, t1)
        start, end = self.phase.start, self.phase.end
        if start is not None:
            sample["setup_s"] = own(t0, start)
        if traced:
            layers = self.tracer.end_run(t1 - t0, start, end)
            for name in layers:
                if name.endswith("_s") or name.startswith("algorithms.iter_ms"):
                    layers[name] *= NOMINAL_S / speed.ref_s
            sample["layers"] = layers
            if not self.first_spans:
                self.first_spans = self.tracer.span_dump()

        if error is not None:
            sample["status"] = "raised"
            sample["error"] = error
            outcome = ("raised", error["type"], error["iteration"])
        elif not result.ok:
            sample["status"] = "not_ok"
            sample["summary"] = result.summary
            outcome = ("not_ok", result.summary["stopping_reason"])
        else:
            wrong, problems, iterations, m_to_tol = check_outputs(
                result, self.workload.m_tol
            )
            problems += wrong
            self.incorrect += [f"instance {seed}: {w}" for w in wrong]
            sample["iterations"] = iterations
            sample["m_to_tol"] = m_to_tol
            sample["final_gap"] = result.summary["final_gap"]
            if end is not None and iterations:
                sample["iter_ms"] = own(start, end) / iterations * 1e3
            if problems:
                sample["status"] = "check_failed"
                sample["problems"] = problems
            else:
                sample["status"] = "ok"
            outcome = ("returned", iterations, result.summary["final_gap"], m_to_tol)
        first = self.first_result.setdefault(seed, outcome)
        if first != outcome:
            self.incorrect.append(
                f"instance {seed}: outcome {outcome} differs from first run {first}"
            )
        if traced:
            coverage = sample["layers"]["trace.coverage"]
            if abs(1.0 - coverage) > COVERAGE_TOL:
                self.incorrect.append(
                    f"instance {seed}: layer self times cover {coverage:.4f} "
                    "of the traced wall time"
                )
        return sample

    def peak_mb(self, seed: int, out_dir: Path) -> float:
        """Peak traced allocation of one run, in an untimed pass of its own."""
        gc.collect()
        tracemalloc.start()
        try:
            self.experiment.run_experiment(dict(self.workload.config, seed=seed), out_dir)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 1e6

    # -- the measurement -------------------------------------------------

    def measure(self, out_dir: Path) -> dict:
        deadline = perf_counter() + self.args.seconds
        pass_no = 0
        while pass_no == 0 or perf_counter() < deadline:
            for index, seed in enumerate(self.seeds):
                modes = (False, True) if self.args.trace else (False,)
                if (pass_no + index) % 2:
                    modes = modes[::-1]
                for traced in modes:
                    self.samples.append(self.run_once(pass_no, seed, traced, out_dir))
            pass_no += 1
        self.passes = pass_no
        untraced_ok = [s for s in self.samples if s["status"] == "ok" and not s["traced"]]
        if not untraced_ok:
            raise RuntimeError("no run completed; nothing to measure")
        values = {"host.ref_s": [s["ref_s"] for s in self.samples]}
        failed = [s for s in self.samples if s["status"] != "ok"]
        values["experiment.fail_rate"] = [len(failed) / len(self.samples)]
        if self.args.trace:
            values.update(self.layer_values(untraced_ok))
        else:
            values["run_s"] = [s["run_s"] for s in untraced_ok]
            values["setup_s"] = [s["setup_s"] for s in untraced_ok]
            values["iter_ms"] = [s["iter_ms"] for s in untraced_ok]
            values["m_to_tol"] = [
                s["m_to_tol"] for s in untraced_ok if s["pass"] == 0
            ]
            values["peak_mb"] = [self.peak_mb(untraced_ok[0]["instance"], out_dir)]
        return values

    def layer_values(self, untraced_ok: list) -> dict:
        traced = [s for s in self.samples if s["traced"]]
        traced_ok = [s for s in traced if s["status"] == "ok"]
        first_pass = [s["layers"] for s in traced if s["pass"] == 0]
        values = {}
        # times: per run, over the traced runs that completed
        for name in sorted({k for s in traced_ok for k in s["layers"]}):
            if name.endswith("_s") or name.startswith("algorithms.iter_ms"):
                values[name] = [s["layers"][name] for s in traced_ok if name in s["layers"]]
        values["trace.coverage"] = [s["layers"]["trace.coverage"] for s in traced]
        values["trace.overhead"] = [
            statistics.median(s["run_s"] for s in traced_ok)
            / statistics.median(s["run_s"] for s in untraced_ok)
        ] if traced_ok else []
        # counts: per run, over every traced run of the first pass
        runs = len(first_pass)
        for name in (
            "objectives.value_calls",
            "objectives.grad_calls",
            "dictionaries.sup_calls",
            "dictionaries.power_iters",
            "inner_solvers.calls",
            "inner_solvers.evals",
            "inner_solvers.lbfgs_iters",
            "inner_solvers.sweeps",
        ):
            values[name] = [sum(r.get(name, 0) for r in first_pass) / runs]
        values["dictionaries.power_iters_max"] = [
            max(r.get("dictionaries.power_iters_max", 0) for r in first_pass)
        ]
        values["dictionaries.unconverged"] = [
            sum(r.get("dictionaries.unconverged", 0) for r in first_pass)
        ]
        ok_first = [s for s in traced_ok if s["pass"] == 0]
        iterations = sum(s["iterations"] for s in ok_first)
        values["objectives.evals_per_iter"] = [
            sum(s["layers"].get("objectives.greedy_evals", 0) for s in ok_first)
            / iterations
        ] if iterations else []
        lines = module_lines(self.root / "src")
        for module, count in lines.items():
            values[f"{module}.lines"] = [count]
        values["src.lines"] = [sum(lines.values())]
        return values

    # -- output ----------------------------------------------------------

    def report(self, values: dict) -> dict:
        declared = self.spec["per_layer" if self.args.trace else "end_to_end"]
        metrics = {}
        print(f"{'metric':30} {'value':>13} {'unit':10} {'q1':>11} {'q3':>11}  n")

        def row(name, value, unit, got, note=""):
            q1, q3 = quartiles(got)
            print(f"{name:30} {value:13.6g} {unit:10} {q1:11.6g} {q3:11.6g}  "
                  f"{len(got)}{note}")

        for entry in declared:
            name, unit = entry["name"], entry["unit"]
            got = values.get(name)
            if got is None and name.endswith(".lines"):
                got = [0]  # the module no longer exists
            if not got:
                raise RuntimeError(f"metric {name} was not measured")
            mean = name in MEAN_OF
            value = float(statistics.fmean(got) if mean else statistics.median(got))
            row(name, value, unit, got, " (mean)" if mean else "")
            metrics[name] = {"value": value, "unit": unit}
        if not self.args.trace:
            rate = values["experiment.fail_rate"]
            row("fail_rate", rate[0], "1", rate,
                f" of {len(self.samples)} runs (not gated; zero on most workloads)")
        return metrics

    def print_header(self):
        w = self.workload
        blas = " ".join(f"{k}={v}" for k, v in self.blas_env.items())
        print(f"greedyopt benchmark: workload={w.name} seed={self.args.seed} "
              f"trace={self.args.trace} seconds={self.args.seconds}")
        print(f"blas threads pinned before numpy import: {blas}")
        print(f"instances per pass: {' '.join(map(str, self.seeds))}")

    def print_runs(self, values: dict):
        failed = [s for s in self.samples if s["status"] != "ok"]
        ref = values["host.ref_s"]
        print(f"passes {self.passes}, runs {len(self.samples)} attempted, "
              f"{len(failed)} failed (fail_rate {len(failed) / len(self.samples):.4f})")
        ok = [s for s in self.samples if s["status"] == "ok" and not s["traced"]]
        print(f"host.ref_s median {statistics.median(ref):.5f} s, "
              f"min {min(ref):.5f}, max {max(ref):.5f}, n={len(ref)}; times below "
              f"are at the nominal speed, a {NOMINAL_S} s probe")
        if ok:
            print(f"unscaled wall time of one run: median "
                  f"{statistics.median(s['wall_s'] for s in ok):.5f} s, n={len(ok)}")
        seen = set()
        for s in failed:
            key = (s["instance"], s["traced"])
            if key in seen:
                continue
            seen.add(key)
            if s["status"] == "raised":
                e = s["error"]
                what = f"{e['type']} at m={e['iteration']}: {e['message'][:120]}"
            elif s["status"] == "not_ok":
                what = f"ok=False, stop {s['summary']['stopping_reason']}"
            else:
                what = "; ".join(s["problems"])
            print(f"failure: instance {s['instance']}"
                  f"{' (traced)' if s['traced'] else ''}: {what}")
        for problem in self.incorrect:
            print(f"incorrect: {problem}")

    def write_dump(self, path: Path, values: dict):
        dump = {
            "workload": self.workload.name,
            "seed": self.args.seed,
            "trace": self.args.trace,
            "seconds": self.args.seconds,
            "blas_env": self.blas_env,
            "instances": self.seeds,
            "samples": self.samples,
            "values": values,
            "incorrect": self.incorrect,
        }
        if self.tracer is not None:
            dump["wrapped"] = self.tracer.wrapped_names()
            dump["probe_errors"] = dict(self.tracer.probe_errors)
            dump["spans_of_first_traced_run"] = {
                "columns": ["layer", "start_us", "end_us", "parent"],
                "spans": self.first_spans,
            }
        path.write_text(json.dumps(dump, default=str) + "\n", encoding="utf-8")


def main(args, root: Path, blas_env: dict) -> int:
    out_root = root / OUT_DIR
    out_root.mkdir(exist_ok=True)
    bench = Bench(args, root, blas_env)
    bench.print_header()
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))
    try:
        values = bench.measure(run_dir)
    finally:
        bench.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    bench.print_runs(values)
    metrics = bench.report(values)
    dump = out_root / f"{args.workload}-trace{args.trace}.json"
    bench.write_dump(dump, values)
    print(f"samples{' and spans' if args.trace else ''} written to {dump.relative_to(root)}")
    failed = sum(1 for s in bench.samples if s["status"] != "ok")
    # one line per invocation, so the order in which workloads interleave and
    # the host's drift across them can be read back
    with open(out_root / "invocations.jsonl", "a", encoding="utf-8") as fh:
        ref = values["host.ref_s"]
        fh.write(json.dumps({
            "unix_start": bench.samples[0]["unix_time"],
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "host.ref_s": statistics.median(ref),
            "host.ref_s_range": [min(ref), max(ref)],
            "attempted": len(bench.samples),
            "failed": failed,
        }) + "\n")
    print(json.dumps({
        "correct": not bench.incorrect,
        "attempted": len(bench.samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0

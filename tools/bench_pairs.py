"""Paired benchmark runs of two checkouts, parent and change.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--workload W2 ...]
        [--pairs N] [--first-seed S] [--seconds T] [--json OUT]

Pair i runs `benchmarks/run.py --workload W --seed S+i --seconds T --trace 0`
once in each checkout, in that checkout's directory and with its own
benchmark code. Odd pairs run the parent first, even pairs the change, so
neither side always runs on a warmer host. For each end-to-end metric of
the parent's BENCHMARK.json the report gives both medians, both sides'
quartiles (inclusive method: numpy's linear percentile), and in how many
pairs the change was better or worse; ties count for neither. Failed and
attempted operations are summed per side, and runs whose `correct` flag is
false are counted. A gain holds when the change is better in at least nine
tenths of the pairs, the medians differ by more than the parent's
interquartile range, every change run is correct, and the change's failed
share (failed / attempted: runs are time-bounded, so the sides attempt
different counts) is no higher than the parent's. --json writes every run
and the summary; it names each checkout by its directory name.
Nothing in either checkout is edited; the harness writes its samples to
the checkout's `.bench_out/`.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `benchmarks/run.py` invocation: its last line, parsed."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(
            f"{checkout}: {' '.join(cmd[1:])} exited {proc.returncode}\n{proc.stderr}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def tally(runs: list) -> dict:
    """Per side: failed and attempted operations, and incorrect runs."""
    return {side: {key: sum(r[side][key] for r in runs)
                   for key in ("failed", "attempted")}
            | {"incorrect": sum(not r[side]["correct"] for r in runs)}
            for side in SIDES}


def summarize(runs: list, metrics: list) -> dict:
    """Per end-to-end metric: medians, quartiles and the pair count."""
    t = tally(runs)
    sound = t["change"]["incorrect"] == 0 and (  # failed shares, cross-multiplied
        t["change"]["failed"] * t["parent"]["attempted"]
        <= t["parent"]["failed"] * t["change"]["attempted"])
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(r["parent"]["metrics"][name], r["change"]["metrics"][name])
                 for r in runs]
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        better = sum(c < p if lower else c > p for p, c in pairs)
        worse = sum(c > p if lower else c < p for p, c in pairs)
        p1, p3 = quartiles(parent)
        c1, c3 = quartiles(change)
        pm, cm = statistics.median(parent), statistics.median(change)
        out[name] = {
            "better": metric["better"],
            "parent_median": pm, "parent_q1": p1, "parent_q3": p3,
            "change_median": cm, "change_q1": c1, "change_q3": c3,
            "change_better_in": better, "change_worse_in": worse,
            "gain": better >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1
            and (cm < pm if lower else cm > pm) and sound,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    spec = json.loads((checkouts["parent"] / "BENCHMARK.json").read_text())

    report = {"parent": checkouts["parent"].name, "change": checkouts["change"].name,
              "seconds": args.seconds, "workloads": {}}
    for workload in args.workload:
        runs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            run = {"seed": seed, "first": order[0]}
            for side in order:
                run[side] = run_once(checkouts[side], workload, seed, args.seconds)
            runs.append(run)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} iter_ms {run[side]['metrics']['iter_ms']:.4f}"
                for side in SIDES), file=sys.stderr, flush=True)
        summary = summarize(runs, spec["end_to_end"])
        t = tally(runs)
        report["workloads"][workload] = {
            "pairs": args.pairs,
            "failed_of_attempted": {side: [t[side]["failed"], t[side]["attempted"]]
                                    for side in SIDES},
            "incorrect_runs": {side: t[side]["incorrect"] for side in SIDES},
            "end_to_end": summary, "runs": runs,
        }
        print(f"\n{workload}: {args.pairs} pairs, " + ", ".join(
            f"{side} {t[side]['failed']}/{t[side]['attempted']} failed, "
            f"{t[side]['incorrect']} incorrect runs" for side in SIDES))
        print(f"{'metric':10} {'parent':>11} {'[q1':>11} {'q3]':>11} "
              f"{'change':>11} {'better':>7} {'worse':>6}  gain")
        for name, s in summary.items():
            print(f"{name:10} {s['parent_median']:11.5g} {s['parent_q1']:11.5g} "
                  f"{s['parent_q3']:11.5g} {s['change_median']:11.5g} "
                  f"{s['change_better_in']:7d} {s['change_worse_in']:6d}  {s['gain']}")
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

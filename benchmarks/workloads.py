"""The benchmark's workloads: one greedy algorithm at one problem size each.

Every workload runs a fixed number of instances per pass. Their instance
seeds are derived from the workload seed given on the command line, so the
same seed always runs the same instances, and the counts the benchmark
reports (iterations to tolerance, failures, evaluation counts) repeat
exactly between runs of the same code.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # a run_experiment config without its seed
    instances: int  # instances per pass
    m_tol: float  # gap / initial gap at which m_to_tol is read


WORKLOADS = {
    w.name: w
    for w in (
        # The Chebyshev span re-solve dominates: lstsq on a growing basis every
        # step, so the cost of a step grows with m.
        Workload(
            "cs_wcga",
            dict(
                instance="compressed_sensing",
                algorithm="wcga",
                k=512,
                n=2048,
                s=64,
                max_m=400,
                sup_tol=-1.0,
            ),
            instances=4,
            m_tol=1e-8,
        ),
        # Scalar inner searches on a quadratic, about 190 objective calls per
        # step; selection is a small share.
        Workload(
            "cs_wgafr",
            dict(
                instance="compressed_sensing",
                algorithm="wgafr",
                k=256,
                n=1024,
                s=32,
                max_m=200,
            ),
            instances=16,
            m_tol=1e-6,
        ),
        # Rank-one selection by power iteration dominates. Some instances abort
        # with an uncertified selection; they count as failures, not skipped.
        Workload(
            "low_rank_wrga",
            dict(
                instance="low_rank",
                algorithm="wrga",
                n=64,
                rank=8,
                max_m=100,
            ),
            instances=32,
            m_tol=2e-2,
        ),
        # Non-quadratic span solves (L-BFGS, coordinate line searches); set-up is
        # the sampled smoothness calibration.
        Workload(
            "lp_wcga",
            dict(
                instance="lp_approx",
                algorithm="wcga",
                n=64,
                r=3.0,
                q=1.5,
                s=8,
                max_m=40,
            ),
            instances=6,
            m_tol=1e-8,
        ),
    )
}


def instance_seeds(workload: Workload, seed: int) -> list:
    """The instance seeds of one pass of `workload` under workload seed `seed`."""
    return [seed * 1000 + i for i in range(workload.instances)]

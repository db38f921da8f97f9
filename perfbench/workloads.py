"""The benchmark's workloads: one acceptance experiment each, at its
production per-replica parameters with a reduced replica count.

Every parameter is spelled out here rather than taken from the experiment
defaults, so a later change to those defaults cannot silently change what
the benchmark measures. This module imports nothing from tapbound.
"""

from __future__ import annotations

from dataclasses import dataclass

# The seed used when none is given, and a seed no run used while the
# benchmark was tuned; both pass every criterion at the replica counts below.
DEFAULT_SEED = 1
HELD_OUT_SEED = 31

# Verdict i of a run uses config seed `seed + i * SEED_STRIDE`, so verdict 0
# runs the benchmark seed itself and no two runs with seeds below the stride
# share a verdict.
SEED_STRIDE = 2 ** 32

# The set-up warm-up runs every code path of its workload on a fixed seed, so
# set-up time does not depend on the benchmark seed.
WARMUP_SEED = 20240801


@dataclass(frozen=True)
class Workload:
    experiment: str
    params: dict  # config overrides for every verdict
    cells: int  # replica cases per unit of `replicas` (the beta x h grid)
    warmup: dict  # overrides of `params` for the set-up warm-up verdict

    def config_overrides(self, seed: int, out: str, warmup: bool = False) -> dict:
        return dict(self.params, **(self.warmup if warmup else {}), seed=seed, out=out)

    def replicas_per_verdict(self) -> int:
        return self.params["replicas"] * self.cells


XI_2 = (0.0, 0.0, 1.0)
GAP_GRID = dict(beta=(0.2, 0.4), h=(0.0, 0.3), delta_check=0.5, starts=6)

WORKLOADS = {
    # n=12 rather than the acceptance n=14: a replica's cost follows its
    # classification depth (coefficient of variation ~0.6 across seeds), and
    # only at n=12 do enough replicas fit in a run to average that out.
    "slice-onsager": Workload(
        experiment="onsager-markov",
        params=dict(n=12, xi=XI_2, beta=(0.3,), epsilon=0.05, eta=0.4,
                    delta=0.2, h=(0.3,), replicas=4),
        cells=1,
        warmup=dict(replicas=1),
    ),
    "gap-ising": Workload(
        experiment="bound-ising",
        params=dict(n=14, xi=XI_2, replicas=1, **GAP_GRID),
        cells=4,
        warmup=dict(beta=(0.4,), h=(0.3,)),
    ),
    "gap-sphere": Workload(
        experiment="bound-sphere",
        params=dict(n=16, xi=XI_2, mc_samples=100000, replicas=1, **GAP_GRID),
        cells=4,
        warmup=dict(beta=(0.4,), h=(0.3,)),
    ),
    "gaussian-law": Workload(
        experiment="gaussian-law",
        params=dict(n=8, xi=(0.0, 0.0, 1.0, 0.5), replicas=1000),
        cells=1,
        warmup=dict(replicas=500),
    ),
}

"""Benchmark workloads: what each one runs through the ``gridswarm`` CLI and why.

Every workload is closed-loop and single-process: one ``gridswarm``
command runs to completion in a fresh interpreter before the next pass
starts.  ``build(seed, tiny)`` returns the command for one pass; the
same seed always gives the same command.  ``tiny`` shrinks the regions
so the harness self-check finishes in seconds; tiny passes are never
timed against the baselines.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Pass:
    """One ``gridswarm`` invocation: the config file it reads and its flags."""

    command: str  # "run" or "sweep"
    config: dict
    vary: dict[str, list]  # sweep only
    seeds: int = 1  # sweep only: seeds per point
    agg: bool = False  # sweep only: also write the per-point aggregates
    events: bool = False  # run only: also write the event log

    @property
    def region(self) -> str:
        return self.config["region"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    exercises: str
    bypasses: str
    build: Callable[[int, bool], Pass]


def _sweep_square41(seed: int, tiny: bool) -> Pass:
    vary = {
        "algorithm": ["sllg-ea", "slug-ea", "sltt-ea"],
        "approach": [1, 2],
        "e0": [8, 15, 23],
        "dt": [1, 2, 4, 8],
    }
    if tiny:
        vary.update(e0=[8, 15], dt=[1, 4])
    # Simulation seeds stay at 0 and 1, the acceptance fixtures' first two.
    # Whether sltt-ea/approach 2/dt=1 stalls at the 12,000-step cap is a
    # per-seed lottery: seeds 0-5 gave 0 to 3 stalls and 8.9-12.4 s, a
    # spread wider than any bound the benchmark may set.  The benchmark
    # seed therefore permutes the order of the sweep instead, which
    # changes the run CSV but not the total work.
    rng = random.Random(seed)
    for values in vary.values():
        rng.shuffle(values)
    config = {
        "region": "square:11" if tiny else "square:41",
        "scheduler": "random",
        "alpha": 0.0,
        "max_steps": 12000,
        "seed": 0,
    }
    return Pass("sweep", config, vary, seeds=2, agg=True)


def _run_square101_events(seed: int, tiny: bool) -> Pass:
    config = {
        "region": "square:21" if tiny else "square:101",
        "algorithm": "sltt-ea",
        "approach": 2,
        "e0": 20.0 if tiny else 60.0,
        "dt": 2,
        "seed": seed,
    }
    return Pass("run", config, {}, events=True)


def _adversarial_square61_alpha(seed: int, tiny: bool) -> Pass:
    config = {
        "region": "square:15" if tiny else "square:61",
        "scheduler": "adversarial",
        "alpha": 0.01,
        "e0": 12.0 if tiny else 35.0,
        "dt": 2,
        "approach": 2,
        "seed": seed,
    }
    return Pass("sweep", config, {"algorithm": ["sllg-ea", "slug-ea", "sltt-ea"]}, seeds=2)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-square41",
            why=(
                "The acceptance-gate traffic of criteria 1-3: 144 medium runs on "
                "square:41 (3 algorithms x approach 1,2 x e0 8,15,23 x dt 1,2,4,8 "
                "x 2 seeds), 2 of which stall at the 12,000-step cap."
            ),
            exercises=(
                "the per-run sweep loop and --agg, the random scheduler, the "
                "per-wake hot path (sense, decide), wake elision"
            ),
            bypasses="the adversarial rank map, settled energy events, the event log",
            build=_sweep_square41,
        ),
        Workload(
            name="run-square101-events",
            why=(
                "One large run (sltt-ea, approach 2, e0=60, dt=2 on square:101: "
                "about 13,200 steps and 304k wakes) whose cost is the per-wake "
                "hot path plus the in-memory event log of about 273k events."
            ),
            exercises=(
                "sense and the decide rules at scale, Event.format and the "
                "event-log write, load_region on the largest region"
            ),
            bypasses="the sweep loop, the adversarial rank map, settled energy events",
            build=_run_square101_events,
        ),
        Workload(
            name="adversarial-square61-alpha",
            why=(
                "Simulation.step self time is about 80% of each run because "
                "the adversarial scheduler sorts every active agent every "
                "step; alpha=0.01 makes hundreds of settled agents fail."
            ),
            exercises=(
                "the adversarial rank map, settled energy events and the fail "
                "path (nowhere else), a small sweep"
            ),
            bypasses="the random scheduler, the event log",
            build=_adversarial_square61_alpha,
        ),
    )
}

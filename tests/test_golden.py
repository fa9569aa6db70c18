"""Golden traces: the sha256 of the formatted event log of small fixed
runs.  Every algorithm and approach, both schedulers, settled failures
under ``alpha > 0`` and a step-cap run are pinned, so any change to a
seeded trajectory (state, RNG draw order, event order) shows up here.
Each of these runs must also pass the invariant audit of ``audit.py``.

A change that alters trajectories on purpose must say so and regenerate
the digests with ``python tests/test_golden.py``.
"""
import hashlib

import pytest

from audit import audit_run
from gridswarm import SimParams, Simulation, parse_region, run, square_region
from gridswarm.agents import MODE_FAILED, MODE_SETTLED
from gridswarm.engine import TERM_LOW_ENERGY, TERM_STEP_CAP

WALLED = """\
.........
.WW...W..
.W....W..
...E.....
..WWW..W.
.........
"""

REGIONS = {
    "square:9": lambda: square_region(9),
    "square:11": lambda: square_region(11),
    "square:13": lambda: square_region(13),
    "square:15": lambda: square_region(15),
    "walled": lambda: parse_region(WALLED),
}

# name -> (region, params, terminated, settled failures > 0, sha256)
GOLDEN = {
    "sllg-a1-random": (
        "square:9", dict(algorithm="sllg-ea", approach=1, e0=10, dt=2, seed=1),
        TERM_LOW_ENERGY, False,
        "9fc5f188488c9128df1c6b24dfd999fdbbc98a707dc0f4c48b3fcf7a10eefe84",
    ),
    "sllg-a2-random": (
        "square:9", dict(algorithm="sllg-ea", approach=2, e0=10, dt=2, seed=1),
        TERM_LOW_ENERGY, False,
        "2c14e19fd474932689be0c1ad6a818d13da6d6170ad306ea3bfe3a62307da9fc",
    ),
    "slug-a1-random": (
        "square:9", dict(algorithm="slug-ea", approach=1, e0=10, dt=2, seed=1),
        TERM_LOW_ENERGY, False,
        "9fc5f188488c9128df1c6b24dfd999fdbbc98a707dc0f4c48b3fcf7a10eefe84",
    ),
    "slug-a2-random": (
        "square:9", dict(algorithm="slug-ea", approach=2, e0=10, dt=2, seed=1),
        TERM_LOW_ENERGY, False,
        "2c14e19fd474932689be0c1ad6a818d13da6d6170ad306ea3bfe3a62307da9fc",
    ),
    "sltt-a1-random": (
        "square:9", dict(algorithm="sltt-ea", approach=1, e0=10, dt=2, seed=1),
        TERM_LOW_ENERGY, False,
        "39852d86f901183a5d9019a206ffe39a3ad644d0042525e6297fd9c428db39cf",
    ),
    "sltt-a2-random": (
        "square:9", dict(algorithm="sltt-ea", approach=2, e0=10, dt=2, seed=1),
        TERM_LOW_ENERGY, False,
        "cecd9e948f6c5d6e5373bcc3aae8bb5369c03f4be1a9f5a1bbe4c656ca34f872",
    ),
    "sllg-a1-adversarial-walled": (
        "walled",
        dict(algorithm="sllg-ea", approach=1, scheduler="adversarial", e0=12, dt=1, seed=0),
        TERM_LOW_ENERGY, False,
        "3ee5de3f4950fb61e0ee46725c86fac3d87d7eff6a3d1e33babf59883d87ceca",
    ),
    "sllg-a2-random-alpha-walled": (
        "walled",
        dict(algorithm="sllg-ea", approach=2, e0=14, dt=4, alpha=0.05,
             ecrit_settled=2, seed=6),
        TERM_LOW_ENERGY, False,
        "5e09aa4a522a6177622fc29c3bbe91e442379cdeb8c9b9e3b56f2efa48f62556",
    ),
    "slug-a2-random-alpha-fail": (
        "square:15",
        dict(algorithm="slug-ea", approach=2, e0=15, dt=1, alpha=0.05, seed=3),
        TERM_LOW_ENERGY, True,
        "acfc9954d5200b927d91fb82f45f314e2829f67fd1eb661f780ceb55ededb2ee",
    ),
    "sltt-a2-adversarial-alpha-fail": (
        "square:15",
        dict(algorithm="sltt-ea", approach=2, scheduler="adversarial", e0=15, dt=1,
             alpha=0.05, seed=3),
        TERM_LOW_ENERGY, True,
        "bad9ec911c5d94e54a28180f4b3592787b7e49a0319df6574499ea9689a4ce9c",
    ),
    "sllg-a2-adversarial-alpha-fail": (
        "square:15",
        dict(algorithm="sllg-ea", approach=2, scheduler="adversarial", e0=15, dt=4,
             alpha=0.02, seed=3),
        TERM_LOW_ENERGY, True,
        "6a3914ca2fac772bdbcd65e33d61df6c28d94a29a98d8d8dccdfad2ee7326b03",
    ),
    "sltt-a1-adversarial-alpha": (
        "square:11",
        dict(algorithm="sltt-ea", approach=1, scheduler="adversarial", e0=12, dt=2,
             alpha=0.1, seed=5),
        TERM_LOW_ENERGY, False,
        "b676651ce5807678d05a75a195d171c62b4209b6957b52c2e54d9e3f5500213c",
    ),
    "sltt-a2-random-step-cap": (
        "square:13",
        dict(algorithm="sltt-ea", approach=2, e0=30, dt=1, seed=7, max_steps=60),
        TERM_STEP_CAP, False,
        "7e29726dc9746664c3d291e25b30443252c90411ebb1a559ad05e8fe4acebda7",
    ),
}


def trace(name):
    region, params, *_ = GOLDEN[name]
    res = run(REGIONS[region](), SimParams(**params), log_events=True)
    text = "\n".join(e.format() for e in res.events)
    return res, hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_event_log_digest(name):
    _, _, terminated, fails, digest = GOLDEN[name]
    res, got = trace(name)
    assert res.metrics.terminated == terminated
    assert (res.metrics.nda_failed > 0) == fails
    assert got == digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_event_log_audit(name):
    region, params, *_ = GOLDEN[name]
    assert audit_run(REGIONS[region](), SimParams(**params)) == []


@pytest.mark.parametrize(
    "name", sorted(name for name, (_, p, *_) in GOLDEN.items() if p.get("alpha", 0) > 0)
)
def test_audit_catches_one_settled_tick_too_many(name, monkeypatch):
    """The audit's ledger check has teeth: an engine that charges each
    settled agent one settled step too many, in the energies its run ends
    with, fails it on every ``alpha > 0`` config."""
    region, params, *_ = GOLDEN[name]
    params = SimParams(**params)
    simulate = Simulation.run

    def run_one_tick_too_many(self):
        res = simulate(self)
        for a in res.sim.agents:
            if a.mode in (MODE_SETTLED, MODE_FAILED):
                a.energy -= params.alpha
        return res

    monkeypatch.setattr(Simulation, "run", run_one_tick_too_many)
    violations = audit_run(REGIONS[region](), params)
    assert any("ledger" in v for v in violations)


HORIZON_CONFIGS = [
    "sllg-a1-random",
    "sllg-a2-random",
    "slug-a1-random",
    "slug-a2-random",
    "sllg-a1-adversarial-walled",
]


@pytest.mark.parametrize("name", HORIZON_CONFIGS)
def test_audit_catches_a_horizon_one_too_far(name, monkeypatch):
    """The audit's horizon check has teeth: an engine whose counter rules
    let agents settle one counter past ``d_max`` fails it on these
    configs.  The audit takes ``d_max`` from ``bounds``, not from the
    patched ``SimParams``."""
    d_max = SimParams.d_max.fget
    monkeypatch.setattr(SimParams, "d_max", property(lambda self: d_max(self) + 1))
    region, params, *_ = GOLDEN[name]
    violations = audit_run(REGIONS[region](), SimParams(**params))
    assert any("horizon" in v for v in violations)


def test_configs_cover_every_algorithm_approach_and_scheduler():
    seen = {
        (p["algorithm"], p["approach"], p.get("scheduler", "random"))
        for _, p, *_ in GOLDEN.values()
    }
    assert {(a, ap) for a, ap, _ in seen} == {
        (a, ap) for a in ("sllg-ea", "slug-ea", "sltt-ea") for ap in (1, 2)
    }
    assert {s for *_, s in seen} == {"random", "adversarial"}


if __name__ == "__main__":
    for name in sorted(GOLDEN):
        print(f"{name}: {trace(name)[1]}")

"""Whole-run behaviour of the step engine: determinism, conservation
laws, frozen anchor runs, and the invariant audit of recorded runs."""
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audit import audit_run
from gridswarm import (
    Region,
    RunResult,
    SimParams,
    Simulation,
    bounds,
    line_region,
    parse_region,
    run,
    square_region,
)
from gridswarm.agents import (
    MODE_FAILED,
    MODE_MOBILE,
    MODE_SETTLED,
    MODE_SHUTDOWN,
    S_BEACON,
    S_CLOSED_BEACON,
    S_LOW_ENERGY,
    S_MOBILE,
    AgentRecord,
)
from gridswarm._build import kernel
from gridswarm.engine import (
    TERM_CLOSED,
    TERM_LOW_ENERGY,
    TERM_STEP_CAP,
    InvariantError,
    default_step_cap,
)
from gridswarm.grid import EAST, NORTH
from gridswarm.rules import A_MOVE, A_SETTLE_AT, A_SETTLE_HERE, A_STAY, Action, _action
from reference import _ID_BITS, ReferenceSimulation, _pick
from test_golden import GOLDEN, REGIONS


def run_logged(region: Region, **kw) -> RunResult:
    return run(region, SimParams(**kw), log_events=True)


class TestFrozenAnchor:
    """A tiny corridor run pinned in full; guards refactors."""

    REGION = parse_region("E..\n")

    def result(self):
        return run_logged(
            self.REGION,
            dt=2,
            e0=50,
            algorithm="sllg-ea",
            approach=1,
            scheduler="adversarial",
            seed=0,
        )

    def test_summary_metrics(self):
        m = self.result().metrics
        assert m.terminated == TERM_CLOSED
        assert m.t_c == 9
        assert m.n_agents == 5
        assert m.e_total == 13
        assert m.a_c == 3

    def test_replay_is_bit_identical(self):
        a, b = self.result(), self.result()
        assert [e.format() for e in a.events] == [e.format() for e in b.events]
        assert a.metrics == b.metrics

    def test_every_cell_covered_on_closure(self):
        res = self.result()
        settled = [a for a in res.sim.agents if a.mode == MODE_SETTLED]
        assert sorted(a.pos for a in settled) == list(range(self.REGION.n))
        assert all(a.s1 == S_CLOSED_BEACON for a in settled)


ALGS = ("sllg-ea", "slug-ea", "sltt-ea")

# Recorded runs checked by the auditor: occupancy, absorbing ground
# states, closure, energy ledgers, the sltt-ea tree and replay.
AUDITED = {
    "square11-dt1-seed5": (11, dict(dt=1, e0=12, seed=5, approach=2)),
    "square9-sltt-seed7": (9, dict(dt=2, e0=10, algorithm="sltt-ea", approach=2, seed=7)),
    **{
        f"square9-alpha-{alg}-{ap}": (
            9, dict(dt=2, e0=9, alpha=0.125, algorithm=alg, approach=ap, seed=3)
        )
        for alg in ALGS
        for ap in (1, 2)
    },
}


@pytest.mark.parametrize("name", sorted(AUDITED))
def test_recorded_run_passes_audit(name):
    side, kw = AUDITED[name]
    assert audit_run(square_region(side), SimParams(**kw)) == []


class TestDeterminism:
    def test_different_seed_diverges(self):
        region = square_region(9)
        runs = {
            run(region, SimParams(dt=2, e0=10, seed=s)).metrics.t_c for s in range(8)
        }
        assert len(runs) > 1


@pytest.mark.parametrize(
    "algorithm,approach", [(alg, ap) for alg in ALGS for ap in (1, 2)]
)
class TestConservation:
    """Energy-ledger identities that hold for every agent of any run; the
    full per-agent ledger is checked by the audit of the runs in ``AUDITED``."""

    def result(self, algorithm, approach):
        return run_logged(
            square_region(9),
            dt=2,
            e0=9,
            alpha=0.125,
            algorithm=algorithm,
            approach=approach,
            seed=3,
        )

    def test_survivors_account_for_every_step(self, algorithm, approach):
        # Entry steps are not stored on the record, so read them off the log.
        res = self.result(algorithm, approach)
        t_c = res.metrics.t_c
        entered = {e.agent: e.t for e in res.events if e.action == "enter"}
        for a in res.sim.agents:
            if a.mode == MODE_SETTLED:
                t_s = t_c - a.settle_step
                assert a.t_m + t_s == t_c - entered[a.id] + 1

    def test_totals_aggregate_per_agent_costs(self, algorithm, approach):
        res = self.result(algorithm, approach)
        spent = [res.sim.p.e0 - a.energy for a in res.sim.agents]
        assert res.metrics.e_total == pytest.approx(sum(spent))
        assert res.metrics.max_ei == pytest.approx(max(spent))


class TestStructuralInvariants:
    def result(self):
        return run_logged(square_region(11), dt=1, e0=12, seed=5, approach=2)

    def test_settled_agents_never_move(self):
        res = self.result()
        settle_step = {}
        for e in res.events:
            if e.action == "settle":
                settle_step[e.agent] = e.t
            if e.action == "move":
                assert e.agent not in settle_step

    def test_ground_state_never_reopens(self):
        res = self.result()
        rank = {S_BEACON: 0, S_CLOSED_BEACON: 1, S_LOW_ENERGY: 1}
        last = {}
        for e in res.events:
            if e.s1 in rank and e.agent in last:
                assert rank[e.s1] >= last[e.agent]
            if e.s1 in rank:
                last[e.agent] = rank[e.s1]

    def test_final_occupancy_is_consistent(self):
        res = self.result()
        sim = res.sim
        for cell, g in enumerate(sim.ground):
            if g is not None:
                assert sim.agents[g.id - 1] is g
                assert g.pos == cell and g.mode == MODE_SETTLED
        for a in sim.agents:
            if a.mode == MODE_SETTLED:
                assert sim.ground[a.pos] is a

    def test_one_settled_agent_per_cell(self):
        res = self.result()
        positions = [a.pos for a in res.sim.agents if a.mode == MODE_SETTLED]
        assert len(positions) == len(set(positions))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_awake_holds_every_mobile_and_no_idle_agent(name):
    """At every step boundary ``awake`` holds every mobile, and each agent
    in it is a mobile or a settled agent that is not low-energy."""
    region, params, *_ = GOLDEN[name]
    sim = Simulation(REGIONS[region](), SimParams(**params))
    cap = sim.p.max_steps or default_step_cap(sim.region, sim.p)
    while sim.terminated is None and sim.t < cap:
        sim.step()
        mobiles = {a.id for a in sim.agents if a.mode == MODE_MOBILE}
        reporting = {a.id for a in sim.agents
                     if a.mode == MODE_SETTLED and a.s1 != S_LOW_ENERGY}
        awake = {a.id for a in sim.awake}
        assert mobiles <= awake, f"step {sim.t - 1}: {sorted(mobiles - awake)}"
        assert awake <= mobiles | reporting, (
            f"step {sim.t - 1}: {sorted(awake - mobiles - reporting)}")


class TestEntryCadence:
    def entries(self, dt, steps):
        res = run_logged(line_region(steps * 2), dt=dt, e0=500, max_steps=steps)
        return [
            (e.t, e.agent) for e in res.events if e.action == "enter"
        ]

    def test_every_step_at_unit_period_until_congested(self):
        # At unit period an agent enters each step while the entry
        # airspace is clear; congestion may skip later steps.
        ts = [t for t, _ in self.entries(dt=1, steps=10)]
        assert ts[:4] == [0, 1, 2, 3]
        assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_alternate_steps_at_period_two(self):
        ts = [t for t, _ in self.entries(dt=2, steps=10)]
        assert ts == [0, 2, 4, 6, 8]

    def test_entrant_is_dormant_until_next_step(self):
        # No entrant may move or settle in the step it entered.
        res = run_logged(line_region(20), dt=1, e0=500, max_steps=12)
        entered = {e.agent: e.t for e in res.events if e.action == "enter"}
        for e in res.events:
            if e.action in ("move", "settle"):
                assert e.t > entered[e.agent]

    def test_entry_fee_is_one_unit(self):
        res = run_logged(line_region(20), dt=2, e0=500, max_steps=1)
        (a,) = res.sim.agents
        assert a.t_m == 1 and a.energy == pytest.approx(499.0)


class TestTermination:
    def test_step_cap_reported(self):
        m = run(line_region(50), SimParams(dt=2, e0=500, max_steps=5)).metrics
        assert m.terminated == TERM_STEP_CAP
        assert m.t_c == 4  # steps 0..4 ran before the cap

    def test_low_energy_on_starved_region(self):
        # Agents cannot reach the far end of a long corridor, so the
        # entry beacon eventually reports exhaustion.
        m = run(line_region(60), SimParams(dt=2, e0=8, max_steps=5000)).metrics
        assert m.terminated == TERM_LOW_ENERGY
        assert m.a_c < 60

    def test_closed_on_coverable_region(self):
        m = run(line_region(6), SimParams(dt=2, e0=30, max_steps=5000)).metrics
        assert m.terminated == TERM_CLOSED
        assert m.a_c == 6

    def test_series_lengths_track_steps(self):
        m = run(line_region(8), SimParams(dt=2, e0=40)).metrics
        assert len(m.ac_series) == m.t_c + 1
        assert m.ac_series[-1] == m.a_c


class TestAirframeParking:
    def test_shutdown_agents_leave_both_layers(self):
        res = run_logged(square_region(13), dt=1, e0=10, seed=0, approach=2)
        sim = res.sim
        down = [a for a in sim.agents if a.mode in (MODE_SHUTDOWN, MODE_FAILED)]
        assert down, "expected at least one exhausted agent in this scenario"
        air = {m.pos: m for m in sim.agents if m.mode == MODE_MOBILE}
        for a in down:
            assert sim.air[a.pos] is air.get(a.pos)
            assert sim.ground[a.pos] is not a

    def test_mobile_agents_occupy_air(self):
        res = run_logged(line_region(40), dt=1, e0=500, max_steps=6)
        sim = res.sim
        mobiles = [a for a in sim.agents if a.mode == MODE_MOBILE]
        assert mobiles
        for a in mobiles:
            assert sim.air[a.pos] is a
        # Every occupied air cell holds one of them.
        assert sum(1 for v in sim.air if v is not None) == len(mobiles)


class TestSchedulers:
    WAKE_ACTIONS = {"move", "settle", "shutdown", "transition"}

    @pytest.mark.parametrize(
        "algorithm,approach,e0,alpha",
        [("sllg-ea", 1, 12, 0.0), ("slug-ea", 2, 10, 0.07), ("sltt-ea", 2, 9, 0.1)],
    )
    def test_adversarial_wakes_ascend_by_distance_then_id(
        self, algorithm, approach, e0, alpha
    ):
        region = square_region(11)
        res = run_logged(
            region,
            dt=1,
            e0=e0,
            alpha=alpha,
            algorithm=algorithm,
            approach=approach,
            scheduler="adversarial",
            seed=3,
        )
        wakes = defaultdict(list)
        for e in res.events:
            if e.action in self.WAKE_ACTIONS:
                wakes[e.t].append(e)
        assert sum(map(len, wakes.values())) > 100
        for t, evs in wakes.items():
            keys = [(region.distances[e.src], e.agent) for e in evs]
            assert keys == sorted(keys), f"step {t} woke out of order"
            assert len({e.agent for e in evs}) == len(evs), f"step {t} woke an agent twice"

    @pytest.mark.parametrize("scheduler", ["random", "adversarial"])
    @pytest.mark.parametrize("algorithm", ["sllg-ea", "slug-ea", "sltt-ea"])
    def test_failure_lands_on_first_step_at_zero(self, algorithm, scheduler):
        # Settled energy is charged lazily; a failure must still land on
        # the first step the per-step ledger reaches zero.
        alpha = 0.07
        res = run_logged(
            square_region(15),
            dt=1,
            e0=10,
            alpha=alpha,
            algorithm=algorithm,
            approach=2,
            scheduler=scheduler,
            seed=0,
        )
        fails = [e for e in res.events if e.action == "fail"]
        assert fails
        for e in fails:
            assert e.energy <= 0 < e.energy + alpha


class TestStepCapStall:
    """The conveyor stall behind acceptance criterion 8, on a region small
    enough to run in a unit test: a chain of open beacons from the entry
    outward never closes, so mobiles keep entering, walking out and
    shutting down."""

    def metrics(self, seed):
        p = SimParams(
            dt=1, e0=9, algorithm="sltt-ea", approach=2, scheduler="adversarial", seed=seed
        )
        return run(square_region(11), p).metrics

    def test_stalls_until_step_cap(self):
        m = self.metrics(0)
        assert m.terminated == TERM_STEP_CAP
        assert m.t_c == 18149
        assert m.nda_shutdown >= 9000
        assert m.a_c == 96 < 121

    def test_other_seed_terminates(self):
        m = self.metrics(1)
        assert m.terminated == TERM_LOW_ENERGY
        assert m.t_c == 121


class TestSettlingHorizon:
    """The smallest square where the settling horizon binds: at ``e0=4``,
    ``d_max`` is 2, so a counter rule settles only within hop distance 1
    and covers at most [13] = 5 cells under approach 2; approach 1 stays
    within [11] (T_C) and [12] (N).  Without the horizon, ``sllg-ea``
    covered 6-9 cells under approach 1 and all 13 within distance 2
    under approach 2, and ``slug-ea`` covered 6 under approach 2 where a
    mobile won the race onto a horizon beacon."""

    REGION = square_region(5)

    def runs(self, algorithm, approach, scheduler):
        for dt in (1, 2):
            for seed in range(10):
                p = SimParams(e0=4, dt=dt, algorithm=algorithm, approach=approach,
                              scheduler=scheduler, seed=seed)
                yield dt, seed, run(self.REGION, p).metrics

    @pytest.mark.parametrize("scheduler", ["random", "adversarial"])
    @pytest.mark.parametrize("algorithm", ["sllg-ea", "slug-ea"])
    def test_approach_2_within_covered_cells_bound(self, algorithm, scheduler):
        ub = bounds.approach2_bounds(4, 1).a_covered_ub
        assert ub == 5
        over = [(dt, seed, m.a_c) for dt, seed, m in self.runs(algorithm, 2, scheduler)
                if m.a_c > ub]
        assert over == []

    @pytest.mark.parametrize("scheduler", ["random", "adversarial"])
    @pytest.mark.parametrize("algorithm", ["sllg-ea", "slug-ea"])
    def test_approach_1_within_time_and_agent_bounds(self, algorithm, scheduler):
        over = []
        for dt, seed, m in self.runs(algorithm, 1, scheduler):
            b = bounds.approach1_bounds(4, 1, dt)
            if m.a_c > b.n_ub or m.t_c > b.t_c_ub:
                over.append((dt, seed, m.a_c, m.t_c))
        assert over == []


class TestRandomSource:
    """The engine's uniform stream, the kernel's PCG64, is NumPy's
    ``default_rng(seed).random()`` stream, and the integers the reference
    takes from it (wake keys and tie-breaks) are those of
    ``low + int(u * (high - low))``; ``test_kernel.py`` holds the
    kernel's to the reference's, draw for draw."""

    N = 3 * 4096 + 5

    @staticmethod
    def kernel_draws(seed, n):
        draw = kernel.uniform_stream(seed)
        return [draw() for _ in range(n)]

    # Seeds of one to five 32-bit words; 2**128 + 3 and 10**40 take
    # SeedSequence's second mixing loop.
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**32, 2**64 + 5, 2**128 + 3, 10**40])
    def test_draws_equal_generator_stream(self, seed):
        assert self.kernel_draws(seed, self.N) == np.random.default_rng(seed).random(self.N).tolist()

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**200), n=st.integers(1, 40))
    def test_draws_equal_generator_stream_on_any_seed(self, seed, n):
        assert self.kernel_draws(seed, n) == np.random.default_rng(seed).random(n).tolist()

    def test_simulation_draws_the_seeds_stream(self):
        sim = Simulation(square_region(5), SimParams(seed=2**70 + 1))
        assert [sim.draw() for _ in range(50)] == self.kernel_draws(2**70 + 1, 50)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, "3"])
    def test_stream_refuses_what_is_not_an_int_at_least_0(self, seed):
        with pytest.raises((TypeError, ValueError)):
            kernel.uniform_stream(seed)

    @staticmethod
    def old_integers(u, low, high):
        return low + int(u * (high - low))

    def draws(self):
        us = np.random.default_rng(7).random(self.N).tolist()
        # The extremes of [0, 1) as well.
        return us + [0.0, 0.5, 1.0 - 2.0**-53]

    @pytest.mark.parametrize("m", [1, 2, 7, 1000, 2**20 + 3])
    def test_wake_keys_match_integer_draws(self, m):
        sim = ReferenceSimulation(square_region(5), SimParams(m=m))
        us = self.draws()
        sim.draw = iter(us).__next__
        ids = list(range(1, len(us) + 1))
        keys = sim._wake_keys(ids)
        assert keys == [self.old_integers(u, 0, m) << _ID_BITS | i for u, i in zip(us, ids)]
        assert all(key >> _ID_BITS < m for key in keys)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_pick_index_matches_integer_draw(self, k):
        items = list(range(10, 10 + k))
        us = self.draws()
        draw = iter(us).__next__
        for u in us:
            assert _pick(draw, items) == items[self.old_integers(u, 0, k)]


class TestInvariantChecks:
    """Each structural check of the engine fires, at the step it should,
    when a decide rule asks for the illegal outcome it guards against."""

    @pytest.mark.parametrize(
        "text,dt,mobile,settled,t,match",
        [
            # Under the adversarial order agent 1 enters at step 0, acts
            # at step 1 and, at step 2, agent 2 acts from the entry first.
            ("E...", 1, Action(A_MOVE, EAST), None, 2, "moved into an occupied"),
            ("E.", 1, Action(A_MOVE, NORTH), None, 1, "moved into an occupied or wall"),
            ("E.", 1, Action(A_SETTLE_HERE, s2=1), [S_BEACON], 2, "settled into an occupied"),
            ("E..", 1, Action(A_SETTLE_AT, EAST, 1), None, 2, "settled into an occupied"),
            ("E.", 1, Action(A_SETTLE_AT, NORTH, 1), None, 1, "settled into an occupied or wall"),
            # Agent 1 alone in a walled cell: its beacon may close, never reopen.
            ("E", 50, Action(A_SETTLE_HERE, s2=1), [S_CLOSED_BEACON, S_BEACON], 3,
             "reopened a closed beacon"),
            ("E.", 1, Action(A_SETTLE_HERE, s2=1), [S_CLOSED_BEACON], 2,
             "closed with an empty neighbor in sight"),
            # A direction outside 1-4 names no neighbor: 0 is not the west.
            (".E.", 1, Action(A_MOVE, 0, 1), None, 1, "chose direction 0, not one of 1-4"),
            (".E.", 1, Action(A_SETTLE_AT, 0, 1), None, 1, "chose direction 0, not one of 1-4"),
            (".E.", 1, Action(A_SETTLE_AT, 5, 1), None, 1, "chose direction 5, not one of 1-4"),
        ],
    )
    def test_illegal_outcome_raises(self, text, dt, mobile, settled, t, match):
        sim = Simulation(parse_region(text), SimParams(e0=50, dt=dt, scheduler="adversarial"))
        sim._mobile_decide = lambda a, xi, p, draw: mobile
        outcomes = iter(settled or ())
        sim._settled_decide = lambda a, xi, p, approach: next(outcomes)
        with pytest.raises(InvariantError, match=match):
            for _ in range(4):
                sim.step()
        assert sim.t == t


SETTLE, STAY = _action(A_SETTLE_HERE, 0, 0), _action(A_STAY, 0, 0)


def ledger_steps(e0, t_m, alpha, threshold, s):
    """First end-of-step index after settling at step ``s`` at which the
    ledger ``e0 - t_m - alpha * t_s`` reaches ``threshold``, by a linear
    scan; ``t_m`` counts the settling step's movement tick."""
    t_s = 1
    while e0 - t_m - alpha * t_s > threshold:
        t_s += 1
    return s + t_s


class TestSettledEnergySchedule:
    """The closed-form step of each settled-energy event equals the first
    step at which the per-step float ledger crosses its threshold.

    A mobile with ``t_m`` movement ticks is placed on the entry of a
    one-cell region and settles there at step ``s``; the run is stepped
    past its termination until the agent fails.  The log shows the step
    of the failure, and the reporting threshold one step after it is
    crossed, as the ``low_energy`` transition of the agent's next wake;
    when both fall due in one step, the agent fails before it wakes.  An
    agent that settles at or below the threshold reports low at its
    first settled wake."""

    @staticmethod
    def logged(e0, t_m, alpha, ecrit_settled, s):
        """The steps of the agent's ``low_energy`` transitions and of its failure."""
        params = SimParams(e0=e0, alpha=alpha, ecrit_settled=ecrit_settled,
                           algorithm="sltt-ea", dt=10**9)
        sim = Simulation(parse_region("E\n"), params, log_events=True)
        # Agent 1 settles at once; an entrant at step 0 only stays.
        sim._mobile_decide = lambda a, xi, p, draw: SETTLE if a.id == 1 else STAY
        a = AgentRecord(id=1, mode=MODE_MOBILE, s1=S_MOBILE, s2=0, pos=0,
                        energy=e0 - t_m, t_m=t_m)
        sim.agents.append(a)
        sim.air[0] = a
        sim.awake.add(a)
        sim.t = s
        # It fails within e0 / alpha settled steps.
        while a.mode != MODE_FAILED and sim.t <= s + e0 / alpha + 2:
            sim.step()
        low = [e.t for e in sim.events if e.agent == 1 and e.s1 == S_LOW_ENERGY
               and e.action == "transition"]
        (fail,) = [e.t for e in sim.events if e.agent == 1 and e.action == "fail"]
        return low, fail

    def check(self, e0, t_m, alpha, ecrit_settled, s):
        low, fail = self.logged(e0, t_m, alpha, ecrit_settled, s)
        assert fail == ledger_steps(e0, t_m + 1, alpha, 0.0, s)
        if e0 - (t_m + 1) > ecrit_settled:
            crossed = ledger_steps(e0, t_m + 1, alpha, ecrit_settled, s)
            assert low == ([crossed + 1] if crossed < fail else [])
        else:
            assert low == [s + 1]

    @given(
        e0=st.one_of(st.integers(3, 100).map(float), st.floats(3.0, 100.0)),
        t_m=st.integers(0, 40),
        alpha=st.one_of(st.integers(1, 400).map(lambda k: 1 / k), st.floats(0.003, 3.0)),
        ecrit_settled=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.floats(0.0, 20.0)),
        s=st.integers(0, 10_000),
    )
    def test_matches_linear_scan(self, e0, t_m, alpha, ecrit_settled, s):
        self.check(e0, t_m, alpha, ecrit_settled, s)

    @pytest.mark.parametrize(
        "e_settle,alpha,threshold",
        [
            (369.0, 1 / 347, 3.0),  # the ceiling overshoots by one step
            (460.0, 1 / 784, 0.5),  # the ceiling falls one step short
        ],
    )
    def test_rounding_fixups(self, e_settle, alpha, threshold):
        t_m = 30
        self.check(e_settle + t_m + 1, t_m, alpha, threshold, 7)

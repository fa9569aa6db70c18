"""Parameter validation and sensing."""
import math

import pytest

from gridswarm import engine
from gridswarm.agents import (
    MODE_MOBILE,
    MODE_NAMES,
    MODE_SETTLED,
    S_BEACON,
    S_LOW_ENERGY,
    S_MOBILE,
    SENSE_EMPTY,
    SENSE_WALL,
    AgentRecord,
    ParamError,
    SimParams,
    sense,
)
from gridswarm.engine import Simulation
from gridswarm.grid import parse_region, square_region


def make_agent(**kw) -> AgentRecord:
    base = dict(
        id=1, mode=MODE_MOBILE, s1=S_MOBILE, s2=0, pos=0, energy=9.0, t_m=1
    )
    base.update(kw)
    return AgentRecord(**base)


class TestSimParams:
    def test_defaults_validate(self):
        SimParams().validate()

    def test_d_max(self):
        assert SimParams(e0=15, ecrit_mobile=1).d_max == 13
        assert SimParams(e0=8, ecrit_mobile=1).d_max == 6

    @pytest.mark.parametrize(
        "kw",
        [
            dict(algorithm="nope"),
            dict(scheduler="nope"),
            dict(approach=3),
            dict(dt=0),
            dict(m=0),
            dict(alpha=-0.1),
            dict(ecrit_mobile=0),
            dict(ecrit_settled=-1),
            dict(e0=2, ecrit_mobile=1),
            dict(max_steps=0),
            dict(e0=math.nan),
            dict(e0=math.inf),
            dict(alpha=math.nan),
            dict(alpha=math.inf),
            dict(ecrit_mobile=math.nan),
            dict(ecrit_mobile=math.inf),
            dict(ecrit_settled=math.nan),
            dict(ecrit_settled=math.inf),
            dict(ecrit_settled=-math.inf),
            dict(e0=2.0**53),
            dict(alpha=1e-300),
            dict(alpha=5e-324),
            dict(seed=None),
            dict(seed=-1),
            dict(seed=1.5),
            dict(dt=1.5),
            dict(m=2.5),
            dict(max_steps=10.5),
            dict(e0="10"),
            dict(ecrit_mobile=None),
        ],
    )
    def test_invalid_parameters_rejected(self, kw):
        with pytest.raises(ParamError):
            SimParams(**kw).validate()

    def test_algorithm_case_normalized(self):
        p = SimParams(algorithm="SLLG-EA", scheduler="Random")
        p.validate()
        assert p.algorithm == "sllg-ea"


class TestSense:
    def build(self, text="E..\n...\n"):
        region = parse_region(text)
        sim = Simulation(region, SimParams(e0=50, seed=0))
        return region, sim

    def place_settled(self, sim, cell, s1=S_BEACON, s2=1):
        aid = len(sim.agents) + 1
        a = AgentRecord(
            id=aid, mode=MODE_SETTLED, s1=s1, s2=s2, pos=cell, energy=48.0
        )
        sim.agents.append(a)
        sim.ground[cell] = a
        return a

    def place_mobile(self, sim, cell, s2=0):
        aid = len(sim.agents) + 1
        a = AgentRecord(
            id=aid, mode=MODE_MOBILE, s1=S_MOBILE, s2=s2, pos=cell, energy=49.0
        )
        sim.agents.append(a)
        sim.air[cell] = a
        return a

    def test_mobile_senses_both_layers(self):
        region, sim = self.build()
        beacon = self.place_settled(sim, region.index(1, 0), s2=2)
        other = self.place_mobile(sim, region.index(0, 1), s2=5)
        me = self.place_mobile(sim, region.entry)
        xi = sense(sim._world, me)
        assert xi[0] == SENSE_EMPTY  # nothing settled underneath
        assert xi[1] == SENSE_WALL  # north border
        assert xi[2] == (beacon.s1, 2)  # ground east
        assert xi[3] == SENSE_EMPTY  # ground south is empty
        assert xi[5] == (me.s1, me.s2)  # own air slot
        assert xi[8] == (other.s1, 5)  # air south

    def test_settled_senses_ground_only(self):
        region, sim = self.build()
        me = self.place_settled(sim, region.entry, s2=1)
        self.place_mobile(sim, region.index(1, 0))  # airborne neighbor
        self.place_settled(sim, region.index(0, 1), s1=S_LOW_ENERGY, s2=2)
        xi = sense(sim._world, me)
        assert xi[0] == (me.s1, me.s2)
        assert xi[2] == SENSE_EMPTY  # the mobile neighbor is invisible
        assert xi[3] == (S_LOW_ENERGY, 2)
        assert all(slot == SENSE_EMPTY for slot in xi[5:])

    def test_walls_read_as_walls_in_both_layers(self):
        region, sim = self.build("EW\n..\n")
        me = self.place_mobile(sim, region.entry)
        xi = sense(sim._world, me)
        assert xi[2] == SENSE_WALL
        assert xi[7] == SENSE_WALL


def by_cell(world, mode) -> dict:
    """A layer rebuilt from the agent records: each agent in ``mode`` by
    its cell.  Two such agents in one cell fail the calling test."""
    layer = {}
    for a in world.agents:
        if a.mode == mode:
            assert a.pos not in layer, (world.t, a.id, layer[a.pos].id)
            layer[a.pos] = a
    return layer


def reference_sense(world, a: AgentRecord) -> tuple:
    """Sensing rebuilt from the agent records alone, branch by branch;
    the engine's ``sense`` must agree with it on every wake.  Neither
    occupant layer is read."""
    ground = by_cell(world, MODE_SETTLED)
    nbs = world.region.neighbors[a.pos]

    if a.mode == MODE_SETTLED:
        xi = [SENSE_EMPTY] * 10
        xi[0] = (a.s1, a.s2)
        for d in range(4):
            nb = nbs[d]
            if nb < 0:
                xi[1 + d] = SENSE_WALL
            elif nb in ground:
                g = ground[nb]
                xi[1 + d] = (g.s1, g.s2)
        return tuple(xi)

    if a.mode != MODE_MOBILE:
        raise ValueError(f"agent {a.id} cannot sense in mode {MODE_NAMES.get(a.mode, a.mode)}")

    air = by_cell(world, MODE_MOBILE)
    xi = [SENSE_EMPTY] * 10
    if a.pos in ground:
        g = ground[a.pos]
        xi[0] = (g.s1, g.s2)
    xi[5] = (a.s1, a.s2)
    for d in range(4):
        nb = nbs[d]
        if nb < 0:
            xi[1 + d] = SENSE_WALL
            xi[6 + d] = SENSE_WALL
            continue
        if nb in ground:
            g = ground[nb]
            xi[1 + d] = (g.s1, g.s2)
        if nb in air:
            m = air[nb]
            xi[6 + d] = (m.s1, m.s2)
    return tuple(xi)


class TestSenseMatchesReference:
    """The occupant layers stay in step with the agent records through
    every kind of change, including settled failures (which must clear
    the cell)."""

    @pytest.mark.parametrize(
        "side,kw",
        [
            (9, dict(algorithm="sllg-ea", approach=1, e0=10, dt=2, seed=1)),
            (9, dict(algorithm="sltt-ea", approach=1, scheduler="adversarial",
                     e0=10, dt=2, seed=1)),
            (15, dict(algorithm="sllg-ea", approach=2, e0=15, dt=1, alpha=0.05, seed=3)),
            (15, dict(algorithm="slug-ea", approach=2, scheduler="adversarial",
                      e0=15, dt=1, alpha=0.05, seed=3)),
            (15, dict(algorithm="sltt-ea", approach=2, e0=15, dt=1, alpha=0.05, seed=3)),
        ],
    )
    def test_every_wake_senses_like_the_reference(self, monkeypatch, side, kw):
        wakes = []
        view_sense = engine.sense

        def checked(world, a):
            xi = view_sense(world, a)
            assert xi == reference_sense(world, a), (world.t, a.id)
            wakes.append(a.mode)
            return xi

        monkeypatch.setattr(engine, "sense", checked)
        params = SimParams(**kw)
        res = engine.run(square_region(side), params)
        assert MODE_MOBILE in wakes and MODE_SETTLED in wakes
        assert (res.metrics.nda_failed > 0) == (params.alpha > 0)

        sim = res.sim
        ground, air = by_cell(sim, MODE_SETTLED), by_cell(sim, MODE_MOBILE)
        assert len(sim.ground) == len(sim.air) == sim.region.width * sim.region.height
        for cell in range(len(sim.ground)):
            assert sim.ground[cell] is ground.get(cell)
            assert sim.air[cell] is air.get(cell)

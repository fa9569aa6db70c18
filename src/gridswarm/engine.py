"""Discrete-time simulation engine.

One time step runs four phases, each a method of ``Simulation``:
(1) ``_wake``: every active agent wakes exactly once at its scheduled
sub-step and senses the world as left by earlier wake-ups of the same
step; an agent that was mobile when its wake began is charged its
movement tick at the end of that wake, whatever it did (move, stay,
settle or shut down), after its event is logged; (2) ``_attempt_entry``:
every ``dt`` steps, after the wake-ups, a new agent enters if the
entry's air is free; (3) ``_charge``: the settled-energy events due by
this step are applied; (4) ``_close``: the step's series are recorded
and termination is read off the entry cell.

For speed on large regions the engine elides wake-ups that are
provably no-ops: a settled agent's decision depends only on its own
record and the ground state of its four neighbors, so it is only
processed while "stale" - newly settled, a neighbor's projected state
changed, or its energy crossed a reporting threshold.  Skipped agents
behave identically to processed ones because their decision would
return their current sub-state unchanged.  Settled energy is likewise
closed-form in the number of settled steps, so per-step ticking is
replaced by scheduled threshold events; the ledger identity
``energy = e0 - t_m - alpha * t_s`` is preserved exactly.

Each layer is a per-cell sensed view, ``gview`` and ``aview``: a cell
holds ``SENSE_EMPTY`` (falsy) or its occupant's ``(s1, s2)``, and an
extra last slot holds ``SENSE_WALL`` so that the neighbor index ``-1``
reads as a wall.  They are updated wherever the world changes, so
``sense`` is a gather of ten slots.  Only the ground also keeps agent
ids (``ground``), to look settled neighbors up by cell.

Invariant: the wake heap holds only mobiles and settled agents that are
not low-energy, and energy events concern only settled agents, each
with at most one event per kind, kind 0 popping before kind 1.

The wake order of a step is a heap of ints ``(sub << 32) | id`` from
``_wake_keys``: ``sub`` is a uniform sub-step in ``[0, m)`` under the
random scheduler, and the agent's hop distance from the entry under the
adversarial one (settled agents do not move, so lazily inserted agents
compare the same way as the rest).  Events are handed, one at a
time, to a sink: a list for ``log_events=True``, or any callable given
as ``on_event`` (the CLI streams them to the log file).

All randomness comes from one stream of uniform floats in [0, 1), drawn
from the seeded numpy generator in blocks of 4096; a random sub-step is
``int(u * m)`` and a rule's tie-break among ``k`` options is
``int(u * k)``.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np

from .agents import (
    MODE_FAILED,
    MODE_MOBILE,
    MODE_SETTLED,
    MODE_SHUTDOWN,
    S1_NAMES,
    S_BEACON,
    S_CLOSED_BEACON,
    S_LOW_ENERGY,
    S_MOBILE,
    SENSE_EMPTY,
    SENSE_WALL,
    AgentRecord,
    SimParams,
    sense,
)
from .grid import Region
from .rules import (
    A_MOVE,
    A_SETTLE_AT,
    A_SHUTDOWN,
    A_STAY,
    REGISTRY,
)

TERM_CLOSED = "closed"
TERM_LOW_ENERGY = "low_energy"
TERM_STEP_CAP = "step_cap"

# Wake keys pack the sub-step above the agent id.
_ID_BITS = 32
_ID_MASK = (1 << _ID_BITS) - 1

# ``f"{energy:g}"`` by energy, shared by all runs: it memoizes a pure
# function, so sharing changes no output.  A run logs few distinct
# energies when ``alpha`` is 0 (integers up to ``e0``) and many otherwise,
# so the cache is emptied whenever it fills.  Zero is never cached: 0.0
# and -0.0 are equal keys that format differently.
_ENERGY_TEXT: dict[float, str] = {}
_ENERGY_TEXT_MAX = 256


class InvariantError(AssertionError):
    """A run violated a structural invariant; always a bug."""


class Event(NamedTuple):
    """One line of the event log."""

    t: int
    agent: int
    action: str
    src: int  # linear cell index, -1 if not applicable
    dst: int
    s1: int
    s2: int
    energy: float

    def format(self) -> str:
        t, agent, action, src, dst, s1, s2, energy = self
        e = _ENERGY_TEXT.get(energy)
        if e is None:
            e = f"{energy:g}"
            if energy:
                if len(_ENERGY_TEXT) >= _ENERGY_TEXT_MAX:
                    _ENERGY_TEXT.clear()
                _ENERGY_TEXT[energy] = e
        return (
            f"{t},{agent},{action},{'-' if src < 0 else src},"
            f"{'-' if dst < 0 else dst},{S1_NAMES[s1]},{s2},{e}"
        )


# Builds an ``Event`` from one tuple without the Python-level
# ``NamedTuple.__new__``: ``_new_event(Event, (t, agent, ...))``.
_new_event = tuple.__new__


@dataclass
class RunMetrics:
    terminated: str
    t_c: int
    n_agents: int
    e_total: float
    max_ei: float
    a_c: int
    nda_shutdown: int
    nda_failed: int
    n_series: list[int] = field(repr=False, default_factory=list)
    ac_series: list[int] = field(repr=False, default_factory=list)


@dataclass
class RunResult:
    metrics: RunMetrics
    events: list[Event] | None
    sim: "Simulation"


def default_step_cap(region: Region, p: SimParams) -> int:
    return 50 * region.n * (p.dt + 2)


# Uniform floats drawn from the generator per fetch.
_BLOCK = 4096


def _uniform_stream(rng: np.random.Generator) -> Callable[[], float]:
    """A draw callable returning the generator's floats in [0, 1) in
    order; they are fetched in blocks of ``_BLOCK`` and served by a
    C-level iterator, so a draw runs no Python frame."""
    blocks = iter(lambda: rng.random(_BLOCK).tolist(), None)
    return chain.from_iterable(blocks).__next__


class Simulation:
    """Mutable world state for one run.

    Events go to ``on_event`` as they happen; ``log_events=True``
    collects them in ``events`` instead.
    """

    def __init__(
        self,
        region: Region,
        params: SimParams,
        log_events: bool = False,
        on_event: Callable[[Event], object] | None = None,
    ):
        params.validate()
        if log_events and on_event is not None:
            raise ValueError("pass either log_events or on_event, not both")
        self.region = region
        self.p = params
        self.draw = _uniform_stream(np.random.default_rng(params.seed))
        ncells = region.width * region.height
        self.ground = [0] * ncells  # settled agent id per cell, 0 = empty
        # Sensed views of the two layers, with a trailing wall slot.
        self.gview: list = [SENSE_EMPTY] * ncells + [SENSE_WALL]
        self.aview: list = [SENSE_EMPTY] * ncells + [SENSE_WALL]
        self.agents: list[AgentRecord] = []
        self.mobile_ids: list[int] = []
        self.settled_count = 0
        self.nda_shutdown = 0
        self.nda_failed = 0
        self.stale: set[int] = set()
        self.events: list[Event] | None = [] if log_events else None
        self._emit = self.events.append if log_events else on_event
        self.n_series: list[int] = []
        self.ac_series: list[int] = []
        # Scheduled settled-energy events: (step, kind, agent_id) with
        # kind 0 = crosses the reporting threshold, 1 = fails.
        self._energy_events: list[tuple[int, int, int]] = []
        self._mobile_decide, self._settled_decide = REGISTRY[params.algorithm]
        self._adversarial = params.scheduler == "adversarial"
        self.t = 0
        self.terminated: str | None = None

    # -- helpers -----------------------------------------------------------

    def _log(self, t, agent, action, src, dst):
        if self._emit is not None:
            self._emit(
                _new_event(
                    Event,
                    (t, agent.id, action, src, dst, agent.s1, agent.s2, agent.energy),
                )
            )

    def _touch_settled_energy(self, a: AgentRecord, t: int) -> None:
        """Materialize a settled agent's lazily tracked energy as of the
        ticks applied through the end of step ``t - 1``."""
        if a.mode == MODE_SETTLED:
            a.t_s = max(0, t - 1 - a.settle_step)
            a.energy = a.e0 - a.t_m - self.p.alpha * a.t_s

    def _schedule_energy_events(self, a: AgentRecord) -> None:
        p = self.p
        if p.alpha <= 0:
            return
        # Energy entering settled life: the settling step itself is
        # still charged as a movement tick at the end of the wake.
        e_settle = a.e0 - (a.t_m + 1)
        s = a.settle_step

        def first_step(threshold: float) -> int:
            # Smallest end-of-step index t with e_settle - alpha*(t - s) <= threshold.
            k = math.ceil((e_settle - threshold) / p.alpha - 1e-12)
            while e_settle - p.alpha * (k - 1) <= threshold:
                k -= 1
            while e_settle - p.alpha * k > threshold:
                k += 1
            return s + max(k, 1)

        if e_settle > p.ecrit_settled:
            heapq.heappush(self._energy_events, (first_step(p.ecrit_settled), 0, a.id))
        heapq.heappush(self._energy_events, (first_step(0.0), 1, a.id))

    def _mark_ground_change(self, cell: int, cur_key, heap, scheduled):
        """A cell's projected ground state changed: settled neighbors
        (and the cell's own occupant) must be re-processed.  If their
        wake this step is still ahead, they wake into the change now;
        otherwise they stay flagged for the next step."""
        ground = self.ground
        for c in (cell, *self.region.neighbors[cell]):
            if c < 0:
                continue
            gid = ground[c]
            if not gid:
                continue
            if self.agents[gid - 1].s1 == S_LOW_ENERGY:
                continue
            self.stale.add(gid)
            if heap is None or gid in scheduled:
                continue
            (key,) = self._wake_keys((gid,))
            if key > cur_key:
                scheduled.add(gid)
                heapq.heappush(heap, key)

    def _wake_keys(self, ids) -> list[int]:
        """Packed heap keys of the agents ``ids`` in this step's wake
        order, in the order given; a random sub-step costs one draw."""
        if self._adversarial:
            agents = self.agents
            distances = self.region.distances
            return [distances[agents[aid - 1].pos] << _ID_BITS | aid for aid in ids]
        draw = self.draw
        m = self.p.m
        return [int(draw() * m) << _ID_BITS | aid for aid in ids]

    # -- one step ----------------------------------------------------------

    def step(self) -> None:
        t = self.t
        self._wake(t)
        self._attempt_entry(t)
        self._charge(t)
        self._close(t)

    def _wake(self, t: int) -> None:
        """Wake every mobile agent and every stale settled agent once, in
        heap order; each senses the world as earlier wakes left it.  A
        mobile pays this step's movement tick at the end of its wake."""
        p = self.p
        agents = self.agents
        stale = self.stale

        # Candidates: all mobiles plus stale settled agents.  They may be
        # ``mobile_ids`` itself, which is fully read before any wake
        # changes it.
        if stale:
            candidates = sorted(self.mobile_ids + list(stale))
        else:
            candidates = self.mobile_ids

        # Every agent enters the heap at most once per step, so
        # ``scheduled`` also tells which agents were already woken.
        heap = self._wake_keys(candidates)
        heapq.heapify(heap)
        scheduled = set(candidates)

        draw = self.draw
        mobile_decide = self._mobile_decide
        settled_decide = self._settled_decide
        heappop = heapq.heappop
        neighbors = self.region.neighbors
        aview = self.aview
        emit = self._emit
        while heap:
            key = heappop(heap)
            aid = key & _ID_MASK
            a = agents[aid - 1]
            if a.mode == MODE_MOBILE:
                act = mobile_decide(a, sense(self, a), p, draw)
                kind = act.kind
                if kind == A_MOVE:  # the common case, inlined
                    src = a.pos
                    dst = neighbors[src][act.direction - 1]
                    if dst < 0 or aview[dst]:
                        raise InvariantError(
                            f"agent {aid} moved into an occupied or wall cell"
                        )
                    aview[src] = SENSE_EMPTY
                    a.pos = dst
                    a.s2 = s2 = act.s2
                    aview[dst] = (a.s1, s2)
                    if emit is not None:
                        emit(
                            _new_event(
                                Event, (t, aid, "move", src, dst, a.s1, s2, a.energy)
                            )
                        )
                elif kind != A_STAY:
                    self._apply_mobile(a, act, t, key, heap, scheduled)
                a.t_m = t_m = a.t_m + 1
                a.energy = a.e0 - t_m  # a mobile's t_s is 0
            else:  # a settled agent that is not low-energy
                self._touch_settled_energy(a, t)
                xi = sense(self, a)
                new_s1 = settled_decide(a, xi, p, p.approach)
                stale.discard(aid)
                if new_s1 != a.s1:
                    if a.s1 == S_CLOSED_BEACON and new_s1 == S_BEACON:
                        raise InvariantError(f"agent {aid} reopened a closed beacon")
                    if new_s1 == S_CLOSED_BEACON and SENSE_EMPTY in xi[1:5]:
                        raise InvariantError(
                            f"agent {aid} closed with an empty neighbor in sight"
                        )
                    a.s1 = new_s1
                    self.gview[a.pos] = (new_s1, a.s2)
                    self._log(t, a, "transition", a.pos, a.pos)
                    self._mark_ground_change(a.pos, key, heap, scheduled)

    def _attempt_entry(self, t: int) -> None:
        """Every ``dt`` steps, once this step's wake-ups have resolved, a
        new agent enters if the entry's air is free; it stays dormant (no
        sensing, no energy tick) until the next step."""
        if t % self.p.dt:
            return
        entry = self.region.entry
        if self.aview[entry]:
            return
        gid = self.ground[entry]
        s2 = self.agents[gid - 1].s2 if gid else 0
        aid = len(self.agents) + 1
        # Entering consumes one unit of movement energy.
        a = AgentRecord(
            id=aid,
            mode=MODE_MOBILE,
            s1=S_MOBILE,
            s2=s2,
            pos=entry,
            e0=self.p.e0,
            energy=self.p.e0 - 1,
            t_m=1,
            entered_at=t,
        )
        self.agents.append(a)
        self.aview[entry] = (S_MOBILE, s2)
        self.mobile_ids.append(aid)
        self._log(t, a, "enter", -1, entry)

    def _charge(self, t: int) -> None:
        """Apply the settled-energy events due by ``t``: threshold
        crossings and failures.  Mobiles were charged in their wakes."""
        agents = self.agents
        stale = self.stale
        while self._energy_events and self._energy_events[0][0] <= t:
            _, kind, aid = heapq.heappop(self._energy_events)
            a = agents[aid - 1]
            self._touch_settled_energy(a, t + 1)
            if kind == 1:
                a.mode = MODE_FAILED
                self.ground[a.pos] = 0
                self.gview[a.pos] = SENSE_EMPTY
                self.settled_count -= 1
                self.nda_failed += 1
                stale.discard(aid)
                self._log(t, a, "fail", a.pos, a.pos)
                self._mark_ground_change(a.pos, None, None, None)
            elif a.s1 != S_LOW_ENERGY:  # kind 0: the reporting threshold
                stale.add(aid)

    def _close(self, t: int) -> None:
        """Record the step's series, read termination off the entry cell
        and advance the clock."""
        self.n_series.append(len(self.agents))
        self.ac_series.append(self.settled_count)
        gid = self.ground[self.region.entry]
        if gid:
            s1 = self.agents[gid - 1].s1
            if s1 == S_LOW_ENERGY:
                self.terminated = TERM_LOW_ENERGY
            elif s1 == S_CLOSED_BEACON:
                self.terminated = TERM_CLOSED
        self.t = t + 1

    def _apply_mobile(self, a, act, t, key, heap, scheduled):
        """Shut down or settle; moves are applied inline in ``_wake``."""
        kind = act.kind
        src = a.pos
        if kind == A_SHUTDOWN:
            self.aview[src] = SENSE_EMPTY
            a.mode = MODE_SHUTDOWN
            self.mobile_ids.remove(a.id)
            self.nda_shutdown += 1
            self._log(t, a, "shutdown", src, -1)
            return
        # Settle, either in place or into an adjacent empty cell.
        dst = self.region.neighbors[src][act.direction - 1] if kind == A_SETTLE_AT else src
        if dst < 0 or self.ground[dst]:
            raise InvariantError(f"agent {a.id} settled into an occupied or wall cell")
        self.aview[src] = SENSE_EMPTY
        self.ground[dst] = a.id
        a.pos = dst
        a.mode = MODE_SETTLED
        a.s1 = S_BEACON
        a.s2 = act.s2
        self.gview[dst] = (a.s1, a.s2)
        a.settle_step = t
        self.mobile_ids.remove(a.id)
        self.settled_count += 1
        self._schedule_energy_events(a)
        self._log(t, a, "settle", src, dst)
        self._mark_ground_change(dst, key, heap, scheduled)

    # -- whole runs --------------------------------------------------------

    def run(self) -> RunResult:
        cap = self.p.max_steps or default_step_cap(self.region, self.p)
        while self.terminated is None:
            self.step()
            if self.terminated is None and self.t >= cap:
                self.terminated = TERM_STEP_CAP
        t_end = self.t - 1
        for a in self.agents:
            self._touch_settled_energy(a, t_end + 1)
        e_total = sum(a.e0 - a.energy for a in self.agents)
        max_ei = max((a.e0 - a.energy for a in self.agents), default=0.0)
        metrics = RunMetrics(
            terminated=self.terminated,
            t_c=t_end,
            n_agents=len(self.agents),
            e_total=e_total,
            max_ei=max_ei,
            a_c=self.settled_count,
            nda_shutdown=self.nda_shutdown,
            nda_failed=self.nda_failed,
            n_series=self.n_series,
            ac_series=self.ac_series,
        )
        return RunResult(metrics=metrics, events=self.events, sim=self)


def run(
    region: Region,
    params: SimParams,
    log_events: bool = False,
    on_event: Callable[[Event], object] | None = None,
) -> RunResult:
    """Simulate one run to termination (or the step cap).

    ``log_events=True`` returns the event log in ``result.events``;
    ``on_event`` instead receives each event as it happens.
    """
    return Simulation(region, params, log_events=log_events, on_event=on_event).run()

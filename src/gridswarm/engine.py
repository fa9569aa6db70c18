"""Discrete-time simulation engine.

One time step runs four phases, each a method of ``Simulation``:
(1) ``_wake``: every active agent wakes exactly once at its scheduled
sub-step and senses the world as left by earlier wake-ups of the same
step; an agent that was mobile when its wake began is charged its
movement tick at the end of that wake, whatever it did (move, stay,
settle or shut down), after its event is logged; (2) ``_attempt_entry``:
every ``dt`` steps, after the wake-ups, a new agent enters if the
entry's air is free; (3) ``_charge``: the settled-energy events due by
this step are applied; (4) ``_close``: the step's series are recorded,
the step's events are handed on and termination is read off the entry
cell.

The body of ``_wake``, sensing, the decide rules, the marking of
settled neighbors and the event-line formatter are compiled
(``_kernel.c``, built on first import by ``_build.py``).  The kernel
accepts the types defined here and in ``agents`` and ``rules`` and no
others: an ``AgentRecord`` (any other object raises ``TypeError``), the
layers as lists, ``Event``s with int fields, a str action and an int or
float energy.  It reads the energy parameters as doubles, and every
energy the engine stores is a float, whatever the type of ``e0`` and
``alpha``.  ``_wake`` hands it the module's ``sense`` and the run's
decide callables: a wake runs compiled when both are the kernel's own,
and otherwise calls both through Python, each once.

Who wakes is one set of agent ids, ``awake``.  An agent joins it when
it enters, when a ground change in its neighborhood marks it, and when
its energy crosses the reporting threshold; it leaves when it shuts
down, fails, or ends a settled wake (a transition's marks put it back
unless it reported low).  So ``awake`` holds every mobile, and no
settled agent in it is low-energy.  A settled agent outside it is not
woken: its decision reads only its own record and the ground of its
four neighbors, unchanged since its last wake, so it would keep its
sub-state.  Settled energy is likewise closed-form in the number of
settled steps, so per-step ticking is replaced by scheduled threshold
events; the ledger identity ``energy = e0 - t_m - alpha * t_s`` is
preserved exactly.  ``t_m`` is the agent's stored count of movement
ticks; ``t_s``, its count of settled steps, is not stored but computed
from ``settle_step`` and the last step charged.

The two layers are per-cell occupant lists, ``ground`` and ``air``: a
cell holds its occupant's ``AgentRecord`` or ``None``.  An agent's
``(s1, s2)`` is stored once, in its record, and ``sense`` reads it off
the occupants of the agent's cell and its four neighbors; the neighbor
index ``-1`` reads as a wall.  The layers change at entry, move, settle,
shutdown and failure; a sub-state transition changes only the record.
Energy events concern only settled agents, each with at most one event
per kind, kind 0 popping before kind 1.

The wake order of a step belongs to the kernel: the agents of
``awake``, keyed in id order (a random key is one draw) and sorted, as
an array of keys ``(sub << 32) | id`` read by a cursor, with a byte per
agent id telling which agents have a key this step.  ``sub`` is a
uniform sub-step in ``[0, m)`` under the random scheduler, and the
agent's hop distance from the entry under the adversarial one (settled
agents do not move, so lazily inserted agents compare the same way as
the rest).  A settled agent whose ground neighborhood changes during
the step, and whose key lies after the cursor, is inserted in order;
the kernel marks a transition's cell, and a settler's once
``_apply_mobile`` has settled it.  Keys are unique, so this is the
order a heap would pop.

Events are collected per step: in ``events`` for ``log_events=True``,
or in a batch handed to ``on_events`` when the step closes (the CLI
formats each batch in one call and writes it to the log file).  The
kernel builds every ``Event``, those logged here through
``kernel.log_event`` too, and leaves it untracked by the cyclic
collector.

All randomness comes from one stream of uniform floats in [0, 1),
``kernel.uniform_stream(seed)``: PCG64 seeded as NumPy's
``SeedSequence`` seeds it, so its floats are those of NumPy's
``default_rng(seed).random()``, in order.  A random sub-step is
``int(u * m)`` and a rule's tie-break among ``k`` options is
``int(u * k)``.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .agents import (
    MODE_FAILED,
    MODE_MOBILE,
    MODE_SETTLED,
    MODE_SHUTDOWN,
    S_BEACON,
    S_CLOSED_BEACON,
    S_LOW_ENERGY,
    S_MOBILE,
    AgentRecord,
    SimParams,
    sense,
)
from ._build import kernel
from .grid import Region
from .rules import A_SETTLE_AT, A_SHUTDOWN, REGISTRY, _action

TERM_CLOSED = "closed"
TERM_LOW_ENERGY = "low_energy"
TERM_STEP_CAP = "step_cap"

# The event-log lines of a batch of events, each ending in a newline.
format_events = kernel.format_events


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
        """The line ``t,agent,action,from,to,s1,s2,E``: a cell of ``-1``
        prints as ``-``, ``s1`` by name and ``E`` as ``f"{energy:g}"``.
        The kernel's formatter, the one ``format_events`` uses."""
        return kernel.format_event(self)


kernel.bind(AgentRecord, Event, InvariantError, _action)


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
    # Settled agents at the close of each step.
    ac_series: list[int] = field(repr=False, default_factory=list)


@dataclass
class RunResult:
    metrics: RunMetrics
    events: list[Event] | None
    sim: "Simulation"


def default_step_cap(region: Region, p: SimParams) -> int:
    return 50 * region.n * (p.dt + 2)


class Simulation:
    """Mutable world state for one run.

    ``log_events=True`` collects the events in ``events``; ``on_events``
    instead receives each step's events as one list when the step closes.
    """

    def __init__(
        self,
        region: Region,
        params: SimParams,
        log_events: bool = False,
        on_events: Callable[[list[Event]], object] | None = None,
    ):
        params.validate()
        if log_events and on_events is not None:
            raise ValueError("pass either log_events or on_events, not both")
        self.region = region
        self.p = params
        self.draw = kernel.uniform_stream(params.seed)
        ncells = region.width * region.height
        # The occupant of each cell, per layer; None when it is empty.
        self.ground: list[AgentRecord | None] = [None] * ncells
        self.air: list[AgentRecord | None] = [None] * ncells
        self.agents: list[AgentRecord] = []
        # The ids of the agents that wake next step.
        self.awake: set[int] = set()
        self.settled_count = 0
        self.events: list[Event] | None = [] if log_events else None
        self._on_events = on_events
        # Where events go as they happen; None logs nothing.
        self._batch: list[Event] | None = (
            self.events if log_events else [] if on_events is not None else None
        )
        self.ac_series: list[int] = []
        # Scheduled settled-energy events: (step, kind, agent_id) with
        # kind 0 = crosses the reporting threshold, 1 = fails.
        self._energy_events: list[tuple[int, int, int]] = []
        self._mobile_decide, self._settled_decide = REGISTRY[params.algorithm]
        self._adversarial = params.scheduler == "adversarial"
        self.t = 0
        self.terminated: str | None = None

    # -- helpers -----------------------------------------------------------

    def _touch_settled_energy(self, a: AgentRecord, t: int) -> None:
        """Materialize a settled agent's lazily tracked energy as of the
        ticks applied through the end of step ``t - 1``; the kernel's
        settled wakes apply the same ledger."""
        if a.mode == MODE_SETTLED:
            a.energy = kernel.settled_energy(
                self.p.e0, a.t_m, self.p.alpha, t - 1 - a.settle_step
            )

    def _schedule_energy_events(self, a: AgentRecord) -> None:
        p = self.p
        if p.alpha <= 0:
            return
        # Energy entering settled life: the settling step itself is
        # still charged as a movement tick at the end of the wake.
        e_settle = p.e0 - (a.t_m + 1)
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

    def _mark_ground_change(self, cell: int) -> None:
        """Between steps, a cell's projected ground state changed: its
        settled occupant and settled neighbors that are not low-energy
        join ``awake``.  During a step the kernel marks changes itself,
        against its own wake order."""
        kernel.mark_ground_change(self, cell)

    # -- one step ----------------------------------------------------------

    def step(self) -> None:
        t = self.t
        self._wake(t)
        self._attempt_entry(t)
        self._charge(t)
        self._close(t)

    def _wake(self, t: int) -> None:
        """Wake every agent in ``awake`` once, in key order; each senses
        the world as earlier wakes left it.  A mobile pays this step's
        movement tick at the end of its wake.

        ``sense`` is read here on every call, and the decide rules are
        the ones the run was set up with: each is called once per wake.
        A mobile that settles or shuts down goes to ``_apply_mobile``;
        the kernel then marks a settler's cell."""
        kernel.wake(
            self, t, sense, self._mobile_decide, self._settled_decide, self._apply_mobile
        )

    def _attempt_entry(self, t: int) -> None:
        """Every ``dt`` steps, once this step's wake-ups have resolved, a
        new agent enters if the entry's air is free; it stays dormant (no
        sensing, no energy tick) until the next step."""
        if t % self.p.dt:
            return
        entry = self.region.entry
        if self.air[entry] is not None:
            return
        g = self.ground[entry]
        s2 = 0 if g is None else g.s2
        aid = len(self.agents) + 1
        # Entering consumes one unit of movement energy; energies are floats.
        a = AgentRecord(
            id=aid,
            mode=MODE_MOBILE,
            s1=S_MOBILE,
            s2=s2,
            pos=entry,
            energy=float(self.p.e0) - 1,
            t_m=1,
        )
        self.agents.append(a)
        self.air[entry] = a
        self.awake.add(aid)
        kernel.log_event(self._batch, t, a, "enter", -1, entry)

    def _charge(self, t: int) -> None:
        """Apply the settled-energy events due by ``t``: threshold
        crossings and failures.  Mobiles were charged in their wakes."""
        agents = self.agents
        awake = self.awake
        while self._energy_events and self._energy_events[0][0] <= t:
            _, kind, aid = heapq.heappop(self._energy_events)
            a = agents[aid - 1]
            self._touch_settled_energy(a, t + 1)
            if kind == 1:
                a.mode = MODE_FAILED
                self.ground[a.pos] = None
                self.settled_count -= 1
                awake.discard(aid)
                kernel.log_event(self._batch, t, a, "fail", a.pos, a.pos)
                self._mark_ground_change(a.pos)
            elif a.s1 != S_LOW_ENERGY:  # kind 0: the reporting threshold
                awake.add(aid)

    def _close(self, t: int) -> None:
        """Record the step's series, hand the step's events to
        ``on_events``, read termination off the entry cell and advance
        the clock."""
        self.ac_series.append(self.settled_count)
        if self._on_events is not None and self._batch:
            self._on_events(self._batch)
            self._batch = []
        g = self.ground[self.region.entry]
        if g is not None:
            if g.s1 == S_LOW_ENERGY:
                self.terminated = TERM_LOW_ENERGY
            elif g.s1 == S_CLOSED_BEACON:
                self.terminated = TERM_CLOSED
        self.t = t + 1

    def _apply_mobile(self, a, act, t):
        """Shut down or settle; moves are applied inline in ``_wake``.
        A settler stays in ``awake``: the caller marks its cell."""
        kind = act.kind
        src = a.pos
        if kind == A_SHUTDOWN:
            self.air[src] = None
            a.mode = MODE_SHUTDOWN
            self.awake.discard(a.id)
            kernel.log_event(self._batch, t, a, "shutdown", src, -1)
            return
        # Settle, either in place or into an adjacent empty cell.
        dst = self.region.neighbors[src][act.direction - 1] if kind == A_SETTLE_AT else src
        if dst < 0 or self.ground[dst] is not None:
            raise InvariantError(f"agent {a.id} settled into an occupied or wall cell")
        self.air[src] = None
        self.ground[dst] = a
        a.pos = dst
        a.mode = MODE_SETTLED
        a.s1 = S_BEACON
        a.s2 = act.s2
        a.settle_step = t
        self.settled_count += 1
        self._schedule_energy_events(a)
        kernel.log_event(self._batch, t, a, "settle", src, dst)

    # -- whole runs --------------------------------------------------------

    def run(self) -> RunResult:
        cap = self.p.max_steps or default_step_cap(self.region, self.p)
        while self.terminated is None:
            self.step()
            if self.terminated is None and self.t >= cap:
                self.terminated = TERM_STEP_CAP
        t_end = self.t - 1
        agents = self.agents
        for a in agents:
            self._touch_settled_energy(a, t_end + 1)
        spent = [self.p.e0 - a.energy for a in agents]
        metrics = RunMetrics(
            terminated=self.terminated,
            t_c=t_end,
            n_agents=len(agents),
            e_total=sum(spent),
            max_ei=max(spent, default=0.0),
            a_c=self.settled_count,
            nda_shutdown=sum(a.mode == MODE_SHUTDOWN for a in agents),
            nda_failed=sum(a.mode == MODE_FAILED for a in agents),
            ac_series=self.ac_series,
        )
        return RunResult(metrics=metrics, events=self.events, sim=self)


def run(
    region: Region,
    params: SimParams,
    log_events: bool = False,
    on_events: Callable[[list[Event]], object] | None = None,
) -> RunResult:
    """Simulate one run to termination (or the step cap).

    ``log_events=True`` returns the event log in ``result.events``;
    ``on_events`` instead receives each step's events as one list when
    the step closes (a new list each time).
    """
    return Simulation(region, params, log_events=log_events, on_events=on_events).run()

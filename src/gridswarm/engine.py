"""Discrete-time simulation engine.

One time step runs four phases, all in one compiled call,
``kernel.step`` (``_kernel.c``, built on first import by ``_build.py``):
(1) the wakes: every agent of ``awake`` wakes exactly once at its
scheduled sub-step and senses the world as left by earlier wake-ups of
the same step; an agent that was mobile when its wake began is charged
its movement tick at the end of that wake, whatever it did (move, stay,
settle or shut down), after its event is logged; (2) the entry: every
``dt`` steps, after the wake-ups, a new agent enters if the entry's air
is free; (3) the energy events: the settled-energy events due by this
step are applied; (4) the close: the step's ``ac_series`` entry is
recorded, the step's events are handed on and termination is read off
the entry cell.  ``Simulation.step`` makes that call and advances the
clock; it is the seam a tracer wraps, once per step.

A ``Simulation`` is the kernel's ``world`` of its run, which owns the
run's state; the header of ``_kernel.c`` describes how it holds it.
Python sees that state through views built on access: ``agents`` is a
tuple of the records in id order, and ``ground`` and ``air``, the
occupant layers, are tuples of each cell's occupant record or ``None``.
An agent's ``(s1, s2)`` is stored once, in its record, and sensing reads
it off the occupants of the agent's cell and its four neighbors.  A
record is added by hand only through ``sim.place(a)``, which checks it
first: the next id, a cell inside the region and not a wall, and a free
cell on the layer of its mode.  ``draw``, the module's ``sense`` and the
run's decide callables are passed on every step: a wake runs compiled
when ``sense`` and its mode's rule are both the kernel's own, and
otherwise calls both through Python, each once, with the simulation as
``sense``'s first argument.  A record holds C values only, its energy a
double whatever the type of ``e0`` and ``alpha``.

Who wakes is one bitmap over agent ids, ``awake``, kept in the world:
it reads as a ``frozenset`` of the records, and assigning an iterable of
records replaces it, each record the run's mobile or settled agent of
its id (not during a step).  An agent joins it when it enters,
when a ground change in its neighborhood marks it, and when its energy
crosses the reporting threshold; it leaves when it shuts down, fails, or
ends a settled wake (a transition's marks put it back unless it reported
low).  So ``awake`` holds every mobile, and no settled agent in it is
low-energy.  A settled agent outside it is not woken: its decision reads
only its own record and the ground of its four neighbors, unchanged
since its last wake, so it would keep its sub-state.  Settled energy is
likewise closed-form in the number of settled steps, so per-step ticking
is replaced by scheduled threshold events (kind 0 crosses the reporting
threshold, kind 1 fails; at most one of each per agent, kind 0 popping
first); the ledger identity ``energy = e0 - t_m - alpha * t_s`` is
preserved exactly.  ``t_m`` is the agent's stored count of movement
ticks; ``t_s``, its count of settled steps, is not stored but computed
from ``settle_step`` and the last step charged.  The run's end sets
every settled energy.

The wake order of a step: the agents of ``awake`` by their keys
``(sub, id)``, keyed in ascending id order (a random key is one draw).
``sub`` is a uniform sub-step in ``[0, m)`` under the random scheduler,
and the agent's hop distance from the entry under the adversarial one.
A settled agent whose ground neighborhood changes during the step, and
whose key lies after the waking agent's, wakes into the change.

Events are logged in one of two ways.  ``log_events=True`` collects
them as ``Event`` tuples in ``events``, which the kernel leaves
untracked by the cyclic collector.  ``on_events`` instead receives each
step's lines as one ``bytes`` when the step closes: the kernel writes
each line straight from the agent's record, building no ``Event``, and
the CLI writes the bytes to the log file as they come.  ``Event.format``
prints through the same line writer, so the two logs agree byte for
byte.

All randomness comes from one stream of uniform floats in [0, 1),
``kernel.uniform_stream(seed)``: PCG64 seeded as NumPy's
``SeedSequence`` seeds it, so its floats are those of NumPy's
``default_rng(seed).random()``, in order.  A random sub-step is
``int(u * m)`` and a rule's tie-break among ``k`` options is
``int(u * k)``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .agents import MODE_FAILED, MODE_SHUTDOWN, SimParams, sense
from ._build import kernel
from .grid import Region
from .rules import REGISTRY, _action

TERM_CLOSED = "closed"
TERM_LOW_ENERGY = "low_energy"
TERM_STEP_CAP = "step_cap"


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
        The kernel's line writer, the one the streamed log uses."""
        return kernel.format_event(self)


kernel.bind(Event, InvariantError, _action)


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


class Simulation(kernel.world):
    """One run: the kernel's ``world`` of the run, which checks ``params``
    and the log sinks, with the clock and the seams each step hands it.

    ``log_events=True`` collects the events in ``events``; ``on_events``
    instead receives each step's event-log lines, each ending in a newline,
    as one ``bytes`` when the step closes.
    """

    # Slots, not a ``__dict__``: each step reads them, and a slot reads
    # faster.  ``__weakref__`` keeps a run weakly referable.
    __slots__ = ("draw", "_mobile_decide", "_settled_decide", "t", "terminated", "__weakref__")

    def __init__(
        self,
        region: Region,
        params: SimParams,
        log_events: bool = False,
        on_events: Callable[[bytes], object] | None = None,
    ):
        self.draw = kernel.uniform_stream(params.seed)
        self._mobile_decide, self._settled_decide = REGISTRY[params.algorithm]
        self.t = 0
        self.terminated: str | None = None

    # -- one step ----------------------------------------------------------

    def step(self) -> None:
        """Run step ``t`` in one kernel call: the wakes, the entry attempt,
        the settled-energy events due by ``t`` and the close; then advance
        the clock.  ``draw``, the module's ``sense`` and the run's decide
        callables are read here on every call, so each can be replaced
        between steps.  ``terminated`` is set only when the entry cell ends
        the run, so a step past the end keeps it."""
        t = self.t
        terminated = kernel.step(
            self, t, self.draw, sense, self._mobile_decide, self._settled_decide
        )
        if terminated is not None:
            self.terminated = terminated
        self.t = t + 1

    # -- whole runs --------------------------------------------------------

    def run(self) -> RunResult:
        cap = self.p.max_steps or default_step_cap(self.region, self.p)
        while self.terminated is None:
            self.step()
            if self.terminated is None and self.t >= cap:
                self.terminated = TERM_STEP_CAP
        t_end = self.t - 1
        agents = self.agents
        self.finish(t_end)
        spent = [self.p.e0 - a.energy for a in agents]
        metrics = RunMetrics(
            terminated=self.terminated,
            t_c=t_end,
            n_agents=len(agents),
            e_total=sum(spent),
            max_ei=max(spent, default=0.0),
            a_c=self.ac_series[-1],
            nda_shutdown=sum(a.mode == MODE_SHUTDOWN for a in agents),
            nda_failed=sum(a.mode == MODE_FAILED for a in agents),
            ac_series=self.ac_series,
        )
        return RunResult(metrics=metrics, events=self.events, sim=self)


def run(
    region: Region,
    params: SimParams,
    log_events: bool = False,
    on_events: Callable[[bytes], object] | None = None,
) -> RunResult:
    """Simulate one run to termination (or the step cap).

    ``log_events=True`` returns the event log in ``result.events``;
    ``on_events`` instead receives each step's event-log lines, each
    ending in a newline, as one ``bytes`` when the step closes; it is
    called once per step that logged anything, in step order.
    """
    return Simulation(region, params, log_events=log_events, on_events=on_events).run()

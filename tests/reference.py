"""The Python reference of the compiled kernel: ``sense``, the six decide
rules and the whole step as they were written in Python, used by
``test_kernel.py`` as an oracle for ``_kernel.c``.

``ReferenceSimulation`` steps a run in Python: the wake loop over a heap
of wake keys, with the Python ``sense`` and rules, its own
``_wake_keys`` and ``_mark_ground_change``, and its own entry, settling
and shutdown, settled-energy events (a ``heapq`` of ``(step, kind, id)``
with the closed-form schedule), close and end-of-run energies.  It
shares no phase with the engine.  The heap holds a key for each id in
``awake``, drawn in id order; a settled wake ends with the agent out of
``awake``, and a ground change puts the settled agents it marks back in.
The loop marks a settler's cell once ``_apply_mobile`` has settled it.
Its event log and metrics must equal the engine's.
"""
from __future__ import annotations

import heapq
import math
from typing import Callable

from gridswarm.agents import (
    MODE_FAILED,
    MODE_MOBILE,
    MODE_NAMES,
    MODE_SETTLED,
    MODE_SHUTDOWN,
    S_BEACON,
    S_CLOSED_BEACON,
    S_LOW_ENERGY,
    S_MOBILE,
    SENSE_EMPTY,
    SENSE_WALL,
    AgentRecord,
    SimParams,
)
from gridswarm._build import kernel
from gridswarm.engine import (
    TERM_CLOSED,
    TERM_LOW_ENERGY,
    TERM_STEP_CAP,
    Event,
    InvariantError,
    RunMetrics,
    RunResult,
    default_step_cap,
)
from gridswarm.grid import DIRECTIONS, EAST, NORTH, SOUTH, WEST, Region
from gridswarm.rules import (
    A_MOVE,
    A_SETTLE_AT,
    A_SETTLE_HERE,
    A_SHUTDOWN,
    A_STAY,
    Action,
    _action,
)

# Wake keys pack the sub-step above the agent id.
_ID_BITS = kernel.ID_BITS
_ID_MASK = (1 << _ID_BITS) - 1
_UNSENSED_AIR = (SENSE_EMPTY,) * 5  # air slots of a settled agent
# Builds an ``Event`` from one tuple: ``_new_event(Event, (t, agent, ...))``.
_new_event = tuple.__new__


def _slot(layer: list, cell: int):
    """What a layer shows at ``cell``: ``SENSE_WALL`` for the neighbor
    index ``-1``, ``SENSE_EMPTY`` or the occupant's ``(s1, s2)``."""
    if cell < 0:
        return SENSE_WALL
    o = layer[cell]
    return SENSE_EMPTY if o is None else (o.s1, o.s2)


def sense(world, a: AgentRecord) -> tuple:
    """Build the 10-slot sensed neighborhood of agent ``a``.

    Slots 0-4 are ground content of the own cell and its N, E, S, W
    neighbors; slots 5-9 are the corresponding air content.  Each slot
    holds ``SENSE_WALL`` (wall/outside), ``SENSE_EMPTY``, or the
    observed ``(s1, s2)`` of an agent.  Mobile agents sense both
    layers; settled agents sense only the ground layer (their air
    slots read empty).

    ``world`` must expose ``region`` and the occupant layers ``ground``
    and ``air``: each cell holds its occupant's ``AgentRecord`` or
    ``None``, and the neighbor index ``-1`` of a wall or the outside
    reads as a wall.
    """
    cells = (a.pos, *world.region.neighbors[a.pos])
    ground = tuple(_slot(world.ground, c) for c in cells)
    if a.mode == MODE_MOBILE:
        return ground + tuple(_slot(world.air, c) for c in cells)
    if a.mode == MODE_SETTLED:
        return ground + _UNSENSED_AIR
    raise ValueError(f"agent {a.id} cannot sense in mode {MODE_NAMES.get(a.mode, a.mode)}")


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

STAY = Action(A_STAY)
SHUTDOWN = Action(A_SHUTDOWN)

_SLLG_SETTLE_HERE = _SLUG_SETTLE_HERE = Action(A_SETTLE_HERE, s2=1)
_SLTT_SETTLE_HERE = Action(A_SETTLE_HERE, s2=0)
# Indexed by direction: sltt agents carry the code of their last move.
_SLTT_SETTLE_AT = (None,) + tuple(Action(A_SETTLE_AT, d, d) for d in DIRECTIONS)
_SLTT_MOVE = (None,) + tuple(Action(A_MOVE, d, d) for d in DIRECTIONS)
# What a tree child in direction N, E, S, W projects.
_CHILD_N, _CHILD_E, _CHILD_S, _CHILD_W = ((S_BEACON, d) for d in DIRECTIONS)


def _pick(draw: Callable[[], float], items: list):
    """Uniform choice of ``items[int(u * len(items))]`` for one draw ``u``;
    always consumes exactly one draw."""
    return items[int(draw() * len(items))]


def _empty_dirs(xi: tuple) -> list[int]:
    return [d for d in DIRECTIONS if xi[d] == SENSE_EMPTY]


# The rules below unpack the sensed neighborhood as
#
#     own, n, e, s, w, _, an, ae, as_, aw = xi
#
# (ground of the own cell and of the N, E, S, W neighbors, then the same
# for the air) and compare slots directly.  Once a rule has ruled out an
# empty ground neighbor, each ground slot is either ``SENSE_WALL`` or an
# ``(s1, s2)`` tuple.


# ---------------------------------------------------------------------------
# Mobile rules
# ---------------------------------------------------------------------------


def mobile_decide_sllg(
    a: AgentRecord, xi: tuple, p: SimParams, draw: Callable[[], float]
) -> Action:
    if a.energy <= p.ecrit_mobile:
        return SHUTDOWN
    own, n, e, s, w, _, an, ae, as_, aw = xi
    if own == SENSE_EMPTY:
        return _SLLG_SETTLE_HERE
    if SENSE_EMPTY in (n, e, s, w):
        if a.s2 >= p.d_max:  # the settling horizon
            return STAY
        return _action(A_SETTLE_AT, _pick(draw, _empty_dirs(xi)), a.s2 + 1)
    # Advance: beacons exactly one step up the gradient, air above free.
    dest = a.s2 + 1
    up = (S_BEACON, dest)
    if up in (n, e, s, w):
        possible = []
        if n == up and an == SENSE_EMPTY:
            possible.append(NORTH)
        if e == up and ae == SENSE_EMPTY:
            possible.append(EAST)
        if s == up and as_ == SENSE_EMPTY:
            possible.append(SOUTH)
        if w == up and aw == SENSE_EMPTY:
            possible.append(WEST)
        if possible:
            return _action(A_MOVE, _pick(draw, possible), dest)
        return STAY
    # Retrace: closed beacons strictly below the own counter; climb down
    # to the highest of them.
    own_s2 = a.s2
    best = None
    for d, g, v in ((NORTH, n, an), (EAST, e, ae), (SOUTH, s, as_), (WEST, w, aw)):
        if (
            v == SENSE_EMPTY
            and g != SENSE_WALL
            and g[0] == S_CLOSED_BEACON
            and g[1] < own_s2
        ):
            if best is None or g[1] > best:
                best, cands = g[1], [d]
            elif g[1] == best:
                cands.append(d)
    if best is None:
        return STAY
    return _action(A_MOVE, _pick(draw, cands), best)


def mobile_decide_slug(
    a: AgentRecord, xi: tuple, p: SimParams, draw: Callable[[], float]
) -> Action:
    if a.energy <= p.ecrit_mobile:
        return SHUTDOWN
    own, n, e, s, w, _, an, ae, as_, aw = xi
    if own == SENSE_EMPTY:
        return _SLUG_SETTLE_HERE
    # Re-synchronize the own counter from the agent settled beneath.
    s2 = own[1]
    if SENSE_EMPTY in (n, e, s, w):
        if s2 >= p.d_max:  # the settling horizon
            return STAY
        return _action(A_SETTLE_AT, _pick(draw, _empty_dirs(xi)), s2 + 1)
    # Advance: any beacon with free air; target the minimal counter
    # strictly above the own one.  Retrace: closed beacons with free air
    # (no open one is left, or the agent would have advanced or waited),
    # maximal counter strictly below the own one.
    beacon = False
    up = down = None
    for d, g, v in ((NORTH, n, an), (EAST, e, ae), (SOUTH, s, as_), (WEST, w, aw)):
        if v != SENSE_EMPTY or g == SENSE_WALL:
            continue
        s1, c = g
        if s1 == S_BEACON:
            beacon = True
            if c > s2:
                if up is None or c < up:
                    up, ups = c, [d]
                elif c == up:
                    ups.append(d)
        elif s1 == S_CLOSED_BEACON and c < s2:
            if down is None or c > down:
                down, downs = c, [d]
            elif c == down:
                downs.append(d)
    if beacon:
        if up is None:
            return STAY
        return _action(A_MOVE, _pick(draw, ups), up)
    if down is not None:
        return _action(A_MOVE, _pick(draw, downs), down)
    return STAY


def mobile_decide_sltt(
    a: AgentRecord, xi: tuple, p: SimParams, draw: Callable[[], float]
) -> Action:
    if a.energy <= p.ecrit_mobile:
        return SHUTDOWN
    own, n, e, s, w, _, an, ae, as_, aw = xi
    if own == SENSE_EMPTY:
        return _SLTT_SETTLE_HERE
    if SENSE_EMPTY in (n, e, s, w):
        return _SLTT_SETTLE_AT[_pick(draw, _empty_dirs(xi))]
    # Advance: beacons whose direction code points away from here,
    # i.e. a beacon in direction d projecting code d (a tree child).
    cn, ce, cs, cw = n == _CHILD_N, e == _CHILD_E, s == _CHILD_S, w == _CHILD_W
    if cn or ce or cs or cw:
        possible = []
        if cn and an == SENSE_EMPTY:
            possible.append(NORTH)
        if ce and ae == SENSE_EMPTY:
            possible.append(EAST)
        if cs and as_ == SENSE_EMPTY:
            possible.append(SOUTH)
        if cw and aw == SENSE_EMPTY:
            possible.append(WEST)
        if possible:
            return _SLTT_MOVE[_pick(draw, possible)]
        return STAY
    # Retrace: closed beacons whose code points back at this cell, i.e.
    # differs from d by 2.  The code 0 of an agent settled in place (the
    # entry's) thereby also reads as pointing back from the east.
    possible = [
        d
        for d, g, v in ((NORTH, n, an), (EAST, e, ae), (SOUTH, s, as_), (WEST, w, aw))
        if v == SENSE_EMPTY
        and g != SENSE_WALL
        and g[0] == S_CLOSED_BEACON
        and abs(g[1] - d) == 2
    ]
    if possible:
        return _SLTT_MOVE[_pick(draw, possible)]
    return STAY


# ---------------------------------------------------------------------------
# Settled rules
# ---------------------------------------------------------------------------


def _settled_decide(
    a: AgentRecord, xi: tuple, p: SimParams, approach: int, relevant: list[int]
) -> int:
    """Shared settled-state machine.

    ``relevant`` lists the sub-states ``s1`` of the neighbors the
    closure condition quantifies over: the up-gradient neighbors
    (counter algorithms) or the tree children (direction-code
    algorithm).  Returns the next projected sub-state.
    """
    # Own exhaustion is reported immediately under both approaches.
    if a.energy <= p.ecrit_settled:
        return S_LOW_ENERGY

    full = True  # no empty neighbor
    low = False  # a low-energy neighbor
    for g in xi[1:5]:
        if g == SENSE_EMPTY:
            full = False
        elif g != SENSE_WALL and g[0] == S_LOW_ENERGY:
            low = True
    n_closed = relevant.count(S_CLOSED_BEACON)
    closed = n_closed == len(relevant)

    if approach == 1:
        if low:
            return S_LOW_ENERGY
        if full and closed:
            return S_CLOSED_BEACON
        return a.s1

    # Approach 2: a neighbor's exhaustion propagates only once it cannot
    # cut off still-reachable empty cells, and it must arrive via an
    # actual low-energy neighbor so full coverage still closes through
    # the entry as a closed beacon.
    if full:
        if low and n_closed + relevant.count(S_LOW_ENERGY) == len(relevant):
            return S_LOW_ENERGY
        if closed:
            return S_CLOSED_BEACON
    return a.s1


def settled_decide_sllg(a: AgentRecord, xi: tuple, p: SimParams, approach: int) -> int:
    if a.s2 >= p.d_max:  # the settling horizon
        return S_LOW_ENERGY
    up = a.s2 + 1
    relevant = [g[0] for g in xi[1:5] if g.__class__ is tuple and g[1] == up]
    return _settled_decide(a, xi, p, approach, relevant)


def settled_decide_slug(a: AgentRecord, xi: tuple, p: SimParams, approach: int) -> int:
    if a.s2 >= p.d_max:  # the settling horizon
        return S_LOW_ENERGY
    own = a.s2
    relevant = [g[0] for g in xi[1:5] if g.__class__ is tuple and g[1] > own]
    return _settled_decide(a, xi, p, approach, relevant)


def settled_decide_sltt(a: AgentRecord, xi: tuple, p: SimParams, approach: int) -> int:
    relevant = [
        g[0] for d, g in zip(DIRECTIONS, xi[1:5]) if g.__class__ is tuple and g[1] == d
    ]
    return _settled_decide(a, xi, p, approach, relevant)


REGISTRY = {
    "sllg-ea": (mobile_decide_sllg, settled_decide_sllg),
    "slug-ea": (mobile_decide_slug, settled_decide_slug),
    "sltt-ea": (mobile_decide_sltt, settled_decide_sltt),
}


# ---------------------------------------------------------------------------
# The step
# ---------------------------------------------------------------------------


class ReferenceSimulation:
    """A run stepped by the Python reference: the heap-based wake loop, the
    entry, the settled-energy events and the close, with the Python
    ``sense`` and rules.  It has the attributes of a ``Simulation`` that
    the tests read, and shares no phase with the engine."""

    def __init__(self, region: Region, params: SimParams, log_events: bool = False):
        params.validate()
        self.region = region
        self.p = params
        self.draw = kernel.uniform_stream(params.seed)
        ncells = region.width * region.height
        self.ground: list[AgentRecord | None] = [None] * ncells
        self.air: list[AgentRecord | None] = [None] * ncells
        self.agents: list[AgentRecord] = []
        self.awake: set[int] = set()
        self.settled_count = 0
        self.events: list[Event] | None = [] if log_events else None
        self.ac_series: list[int] = []
        # Scheduled settled-energy events: (step, kind, agent_id) with
        # kind 0 = crosses the reporting threshold, 1 = fails.
        self._energy_events: list[tuple[int, int, int]] = []
        self._mobile_decide, self._settled_decide = REGISTRY[params.algorithm]
        self._adversarial = params.scheduler == "adversarial"
        self.t = 0
        self.terminated: str | None = None

    def _emit(self, t: int, a: AgentRecord, action: str, src: int, dst: int) -> None:
        if self.events is not None:
            self.events.append(
                _new_event(Event, (t, a.id, action, src, dst, a.s1, a.s2, a.energy))
            )

    # -- the settled ledger ----------------------------------------------------

    def _touch_settled_energy(self, a: AgentRecord, t: int) -> None:
        """Materialize a settled agent's lazily tracked energy as of the
        ticks applied through the end of step ``t - 1``."""
        if a.mode == MODE_SETTLED:
            t_s = t - 1 - a.settle_step
            a.energy = float(self.p.e0) - a.t_m - float(self.p.alpha) * t_s

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

    # -- one step --------------------------------------------------------------

    def step(self) -> None:
        t = self.t
        self._wake(t)
        self._attempt_entry(t)
        self._charge(t)
        self._close(t)

    def _mark_ground_change(self, cell: int, cur_key=None, heap=None, scheduled=None):
        """A cell's projected ground state changed: its settled occupant
        and settled neighbors that are not low-energy join ``awake``.  If
        their wake this step is still ahead in ``heap``, they wake into
        the change now; otherwise, or between steps, they wake next
        step."""
        ground = self.ground
        for c in (cell, *self.region.neighbors[cell]):
            if c < 0:
                continue
            g = ground[c]
            if g is None or g.s1 == S_LOW_ENERGY:
                continue
            gid = g.id
            self.awake.add(gid)
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

    def _wake(self, t: int) -> None:
        """Wake every agent in ``awake`` once, in heap order; each senses
        the world as earlier wakes left it.  A mobile pays this step's
        movement tick at the end of its wake."""
        p = self.p
        agents = self.agents
        awake = self.awake
        candidates = sorted(awake)

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
        air = self.air
        while heap:
            key = heappop(heap)
            aid = key & _ID_MASK
            a = agents[aid - 1]
            if a.mode == MODE_MOBILE:
                act = mobile_decide(a, sense(self, a), p, draw)
                kind = act.kind
                if kind == A_MOVE:
                    src = a.pos
                    dst = neighbors[src][act.direction - 1]
                    if dst < 0 or air[dst] is not None:
                        raise InvariantError(
                            f"agent {aid} moved into an occupied or wall cell"
                        )
                    air[src] = None
                    air[dst] = a
                    a.pos = dst
                    a.s2 = act.s2
                    self._emit(t, a, "move", src, dst)
                elif kind != A_STAY:
                    self._apply_mobile(a, act, t)
                    if kind != A_SHUTDOWN:  # a settler changed its cell's ground
                        self._mark_ground_change(a.pos, key, heap, scheduled)
                a.t_m = t_m = a.t_m + 1
                a.energy = float(p.e0) - t_m  # a mobile has no settled steps
            else:  # a settled agent that is not low-energy
                self._touch_settled_energy(a, t)
                xi = sense(self, a)
                new_s1 = settled_decide(a, xi, p, p.approach)
                awake.discard(aid)
                if new_s1 != a.s1:
                    if a.s1 == S_CLOSED_BEACON and new_s1 == S_BEACON:
                        raise InvariantError(f"agent {aid} reopened a closed beacon")
                    if new_s1 == S_CLOSED_BEACON and SENSE_EMPTY in xi[1:5]:
                        raise InvariantError(
                            f"agent {aid} closed with an empty neighbor in sight"
                        )
                    a.s1 = new_s1
                    self._emit(t, a, "transition", a.pos, a.pos)
                    self._mark_ground_change(a.pos, key, heap, scheduled)

    def _apply_mobile(self, a: AgentRecord, act: Action, t: int) -> None:
        """Shut down or settle; a settler stays in ``awake``."""
        src = a.pos
        if act.kind == A_SHUTDOWN:
            self.air[src] = None
            a.mode = MODE_SHUTDOWN
            self.awake.discard(a.id)
            self._emit(t, a, "shutdown", src, -1)
            return
        # Settle, either in place or into an adjacent empty cell.
        dst = self.region.neighbors[src][act.direction - 1] if act.kind == A_SETTLE_AT else src
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
        self._emit(t, a, "settle", src, dst)

    def _attempt_entry(self, t: int) -> None:
        """Every ``dt`` steps, once this step's wake-ups have resolved, a
        new agent enters if the entry's air is free; it stays dormant
        until the next step."""
        if t % self.p.dt:
            return
        entry = self.region.entry
        if self.air[entry] is not None:
            return
        g = self.ground[entry]
        a = AgentRecord(
            id=len(self.agents) + 1,
            mode=MODE_MOBILE,
            s1=S_MOBILE,
            s2=0 if g is None else g.s2,
            pos=entry,
            energy=float(self.p.e0) - 1,  # entering costs one unit
            t_m=1,
        )
        self.agents.append(a)
        self.air[entry] = a
        self.awake.add(a.id)
        self._emit(t, a, "enter", -1, entry)

    def _charge(self, t: int) -> None:
        """Apply the settled-energy events due by ``t``: threshold
        crossings and failures."""
        while self._energy_events and self._energy_events[0][0] <= t:
            _, kind, aid = heapq.heappop(self._energy_events)
            a = self.agents[aid - 1]
            self._touch_settled_energy(a, t + 1)
            if kind == 1:
                a.mode = MODE_FAILED
                self.ground[a.pos] = None
                self.settled_count -= 1
                self.awake.discard(aid)
                self._emit(t, a, "fail", a.pos, a.pos)
                self._mark_ground_change(a.pos)
            elif a.s1 != S_LOW_ENERGY:  # kind 0: the reporting threshold
                self.awake.add(aid)

    def _close(self, t: int) -> None:
        """Record the step's series, read termination off the entry cell
        and advance the clock."""
        self.ac_series.append(self.settled_count)
        g = self.ground[self.region.entry]
        if g is not None:
            if g.s1 == S_LOW_ENERGY:
                self.terminated = TERM_LOW_ENERGY
            elif g.s1 == S_CLOSED_BEACON:
                self.terminated = TERM_CLOSED
        self.t = t + 1

    # -- a whole run -----------------------------------------------------------

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


def reference_run(region: Region, params: SimParams) -> RunResult:
    """One run of the reference, with its event log."""
    return ReferenceSimulation(region, params, log_events=True).run()

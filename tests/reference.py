"""The Python reference of the compiled kernel: ``sense``, the six decide
rules and the wake loop as they were written in Python, used by
``test_kernel.py`` as an oracle for ``_kernel.c``.

``ReferenceSimulation`` is a ``Simulation`` whose ``_wake`` is the
Python loop over a heap of wake keys, with the Python ``sense`` and
rules, its own ``_wake_keys`` and its own ``_mark_ground_change``; entry,
``_apply_mobile``, energy and termination are the engine's own.  The
heap holds a key for each id in ``awake``, drawn in id order; a settled
wake ends with the agent out of ``awake``, and a ground change puts the
settled agents it marks back in.  As in the kernel, the loop marks a
settler's cell once ``_apply_mobile`` has settled it.  Its event log
must equal the engine's line for line.
"""
from __future__ import annotations

import heapq
from typing import Callable

from gridswarm.agents import (
    MODE_MOBILE,
    MODE_NAMES,
    MODE_SETTLED,
    S_BEACON,
    S_CLOSED_BEACON,
    S_LOW_ENERGY,
    SENSE_EMPTY,
    SENSE_WALL,
    AgentRecord,
    SimParams,
)
from gridswarm._build import kernel
from gridswarm.engine import Event, InvariantError, RunResult, Simulation
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
# The wake loop
# ---------------------------------------------------------------------------


class ReferenceSimulation(Simulation):
    """A ``Simulation`` whose wakes run the Python reference."""

    def __init__(self, region: Region, params: SimParams, log_events: bool = False):
        super().__init__(region, params, log_events=log_events)
        self._mobile_decide, self._settled_decide = REGISTRY[params.algorithm]

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
        emit = None if self._batch is None else self._batch.append
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
                    if dst < 0 or air[dst] is not None:
                        raise InvariantError(
                            f"agent {aid} moved into an occupied or wall cell"
                        )
                    air[src] = None
                    air[dst] = a
                    a.pos = dst
                    a.s2 = s2 = act.s2
                    if emit is not None:
                        emit(
                            _new_event(
                                Event, (t, aid, "move", src, dst, a.s1, s2, a.energy)
                            )
                        )
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
                    if emit is not None:
                        emit(
                            _new_event(
                                Event,
                                (t, aid, "transition", a.pos, a.pos, new_s1, a.s2, a.energy),
                            )
                        )
                    self._mark_ground_change(a.pos, key, heap, scheduled)



def reference_run(region: Region, params: SimParams) -> RunResult:
    """One run of the reference, with its event log."""
    return ReferenceSimulation(region, params, log_events=True).run()

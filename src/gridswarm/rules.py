"""Per-wake decision rules for the three coverage algorithms.

Every rule is a pure function of the agent's own state, its sensed
neighborhood, and the run parameters; random tie-breaking consumes
draws from the supplied source of uniform floats (see ``Uniform``).
Mobile rules return movement / settling / shutdown actions, settled
rules return the sub-state the agent projects next (beacon, closed
beacon, or low energy).

Algorithm summary:

* ``sllg-ea`` - agents climb a step-count gradient whose steepness is
  exactly one, settling one past the frontier.
* ``slug-ea`` - gradient of unbounded steepness; a mobile agent
  re-synchronizes its own counter from the beacon beneath it at every
  wake.
* ``sltt-ea`` - beacons project the direction code of the move that
  created them, so the settled agents form a spanning tree that
  mobile agents follow outward and retrace inward.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Protocol

from .agents import (
    S_BEACON,
    S_CLOSED_BEACON,
    S_LOW_ENERGY,
    SENSE_EMPTY,
    SENSE_WALL,
    AgentRecord,
    SimParams,
)
from .grid import DIRECTIONS, EAST, NORTH, SOUTH, WEST

# Action kinds for mobile agents.
A_STAY, A_MOVE, A_SETTLE_HERE, A_SETTLE_AT, A_SHUTDOWN = range(5)


@dataclass(frozen=True, slots=True)
class Action:
    """Outcome of one mobile wake-up."""

    kind: int
    direction: int = 0  # 1-4 for A_MOVE / A_SETTLE_AT
    s2: int = 0  # payload the agent carries or projects after acting


STAY = Action(A_STAY)
SHUTDOWN = Action(A_SHUTDOWN)


@cache
def _action(kind: int, direction: int, s2: int) -> Action:
    """The shared, immutable ``Action`` for these fields.  The cache stays
    small: counters never exceed the distance an agent can fly."""
    return Action(kind, direction, s2)


_SLLG_SETTLE_HERE = _SLUG_SETTLE_HERE = Action(A_SETTLE_HERE, s2=1)
_SLTT_SETTLE_HERE = Action(A_SETTLE_HERE, s2=0)
# Indexed by direction: sltt agents carry the code of their last move.
_SLTT_SETTLE_AT = (None,) + tuple(Action(A_SETTLE_AT, d, d) for d in DIRECTIONS)
_SLTT_MOVE = (None,) + tuple(Action(A_MOVE, d, d) for d in DIRECTIONS)
# What a tree child in direction N, E, S, W projects.
_CHILD_N, _CHILD_E, _CHILD_S, _CHILD_W = ((S_BEACON, d) for d in DIRECTIONS)


class Uniform(Protocol):
    """What the rules draw from: ``random()`` returns a float in [0, 1).
    Runs pass the engine's ``_RandomSource``; a numpy ``Generator`` also
    qualifies."""

    def random(self) -> float: ...


def _pick(rng: Uniform, items: list):
    """Uniform choice of ``items[int(u * len(items))]`` for one draw ``u``;
    always consumes exactly one draw."""
    return items[int(rng.random() * len(items))]


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
    a: AgentRecord, xi: tuple, p: SimParams, rng: Uniform
) -> Action:
    if a.energy <= p.ecrit_mobile:
        return SHUTDOWN
    own, n, e, s, w, _, an, ae, as_, aw = xi
    if own == SENSE_EMPTY:
        return _SLLG_SETTLE_HERE
    if SENSE_EMPTY in (n, e, s, w):
        return _action(A_SETTLE_AT, _pick(rng, _empty_dirs(xi)), a.s2 + 1)
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
            return _action(A_MOVE, _pick(rng, possible), dest)
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
    return _action(A_MOVE, _pick(rng, cands), best)


def mobile_decide_slug(
    a: AgentRecord, xi: tuple, p: SimParams, rng: Uniform
) -> Action:
    if a.energy <= p.ecrit_mobile:
        return SHUTDOWN
    own, n, e, s, w, _, an, ae, as_, aw = xi
    if own == SENSE_EMPTY:
        return _SLUG_SETTLE_HERE
    # Re-synchronize the own counter from the agent settled beneath.
    s2 = own[1]
    if SENSE_EMPTY in (n, e, s, w):
        return _action(A_SETTLE_AT, _pick(rng, _empty_dirs(xi)), s2 + 1)
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
        return _action(A_MOVE, _pick(rng, ups), up)
    if down is not None:
        return _action(A_MOVE, _pick(rng, downs), down)
    return STAY


def mobile_decide_sltt(
    a: AgentRecord, xi: tuple, p: SimParams, rng: Uniform
) -> Action:
    if a.energy <= p.ecrit_mobile:
        return SHUTDOWN
    own, n, e, s, w, _, an, ae, as_, aw = xi
    if own == SENSE_EMPTY:
        return _SLTT_SETTLE_HERE
    if SENSE_EMPTY in (n, e, s, w):
        return _SLTT_SETTLE_AT[_pick(rng, _empty_dirs(xi))]
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
            return _SLTT_MOVE[_pick(rng, possible)]
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
        return _SLTT_MOVE[_pick(rng, possible)]
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
    up = a.s2 + 1
    relevant = [g[0] for g in xi[1:5] if g.__class__ is tuple and g[1] == up]
    return _settled_decide(a, xi, p, approach, relevant)


def settled_decide_slug(a: AgentRecord, xi: tuple, p: SimParams, approach: int) -> int:
    if a.s2 >= p.d_max:
        # A counter at the settling horizon can never be climbed past
        # (followers on a costlier trajectory would only shut down), so
        # it reports exhaustion immediately.
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

"""Per-wake decision rules for the three coverage algorithms.

The rules are compiled (``_kernel.c``); this module names them and
defines the ``Action`` a mobile rule returns.  Every rule is a pure
function of the agent's own state, its sensed neighborhood, and the run
parameters; random tie-breaking consumes draws from ``draw``, a
callable returning uniform floats in [0, 1).
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

The settling horizon of the two counter rules: the entry projects the
counter 1, so a counter is hop distance plus one, and the bounds read
``d_max`` [7] as the largest counter ([8] is ``ball(d_max - 2)``, [13]
``ball(d_max - 1)``).  So no agent settles at a counter above
``d_max``.  Both sides keep it.  A settled agent whose counter is
``d_max`` or more reports exhaustion at once: no follower may settle
past it.  A mobile whose own counter is ``d_max`` or more stays instead
of settling at an empty neighbor: this closes the same-step race in
which a mobile steps onto a horizon beacon before that beacon's first
wake reports it low.  ``sltt-ea`` carries no counter and has no
horizon.  The rules read ``d_max`` through the ``SimParams.d_max``
property, at most once per call (once per step in the wake loop).
"""
from __future__ import annotations

from functools import cache
from typing import NamedTuple

from ._build import kernel

# Action kinds for mobile agents.
A_STAY, A_MOVE, A_SETTLE_HERE, A_SETTLE_AT, A_SHUTDOWN = range(5)


class Action(NamedTuple):
    """Outcome of one mobile wake-up; the kernel reads a rule's
    ``Action`` by position, as it reads an ``Event``."""

    kind: int
    direction: int = 0  # 1-4 for A_MOVE / A_SETTLE_AT
    s2: int = 0  # payload the agent carries or projects after acting


@cache
def _action(kind: int, direction: int, s2: int) -> Action:
    """The shared, immutable ``Action`` for these fields; the kernel's
    rules return these.  The cache stays small: counters never exceed
    the distance an agent can fly."""
    return Action(kind, direction, s2)


# Mobile rules: ``(a, xi, p, draw) -> Action``.  ``xi`` is the sensed
# neighborhood (``agents.sense``): the ground of the own cell and of the
# N, E, S, W neighbors, then the same for the air.
mobile_decide_sllg = kernel.mobile_decide_sllg
mobile_decide_slug = kernel.mobile_decide_slug
mobile_decide_sltt = kernel.mobile_decide_sltt
# Settled rules: ``(a, xi, p, approach) -> s1``, the sub-state the agent
# projects next.
settled_decide_sllg = kernel.settled_decide_sllg
settled_decide_slug = kernel.settled_decide_slug
settled_decide_sltt = kernel.settled_decide_sltt

REGISTRY = {
    "sllg-ea": (mobile_decide_sllg, settled_decide_sllg),
    "slug-ea": (mobile_decide_slug, settled_decide_slug),
    "sltt-ea": (mobile_decide_sltt, settled_decide_sltt),
}

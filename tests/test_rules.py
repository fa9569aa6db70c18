"""Per-wake decision rules, exercised on hand-built neighborhoods."""
import numpy as np
import pytest

from gridswarm.agents import (
    MODE_MOBILE,
    MODE_SETTLED,
    S_BEACON,
    S_CLOSED_BEACON,
    S_LOW_ENERGY,
    S_MOBILE,
    SENSE_EMPTY,
    SENSE_WALL,
    AgentRecord,
    SimParams,
)
from gridswarm.grid import EAST, NORTH, SOUTH, WEST
from gridswarm.rules import (
    A_MOVE,
    A_SETTLE_AT,
    A_SETTLE_HERE,
    A_SHUTDOWN,
    A_STAY,
    mobile_decide_sllg,
    mobile_decide_slug,
    mobile_decide_sltt,
    settled_decide_sllg,
    settled_decide_slug,
    settled_decide_sltt,
)

RNG = np.random.default_rng(0).random
P = SimParams(e0=20)

BEACON = S_BEACON
CB = S_CLOSED_BEACON
LE = S_LOW_ENERGY


def xi_of(own=SENSE_EMPTY, n=SENSE_WALL, e=SENSE_EMPTY, s=SENSE_WALL, w=SENSE_EMPTY,
          air=(SENSE_EMPTY,) * 4):
    """Assemble a 10-slot neighborhood; defaults describe a corridor."""
    own_air = (S_MOBILE, 0)
    return (own, n, e, s, w, own_air, *air)


def mobile(s2=0, energy=15.0):
    return AgentRecord(
        id=1, mode=MODE_MOBILE, s1=S_MOBILE, s2=s2, pos=0, e0=20.0, energy=energy, t_m=1
    )


def settled(s1=S_BEACON, s2=1, energy=10.0):
    return AgentRecord(
        id=1, mode=MODE_SETTLED, s1=s1, s2=s2, pos=0, e0=20.0, energy=energy
    )


class TestMobileSllg:
    def test_shutdown_at_critical_energy(self):
        act = mobile_decide_sllg(mobile(energy=1.0), xi_of(), P, RNG)
        assert act.kind == A_SHUTDOWN

    def test_settle_in_place_on_empty_cell(self):
        act = mobile_decide_sllg(mobile(), xi_of(own=SENSE_EMPTY), P, RNG)
        assert act.kind == A_SETTLE_HERE
        assert act.s2 == 1

    def test_settle_beside_takes_precedence_over_advance(self):
        # Hovering a beacon with both an empty neighbor and a climbable
        # beacon: the agent settles.
        xi = xi_of(own=(BEACON, 3), e=(BEACON, 4), w=SENSE_EMPTY)
        act = mobile_decide_sllg(mobile(s2=3), xi, P, RNG)
        assert act.kind == A_SETTLE_AT
        assert act.direction == WEST
        assert act.s2 == 4

    def test_advance_requires_exact_increment(self):
        xi = xi_of(own=(BEACON, 3), e=(BEACON, 5), w=(BEACON, 2))
        act = mobile_decide_sllg(mobile(s2=3), xi, P, RNG)
        assert act.kind == A_STAY  # neither +2 nor -1 is climbable

    def test_advance_up_gradient(self):
        xi = xi_of(own=(BEACON, 3), e=(BEACON, 4), w=(BEACON, 2))
        act = mobile_decide_sllg(mobile(s2=3), xi, P, RNG)
        assert (act.kind, act.direction, act.s2) == (A_MOVE, EAST, 4)

    def test_blocked_advance_stays(self):
        xi = xi_of(own=(BEACON, 3), e=(BEACON, 4), w=(BEACON, 2),
                   air=(SENSE_EMPTY, (S_MOBILE, 0), SENSE_EMPTY, SENSE_EMPTY))
        act = mobile_decide_sllg(mobile(s2=3), xi, P, RNG)
        assert act.kind == A_STAY

    def test_retrace_prefers_highest_closed_counter(self):
        xi = xi_of(own=(CB, 4), e=(CB, 3), w=(CB, 2))
        act = mobile_decide_sllg(mobile(s2=4), xi, P, RNG)
        assert (act.kind, act.direction, act.s2) == (A_MOVE, EAST, 3)

    def test_never_retraces_over_open_beacons(self):
        xi = xi_of(own=(CB, 4), e=(BEACON, 3), w=(BEACON, 2))
        act = mobile_decide_sllg(mobile(s2=4), xi, P, RNG)
        assert act.kind == A_STAY


class TestMobileSlug:
    def test_counter_resyncs_from_ground(self):
        xi = xi_of(own=(BEACON, 7), e=(BEACON, 9), w=(BEACON, 2))
        act = mobile_decide_slug(mobile(s2=0), xi, P, RNG)
        assert (act.kind, act.direction, act.s2) == (A_MOVE, EAST, 9)

    def test_advance_any_steepness_minimal_target(self):
        xi = xi_of(own=(BEACON, 3), e=(BEACON, 9), w=(BEACON, 6))
        act = mobile_decide_slug(mobile(s2=3), xi, P, RNG)
        assert (act.kind, act.direction, act.s2) == (A_MOVE, WEST, 6)

    def test_stays_when_no_higher_beacon_reachable(self):
        xi = xi_of(own=(BEACON, 5), e=(BEACON, 3), w=(BEACON, 2))
        act = mobile_decide_slug(mobile(s2=5), xi, P, RNG)
        assert act.kind == A_STAY

    def test_retrace_crosses_closed_beacons(self):
        # Only closed beacons left in sight: descend towards the
        # highest counter below the own one.
        xi = xi_of(own=(CB, 5), e=(CB, 4), w=(CB, 2))
        act = mobile_decide_slug(mobile(s2=5), xi, P, RNG)
        assert (act.kind, act.direction, act.s2) == (A_MOVE, EAST, 4)

    def test_open_beacon_below_blocks_retrace(self):
        # An air-free open beacon keeps the agent waiting even when it
        # offers no climb.
        xi = xi_of(own=(CB, 5), e=(CB, 4), w=(BEACON, 2))
        act = mobile_decide_slug(mobile(s2=5), xi, P, RNG)
        assert act.kind == A_STAY

    def test_settle_beside_increments_synced_counter(self):
        xi = xi_of(own=(BEACON, 7), w=SENSE_EMPTY)
        act = mobile_decide_slug(mobile(s2=1), xi, P, RNG)
        assert (act.kind, act.direction, act.s2) == (A_SETTLE_AT, WEST, 8)


class TestMobileSltt:
    def test_settle_in_place_uses_code_zero(self):
        act = mobile_decide_sltt(mobile(), xi_of(own=SENSE_EMPTY), P, RNG)
        assert (act.kind, act.s2) == (A_SETTLE_HERE, 0)

    def test_settle_beside_records_move_direction(self):
        xi = xi_of(own=(BEACON, 0), e=SENSE_EMPTY, w=(BEACON, 4))
        act = mobile_decide_sltt(mobile(), xi, P, RNG)
        assert (act.kind, act.direction, act.s2) == (A_SETTLE_AT, EAST, EAST)

    def test_advance_follows_child_links_only(self):
        # East neighbor projects East (child); west neighbor projects
        # North (not a child seen from here).
        xi = xi_of(own=(BEACON, 0), e=(BEACON, EAST), w=(BEACON, NORTH))
        act = mobile_decide_sltt(mobile(), xi, P, RNG)
        assert (act.kind, act.direction, act.s2) == (A_MOVE, EAST, EAST)

    def test_retrace_follows_back_pointers(self):
        # West neighbor is a closed beacon projecting East: it points
        # back at this cell, so it is the retrace target.
        xi = xi_of(own=(CB, EAST), e=(BEACON, NORTH), w=(CB, EAST))
        act = mobile_decide_sltt(mobile(), xi, P, RNG)
        assert (act.kind, act.direction) == (A_MOVE, WEST)

    def test_stays_without_children_or_back_pointers(self):
        xi = xi_of(own=(BEACON, 0), e=(BEACON, NORTH), w=(BEACON, NORTH))
        act = mobile_decide_sltt(mobile(), xi, P, RNG)
        assert act.kind == A_STAY


class TestSettledCommon:
    @pytest.mark.parametrize("approach", [1, 2])
    @pytest.mark.parametrize(
        "decide", [settled_decide_sllg, settled_decide_slug, settled_decide_sltt]
    )
    def test_own_exhaustion_reported_in_both_approaches(self, decide, approach):
        a = settled(s2=1, energy=1.0)
        xi = xi_of(own=(a.s1, a.s2))
        assert decide(a, xi, P, approach) == LE

    def test_closed_beacon_is_absorbing(self):
        a = settled(s1=CB, s2=1)
        xi = xi_of(own=(CB, 1), e=(CB, 2), w=SENSE_WALL)
        assert settled_decide_sllg(a, xi, P, 1) == CB


class TestSettledSllg:
    def test_any_low_energy_neighbor_propagates_in_approach_1(self):
        a = settled(s2=2)
        xi = xi_of(own=(BEACON, 2), e=(LE, 3), w=(BEACON, 1))
        assert settled_decide_sllg(a, xi, P, 1) == LE

    def test_closure_needs_all_up_gradient_neighbors_closed(self):
        a = settled(s2=2)
        xi = xi_of(own=(BEACON, 2), e=(CB, 3), w=(BEACON, 1))
        assert settled_decide_sllg(a, xi, P, 1) == CB
        xi_open = xi_of(own=(BEACON, 2), e=(BEACON, 3), w=(BEACON, 1))
        assert settled_decide_sllg(a, xi_open, P, 1) == BEACON

    def test_closure_blocked_by_empty_neighbor(self):
        a = settled(s2=2)
        xi = xi_of(own=(BEACON, 2), e=(CB, 3), w=SENSE_EMPTY)
        assert settled_decide_sllg(a, xi, P, 1) == BEACON

    def test_sideways_closed_neighbors_do_not_block_closure(self):
        # A neighbor whose counter is not own+1 is irrelevant to the
        # closure condition even when it is already closed.
        a = settled(s2=2)
        xi = xi_of(own=(BEACON, 2), e=(CB, 3), w=(CB, 2))
        assert settled_decide_sllg(a, xi, P, 1) == CB

    def test_approach_2_defers_low_energy_until_branch_exhausted(self):
        a = settled(s2=2)
        # Still an empty neighbor: the indication must not propagate.
        xi = xi_of(own=(BEACON, 2), e=(LE, 3), w=SENSE_EMPTY)
        assert settled_decide_sllg(a, xi, P, 2) == BEACON
        # Branch exhausted through a low-energy relevant neighbor.
        xi = xi_of(own=(BEACON, 2), e=(LE, 3), w=(BEACON, 1))
        assert settled_decide_sllg(a, xi, P, 2) == LE

    def test_approach_2_mixed_closed_and_low_energy_children(self):
        a = settled(s2=2)
        xi = xi_of(own=(BEACON, 2), n=(CB, 3), e=(LE, 3), s=(BEACON, 1), w=(BEACON, 1))
        assert settled_decide_sllg(a, xi, P, 2) == LE

    def test_approach_2_all_closed_children_close_without_low_energy(self):
        a = settled(s2=2)
        xi = xi_of(own=(BEACON, 2), e=(CB, 3), w=(BEACON, 1))
        assert settled_decide_sllg(a, xi, P, 2) == CB


class TestSettledSlug:
    @pytest.mark.parametrize("approach", [1, 2])
    def test_horizon_counter_reports_exhaustion(self, approach):
        a = settled(s2=P.d_max, energy=10.0)
        xi = xi_of(own=(BEACON, a.s2), e=SENSE_EMPTY, w=(BEACON, 3))
        assert settled_decide_slug(a, xi, P, approach) == LE

    def test_relevant_set_is_any_higher_counter(self):
        a = settled(s2=4)
        xi = xi_of(own=(BEACON, 4), e=(CB, 9), w=(CB, 6))
        assert settled_decide_slug(a, xi, P, 1) == CB
        xi_open = xi_of(own=(BEACON, 4), e=(CB, 9), w=(BEACON, 6))
        assert settled_decide_slug(a, xi_open, P, 1) == BEACON


class TestSettledSltt:
    def test_children_are_directional(self):
        a = settled(s2=0)
        # East neighbor projecting East is a child; once closed, and
        # with the west side a wall, the cell closes.
        xi = xi_of(own=(BEACON, 0), e=(CB, EAST), w=SENSE_WALL)
        assert settled_decide_sltt(a, xi, P, 1) == CB

    def test_non_child_neighbors_are_ignored(self):
        a = settled(s2=0)
        # The east neighbor points North: not this cell's child, so the
        # cell has no children and closes as soon as nothing is empty.
        xi = xi_of(own=(BEACON, 0), e=(BEACON, NORTH), w=SENSE_WALL)
        assert settled_decide_sltt(a, xi, P, 1) == CB

    def test_approach_2_needs_a_low_energy_child(self):
        a = settled(s2=0)
        xi = xi_of(own=(BEACON, 0), e=(LE, EAST), w=SENSE_WALL)
        assert settled_decide_sltt(a, xi, P, 2) == LE

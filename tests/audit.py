"""The invariant auditor of a recorded run: every invariant test calls
``audit_run``.

It re-checks, from the event log and the final agent records, what the
model promises: one agent per cell and layer, ground sub-states that
never reopen, closure only with every neighbor settled, the energy
ledger ``e0 - E = t_m + alpha * t_s`` of every agent, the shutdown and
failure counts, the ``sltt-ea`` spanning tree, and a bit-identical
replay.  Both ledger terms are read off the log, not off the agent
record: ``t_m = 1 + (settle or shutdown step, else T_C) - enter step``
and ``t_s = (fail step, else T_C) - settle step``."""
from collections import Counter

from gridswarm import opposite, run
from gridswarm.agents import MODE_SETTLED, S_BEACON, S_CLOSED_BEACON, S_LOW_ENERGY

TOL = 1e-9


def audit_run(region, params):
    """Run twice with event logging and verify the recorded invariants.
    Returns a list of violation strings."""
    bad = []
    res = run(region, params, log_events=True)
    res2 = run(region, params, log_events=True)
    if [e.format() for e in res.events] != [e.format() for e in res2.events]:
        bad.append("replay not bit-identical")

    air, ground = {}, {}
    rank = {S_BEACON: 0, S_CLOSED_BEACON: 1, S_LOW_ENERGY: 1}
    last_rank = {}
    failed_cells = set()
    # Steps at which each agent entered, stopped moving, settled, failed.
    entered, moved_until, settled_at, failed_at = {}, {}, {}, {}
    for e in res.events:
        if e.action == "enter":
            if e.dst in air:
                bad.append(f"t={e.t}: entry into occupied air cell {e.dst}")
            air[e.dst] = e.agent
            entered[e.agent] = e.t
        elif e.action == "move":
            if air.get(e.src) != e.agent or e.dst in air:
                bad.append(f"t={e.t}: bad move {e.src}->{e.dst} by {e.agent}")
            del air[e.src]
            air[e.dst] = e.agent
        elif e.action == "settle":
            if e.dst in ground:
                bad.append(f"t={e.t}: settle onto occupied ground {e.dst}")
            air.pop(e.src, None)
            ground[e.dst] = e.agent
            moved_until[e.agent] = settled_at[e.agent] = e.t
        elif e.action == "shutdown":
            air.pop(e.src, None)
            moved_until[e.agent] = e.t
        elif e.action == "fail":
            ground.pop(e.src, None)
            failed_cells.add(e.src)
            failed_at[e.agent] = e.t
        if e.s1 in rank:
            if rank[e.s1] < last_rank.get(e.agent, 0):
                bad.append(f"t={e.t}: agent {e.agent} ground state reopened")
            last_rank[e.agent] = rank[e.s1]
        if e.action == "transition" and e.s1 == S_CLOSED_BEACON:
            for nb in region.neighbors[e.src]:
                if nb >= 0 and nb not in ground:
                    bad.append(f"t={e.t}: cell {e.src} closed beside empty {nb}")

    t_c = res.metrics.t_c
    for a in res.sim.agents:
        t_m = 1 + moved_until.get(a.id, t_c) - entered[a.id]
        t_s = failed_at.get(a.id, t_c) - settled_at[a.id] if a.id in settled_at else 0
        if a.t_m != t_m:
            bad.append(f"agent {a.id}: t_m {a.t_m} != {t_m} in the log")
        ledger = t_m + params.alpha * t_s
        spent = params.e0 - a.energy
        if abs(spent - ledger) > TOL:
            bad.append(f"agent {a.id}: ledger {ledger} != spent {spent}")
    counts = Counter(e.action for e in res.events)
    if (res.metrics.nda_shutdown, res.metrics.nda_failed) != (
        counts["shutdown"], counts["fail"]
    ):
        bad.append("shutdown or failure count differs from the log")

    if params.algorithm == "sltt-ea":
        settled = {
            a.pos: a for a in res.sim.agents if a.mode == MODE_SETTLED
        }
        # A settled failure cuts its subtree off; the cut is no violation
        # as long as the failed cell was not settled again.
        emptied = failed_cells - settled.keys()
        for start in settled:
            pos, seen = start, set()
            while settled[pos].s2 != 0:
                if pos in seen:
                    bad.append(f"tree cycle through cell {start}")
                    break
                seen.add(pos)
                parent = region.neighbors[pos][opposite(settled[pos].s2) - 1]
                if parent in emptied:
                    break
                if parent < 0 or parent not in settled:
                    bad.append(f"tree pointer from {pos} leads off the forest")
                    break
                pos = parent
            else:
                if pos != region.entry:
                    bad.append(f"tree from {start} rooted at {pos}, not entry")
    return bad

"""Acceptance gate: eight end-to-end criteria, each printing a single
PASS/FAIL line.  Sweeps are shared between criteria through
module-scoped fixtures; all runs are seeded and reproducible."""
import random
import statistics
import sys
import time
from fractions import Fraction

import pytest

import conftest
from gridswarm import (
    SimParams,
    bounds as B,
    line_region,
    opposite,
    run,
    square_region,
)
from gridswarm.agents import MODE_SETTLED, S_BEACON, S_CLOSED_BEACON, S_LOW_ENERGY
from gridswarm.engine import TERM_CLOSED, TERM_LOW_ENERGY, TERM_STEP_CAP

ALGS = ("sllg-ea", "slug-ea", "sltt-ea")
E0S = (8, 15, 23)
DTS = (1, 2, 4, 8)
SEEDS = 50
TOL = 1e-9

pytestmark = pytest.mark.slow


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.record_criterion(line)
    assert ok, line


def sweep(region, approach, max_steps):
    out = {}
    for alg in ALGS:
        for e0 in E0S:
            for dt in DTS:
                out[(alg, e0, dt)] = [
                    run(
                        region,
                        SimParams(
                            dt=dt,
                            e0=e0,
                            algorithm=alg,
                            approach=approach,
                            seed=s,
                            max_steps=max_steps,
                        ),
                    ).metrics
                    for s in range(SEEDS)
                ]
    return out


@pytest.fixture(scope="module")
def square41():
    return square_region(41)


@pytest.fixture(scope="module")
def a1_sweep(square41):
    t0 = time.monotonic()
    res = sweep(square41, approach=1, max_steps=10_000)
    return res, time.monotonic() - t0


@pytest.fixture(scope="module")
def a2_sweep(square41):
    return sweep(square41, approach=2, max_steps=12_000)


def mean_ac(metrics):
    return statistics.fmean(m.a_c for m in metrics)


def test_criterion_1_approach_1_bounds(a1_sweep):
    res, elapsed = a1_sweep
    bad = []
    for (alg, e0, dt), runs in res.items():
        b = B.approach1_bounds(e0, 1, dt)
        for s, m in enumerate(runs):
            if m.terminated not in (TERM_CLOSED, TERM_LOW_ENERGY):
                bad.append((alg, e0, dt, s, "terminated", m.terminated))
            if m.a_c > b.n_ub:
                bad.append((alg, e0, dt, s, "A_C", m.a_c, b.n_ub))
            if m.t_c > b.t_c_ub:
                bad.append((alg, e0, dt, s, "T_C", m.t_c, b.t_c_ub))
    points = sorted({v[:3] for v in bad})
    report(
        1,
        not bad,
        f"approach-1 sweep ({len(res) * SEEDS} runs, {elapsed:.0f}s): "
        + (f"{len(bad)} bound violations at points {points}" if bad
           else "all runs closed/low_energy within the T_C and A_C bounds"),
    )


def test_criterion_2_approach_2_bounds(a1_sweep, a2_sweep):
    a1, _ = a1_sweep
    bad = []
    for (alg, e0, dt), runs in a2_sweep.items():
        ub = B.approach2_bounds(e0, 1).a_covered_ub
        over = [m.a_c for m in runs if m.a_c > ub]
        if over:
            bad.append(f"{alg}/E0={e0}/dt={dt}: {len(over)} runs A_C>{ub} "
                       f"(max {max(over)})")
        if mean_ac(runs) <= mean_ac(a1[(alg, e0, dt)]):
            bad.append(f"{alg}/E0={e0}/dt={dt}: mean A_C not above approach 1")
    for alg in ALGS:
        for e0 in E0S:
            means = [mean_ac(a2_sweep[(alg, e0, dt)]) for dt in DTS]
            spread = (max(means) - min(means)) / statistics.fmean(means)
            if spread >= 0.05:
                bad.append(f"{alg}/E0={e0}: A_C spread {spread:.1%} across dt")
    report(
        2,
        not bad,
        "approach-2 sweep: " + ("; ".join(bad[:4]) + f" ({len(bad)} checks failed)"
                                if bad else
                                "A_C within bound, above approach 1, <5% dt spread"),
    )


def test_criterion_3_algorithm_ordering(a1_sweep):
    res, _ = a1_sweep
    bad = []
    for e0 in E0S:
        for dt in DTS:
            sltt = mean_ac(res[("sltt-ea", e0, dt)])
            for other in ("sllg-ea", "slug-ea"):
                if sltt < mean_ac(res[(other, e0, dt)]):
                    bad.append(
                        f"E0={e0}/dt={dt}: sltt {sltt:.1f} < {other} "
                        f"{mean_ac(res[(other, e0, dt)]):.1f}"
                    )
    for dt in DTS:
        for other in ("sllg-ea", "slug-ea"):
            gaps = [
                mean_ac(res[("sltt-ea", e0, dt)]) - mean_ac(res[(other, e0, dt)])
                for e0 in E0S
            ]
            if not (gaps[0] <= gaps[1] <= gaps[2]):
                bad.append(f"dt={dt}: gap to {other} not monotone in E0 {gaps}")
    report(
        3,
        not bad,
        "; ".join(bad[:4]) + f" ({len(bad)} checks failed)" if bad
        else "mean A_C(sltt) >= others at every point, gaps grow with E0",
    )


def test_criterion_4_linear_exactness():
    bad = []
    total = 0
    for n in (10, 50, 100):
        for dt in (2, 4):
            t_ub = n * (dt + 2) - dt
            ei_ub = 2 * n - dt
            for s in range(SEEDS):
                total += 1
                m = run(
                    line_region(n),
                    SimParams(dt=dt, e0=5 * n, seed=s, scheduler="adversarial"),
                ).metrics
                if m.t_c > t_ub:
                    bad.append((n, dt, s, "T_C", m.t_c, t_ub))
                if m.max_ei > ei_ub:
                    bad.append((n, dt, s, "max_Ei", m.max_ei, ei_ub))
    report(
        4,
        not bad,
        f"{total} adversarial line runs: "
        + (f"{len(bad)} violations, first {bad[0]}" if bad
           else "T_C and max_Ei within the closed forms in every run"),
    )


def test_criterion_5_total_energy_and_optimal_period():
    region = line_region(100)
    bad = []
    means0 = []
    for dt in range(2, 31):
        vals = [
            run(region, SimParams(dt=dt, e0=500, seed=s)).metrics.e_total
            for s in range(SEEDS)
        ]
        mean = statistics.fmean(vals)
        means0.append(mean)
        ub = B.linear_edge_bounds(100, dt).e_total_ub
        if mean > ub:
            bad.append(f"dt={dt}: mean E_total {mean:.0f} > bound {ub:.0f}")
    drops = [b - a for a, b in zip(means0, means0[1:])]
    if any(d > TOL for d in drops):
        bad.append("mean E_total not non-increasing in dt")
    means_a = {}
    for dt in range(2, 31):
        vals = [
            run(region, SimParams(dt=dt, e0=500, alpha=0.025, seed=s)).metrics.e_total
            for s in range(SEEDS)
        ]
        means_a[dt] = statistics.fmean(vals)
    argmin = min(means_a, key=means_a.get)
    if abs(argmin - 12.6) > 3:
        bad.append(f"alpha=0.025 argmin dt={argmin}, outside 12.6±3")
    report(
        5,
        not bad,
        "; ".join(bad) if bad
        else f"means within bound and non-increasing; argmin dt={argmin} near 12.6",
    )


def test_criterion_6_oracle_equivalences():
    bad = []
    for r in range(2, 31):
        enum = sum(
            1
            for x in range(-r, r + 1)
            for y in range(-r, r + 1)
            if abs(x) + abs(y) <= r
        )
        if B.ball_cell_count(r) != enum:
            bad.append(f"ball r={r}")
    rng = random.Random(2026)
    for _ in range(120):
        n = rng.randrange(4, 150)
        dt = rng.choice([d for d in range(2, 2 * n + 1) if (2 * n) % d == 0])
        alpha = rng.choice([0, Fraction(1, 40), Fraction(1, 8)])
        if abs(B.linear_edge_bounds(n, dt, alpha).e_total_ub
               - B.linear_edge_total_oracle(n, dt, alpha)) > TOL:
            bad.append(f"edge {(n, dt, alpha)}")
    for variant in B.MID_VARIANTS:
        tried = 0
        while tried < 120:
            n = rng.randrange(8, 150)
            j = rng.randrange(2, n // 2 + 1)
            divs = [d for d in range(2, 2 * j + 1)
                    if (2 * n) % d == 0 and (2 * j) % d == 0]
            if not divs:
                continue
            dt, alpha = rng.choice(divs), rng.choice([0, Fraction(1, 40)])
            tried += 1
            if abs(B.linear_mid_bounds(n, j, dt, alpha, variant).e_total
                   - B.linear_mid_total_oracle(n, j, dt, alpha, variant)) > TOL:
                bad.append(f"{variant} {(n, j, dt, alpha)}")
    for _ in range(120):
        n = rng.randrange(8, 150)
        j = rng.randrange(2, n // 2 + 1)
        dt = rng.randrange(2, 2 * j + 1)
        alpha = Fraction(1, rng.randrange(8, 60))
        g = B.linear_mid_bounds(n, j, dt, alpha, "greedy").e_total
        d = B.linear_mid_bounds(n, j, dt, alpha, "depth_first").e_total
        if abs(g - d - float((1 - alpha) * (dt - 2 * j))) > TOL:
            bad.append(f"variant-gap {(n, j, dt, alpha)}")
    report(
        6,
        not bad,
        f"{len(bad)} oracle mismatches: {bad[:3]}" if bad
        else "closed forms match enumeration/summation oracles (tol 1e-9)",
    )


def _audit_run(region, params):
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
    for e in res.events:
        if e.action == "enter":
            if e.dst in air:
                bad.append(f"t={e.t}: entry into occupied air cell {e.dst}")
            air[e.dst] = e.agent
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
        elif e.action == "shutdown":
            air.pop(e.src, None)
        elif e.action == "fail":
            ground.pop(e.src, None)
        if e.s1 in rank:
            if rank[e.s1] < last_rank.get(e.agent, 0):
                bad.append(f"t={e.t}: agent {e.agent} ground state reopened")
            last_rank[e.agent] = rank[e.s1]
        if e.action == "transition" and e.s1 == S_CLOSED_BEACON:
            for nb in region.neighbors[e.src]:
                if nb >= 0 and nb not in ground:
                    bad.append(f"t={e.t}: cell {e.src} closed beside empty {nb}")

    for a in res.sim.agents:
        ledger = a.t_m + params.alpha * a.t_s
        if abs((a.e0 - a.energy) - ledger) > TOL:
            bad.append(f"agent {a.id}: ledger {ledger} != spent {a.e0 - a.energy}")

    if params.algorithm == "sltt-ea":
        settled = {
            a.pos: a for a in res.sim.agents if a.mode == MODE_SETTLED
        }
        for start in settled:
            pos, seen = start, set()
            while settled[pos].s2 != 0:
                if pos in seen:
                    bad.append(f"tree cycle through cell {start}")
                    break
                seen.add(pos)
                parent = region.neighbors[pos][opposite(settled[pos].s2) - 1]
                if parent < 0 or parent not in settled:
                    bad.append(f"tree pointer from {pos} leads off the forest")
                    break
                pos = parent
            else:
                if pos != region.entry:
                    bad.append(f"tree from {start} rooted at {pos}, not entry")
    return bad


def test_criterion_7_invariant_suite():
    bad = []
    configs = 0
    for alg in ALGS:
        for approach in (1, 2):
            configs += 1
            bad += _audit_run(
                square_region(21),
                SimParams(dt=2, e0=12, algorithm=alg, approach=approach, seed=1),
            )
    for dt in (1, 2):
        configs += 1
        bad += _audit_run(
            line_region(30), SimParams(dt=dt, e0=40, algorithm="sltt-ea", seed=4)
        )
    report(
        7,
        not bad,
        f"{len(bad)} invariant violations: {bad[:3]}" if bad
        else f"occupancy, absorbing states, ledgers, closure condition, "
             f"tree shape, replay: clean over {configs} recorded runs",
    )


def test_criterion_8_pathology_reproduction():
    region = line_region(50)
    outcomes = {}
    for dt in (1, 2):
        outcomes[dt] = [
            run(
                region,
                SimParams(
                    dt=dt,
                    e0=15,
                    algorithm="sltt-ea",
                    approach=2,
                    seed=s,
                    max_steps=7_500,
                ),
            ).metrics.terminated
            for s in range(SEEDS)
        ]
    stalls = outcomes[1].count(TERM_STEP_CAP)
    dt2_ok = TERM_STEP_CAP not in outcomes[2]
    ok = stalls >= 1 and dt2_ok
    report(
        8,
        ok,
        f"dt=1: {stalls}/{SEEDS} runs hit the step cap"
        + ("" if stalls else " (stall does not manifest on a line region)")
        + f"; dt=2: {'all terminate' if dt2_ok else 'some runs hit the cap'}",
    )

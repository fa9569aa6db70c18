"""The compiled kernel against its Python reference (``reference.py``):
whole event logs on the golden and audited runs and on random small
regions, and each rule on random neighborhoods, draw for draw."""
import gc
import random
import weakref
from fractions import Fraction
from itertools import cycle
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
from gridswarm import SimParams, engine, parse_region, rules, run, square_region
from gridswarm._build import kernel
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
    ParamError,
)
from gridswarm.engine import Event
from gridswarm.rules import A_STAY
from test_engine import AUDITED
from test_golden import GOLDEN, REGIONS


def log_of(res) -> list[str]:
    return [e.format() for e in res.events]


def assert_same_run(got, want):
    """Assert two runs give the same log and metrics."""
    assert log_of(got) == log_of(want)
    assert got.metrics == want.metrics


def same_run(region, params):
    """Assert the engine and the reference give the same log and metrics."""
    got = run(region, params, log_events=True)
    assert_same_run(got, reference.reference_run(region, params))
    return got


def test_constants_agree_with_the_python_definitions():
    from gridswarm import agents

    for name in ("MODE_MOBILE", "MODE_SETTLED", "MODE_SHUTDOWN", "MODE_FAILED", "S_MOBILE",
                 "S_BEACON", "S_CLOSED_BEACON", "S_LOW_ENERGY"):
        assert getattr(kernel, name) == getattr(agents, name), name
    for name in ("A_STAY", "A_MOVE", "A_SETTLE_HERE", "A_SETTLE_AT", "A_SHUTDOWN"):
        assert getattr(kernel, name) == getattr(rules, name), name
    assert kernel.ID_BITS == 32


def test_mode_names_agree_with_the_python_definitions():
    sim = engine.Simulation(square_region(3), SimParams())
    for mode in (MODE_SHUTDOWN, MODE_FAILED):
        a = AgentRecord(id=7, mode=mode, s1=S_MOBILE, s2=0, pos=0, energy=1.0)
        with pytest.raises(ValueError, match=f"agent 7 cannot sense in mode {MODE_NAMES[mode]}$"):
            kernel.sense(sim._world, a)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_run_equals_reference(name):
    region, params, *_ = GOLDEN[name]
    same_run(REGIONS[region](), SimParams(**params))


@pytest.mark.parametrize("name", sorted(AUDITED))
def test_audited_run_equals_reference(name):
    side, kw = AUDITED[name]
    same_run(square_region(side), SimParams(**kw))


def test_a_region_past_the_small_ints_runs_as_in_the_reference():
    """On ``square:21`` most cells lie above 256, outside CPython's cache
    of small ints, so each cell a logged ``Event`` holds is an int object
    of its own, made from the record's C value: an event field the kernel
    builds with a reference too few shows here, under a sanitizer, and on
    no smaller region.  The run without a log gives the same metrics."""
    params = SimParams(seed=1, e0=20)
    metrics = run(square_region(21), params).metrics
    got = same_run(square_region(21), params)
    assert got.metrics == metrics
    assert max(a.pos for a in got.sim.agents) > 256


# What a case wraps: the seams ``perfbench/tracer.py`` wraps, or some.
WRAPPED = {"all": ("sense", "mobile", "settled"), "sense": ("sense",),
           "rules": ("mobile", "settled")}


@pytest.mark.parametrize("name,wrapped", [
    pytest.param(name, wrapped, id=name if wrapped == "all" else f"{name}-{wrapped}-only")
    for name in ["sllg-a2-random", "slug-a2-random-alpha-fail", "sltt-a2-adversarial-alpha-fail"]
    for wrapped in WRAPPED
])
def test_wrapped_callables_see_every_wake(name, wrapped, monkeypatch):
    """Wrapped ``sense`` and decide callables, as a tracer installs them,
    all or some, run through Python once per wake of their kind and leave
    the log unchanged.  The reference's wake loop counts the wakes."""
    region, params, *_ = GOLDEN[name]
    params = SimParams(**params)
    plain = log_of(run(REGIONS[region](), params, log_events=True))
    wakes = {"mobile": 0, "settled": 0}
    calls = dict.fromkeys(WRAPPED[wrapped], 0)

    def counted(counts, key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def wrap_rules(registry, counts):
        mobile, settled = registry[params.algorithm]
        monkeypatch.setitem(registry, params.algorithm,
                            (counted(counts, "mobile", mobile), counted(counts, "settled", settled)))

    wrap_rules(reference.REGISTRY, wakes)
    assert log_of(reference.reference_run(REGIONS[region](), params)) == plain
    assert wakes["mobile"] > 0 and wakes["settled"] > 0
    wakes["sense"] = wakes["mobile"] + wakes["settled"]
    if "sense" in calls:
        monkeypatch.setattr(engine, "sense", counted(calls, "sense", engine.sense))
    if "mobile" in calls:
        wrap_rules(rules.REGISTRY, calls)
    assert log_of(run(REGIONS[region](), params, log_events=True)) == plain
    assert calls == {key: wakes[key] for key in calls}


def test_a_draw_replaced_between_steps_keys_the_next_wakes_as_in_the_reference():
    """``Simulation.draw`` is read on every step: a scripted draw put in
    between two steps keys the wakes and breaks the ties that follow
    exactly as it does in the reference, and changes the run."""
    region, params, *_ = GOLDEN["sllg-a2-random"]
    runs = []
    for cls in (engine.Simulation, reference.ReferenceSimulation):
        sim = cls(REGIONS[region](), SimParams(**params), log_events=True)
        for _ in range(20):
            sim.step()
        assert sim.terminated is None
        sim.draw = cycle([0.0, 0.5, 0.25, 0.999, 0.75, 0.1]).__next__
        runs.append(sim.run())
    assert_same_run(*runs)
    assert log_of(runs[0]) != log_of(run(REGIONS[region](), SimParams(**params), log_events=True))


def test_a_step_inside_a_step_raises_runtime_error():
    """A seam that steps its own run again is refused, and the outer
    step goes on to its close."""
    sim = engine.Simulation(square_region(5), SimParams(seed=1))
    stream, raised = sim.draw, []

    def draw():
        try:
            sim.step()
        except RuntimeError as e:
            raised.append(str(e))
        return stream()

    for _ in range(3):
        sim.step()
    sim.draw = draw
    sim.step()
    assert raised and set(raised) == {"the world is already stepping"}
    assert sim.t == 4 and len(sim.ac_series) == 4


def test_a_streamed_log_hands_over_one_bytes_per_step():
    """``on_events`` receives one ``bytes`` per step that logged anything,
    in step order, each the lines ``Event.format`` gives that step's
    events.  Ids and cells lie past the small ints and many energies are
    not integers, so the line writer and its buffer's growth run under
    the sanitizers too."""
    region = square_region(21)
    params = SimParams(algorithm="sltt-ea", approach=2, e0=25, alpha=0.017, dt=2, seed=1)
    lines: list[bytes] = []
    streamed = run(region, params, on_events=lines.append)
    logged = run(region, params, log_events=True)
    steps = sorted({e.t for e in logged.events})
    want = ["".join(e.format() + "\n" for e in logged.events if e.t == t).encode()
            for t in steps]
    assert all(type(b) is bytes for b in lines)
    assert lines == want
    assert streamed.metrics == logged.metrics
    assert len(steps) > 900 and max(e.agent for e in logged.events) > 256
    assert sum(e.energy % 1 != 0 for e in logged.events) > 256

    def sink(b):
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        run(region, params, on_events=sink)


@pytest.mark.parametrize("sink", ["log_events", "on_events", None])
def test_a_finished_run_is_freed_without_the_collector(sink):
    """The kernel's world refers to no ``Simulation``: with the cyclic
    collector off, dropping a run's result frees its ``Simulation``."""
    kw = {"log_events": dict(log_events=True), "on_events": dict(on_events=[].append),
          None: {}}[sink]
    gc.disable()
    try:
        res = run(square_region(9), SimParams(e0=10, alpha=0.05, seed=1), **kw)
        assert res.metrics.a_c > 0
        sim = weakref.ref(res.sim)
        del res
        assert sim() is None
    finally:
        gc.enable()


@st.composite
def small_regions(draw):
    """A connected region on a grid of at most 9x9, walls elsewhere: a
    random spanning tree of lattice cells, either as a maze (the tree's
    cells at even coordinates, joined through the cell between) or as
    the cells themselves."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    maze = draw(st.booleans())
    w, h = draw(st.integers(2, 5 if maze else 9)), draw(st.integers(2, 5 if maze else 9))
    size = draw(st.integers(w * h // 2, w * h))
    start = (rnd.randrange(w), rnd.randrange(h))
    tree, edges, opened = {start}, [], set()

    def grow(c):
        x, y = c
        edges.extend((c, n) for n in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
                     if 0 <= n[0] < w and 0 <= n[1] < h)

    grow(start)
    while len(tree) < size:
        a, b = edges.pop(rnd.randrange(len(edges)))
        if b not in tree:
            tree.add(b)
            opened.add((a, b))
            grow(b)
    if maze:
        cells = {(2 * x, 2 * y) for x, y in tree}
        cells |= {(a[0] + b[0], a[1] + b[1]) for a, b in opened}
        width, height = 2 * w - 1, 2 * h - 1
    else:
        cells, width, height = tree, w, h
    entry = rnd.choice(sorted(cells))
    rows = [
        "".join("E" if (x, y) == entry else "." if (x, y) in cells else "W"
                for x in range(width))
        for y in range(height)
    ]
    return parse_region("\n".join(rows) + "\n")


@st.composite
def run_params(draw):
    e0 = draw(st.integers(5, 20).map(float) | st.floats(5.0, 20.0))
    alpha = draw(st.just(0.0) | st.sampled_from([0.05, 0.125, 0.3]) | st.floats(0.01, 0.5))
    return SimParams(
        algorithm=draw(st.sampled_from(["sllg-ea", "slug-ea", "sltt-ea"])),
        approach=draw(st.sampled_from([1, 2])),
        scheduler=draw(st.sampled_from(["random", "adversarial"])),
        e0=e0,
        alpha=alpha,
        ecrit_mobile=draw(st.sampled_from([1.0, 1.5])),
        ecrit_settled=draw(st.sampled_from([0.0, 1.0, 2.5])),
        dt=draw(st.integers(1, 4)),
        m=draw(st.sampled_from([1, 3, 1000])),
        seed=draw(st.integers(0, 10_000)),
        max_steps=300,
    )


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(region=small_regions(), params=run_params())
def test_random_region_run_equals_reference(region, params):
    params.validate()
    same_run(region, params)


# -- one rule at a time --------------------------------------------------------

COUNTERS = st.integers(0, 9)
AGENT_SLOT = st.tuples(st.sampled_from([S_BEACON, S_CLOSED_BEACON, S_LOW_ENERGY]), COUNTERS)
GROUND_SLOT = st.one_of(st.just(SENSE_EMPTY), st.just(SENSE_WALL), AGENT_SLOT)
ENERGIES = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 9.0]) | st.floats(0.0, 12.0)
DRAWS = st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.999999, 1.0 - 2.0**-53])
                 | st.floats(0.0, 0.9999999),
                 min_size=4, max_size=4)


class Draws:
    """A draw callable serving fixed uniforms and counting them."""

    def __init__(self, us):
        self.us, self.n = us, 0

    def __call__(self):
        self.n += 1
        return self.us[self.n - 1]


@st.composite
def mobile_case(draw):
    ground = draw(st.lists(GROUND_SLOT, min_size=4, max_size=4))
    air = [
        SENSE_WALL if g == SENSE_WALL
        else draw(st.just(SENSE_EMPTY) | st.tuples(st.just(S_MOBILE), COUNTERS))
        for g in ground
    ]
    s2 = draw(COUNTERS)
    own = draw(st.just(SENSE_EMPTY) | AGENT_SLOT)
    xi = (own, *ground, (S_MOBILE, s2), *air)
    a = AgentRecord(id=1, mode=MODE_MOBILE, s1=S_MOBILE, s2=s2, pos=0,
                    energy=draw(ENERGIES), t_m=1)
    return a, xi


@st.composite
def settled_case(draw):
    s1 = draw(st.sampled_from([S_BEACON, S_CLOSED_BEACON, S_LOW_ENERGY]))
    s2 = draw(COUNTERS)
    ground = draw(st.lists(GROUND_SLOT, min_size=4, max_size=4))
    xi = ((s1, s2), *ground) + (SENSE_EMPTY,) * 5
    a = AgentRecord(id=1, mode=MODE_SETTLED, s1=s1, s2=s2, pos=0, energy=draw(ENERGIES))
    return a, xi


PARAMS = st.builds(SimParams, e0=st.integers(4, 12).map(float),
                   ecrit_mobile=st.sampled_from([1.0, 1.5]),
                   ecrit_settled=st.sampled_from([0.0, 1.0, 2.5]))


@pytest.mark.parametrize("algorithm", sorted(rules.REGISTRY))
@settings(max_examples=120, deadline=None)
@given(case=mobile_case(), p=PARAMS, us=DRAWS)
def test_mobile_rule_equals_reference(algorithm, case, p, us):
    a, xi = case
    got_draw, want_draw = Draws(us), Draws(us)
    got = rules.REGISTRY[algorithm][0](a, xi, p, got_draw)
    want = reference.REGISTRY[algorithm][0](a, xi, p, want_draw)
    assert got == want
    assert got_draw.n == want_draw.n


@pytest.mark.parametrize("approach", [1, 2])
@pytest.mark.parametrize("algorithm", sorted(rules.REGISTRY))
@settings(max_examples=80, deadline=None)
@given(case=settled_case(), p=PARAMS)
def test_settled_rule_equals_reference(algorithm, approach, case, p):
    a, xi = case
    got = rules.REGISTRY[algorithm][1](a, xi, p, approach)
    assert got == reference.REGISTRY[algorithm][1](a, xi, p, approach)


class TestParameterTypes:
    """Every parameter value ``validate`` accepts runs as in the reference:
    ints for energies, a float ``approach``, and no energy a float
    cannot hold (the kernel compares energies as floats)."""

    @pytest.mark.parametrize("kw", [
        dict(e0=9, alpha=0, ecrit_settled=1),
        dict(e0=9, alpha=1, ecrit_mobile=2),
        dict(e0=9.5, alpha=0.125, approach=1.0),
        dict(e0=19, alpha=0.25, approach=2.0),
    ])
    def test_runs_equal_reference(self, kw):
        params = SimParams(dt=2, seed=3, algorithm="sllg-ea", **kw)
        params.validate()
        for algorithm in ("sllg-ea", "slug-ea", "sltt-ea"):
            params.algorithm = algorithm
            same_run(square_region(7), params)

    def test_int_energies_log_float_moves_before_settling(self):
        """Int ``e0`` and ``alpha`` on a run where mobiles move before they
        settle: every move logs a float energy, as in the reference."""
        params = SimParams(dt=2, seed=3, e0=20, alpha=1, ecrit_mobile=2)
        for algorithm in ("sllg-ea", "slug-ea", "sltt-ea"):
            params.algorithm = algorithm
            events = same_run(square_region(7), params).events
            moves = [e for e in events if e.action == "move"]
            assert {e.agent for e in moves} & {e.agent for e in events if e.action == "settle"}
            assert {type(e.energy) for e in moves} == {float}

    @pytest.mark.parametrize("name", ["e0", "alpha", "ecrit_mobile", "ecrit_settled"])
    def test_energy_a_float_cannot_hold_is_rejected(self, name):
        value = {"e0": 12, "alpha": 0.5, "ecrit_mobile": 2, "ecrit_settled": 1}[name]
        with pytest.raises(ParamError, match="float holds exactly"):
            SimParams(**{name: Fraction(value) + Fraction(1, 10**20)}).validate()


class TestWakeKeyWidth:
    """A random sub-step is packed above a 32-bit id into a 64-bit key:
    ``m`` up to 2**32 keeps every key exact, and more is refused."""

    def test_m_above_2_32_is_rejected(self):
        with pytest.raises(ParamError, match="2\\*\\*32"):
            SimParams(m=2**32 + 1).validate()

    EXTREMES = (0.0, 0.5, 1.0 - 2.0**-53)

    def test_keys_at_m_2_32_equal_the_reference(self):
        self.check_extreme_draws(2**32)

    def test_keys_at_m_2_20_plus_3_equal_the_reference(self):
        self.check_extreme_draws(2**20 + 3)

    def check_extreme_draws(self, m):
        """Engine and reference, both drawing from a script that cycles
        the extremes of [0, 1), log the same run; the reference packs the
        keys exactly, the largest sub-step being ``m - 1``."""
        region = square_region(7)
        params = SimParams(m=m, e0=9, dt=1, approach=2, seed=4)
        ref = reference.ReferenceSimulation(region, params)
        ref.draw = cycle(self.EXTREMES).__next__
        keys = ref._wake_keys([1, 2, 3])
        assert keys == [int(u * m) << 32 | i for u, i in zip(self.EXTREMES, (1, 2, 3))]
        assert max(keys) >> 32 == m - 1
        runs = []
        for sim in (engine.Simulation(region, params, log_events=True),
                    reference.ReferenceSimulation(region, params, log_events=True)):
            sim.draw = cycle(self.EXTREMES).__next__
            runs.append(sim.run())
        assert_same_run(*runs)
        assert runs[0].metrics.a_c > 0


class TestBoundaryTypes:
    """The kernel accepts the engine's own types and no others."""

    @pytest.mark.parametrize("kw", [dict(e0=9, alpha=0), dict(e0=9, alpha=1)])
    def test_int_energy_params_give_float_energies(self, kw):
        """Every stored energy is a float, and the log is the one float
        parameters give."""
        def params(**energies):
            return SimParams(algorithm="sllg-ea", approach=2, dt=1, seed=3, **energies)

        region = square_region(7)
        got = run(region, params(**kw), log_events=True)
        want = run(region, params(**{k: float(v) for k, v in kw.items()}), log_events=True)
        assert {type(e.energy) for e in got.events} == {float}
        assert {type(a.energy) for a in got.sim.agents} == {float}
        assert log_of(got) == log_of(want)
        assert got.metrics == want.metrics
        assert type(AgentRecord(**{**self.FIELDS, "energy": 9}).energy) is float

    FIELDS = dict(id=1, mode=MODE_MOBILE, s1=S_MOBILE, s2=0, pos=0, energy=9.0, t_m=1)
    XI = (SENSE_EMPTY,) * 10
    NOT_AN_INT = "object cannot be interpreted as an integer"
    REJECTED = {  # case: (call, the error's message), or (call, message, error)
        "sense-record": (lambda self: kernel.sense(
            engine.Simulation(square_region(3), SimParams())._world,
            SimpleNamespace(**self.FIELDS)),
            "expected an AgentRecord"),
        "sense-world": (lambda self: kernel.sense(
            engine.Simulation(square_region(3), SimParams()), AgentRecord(**self.FIELDS)),
            "expected a world"),
        "awake-id": (lambda self: self.step_waking(1), "expected an AgentRecord"),
        "awake-stranger": (lambda self: self.step_waking(AgentRecord(**self.FIELDS)),
                           "agent 1 cannot join this step's wake order", engine.InvariantError),
        "world-both-sinks": (lambda self: self.world(events=[], on_events=[].append),
                             "on_events is a callable or None, and None with events"),
        "world-on-events": (lambda self: self.world(events=None, on_events=42),
                            "on_events is a callable or None"),
        "rule-record": (lambda self: rules.mobile_decide_sllg(
            SimpleNamespace(**self.FIELDS), self.XI, SimParams(), random.random),
            "expected an AgentRecord"),
        "slot": (lambda self: rules.settled_decide_sllg(
            AgentRecord(**{**self.FIELDS, "mode": MODE_SETTLED, "s1": S_BEACON, "s2": 1}),
            (SENSE_EMPTY, 1, SENSE_EMPTY, SENSE_EMPTY, SENSE_EMPTY) + (SENSE_EMPTY,) * 5,
            SimParams(), 1),
            "a sensed slot is SENSE_EMPTY, SENSE_WALL or an"),
        "event-cell": (lambda self: Event(0, 1, "move", "3", 4, S_MOBILE, 2, 5.0).format(),
                       "event field 3 must be an int"),
        "action": (lambda self: self.step_deciding(SimpleNamespace(kind=A_STAY, direction=0, s2=0)),
                   "a mobile rule returns an Action, not"),
        "record-pos": (lambda self: AgentRecord(**{**self.FIELDS, "pos": "3"}), NOT_AN_INT),
        "record-id": (lambda self: AgentRecord(**{**self.FIELDS, "id": 1.0}), NOT_AN_INT),
        "record-energy": (lambda self: AgentRecord(**{**self.FIELDS, "energy": "9"}),
                          "must be real number"),
        "record-set-pos": (lambda self: self.assign("pos", 1.5), NOT_AN_INT),
        "record-set-energy": (lambda self: self.assign("energy", "9"), "must be real number"),
        "record-del-pos": (lambda self: self.assign("pos", None), "cannot be deleted"),
        "record-s2-overflow": (lambda self: AgentRecord(**{**self.FIELDS, "s2": 2**70}),
                               "too large to convert to C long", OverflowError),
        "record-id-overflow": (lambda self: AgentRecord(**{**self.FIELDS, "id": 2**70}),
                               "too large to convert to C long", OverflowError),
    }

    def assign(self, name, value):
        """Set field ``name`` of a record to ``value``, or delete it for
        ``None``; a failed assignment leaves the field as it was."""
        a = AgentRecord(**self.FIELDS)
        try:
            if value is None:
                delattr(a, name)
            else:
                setattr(a, name, value)
        finally:
            assert getattr(a, name) == self.FIELDS[name]

    @staticmethod
    def world(events, on_events):
        """A world of ``square:3`` built with the sinks given."""
        return kernel.world(square_region(3), SimParams(), [], [None] * 9, [None] * 9, set(), [],
                            events, on_events)

    @staticmethod
    def step_waking(item):
        """Step a run once its first agent is in, with ``awake`` holding
        ``item`` alone: an id, or a record that is not the run's agent 1."""
        sim = engine.Simulation(square_region(3), SimParams())
        sim.step()
        sim.awake.clear()
        sim.awake.add(item)
        sim.step()

    @staticmethod
    def step_deciding(action):
        """Step a run twice, so that its first entrant wakes and decides ``action``."""
        sim = engine.Simulation(square_region(3), SimParams())
        sim._mobile_decide = lambda a, xi, p, draw: action
        sim.step()
        sim.step()

    @pytest.mark.parametrize("pos", [-1, 9])
    def test_a_cell_outside_the_region_raises_index_error(self, pos):
        """A cell index is read as given: ``-1`` is not the last cell."""
        sim = engine.Simulation(square_region(3), SimParams())
        with pytest.raises(IndexError):
            kernel.sense(sim._world, AgentRecord(**{**self.FIELDS, "pos": pos}))

    @pytest.mark.parametrize("pos", [-1, 9])
    def test_a_record_outside_the_region_raises_index_error_from_step(self, pos):
        """A hand-placed record whose cell lies outside the region: the
        step reads no cell off the region's arrays for it."""
        for scheduler in ("random", "adversarial"):
            sim = engine.Simulation(square_region(3), SimParams(scheduler=scheduler))
            a = AgentRecord(**{**self.FIELDS, "pos": pos})
            sim.agents.append(a)
            sim.awake.add(a)
            with pytest.raises(IndexError, match=f"cell {pos} lies outside the region"):
                sim.step()

    @pytest.mark.parametrize("dt", [2.0, 2**63, 10**400])
    def test_an_integral_dt_of_any_size_runs_as_in_the_reference(self, dt):
        """``dt`` is read as an int: an integral float as its value, one
        that no C long holds as the largest long."""
        def params(dt):
            return SimParams(dt=dt, seed=3, max_steps=30)

        got = same_run(square_region(3), params(dt))
        if dt == 2:
            assert got.metrics == run(square_region(3), params(2)).metrics
        else:
            assert got.metrics.n_agents == 1

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_other_types_raise_type_error(self, case):
        call, match, error = (*self.REJECTED[case], TypeError)[:3]
        with pytest.raises(error, match=match):
            call(self)
        # A failed call leaves the kernel working as before.
        assert same_run(square_region(5), SimParams(e0=8, seed=1)).metrics.a_c > 0


def test_logged_kernel_events_are_not_tracked_by_the_collector():
    """Moves and transitions hold ints, a str and a float: the kernel
    leaves them out of the cyclic collector's walks."""
    res = run(square_region(9), SimParams(algorithm="sllg-ea", approach=2, e0=10, dt=1,
                                          alpha=0.05, seed=1), log_events=True)
    kernel_events = [e for e in res.events if e.action in ("move", "transition")]
    assert {e.action for e in kernel_events} == {"move", "transition"}
    assert not any(gc.is_tracked(e) for e in kernel_events)


def test_every_logged_event_is_untracked_by_the_collector():
    """Entries, settles, shutdowns and failures, logged from Python, are
    built by the kernel too: no event of the log is tracked, and no
    record, whose fields are ints and a float."""
    region, params, *_ = GOLDEN["sltt-a2-adversarial-alpha-fail"]
    res = run(REGIONS[region](), SimParams(**params), log_events=True)
    assert {e.action for e in res.events} == {
        "enter", "move", "settle", "transition", "shutdown", "fail"}
    assert not any(gc.is_tracked(e) for e in res.events)
    assert res.sim.agents and not any(gc.is_tracked(a) for a in res.sim.agents)


def test_a_step_past_the_step_cap_keeps_the_termination():
    """Only the entry cell sets ``terminated`` at a step: a step past the
    cap ``run`` stopped at leaves ``step_cap`` as it is."""
    sim = engine.Simulation(square_region(9), SimParams(seed=1, max_steps=5))
    assert sim.run().metrics.terminated == engine.TERM_STEP_CAP
    sim.step()
    assert sim.terminated == engine.TERM_STEP_CAP

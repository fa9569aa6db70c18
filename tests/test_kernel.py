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
            kernel.sense(sim, a)


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


def test_awake_reads_back_the_records_assigned_across_word_boundaries():
    """``awake`` is a bitmap of 64-bit words over agent ids: records on
    either side of each word boundary read back as the ``frozenset``
    assigned, and an assignment that fails changes no bit."""
    sim = engine.Simulation(square_region(13), SimParams())
    for i in range(1, 130):  # mobile, each on its own air cell
        sim.place(AgentRecord(**{**TestBoundaryTypes.FIELDS, "id": i, "pos": i - 1}))
    chosen = frozenset(sim.agents[i - 1] for i in (1, 63, 64, 65, 127, 128, 129))
    sim.awake = iter(chosen)
    assert type(sim.awake) is frozenset and sim.awake == chosen
    with pytest.raises(engine.InvariantError, match="agent 2 cannot join"):
        sim.awake = [sim.agents[1], AgentRecord(**{**TestBoundaryTypes.FIELDS, "id": 2})]
    assert sim.awake == chosen
    sim.awake = ()
    assert sim.awake == frozenset()


def test_awake_refuses_an_agent_that_cannot_sense():
    """A shut-down or failed agent has no wake: assigning it to ``awake``
    raises the error its wake would, changes no bit, and the run steps on."""
    sim = engine.Simulation(square_region(3), SimParams())
    sim.step()
    (a,) = sim.agents
    for mode in (MODE_SHUTDOWN, MODE_FAILED):
        down = AgentRecord(**{**TestBoundaryTypes.FIELDS, "id": len(sim.agents) + 1,
                              "mode": mode})
        sim.place(down)
        with pytest.raises(ValueError, match=f"agent {down.id} cannot sense in mode "
                                             f"{MODE_NAMES[mode]}$"):
            sim.awake = [a, down]
        assert sim.awake == {a}
    sim.step()
    assert sim.t == 2 and len(sim.ac_series) == 2


def test_awake_cannot_change_while_the_world_is_stepping():
    """A seam may read ``awake`` during a step but not assign it: the
    step's wake order is read off the bits."""
    sim = engine.Simulation(square_region(5), SimParams(seed=1))
    stream, raised = sim.draw, []

    def draw():
        before = sim.awake
        try:
            sim.awake = set()
        except RuntimeError as e:
            raised.append(str(e))
        assert sim.awake == before
        return stream()

    for _ in range(3):
        sim.step()
    sim.draw = draw
    sim.step()
    assert raised and set(raised) == {"awake cannot change while the world is stepping"}
    assert sim.t == 4 and len(sim.ac_series) == 4


def test_awake_is_a_view_that_only_assignment_changes():
    """``Simulation.awake`` is a ``frozenset`` read off the world: adding
    to it in place is refused, not silently lost."""
    sim = engine.Simulation(square_region(3), SimParams())
    sim.step()
    (a,) = sim.agents
    assert sim.awake == {a}
    with pytest.raises(AttributeError):
        sim.awake.add(a)
    sim.awake -= {a}
    assert sim.awake == frozenset()


class TestSimulationIsTheWorld:
    """A ``Simulation`` is the kernel's ``world`` of its run, one object
    with fixed slots, which checks its parameters and sinks once."""

    def test_a_simulation_is_a_world_without_a_dict(self):
        sim = engine.Simulation(square_region(3), SimParams())
        assert isinstance(sim, kernel.world)
        assert not hasattr(sim, "__dict__")
        with pytest.raises(AttributeError):
            sim.extra = 1

    @pytest.mark.parametrize("name", ["region", "p", "events", "ac_series"])
    def test_the_runs_own_objects_are_read_only(self, name):
        sim = engine.Simulation(square_region(3), SimParams(), log_events=True)
        before = getattr(sim, name)
        with pytest.raises(AttributeError):
            setattr(sim, name, None)
        assert getattr(sim, name) is before

    def test_params_are_validated_once_per_simulation(self):
        calls = []

        class Counted(SimParams):
            def validate(self):
                calls.append(self)
                return super().validate()

        params = Counted(seed=1)
        engine.Simulation(square_region(3), params).run()
        assert len(calls) == 1 and calls[0] is params
        with pytest.raises(ParamError, match="dt"):
            kernel.world(square_region(3), SimParams(dt=0))


class TestPlace:
    """``world.place`` is the one way to add an agent by hand.  It checks
    the record in full first: a refused record changes nothing, and the
    run goes on as one that was never offered it."""

    PARAMS = SimParams(seed=1, e0=12, dt=1)

    def started(self):
        """A run of ``square:5`` 8 steps in, with mobiles and settled agents."""
        sim = engine.Simulation(square_region(5), self.PARAMS, log_events=True)
        for _ in range(8):
            sim.step()
        return sim

    @staticmethod
    def next_record(sim, **kw):
        """The run's next agent, mobile on a free cell, changed by ``kw``."""
        return AgentRecord(**{**TestBoundaryTypes.FIELDS, "id": len(sim.agents) + 1,
                              "pos": sim.air.index(None), **kw})

    @staticmethod
    def occupied(sim, mode):
        return next(a.pos for a in sim.agents if a.mode == mode)

    REFUSED = {  # case: (the record offered, the error, its message)
        "not-a-record": (lambda self, sim: SimpleNamespace(**TestBoundaryTypes.FIELDS),
                         TypeError, "expected an AgentRecord"),
        "id-taken": (lambda self, sim: self.next_record(sim, id=len(sim.agents)),
                     engine.InvariantError, "agent 8 cannot be placed: the next agent's id is 9"),
        "id-skipped": (lambda self, sim: self.next_record(sim, id=len(sim.agents) + 2),
                       engine.InvariantError, "the next agent's id is 9"),
        "air-occupied": (lambda self, sim: self.next_record(
            sim, pos=self.occupied(sim, MODE_MOBILE)),
            engine.InvariantError, "agent 9 cannot be placed on an occupied cell"),
        "ground-occupied": (lambda self, sim: self.next_record(
            sim, mode=MODE_SETTLED, s1=S_BEACON, pos=self.occupied(sim, MODE_SETTLED)),
            engine.InvariantError, "agent 9 cannot be placed on an occupied cell"),
        "below-the-region": (lambda self, sim: self.next_record(sim, pos=-1),
                             IndexError, "cell -1 lies outside the region"),
        "past-the-region": (lambda self, sim: self.next_record(sim, mode=MODE_SHUTDOWN, pos=25),
                            IndexError, "cell 25 lies outside the region"),
    }

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_a_refused_record_changes_nothing(self, case):
        offer, error, match = self.REFUSED[case]
        sim = self.started()
        before = (sim.agents, sim.ground, sim.air, sim.awake, list(sim.ac_series))
        with pytest.raises(error, match=match):
            sim.place(offer(self, sim))
        assert (sim.agents, sim.ground, sim.air, sim.awake, list(sim.ac_series)) == before
        assert_same_run(sim.run(), run(square_region(5), self.PARAMS, log_events=True))

    def test_a_wall_cell_is_refused(self):
        """A record on a wall cell is refused, on either layer, and the run
        goes on as one that was never offered it."""
        region = parse_region("...\n.WE\n...\n")
        sim = engine.Simulation(region, self.PARAMS, log_events=True)
        for mode, s1 in ((MODE_MOBILE, S_MOBILE), (MODE_SETTLED, S_BEACON)):
            with pytest.raises(ValueError, match="agent 1 cannot be placed on a wall cell"):
                sim.place(AgentRecord(**{**TestBoundaryTypes.FIELDS, "mode": mode, "s1": s1,
                                         "pos": 4}))
        assert sim.agents == () and sim.ground == sim.air == (None,) * 9
        assert_same_run(sim.run(), run(region, self.PARAMS, log_events=True))

    def test_a_seam_cannot_place_during_a_step(self):
        sim = self.started()
        stream, raised = sim.draw, []

        def draw():
            try:
                sim.place(self.next_record(sim))
            except RuntimeError as e:
                raised.append(str(e))
            return stream()

        sim.draw = draw
        sim.step()
        sim.draw = stream
        assert raised and set(raised) == {"an agent cannot be placed while the world is stepping"}
        assert_same_run(sim.run(), run(square_region(5), self.PARAMS, log_events=True))

    def test_a_placed_record_takes_its_cell_but_neither_wakes_nor_counts(self):
        """A placed record is the next agent and its cell's occupant on the
        layer of its mode; it does not join ``awake``, and a settled one is
        not counted in ``ac_series``."""
        sim = engine.Simulation(square_region(3), SimParams())
        settled = AgentRecord(**{**TestBoundaryTypes.FIELDS, "mode": MODE_SETTLED,
                                 "s1": S_BEACON, "pos": 0})
        mobile = AgentRecord(**{**TestBoundaryTypes.FIELDS, "id": 2, "pos": 0})
        down = AgentRecord(**{**TestBoundaryTypes.FIELDS, "id": 3, "mode": MODE_FAILED, "pos": 0})
        for a in (settled, mobile, down):
            sim.place(a)
        assert sim.agents == (settled, mobile, down)
        assert sim.ground == (settled,) + (None,) * 8 and sim.air == (mobile,) + (None,) * 8
        assert sim.awake == frozenset()
        sim.step()
        assert sim.ac_series == [0] and sim.agents[3].id == 4


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_views_read_the_records_by_id_cell_and_mode(name):
    """After a run, ``agents`` holds the records in id order, and each
    layer holds every agent of its mode at its cell and nothing else.
    The views are tuples: no assignment reaches the world."""
    region, params, *_ = GOLDEN[name]
    sim = run(REGIONS[region](), SimParams(**params)).sim
    agents, ground, air = sim.agents, sim.ground, sim.air
    assert type(agents) is type(ground) is type(air) is tuple
    assert [a.id for a in agents] == list(range(1, len(agents) + 1))
    assert len(ground) == len(air) == sim.region.width * sim.region.height
    for layer, mode in ((ground, MODE_SETTLED), (air, MODE_MOBILE)):
        occupants = [a for a in agents if a.mode == mode]
        assert [(c, a) for c, a in enumerate(layer) if a is not None] == sorted(
            ((a.pos, a) for a in occupants), key=lambda ca: ca[0])
    for name, view in (("agents", agents), ("ground", ground), ("air", air)):
        with pytest.raises(TypeError):
            view[0] = None
        with pytest.raises(AttributeError):
            setattr(sim, name, list(view))
    assert (sim.agents, sim.ground, sim.air) == (agents, ground, air)


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
            engine.Simulation(square_region(3), SimParams()),
            SimpleNamespace(**self.FIELDS)),
            "expected an AgentRecord"),
        "sense-world": (lambda self: kernel.sense(
            reference.ReferenceSimulation(square_region(3), SimParams()),
            AgentRecord(**self.FIELDS)),
            "expected a world"),
        "awake-id": (lambda self: self.step_waking(1), "expected an AgentRecord"),
        "awake-stranger": (lambda self: self.step_waking(AgentRecord(**self.FIELDS)),
                           "agent 1 cannot join this step's wake order", engine.InvariantError),
        "world-both-sinks": (lambda self: self.world(
            kernel.world, log_events=True, on_events=[].append),
            "pass either log_events or on_events, not both", ValueError),
        "world-on-events": (lambda self: self.world(kernel.world, on_events=42),
                            "on_events is a callable or None"),
        "simulation-both-sinks": (lambda self: self.world(
            engine.Simulation, log_events=True, on_events=[].append),
            "pass either log_events or on_events, not both", ValueError),
        "simulation-on-events": (lambda self: self.world(engine.Simulation, on_events=42),
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
    def world(cls, **sinks):
        """A ``cls``, a world, of ``square:3`` built with the sinks given."""
        return cls(square_region(3), SimParams(), **sinks)

    @staticmethod
    def step_waking(item):
        """Step a run once its first agent is in, with ``awake`` holding
        ``item`` alone: an id, or a record that is not the run's agent 1."""
        sim = engine.Simulation(square_region(3), SimParams())
        sim.step()
        sim.awake = {item}
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
            kernel.sense(sim, AgentRecord(**{**self.FIELDS, "pos": pos}))

    @pytest.mark.parametrize("pos", [-1, 9])
    def test_a_record_outside_the_region_raises_index_error_from_step(self, pos):
        """A placed record moved to a cell outside the region: the step
        reads no cell off the region's arrays for it."""
        for scheduler in ("random", "adversarial"):
            sim = engine.Simulation(square_region(3), SimParams(scheduler=scheduler))
            a = AgentRecord(**self.FIELDS)
            sim.place(a)
            a.pos = pos
            sim.awake |= {a}
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


def test_every_logged_event_is_untracked_by_the_collector():
    """Each logged event holds ints, a str and a float, whatever its
    action: the kernel leaves every one out of the cyclic collector's
    walks, and no record, whose fields are ints and a float, is tracked."""
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

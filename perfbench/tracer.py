"""Outside-in tracing of one ``gridswarm`` pass.

The tracer replaces, from outside the package, the names the program
looks up at call time, so the package itself is unchanged:

* spans (name, parent, start, end) around ``cli.main``,
  ``cli.load_region``, ``cli.run`` (the engine entry point) and
  ``Simulation.run``, and one span per ``Simulation.step`` together with
  the time its timed children took;
* per-call aggregates (calls, seconds) below step level:
  ``engine.sense``, the ``REGISTRY`` decide functions and
  ``Event.format``.

Spans are kept in memory and written out once the pass has finished.
Install it only in a process that runs a single pass: the patches are
never undone.
"""
from __future__ import annotations

import csv
from array import array
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index, start, end]
        self._open: list[int] = []
        self.calls: dict[str, list] = {}  # name -> [calls, seconds]
        self.child_s = 0.0  # running total of timed time below step level
        self.step_start = array("d")
        self.step_end = array("d")
        self.step_child = array("d")
        self.step_parent = array("l")
        self.settled_changes = 0
        self.settled_agent_steps = 0  # sum of ac_series over all runs
        self.events_logged = 0

    def install(self) -> None:
        import gridswarm.cli as cli
        import gridswarm.engine as engine
        import gridswarm.rules as rules

        cli.main = self._span("cli.main", cli.main)
        cli.load_region = self._span("grid.load_region", cli.load_region)
        cli.run = self._span("engine.run", cli.run)
        engine.Simulation.run = self._span(
            "engine.Simulation.run", engine.Simulation.run, self._on_result
        )
        engine.Simulation.step = self._step(engine.Simulation.step)
        engine.sense = self._calls("agents.sense", engine.sense, child=True)
        engine.Event.format = self._calls("cli.event_format", engine.Event.format)
        for alg, (mobile, settled) in rules.REGISTRY.items():
            rules.REGISTRY[alg] = (
                self._calls("rules.mobile_decide", mobile, child=True),
                self._settled(settled),
            )

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, open_[-1] if open_ else -1, perf_counter(), 0.0])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][3] = perf_counter()
                open_.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _on_result(self, result) -> None:
        self.settled_agent_steps += sum(result.metrics.ac_series)
        if result.events is not None:
            self.events_logged += len(result.events)

    def _step(self, fn):
        starts, ends, child, parents = (
            self.step_start,
            self.step_end,
            self.step_child,
            self.step_parent,
        )
        open_ = self._open

        def step(sim):
            c0 = self.child_s
            t0 = perf_counter()
            fn(sim)
            t1 = perf_counter()
            starts.append(t0)
            ends.append(t1)
            child.append(self.child_s - c0)
            parents.append(open_[-1])

        return step

    def _calls(self, name, fn, child=False):
        agg = self.calls.setdefault(name, [0, 0.0])

        def wrapper(*args):
            t0 = perf_counter()
            result = fn(*args)
            dt = perf_counter() - t0
            agg[0] += 1
            agg[1] += dt
            if child:
                self.child_s += dt
            return result

        return wrapper

    def _settled(self, fn):
        timed = self._calls("rules.settled_decide", fn, child=True)

        def wrapper(a, xi, p, approach):
            s1 = a.s1
            new_s1 = timed(a, xi, p, approach)
            if new_s1 != s1:
                self.settled_changes += 1
            return new_s1

        return wrapper

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Totals per span name, per-call aggregates and counts."""
        spans: dict[str, list] = {}
        for name, _, start, end in self.spans:
            agg = spans.setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += end - start
        step_s = sum(self.step_end) - sum(self.step_start)
        return {
            "spans": spans,
            "calls": self.calls,
            "steps": len(self.step_start),
            "step_s": step_s,
            "step_self_s": step_s - sum(self.step_child),
            "settled_changes": self.settled_changes,
            "settled_agent_steps": self.settled_agent_steps,
            "events_logged": self.events_logged,
        }

    def write_spans(self, path: str) -> None:
        """One CSV row per span, times in microseconds from the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "name", "start_us", "end_us", "child_us"])
            for i, (name, parent, start, end) in enumerate(self.spans):
                w.writerow([i, parent, name, _us(start - t0), _us(end - t0), ""])
            base = len(self.spans)
            for i in range(len(self.step_start)):
                w.writerow(
                    [
                        base + i,
                        self.step_parent[i],
                        "engine.Simulation.step",
                        _us(self.step_start[i] - t0),
                        _us(self.step_end[i] - t0),
                        _us(self.step_child[i]),
                    ]
                )


def _us(seconds: float) -> str:
    return f"{seconds * 1e6:.1f}"

"""Benchmark of the ``gridswarm`` CLI.

Usage (from the repository root)::

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs in turn.  Each pass runs one
``gridswarm`` command through ``gridswarm.cli.main`` in a fresh
interpreter (see ``worker.py``), one process at a time, and its outputs
are checked: at the default seed against the sha256 digests recorded at
the seed commit in ``baseline.json``, at any other seed against the
first pass of the same run.  The last line printed for a workload is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics, taken as medians over the
passes that fit in ``--seconds`` (at least three):

* ``setup_s``: ``import gridswarm.cli`` plus ``load_region``, timed in
  every pass process and in extra set-up-only processes;
* ``wall_s``: the ``cli.main`` call;
* ``steps_per_s``: simulated steps (T_C + 1 summed over the run CSV)
  per second of ``wall_s``;
* ``peak_rss_mb``: ``ru_maxrss`` of the pass process.

The share of passes that raised, exited non-zero or produced an output
whose digest did not match is printed as ``error_rate`` and carried by
``failed`` / ``attempted``.

``--trace 1`` runs one untimed reference pass and then traced passes
(see ``tracer.py``), checks that traced outputs match the reference and
that every count repeats exactly, and reports the per-layer metrics.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, Pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

DEFAULT_SEED = 0
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_PROBES = 2  # set-up-only processes per run, after one untimed warm-up
PASS_TIMEOUT_S = 50  # three timed-out passes still end a run within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "engine.steps": "count",
    "engine.wakes_mobile": "count",
    "engine.wakes_settled": "count",
    "engine.us_per_wake": "us",
    "engine.step.self_us_per_step": "us",
    "engine.settled_wake_ratio": "ratio",
    "engine.events_logged": "count",
    "agents.sense.calls": "count",
    "agents.sense.us_per_call": "us",
    "rules.mobile_decide.us_per_call": "us",
    "rules.settled_decide.us_per_call": "us",
    "rules.settled_decide.change_ratio": "ratio",
    "grid.load_region.s": "s",
    "cli.self_s": "s",
    "cli.event_format.us_per_call": "us",
    "cli.sweep.overhead_us_per_run": "us",
    "trace.overhead_ratio": "ratio",
}

# Per-layer metrics that are counts: a traced pass must repeat them exactly.
COUNTS = [name for name, unit in PER_LAYER_UNITS.items() if unit == "count"]


class HarnessError(RuntimeError):
    """The benchmark cannot run at all, e.g. the package is missing."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _worker(job: dict, job_path: Path) -> dict | None:
    """Run one worker process; None if it failed or timed out."""
    job_path.write_text(json.dumps(job))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            capture_output=True,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _argv(spec: Pass, d: Path) -> list[str]:
    (d / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in spec.config.items()))
    argv = [spec.command, "--config", str(d / "run.cfg"), "--out", str(d / "runs.csv")]
    for key, values in spec.vary.items():
        argv += ["--vary", f"{key}={','.join(str(v) for v in values)}"]
    if spec.command == "sweep":
        argv += ["--seeds", str(spec.seeds)]
    if spec.agg:
        argv += ["--agg", str(d / "agg.csv")]
    if spec.events:
        argv += ["--log-events", str(d / "events.csv")]
    return argv


class Runner:
    """Runs the passes of one workload at one seed inside a scratch directory."""

    def __init__(self, spec: Pass, work: Path, on_outputs=None):
        self.spec = spec
        self.work = work
        self.on_outputs = on_outputs  # self-check hook: may alter outputs
        self.n = 0

    def setup_probe(self) -> float:
        res = _worker(
            {"src": str(SRC), "region": self.spec.region, "argv": None},
            self.work / "probe.json",
        )
        if res is None:
            raise HarnessError("the gridswarm package could not be imported")
        return res["setup_s"]

    def run_pass(self, trace: bool = False, spans: Path | None = None) -> dict | None:
        """One pass; its timings plus output digests, step and run counts."""
        self.n += 1
        d = self.work / f"pass{self.n}"
        d.mkdir(parents=True)
        job = {
            "src": str(SRC),
            "region": self.spec.region,
            "argv": _argv(self.spec, d),
            "trace": trace,
            "spans": str(spans) if spans else None,
        }
        res = _worker(job, d / "job.json")
        if res is not None and res["rc"] == 0:
            if self.on_outputs is not None:
                self.on_outputs(d)
            res["digests"] = {
                name: sha256(d / name)
                for name in ("runs.csv", "agg.csv", "events.csv")
                if (d / name).exists()
            }
            try:
                with (d / "runs.csv").open(newline="") as fh:
                    rows = list(csv.DictReader(fh))
                res["runs"] = len(rows)
                res["steps"] = sum(int(r["T_C"]) + 1 for r in rows)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                print(f"unreadable run CSV: {exc!r}", file=sys.stderr)
                res = None
        else:
            res = None
        shutil.rmtree(d)
        return res


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    on_outputs=None,
) -> dict:
    """Run one workload; returns the result object the benchmark prints."""
    if not (SRC / "gridswarm" / "cli.py").is_file():
        raise HarnessError(f"no gridswarm package under {SRC}")
    spec = WORKLOADS[name].build(seed, tiny)
    expected = None
    if seed == DEFAULT_SEED and not tiny:
        expected = json.loads((HERE / "baseline.json").read_text())["digests"][name]
    work = OUT / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(spec, work, on_outputs)
    try:
        runner.setup_probe()  # warm-up: writes bytecode, fills the file cache
        if trace:
            return _traced(name, seed, seconds, runner, expected)
        return _timed(seconds, runner, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _timed(seconds: float, runner: Runner, expected: dict | None) -> dict:
    setups = [runner.setup_probe() for _ in range(SETUP_PROBES)]
    passes, attempted, failed, digests = [], 0, 0, expected
    start, last = perf_counter(), 0.0
    while attempted < MIN_PASSES or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        res = runner.run_pass()
        last = perf_counter() - t0
        attempted += 1
        if res is None:
            failed += 1
            continue
        digests = digests or res["digests"]
        if res["digests"] != digests:
            failed += 1
        setups.append(res["setup_s"])
        passes.append(res)
    if not passes:
        raise HarnessError("every pass failed")
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "steps_per_s": statistics.median(p["steps"] / p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    walls = [p["wall_s"] for p in passes]
    return _result(attempted, failed, metrics, END_TO_END_UNITS, digests, walls)


def _result(attempted, failed, metrics, units, digests, walls) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "digests": digests,
        "walls": walls,
    }


def _traced(name, seed, seconds, runner: Runner, expected: dict | None) -> dict:
    spans = OUT / f"spans-{name}-seed{seed}.csv"
    start = perf_counter()
    ref = runner.run_pass()
    attempted, failed = 1, 0
    if ref is None or (expected is not None and ref["digests"] != expected):
        failed += 1
    digests = expected or (ref and ref["digests"])
    layers, walls, counts = [], [], None
    last = 0.0
    while attempted - 1 < MIN_TRACED_PASSES or perf_counter() - start + last <= seconds:
        t0 = perf_counter()
        res = runner.run_pass(trace=True, spans=spans)
        last = perf_counter() - t0
        attempted += 1
        if res is None or res["digests"] != digests:
            failed += 1
            continue
        m = layer_metrics(res, ref["wall_s"] if ref else res["wall_s"])
        c = {k: m[k] for k in COUNTS}
        if counts is None:
            counts = c
        elif c != counts:
            print(f"trace counts differ between passes: {counts} vs {c}", file=sys.stderr)
            failed += 1
            continue
        layers.append(m)
        walls.append(res["wall_s"])
    if not layers:
        raise HarnessError("every traced pass failed")
    metrics = {k: statistics.median(m[k] for m in layers) for k in PER_LAYER_UNITS}
    metrics.update(counts)  # identical in every traced pass
    return _result(attempted, failed, metrics, PER_LAYER_UNITS, digests, walls)


def layer_metrics(res: dict, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced pass."""
    t = res["trace"]
    spans, calls = t["spans"], t["calls"]
    sense_n, sense_s = calls["agents.sense"]
    mob_n, mob_s = calls["rules.mobile_decide"]
    set_n, set_s = calls["rules.settled_decide"]
    fmt_n, fmt_s = calls["cli.event_format"]
    engine_s = spans["engine.run"][1]
    cli_self_s = spans["cli.main"][1] - engine_s - spans["grid.load_region"][1]
    return {
        "engine.steps": t["steps"],
        "engine.wakes_mobile": mob_n,
        "engine.wakes_settled": set_n,
        "engine.us_per_wake": 1e6 * engine_s / (mob_n + set_n),
        "engine.step.self_us_per_step": 1e6 * t["step_self_s"] / t["steps"],
        "engine.settled_wake_ratio": set_n / t["settled_agent_steps"],
        "engine.events_logged": t["events_logged"],
        "agents.sense.calls": sense_n,
        "agents.sense.us_per_call": 1e6 * sense_s / sense_n,
        "rules.mobile_decide.us_per_call": 1e6 * mob_s / mob_n,
        "rules.settled_decide.us_per_call": 1e6 * set_s / set_n,
        "rules.settled_decide.change_ratio": t["settled_changes"] / set_n,
        "grid.load_region.s": spans["grid.load_region"][1],
        "cli.self_s": cli_self_s,
        "cli.event_format.us_per_call": 1e6 * fmt_s / fmt_n if fmt_n else 0.0,
        "cli.sweep.overhead_us_per_run": 1e6 * cli_self_s / res["runs"],
        "trace.overhead_ratio": res["wall_s"] / untraced_wall_s,
    }


def report(name: str, seed: int, result: dict) -> None:
    """Print the human-readable table, then the result as the last line."""
    digests, walls = result.pop("digests"), result.pop("walls")
    print(f"== {name} (seed {seed}) ==")
    for key, m in result["metrics"].items():
        print(f"{name}  {key:<36} {m['value']:>14.6g} {m['unit']}")
    error_rate = result["failed"] / result["attempted"]
    print(f"{name}  {'error_rate':<36} {error_rate:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']} passes)")
    print(f"{name}  wall_s of the {len(walls)} measured passes: "
          + " ".join(f"{w:.3f}" for w in walls))
    for file, digest in sorted((digests or {}).items()):
        print(f"{name}  sha256 {file:<12} {digest}")
    print(json.dumps(result), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        for name in names:
            report(name, args.seed, measure(name, args.seed, args.seconds, bool(args.trace)))
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

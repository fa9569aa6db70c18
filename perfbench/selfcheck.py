"""Fast self-check of the benchmark harness (about half a minute).

Usage: ``python3 perfbench/selfcheck.py`` from the repository root.

Runs tiny versions of every workload, timed and traced, and checks that
every metric in ``BENCHMARK.json`` prints with its unit, that the last
line is the result object, and that a corrupted output is counted in
``error_rate``.  Exits non-zero on the first failed check.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys

import run

EXPECTED_KEYS = {"correct", "attempted", "failed", "metrics"}
SEED = 1


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selfcheck FAILED: {what}")


def printed(name: str, result: dict) -> tuple[str, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.report(name, SEED, result)
    text = buf.getvalue()
    last = json.loads(text.strip().splitlines()[-1])
    check(set(last) == EXPECTED_KEYS, f"{name}: result keys {sorted(last)}")
    return text, last


def check_metrics(name: str, text: str, last: dict, spec: list[dict]) -> None:
    for m in spec:
        check(
            any(line.split()[1:2] == [m["name"]] and line.endswith(" " + m["unit"])
                for line in text.splitlines()),
            f"{name}: metric {m['name']} [{m['unit']}] not printed",
        )
        got = last["metrics"].get(m["name"])
        check(got is not None and got["unit"] == m["unit"], f"{name}: {m['name']} in result")
    check(len(last["metrics"]) == len(spec), f"{name}: unexpected metrics in result")


def main() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(
        {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS,
        "BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS",
    )
    check(
        {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS,
        "BENCHMARK.json per_layer differs from run.PER_LAYER_UNITS",
    )
    check(
        [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
        "BENCHMARK.json workloads differ from workloads.WORKLOADS",
    )

    for name in run.WORKLOADS:
        for trace, spec in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            text, last = printed(name, run.measure(name, SEED, 0, trace, tiny=True))
            check(last["correct"] and last["failed"] == 0, f"{name}: tiny pass failed")
            check_metrics(name, text, last, spec)
            if not trace:
                check("error_rate" in text and " 0 ratio" in text, f"{name}: error_rate")
        print(f"ok  {name}")

    # A corrupted output of one pass must count as a failed pass.
    passes = []

    def corrupt_second(d):
        passes.append(d)
        if len(passes) == 2:
            lines = (d / "runs.csv").read_text().splitlines(keepends=True)
            (d / "runs.csv").write_text("".join(lines + lines[-1:]))

    name = "run-square101-events"
    text, last = printed(name, run.measure(name, SEED, 0, False, tiny=True,
                                           on_outputs=corrupt_second))
    check(not last["correct"] and last["failed"] == 1, "corrupted output not counted")
    check(f"{1 / last['attempted']:.6g} ratio" in text, "error_rate of the corrupted run")
    print("ok  corrupted output counted in error_rate")
    print("selfcheck passed")


if __name__ == "__main__":
    main()

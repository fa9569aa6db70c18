"""Run one benchmark pass in this fresh interpreter and print its timings as JSON.

Usage: ``python3 perfbench/worker.py JOB.json`` where the job holds
``src`` (the package source directory), ``region`` (the region spec the
set-up loads), ``argv`` (the ``gridswarm`` arguments, or null to time
the set-up alone), ``trace`` and ``spans`` (where a traced pass writes
its spans).
"""
from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, job["src"])

    t0 = perf_counter()
    import gridswarm.cli as cli

    cli.load_region(job["region"])
    out: dict = {"setup_s": perf_counter() - t0}

    if job["argv"] is not None:
        tracer = None
        if job["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t1 = perf_counter()
        rc = cli.main(job["argv"])
        out["wall_s"] = perf_counter() - t1
        out["rc"] = rc
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            out["trace"] = tracer.summary()
            tracer.write_spans(job["spans"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()

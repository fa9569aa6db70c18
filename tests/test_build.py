"""Building and loading the compiled kernel: the cache key, a cached
import that runs no compiler, a failing build, warnings, no reference
leaks over many runs, and a clean run under the sanitizers."""
import gc
import os
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from pathlib import Path

import pytest

import gridswarm
from gridswarm import SimParams, _build, run, square_region
from gridswarm.agents import MODE_MOBILE, S_MOBILE, AgentRecord

SRC = Path(gridswarm.__file__).resolve().parent.parent


def test_cache_key_follows_the_source_and_the_interpreter():
    source = _build.SOURCE.read_bytes()
    path = _build.cache_path(source)
    assert path.parent == _build.CACHE
    assert path.name.endswith(_build.SUFFIX)
    assert _build.cache_path(source) == path
    assert _build.cache_path(source + b"\n") != path
    assert path.exists()  # this interpreter imported the package from it


def test_second_load_runs_no_compiler(tmp_path):
    log = tmp_path / "calls"
    cc = tmp_path / "cc"
    cc.write_text(f'#!/bin/sh\necho x >> "{log}"\nexec {" ".join(_build.compiler())} "$@"\n')
    cc.chmod(0o755)
    for _ in range(2):
        module = _build.load(cache=tmp_path / "cache", cc=[str(cc)])
        assert module.format_event is not None
    assert log.read_text() == "x\n"
    assert [p.name for p in (tmp_path / "cache").iterdir()] == [
        _build.cache_path(_build.SOURCE.read_bytes()).name
    ]


def test_build_removes_stale_libraries_of_this_interpreter_only(tmp_path):
    """A build deletes the libraries this interpreter built from other
    sources; another interpreter's library stays."""
    cache = tmp_path / "cache"
    cache.mkdir()
    other_suffix = ".cpython-0-other.so"
    assert other_suffix != _build.SUFFIX
    stale = cache / f"_kernel.deadbeef{_build.SUFFIX}"
    other = cache / f"_kernel.x{other_suffix}"
    stale.write_bytes(b"")
    other.write_bytes(b"")
    _build.load(cache=cache)
    built = _build.cache_path(_build.SOURCE.read_bytes(), cache)
    assert sorted(p.name for p in cache.iterdir()) == sorted([built.name, other.name])


def test_cached_import_runs_no_compiler(tmp_path):
    """With the library cached, a fresh interpreter imports the package
    while every compiler on its path fails."""
    for name in ("gcc", "cc", *_build.compiler()[:1]):
        stub = tmp_path / Path(name).name
        stub.write_text("#!/bin/sh\necho compiler ran >&2\nexit 1\n")
        stub.chmod(0o755)
    env = {**os.environ, "PATH": f"{tmp_path}{os.pathsep}{os.environ.get('PATH', '')}",
           "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", "import gridswarm.cli"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_failing_compiler_raises_import_error(tmp_path):
    cc = tmp_path / "cc"
    cc.write_text("#!/bin/sh\necho 'error: no compiler here' >&2\nexit 1\n")
    cc.chmod(0o755)
    with pytest.raises(ImportError, match="no compiler here"):
        _build.load(cache=tmp_path / "cache", cc=[str(cc)])
    assert not any((tmp_path / "cache").iterdir())  # no half-written file
    with pytest.raises(ImportError, match="cannot run the C compiler"):
        _build.load(cache=tmp_path / "cache", cc=[str(tmp_path / "missing")])
    with pytest.raises(ImportError, match="cannot write the kernel"):
        _build.load(cache=cc / "cache", cc=[str(cc)])  # a file is no directory


def test_source_compiles_without_warnings(tmp_path):
    cmd = [*_build.compiler(), *_build.CFLAGS, "-Wall", "-Wextra", "-Werror",
           "-I", sysconfig.get_paths()["include"], str(_build.SOURCE),
           "-o", str(tmp_path / "k.so")]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_runs_leak_no_memory():
    """50 more runs per algorithm, each once with the event log and once
    streaming it, grow the traced heap by less than 64 KB: the kernel
    drops every reference it takes, frees the world's text buffer, and
    frees each view of the agents and the layers and each record placed
    on every free air cell of a finished run."""
    region = square_region(9)

    def read_and_place(sim):
        for cell, a in enumerate(sim.air):
            if a is None:
                sim.place(AgentRecord(id=len(sim.agents) + 1, mode=MODE_MOBILE,
                                      s1=S_MOBILE, s2=0, pos=cell, energy=1.0))
        assert sim.ground and sim.air

    def runs(seeds):
        for alg in ("sllg-ea", "slug-ea", "sltt-ea"):
            for seed in seeds:
                p = SimParams(algorithm=alg, approach=1 + seed % 2, e0=10, dt=2,
                              alpha=0.05 * (seed % 3), seed=seed,
                              scheduler=("random", "adversarial")[seed // 2 % 2])
                res = run(region, p, log_events=True)
                res.events[0].format()
                read_and_place(res.sim)
                read_and_place(run(region, p, on_events=[].append).sim)

    runs(range(10))  # warm the caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        runs(range(10, 60))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024


# The files a sanitized kernel runs: every wake path, the reference
# oracle, the golden runs, the streamed log's buffer and ``square:21``,
# whose logged cells are int objects past the small ints.  A kernel whose
# ``awake`` bitmap grows one word short aborts at the third test of
# ``test_kernel.py``, with ``heap-buffer-overflow`` in ``awake_join``
# under the first entry.  One whose agents array grows one entry short
# aborts at its fifth test (``sllg-a2-adversarial-alpha-fail``), with
# ``heap-buffer-overflow`` in ``append`` under ``enter``, the 64th entry;
# one whose ground layer is allocated one cell short aborts at its sixth
# (``sllg-a2-random``), with ``heap-buffer-overflow`` in ``mark`` under
# ``settle``.  One whose ``world_dealloc`` frees the agents array before
# dropping the records' references aborts at its third test (the first
# golden run, ``sllg-a1-adversarial-walled``), with ``heap-use-after-free``
# in ``world_dealloc`` under ``subtype_dealloc``: a ``Simulation`` is a
# world, so its records are released on that path.
SANITIZED = ("test_kernel.py", "test_golden.py", "test_engine.py")


def test_kernel_runs_clean_under_address_and_undefined_behavior_sanitizers(tmp_path):
    """The kernel, golden and engine tests pass on a copy of the package
    whose kernel is built with the address and undefined-behavior
    sanitizers, and the sanitizers report nothing.  The sanitized library
    sits where ``_build.load`` looks for the copy's source, so the copy
    imports it without a build.  pytest's capture would hide a report, so
    the sanitizers write to files, and the test fails with their
    contents."""
    cc = _build.compiler()
    asan = subprocess.run([*cc, "-print-file-name=libasan.so.8"], capture_output=True,
                          text=True).stdout.strip()
    if not os.path.isabs(asan):
        pytest.skip(f"{cc[0]} has no libasan.so.8")
    package = tmp_path / "gridswarm"
    shutil.copytree(SRC / "gridswarm", package, ignore=shutil.ignore_patterns("__pycache__"))
    source = package / "_kernel.c"
    target = _build.cache_path(source.read_bytes(), package / "__pycache__")
    target.parent.mkdir()
    # -O1 -g keeps the reports' stacks readable; -ffp-contract=off keeps every digest.
    build = subprocess.run(
        [*cc, "-O1", "-g", "-fno-omit-frame-pointer", "-ffp-contract=off", "-fPIC", "-shared",
         "-fsanitize=address,undefined", "-I", sysconfig.get_paths()["include"], str(source),
         "-o", str(target)], capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    log = tmp_path / "sanitizer"
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "LD_PRELOAD": asan,
           "PYTHONMALLOC": "malloc", "ASAN_OPTIONS": f"detect_leaks=0:log_path={log}",
           "UBSAN_OPTIONS": f"halt_on_error=1:print_stacktrace=1:log_path={log}"}
    tests = [str(Path(__file__).parent / name) for name in SANITIZED]
    script = ("import sys, pytest, gridswarm._build as b\n"
              f"assert b.kernel.__file__ == {str(target)!r}, b.kernel.__file__\n"
              f"sys.exit(pytest.main(['-q', '-x', '-p', 'no:cacheprovider', *{tests!r}]))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path)
    reports = "".join(path.read_text() for path in sorted(tmp_path.glob("sanitizer.*")))
    assert proc.returncode == 0 and not reports, reports or proc.stdout[-4000:] + proc.stderr

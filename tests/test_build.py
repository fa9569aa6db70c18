"""Building and loading the compiled kernel: the cache key, a cached
import that runs no compiler, a failing build, warnings, and no
reference leaks over many runs."""
import gc
import os
import subprocess
import sys
import sysconfig
import tracemalloc
from pathlib import Path

import pytest

import gridswarm
from gridswarm import SimParams, _build, run, square_region

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
    """50 more runs per algorithm, with the event log, grow the traced
    heap by less than 64 KB: the kernel drops every reference it takes."""
    region = square_region(9)

    def runs(seeds):
        for alg in ("sllg-ea", "slug-ea", "sltt-ea"):
            for seed in seeds:
                p = SimParams(algorithm=alg, approach=1 + seed % 2, e0=10, dt=2,
                              alpha=0.05 * (seed % 3), seed=seed,
                              scheduler=("random", "adversarial")[seed // 2 % 2])
                run(region, p, log_events=True).events[0].format()

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

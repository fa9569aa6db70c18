"""Build and load the compiled kernel ``_kernel.c`` on first import.

The shared library is cached in this package's ``__pycache__`` under a
name keyed by the hash of the source and the compiler flags, with the
interpreter's extension suffix, so a changed source or another
interpreter builds its own copy and a cached import runs no compiler.
A build compiles into a temporary file and moves it into place with
``os.replace``, so concurrent imports never load a half-written file.
Building needs a C compiler (the interpreter's ``CC``, usually gcc) and
the Python headers.  If the build fails, the import raises
``ImportError`` with the compiler's output: there is no fallback.

A successful build deletes this interpreter's libraries of other
sources from the cache; those of other interpreters stay.  To rebuild,
delete the ``_kernel.*`` files in ``__pycache__``.
"""
from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
from pathlib import Path
from types import ModuleType

HERE = Path(__file__).resolve().parent
SOURCE = HERE / "_kernel.c"
CACHE = HERE / "__pycache__"
# Strict IEEE arithmetic: no contraction into fused multiply-adds, no
# -ffast-math and no -march, so every float is the one Python computes.
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]


def compiler() -> list[str]:
    """The interpreter's C compiler command."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def cache_path(source: bytes, cache: Path = CACHE) -> Path:
    """Where the library built from ``source`` is cached."""
    digest = hashlib.sha256(source + " ".join(CFLAGS).encode()).hexdigest()[:16]
    return cache / f"_kernel.{digest}{SUFFIX}"


def build(source: Path, target: Path, cc: list[str]) -> None:
    """Compile ``source`` into the library ``target``; ``ImportError`` on failure."""
    # Only a build needs these; a cached import skips loading them.
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_kernel.", suffix=".tmp", dir=target.parent)
    except OSError as exc:
        raise ImportError(f"cannot write the kernel to {target.parent}: {exc}") from exc
    os.close(fd)
    try:
        cmd = [*cc, *CFLAGS, "-I", sysconfig.get_paths()["include"], str(source), "-o", tmp]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise ImportError(f"cannot run the C compiler {cc[0]!r}: {exc}") from exc
        if proc.returncode != 0:
            raise ImportError(
                f"building {source.name} failed ({shlex.join(cmd)}):\n{proc.stderr}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    remove_stale(target)


def remove_stale(target: Path) -> None:
    """Delete the libraries beside ``target`` that this interpreter built
    from other sources: ``_kernel.<hash><SUFFIX>``, ``<hash>`` without a
    dot, so another interpreter's ``_kernel.<hash>.<its suffix>`` stays."""
    for path in target.parent.iterdir():
        name = path.name
        if (
            path != target
            and name.startswith("_kernel.")
            and name.endswith(SUFFIX)
            and "." not in name[len("_kernel.") : -len(SUFFIX)]
        ):
            try:
                path.unlink()
            except OSError:  # another process may have removed it first
                pass


def load(source: Path = SOURCE, cache: Path = CACHE, cc: list[str] | None = None) -> ModuleType:
    """The kernel module built from ``source``, compiled only if not cached."""
    target = cache_path(source.read_bytes(), cache)
    if not target.exists():
        build(source, target, compiler() if cc is None else cc)
    spec = importlib.util.spec_from_file_location("gridswarm._kernel", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


kernel = load()

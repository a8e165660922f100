"""Compile-on-demand loader for the native kernel library.

The native backend is plain C (``kernels.c``) compiled with whatever
system toolchain is available (``cc``/``gcc``/``clang``) and loaded via
:mod:`ctypes` -- no third-party build machinery, no wheels, no install
step.  Compilation happens at most once per build: the shared object is
cached under a name hashed from the C source, the compiler path and the
flags (:func:`library_name`), so changing any of them builds anew.

Flags matter for parity: ``-ffp-contract=off`` forbids fused
multiply-add contraction (gcc contracts by default, which would change
float results), and ``-ffast-math`` is never used, so ``-O3`` may
vectorize a loop but never reorder its float operations.  Every failure
mode (no compiler, sandboxed cc, unwritable cache) raises
:class:`NativeBuildError`; the dispatch layer in ``__init__`` turns that
into a clean numpy fallback under ``REPRO_KERNELS=auto``.

Run as a script, the module prints what a hand-made build needs to land
where the loader looks (it imports nothing from the package)::

    python src/repro/kernels/build.py compiler   # the compiler's path
    python src/repro/kernels/build.py flags      # the compile flags
    python src/repro/kernels/build.py name       # the cached file name
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

__all__ = ["NativeBuildError", "load_library", "cache_dir", "library_name"]

_SOURCE = Path(__file__).resolve().parent / "kernels.c"
_CFLAGS = ["-O3", "-ffp-contract=off", "-fPIC", "-shared"]


class NativeBuildError(RuntimeError):
    """The native kernel library could not be built or loaded."""


def cache_dir() -> Path:
    """Directory holding compiled kernel libraries (override via env)."""
    env = os.environ.get("REPRO_KERNELS_CACHE")
    if env:
        return Path(env)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro-kernels"


def _find_compiler() -> str:
    for cand in ("cc", "gcc", "clang"):
        path = shutil.which(cand)
        if path:
            return path
    raise NativeBuildError("no C compiler (cc/gcc/clang) on PATH")


def library_name(compiler: str | None = None) -> str:
    """File name of the cached library built by ``compiler`` (default:
    the one :func:`load_library` uses) from the current source and flags."""
    if compiler is None:
        compiler = _find_compiler()
    key = hashlib.sha256(_SOURCE.read_bytes())
    key.update("\0".join(["", compiler, *_CFLAGS]).encode())
    return f"librepro-kernels-{key.hexdigest()[:16]}.so"


def _compile(source: Path, out: Path, compiler: str) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    # build into a temp name, then atomically rename: concurrent
    # processes race benignly (last writer wins, all results identical)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=str(out.parent))
    os.close(fd)
    cmd = [compiler, *_CFLAGS, "-o", tmp, str(source), "-lm"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.SubprocessError) as exc:
        os.unlink(tmp)
        raise NativeBuildError(f"compiler invocation failed: {exc}") from exc
    if proc.returncode != 0:
        os.unlink(tmp)
        raise NativeBuildError(
            f"compilation failed ({' '.join(cmd)}):\n{proc.stderr.strip()}"
        )
    os.replace(tmp, out)


def load_library() -> ctypes.CDLL:
    """Compile (if needed) and load the native kernel library."""
    if not _SOURCE.exists():
        raise NativeBuildError(f"kernel source missing: {_SOURCE}")
    compiler = _find_compiler()
    lib_path = cache_dir() / library_name(compiler)
    if not lib_path.exists():
        try:
            _compile(_SOURCE, lib_path, compiler)
        except NativeBuildError:
            raise
        except OSError as exc:
            raise NativeBuildError(f"cannot write kernel cache: {exc}") from exc
    try:
        return ctypes.CDLL(str(lib_path))
    except OSError as exc:
        raise NativeBuildError(f"cannot load {lib_path}: {exc}") from exc


if __name__ == "__main__":
    queries = {
        "compiler": _find_compiler,
        "flags": lambda: " ".join(_CFLAGS),
        "name": library_name,
    }
    if len(sys.argv) != 2 or sys.argv[1] not in queries:
        sys.exit(f"usage: python {sys.argv[0]} {{{','.join(queries)}}}")
    print(queries[sys.argv[1]]())

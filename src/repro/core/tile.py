"""Builds, caches and loads the native kernel (``_tile.c``).

:func:`kernel` returns the loaded library, whose one entry point
:mod:`repro.core.engine` calls: ``scan_range`` (one call per λ range:
walk, gather, store, per-thread bounds, product, Equation 1 and the
range's winner).  There is no other scoring body: a C compiler is
required.  The first call in a process loads the library, once,
under a lock (two rank threads may make that call together):

* it is looked up in the cache directory, ``$XDG_CACHE_HOME/repro``
  (``~/.cache/repro`` when that is unset or relative), or
  ``tempfile.gettempdir()/repro`` when that is not writable — never
  the checkout;
* its file name is a hash of the C source, the compiler, the flags and
  the host CPU (the ``flags`` line of ``/proc/cpuinfo``, else
  ``platform.machine()``): ``-march=native`` code must not run on
  another CPU.  A hit starts no subprocess;
* on a miss it is compiled to a unique temporary name in the cache
  directory and ``os.replace``-d into place, so processes racing to
  build it each publish a whole file;
* if anything fails (no compiler, a compile error, an unloadable file)
  it raises one :class:`RuntimeError` that names the compiler, the
  flags and the cache directory; the next call tries again.

The library is opened with :class:`ctypes.CDLL`, which releases the
GIL for the length of each call, so rank threads scan in parallel.  It
is built with ``-ffp-contract=off`` (see :data:`FLAGS`): its F must be
:func:`repro.core.fscore.fscore`'s bit for bit.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
import threading
from pathlib import Path

__all__ = ["COMPILER", "FLAGS", "kernel"]

COMPILER = "gcc"
# -march=native is most of the speed (DESIGN §12): plain -O3 targets
# baseline x86-64, which has no popcount instruction, and loses to numpy.
# -ffp-contract=off: gcc may otherwise fuse the numerator's multiply and
# add into one FMA, which rounds once where numpy rounds twice (at TP 37,
# TN 7, alpha 0.1: 10.700000000000001 against 10.7).
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")

_SOURCE = Path(__file__).with_name("_tile.c")
_lock = threading.Lock()
_kernel = None


def _cpu() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return line
    except OSError:
        pass
    return platform.machine()


def _cache_dirs() -> tuple[Path, Path]:
    """The cache directory, then the one used when it is not writable."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the default
        base = Path.home() / ".cache"
    return Path(base) / "repro", Path(tempfile.gettempdir()) / "repro"


def _cache_dir() -> Path:
    for d in _cache_dirs():
        try:
            d.mkdir(parents=True, exist_ok=True)
        except OSError:
            continue
        if os.access(d, os.W_OK):
            return d
    raise OSError("no writable cache directory")


def _build() -> Path:
    """The cached library's path, compiling it on a miss."""
    source = _SOURCE.read_bytes()
    key = hashlib.sha256(
        b"\0".join([source, COMPILER.encode(), " ".join(FLAGS).encode(), _cpu().encode()])
    ).hexdigest()[:16]
    path = _cache_dir() / f"tile-{key}.so"
    if path.exists():
        return path
    fd, tmp = tempfile.mkstemp(prefix=f"{path.name}.", suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run(
            [COMPILER, *FLAGS, "-o", tmp, str(_SOURCE)],
            check=True, capture_output=True, timeout=300,
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _load() -> ctypes.CDLL:
    p, i, d = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib = ctypes.CDLL(str(_build()))
    # The call's table: tumor words, width; normal words, width; inner,
    # columns, d; the tumor and normal inner tables (normal NULL when
    # every thread's hits are stored); scratch; winner.  Then the range's
    # first tuple, threads, f; store counts, filled marks, least counts,
    # itemsize, stored threads; Nn, alpha, denominator.
    lib.scan_range.argtypes = [
        p, i, p, i, p, i, i, p, p, p, p, p, i, i, p, p, p, i, i, i, d, d,
    ]
    lib.scan_range.restype = i
    return lib


def kernel() -> ctypes.CDLL:
    """The loaded ``_tile.c``, with ``scan_range``; raises :class:`RuntimeError` when it cannot be built or loaded."""
    global _kernel
    if _kernel is None:
        with _lock:
            if _kernel is None:
                try:
                    _kernel = _load()
                except Exception as exc:
                    raise RuntimeError(
                        "the native kernel could not be built or loaded: "
                        f"{COMPILER} {' '.join(FLAGS)} {_SOURCE.name} into the "
                        f"cache directory {' or '.join(map(str, _cache_dirs()))} "
                        f"failed ({exc!r}{_stderr(exc)}); a C compiler is required"
                    ) from exc
    return _kernel


def _stderr(exc: Exception) -> str:
    err = getattr(exc, "stderr", None)
    return f": {err.decode(errors='replace').strip()[-2000:]}" if err else ""

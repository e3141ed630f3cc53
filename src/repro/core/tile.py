"""Builds, caches and loads the native tile kernel (``_tile.c``).

:func:`repro.core.engine._score_tile` calls :func:`kernel`, which
returns the one C entry point, ``tile_score`` (a whole tile: gather,
AND+popcount product, Equation 1 and the tile's winner), or ``None``
when the numpy fallback (:func:`repro.core.engine._score_tile_numpy`,
bit-identical) must run instead.  The first call in a process loads the
library, once, under a lock (two rank threads may make that call
together):

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
  it warns once and the fallback runs for the rest of the process.

The library is opened with :class:`ctypes.CDLL`, which releases the
GIL for the length of each call, so rank threads score tiles in
parallel.  It is built with ``-ffp-contract=off`` (see :data:`FLAGS`):
its F must be :func:`repro.core.fscore.fscore`'s bit for bit.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path

__all__ = ["COMPILER", "FALLBACK", "FLAGS", "kernel"]

#: Forces the numpy fallback when true (the tests' ``--tile-fallback``).
FALLBACK = False
COMPILER = "gcc"
# -march=native is most of the speed (DESIGN §12): plain -O3 targets
# baseline x86-64, which has no popcount instruction, and loses to numpy.
# -ffp-contract=off: gcc may otherwise fuse the numerator's multiply and
# add into one FMA, which rounds once where numpy rounds twice (at TP 37,
# TN 7, alpha 0.1: 10.700000000000001 against 10.7).  -fopenmp-simd lets
# the per-thread max vectorize; it links no OpenMP runtime.
FLAGS = (
    "-O3", "-march=native", "-ffp-contract=off", "-fopenmp-simd",
    "-shared", "-fPIC",
)

_SOURCE = Path(__file__).with_name("_tile.c")
_lock = threading.Lock()
_loaded = False
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


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the default
        base = Path.home() / ".cache"
    for d in (Path(base) / "repro", Path(tempfile.gettempdir()) / "repro"):
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


def _load():
    p, i, d = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    fn = ctypes.CDLL(str(_build())).tile_score
    fn.restype = i
    fn.argtypes = [
        # per level: tumor words, width; normal words, width; inner,
        # columns, d; the tumor inner table; scratch; winner
        p, i, p, i, p, i, i, p, p, p,
        # per tile: tuples, rows, f; the normal inner table (NULL on a
        # store hit); store slice, itemsize; Nn, alpha, denominator,
        # incumbent F; per-thread maxima
        p, i, i, p, p, i, i, d, d, d, p,
    ]
    return fn


def kernel():
    """``tile_score`` (``_tile.c``), or ``None`` for the fallback
    (forced, or the library could not be built)."""
    global _loaded, _kernel
    if FALLBACK:
        return None
    if not _loaded:
        with _lock:
            if not _loaded:
                try:
                    _kernel = _load()
                except Exception as exc:  # any failure means the fallback
                    warnings.warn(
                        f"native tile kernel unavailable ({exc!r}); "
                        "scoring with the numpy fallback",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                _loaded = True
    return _kernel

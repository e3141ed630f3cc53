"""How much faster can N worker processes be than one, on this host?

A process pool's speedup is capped by the host before the pool's own
overhead counts: if two CPU-bound processes each run at half speed when
they run together, a 2-worker pool cannot beat ``single`` however well
it splits the work.  This probe times two CPU-bound loops — a pure-Python
integer loop and a NumPy AND + popcount loop shaped like the scan's hot
path — first alone, then in ``--procs`` processes started together, and
prints the ceiling ``procs × alone / together`` for each.

Run:  python examples/concurrency_ceiling.py [--procs 2] [--repeats 3]

A ceiling near ``procs`` means the cores are really free; a ceiling near
1 means the "cores" are time-sliced (shared vCPUs, hyperthreads, a busy
host), and ``pool.speedup_over_single`` cannot exceed it.
"""

from __future__ import annotations

import argparse
import multiprocessing as mp
import statistics
import time

import numpy as np


def python_loop() -> None:
    total = 0
    for i in range(3_000_000):
        total += i & 7


def popcount_loop() -> None:
    rng = np.random.default_rng(0)
    base = rng.integers(0, 2**63, size=(256, 16), dtype=np.uint64)
    table = rng.integers(0, 2**63, size=(16, 256), dtype=np.uint64)
    out = np.zeros((256, 256), dtype=np.int32)
    for _ in range(60):
        for k in range(16):
            out += np.bitwise_count(base[:, k, None] & table[None, k])


PROBES = {"python_loop": python_loop, "popcount_loop": popcount_loop}


def _timed(name: str, start: "mp.synchronize.Barrier", out: "mp.Queue") -> None:
    start.wait()
    t0 = time.perf_counter()
    PROBES[name]()
    out.put(time.perf_counter() - t0)


def run(name: str, procs: int) -> list:
    """Wall seconds of each of ``procs`` processes running probe ``name``
    at once."""
    ctx = mp.get_context("spawn")
    start, out = ctx.Barrier(procs), ctx.Queue()
    workers = [ctx.Process(target=_timed, args=(name, start, out)) for _ in range(procs)]
    for w in workers:
        w.start()
    times = [out.get() for _ in workers]
    for w in workers:
        w.join()
    return times


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--procs", type=int, default=2)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    print(f"{args.procs} processes together vs one alone, "
          f"median of {args.repeats}; os.cpu_count() = {mp.cpu_count()}")
    for name in PROBES:
        alone = statistics.median(run(name, 1)[0] for _ in range(args.repeats))
        together = statistics.median(
            statistics.median(run(name, args.procs)) for _ in range(args.repeats)
        )
        print(f"{name:14s} alone {alone:.3f} s   together {together:.3f} s each   "
              f"ceiling {args.procs * alone / together:.2f}x")


if __name__ == "__main__":
    main()

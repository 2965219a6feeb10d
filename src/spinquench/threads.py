"""Helper threads for work that splits into independent shares.

Inside helper_threads() a caller may deal one piece of work into
shares: run_shares runs the first share on the calling thread and each
other share on a helper, waits for all of them, and hands the results
back in share order, so a share's result never depends on where it ran.
The block SVD (graded) and the fused-gate passes (circuit) use it;
each share is a whole LAPACK or BLAS call on its own operands, so what
a share computes is the same bits inline or on a helper.

There is one helper per usable CPU beyond the first, none on one CPU,
and none unless numpy's BLAS runs on one thread (blas_threads): a
BLAS on several threads already spreads each call over the CPUs, and
helpers calling it at once only compete with its threads. A helper runs
outside the block's context, so the work it is given never deals
shares of its own.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy  # noqa: F401  (loads the BLAS that blas_threads asks)

#: The names an OpenBLAS build exports its thread count under: plain,
#: 64-bit integer, and the scipy-openblas builds of numpy's wheels.
_OPENBLAS_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)

#: (helper pool, usable CPUs) of the helper_threads() block this
#: context runs in; a new thread starts without one.
_helpers = contextvars.ContextVar("helpers", default=None)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas_getter():
    """The thread-count function of the OpenBLAS this process loaded, or None.

    The library is found among the process's mapped files, which Linux
    lists in /proc/self/maps; elsewhere, or for another BLAS, there is
    none.
    """
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split() for line in maps]
    except OSError:
        return None
    paths = {f[-1] for f in fields if len(f) == 6 and "openblas" in os.path.basename(f[-1])}
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _OPENBLAS_GETTERS:
            getter = getattr(library, name, None)
            if getter is not None:
                return getter
    return None


def blas_threads() -> int | None:
    """Threads numpy's BLAS runs each call on now; None where it cannot be told."""
    getter = _openblas_getter()
    return None if getter is None else getter()


@contextlib.contextmanager
def helper_threads():
    """Let the work in this context deal shares to helper threads.

    One helper per usable CPU beyond the first where numpy's BLAS runs
    on one thread, none on one CPU or where it does not (or cannot be
    told); they are joined when the block exits, however it exits.
    Blocks opened on other threads have helpers of their own.
    """
    n_cpus = usable_cpus() if blas_threads() == 1 else 1
    if n_cpus < 2:
        yield
        return
    pool = ThreadPoolExecutor(max_workers=n_cpus - 1, thread_name_prefix="spinquench-helper")
    token = _helpers.set((pool, n_cpus))
    try:
        yield
    finally:
        _helpers.reset(token)
        pool.shutdown()


def share_count() -> int:
    """Shares a piece of work may be dealt into here: 1 outside helper_threads()."""
    helpers = _helpers.get()
    return 1 if helpers is None else helpers[1]


def run_shares(work, shares) -> list:
    """[work(share) for share in shares], share 0 here and the others on the helpers.

    Every share has finished before this returns or raises; an exception
    of this thread's share, else of the first helper share that raised,
    is raised here. Call it only where share_count() > 1.
    """
    pool, _n_cpus = _helpers.get()
    futures = [pool.submit(work, share) for share in shares[1:]]
    try:
        return [work(shares[0])] + [future.result() for future in futures]
    except BaseException:
        wait(futures)
        raise

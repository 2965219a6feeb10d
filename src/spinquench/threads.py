"""Helper threads for work that splits into independent pieces.

Inside helper_threads() a caller hands work to helper threads in one
way, a queue(): items of one work function and known cost. A helper
free when an item is put starts it at once, each helper takes the
longest item still pending, and the calling thread runs what is left
when it asks for the results, which come back in put order. So a
caller can go on filling items, or doing other work, while the helpers
run the first ones; keep_up lets a caller that makes items faster than
the helpers take them run the surplus itself. The bond update queues
theta's sectors as it fills them and block_svd puts those of a matrix
given whole (graded), round two of the window sampler queues the
propagation of each sector stack as it is assembled (harness), and a
fused-gate pass puts contiguous shares of its output, one per thread
the queue may use (circuit). Each item is whole LAPACK, BLAS or
sparse-product calls on its own operands, so what it computes is the
same bits inline or on a helper, whichever thread takes it.

There is one helper per usable CPU beyond the first, none on one CPU.
A helper runs outside the block's context, so the work it is given
never hands work on to helpers of its own.

Inside helper_threads() numpy's OpenBLAS runs each call on one thread,
whatever the environment asked for; the caller's count comes back when
the last open block closes. So every block computes on one path:
OpenBLAS on several threads rounds some products differently from one
thread, and its threads would only compete with the helpers for the
same CPUs. The count is the process's, so the blocks open on all
threads share one pin. Where no OpenBLAS is found (another BLAS, or no
/proc/self/maps) nothing is pinned, and the bytes follow that BLAS's
own threads.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import heapq
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy  # noqa: F401  (loads the OpenBLAS that helper_threads() pins)

#: The names an OpenBLAS build exports its thread-count functions under
#: ("get" or "set" filled in): plain, 64-bit integer, and the
#: scipy-openblas builds of numpy's wheels.
_OPENBLAS_NAMES = (
    "openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "scipy_openblas_{}_num_threads64_",
)

#: (helper pool, usable CPUs) of the helper_threads() block this
#: context runs in; a new thread starts without one.
_helpers = contextvars.ContextVar("helpers", default=None)

#: The helper_threads() blocks open on all threads, and the OpenBLAS
#: thread count the first of them read, under _pin_lock.
_pin_lock = threading.Lock()
_open_blocks = 0
_caller_count = None


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas():
    """(get, set) thread-count functions of the OpenBLAS this process loaded, or None.

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
        for name in _OPENBLAS_NAMES:
            get = getattr(library, name.format("get"), None)
            set_ = getattr(library, name.format("set"), None)
            if get is not None and set_ is not None:
                return get, set_
    return None


@contextlib.contextmanager
def _pin_openblas():
    """Run the block on one OpenBLAS thread; the last block to close restores the count."""
    global _open_blocks, _caller_count
    openblas = _openblas()
    if openblas is None:
        yield
        return
    get, set_ = openblas
    with _pin_lock:
        if _open_blocks == 0:
            _caller_count = get()
            set_(1)
        _open_blocks += 1
    try:
        yield
    finally:
        with _pin_lock:
            _open_blocks -= 1
            if _open_blocks == 0:
                set_(_caller_count)


@contextlib.contextmanager
def helper_threads():
    """Let the work in this context queue items for helper threads, on one BLAS thread.

    One helper per usable CPU beyond the first, none on one CPU; they
    are joined when the block exits, however it exits. Blocks opened on
    other threads have helpers of their own. numpy's OpenBLAS runs on
    one thread until the last block open in the process closes.
    """
    with _pin_openblas():
        n_cpus = usable_cpus()
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


class Queue:
    """Items of one work function, started longest first, some on helpers as they are put.

    A helper free when an item is put starts at once, and each helper
    takes the longest pending item (ties in put order) until none is
    left; results() runs the ones still pending here. n_helpers is the
    most helpers it uses at once. Make one with queue().
    """

    def __init__(self, work, pool, n_helpers):
        self._work, self._pool, self.n_helpers = work, pool, n_helpers
        self._keys, self._items, self._outcomes = [], [], []
        self._pending, self._serving, self._helpers = [], 0, []
        self._lock = threading.Lock()

    def put(self, key, item, cost):
        """Queue work(item) of the given cost, to be returned under key."""
        with self._lock:
            heapq.heappush(self._pending, (-cost, len(self._items)))
            self._keys.append(key)
            self._items.append(item)
            self._outcomes.append(None)
            if self._serving < self.n_helpers:
                self._serving += 1
                self._helpers.append(self._pool.submit(self._serve))

    def _take(self, leave=0):
        """The longest pending item's index, taken off, if more than leave are pending."""
        with self._lock:
            if len(self._pending) > leave:
                return heapq.heappop(self._pending)[1]
            return None

    def _run(self, i):
        # the queue lets go of an item once it runs, so a stack's
        # amplitudes are freed as soon as it is evolved
        item, self._items[i] = self._items[i], None
        try:
            self._outcomes[i] = True, self._work(item)
        except BaseException as exc:
            self._outcomes[i] = False, exc

    def _serve(self):
        """A helper's loop: run the longest pending item until none is left."""
        while True:
            with self._lock:
                if not self._pending:
                    self._serving -= 1
                    return
                i = heapq.heappop(self._pending)[1]
            self._run(i)

    def keep_up(self):
        """Run the longest pending items here until no more wait than there are helpers.

        A caller that puts items faster than the helpers take them calls
        it after each put, so that at most n_helpers items wait: with no
        helpers, each item runs as soon as it is put.
        """
        while (i := self._take(self.n_helpers)) is not None:
            self._run(i)

    def results(self) -> dict:
        """{key: work(item)} in put order, once every item has finished.

        The items no helper has started run here, longest first. Where
        items raised, the exception of the first in put order is raised
        here, after all of them have finished.
        """
        while (i := self._take()) is not None:
            self._run(i)
        for helper in self._helpers:
            helper.result()  # _serve never raises: this only waits
        for ok, value in self._outcomes:
            if not ok:
                raise value
        return {key: value for key, (_ok, value) in zip(self._keys, self._outcomes)}

    def close(self):
        """Drop the items no thread has started and wait for the running ones."""
        with self._lock:
            self._pending.clear()
        for helper in self._helpers:
            helper.result()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def queue(work, most=None) -> Queue:
    """A Queue of work on at most most threads, this one included; None: no cap.

    Inside helper_threads() it may use as many helpers as that block
    opened, one per usable CPU beyond the first; elsewhere, or for most
    of 1 or less, none, and results() runs every item here. A caller
    that may leave before results() uses it as a context manager, so
    that leaving the block, however it is left, drops what no thread
    has started and waits for what is running.
    """
    helpers = _helpers.get()
    if helpers is None:
        return Queue(work, None, 0)
    pool, n_cpus = helpers
    return Queue(work, pool, max(1, min(n_cpus, n_cpus if most is None else most)) - 1)

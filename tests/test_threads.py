"""The one way to hand work to helper threads: items queued longest first, errors raised here."""

import contextlib
import os
import subprocess
import sys
import threading
import time

import pytest

from spinquench import threads
from spinquench.threads import helper_threads


def _threads():
    """Threads a queue opened here may use, this one included."""
    return threads.queue(str).n_helpers + 1


def test_queue_has_no_helper_outside_helper_threads_and_one_per_cpu_beyond_the_first_inside(
    one_blas_thread, monkeypatch
):
    monkeypatch.setattr(threads, "usable_cpus", lambda: 3)
    assert _threads() == 1
    with helper_threads():
        assert _threads() == 3
        assert threads.queue(str, 2).n_helpers + 1 == 2
        assert threads.queue(str, 0).n_helpers == threads.queue(str, 1).n_helpers == 0
    assert _threads() == 1
    monkeypatch.setattr(threads, "usable_cpus", lambda: 1)
    with helper_threads():
        assert _threads() == 1


@pytest.mark.parametrize("blas", [2, 4, None])
def test_helper_threads_open_none_unless_blas_runs_one_thread(monkeypatch, blas):
    # a BLAS on several threads, or one whose count cannot be told,
    # gets no helpers to compete with: the work runs inline
    monkeypatch.setattr(threads, "usable_cpus", lambda: 3)
    monkeypatch.setattr(threads, "blas_threads", lambda: blas)
    with helper_threads():
        assert _threads() == 1
    monkeypatch.setattr(threads, "blas_threads", lambda: 1)
    with helper_threads():
        assert _threads() == 3


def test_blas_threads_reads_the_count_openblas_started_with():
    if threads.blas_threads() is None:
        pytest.skip("numpy's BLAS here is not an OpenBLAS this process can find")
    counts = []
    for n in (1, 2):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        env["OPENBLAS_NUM_THREADS"] = str(n)
        proc = subprocess.run(
            [sys.executable, "-c", "from spinquench import threads; print(threads.blas_threads())"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        counts.append(int(proc.stdout))
    assert counts == [1, 2]


def _watched(calls):
    """A work that records (thread, item) of each call and returns the item doubled."""
    def work(item):
        calls.append((threading.current_thread(), item))
        return 2 * item
    return work


def _helpers_alive():
    return [t for t in threading.enumerate() if t.name.startswith("spinquench-helper")]


def test_queue_starts_items_longest_first_on_a_helper(one_blas_thread, monkeypatch):
    # a helper busy with a first item leaves the next five pending; freed,
    # it takes them longest first, ties in put order, while this thread
    # waits, and results() hands them back in put order
    monkeypatch.setattr(threads, "usable_cpus", lambda: 2)
    started, release, calls = threading.Event(), threading.Event(), []

    def work(item):
        calls.append((threading.current_thread(), item))
        if item == "first":
            started.set()
            assert release.wait(10)
        return item

    with helper_threads(), threads.queue(work) as queue:
        queue.put("k", "first", 9)
        assert started.wait(10)
        for key, cost in zip("abcde", [5, 1, 4, 2, 4]):
            queue.put(key, key, cost)
        release.set()
        deadline = time.monotonic() + 10
        while len(calls) < 6 and time.monotonic() < deadline:
            time.sleep(0.001)
        results = queue.results()
    assert list(results.items()) == [("k", "first"), *((key, key) for key in "abcde")]
    assert [item for _thread, item in calls] == ["first", "a", "c", "e", "d", "b"]
    assert threading.current_thread() not in {thread for thread, _item in calls}


def _concurrency(most, n_cpus, monkeypatch):
    """The most items of six, each 30 ms long, that a queue of at most most threads runs at once."""
    monkeypatch.setattr(threads, "usable_cpus", lambda: n_cpus)
    lock, running, peak = threading.Lock(), [0], [0]

    def work(item):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        time.sleep(0.03)
        with lock:
            running[0] -= 1
        return 2 * item

    with helper_threads(), threads.queue(work, most) as queue:
        for item in range(6):
            queue.put(item, item, 1)
        assert queue.results() == {item: 2 * item for item in range(6)}
    return peak[0]


def test_queue_caps_its_threads_at_most(one_blas_thread, monkeypatch):
    # most caps the threads, this one included, and so do the usable CPUs
    assert 1 < _concurrency(None, 3, monkeypatch) <= 3
    assert 1 < _concurrency(2, 3, monkeypatch) <= 2
    assert 1 < _concurrency(None, 2, monkeypatch) <= 2
    assert _concurrency(1, 3, monkeypatch) == 1


@pytest.mark.parametrize("case", ["outside", "most 1", "one cpu"])
def test_queue_serves_on_no_helper(one_blas_thread, monkeypatch, case):
    # outside helper_threads(), for most 1, and where one usable CPU
    # leaves helper_threads() no helper, results() runs every item on
    # this thread, longest first, and no helper ever serves
    monkeypatch.setattr(threads, "usable_cpus", lambda: 1 if case == "one cpu" else 3)
    monkeypatch.setattr(threads.Queue, "_serve", lambda queue: pytest.fail("a helper served"))
    items, costs, calls = [0, 1, 2], [1, 3, 2], []
    with contextlib.nullcontext() if case == "outside" else helper_threads():
        queue = threads.queue(_watched(calls), 1 if case == "most 1" else None)
        assert queue.n_helpers == 0
        for item, cost in zip(items, costs):
            queue.put(item, item, cost)
        assert queue.results() == {item: 2 * item for item in items}
    assert calls == [(threading.current_thread(), item) for item in [1, 2, 0]]


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_queue_raises_an_item_error_after_every_item_finished(
    one_blas_thread, monkeypatch, failing
):
    # the error of an item, on a helper or here, is raised by results()
    # only once every other item has finished, and no helper outlives
    # helper_threads()
    monkeypatch.setattr(threads, "usable_cpus", lambda: 3)
    finished = []

    def work(item):
        if item == failing:
            raise ValueError(f"item {failing}")
        time.sleep(0.05)
        finished.append(item)
        return item

    with helper_threads():
        queue = threads.queue(work)
        for item, cost in zip([0, 1, 2, 3], [3, 2, 1, 1]):
            queue.put(item, item, cost)
        with pytest.raises(ValueError, match=f"item {failing}"):
            queue.results()
        assert sorted(finished) == sorted({0, 1, 2, 3} - {failing})
    assert _helpers_alive() == []


@pytest.mark.parametrize("failing", [0, 1])
def test_queue_raises_a_share_error_after_every_equal_share_finished(
    one_blas_thread, monkeypatch, failing
):
    # shares of equal cost, one per thread the queue may use, as a gate
    # pass puts them: a share's error, whether the first or a later share
    # failed, is raised by results() only once the others have finished
    monkeypatch.setattr(threads, "usable_cpus", lambda: 3)
    finished = []

    def work(share):
        if share == failing:
            raise ValueError(f"share {share}")
        time.sleep(0.05)
        finished.append(share)

    with helper_threads():
        queue = threads.queue(work)
        for share in range(queue.n_helpers + 1):
            queue.put(share, share, 1)
        with pytest.raises(ValueError, match=f"share {failing}"):
            queue.results()
        assert sorted(finished) == sorted({0, 1, 2} - {failing})
    assert _helpers_alive() == []


def test_queue_left_by_an_error_drops_what_no_thread_started(one_blas_thread, monkeypatch):
    # an error inside the queue's block waits for the running item and
    # never starts the pending ones
    monkeypatch.setattr(threads, "usable_cpus", lambda: 2)
    started, calls, finished = threading.Event(), [], []

    def work(item):
        calls.append(item)
        if item == 0:
            started.set()
            time.sleep(0.05)
        finished.append(item)

    with helper_threads():
        with pytest.raises(RuntimeError, match="fill"), threads.queue(work) as queue:
            queue.put(0, 0, 5)
            assert started.wait(10)
            queue.put(1, 1, 4)
            queue.put(2, 2, 3)
            raise RuntimeError("fill")
        assert calls == finished == [0]
    assert _helpers_alive() == []


def test_queue_keep_up_leaves_no_more_waiting_than_helpers(one_blas_thread, monkeypatch):
    # with the one helper held busy, keep_up after each put runs the
    # longest waiting items here until one waits; with no helpers it
    # runs each item as soon as it is put
    monkeypatch.setattr(threads, "usable_cpus", lambda: 2)
    here, calls = threading.current_thread(), []
    started, release = threading.Event(), threading.Event()

    def work(item):
        calls.append((threading.current_thread(), item))
        if item == "first":
            started.set()
            assert release.wait(10)
        return item

    with helper_threads(), threads.queue(work) as queue:
        queue.put("k", "first", 9)
        assert started.wait(10)
        for key, cost in zip("abc", [1, 3, 2]):
            queue.put(key, key, cost)
            queue.keep_up()
        assert [item for _thread, item in calls] == ["first", "b", "c"]
        assert [thread is here for thread, _item in calls] == [False, True, True]
        release.set()
        assert list(queue.results()) == ["k", *"abc"]
    assert sorted(item for _thread, item in calls) == ["a", "b", "c", "first"]

    calls.clear()
    with threads.queue(work) as queue:
        for key in "abc":
            queue.put(key, key, 1)
            queue.keep_up()
            assert calls[-1] == (here, key)
        assert queue.results() == {key: key for key in "abc"}

"""The shared helper-thread steps: shares run, items queued longest first, errors raised here."""

import contextlib
import os
import subprocess
import sys
import threading
import time

import pytest

from spinquench import threads
from spinquench.threads import deal, helper_threads, run_shares, share_count


def test_share_count_is_one_outside_helpers_and_the_cpu_count_inside(one_blas_thread, monkeypatch):
    monkeypatch.setattr(threads, "usable_cpus", lambda: 3)
    assert share_count() == 1
    with helper_threads():
        assert share_count() == 3
    assert share_count() == 1
    monkeypatch.setattr(threads, "usable_cpus", lambda: 1)
    with helper_threads():
        assert share_count() == 1


def test_run_shares_returns_in_share_order_with_share_0_here(one_blas_thread, monkeypatch):
    # the helpers finish first, yet the results come back in share order
    monkeypatch.setattr(threads, "usable_cpus", lambda: 3)

    def work(share):
        if share == 0:
            time.sleep(0.05)
        return share, threading.current_thread()

    with helper_threads():
        results = run_shares(work, [0, 1, 2])
    assert [share for share, _thread in results] == [0, 1, 2]
    assert results[0][1] is threading.current_thread()
    assert threading.current_thread() not in [thread for _share, thread in results[1:]]


@pytest.mark.parametrize("failing", [0, 1])
def test_run_shares_raises_here_after_every_share_finished(one_blas_thread, monkeypatch, failing):
    monkeypatch.setattr(threads, "usable_cpus", lambda: 3)
    finished = []

    def work(share):
        if share == failing:
            raise ValueError(f"share {share}")
        time.sleep(0.05)
        finished.append(share)

    with helper_threads():
        with pytest.raises(ValueError, match=f"share {failing}"):
            run_shares(work, [0, 1, 2])
        assert sorted(finished) == sorted({0, 1, 2} - {failing})


@pytest.mark.parametrize("blas", [2, 4, None])
def test_helper_threads_open_none_unless_blas_runs_one_thread(monkeypatch, blas):
    # a BLAS on several threads, or one whose count cannot be told,
    # gets no helpers to compete with: the work runs inline
    monkeypatch.setattr(threads, "usable_cpus", lambda: 3)
    monkeypatch.setattr(threads, "blas_threads", lambda: blas)
    with helper_threads():
        assert share_count() == 1
    monkeypatch.setattr(threads, "blas_threads", lambda: 1)
    with helper_threads():
        assert share_count() == 3


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
    """A deal work that records (thread, item) of each call and returns the item doubled."""
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


def test_deal_starts_items_longest_first_and_returns_them_in_items_order(one_blas_thread, monkeypatch):
    # each item runs exactly once; the results come back in items order
    monkeypatch.setattr(threads, "usable_cpus", lambda: 2)
    calls = []
    with helper_threads():
        results = deal(_watched(calls), [0, 1, 2, 3, 4], [5, 1, 4, 2, 3], 0)
    assert results == [0, 2, 4, 6, 8]
    assert sorted(item for _thread, item in calls) == [0, 1, 2, 3, 4]
    # each thread starts its items in the one longest-first order
    for thread in {thread for thread, _item in calls}:
        mine = [item for t, item in calls if t is thread]
        assert mine == [i for i in [0, 2, 4, 3, 1] if i in mine]


def _concurrency(most, n_cpus, monkeypatch):
    """The most items of six, each 30 ms long, that deal runs at once on n_cpus."""
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

    with helper_threads():
        assert deal(work, list(range(6)), [1] * 6, 0, most=most) == [0, 2, 4, 6, 8, 10]
    return peak[0]


def test_deal_caps_the_shares_at_most(one_blas_thread, monkeypatch):
    # most caps the threads, this one included, and so do the usable CPUs
    assert 1 < _concurrency(None, 3, monkeypatch) <= 3
    assert 1 < _concurrency(2, 3, monkeypatch) <= 2
    assert 1 < _concurrency(None, 2, monkeypatch) <= 2
    assert _concurrency(1, 3, monkeypatch) == 1


@pytest.mark.parametrize("case", ["outside", "one item", "most 1", "below least", "one share"])
def test_deal_runs_inline_without_run_shares(one_blas_thread, monkeypatch, case):
    # the inline cases run every item on this thread, longest first, and
    # never submit to the helpers: outside helper_threads(), for one
    # item, for most 1, below least, and where one usable CPU leaves
    # helper_threads() one share
    monkeypatch.setattr(threads, "usable_cpus", lambda: 3)
    monkeypatch.setattr(threads, "run_shares", lambda work, shares: pytest.fail("run_shares"))
    monkeypatch.setattr(threads.Queue, "_serve", lambda queue: pytest.fail("a helper served"))
    items, costs, least, most = [0, 1, 2], [1, 3, 2], 6, None
    if case == "one item":
        items, costs = [7], [10]
    elif case == "most 1":
        most = 1
    elif case == "below least":
        least = 7
    elif case == "one share":
        monkeypatch.setattr(threads, "usable_cpus", lambda: 1)
    calls = []
    with contextlib.nullcontext() if case == "outside" else helper_threads():
        assert deal(_watched(calls), items, costs, least, most) == [2 * i for i in items]
    order = sorted(items, key=lambda i: -costs[items.index(i)])
    assert calls == [(threading.current_thread(), i) for i in order]


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_deal_raises_a_share_error_after_every_share_finished(one_blas_thread, monkeypatch, failing):
    monkeypatch.setattr(threads, "usable_cpus", lambda: 3)
    finished = []

    def work(item):
        if item == failing:
            raise ValueError(f"item {failing}")
        time.sleep(0.05)
        finished.append(item)
        return item

    with helper_threads():
        with pytest.raises(ValueError, match=f"item {failing}"):
            deal(work, [0, 1, 2, 3], [3, 2, 1, 1], 0)
        assert sorted(finished) == sorted({0, 1, 2, 3} - {failing})
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

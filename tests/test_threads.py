"""The shared helper-thread step: shares dealt, joined in order, errors raised here."""

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
    """A deal work that records (thread, items) of each call and returns each item doubled."""
    def work(items):
        calls.append((threading.current_thread(), list(items)))
        return [2 * item for item in items]
    return work


def _helpers_alive():
    return [t for t in threading.enumerate() if t.name.startswith("spinquench-helper")]


def test_deal_deals_longest_first_to_the_least_loaded_share(one_blas_thread, monkeypatch):
    # costs 5, 4, 3, 2, 1 in turn go to the share with least cost so far,
    # the first such share on a tie; the results come back in items order
    monkeypatch.setattr(threads, "usable_cpus", lambda: 2)
    calls = []
    with helper_threads():
        results = deal(_watched(calls), [0, 1, 2, 3, 4], [5, 1, 4, 2, 3], 0)
    assert results == [0, 2, 4, 6, 8]
    assert [items for _thread, items in calls] in ([[0, 3, 1], [2, 4]], [[2, 4], [0, 3, 1]])
    (here,) = [items for thread, items in calls if thread is threading.current_thread()]
    assert here == [0, 3, 1]  # share 0 runs on the calling thread


def test_deal_caps_the_shares_at_most(one_blas_thread, monkeypatch):
    monkeypatch.setattr(threads, "usable_cpus", lambda: 3)
    calls = []
    with helper_threads():
        assert deal(_watched(calls), list(range(6)), [1] * 6, 0) == [0, 2, 4, 6, 8, 10]
        assert len(calls) == 3
        calls.clear()
        assert deal(_watched(calls), list(range(6)), [1] * 6, 0, most=2) == [0, 2, 4, 6, 8, 10]
        assert sorted(items for _thread, items in calls) == [[0, 2, 4], [1, 3, 5]]


@pytest.mark.parametrize("case", ["outside", "one item", "most 1", "below least", "one share"])
def test_deal_runs_inline_without_run_shares(one_blas_thread, monkeypatch, case):
    # the inline cases make one call of work on this thread; a deal whose
    # costs leave one share nonempty (all zero) runs that share here too
    monkeypatch.setattr(threads, "usable_cpus", lambda: 3)
    monkeypatch.setattr(threads, "run_shares", lambda work, shares: pytest.fail("run_shares"))
    items, costs, least, most = [0, 1, 2], [3, 2, 1], 6, None
    if case == "one item":
        items, costs = [7], [10]
    elif case == "most 1":
        most = 1
    elif case == "below least":
        least = 7
    elif case == "one share":
        costs, least = [0, 0, 0], 0
    calls = []
    with contextlib.nullcontext() if case == "outside" else helper_threads():
        assert deal(_watched(calls), items, costs, least, most) == [2 * i for i in items]
    assert [(thread, sorted(got)) for thread, got in calls] == [(threading.current_thread(), items)]


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_deal_raises_a_share_error_after_every_share_finished(one_blas_thread, monkeypatch, failing):
    monkeypatch.setattr(threads, "usable_cpus", lambda: 3)
    finished = []

    def work(items):
        if failing in items:
            raise ValueError(f"item {failing}")
        time.sleep(0.05)
        finished.extend(items)
        return items

    with helper_threads():
        with pytest.raises(ValueError, match=f"item {failing}"):
            deal(work, [0, 1, 2], [3, 2, 1], 0)
        assert sorted(finished) == sorted({0, 1, 2} - {failing})
    assert _helpers_alive() == []

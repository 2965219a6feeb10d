"""The shared helper-thread step: shares dealt, joined in order, errors raised here."""

import os
import subprocess
import sys
import threading
import time

import pytest

from spinquench import threads
from spinquench.threads import helper_threads, run_shares, share_count


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

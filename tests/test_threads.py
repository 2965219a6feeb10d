"""The one way to hand work to helper threads: items queued longest first, errors raised here,
and every helper_threads() block on one OpenBLAS thread."""

import ast
import contextlib
import os
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from spinquench import threads
from spinquench.threads import helper_threads


def _threads():
    """Threads a queue opened here may use, this one included."""
    return threads.queue(str).n_helpers + 1


def test_queue_has_no_helper_outside_helper_threads_and_one_per_cpu_beyond_the_first_inside(
    monkeypatch
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


def _with_openblas_on_two(script, *args):
    """The literal script prints, run in a fresh process whose OpenBLAS starts on 2 threads.

    The script sees threads and blas, the count OpenBLAS runs each call
    on now. The count is the process's, so only a fresh process can
    start it at 2 whatever this one runs on.
    """
    if threads._openblas() is None:
        pytest.skip("numpy's BLAS here is not an OpenBLAS this process can find")
    if threads.usable_cpus() < 2:
        pytest.skip("OpenBLAS runs no more threads than the process has CPUs")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = "2"
    prelude = "from spinquench import threads\nblas = threads._openblas()[0]\n"
    proc = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(script), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


@pytest.mark.parametrize("leave", ["normal", "exception", "nested", "one cpu"])
def test_helper_threads_pin_openblas_to_one_thread_and_restore_the_count(leave):
    # the count reads 2 outside a block and 1 inside it, also where one
    # CPU opens no helper, and 2 again however the block is left
    counts = _with_openblas_on_two(f"""
        import contextlib
        counts = [blas()]
        if {leave!r} == "one cpu":
            threads.usable_cpus = lambda: 1
        with contextlib.suppress(ValueError), threads.helper_threads():
            counts.append(blas())
            if {leave!r} == "nested":
                with threads.helper_threads():
                    counts.append(blas())
                counts.append(blas())
            if {leave!r} == "exception":
                raise ValueError
        counts.append(blas())
        print(counts)
    """)
    assert counts == ([2, 1, 1, 1, 2] if leave == "nested" else [2, 1, 2])


def test_overlapping_blocks_on_three_threads_restore_the_count_when_the_last_closes():
    # three threads open blocks one after another and close them in
    # another order: the count reads 1 until the last block closes
    counts = _with_openblas_on_two("""
        import threading
        opened = [threading.Event() for _ in range(3)]
        close = [threading.Event() for _ in range(3)]
        closed = [threading.Event() for _ in range(3)]

        def block(i):
            with threads.helper_threads():
                opened[i].set()
                assert close[i].wait(10)
            closed[i].set()

        counts, workers = [blas()], [threading.Thread(target=block, args=(i,)) for i in range(3)]
        for worker, event in zip(workers, opened):
            worker.start()
            assert event.wait(10)
            counts.append(blas())
        for i in (1, 0, 2):
            close[i].set()
            assert closed[i].wait(10)
            counts.append(blas())
        for worker in workers:
            worker.join()
        print(counts)
    """)
    assert counts == [2, 1, 1, 1, 1, 1, 2]


def test_helper_threads_open_one_helper_per_cpu_beyond_the_first_whatever_the_blas_count():
    before, n_helpers, n_cpus = _with_openblas_on_two("""
        before = blas()
        with threads.helper_threads():
            print((before, threads.queue(str).n_helpers, threads.usable_cpus()))
    """)
    assert before == 2 and n_helpers == n_cpus - 1 >= 1


def test_run_mc_splits_walks_and_evolves_with_openblas_on_one_thread(k16_t1):
    # the count each of them reads, recorded through harness's names
    split, walk, evolve, after = _with_openblas_on_two("""
        import sys
        from spinquench import harness
        seen = {"split": set(), "walk": set(), "evolve": set()}

        def recorded(name, work):
            def wrapped(*args, **kwargs):
                seen[name].add(blas())
                return work(*args, **kwargs)
            return wrapped

        harness.semistochastic_split = recorded("split", harness.semistochastic_split)
        harness.sample_spins_and_beta = recorded("walk", harness.sample_spins_and_beta)
        harness.evolve_and_measure = recorded("evolve", harness.evolve_and_measure)
        harness.run_mc(checkpoint=sys.argv[1], l=2, t_fin=1.5, delta_t=0.25, n_max=20,
                       n_samples=20, master_seed=7, n_workers=2)
        print((seen["split"], seen["walk"], seen["evolve"], blas()))
    """, k16_t1["checkpoint"])
    assert split == walk == evolve == {1} and after == 2


def _watched(calls):
    """A work that records (thread, item) of each call and returns the item doubled."""
    def work(item):
        calls.append((threading.current_thread(), item))
        return 2 * item
    return work


def _helpers_alive():
    return [t for t in threading.enumerate() if t.name.startswith("spinquench-helper")]


def test_queue_starts_items_longest_first_on_a_helper(monkeypatch):
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


def test_queue_caps_its_threads_at_most(monkeypatch):
    # most caps the threads, this one included, and so do the usable CPUs
    assert 1 < _concurrency(None, 3, monkeypatch) <= 3
    assert 1 < _concurrency(2, 3, monkeypatch) <= 2
    assert 1 < _concurrency(None, 2, monkeypatch) <= 2
    assert _concurrency(1, 3, monkeypatch) == 1


@pytest.mark.parametrize("case", ["outside", "most 1", "one cpu"])
def test_queue_serves_on_no_helper(monkeypatch, case):
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
    monkeypatch, failing
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
    monkeypatch, failing
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


def test_queue_left_by_an_error_drops_what_no_thread_started(monkeypatch):
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


def test_queue_keep_up_leaves_no_more_waiting_than_helpers(monkeypatch):
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

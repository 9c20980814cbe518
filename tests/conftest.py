"""The block runner's threads, checked around the tests that fail or stop a pass."""

import os
import threading

import pytest

from tourney import montecarlo as mc


def _start_workers():
    """Run a pass of two blocks that wait for each other, so that the block
    runner's pool exists with both its workers started and free; return
    the threads that ran them."""
    barrier, ran = threading.Barrier(2, timeout=10), set()

    def work(m, rng):
        ran.add(threading.current_thread())
        barrier.wait()

    for _ in mc._blocks(work, 2, 1, 0):
        pass
    return ran


@pytest.fixture
def settled_pool(monkeypatch):
    """Make the block runner's pool before the test, then count the blocks
    running on it.  The returned check, called by the test after a pass
    and run again when the test ends, asserts that the live threads are
    those before the test plus at most the pool's two workers, the same
    threads after every pass, failing ones included, and that no block is
    running: none outlives the generator of its pass."""
    before = set(threading.enumerate())
    workers = _start_workers()
    threads = set(threading.enumerate())
    assert len(workers) == 2 and threads - before <= workers <= threads
    pool, lock, running = mc._pools[os.getpid()], threading.Lock(), [0]
    submit = pool.submit

    def counted_submit(work, *args):
        def counted(*args):
            with lock:
                running[0] += 1
            try:
                return work(*args)
            finally:
                with lock:
                    running[0] -= 1

        return submit(counted, *args)

    monkeypatch.setattr(pool, "submit", counted_submit)

    def check():
        assert set(threading.enumerate()) == threads
        assert running[0] == 0

    yield check
    check()

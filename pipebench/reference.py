"""A fixed reference job that tracks how fast the machine runs right now.

CPU speed on a shared host drifts: the same job takes up to twice as
long from one minute to the next, while other tenants load the cores
this process shares.  The drift moves the whole machine, not the
program, so the benchmark times this job next to every pipeline stage
and reports each stage in *reference seconds*: its wall time scaled by
``REFERENCE_S`` over the reference job's wall time measured around it.
A later change to the program moves the stage time and leaves this job
alone, so the ratio still shows it; a slow minute moves both and
cancels.

A stage that runs a pool of worker processes needs every CPU it uses:
when the host takes one of two CPUs away for a while, the pool takes up
to twice as long while a one-process job, which still has a CPU, does not.
Such a stage is bracketed by ``ParallelReference`` instead, the same job
run at once in as many helper processes as the stage has workers.

The job mixes the kinds of work the pipeline does: interpreter-bound
loops that call numpy on small arrays (like the greedy gains and the
cascades), heap and dict churn, and one sort of a few megabytes.  It
imports nothing from the program, so no change to the program can
change it.
"""

from __future__ import annotations

import heapq
import multiprocessing
import signal
import time

import numpy as np

#: The reference job's wall time on the machine the benchmark was fixed
#: on (2 vCPUs of an Intel Xeon, Python 3.11, NumPy 2): the scale of a
#: reference second.  A stage that takes ``k`` times as long as the
#: reference job reports ``k * REFERENCE_S`` seconds.
REFERENCE_S = 0.125


def in_reference_s(seconds: float, reference_seconds: float) -> float:
    """Wall seconds in reference seconds, given the reference job's wall
    time measured around them."""
    return seconds * REFERENCE_S / reference_seconds


class ReferenceJob:
    """The reference job with its inputs built once, outside any timing."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20160626)
        self.values = rng.random(400_000)
        self.picks = [rng.integers(0, self.values.size, 8) for _ in range(12_000)]
        self.checksum = self._work()

    def _work(self) -> float:
        total = 0.0
        for pick in self.picks:
            total += float(self.values[pick].sum())
        heap: list = []
        for i in range(120_000):
            heapq.heappush(heap, (i * 7919) % 10007)
        while heap:
            total += heapq.heappop(heap)
        ordered = np.sort(self.values)
        total += float(ordered[::1000].sum())
        counts: dict = {}
        for i in range(160_000):
            counts[i % 977] = counts.get(i % 977, 0) + i
        return total + sum(counts.values())

    def seconds(self) -> float:
        """Wall seconds of one run of the job, which must redo the same work."""
        start = time.perf_counter()
        checksum = self._work()
        seconds = time.perf_counter() - start
        if checksum != self.checksum:
            raise RuntimeError(f"reference job drifted: {checksum!r} != {self.checksum!r}")
        return seconds


def _helper_main(conn, barrier) -> None:
    """One helper: on each ``True`` from ``conn``, run the job together
    with the other helpers and send back its wall time; stop on ``False``."""
    # The benchmark turns SIGTERM into a clean exit of its own process; a
    # helper inherits that handler but must simply die when killed.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    job = ReferenceJob()
    while conn.recv():
        barrier.wait(timeout=120)
        conn.send(job.seconds())
    conn.close()


class ParallelReference:
    """The reference job run at once in ``processes`` helper processes.

    ``seconds()`` is the helpers' mean wall time; a barrier starts their
    runs together.  Use it as a context manager, or call ``close()``: it
    stops the helpers and waits for each to end.
    """

    def __init__(self, processes: int) -> None:
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(processes)
        self._helpers = []
        for _ in range(processes):
            ours, theirs = context.Pipe()
            helper = context.Process(target=_helper_main, args=(theirs, barrier), daemon=True)
            helper.start()
            theirs.close()
            self._helpers.append((helper, ours))
        try:
            self.seconds()  # wait until every helper has built its job
        except BaseException:
            self.close()
            raise

    def seconds(self) -> float:
        for _, conn in self._helpers:
            conn.send(True)
        times = [conn.recv() for _, conn in self._helpers]
        return sum(times) / len(times)

    def close(self) -> None:
        for _, conn in self._helpers:
            try:
                conn.send(False)
            except OSError:
                pass  # that helper has already ended
        for helper, conn in self._helpers:
            helper.join(timeout=10)
            if helper.is_alive():
                helper.kill()
                helper.join()
            conn.close()

    def __enter__(self) -> "ParallelReference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

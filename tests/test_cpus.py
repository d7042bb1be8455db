import os
import signal
import threading

import numpy as np
import pytest

from s2vc import cpus, tensor as T
from s2vc.cpus import SERIAL, Shares
from s2vc.tensor import GradTape, Tensor


class RecordingShares(Shares):
    """A Shares that records how many tasks each split ran."""

    def __init__(self, n_threads):
        super().__init__(n_threads)
        self.splits = []

    def run(self, tasks):
        self.splits.append(len(tasks))
        return super().run(tasks)


def test_spare_cpus_within_mask():
    assert 0 <= cpus.spare_cpus() < len(os.sched_getaffinity(0))


class TestShares:
    def test_every_task_once_in_order_task_zero_on_caller(self):
        main = threading.current_thread().name
        with Shares(2) as shares:
            for _ in range(20):
                done = shares.run([lambda i=i: (i, threading.current_thread().name)
                                   for i in range(7)])
                assert [i for i, _ in done] == list(range(7))
                assert done[0][1] == main
                assert {name for _, name in done} <= {main, "s2vc-share-1",
                                                      "s2vc-share-2"}

    def test_thread_takes_a_task_while_the_caller_works(self):
        other_started = threading.Event()

        def task_zero():
            assert other_started.wait(30)
            return threading.current_thread().name

        def task_one():
            other_started.set()
            return threading.current_thread().name

        with Shares(1) as shares:
            names = shares.run([task_zero, task_one])
        assert names == [threading.current_thread().name, "s2vc-share-1"]

    @pytest.mark.parametrize("n_threads", [0, 1, 3])
    def test_rows_cover_in_order(self, n_threads):
        with Shares(n_threads) as shares:
            for n, min_rows in [(0, 1), (1, 1), (2, 1), (10, 1), (10, 4), (10, 20)]:
                ranges = shares.rows(n, lambda lo, hi: (lo, hi), min_rows)
                assert ranges[0][0] == 0 and ranges[-1][1] == n
                assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
                assert len(ranges) <= n_threads + 1
                assert len(ranges) == 1 or min(hi - lo for lo, hi in ranges) >= min_rows

    def test_first_failure_raised_after_every_share_finished(self):
        finished = []

        def fail(tag):
            def task():
                finished.append(tag)
                raise ValueError(tag)
            return task

        with Shares(1) as shares:
            with pytest.raises(ValueError, match="first"):
                shares.run([lambda: finished.append("ok"), fail("first"), fail("second")])
        assert sorted(finished) == ["first", "ok", "second"]

    def test_close_stops_threads(self):
        before = threading.active_count()
        shares = Shares(3)
        assert threading.active_count() == before + 3
        shares.close()
        assert threading.active_count() == before
        assert shares.run([lambda: 1, lambda: 2]) == [1, 2]


class TestSplitProducts:
    """Row shares of a product are the bits of the whole product."""

    @pytest.mark.parametrize("n_threads", [1, 2, 3])
    def test_linear_matmul_conv1d(self, n_threads, rng):
        x = Tensor(rng.normal(size=(400, 512)))
        w = Tensor(rng.normal(size=(512, 384)))
        b = Tensor(rng.normal(size=(1, 384)))
        cw = Tensor(rng.normal(size=(256, 512, 5)))
        cb = Tensor(rng.normal(size=256))
        with RecordingShares(n_threads) as shares:
            for op in (lambda s: T.linear(x, w, b, s), lambda s: T.matmul(x, w, s),
                       lambda s: T.conv1d(x, cw, cb, s)):
                shares.splits.clear()
                np.testing.assert_array_equal(op(shares).data, op(SERIAL).data)
                assert shares.splits == [n_threads + 1]

    def test_small_product_and_taped_forward_stay_whole(self, rng):
        x = Tensor(rng.normal(size=(150, 512)), requires_grad=True)
        w = Tensor(rng.normal(size=(512, 512)), requires_grad=True)
        small = Tensor(rng.normal(size=(512, 4)))
        with RecordingShares(1) as shares:
            T.matmul(x, small, shares)
            assert shares.splits == [1]
            with GradTape() as tape:
                loss = T.sum_(T.matmul(x, w, shares))
            tape.backward(loss)
            assert shares.splits == [1]   # a recorded forward never splits


class TestHelper:
    """A forked child that answers tasks in order; whatever happens, it is
    reaped once the helper is closed."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        """Fails a test that hangs on its helper instead of hanging the suite."""
        def timeout(signum, frame):
            raise TimeoutError("helper test took over 60 s")

        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_replies_in_order_from_another_process(self):
        big = np.arange(1 << 18, dtype=np.float32)   # more than a pipe buffer
        with cpus.Helper(lambda a, k: (os.getpid(), a * k, big.sum())) as helper:
            for k in range(3):
                helper.send(big, k)
                pid, scaled, total = helper.recv()
                np.testing.assert_array_equal(scaled, big * k)
                assert total == big.sum() and pid == helper.pid != os.getpid()
            for k in range(3):   # small replies may queue up
                helper.send(big[:4], k)
            assert [helper.recv()[1][1] for _ in range(3)] == [0, 1, 2]

    def test_exception_raised_as_itself_and_helper_serves_on(self):
        def fn(x):
            if x < 0:
                raise ValueError(f"negative {x} in {os.getpid()}")
            return x + 1

        with cpus.Helper(fn) as helper:
            helper.send(-1)
            helper.send(1)
            with pytest.raises(ValueError, match=f"negative -1 in {helper.pid}"):
                helper.recv()
            assert helper.recv() == 2

    def test_dead_child_names_pid_and_status(self):
        with cpus.Helper(lambda: os._exit(3)) as helper:
            helper.send()
            message = f"helper process {helper.pid} exited with status 3"
            with pytest.raises(cpus.HelperExited, match=message):
                helper.recv()
            with pytest.raises(cpus.HelperExited, match=message):   # and stays dead
                helper.send()

    def test_close_kills_a_busy_child(self):
        helper = cpus.Helper(lambda: threading.Event().wait())
        helper.send()
        helper.close()
        helper.close()

    def test_pinned_to_its_cpu(self):
        cpu = max(os.sched_getaffinity(0))
        with cpus.Helper(lambda: os.sched_getaffinity(0), cpu) as helper:
            helper.send()
            assert helper.recv() == {cpu}

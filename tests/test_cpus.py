import os
import re
import signal
import threading
import time

import numpy as np
import pytest

from s2vc import cpus, nn, tensor as T
from s2vc.cpus import Shares
from s2vc.model import ModelConfig
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
                assert all(name == main or name.startswith("s2vc-share")
                           for _, name in done)

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
        assert names[0] == threading.current_thread().name
        assert names[1].startswith("s2vc-share")

    def test_caller_claims_a_task_no_thread_started(self):
        """The pool's one thread is held by task 1 until task 2 has run, so
        only the caller can run task 2."""
        one_started, two_ran = threading.Event(), threading.Event()

        def task_zero():
            assert one_started.wait(30)
            return 0, threading.current_thread().name

        def task_one():
            one_started.set()
            assert two_ran.wait(30)
            return 1, threading.current_thread().name

        def task_two():
            two_ran.set()
            return 2, threading.current_thread().name

        main = threading.current_thread().name
        with Shares(1) as shares:
            done = shares.run([task_zero, task_one, task_two])
        assert [i for i, _ in done] == [0, 1, 2]
        assert done[0][1] == done[2][1] == main != done[1][1]

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
        assert shares.run([lambda: 1, lambda: 2, lambda: 3, lambda: 4]) == [1, 2, 3, 4]
        assert before < threading.active_count() <= before + 3
        shares.close()
        assert threading.active_count() == before
        assert shares.run([lambda: 1, lambda: 2]) == [1, 2]


class TestActive:
    """The set a ``with`` block installs is the active one inside the block
    only, and never inside a share."""

    def test_serial_outside_every_block(self):
        idle = cpus.active()
        assert idle.count == 1
        with Shares(1) as shares:
            assert cpus.active() is shares
            with Shares(2) as inner:
                assert cpus.active() is inner
            assert cpus.active() is shares
        assert cpus.active() is idle
        with pytest.raises(ValueError, match="inside"):
            with Shares(1):
                raise ValueError("inside")
        assert cpus.active() is idle

    def test_serial_inside_a_share_on_the_caller_and_a_pool_thread(self):
        idle = cpus.active()
        other_started = threading.Event()

        def task_zero():
            assert other_started.wait(30)
            return threading.current_thread().name, cpus.active()

        def task_one():
            other_started.set()
            return threading.current_thread().name, cpus.active()

        with Shares(1) as shares:
            (caller, on_caller), (pool, on_pool) = shares.run([task_zero, task_one])
            assert cpus.active() is shares
        assert caller == threading.current_thread().name != pool
        assert on_caller is on_pool is idle

    def test_set_of_another_thread_is_not_active(self):
        seen = []
        with Shares(1):
            thread = threading.Thread(target=lambda: seen.append(cpus.active()))
            thread.start()
            thread.join()
        assert seen == [cpus.active()]


class TestSplitProducts:
    """Row shares of a product are the bits of the whole product."""

    @pytest.mark.parametrize("n_threads", [1, 2, 3])
    def test_linear_matmul_conv1d(self, n_threads, rng):
        x = Tensor(rng.normal(size=(400, 512)))
        w = Tensor(rng.normal(size=(512, 384)))
        b = Tensor(rng.normal(size=(1, 384)))
        cw = Tensor(rng.normal(size=(256, 512, 5)))
        cb = Tensor(rng.normal(size=256))
        for op in (lambda: T.linear(x, w, b), lambda: T.matmul(x, w),
                   lambda: T.conv1d(x, cw, cb)):
            want = op().data
            with RecordingShares(n_threads) as shares:
                np.testing.assert_array_equal(op().data, want)
            assert shares.splits == [n_threads + 1]

    def test_small_product_and_taped_forward_stay_whole(self, rng):
        x = Tensor(rng.normal(size=(150, 512)), requires_grad=True)
        w = Tensor(rng.normal(size=(512, 512)), requires_grad=True)
        small = Tensor(rng.normal(size=(512, 4)))
        with RecordingShares(1) as shares:
            T.matmul(x, small)
            assert shares.splits == [1]
            with GradTape() as tape:
                loss = T.sum_(T.matmul(x, w))
            tape.backward(loss)
            assert shares.splits == [1]   # a recorded forward never splits

    @pytest.mark.parametrize("n_threads", [1, 2])
    def test_conformer_block_splits_once_per_module(self, n_threads, rng):
        """A paper-width block splits each feed-forward module and each of
        its six outer products once, and nothing inside those shares."""
        cfg = ModelConfig()
        params, buffers = {}, {}
        nn.init_conformer_block(params, buffers, "blk", cfg, rng)
        x = Tensor(rng.normal(size=(120, cfg.d_model)).astype(np.float32))
        want = nn.conformer_block(params, buffers, "blk", x, cfg).data
        with RecordingShares(n_threads) as shares:
            got = nn.conformer_block(params, buffers, "blk", x, cfg).data
        np.testing.assert_array_equal(got, want)
        assert shares.splits == [n_threads + 1] * 8


class TestHelper:
    """Forked children that compute ``run``'s tasks beside the caller's own
    work; whatever happens, they are reaped and the caller's affinity mask
    is back once the set is closed."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        """Fails a test that hangs on its helpers instead of hanging the suite."""
        def timeout(signum, frame):
            raise TimeoutError("helper test took over 60 s")

        mask = os.sched_getaffinity(0)
        previous = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert os.sched_getaffinity(0) == mask

    def test_replies_in_order_from_another_process(self):
        """Task ``k`` runs in child ``k``, or here beyond the last child."""
        big = np.arange(1 << 18, dtype=np.float32)   # more than a pipe buffer
        for n in (0, 1, 2):
            with cpus.Helpers(lambda a, k: (os.getpid(), a * k), n) as helpers:
                for n_tasks in range(4):
                    mine, done = helpers.run(lambda: os.getpid(),
                                             [(big, k) for k in range(n_tasks)])
                    assert mine == os.getpid() and len(done) == n_tasks
                    for k, (pid, scaled) in enumerate(done):
                        np.testing.assert_array_equal(scaled, big * k)
                        assert (pid != os.getpid()) == (k < n), (n, n_tasks, k)
                    assert len({pid for pid, _ in done[:n]}) == min(n, n_tasks)

    def test_close_kills_a_busy_child(self):
        """An error in the caller's own work closes the set at once."""
        helpers = cpus.Helpers(lambda t: time.sleep(t) or os.getpid(), 1)

        def fail():
            raise ValueError("own failed")

        start = time.monotonic()
        with pytest.raises(ValueError, match="own failed"):
            helpers.run(fail, [(60,)])
        assert time.monotonic() - start < 30   # killed, not waited for
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert helpers.count == 1   # closed: every later task runs here
        assert helpers.run(lambda: 0, [(0,)]) == (0, [os.getpid()])
        helpers.close()

    def test_exception_raised_as_itself_and_helper_serves_on(self, tmp_path):
        """The first task error in list order, once every reply is read."""
        ran = tmp_path / "ran"

        def fn(x):
            with open(ran, "a", encoding="utf-8") as fh:
                fh.write(f"{x}\n")
            if x < 0:
                raise ValueError(f"negative {x} in {os.getpid()}")
            return x + 1

        with cpus.Helpers(fn, 2) as helpers:
            with pytest.raises(ValueError, match="negative -1 in") as info:
                helpers.run(lambda: None, [(1,), (-1,), (-2,)])
            assert str(info.value) != f"negative -1 in {os.getpid()}"
            assert sorted(ran.read_text().split()) == ["-1", "-2", "1"]
            assert helpers.run(lambda: 0, [(5,), (6,)]) == (0, [6, 7])

    def test_dead_child_names_pid_and_status(self):
        with cpus.Helpers(lambda code: os._exit(code), 1) as helpers:
            message = r"helper process (\d+) exited with status 3"
            with pytest.raises(cpus.HelperExited, match=message) as info:
                helpers.run(lambda: None, [(3,)])
            assert int(re.search(message, str(info.value))[1]) != os.getpid()
            with pytest.raises(cpus.HelperExited, match=message):   # and stays dead
                helpers.run(lambda: None, [(3,)])

    def test_pinned_to_its_cpu(self, monkeypatch):
        """The caller and each child run on one CPU each while the set is open."""
        monkeypatch.setattr(cpus, "_threads", lambda: 1)   # as at one BLAS thread
        mask = sorted(os.sched_getaffinity(0))
        with cpus.Helpers(lambda: os.sched_getaffinity(0), 2) as helpers:
            mine, theirs = helpers.run(lambda: os.sched_getaffinity(0), [(), ()])
            helpers.close()
            helpers.close()
        assert mine == {mask[0]}
        assert theirs == [{mask[1 % len(mask)]}, {mask[2 % len(mask)]}]

    def test_caller_with_other_threads_not_pinned(self, monkeypatch):
        """A BLAS pool started again after the fork would share one CPU."""
        monkeypatch.setattr(cpus, "_threads", lambda: 2)
        mask = os.sched_getaffinity(0)
        with cpus.Helpers(lambda: os.sched_getaffinity(0), 1) as helpers:
            assert helpers.run(lambda: os.sched_getaffinity(0), [()]) == (mask, [mask])

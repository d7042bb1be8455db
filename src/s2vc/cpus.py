"""How many CPUs a command may use, and the threads and processes that use them.

``spare_cpus`` is the one rule for how many CPUs are idle: training forks
one helper process per spare CPU, ``s2vc eval`` forks one for its speaker
embedder when a CPU is spare, and ``s2vc convert`` starts one ``Shares``
thread per spare CPU.  A ``Shares`` runs the contiguous row shares of one
piece of NumPy work at once, on the calling thread and its own threads;
NumPy and BLAS release the interpreter lock, so the shares overlap.  Every
split in the package gives the same bits as the unsplit work: the callers
split only work whose rows are computed independently.

The set a thread splits its work across is ambient, as the recording tape
is: ``with Shares(n):`` makes it the calling thread's ``active()`` set until
the block ends.  Elsewhere, and inside every share, ``active()`` is
``SERIAL``, the set with no threads, under which every share is the whole of
the work, run inline.

A ``Helpers`` set owns every child process the package starts, and its
``run`` is ``Shares.run``'s contract for processes: the caller's own work
and one task per child at once, every result in list order.  Training
computes microsteps in one; ``s2vc eval`` trains its speaker embedder in
another, or after its conversions when no CPU is spare."""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import signal
import threading

from . import Error

__all__ = ["spare_cpus", "Shares", "SERIAL", "active", "Helpers", "HelperExited"]


def spare_cpus():
    """CPUs of this process's affinity mask that its own threads leave idle.

    A multi-threaded BLAS starts its thread pool when it loads, and that pool
    already keeps the other CPUs busy: a helper beside it slowed training.
    Without Linux's affinity mask and ``/proc/self/task`` there are none.
    """
    try:
        return max(0, len(os.sched_getaffinity(0)) - _threads())
    except (AttributeError, OSError):
        return 0


def _threads():
    """The number of threads of this process (Linux only)."""
    return len(os.listdir("/proc/self/task"))


def _outcome(task):
    """``(True, result)`` of calling ``task``, or ``(False, exception)``."""
    try:
        return True, task()
    except BaseException as e:  # Shares.run raises it once every share is done
        return False, e


def _values(outcomes):
    """The values of ``_outcome`` pairs, or the exception of the first, in
    list order, that holds one."""
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


class Shares:
    """The calling thread plus a pool of ``n_threads`` threads.

    Task 0 of every split runs on the calling thread, and the pool's threads
    and the calling thread share the others, so no task waits behind another
    while a thread is idle.  Every task runs with ``SERIAL`` active, so a
    share never splits its own work again.  Use the set as a context
    manager to make it the active set of the block, and to stop its threads
    when the block ends.
    """

    def __init__(self, n_threads=0):
        self.count = n_threads + 1
        self._pool = None
        if n_threads:
            # only a command that starts threads pays for the import
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(n_threads, thread_name_prefix="s2vc-share")

    def run(self, tasks):
        """Call every zero-argument task in ``tasks``; returns their results.

        Task 0 runs on the calling thread.  The pool's threads take the
        others in list order, and so does the calling thread once task 0 is
        done: a task no thread has started is run by the caller.  Every task
        finishes before this returns or raises; the exception of the first
        task, in list order, that raised one is raised.
        """
        previous, _active.shares = _active.shares, SERIAL
        try:
            if len(tasks) < 2 or self._pool is None:
                outcomes = [_outcome(task) for task in tasks]
            else:
                outcomes = self._split(tasks)
        finally:
            _active.shares = previous
        return _values(outcomes)

    def _split(self, tasks):
        """The outcomes of ``tasks``: task 0 on this thread, and each other
        on whichever thread starts it first."""
        futures = [self._pool.submit(_outcome, task) for task in tasks[1:]]
        outcomes = [_outcome(tasks[0])] + [None] * len(futures)
        try:
            for i, future in enumerate(futures, 1):
                if future.cancel():   # no pool thread has started it
                    outcomes[i] = _outcome(tasks[i])
            for i, future in enumerate(futures, 1):
                if outcomes[i] is None:
                    outcomes[i] = future.result()
        except BaseException:   # the pool may still be writing the caller's arrays
            for future in futures:
                if not future.cancel():
                    future.result()
            raise
        return outcomes

    def ranges(self, n, min_rows=1):
        """Contiguous ``(lo, hi)`` row ranges that cover ``range(n)``, one
        per share, each at least ``min_rows`` long.  Fewer rows than that
        make fewer ranges, down to the one range ``(0, n)``."""
        k = max(1, min(self.count, n // max(1, min_rows)))
        bounds = [n * i // k for i in range(k + 1)]
        return list(zip(bounds, bounds[1:]))

    def rows(self, n, fn, min_rows=1):
        """``fn(lo, hi)`` for each of ``ranges(n, min_rows)``, run as one
        split; returns the results in row order."""
        return self.run([functools.partial(fn, lo, hi)
                         for lo, hi in self.ranges(n, min_rows)])

    def close(self):
        """Stop the threads; the set then runs every share inline."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self.count = 1

    def __enter__(self):
        self._outer, _active.shares = _active.shares, self
        return self

    def __exit__(self, exc_type, exc, tb):
        _active.shares = self._outer
        self.close()
        return False


SERIAL = Shares()


class _Active(threading.local):
    shares = SERIAL


_active = _Active()


def active():
    """The calling thread's active set: the innermost ``with Shares(...)``
    block's, or ``SERIAL`` outside every block and inside every share."""
    return _active.shares


class HelperExited(Error):
    """A helper process ended without replying to a task sent to it."""


def _serve_tasks(fn, cpu, task_fd, reply_fd):
    """A helper's loop, on ``cpu`` alone when one is given: call ``fn`` on
    each task and write back its ``(True, value)``, or ``(False,
    exception)``.  The end of the task pipe ends the loop."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # the caller handles ^C
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    with open(task_fd, "rb") as tasks, open(reply_fd, "wb") as replies:
        while True:
            try:
                args = pickle.load(tasks)
            except EOFError:
                return
            try:
                reply = (True, fn(*args))
            except Exception as e:   # raised again by Helpers.run
                reply = (False, e)
            del args   # the task's arrays are freed before the reply is written
            pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
            replies.flush()
            del reply   # and the reply is not kept while the child waits


class _Helper:
    """One forked child running ``_serve_tasks``, and the two pipes to it.

    ``send`` and ``recv`` give the ``(ok, value)`` outcome of a task; a
    child that has died gives ``(False, HelperExited)`` naming its pid and
    exit status.
    """

    def __init__(self, fn, cpu):
        task_r, task_w = os.pipe()
        reply_r, reply_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (task_r, task_w, reply_r, reply_w):
                os.close(fd)
            raise
        if self.pid == 0:
            status = 1
            try:
                os.close(task_w)
                os.close(reply_r)
                _serve_tasks(fn, cpu, task_r, reply_w)
                status = 0
            finally:
                os._exit(status)   # never return into the caller's stack
        os.close(task_r)
        os.close(reply_w)
        self._tasks = open(task_w, "wb")
        self._replies = open(reply_r, "rb")
        self._exit_status = None

    def send(self, args):
        try:
            pickle.dump(args, self._tasks, pickle.HIGHEST_PROTOCOL)
            self._tasks.flush()
        except BrokenPipeError:
            return False, self._exited()
        return True, None

    def recv(self):
        try:
            return pickle.load(self._replies)
        except (EOFError, pickle.UnpicklingError):
            return False, self._exited()

    def _exited(self):
        if self._exit_status is None:
            _, status = os.waitpid(self.pid, 0)
            self._exit_status = os.waitstatus_to_exitcode(status)
        return HelperExited(f"helper process {self.pid} exited with status "
                            f"{self._exit_status}")

    def close(self):
        """Kill and reap the child, unless it is reaped already."""
        if self._exit_status is None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self._exit_status = -signal.SIGKILL
        for pipe in (self._tasks, self._replies):
            with contextlib.suppress(OSError):   # a task the child never read
                pipe.close()


class Helpers:
    """``n`` child processes, forked once, here, that call ``fn`` on the
    tasks ``run`` sends them.

    ``fn`` and everything it refers to are inherited through the fork, not
    pickled; a task's arguments and ``fn``'s value each cross a pipe as one
    pickle.  The children ignore SIGINT.  While there are children of a
    caller that runs no other thread, the caller and each child are pinned
    to one CPU each of the caller's affinity mask, which ``close``
    restores: left to the scheduler, a child woken by the caller's pipe
    write ran on the caller's CPU for the first second or so, at half speed
    for both.  A caller with other threads, such as a BLAS pool, is not
    pinned: the pool, started again after the fork, would share the one
    CPU, and OpenBLAS's two threads on one CPU of a 2-core host trained the
    eval embedder in 24 s instead of 0.4 s.  ``count`` is the number of
    processes that share a run's work, the caller included.

    ``close``, or the end of a ``with`` block, kills and reaps the
    children; a closed set runs every task on the caller.  Make a set only
    in a process without other threads: a lock another thread holds at the
    fork stays held in the child.
    """

    def __init__(self, fn, n):
        self._fn = fn
        self._helpers = []
        self._mask = os.sched_getaffinity(0) if n and _threads() == 1 else set()
        mask = sorted(self._mask)
        try:
            for i in range(n):
                cpu = mask[(1 + i) % len(mask)] if mask else None
                self._helpers.append(_Helper(fn, cpu))
        except BaseException:
            self.close()
            raise
        if mask:
            os.sched_setaffinity(0, {mask[0]})
        self.count = 1 + n

    def run(self, own, tasks):
        """``(own(), [fn(*args) for args in tasks])``.

        Task ``i`` is sent to child ``i`` before ``own`` runs on the
        caller; a task beyond the last child runs on the caller after
        ``own``.  An exception ``own`` raises closes the set, so the
        children are killed, not waited for.  Otherwise every reply is
        read, and the exception of the first task, in list order, that
        raised one is raised as itself, so the children serve the next
        run.  A child that died raises ``HelperExited``.
        """
        sent = self._helpers[:len(tasks)]
        try:
            outcomes = [h.send(args) for h, args in zip(sent, tasks)]
            mine = own()
            outcomes = [h.recv() if ok else (ok, e)
                        for h, (ok, e) in zip(sent, outcomes)]
        except BaseException:
            self.close()
            raise
        for args in tasks[len(sent):]:
            outcomes.append(_outcome(functools.partial(self._fn, *args)))
        return mine, _values(outcomes)

    def close(self):
        """Kill and reap every child, and give the caller back its mask."""
        if self._helpers and self._mask:
            os.sched_setaffinity(0, self._mask)
        for h in self._helpers:
            h.close()
        self._helpers = []
        self.count = 1

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

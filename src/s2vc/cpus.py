"""How many CPUs a command may use, and the threads and processes that use them.

``spare_cpus`` is the one rule for how many CPUs are idle: training forks
one ``Helper`` process per spare CPU, and ``s2vc convert`` starts one
``Shares`` thread.  A ``Shares`` runs the contiguous row shares of one
piece of NumPy work at once, on the calling thread and its own threads;
NumPy and BLAS release the interpreter lock, so the shares overlap.  Every
split in the package gives the same bits as the unsplit work: the callers
split only work whose rows are computed independently.

``SERIAL`` is the set with no threads, under which every share is the whole
of the work, run inline; it is what every caller gets unless it is handed
another set.

A ``Helper`` is the package's one child process: ``s2vc eval`` trains its
speaker embedder in one, and training computes microsteps in them.
"""

from __future__ import annotations

import contextlib
import functools
import os
import pickle
import signal
import threading

__all__ = ["spare_cpus", "Shares", "SERIAL", "Helper", "HelperExited"]


def spare_cpus():
    """CPUs of this process's affinity mask that its own threads leave idle.

    A multi-threaded BLAS starts its thread pool when it loads, and that pool
    already keeps the other CPUs busy: a helper beside it slowed training.
    Without Linux's affinity mask and ``/proc/self/task`` there are none.
    """
    try:
        return max(0, len(os.sched_getaffinity(0)) - len(os.listdir("/proc/self/task")))
    except (AttributeError, OSError):
        return 0


def _outcome(task):
    """``(True, result)`` of calling ``task``, or ``(False, exception)``."""
    try:
        return True, task()
    except BaseException as e:  # Shares.run raises it once every share is done
        return False, e


def _serve(inbox):
    """A share thread's loop: work on each split it is sent; ``None`` ends
    the loop."""
    while (split := inbox.get()) is not None:
        split.work()


class _Split:
    """The tasks of one ``Shares.run``.  Task 0 is the caller's; each other
    task is claimed once, in list order, by whichever thread asks first."""

    def __init__(self, tasks):
        import queue  # only a command that starts threads pays for it

        self.tasks = tasks
        self.done = queue.SimpleQueue()   # (index, outcome) of each claimed task
        self._todo = queue.SimpleQueue()
        self._empty = queue.Empty
        for index in range(1, len(tasks)):
            self._todo.put(index)

    def work(self):
        """Run unclaimed tasks until none is left."""
        while True:
            try:
                index = self._todo.get_nowait()
            except self._empty:
                return
            self.done.put((index, _outcome(self.tasks[index])))


class Shares:
    """The calling thread plus ``n_threads`` threads of its own.

    Task 0 of every split runs on the calling thread, and the set's threads
    and the calling thread share the others, so no task waits behind another
    while a thread is idle.  A share must not split its own work again.
    Close the set (or use it as a context manager) to stop its threads.
    """

    def __init__(self, n_threads=0):
        self.count = n_threads + 1
        self._inboxes = []
        self._threads = []
        if n_threads:
            import queue

            for i in range(n_threads):
                inbox = queue.SimpleQueue()
                thread = threading.Thread(target=_serve, args=(inbox,),
                                          name=f"s2vc-share-{i + 1}", daemon=True)
                thread.start()
                self._inboxes.append(inbox)
                self._threads.append(thread)

    def run(self, tasks):
        """Call every zero-argument task in ``tasks``; returns their results.

        Task 0 runs on the calling thread.  The set's threads take the
        others in list order, and so does the calling thread once task 0 is
        done: a thread that is slow to wake leaves its task to the caller.
        Every task finishes before this returns or raises; the exception of
        the first task, in list order, that raised one is raised.
        """
        if len(tasks) < 2 or not self._inboxes:
            outcomes = [_outcome(task) for task in tasks]
        else:
            split = _Split(tasks)
            for inbox in self._inboxes:
                inbox.put(split)
            outcomes = [None] * len(tasks)
            try:
                outcomes[0] = _outcome(tasks[0])
                split.work()
            finally:  # the other threads may still be writing the caller's arrays
                for _ in range(len(tasks) - 1):
                    index, outcome = split.done.get()
                    outcomes[index] = outcome
        results = []
        for ok, value in outcomes:
            if not ok:
                raise value
            results.append(value)
        return results

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
        for inbox in self._inboxes:
            inbox.put(None)
        for thread in self._threads:
            thread.join()
        self._inboxes, self._threads = [], []
        self.count = 1

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


SERIAL = Shares()


class HelperExited(Exception):
    """A helper process ended without replying to a task sent to it."""


def _serve_tasks(fn, cpu, task_fd, reply_fd):
    """A helper's loop: call ``fn`` on each task and write back its value,
    or the exception it raised.  The end of the task pipe ends the loop."""
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
            except Exception as e:   # raised again by Helper.recv
                reply = (False, e)
            del args   # the task's arrays are freed before the reply is written
            pickle.dump(reply, replies, pickle.HIGHEST_PROTOCOL)
            replies.flush()
            del reply   # and the reply is not kept while the child waits


class Helper:
    """A child process, forked once, that calls ``fn`` on each task it is sent.

    ``fn`` and everything it refers to are inherited through the fork, not
    pickled; a task's arguments and ``fn``'s value each cross a pipe as one
    pickle.  ``recv`` returns the values in the order the tasks were sent
    and raises an exception ``fn`` raised as itself.  A child that has died
    raises ``HelperExited`` naming its pid and exit status.  The child runs
    on ``cpu`` alone, when one is given, and ignores SIGINT.  ``close``, or
    the end of a ``with`` block, kills and reaps it.

    The child writes each reply before it reads the next task: a large task
    sent while a reply larger than a pipe buffer is unread blocks both
    processes, so send one only when every earlier reply is received.  Make
    a helper only in a process without other threads: a lock another
    thread holds at the fork stays held in the child.
    """

    def __init__(self, fn, cpu=None):
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

    def send(self, *args):
        """Queue the task ``fn(*args)``."""
        try:
            pickle.dump(args, self._tasks, pickle.HIGHEST_PROTOCOL)
            self._tasks.flush()
        except BrokenPipeError:
            raise self._exited() from None

    def recv(self):
        """The value of the oldest task not yet received, or its exception."""
        try:
            ok, value = pickle.load(self._replies)
        except (EOFError, pickle.UnpicklingError):
            raise self._exited() from None
        if not ok:
            raise value
        return value

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

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

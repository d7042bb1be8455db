"""How many CPUs a command may use, and the thread set that uses them.

``spare_cpus`` is the one rule for how many CPUs are idle: training starts
one worker process per spare CPU, and ``s2vc convert`` one ``Shares``
thread.  A ``Shares`` runs the contiguous row shares of one piece of NumPy
work at once, on the calling thread and its own threads; NumPy and BLAS
release the interpreter lock, so the shares overlap.  Every split in the
package gives the same bits as the unsplit work: the callers split only
work whose rows are computed independently.

``SERIAL`` is the set with no threads, under which every share is the whole
of the work, run inline; it is what every caller gets unless it is handed
another set.
"""

from __future__ import annotations

import functools
import os
import threading

__all__ = ["spare_cpus", "Shares", "SERIAL"]


def spare_cpus():
    """CPUs of this process's affinity mask that its own threads leave idle.

    A multi-threaded BLAS starts its thread pool when it loads, and that pool
    already keeps the other CPUs busy: a worker beside it slowed training.
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

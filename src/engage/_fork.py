"""Run half of a computation in a forked worker process beside this one.

``_fork_allowed`` says whether a worker can run here, and ``_forked`` runs one.
The worker gives its whole result through an unnamed temporary file, or none,
and the caller then does that half itself, so the output is that of one
process on every path. Three callers use it, each only above a size where
the fork was measured to pay for itself: the offline replay of sweeps and
the store load in ``ingestion``, and the report's exact sums in ``stats``.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from typing import BinaryIO, Callable, Iterator


def _fork_allowed() -> bool:
    """Whether a forked worker can run beside this process: ``os.fork`` exists,
    this process may run on two CPUs or more, it runs no other thread, and it
    does not ignore SIGCHLD, which would leave no worker to wait for."""
    import signal

    try:
        return (hasattr(os, "fork") and len(os.sched_getaffinity(0)) >= 2
                and len(os.listdir("/proc/self/task")) == 1
                and signal.getsignal(signal.SIGCHLD) != signal.SIG_IGN)
    except (AttributeError, OSError):  # no affinity call or no /proc, as off Linux
        return False


@contextlib.contextmanager
def _forked(work: Callable[[BinaryIO], object]) -> Iterator[Callable[[], BinaryIO | None] | None]:
    """Runs ``work(spool)`` in a forked worker beside the ``with`` body, ``spool``
    an unnamed temporary file that the worker writes its result to.

    Gives None where no temporary file or process can be had. Otherwise it gives
    ``wait``, which reaps the worker and returns the spool at its start, or None
    where the worker did not exit with status 0. The worker gives its whole
    result or none: every warning is an error in it, whatever the caller's
    filters, so a warning or an error ends it with status 1, and the caller then
    does that work itself, where each warning and error is the one-process one.
    The worker leaves only through ``os._exit``, with status 0 once ``work``
    returns and the spool is flushed, so it never returns into the caller's
    stack and never flushes the buffers it inherited. SIGINT is held while the
    worker is made, so that an interrupt lands in the worker only inside its
    ``try``, and here only inside this one: on every way out of the body, an
    error or an interrupt included, the worker is killed if it still runs and
    reaped, and the spool is closed.
    """
    # imported here, not at module level: only a process that forks pays for them
    import signal
    import tempfile

    spool = pid = None
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        try:
            spool = tempfile.TemporaryFile()
            pid = os.fork()
        except OSError:  # no temporary file or no process to be had
            pass
        if pid == 0:
            status = 1
            try:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                warnings.simplefilter("error")  # so that any warning ends the worker
                work(spool)
                spool.flush()
                status = 0
            finally:
                os._exit(status)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)

        def wait() -> BinaryIO | None:
            nonlocal pid
            status = os.waitpid(pid, 0)[1]
            pid = None
            spool.seek(0)
            return spool if status == 0 else None

        yield None if pid is None else wait
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)  # also after an error before it
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if spool is not None:
            spool.close()

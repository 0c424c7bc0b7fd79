"""Parallel lambda cells: each in a child process forked for it.

`forked_cells` runs a sweep's cells under `--jobs K` with one `os.fork()`
per cell and one pipe back: no process pool, no threads and no
`multiprocessing`. The cells share no state and each returns one small
dict, so a child needs nothing but the parent's memory at the fork. Only
`sweep.sharpness_sweep` imports this module, and only for jobs > 1: a
`--jobs 1` process neither loads nor compiles it.
"""

from __future__ import annotations

import os
import pickle
import select
import signal

from .errors import CurveAvgError

__all__ = ["forked_cells"]


def forked_cells(run_cell, cfg, lams):
    """[run_cell(cfg, lam) for lam in lams], each call in a child forked for
    it.

    At most min(cfg.jobs, len(lams)) children run at once; they start largest
    lambda first, the next whenever one ends, since a cell's cost grows with
    lambda and the longest cell started last would end the sweep alone
    (Graham's longest-first rule). The cells still come back in the order
    of lams. A child sends its dict, or the exception `run_cell` raised,
    pickled through a pipe and leaves by `os._exit`: it never returns into
    the caller nor flushes inherited stdio. A child's exception is raised
    here as it was raised there; a child that dies without sending its
    result (a signal, a nonzero status) is a CurveAvgError naming its
    lambda. On any error or interrupt every live child is killed and reaped
    before the error propagates.
    """
    cells = [None] * len(lams)
    pending = sorted(enumerate(lams), key=lambda item: item[1])   # pop: largest
    running = {}   # read end -> (pid, index, chunks read so far)
    try:
        while pending or running:
            while pending and len(running) < cfg.jobs:
                i, lam = pending.pop()
                read, write = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _cell_child(run_cell, write, (read, *running), cfg, lam)
                running[read] = (pid, i, [])
                os.close(write)
            ready, _, _ = select.select(list(running), [], [])
            for read in ready:
                pid, i, chunks = running[read]
                chunk = os.read(read, 1 << 16)
                if chunk:
                    chunks.append(chunk)
                    continue
                del running[read]
                os.close(read)
                _, status = os.waitpid(pid, 0)
                code = os.waitstatus_to_exitcode(status)
                if code:
                    how = (f"was killed by {signal.Signals(-code).name}"
                           if code < 0 else f"exited with status {code}")
                    raise CurveAvgError(
                        f"lambda={lams[i]:g}: the cell's process {how} "
                        "without a result")
                cells[i] = pickle.loads(b"".join(chunks))
                if isinstance(cells[i], BaseException):
                    raise cells[i]
    except BaseException:
        for read, (pid, _, _) in running.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
        raise
    return cells


def _cell_child(run_cell, write, reads, cfg, lam):
    """The forked child of one cell: `run_cell(cfg, lam)`, its dict or
    exception pickled to the pipe's write end, and `os._exit`, 0 once the
    whole payload is written.

    The child first closes the pipes' read ends it inherited, its own and
    those of the cells still running: should the sweep's process die, its
    writes then fail instead of blocking on a full pipe for ever.
    """
    status = 1
    try:
        for fd in reads:
            os.close(fd)
        try:
            payload = run_cell(cfg, lam)
        except Exception as exc:
            payload = exc
        with open(write, "wb") as pipe:
            pickle.dump(payload, pipe)
        status = 0
    finally:
        os._exit(status)

"""Forked worker shares for the Monte-Carlo engine.

``forked_map`` runs ``fn(i)`` for i < count in the calling process and in
children made with ``os.fork()``, so ``fn`` may be a closure (it is never
pickled; only its results are). Nothing outlives a call: every child is
reaped before it returns or raises.
"""

from __future__ import annotations

import os
import pickle
import threading

__all__ = ["forked_map"]


class _ChildTraceback(Exception):
    """The formatted traceback of an exception raised in a forked worker."""


def _run_in_child(read_fd: int, write_fd: int, run, share: list[int]) -> None:
    """Body of a forked worker: pickle ``(ok, result)`` to the pipe and exit.

    Never returns; a worker that cannot send its payload exits nonzero.
    """
    status = 1
    try:
        os.close(read_fd)
        try:
            payload = (True, run(share))
        except Exception as exc:
            import traceback  # only a failing child needs it; ~2 ms of every start

            payload = (False, (exc, traceback.format_exc()))
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)  # no atexit handlers, no flush of the parent's buffers


def forked_map(fn, count: int, workers: int) -> list:
    """``[fn(i) for i in range(count)]``, with the indices dealt round-robin to
    at most ``workers`` workers.

    The caller runs share 0 and forked children run the others. A child that
    raises sends its exception, which is raised here; a child that dies
    (nonzero exit status: killed, or its payload could not be sent) has its
    share run again here.
    Every child is killed and reaped on every exit path. Forking waits for a
    process with one Python thread, since another thread could hold a lock
    the child needs. Threads started outside Python are not seen (a BLAS pool
    stops its threads at a fork; other native pools are not guarded), and a
    child that hangs holds up the caller, which reads its pipe without a
    timeout.
    """
    workers = min(workers, count) if threading.active_count() == 1 else 1
    shares = [list(range(j, count, workers)) for j in range(workers)]
    results = {}

    def run(share: list[int]) -> list:
        return [fn(i) for i in share]

    inline = [shares[0]]
    children = []  # (pid, read end, share), until reaped
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                inline.append(share)
                continue
            if pid == 0:
                _run_in_child(read_fd, write_fd, run, share)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb"), share))
        for share in inline:
            results.update(zip(share, run(share)))
        while children:
            pid, pipe, share = children[0]
            data = pipe.read()
            pipe.close()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if status != 0:
                value = run(share)
            else:
                ok, value = pickle.loads(data)
                if not ok:
                    exc, text = value
                    raise exc from _ChildTraceback(text)
            results.update(zip(share, value))
    finally:
        if children:
            import signal  # only an early exit leaves children; ~3 ms of every start
        for pid, pipe, _ in children:
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
    return [results[i] for i in range(count)]

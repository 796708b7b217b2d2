"""Pluggable cell executors; the local forked worker pool.

The orchestrator speaks to an :class:`Executor` — dispatch a cell,
collect result/exit events, reclaim a worker — and never to processes
directly, so an ssh or k8s backend is one subclass away.  The local
implementation fans cells across long-lived worker processes, each
forked from the orchestrator once the manifest is expanded (so it
starts with ``repro``, the registries and the manifest's ``modules``
already imported) and each running :func:`repro.campaign.worker.main`
over its own stdin/stdout/stderr pipes, multiplexed with ``selectors``;
simulations are single-threaded pure Python, so worker processes
parallelize cells perfectly.  What a worker inherits, resets and how it
exits: ``docs/INVARIANTS.md#forked-workers``.

Every blocking operation in this module carries an explicit timeout
(``docs/INVARIANTS.md#subprocess-timeout-discipline``, enforced by the
``subprocess-timeout`` lint rule): a worker that stops responding must
always be reclaimable by the orchestrator's clock, never waited on
forever.
"""

from __future__ import annotations

import io
import json
import os
import selectors
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, NoReturn, Optional

from repro.campaign import worker as worker_module

#: cap on the retained per-worker stderr tail (crash provenance)
_STDERR_TAIL_BYTES = 4096


@dataclass
class WorkerEvent:
    """One observation from the pool: a cell result or a worker death."""

    kind: str  # "result" | "exit"
    worker_id: int
    #: the task the worker was running (None for an idle death)
    task_id: Optional[int] = None
    #: for "result": the worker's reply payload (ok/result/error)
    payload: Optional[Dict[str, Any]] = None
    #: for "exit": the process return code (None if unknowable)
    returncode: Optional[int] = None
    #: for "exit": the last stderr bytes, decoded (error provenance)
    stderr_tail: str = ""


class Executor:
    """Interface the orchestrator drives; implement one per backend."""

    def ensure_workers(self, count: int) -> int:
        """Spawn workers until ``count`` are alive; returns live total."""
        raise NotImplementedError

    def idle_worker_ids(self) -> List[int]:
        """Workers currently without an in-flight task."""
        raise NotImplementedError

    def submit(self, task: Dict[str, Any]) -> Optional[int]:
        """Dispatch to an idle worker; returns its id (None if none idle)."""
        raise NotImplementedError

    def events(self, timeout_s: float) -> List[WorkerEvent]:
        """Block up to ``timeout_s`` for results/exits (possibly empty)."""
        raise NotImplementedError

    def kill_worker(self, worker_id: int) -> Optional[int]:
        """Forcibly reclaim a worker; returns its in-flight task id."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Stop every worker (graceful, then forceful)."""
        raise NotImplementedError


class _ForkedProcess:
    """A worker forked from this process, behind the part of the
    ``subprocess.Popen`` interface the pool uses.  :meth:`wait` polls
    ``waitpid(WNOHANG)`` up to its bound, so it never blocks unbounded."""

    def __init__(self) -> None:
        child_in, self_in = os.pipe()
        self_out, child_out = os.pipe()
        self_err, child_err = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (child_in, self_in, self_out, child_out, self_err, child_err):
                os.close(fd)
            raise
        if self.pid == 0:
            _run_worker(child_in, child_out, child_err)  # never returns
        for fd in (child_in, child_out, child_err):
            os.close(fd)
        self.stdin = open(self_in, "wb", buffering=0)
        self.stdout = open(self_out, "rb", buffering=0)
        self.stderr = open(self_err, "rb", buffering=0)
        self.returncode: Optional[int] = None

    def poll(self) -> Optional[int]:
        if self.returncode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def wait(self, timeout: float) -> Optional[int]:
        """The exit code, or None if the worker outlived ``timeout``."""
        deadline = time.monotonic() + timeout
        delay = 0.0005
        while self.poll() is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            time.sleep(min(delay, remaining))
            delay = min(delay * 2, 0.05)
        return self.returncode

    def terminate(self) -> None:
        self._signal(signal.SIGTERM)

    def kill(self) -> None:
        self._signal(signal.SIGKILL)

    def _signal(self, signum: int) -> None:
        if self.poll() is None:
            os.kill(self.pid, signum)


def _run_worker(stdin_fd: int, stdout_fd: int, stderr_fd: int) -> NoReturn:
    """The forked child: become a worker on three fresh pipes, then leave
    without running the orchestrator's exit path."""
    # Held until os._exit: dropping the last reference to an inherited
    # stream could flush the orchestrator's unwritten output twice.
    inherited = (sys.stdin, sys.stdout, sys.stderr)
    code = 1
    try:
        for fd, target in ((stdin_fd, 0), (stdout_fd, 1), (stderr_fd, 2)):
            os.dup2(fd, target)
        # This pipe's write end, the other workers' pipes, the journal,
        # the selector: a worker holding any stdin write end would hide
        # that stdin's EOF, which is how a worker learns it is orphaned.
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        signal.signal(signal.SIGINT, signal.default_int_handler)
        # closefd=False: 0/1/2 close with the process, so EOF on its
        # stdout tells the orchestrator the worker is exiting
        sys.stdin = open(0, "r", closefd=False)
        sys.stdout, sys.stderr = (
            io.TextIOWrapper(
                open(fd, "wb", buffering=0, closefd=False),
                write_through=True,
                errors="backslashreplace",
            )
            for fd in (1, 2)
        )
        code = worker_module.main()
    except BaseException:  # noqa: BLE001 - reported, then the exit code
        traceback.print_exc()
    finally:
        os._exit(code)  # `inherited` stays referenced up to here


@dataclass
class _Worker:
    proc: _ForkedProcess
    worker_id: int
    task_id: Optional[int] = None
    out_buf: bytes = b""
    err_tail: bytes = b""
    eof: bool = False

    def stderr_text(self) -> str:
        return self.err_tail.decode("utf-8", errors="replace")


class LocalPoolExecutor(Executor):
    """A pool of worker processes forked from this one (stdin/stdout JSON
    lines)."""

    def __init__(self, *, grace_s: float = 5.0):
        if not hasattr(os, "fork"):
            raise RuntimeError("the local campaign worker pool needs os.fork (POSIX)")
        self.grace_s = grace_s
        self._workers: Dict[int, _Worker] = {}
        self._next_id = 1
        self._selector = selectors.DefaultSelector()
        #: events discovered outside :meth:`events` (e.g. a submit that
        #: hit a dead pipe), delivered on the next poll
        self._pending: List[WorkerEvent] = []

    # -- spawning ------------------------------------------------------
    def _spawn(self) -> _Worker:
        proc = _ForkedProcess()
        worker = _Worker(proc=proc, worker_id=self._next_id)
        self._next_id += 1
        self._workers[worker.worker_id] = worker
        # Non-blocking reads: _reap may need to drain stderr from a
        # still-live worker, and must never block on an empty pipe.
        os.set_blocking(proc.stdout.fileno(), False)
        os.set_blocking(proc.stderr.fileno(), False)
        self._selector.register(proc.stdout, selectors.EVENT_READ, (worker, "out"))
        self._selector.register(proc.stderr, selectors.EVENT_READ, (worker, "err"))
        return worker

    def ensure_workers(self, count: int) -> int:
        while len(self._workers) < count:
            self._spawn()
        return len(self._workers)

    def idle_worker_ids(self) -> List[int]:
        return sorted(
            w.worker_id
            for w in self._workers.values()
            if w.task_id is None and not w.eof
        )

    # -- dispatch ------------------------------------------------------
    def submit(self, task: Dict[str, Any]) -> Optional[int]:
        idle = self.idle_worker_ids()
        if not idle:
            return None
        worker = self._workers[idle[0]]
        line = (json.dumps(task) + "\n").encode()
        try:
            worker.proc.stdin.write(line)
            worker.proc.stdin.flush()
        except OSError:
            # Dead pipe: surface the death via the event stream and let
            # the orchestrator re-dispatch elsewhere.
            event = self._reap(worker)
            if event is not None:
                self._pending.append(event)
            return None
        worker.task_id = task["id"]
        return worker.worker_id

    # -- event collection ----------------------------------------------
    def events(self, timeout_s: float) -> List[WorkerEvent]:
        out: List[WorkerEvent] = []
        out.extend(self._pending)
        self._pending = []
        for key, _mask in self._selector.select(timeout=max(0.0, timeout_s)):
            worker, stream = key.data
            if worker.worker_id not in self._workers:
                # Reaped by an earlier key of this batch (its stdout hit
                # EOF before its stderr was read); _reap drained stderr.
                continue
            try:
                chunk = os.read(key.fileobj.fileno(), 65536)
            except OSError:
                chunk = b""
            if stream == "err":
                worker.err_tail = (worker.err_tail + chunk)[-_STDERR_TAIL_BYTES:]
                if not chunk:
                    self._unregister(worker.proc.stderr)
                continue
            if not chunk:
                worker.eof = True
                self._unregister(worker.proc.stdout)
                out.append(self._reap(worker))
                continue
            worker.out_buf += chunk
            while b"\n" in worker.out_buf:
                line, worker.out_buf = worker.out_buf.split(b"\n", 1)
                event = self._parse_result(worker, line)
                if event is not None:
                    out.append(event)
        return [e for e in out if e is not None]

    def _parse_result(
        self, worker: _Worker, line: bytes
    ) -> Optional[WorkerEvent]:
        try:
            payload = json.loads(line.decode("utf-8", errors="replace"))
        except ValueError:
            return None
        task_id = payload.get("id", worker.task_id)
        worker.task_id = None  # the worker is idle again
        return WorkerEvent(
            kind="result",
            worker_id=worker.worker_id,
            task_id=task_id,
            payload=payload,
        )

    # -- reclamation ---------------------------------------------------
    def _unregister(self, fileobj) -> None:
        try:
            self._selector.unregister(fileobj)
        except (KeyError, ValueError):
            pass

    def _reap(self, worker: _Worker) -> Optional[WorkerEvent]:
        """Remove a dead/dying worker; returns its exit event (once)."""
        if worker.worker_id not in self._workers:
            return None
        del self._workers[worker.worker_id]
        self._unregister(worker.proc.stdout)
        self._unregister(worker.proc.stderr)
        # Drain any last stderr for provenance (non-blocking fd).
        try:
            chunk = os.read(worker.proc.stderr.fileno(), _STDERR_TAIL_BYTES)
            worker.err_tail = (worker.err_tail + chunk)[-_STDERR_TAIL_BYTES:]
        except (OSError, ValueError):
            pass
        self._stop(worker.proc)
        self._close_pipes(worker)
        return WorkerEvent(
            kind="exit",
            worker_id=worker.worker_id,
            task_id=worker.task_id,
            returncode=worker.proc.returncode,
            stderr_tail=worker.stderr_text(),
        )

    def kill_worker(self, worker_id: int) -> Optional[int]:
        worker = self._workers.get(worker_id)
        if worker is None:
            return None
        task_id = worker.task_id
        self._stop(worker.proc)
        del self._workers[worker_id]
        self._unregister(worker.proc.stdout)
        self._unregister(worker.proc.stderr)
        self._close_pipes(worker)
        return task_id

    def _stop(self, proc: _ForkedProcess) -> None:
        """SIGTERM, then SIGKILL after ``grace_s``; gives up after
        another ``grace_s`` (a worker stuck in the kernel)."""
        proc.terminate()
        if proc.wait(timeout=self.grace_s) is None:
            proc.kill()
            proc.wait(timeout=self.grace_s)

    @staticmethod
    def _close_pipes(worker: _Worker) -> None:
        for pipe in (worker.proc.stdin, worker.proc.stdout, worker.proc.stderr):
            try:
                if pipe is not None:
                    pipe.close()
            except OSError:
                pass

    def shutdown(self) -> None:
        for worker in list(self._workers.values()):
            try:
                worker.proc.stdin.write(b'{"op": "shutdown"}\n')
                worker.proc.stdin.flush()
                worker.proc.stdin.close()
            except OSError:
                pass
        for worker in list(self._workers.values()):
            if worker.proc.wait(timeout=self.grace_s) is None:
                worker.proc.kill()
                worker.proc.wait(timeout=self.grace_s)
            self._unregister(worker.proc.stdout)
            self._unregister(worker.proc.stderr)
            self._close_pipes(worker)
        self._workers.clear()
        self._selector.close()
        # A closed selector cannot be reused; a fresh one keeps the
        # executor restartable (tests reuse instances).
        self._selector = selectors.DefaultSelector()

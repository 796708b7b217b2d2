"""The one dispatch loop: run grid cells on an executor until each settles.

``repro sweep`` and ``repro campaign`` both hand their pending cells to
:meth:`GridDriver.drive`, which speaks to an :class:`Executor`, never to
processes: :class:`InlineExecutor` runs cells in this process,
:class:`~repro.campaign.executor.LocalPoolExecutor` on forked workers.
A cell that raises, hangs past the wall-clock limit (its worker is
killed) or loses its worker is retried with backoff until its attempts
exhaust; then it goes terminal as ``failed`` / ``timeout`` with its error
record while the other cells keep running.  The sweep uses the driver as
it is, under :data:`SWEEP_LIMITS`, and keeps each result on its cell;
:class:`repro.campaign.orchestrator.Campaign` journals instead, shows
progress and drains on SIGINT through the hooks.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.campaign import worker as worker_module
from repro.campaign.retry import LimitsPolicy, RetryPolicy
from repro.scenarios.base import ScenarioResult
from repro.scenarios.sweep import (
    SweepSpec,
    cell_key,
    cell_overrides,
    expand_cells,
    shard_of,
)

#: event-loop poll cap: keeps timeout checks and progress
#: output fresh without busy-waiting
_POLL_CAP_S = 0.5

#: the sweep's failure policy: a cell runs once, however long it takes,
#: and a failure is reported rather than retried
SWEEP_LIMITS = LimitsPolicy(cell_timeout_s=math.inf, max_attempts=1)


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
    """Interface the grid driver drives; implement one per backend."""

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


class InlineExecutor(Executor):
    """One worker: this process.  :meth:`submit` runs the cell to its end
    on the overrides as given (no JSON round trip), so the reply keeps the
    live ``ScenarioResult`` (``raw`` too) and no wall-clock limit can stop
    it; a KeyboardInterrupt stops the run."""

    def __init__(self) -> None:
        self._reply: Optional[Dict[str, Any]] = None

    def ensure_workers(self, count: int) -> int:
        return 1

    def idle_worker_ids(self) -> List[int]:
        return [1] if self._reply is None else []

    def submit(self, task: Dict[str, Any]) -> Optional[int]:
        if self._reply is not None:
            return None
        self._reply = worker_module.run_task(task, catch=Exception)
        return 1

    def events(self, timeout_s: float) -> List[WorkerEvent]:
        if self._reply is None:
            time.sleep(max(0.0, timeout_s))  # nothing can arrive
            return []
        reply, self._reply = self._reply, None
        return [WorkerEvent("result", 1, task_id=reply["id"], payload=reply)]

    def kill_worker(self, worker_id: int) -> Optional[int]:
        return None  # a cell of this process has finished by now

    def shutdown(self) -> None:
        self._reply = None


@dataclass
class GridCell:
    """One grid cell's lifecycle state inside the driver."""

    index: int
    shard: int  # 1-based
    params: Dict[str, Any]
    overrides: Dict[str, Any]
    key: str
    status: str = "pending"  # pending | running | ok | failed | timeout
    attempts: int = 0
    error: Optional[Dict[str, Any]] = None
    #: campaign: where the journal holds the sweep-format cell dict
    offset: Optional[int] = None
    #: sweep: the settled result, held until the sweep returns
    result: Optional[ScenarioResult] = None
    duration_s: Optional[float] = None

    @property
    def terminal(self) -> bool:
        return self.status in ("ok", "failed", "timeout")


def grid_cells(spec: SweepSpec, shards: int = 1) -> List[GridCell]:
    """The spec's cells in grid order, each labelled with its shard."""
    cells = []
    for index, params in enumerate(expand_cells(spec)):
        overrides = cell_overrides(spec, params)
        cells.append(
            GridCell(
                index=index,
                shard=shard_of(index, shards)[0],
                params=params,
                overrides=overrides,
                key=cell_key(spec.scenario, overrides),
            )
        )
    return cells


class GridDriver:
    """Dispatch grid cells of one scenario onto an executor's workers."""

    def __init__(
        self,
        scenario: str,
        executor: Executor,
        workers: int,
        limits: LimitsPolicy,
        *,
        modules: Sequence[str] = (),
        seed: int = 1,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.scenario = scenario
        self.executor = executor
        self.workers = workers
        self.limits = limits
        self.modules = list(modules)
        self.policy = RetryPolicy(limits, seed=seed)
        #: fresh dispatches, retry dispatches, and workers lost mid-run
        self.executed = self.retried = self.respawned = 0

    # -- hooks ----------------------------------------------------------
    def _draining(self) -> bool:
        """True once no new cell may be dispatched."""
        return False

    def _settled_ok(self, cell: GridCell, result: ScenarioResult) -> None:
        cell.result = result

    def _settled_failed(self, cell: GridCell) -> None:
        """``cell`` went terminal as failed/timeout (``cell.error``)."""

    def _retrying(self, cell: GridCell, error: Dict[str, Any], delay_s: float) -> None:
        """An attempt of ``cell`` failed; it runs again after ``delay_s``."""

    def _polled(self, running: int) -> None:
        """One pass of the event loop ended with ``running`` cells out."""

    # -- the loop -------------------------------------------------------
    def drive(self, cells: Sequence[GridCell]) -> None:
        """Run ``cells`` until each settles (or a drain stops dispatch),
        then stop the workers."""
        try:
            if cells:
                self._drive(cells)
        finally:
            self.executor.shutdown()

    def _drive(self, remaining: Sequence[GridCell]) -> None:
        timeout_s = self.limits.cell_timeout_s
        now = time.monotonic()
        ready = [(now, cell.index, cell) for cell in remaining]  # due-time heap
        heapq.heapify(ready)
        unfinished = len(remaining)  # cells not terminal yet
        #: task id -> (cell, dispatch time, worker id)
        running: Dict[int, Tuple[GridCell, float, int]] = {}
        next_id = 1

        def refill(now: float) -> None:
            """Dispatch due cells onto idle workers (never while draining)."""
            nonlocal next_id
            while (
                not self._draining()
                and ready
                and ready[0][0] <= now
                and self.executor.idle_worker_ids()
            ):
                cell = ready[0][2]
                worker_id = self.executor.submit({
                    "op": "run",
                    "id": next_id,
                    "scenario": self.scenario,
                    "overrides": cell.overrides,
                    "modules": self.modules,
                })
                if worker_id is None:
                    break  # its worker died; the exit event follows
                heapq.heappop(ready)
                running[next_id] = (cell, now, worker_id)
                next_id += 1
                if cell.attempts:
                    self.retried += 1
                cell.attempts += 1
                cell.status = "running"
                self.executed += 1

        def fail(
            cell: GridCell, error: Dict[str, Any], now: float,
            status: str = "failed",
        ) -> None:
            """One attempt died; retry with backoff or go terminal."""
            nonlocal unfinished
            if self.policy.should_retry(cell.attempts):
                delay = self.policy.delay_s(cell.attempts)
                cell.status = "pending"
                heapq.heappush(ready, (now + delay, cell.index, cell))
                self._retrying(cell, error, delay)
                return
            cell.status, cell.error = status, error
            unfinished -= 1
            self._settled_failed(cell)

        while unfinished:
            draining = self._draining()
            if draining and not running:
                break
            now = time.monotonic()
            if not draining:  # respawn crashed workers up to demand
                self.executor.ensure_workers(min(self.workers, unfinished))
            refill(now)

            # Wait for results/exits, but wake for the next deadline.
            wake = [now + _POLL_CAP_S] + [
                started + timeout_s for _cell, started, _w in running.values()
            ]
            if ready:
                wake.append(ready[0][0])
            events = self.executor.events(max(0.01, min(wake) - now))

            # The workers these events freed get their next cell before
            # the results are settled (a campaign fsyncs each record), so
            # they compute while this process writes.
            now = time.monotonic()
            ended = []
            for event in events:
                task = running.pop(event.task_id, None)
                if task is not None:
                    ended.append((event, task[0], task[1]))
                elif event.kind == "exit":  # an idle worker died
                    self.respawned += 1
            refill(now)
            for event, cell, started in ended:
                payload = event.payload or {}
                if event.kind == "exit":
                    self.respawned += 1
                    fail(cell, {
                        "kind": "worker-crash",
                        "message": (
                            f"worker exited with code {event.returncode} "
                            "while running this cell"
                        ),
                        "returncode": event.returncode,
                        "stderr_tail": event.stderr_tail[-1000:],
                    }, now)
                elif payload.get("ok"):
                    cell.status, cell.duration_s = "ok", now - started
                    unfinished -= 1
                    result = payload.get("result") or {}
                    if not isinstance(result, ScenarioResult):
                        result = ScenarioResult.from_json_dict(result)
                    self._settled_ok(cell, result)
                else:
                    error = payload.get("error") or {}
                    fail(cell, {"kind": "exception", **error}, now)

            # Enforce per-cell wall-clock timeouts.
            for task_id, (cell, started, worker_id) in sorted(running.items()):
                if now - started < timeout_s:
                    continue
                self.executor.kill_worker(worker_id)
                self.respawned += 1
                del running[task_id]
                fail(cell, {
                    "kind": "timeout",
                    "message": (
                        f"cell exceeded the {timeout_s:g}s "
                        "wall-clock limit and was killed"
                    ),
                }, now, status="timeout")

            self._polled(len(running))

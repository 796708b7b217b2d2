"""Campaign worker: a long-lived process executing cells one at a time.

Each worker is forked from the orchestrator by
:class:`repro.campaign.executor.LocalPoolExecutor`, which points its
stdin/stdout/stderr at three fresh pipes and runs :func:`main` until
the orchestrator sends ``shutdown`` or closes stdin.

Protocol (line-delimited JSON over stdin/stdout)::

    -> {"op": "run", "id": 7, "scenario": "websearch",
        "overrides": {...}, "modules": ["repro.scenarios.faulty"]}
    <- {"id": 7, "ok": true,  "result": {<ScenarioResult JSON>}}
    <- {"id": 7, "ok": false, "error": {"type": ..., "message": ...,
                                        "traceback": ...}}
    -> {"op": "shutdown"}

Scenario exceptions are caught and reported per task — the worker stays
alive for the next cell.  What this process *cannot* survive (hard
exits, segfault-style kills, hangs) is exactly what the orchestrator's
crash detection and wall-clock timeouts exist for.

The real stdout is reserved for protocol lines: ``sys.stdout`` is
redirected to stderr before any scenario code runs, so a print() inside
an experiment can never corrupt the message stream.
"""

from __future__ import annotations

import importlib
import json
import sys
import traceback
from typing import Any, Dict


def _execute(task: Dict[str, Any]) -> Dict[str, Any]:
    """Run one cell; exceptions become a structured error payload."""
    try:
        for module in task.get("modules", []):
            importlib.import_module(module)
        from repro.scenarios.registry import get_scenario

        result = (
            get_scenario(task["scenario"])
            .run(**task.get("overrides", {}))
            .without_raw()
        )
        return {"id": task["id"], "ok": True, "result": result.to_json_dict()}
    except BaseException as exc:  # noqa: BLE001 — a worker must not die here
        return {
            "id": task.get("id"),
            "ok": False,
            "error": {
                "kind": "exception",
                "type": type(exc).__name__,
                "message": str(exc),
                "traceback": traceback.format_exc(),
            },
        }


def main() -> int:
    protocol_out = sys.stdout
    sys.stdout = sys.stderr  # scenario prints must not reach the protocol
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            task = json.loads(line)
        except ValueError:
            continue  # a torn dispatch; the orchestrator will time it out
        if task.get("op") == "shutdown":
            break
        if task.get("op") != "run":
            continue
        reply = _execute(task)
        try:
            payload = json.dumps(reply)
        except (TypeError, ValueError):
            # A result that does not serialize is a failed cell, not a
            # protocol wedge.
            payload = json.dumps(
                {
                    "id": task.get("id"),
                    "ok": False,
                    "error": {
                        "kind": "exception",
                        "type": "SerializationError",
                        "message": "cell result is not JSON-serializable",
                        "traceback": "",
                    },
                }
            )
        protocol_out.write(payload + "\n")
        protocol_out.flush()
    return 0

"""CI campaign smoke: the fault-injection campaign end to end.

Runs ``python -m repro campaign`` twice against the committed
``smoke.json`` template (``{tmp}`` placeholders land in a fresh temp
directory so the checked-out tree stays clean):

1. **Recoverable faults** — every non-ok cell raises, hard-exits, or
   hangs on its *first* attempt (``fail_times: 1``) and must recover:
   exit 0, merged output complete, every injected cell carrying
   ``attempts > 1`` retry provenance, no failure report.
2. **Exhausted retries** — the same grid's ``fail`` cells with
   ``fail_times: -1`` (every attempt fails): exit 1, the merged output
   still complete (failed cells present with error provenance), and the
   failure report listing exactly the injected cells.

Both phases also check the on-disk format end to end: the merged
document and every shard file — streamed cell by cell by the real
orchestrator — must be byte for byte the ``indent=1, sort_keys=True``
encoding of what they parse to.

Any assertion failure exits non-zero, turning the CI job red.
"""

import glob
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
TEMPLATE = os.path.join(HERE, "smoke.json")


def _load_template(tmp):
    with open(TEMPLATE) as handle:
        text = handle.read()
    return json.loads(text.replace("{tmp}", tmp.replace("\\", "/")))


def _run_campaign(manifest, path):
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=1)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", path, "--quiet"],
        timeout=600,
    )
    return proc.returncode


def _cells(out_path):
    with open(out_path) as handle:
        doc = json.load(handle)
    return {
        (c["params"]["behavior"], c["params"]["x"]): c for c in doc["cells"]
    }


def check(condition, message):
    if not condition:
        raise SystemExit(f"campaign smoke FAILED: {message}")


def check_documents(manifest):
    """The merged output and all shard files are in the canonical format."""
    stem = os.path.splitext(manifest["out"])[0]
    shard_paths = sorted(glob.glob(f"{stem}.shard-*-of-*.json"))
    check(
        len(shard_paths) == manifest["shards"],
        f"{len(shard_paths)} shard files, wanted {manifest['shards']}",
    )
    for path in [manifest["out"]] + shard_paths:
        with open(path) as handle:
            text = handle.read()
        check(
            text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n",
            f"{os.path.basename(path)} is not the indent=1, sort_keys=True "
            "encoding of its own content",
        )


def main():
    with tempfile.TemporaryDirectory() as tmp:
        # -- phase 1: every injected fault recovers under retry --------
        manifest = _load_template(tmp)
        rc = _run_campaign(manifest, os.path.join(tmp, "m1.json"))
        check(rc == 0, f"recoverable-fault campaign exited {rc}, wanted 0")
        cells = _cells(manifest["out"])
        check(len(cells) == 8, f"merged {len(cells)} cells, wanted 8")
        for (behavior, x), cell in sorted(cells.items()):
            check(
                cell.get("status", "ok") == "ok",
                f"cell ({behavior}, x={x}) ended {cell.get('status')!r}",
            )
            if behavior != "ok":
                check(
                    cell.get("attempts", 1) > 1,
                    f"injected cell ({behavior}, x={x}) lacks retry "
                    "provenance (attempts > 1)",
                )
        check(
            not os.path.exists(manifest["out"].replace(".json", ".failures.json")),
            "all-recovered campaign left a failure report behind",
        )
        check_documents(manifest)
        print(f"phase 1 ok: 8/8 cells recovered, retries carry provenance")

        # -- phase 2: always-failing cells exhaust retries -------------
        manifest = _load_template(tmp)
        manifest["grid"]["behavior"] = ["fail"]
        manifest["base"]["fail_times"] = -1
        manifest["base"]["state_dir"] = os.path.join(tmp, "state2")
        manifest["out"] = os.path.join(tmp, "alwaysfail.json")
        manifest["limits"]["max_attempts"] = 2
        rc = _run_campaign(manifest, os.path.join(tmp, "m2.json"))
        check(rc == 1, f"exhausted-retries campaign exited {rc}, wanted 1")
        cells = _cells(manifest["out"])
        check(len(cells) == 2, "failed cells missing from the merged output")
        for cell in cells.values():
            check(cell.get("status") == "failed", "cell not marked failed")
            check(cell.get("attempts") == 2, "attempt count not recorded")
            check(
                cell.get("error", {}).get("type") == "InjectedFailure",
                "error provenance missing from failed cell",
            )
        failures_path = manifest["out"].replace(".json", ".failures.json")
        check(os.path.exists(failures_path), "failure report not written")
        with open(failures_path) as handle:
            report = json.load(handle)
        grid_size = 1
        for values in manifest["grid"].values():
            grid_size *= len(values)
        check(
            report["total_cells"] == grid_size,
            f"failure report counts {report['total_cells']} cells in a "
            f"grid of {grid_size}",
        )
        injected = sorted(f["params"]["x"] for f in report["failures"])
        check(
            report["failed_cells"] == 2 and injected == [1, 2],
            f"failure report lists {injected}, wanted the injected [1, 2]",
        )
        check_documents(manifest)
        print("phase 2 ok: exhausted retries reported with provenance")
    print("campaign smoke PASSED")


if __name__ == "__main__":
    main()

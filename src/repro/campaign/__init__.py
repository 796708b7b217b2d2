"""Fault-tolerant campaign orchestration for million-cell sweeps.

``python -m repro campaign manifest.json`` drives every grid cell to
completion across a pool of forked worker processes — retries,
per-cell timeouts, worker respawn — journaling
progress so a killed campaign resumes instead of restarting.  See
``docs/INVARIANTS.md`` (#journal-contract, #atomic-persistence,
#subprocess-timeout-discipline, #forked-workers) for the contracts this
package keeps.  Exports resolve lazily (``repro.lazy``): ``sweep --jobs
1`` imports the grid driver, not the worker pool or the orchestrator.
"""

from repro.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.campaign.driver": (
        "Executor", "GridDriver", "InlineExecutor", "WorkerEvent",
    ),
    "repro.campaign.executor": ("LocalPoolExecutor",),
    "repro.campaign.journal": ("Journal", "failures_path", "journal_path"),
    "repro.campaign.manifest": (
        "CampaignManifest", "load_manifest", "manifest_from_dict",
    ),
    "repro.campaign.orchestrator": (
        "Campaign", "CampaignError", "CampaignReport", "run_campaign",
    ),
    "repro.campaign.retry": ("LimitsPolicy", "RetryPolicy"),
})

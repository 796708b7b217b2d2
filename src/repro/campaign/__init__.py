"""Fault-tolerant campaign orchestration for million-cell sweeps.

``python -m repro campaign manifest.json`` drives every grid cell to
completion across a pool of forked worker processes — retries,
per-cell timeouts, worker respawn, straggler re-dispatch — journaling
progress so a killed campaign resumes instead of restarting.  See
``docs/INVARIANTS.md`` (#journal-contract, #atomic-persistence,
#subprocess-timeout-discipline, #forked-workers) for the contracts this
package keeps.
"""

from repro.campaign.executor import Executor, LocalPoolExecutor, WorkerEvent
from repro.campaign.journal import Journal, failures_path, journal_path
from repro.campaign.manifest import (
    CampaignManifest,
    LimitsPolicy,
    load_manifest,
    manifest_from_dict,
)
from repro.campaign.orchestrator import (
    Campaign,
    CampaignError,
    CampaignReport,
    run_campaign,
)
from repro.campaign.retry import RetryPolicy

__all__ = [
    "Campaign",
    "CampaignError",
    "CampaignManifest",
    "CampaignReport",
    "Executor",
    "Journal",
    "LimitsPolicy",
    "LocalPoolExecutor",
    "RetryPolicy",
    "WorkerEvent",
    "failures_path",
    "journal_path",
    "load_manifest",
    "manifest_from_dict",
    "run_campaign",
]

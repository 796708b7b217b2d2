"""Campaign-worker side of the traced run.

A campaign worker is a fresh ``python -m repro.campaign.worker`` process
that the harness never launches itself, so the traced ``campaign_grid``
run names this module in its manifest's ``modules`` list: the worker
imports it before it looks up its first scenario, which is early enough
for class-level wrappers (no simulator object exists yet).  Installing
on import is the whole purpose of the module; nothing else imports it.
"""

import e2e_tracer

e2e_tracer.install()

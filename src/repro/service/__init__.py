"""Audit-as-a-service: run measurement campaigns over HTTP.

The paper's audit framework is useful to people who don't want to drive
a Python API: this package turns a :class:`~repro.core.campaign.
CampaignSpec` — the one serializable description of a campaign — into a
job you can submit, watch, and download over plain HTTP.

Three layers, one per module:

* :mod:`repro.service.jobs` — durable job state.  Each job owns a
  directory (spec, state, event log, exports, segment store); state
  writes are atomic, so a killed service recovers every in-flight job on
  restart.  A segment job resumes from the batches its own store already
  holds; a memory job runs again from scratch.
* :mod:`repro.service.scheduler` — fair-share execution.  Strict-FIFO
  admission under a worker-token budget bounds total concurrency while
  letting multiple tenants' campaigns (different seeds, isolated
  namespaces) run side by side.  Backpressure and resilience live here
  too: an optional bounded queue (overflow → :class:`QueueFullError` →
  HTTP 429 + ``Retry-After``), a graceful ``drain()`` (stop admission,
  finish running jobs, keep queued ones durably queued for the next
  start), and a per-job wall-clock watchdog that fails hung jobs and
  frees their worker tokens.
* :mod:`repro.service.app` — the HTTP surface.  Stdlib
  ``ThreadingHTTPServer``; submit specs as JSON, tail progress as
  Server-Sent Events, download export files whose bytes are identical
  to a local ``repro run`` of the same spec.  A full disk surfaces as
  507 with ``reason="storage_exhausted"`` — never a wedged worker.

Start one from the CLI (``repro serve --root jobs/``) or in process::

    from repro.service import AuditService
    with AuditService("jobs", port=0, total_workers=4) as service:
        print(service.url)
"""

from repro.service.app import AuditService
from repro.service.jobs import (
    JOB_SCHEMA_VERSION,
    JOB_STATES,
    TERMINAL_STATES,
    Job,
    JobEventWriter,
    JobStore,
    SubmitError,
)
from repro.service.scheduler import (
    CampaignScheduler,
    DrainingError,
    QueueFullError,
    worker_cost,
)

__all__ = [
    "AuditService",
    "CampaignScheduler",
    "DrainingError",
    "JOB_SCHEMA_VERSION",
    "JOB_STATES",
    "Job",
    "JobEventWriter",
    "JobStore",
    "QueueFullError",
    "SubmitError",
    "TERMINAL_STATES",
    "worker_cost",
]

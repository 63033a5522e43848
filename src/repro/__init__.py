"""echo-audit: an auditing framework for tracking, profiling, and ad
targeting in a simulated Amazon Echo smart speaker ecosystem.

Reproduction of Iqbal et al., *"Your Echos are Heard: Tracking,
Profiling, and Ad Targeting in the Amazon Smart Speaker Ecosystem"*
(IMC 2023).

Quickstart::

    from repro import CampaignSpec, ExperimentConfig, run_campaign
    from repro.core import bid_summary_table, detect_cookie_syncing

    spec = CampaignSpec(config=ExperimentConfig(), seed=42)
    dataset = run_campaign(spec)
    for row in bid_summary_table(dataset):
        print(row.persona, row.summary.median, row.summary.mean)
    sync = detect_cookie_syncing(dataset)
    print(sync.partner_count, "advertisers sync cookies with Amazon")
    print(dataset.obs.summary()["counters"])  # the campaign trace

Or over HTTP — ``repro serve`` starts the audit service and any client
that can POST the spec's JSON gets the same campaign, byte-identical
(see :mod:`repro.service`).

Package map:

- :mod:`repro.core` — the auditing framework (experiment + analyses)
- :mod:`repro.service` — audit-as-a-service HTTP layer (jobs, scheduler)
- :mod:`repro.obs` — seeded-deterministic observability (spans, metrics)
- :mod:`repro.alexa` — simulated Echo ecosystem (devices, cloud, DSAR)
- :mod:`repro.adtech` — header bidding, DSPs, cookie sync, audio ads
- :mod:`repro.web` — browsers and the OpenWPM-style crawler
- :mod:`repro.netsim` — packets, TLS opacity, DNS, router, captures
- :mod:`repro.orgmap` — entity lists, WHOIS, filter lists
- :mod:`repro.policies` — policy corpus + PoliCheck analysis
- :mod:`repro.data` — the seeded world and its calibration tables

``repro.__all__`` is the supported public surface: every name in it is
importable from ``repro`` directly, documented in ``docs/API.md``, and
covered by the semantic-versioning promise (``__version__``, which
``pyproject.toml`` derives its package version from).
"""

from repro.core.campaign import CampaignSpec, execute_spec, run_campaign
from repro.core.experiment import ExperimentConfig
from repro.util.rng import Seed

__version__ = "2.0.0"

__all__ = [
    "CampaignSpec",
    "ExperimentConfig",
    "Seed",
    "__version__",
    "execute_spec",
    "run_campaign",
]

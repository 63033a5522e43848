"""Sync detection with a prefilter equals the full parse of every URL.

``_parse_syncs`` skips requests whose URL carries no sync-path hint
before parsing anything.  The oracle below is the detector as it was
before that prefilter: ``urlparse`` + ``parse_qsl`` on every logged
request.  Its edits are the host rule for the chain-root fallback and
for the destination (``netloc`` without ``:port``, as everywhere else in
the simulation).
"""

import re
from urllib.parse import parse_qsl, urlparse

import pytest

from repro.core.campaign import run_campaign
from repro.core.experiment import ExperimentConfig
from repro.core.syncing import SyncEvent, _parse_syncs, persona_sync_events
from repro.util.rng import Seed
from repro.web.browser import LoggedRequest

_ORACLE_SYNC_PATHS = re.compile(r"/(cm|setuid|match|x/cm|usersync|pixel)(/|$|\?)")
_ORACLE_ID_PARAMS = ("uid", "user_id", "puid", "external_id", "buyeruid")


def oracle_parse_syncs(request, persona):
    parsed = urlparse(request.url)
    if not _ORACLE_SYNC_PATHS.search(parsed.path):
        return []
    pairs = parse_qsl(parsed.query)
    uids = []
    for param in _ORACLE_ID_PARAMS:
        for name, value in pairs:
            if name == param and value not in uids:
                uids.append(value)
    if not uids:
        return []
    params = dict(pairs)
    source = params.get("bidder") or params.get("partner") or params.get("source")
    if source is None:
        source = urlparse(request.chain_root).netloc.split(":")[0]
    return [
        SyncEvent(
            persona=persona,
            source=source,
            destination_host=parsed.netloc.split(":")[0],
            uid=uid,
            url=request.url,
        )
        for uid in uids
    ]


def logged(url, chain_root="https://pub.example.com/"):
    return LoggedRequest(
        timestamp=0.0,
        url=url,
        method="GET",
        cookies_sent={},
        status=200,
        set_cookies={},
        redirect_to=None,
        chain_root=chain_root,
    )


CRAFTED_URLS = [
    "https://sync.example.com/setuid?partner=dsp&uid=alpha",
    "https://s.amazon-adsystem.com/x/cm?bidder=dsp01&uid=u1",
    # ;params on the sync segment, and on an earlier segment.
    "https://sync.example.com/setuid;v=2?partner=dsp&uid=p1",
    "https://sync.example.com/a;b/cm?uid=p2",
    "https://sync.example.com/cm;x/y?uid=p3",
    # Fragments: after the query, before it, and holding the ID.
    "https://sync.example.com/cm?uid=f1#frag",
    "https://sync.example.com/cm#uid=f2",
    "https://sync.example.com/x#/cm?uid=f3",
    # Ports on the destination.
    "https://s.amazon-adsystem.com:8443/x/cm?bidder=dsp02&uid=port1",
    "http://sync.example.com:80/match?source=dmp&puid=port2",
    # Duplicated and mixed ID parameters.
    "https://sync.example.com/setuid?partner=dsp&uid=a&uid=a&user_id=a&puid=b",
    "https://sync.example.com/usersync?buyeruid=x1&external_id=x2&uid=x1",
    "https://sync.example.com/pixel/?uid=&puid=x3",
    "https://sync.example.com/pixel?uid=a+b%2Bc",
    # No source parameter: the chain root names the source.
    "https://sync.example.com/match?uid=root1",
    # Near misses: sync-like words that are not sync paths.
    "https://sync.example.com/cmx?uid=n1",
    "https://sync.example.com/pixel2?uid=n2",
    "https://ib.dsp01.bid-exchange.com/cm-confirm?status=ok&uid=n3",
    "https://sync.example.com/matchbox?uid=n4",
    "https://sync.example.com/xcm?uid=n5",
    "https://sync.example.com/page?next=/cm&uid=n6",
    "https://sync.example.com/%63m?uid=n7",
    "https://SYNC.example.com/CM?uid=n8",
    "https://sync.example.com/cm?foo=no-id",
    # urlparse deletes tabs and line breaks, which can form a sync path.
    "https://sync.example.com/c\tm?uid=t1",
    "https://sync.example.com/set\nuid?uid=t2",
]

CHAIN_ROOTS = ["https://pub.example.com/", "https://pub.example.com:8080/page"]


class TestCraftedRequests:
    @pytest.mark.parametrize("chain_root", CHAIN_ROOTS)
    @pytest.mark.parametrize("url", CRAFTED_URLS)
    def test_matches_oracle(self, url, chain_root):
        request = logged(url, chain_root)
        assert _parse_syncs(request, "p1") == oracle_parse_syncs(request, "p1")

    def test_crafted_set_exercises_both_outcomes(self):
        found = [u for u in CRAFTED_URLS if oracle_parse_syncs(logged(u), "p1")]
        assert 10 <= len(found) < len(CRAFTED_URLS)

    def test_ported_chain_root_attributes_bare_host(self):
        request = logged(
            "https://sync.example.com/match?uid=z",
            chain_root="https://pub.example.com:8080/page",
        )
        (event,) = _parse_syncs(request, "p1")
        assert event.source == "pub.example.com"

    def test_ported_sync_url_records_bare_destination_host(self):
        url = "https://s.amazon-adsystem.com:8443/x/cm?bidder=dsp02&uid=port1"
        (event,) = _parse_syncs(logged(url), "p1")
        assert event.destination_host == "s.amazon-adsystem.com"
        assert event.url == url  # the logged URL itself keeps its port


class TestCampaignRequestLog:
    """The full request log of the CI "tiny" campaign."""

    @pytest.fixture(scope="class")
    def dataset(self):
        config = ExperimentConfig(
            skills_per_persona=2,
            pre_iterations=1,
            post_iterations=1,
            crawl_sites=2,
            prebid_discovery_target=5,
            audio_hours=0.5,
        )
        return run_campaign(config, Seed(42))

    def test_events_identical_to_oracle(self, dataset):
        total = 0
        for artifacts in dataset.personas.values():
            expected = [
                event
                for request in artifacts.request_log
                for event in oracle_parse_syncs(request, artifacts.persona.name)
            ]
            assert persona_sync_events(artifacts) == expected
            total += len(expected)
        assert total > 0

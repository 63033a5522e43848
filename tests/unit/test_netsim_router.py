"""Tests for the router, DNS, endpoint registry, and capture sessions."""

import pytest

from repro.netsim import router as router_module
from repro.netsim.dns import DNS_PORT, build_dns_table
from repro.netsim.endpoints import EndpointRegistry, registrable_domain
from repro.netsim import http as http_module
from repro.netsim.faults import FaultPlan, FaultProfile
from repro.netsim.http import HttpRequest, HttpResponse, encode_query, estimate_size
from repro.netsim.packet import Direction, Packet, Protocol
from repro.netsim.router import BASE_LATENCY_SECONDS, BLACKHOLE_IP, NetworkError, Router
from repro.util.clock import SimClock
from repro.util.rng import Seed


@pytest.fixture
def registry():
    reg = EndpointRegistry()
    reg.register("api.amazon.com", organization="Amazon", category="functional")
    reg.register("plain.example.com", organization="Example", category="functional", port=80)
    return reg


@pytest.fixture
def router(registry):
    r = Router(registry, SimClock())
    r.register_service(
        "api.amazon.com", lambda req: HttpResponse(status=200, body={"ok": True})
    )
    r.register_service(
        "plain.example.com", lambda req: HttpResponse(status=200, body={"plain": True})
    )
    return r


class TestEndpointRegistry:
    def test_register_and_lookup(self, registry):
        ep = registry.require("api.amazon.com")
        assert registry.lookup_ip(ep.ip) is ep

    def test_idempotent_registration(self, registry):
        again = registry.register("api.amazon.com", organization="Amazon")
        assert again is registry.require("api.amazon.com")

    def test_conflicting_org_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.register("api.amazon.com", organization="NotAmazon")

    def test_deterministic_ips(self):
        a = EndpointRegistry().register("x.test.com", organization="X")
        b = EndpointRegistry().register("x.test.com", organization="X")
        assert a.ip == b.ip

    def test_unknown_require_raises(self, registry):
        with pytest.raises(KeyError):
            registry.require("nope.example.org")

    def test_invalid_domain_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.register("nodots", organization="X")

    def test_len_and_contains(self, registry):
        assert len(registry) == 2
        assert "api.amazon.com" in registry


class TestRegistrableDomain:
    def test_two_labels(self):
        assert registrable_domain("amazon.com") == "amazon.com"

    def test_subdomain_collapsed(self):
        assert registrable_domain("device-metrics-us-2.amazon.com") == "amazon.com"

    def test_multi_label_suffix(self):
        assert (
            registrable_domain("ingestion.us-east-1.prod.arteries.alexa.a2z.com")
            == "alexa.a2z.com"
        )


class TestRouter:
    def test_attach_assigns_unique_ips(self, router):
        ips = {router.attach_device(f"echo-{i}") for i in range(5)}
        assert len(ips) == 5

    def test_attach_idempotent(self, router):
        assert router.attach_device("echo-1") == router.attach_device("echo-1")

    def test_send_requires_attachment(self, router):
        with pytest.raises(NetworkError):
            router.send("ghost", HttpRequest("GET", "https://api.amazon.com/x"))

    def test_https_payload_hidden_sni_visible(self, router):
        router.attach_device("echo-1")
        cap = router.start_capture("skill-A")
        router.send("echo-1", HttpRequest("GET", "https://api.amazon.com/v1/ping"))
        router.stop_capture(cap)
        tls = [p for p in cap if p.protocol is Protocol.TLS]
        assert len(tls) == 2
        assert all(p.payload is None for p in tls)
        assert all(p.sni == "api.amazon.com" for p in tls)

    def test_http_payload_visible(self, router):
        router.attach_device("echo-1")
        cap = router.start_capture("skill-A")
        router.send("echo-1", HttpRequest("GET", "http://plain.example.com/x"))
        router.stop_capture(cap)
        http = [p for p in cap if p.protocol is Protocol.HTTP]
        assert http[0].payload["kind"] == "http-request"
        assert http[1].payload["kind"] == "http-response"

    def test_dns_packets_emitted_and_recoverable(self, router, registry):
        router.attach_device("echo-1")
        cap = router.start_capture("skill-A")
        router.send("echo-1", HttpRequest("GET", "https://api.amazon.com/v1/ping"))
        table = build_dns_table(cap.packets)
        ep = registry.require("api.amazon.com")
        assert table.domain_for_ip(ep.ip) == "api.amazon.com"

    def test_nxdomain(self, router, registry):
        router.attach_device("echo-1")
        registry.register("orphan.example.net", organization="Orphan")
        with pytest.raises(NetworkError, match="NXDOMAIN"):
            router.send("echo-1", HttpRequest("GET", "https://missing.example.net/"))

    def test_connection_refused_without_service(self, router, registry):
        router.attach_device("echo-1")
        registry.register("orphan.example.net", organization="Orphan")
        with pytest.raises(NetworkError, match="refused"):
            router.send("echo-1", HttpRequest("GET", "https://orphan.example.net/"))

    def test_capture_stop_freezes(self, router):
        router.attach_device("echo-1")
        cap = router.start_capture("skill-A")
        router.send("echo-1", HttpRequest("GET", "https://api.amazon.com/a"))
        n = len(cap)
        router.stop_capture(cap)
        router.send("echo-1", HttpRequest("GET", "https://api.amazon.com/b"))
        assert len(cap) == n

    def test_capture_device_filter(self, router):
        router.attach_device("echo-1")
        router.attach_device("echo-2")
        cap = router.start_capture("only-echo-2", device_filter="echo-2")
        router.send("echo-1", HttpRequest("GET", "https://api.amazon.com/a"))
        router.send("echo-2", HttpRequest("GET", "https://api.amazon.com/b"))
        router.stop_capture(cap)
        assert cap.packets
        assert all(p.device_id == "echo-2" for p in cap)

    def test_concurrent_captures_both_observe(self, router):
        router.attach_device("echo-1")
        cap1 = router.start_capture("one")
        cap2 = router.start_capture("two")
        router.send("echo-1", HttpRequest("GET", "https://api.amazon.com/a"))
        assert len(cap1) == len(cap2) > 0

    def test_clock_advances_on_send(self, router):
        router.attach_device("echo-1")
        before = router.clock.now
        router.send("echo-1", HttpRequest("GET", "https://api.amazon.com/a"))
        assert router.clock.now > before

    def test_register_service_unknown_endpoint(self, router):
        with pytest.raises(NetworkError):
            router.register_service("ghost.example.com", lambda req: HttpResponse(200))


class TestHttpModels:
    def test_request_host_path_query(self):
        req = HttpRequest("GET", "https://a.example.com/p/q?x=1&y=2")
        assert req.host == "a.example.com"
        assert req.path == "/p/q"
        assert req.query_pairs == [("x", "1"), ("y", "2")]

    def test_with_query_merges(self):
        req = HttpRequest("GET", "https://a.example.com/p?x=1").with_query(y="2")
        assert req.query_pairs == [("x", "1"), ("y", "2")]

    def test_query_repeated_keys_last_wins(self):
        # A caller that wants a mapping chooses last-wins explicitly...
        req = HttpRequest("GET", "https://a.example.com/s?uid=alpha&uid=beta")
        assert dict(req.query_pairs) == {"uid": "beta"}
        assert req.to_payload()["query"] == {"uid": "beta"}

    def test_query_pairs_preserves_duplicates(self):
        # ...while the pair accessors expose every value, in URL order.
        req = HttpRequest(
            "GET", "https://a.example.com/s?uid=alpha&x=1&uid=beta"
        )
        assert req.query_pairs == [("uid", "alpha"), ("x", "1"), ("uid", "beta")]
        assert req.query_values("uid") == ["alpha", "beta"]
        assert req.query_values("missing") == []

    @pytest.fixture
    def qsl_calls(self, monkeypatch):
        calls = []
        real = http_module.parse_qsl

        def counting(query):
            calls.append(query)
            return real(query)

        monkeypatch.setattr(http_module, "parse_qsl", counting)
        return calls

    def test_query_parsed_at_most_once(self, qsl_calls):
        req = HttpRequest("GET", "https://a.example.com/s?uid=alpha&uid=beta")
        assert req.query_pairs == [("uid", "alpha"), ("uid", "beta")]
        assert req.query_values("uid") == ["alpha", "beta"]
        assert req.to_payload()["query"] == {"uid": "beta"}
        assert qsl_calls == ["uid=alpha&uid=beta"]

    def test_builder_pairs_are_never_parsed(self, qsl_calls):
        query = encode_query({"slot": "s 1", "iteration": 2, "when": ""})
        req = HttpRequest(
            "GET", f"https://b.example.com/bid?{query.text}", encoded_query=query
        )
        assert query.text == "slot=s+1&iteration=2&when="
        assert req.query_pairs == [("slot", "s 1"), ("iteration", "2")]
        assert req.to_payload()["query"] == {"slot": "s 1", "iteration": "2"}
        assert qsl_calls == []

    def test_port_is_not_part_of_host(self):
        req = HttpRequest("GET", "http://a.example.com:8080/p;v=1?x=1#f")
        assert req.host == "a.example.com"
        assert req.path == "/p"
        assert not req.is_https

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            HttpRequest("FETCH", "https://a.example.com/")

    def test_bad_url_rejected(self):
        with pytest.raises(ValueError):
            HttpRequest("GET", "not-a-url")

    def test_response_redirect_requires_3xx(self):
        with pytest.raises(ValueError):
            HttpResponse(status=200, redirect_url="https://b.example.com/")

    def test_response_ok(self):
        assert HttpResponse(status=204).ok
        assert not HttpResponse(status=404).ok


# ---------------------------------------------------------------------- #
# Packets are built only for a session that records them
# ---------------------------------------------------------------------- #

_PLAIN_BODY = {"plain": [1, "two", None], "nested": {"k": (True, 2.5)}}
#: exchange kind -> (request, injected fault kind or None)
_EXCHANGES = {
    "http": (HttpRequest("GET", "http://plain.example.com/x?a=1&a=2&b=3"), None),
    "tls": (
        HttpRequest(
            "POST",
            "https://api.amazon.com/v1/events",
            headers={"user-agent": "echo"},
            cookies={"session-id": "s-1"},
            body={"data_types": ["voice", "location"]},
        ),
        None,
    ),
    "nxdomain": (HttpRequest("GET", "https://missing.example.net/"), None),
    "refused": (HttpRequest("GET", "https://orphan.example.net/"), None),
    "timeout": (HttpRequest("GET", "https://api.amazon.com/t"), "timeout"),
    "injected-nxdomain": (HttpRequest("GET", "https://api.amazon.com/n"), "nxdomain"),
    "http-5xx": (HttpRequest("GET", "http://plain.example.com/5"), "http_5xx"),
    "blackhole": (None, None),
}
_BLACKHOLED_HOST = "x.bad.com"
_HANDLERS = {
    "api.amazon.com": lambda req: HttpResponse(status=200, body={"ok": True}),
    "plain.example.com": lambda req: HttpResponse(
        status=200, headers={"x": "y"}, set_cookies={"uid": "u-1"}, body=_PLAIN_BODY
    ),
}


def _exchange_rig(fault_kind=None):
    registry = EndpointRegistry()
    registry.register("api.amazon.com", organization="Amazon", category="functional")
    registry.register(
        "plain.example.com", organization="Example", category="functional", port=80
    )
    registry.register("orphan.example.net", organization="Orphan")
    faults = None
    if fault_kind is not None:
        profile = FaultProfile(name=f"always-{fault_kind}", **{f"{fault_kind}_rate": 1.0})
        faults = FaultPlan(Seed(3), profile)
    router = Router(registry, SimClock(), faults=faults)
    for domain, handler in _HANDLERS.items():
        router.register_service(domain, handler)
    router.attach_device("echo-1")
    router.attach_device("echo-2")
    return router


def _run_exchange(router, kind, times=2):
    request, _ = _EXCHANGES[kind]
    for _ in range(times):
        if request is None:
            router.dns_blackhole("echo-1", _BLACKHOLED_HOST)
            continue
        try:
            router.send("echo-1", request)
        except NetworkError:
            pass


def _next_ephemeral_port(router):
    """The source port the router hands the next request out on."""
    router.faults = None
    probe = router.start_capture("probe", device_filter="echo-1")
    router.send("echo-1", HttpRequest("GET", "http://plain.example.com/probe"))
    router.stop_capture(probe)
    return next(p.src_port for p in probe if p.protocol is Protocol.HTTP)


def _dns_pair(t, ip, host, answers):
    query = {"kind": "dns-query", "domain": host}
    response = {"kind": "dns-response", "answers": answers}
    return [
        Packet(
            timestamp=t, src_ip=ip, dst_ip="192.168.7.1", src_port=5353,
            dst_port=DNS_PORT, protocol=Protocol.DNS, size=estimate_size(query),
            direction=Direction.OUTBOUND, device_id="echo-1", payload=query,
        ),
        Packet(
            timestamp=t, src_ip="192.168.7.1", dst_ip=ip, src_port=DNS_PORT,
            dst_port=5353, protocol=Protocol.DNS, size=estimate_size(response),
            direction=Direction.INBOUND, device_id="echo-1", payload=response,
        ),
    ]


def _http_packet(t, message, src, dst, direction, encrypted, sni):
    payload = message.to_payload()
    return Packet(
        timestamp=t, src_ip=src[0], dst_ip=dst[0], src_port=src[1],
        dst_port=dst[1], protocol=Protocol.TLS if encrypted else Protocol.HTTP,
        size=estimate_size(payload), direction=direction, device_id="echo-1",
        sni=sni if encrypted else None, payload=None if encrypted else payload,
    )


def _expected_packets(router, kind):
    """What one exchange of ``kind`` puts in a listening capture from t=0."""
    ip = router.device_ip("echo-1")
    if kind == "blackhole":
        answer = {"domain": _BLACKHOLED_HOST, "ip": BLACKHOLE_IP, "ttl": 2}
        return _dns_pair(0.0, ip, _BLACKHOLED_HOST, [answer])
    request, fault = _EXCHANGES[kind]
    endpoint = router.registry.lookup_domain(request.host)
    if endpoint is None or fault == "nxdomain":
        return _dns_pair(0.0, ip, request.host, [])
    answer = {"domain": request.host, "ip": endpoint.ip, "ttl": 300}
    packets = _dns_pair(0.0, ip, request.host, [answer])
    if kind == "refused":
        return packets
    device, remote = (ip, 49152), (endpoint.ip, endpoint.port)
    encrypted = request.is_https
    packets.append(
        _http_packet(0.0, request, device, remote, Direction.OUTBOUND, encrypted, request.host)
    )
    if fault == "timeout":
        return packets
    if fault == "http_5xx":
        response = HttpResponse(
            status=503,
            headers={"x-injected-fault": "http-5xx"},
            body={"error": f"service unavailable: {request.host}"},
        )
    else:
        response = _HANDLERS[request.host](request)
    packets.append(
        _http_packet(
            BASE_LATENCY_SECONDS, response, remote, device, Direction.INBOUND,
            encrypted, request.host,
        )
    )
    return packets


class TestPacketsOnlyForListeners:
    @pytest.fixture
    def constructions(self, monkeypatch):
        """Count Packet constructions and payload sizings in the router."""
        counts = {"packets": 0, "sizes": 0}

        def packet(*args, **kwargs):
            counts["packets"] += 1
            return Packet(*args, **kwargs)

        def size(payload):
            counts["sizes"] += 1
            return estimate_size(payload)

        monkeypatch.setattr(router_module, "Packet", packet)
        monkeypatch.setattr(router_module, "estimate_size", size)
        return counts

    @staticmethod
    def _listening_run(kind):
        router = _exchange_rig(_EXCHANGES[kind][1])
        router.start_capture("listener", device_filter="echo-1")
        _run_exchange(router, kind)
        return router.packets_forwarded, router.clock.now, _next_ephemeral_port(router)

    @pytest.mark.parametrize("capture", ["none", "other-device", "stopped"])
    @pytest.mark.parametrize("kind", sorted(_EXCHANGES))
    def test_no_listener_builds_no_packet(self, kind, capture, constructions):
        router = _exchange_rig(_EXCHANGES[kind][1])
        if capture == "other-device":
            router.start_capture("elsewhere", device_filter="echo-2")
        elif capture == "stopped":
            router.start_capture("stopped").stop()  # stopped, still attached
        _run_exchange(router, kind)
        assert constructions == {"packets": 0, "sizes": 0}
        observed = (router.packets_forwarded, router.clock.now)
        observed += (_next_ephemeral_port(router),)
        assert observed == self._listening_run(kind)

    @pytest.mark.parametrize("kind", sorted(_EXCHANGES))
    def test_listener_sees_every_packet_as_built_from_payloads(self, kind):
        router = _exchange_rig(_EXCHANGES[kind][1])
        session = router.start_capture("listener", device_filter="echo-1")
        _run_exchange(router, kind, times=1)
        router.stop_capture(session)
        expected = _expected_packets(router, kind)
        assert session.packets == expected
        assert router.packets_forwarded == len(expected)

    def test_records_is_the_observe_predicate(self):
        from repro.netsim.pcap import CaptureSession

        filtered = CaptureSession("f", device_filter="echo-1")
        open_session = CaptureSession("all")
        assert filtered.records("echo-1") and not filtered.records("echo-2")
        assert open_session.records("echo-2")
        open_session.stop()
        assert not open_session.records("echo-2")

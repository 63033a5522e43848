"""End-to-end tests of the audit service over real HTTP.

The service's contract is that the transport never touches the data:
a campaign submitted over HTTP must export byte-for-byte what
``execute_spec`` produces in-process for the same spec.  These tests
run a real :class:`AuditService` on an ephemeral port and exercise
submit → schedule → poll → SSE → download, plus the two properties a
multi-tenant durable service must hold: concurrent campaigns do not
contaminate each other, and SIGKILL of the whole service process loses
no submitted work — a restart on the same root completes every job to
identical bytes, reusing the batches a segment job had already written.
Malformed request bodies get a JSON 4xx and never a dropped connection.
"""

import hashlib
import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

from repro.core.campaign import CampaignSpec, execute_spec
from repro.core.experiment import ExperimentConfig
from repro.core.export import EXPORT_FILES
from repro.service import AuditService
from repro.service.app import MAX_BODY_BYTES

TINY = ExperimentConfig(
    skills_per_persona=2,
    pre_iterations=1,
    post_iterations=1,
    crawl_sites=2,
    prebid_discovery_target=5,
    audio_hours=0.5,
)

TERMINAL = ("complete", "partial", "failed", "cancelled")


def _get_json(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


def _post_json(url, payload):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read().decode("utf-8"))


def _get_bytes(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read()


def _wait_terminal(base_url, job_id, timeout=240.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        record = _get_json(f"{base_url}/campaigns/{job_id}")
        if record["state"] in TERMINAL:
            return record
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} never reached a terminal state")


def _digest_dir(directory):
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in EXPORT_FILES
    }


def _raw_post(port, content_length, body=b""):
    """POST /campaigns over a bare socket with a hand-set Content-Length;
    returns ``(status, json_body)`` — or fails if the server hangs up
    without answering."""
    head = (
        "POST /campaigns HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n"
        "\r\n"
    ).encode("ascii")
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(head + body)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    assert raw, "connection dropped with no response"
    header, _, payload = raw.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    return status, json.loads(payload.decode("utf-8"))


class TestHttpLifecycle:
    def test_submit_poll_download_matches_in_process(self, tmp_path):
        spec = CampaignSpec(config=TINY, seed=404)
        execute_spec(spec, tmp_path / "direct")
        with AuditService(tmp_path / "service", total_workers=2) as service:
            status, record = _post_json(
                f"{service.url}/campaigns", spec.to_dict()
            )
            assert status == 201
            assert record["state"] == "queued"
            assert record["fingerprint"] == spec.fingerprint()
            job_id = record["id"]

            final = _wait_terminal(service.url, job_id)
            assert final["state"] == "complete"

            listing = _get_json(f"{service.url}/campaigns/{job_id}/results")
            assert listing["files"] == sorted(EXPORT_FILES)
            for name in EXPORT_FILES:
                served = _get_bytes(
                    f"{service.url}/campaigns/{job_id}/results/{name}"
                )
                assert served == (tmp_path / "direct" / name).read_bytes(), (
                    f"{name}: HTTP result differs from in-process export"
                )

            index = _get_json(f"{service.url}/campaigns")
            assert [j["id"] for j in index["jobs"]] == [job_id]

    def test_sse_stream_replays_lifecycle_and_ends(self, tmp_path):
        spec = CampaignSpec(config=TINY, seed=405)
        with AuditService(tmp_path / "service", total_workers=2) as service:
            _, record = _post_json(f"{service.url}/campaigns", spec.to_dict())
            raw = _get_bytes(
                f"{service.url}/campaigns/{record['id']}/events"
            ).decode("utf-8")
        frames = [f for f in raw.split("\n\n") if f]
        assert frames[-1] == "event: end\ndata: complete"
        events = [
            json.loads(frame[len("data: "):])
            for frame in frames[:-1]
        ]
        types = [event["type"] for event in events]
        assert types[0] == "job.submitted"
        assert "job.started" in types
        assert types[-1] == "job.finished"
        # canonical obs event schema: SSE consumers parse trace records
        assert all(
            sorted(event) == ["fields", "schema", "seq", "sim_time", "type"]
            for event in events
        )
        assert [event["seq"] for event in events] == list(range(len(events)))

    def test_bad_specs_rejected_with_400(self, tmp_path):
        with AuditService(tmp_path / "service") as service:
            url = f"{service.url}/campaigns"
            bad_bodies = [
                ({"schema": 1, "config": {}, "backend": "gpu", "parallel": True}, "backend"),
                ({"schema": 1, "config": {}, "wrokers": 4}, "wrokers"),
                ({"schema": 99, "config": {}}, "schema"),
                # A field the segment store replaced is named in the error.
                (
                    {"schema": 1, "config": {}, "cache": "/tmp/c"},
                    "unknown campaign spec fields: ['cache']",
                ),
                (
                    {"schema": 1, "config": {}, "store": "segments", "store_dir": "/x"},
                    "managed by the service",
                ),
            ]
            for body, message in bad_bodies:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _post_json(url, body)
                assert excinfo.value.code == 400
                detail = json.loads(excinfo.value.read().decode("utf-8"))
                assert message in detail["error"]
            # nothing half-created
            assert _get_json(url)["jobs"] == []

    @pytest.mark.parametrize(
        "content_length,body,status",
        [
            ("abc", b"", 400),
            ("-5", b"", 400),
            (str(MAX_BODY_BYTES + 1), b"", 413),
            (None, b"[" * 100000, 400),
        ],
        ids=["non-integer", "negative", "oversized", "deeply-nested"],
    )
    def test_malformed_bodies_get_json_errors(
        self, tmp_path, content_length, body, status
    ):
        with AuditService(tmp_path / "service") as service:
            got, detail = _raw_post(
                service.port,
                len(body) if content_length is None else content_length,
                body,
            )
            assert got == status
            assert "error" in detail
            # The handler thread is free and the server keeps serving.
            assert _get_json(f"{service.url}/healthz")["status"] == "ok"
            assert _get_json(f"{service.url}/campaigns")["jobs"] == []

    def test_unknown_job_and_file_are_404(self, tmp_path):
        spec = CampaignSpec(config=TINY, seed=406)
        with AuditService(tmp_path / "service") as service:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get_json(f"{service.url}/campaigns/job-000099-deadbeef")
            assert excinfo.value.code == 404
            _, record = _post_json(f"{service.url}/campaigns", spec.to_dict())
            _wait_terminal(service.url, record["id"])
            for name in ("nope.csv", "..%2Fspec.json", "%2e%2e"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _get_bytes(
                        f"{service.url}/campaigns/{record['id']}/results/{name}"
                    )
                assert excinfo.value.code == 404


class TestMultiTenant:
    def test_concurrent_campaigns_are_isolated(self, tmp_path):
        """Two tenants, different seeds, scheduled concurrently: each
        gets exactly the bytes its own spec produces in isolation."""
        spec_a = CampaignSpec(config=TINY, seed=1001)
        spec_b = CampaignSpec(config=TINY, seed=2002)
        execute_spec(spec_a, tmp_path / "direct-a")
        execute_spec(spec_b, tmp_path / "direct-b")
        gold = {"a": _digest_dir(tmp_path / "direct-a"),
                "b": _digest_dir(tmp_path / "direct-b")}
        assert gold["a"] != gold["b"]  # seeds genuinely diverge

        with AuditService(tmp_path / "service", total_workers=2) as service:
            _, rec_a = _post_json(f"{service.url}/campaigns", spec_a.to_dict())
            _, rec_b = _post_json(f"{service.url}/campaigns", spec_b.to_dict())
            assert _wait_terminal(service.url, rec_a["id"])["state"] == "complete"
            assert _wait_terminal(service.url, rec_b["id"])["state"] == "complete"
            served = {}
            for key, rec in (("a", rec_a), ("b", rec_b)):
                served[key] = {
                    name: hashlib.sha256(
                        _get_bytes(
                            f"{service.url}/campaigns/{rec['id']}/results/{name}"
                        )
                    ).hexdigest()
                    for name in EXPORT_FILES
                }
            health = _get_json(f"{service.url}/healthz")
        assert served == gold
        assert health["service.jobs_submitted"] == 2
        assert health["service.jobs_completed"] == 2
        assert 1 <= health["service.workers_peak"] <= 2


def _spawn_service(root):
    """A service in a child process; returns ``(process, port)``."""
    script = (
        "import sys, time\n"
        "from repro.service import AuditService\n"
        f"service = AuditService({str(root)!r}, total_workers=4)\n"
        "service.start()\n"
        "print(service.port, flush=True)\n"
        "while True:\n"
        "    time.sleep(0.5)\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    # Own session, so SIGKILL takes the campaign's shard workers down too.
    victim = subprocess.Popen(
        [sys.executable, "-c", script],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    return victim, int(victim.stdout.readline().strip())


def _kill_when(victim, ready, timeout=240.0):
    """SIGKILL the service's whole process group once ``ready()``."""
    try:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and victim.poll() is None:
            if ready():
                break
            time.sleep(0.02)
        os.killpg(victim.pid, signal.SIGKILL)
        victim.wait(timeout=30)
    finally:
        if victim.poll() is None:
            victim.kill()
        victim.stdout.close()


def _job_state(root, job_id):
    """The job's persisted lifecycle state, or None before it lands."""
    state_path = root / "jobs" / job_id / "state.json"
    try:
        return json.loads(state_path.read_text(encoding="utf-8"))["state"]
    except (OSError, ValueError, KeyError):
        return None


def _served_digests(base_url, job_id):
    return {
        name: hashlib.sha256(
            _get_bytes(f"{base_url}/campaigns/{job_id}/results/{name}")
        ).hexdigest()
        for name in EXPORT_FILES
    }


class TestKillRestartResume:
    def test_sigkill_service_then_restart_completes_identically(self, tmp_path):
        """SIGKILL the whole service mid-campaign; a restart on the same
        root re-queues the parallel memory job, runs it again from
        scratch, and the final exports match an uninterrupted in-process
        run byte for byte."""
        spec = CampaignSpec(
            config=TINY, seed=2026, parallel=True, workers=4, backend="process"
        )
        execute_spec(spec, tmp_path / "direct")
        gold = _digest_dir(tmp_path / "direct")

        root = tmp_path / "service-root"
        victim, port = _spawn_service(root)
        _, record = _post_json(f"http://127.0.0.1:{port}/campaigns", spec.to_dict())
        job_id = record["id"]
        # A memory job leaves nothing durable mid-run: kill once it runs.
        _kill_when(victim, lambda: _job_state(root, job_id) == "running")
        # The kill must have cut the job down mid-run, or the restart
        # below would have nothing to recover.
        assert _job_state(root, job_id) == "running"

        with AuditService(root, total_workers=4) as service:
            final = _wait_terminal(service.url, job_id)
            assert final["state"] == "complete"
            served = _served_digests(service.url, job_id)
            events = _get_bytes(
                f"{service.url}/campaigns/{job_id}/events?follow=0"
            ).decode("utf-8")
        assert served == gold
        assert "job.recovered" in events

    def test_sigkill_segments_job_resumes_from_its_batches(self, tmp_path):
        """SIGKILL the service while a parallel segments job runs; the
        restart reuses every batch written before the kill (the files
        are untouched) and exports the uninterrupted run's bytes."""
        spec = CampaignSpec(
            config=TINY,
            seed=2026,
            parallel=True,
            workers=4,
            backend="process",
            store="segments",
        )
        execute_spec(spec, tmp_path / "direct")
        gold = _digest_dir(tmp_path / "direct")

        root = tmp_path / "service-root"
        victim, port = _spawn_service(root)
        _, record = _post_json(f"http://127.0.0.1:{port}/campaigns", spec.to_dict())
        job_id = record["id"]
        store_dir = root / "jobs" / job_id / "segments"

        def markers():
            return {
                str(path.relative_to(store_dir)): path.stat().st_mtime_ns
                for path in store_dir.glob("campaign-*/batches/batch-*.json")
            }

        _kill_when(victim, lambda: bool(markers()))
        before = markers()
        assert before, "no batch was ever covered"
        assert _job_state(root, job_id) == "running"

        with AuditService(root, total_workers=4) as service:
            final = _wait_terminal(service.url, job_id)
            assert final["state"] == "complete"
            served = _served_digests(service.url, job_id)
            events = _get_bytes(
                f"{service.url}/campaigns/{job_id}/events?follow=0"
            ).decode("utf-8")
        assert served == gold
        assert "job.recovered" in events
        after = markers()
        assert {name: after[name] for name in before} == before

"""Audit-as-a-service: the HTTP surface over the campaign scheduler.

Stdlib-only (:mod:`http.server`) so the service runs anywhere the
package does.  One :class:`AuditService` owns a :class:`~repro.service.
jobs.JobStore` (durable jobs), a :class:`~repro.service.scheduler.
CampaignScheduler` (fair-share execution), and a threading HTTP server
exposing the job lifecycle:

========  ===================================  =============================
method    path                                 meaning
========  ===================================  =============================
POST      ``/campaigns``                       submit a CampaignSpec (JSON
                                               body) → 201 + job record
GET       ``/campaigns``                       list jobs
GET       ``/campaigns/{id}``                  one job's state
GET       ``/campaigns/{id}/events``           Server-Sent Events tail of
                                               the job's event log
GET       ``/campaigns/{id}/results``          export file listing
GET       ``/campaigns/{id}/results/{name}``   one export file's bytes
POST      ``/campaigns/{id}/cancel``           cancel a queued job
GET       ``/healthz``                         liveness + ``service.*``
                                               counters
========  ===================================  =============================

Spec validation happens in :meth:`CampaignSpec.from_dict` before a job
exists, so a bad body — unknown field, invalid backend, negative
workers — is a 400 with the same message the Python API raises, and
never a half-created job.  The body itself is read through a bounded,
validated reader: a non-integer or negative ``Content-Length`` and a
body that nests too deeply to parse get 400, a body over
:data:`MAX_BODY_BYTES` gets 413, and the connection is closed after any
of them instead of being left half-read.

The SSE endpoint replays the job's ``events.jsonl`` (each line becomes
one ``data:`` frame) and then follows the file until the job reaches a
terminal state, closing with an ``event: end`` frame naming it.  Because
the log is canonical JSONL in the obs event schema, an SSE consumer and
a trace-file consumer parse identical records.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.core.campaign import CampaignSpec
from repro.core.iosim import is_enospc
from repro.service.jobs import JobStore, SubmitError, read_event_lines
from repro.service.scheduler import (
    CampaignScheduler,
    DrainingError,
    QueueFullError,
)

__all__ = ["AuditService"]

#: SSE follow-mode poll interval (seconds).
_SSE_POLL_SECONDS = 0.05

#: Largest ``POST /campaigns`` body the service reads.  A CampaignSpec
#: document is well under a kilobyte; anything this size is not one.
MAX_BODY_BYTES = 1 << 20

_CONTENT_TYPES = {
    ".csv": "text/csv; charset=utf-8",
    ".json": "application/json; charset=utf-8",
    ".jsonl": "application/x-ndjson; charset=utf-8",
}


class AuditService:
    """The audit service: durable jobs + scheduler + HTTP server.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port` once started) — the form every in-process test uses.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        total_workers: int = 4,
        max_queue: Optional[int] = None,
        job_timeout: Optional[float] = None,
    ) -> None:
        self.root = Path(root)
        self.host = host
        self.store = JobStore(self.root)
        self.scheduler = CampaignScheduler(
            self.store,
            total_workers=total_workers,
            max_queue=max_queue,
            job_timeout=job_timeout,
        )
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._server.service = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Recover persisted jobs, start scheduling, start serving."""
        self.scheduler.start()
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="audit-http", daemon=True
        )
        self._thread.start()

    def stop(self, *, wait: bool = False) -> None:
        """Stop serving; optionally wait for running campaigns."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.scheduler.shutdown(wait=wait)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """SIGTERM-grade graceful shutdown.

        Stops admission (new submissions get 503), lets running
        campaigns finish (their events flush as they go; queued jobs
        stay durably queued for the next start), then stops serving.
        Returns ``True`` when everything running finished in time.
        """
        finished = self.scheduler.drain(timeout=timeout)
        self.stop(wait=False)
        return finished

    def __enter__(self) -> "AuditService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class _Handler(BaseHTTPRequestHandler):
    """Route HTTP requests onto the owning :class:`AuditService`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-audit"

    @property
    def service(self) -> AuditService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # request logging off: tests and CI read stdout for results

    # ------------------------------------------------------------------ #
    # Responses
    # ------------------------------------------------------------------ #

    def _send_json(
        self,
        status: int,
        payload: object,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(
            "utf-8"
        )
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _send_bytes(self, body: bytes, content_type: str) -> None:
        self.send_response(200)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler contract
        path, query = _split_query(self.path)
        parts = [p for p in path.split("/") if p]
        try:
            if parts == ["healthz"]:
                self._get_healthz()
            elif parts == ["campaigns"]:
                self._get_campaigns()
            elif len(parts) == 2 and parts[0] == "campaigns":
                self._get_campaign(parts[1])
            elif len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "events":
                self._get_events(parts[1], query)
            elif len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "results":
                self._get_results_listing(parts[1])
            elif len(parts) == 4 and parts[0] == "campaigns" and parts[2] == "results":
                self._get_result_file(parts[1], parts[3])
            else:
                self._send_error_json(404, f"no such resource: {path}")
        except BrokenPipeError:
            pass  # client went away mid-stream

    def do_POST(self) -> None:  # noqa: N802 - stdlib handler contract
        path, _ = _split_query(self.path)
        parts = [p for p in path.split("/") if p]
        if parts == ["campaigns"]:
            self._post_campaign()
        elif len(parts) == 3 and parts[0] == "campaigns" and parts[2] == "cancel":
            self._post_cancel(parts[1])
        else:
            self._send_error_json(404, f"no such resource: {path}")

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #

    def _get_healthz(self) -> None:
        from repro import __version__

        payload: Dict[str, object] = {"status": "ok", "version": __version__}
        payload.update(self.service.scheduler.counters())
        self._send_json(200, payload)

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` once a 400/413 has been sent.

        An unread body would be parsed as the next request on this
        keep-alive connection, so every rejection also closes it.
        """
        raw = (self.headers.get("Content-Length") or "0").strip()
        close = {"Connection": "close"}
        if not (raw.isascii() and raw.isdigit()):
            self._send_json(
                400, {"error": f"invalid Content-Length: {raw!r}"}, headers=close
            )
            return None
        length = int(raw)
        if length > MAX_BODY_BYTES:
            self._send_json(
                413,
                {
                    "error": f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit",
                    "reason": "body_too_large",
                },
                headers=close,
            )
            return None
        return self.rfile.read(length) if length else b""

    def _post_campaign(self) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            payload = json.loads(body.decode("utf-8") or "null")
            spec = CampaignSpec.from_dict(payload)
        except (ValueError, TypeError) as exc:
            self._send_error_json(400, str(exc))
            return
        except RecursionError:
            self._send_error_json(400, "campaign spec nests too deeply to parse")
            return
        try:
            job = self.service.scheduler.submit(spec)
        except SubmitError as exc:
            self._send_error_json(400, str(exc))
            return
        except QueueFullError as exc:
            self._send_json(
                429,
                {"error": str(exc), "reason": "queue_full"},
                headers={"Retry-After": str(exc.retry_after)},
            )
            return
        except DrainingError as exc:
            self._send_json(
                503,
                {"error": str(exc), "reason": "draining"},
                headers={"Retry-After": "1"},
            )
            return
        except OSError as exc:
            if is_enospc(exc):
                # 507 Insufficient Storage: the spec never became a job;
                # nothing to recover, the caller resubmits once the
                # operator frees space.
                self._send_json(
                    507, {"error": str(exc), "reason": "storage_exhausted"}
                )
                return
            raise
        self._send_json(201, job.describe())

    def _get_campaigns(self) -> None:
        self._send_json(
            200, {"jobs": [job.describe() for job in self.service.store.list()]}
        )

    def _job_or_404(self, job_id: str):
        job = self.service.store.get(job_id)
        if job is None:
            self._send_error_json(404, f"no such job: {job_id}")
        return job

    def _get_campaign(self, job_id: str) -> None:
        job = self._job_or_404(job_id)
        if job is not None:
            self._send_json(200, job.describe())

    def _post_cancel(self, job_id: str) -> None:
        state = self.service.scheduler.cancel(job_id)
        if state is None:
            self._send_error_json(404, f"no such job: {job_id}")
            return
        self._send_json(200, {"id": job_id, "state": state})

    # -------------------------- results ------------------------------- #

    def _get_results_listing(self, job_id: str) -> None:
        job = self._job_or_404(job_id)
        if job is None:
            return
        files = []
        if job.out_dir.is_dir():
            files = sorted(
                p.name for p in job.out_dir.iterdir() if p.is_file()
            )
        self._send_json(200, {"id": job_id, "state": job.state, "files": files})

    def _get_result_file(self, job_id: str, name: str) -> None:
        job = self._job_or_404(job_id)
        if job is None:
            return
        target = (job.out_dir / name).resolve()
        # Traversal guard: the served file must be a direct child of the
        # job's out/ directory — "..", separators, and symlinks out all
        # fail the parent check.
        if target.parent != job.out_dir.resolve() or not target.is_file():
            self._send_error_json(404, f"no such result file: {name}")
            return
        content_type = _CONTENT_TYPES.get(
            target.suffix, "application/octet-stream"
        )
        self._send_bytes(target.read_bytes(), content_type)

    # --------------------------- events -------------------------------- #

    def _get_events(self, job_id: str, query: Dict[str, str]) -> None:
        """Server-Sent Events tail of the job's event log.

        Replays every event already logged, then (unless ``?follow=0``)
        polls the log until the job is terminal and fully drained,
        closing with ``event: end`` + the terminal state.  Uses chunked
        framing implicitly via connection close (SSE responses have no
        Content-Length).
        """
        job = self._job_or_404(job_id)
        if job is None:
            return
        follow = query.get("follow", "1") != "0"
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()

        sent = 0
        while True:
            lines = read_event_lines(job.events_path)
            for line in lines[sent:]:
                self.wfile.write(b"data: " + line.encode("utf-8") + b"\n\n")
            sent = len(lines)
            self.wfile.flush()
            if not follow or job.terminal:
                # one final drain so events emitted while we checked
                # the state are not lost
                lines = read_event_lines(job.events_path)
                for line in lines[sent:]:
                    self.wfile.write(b"data: " + line.encode("utf-8") + b"\n\n")
                break
            time.sleep(_SSE_POLL_SECONDS)
        if follow and job.terminal:
            self.wfile.write(
                b"event: end\ndata: " + job.state.encode("utf-8") + b"\n\n"
            )
        self.wfile.flush()
        self.close_connection = True


def _split_query(raw: str) -> Tuple[str, Dict[str, str]]:
    if "?" not in raw:
        return raw, {}
    path, _, query = raw.partition("?")
    params: Dict[str, str] = {}
    for pair in query.split("&"):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        params[key] = value
    return path, params

"""Stdlib HTTP face of the diagnosis service (``python -m repro serve``).

A thin JSON layer over :class:`~repro.service.service.DiagnosisService`
built on :class:`http.server.ThreadingHTTPServer` — no frameworks, no
new dependencies.  Endpoints (all JSON):

====== ============================ ===========================================
Method Path                         Meaning
====== ============================ ===========================================
GET    ``/v1/health``               Liveness + job-state counts
GET    ``/v1/queue``                Scheduler snapshot (fair-share state)
POST   ``/v1/jobs``                 Submit (body: ``JobSpec.to_payload()``)
GET    ``/v1/jobs``                 List jobs (``?namespace=`` filter)
GET    ``/v1/jobs/<id>``            One job's status
GET    ``/v1/jobs/<id>/result``     Finished job's verified result artifact
POST   ``/v1/jobs/<id>/cancel``     Cancel (idempotent; 200 either way)
====== ============================ ===========================================

Error mapping: an unknown job id is 404, asking for the result of an
unfinished job is 409, an invalid spec or a negative ``Content-Length``
is 400, a body over :data:`MAX_BODY_BYTES` is 413 (refused unread), a
corrupted (quarantined) artifact is 500 — always ``{"error": ...}``
bodies. The server thread pool only handles I/O; the actual work still
runs in the service's supervised worker processes.
"""

from __future__ import annotations

import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlparse

from .jobs import JobSpec
from .retention import RetentionPolicy
from .scheduler import NamespacePolicy
from .service import (
    DiagnosisService,
    JobNotFinishedError,
    JobNotFoundError,
)

__all__ = ["MAX_BODY_BYTES", "make_server", "serve_forever"]

#: Largest request body the server reads; a longer declared
#: ``Content-Length`` is refused with 413 before any byte is read.
MAX_BODY_BYTES = 1 << 20


class _BodyTooLargeError(ValueError):
    """The declared request body exceeds :data:`MAX_BODY_BYTES` (HTTP 413)."""


class _Handler(BaseHTTPRequestHandler):
    """Route ``/v1`` requests onto the attached service."""

    server_version = "repro-service/1"
    #: Attached by :func:`make_server`.
    service: DiagnosisService

    # Quiet by default; ``make_server(log=True)`` restores request lines.
    log_to_stderr = False

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.log_to_stderr:
            super().log_message(format, *args)

    def _send(self, code: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._send(code, {"error": message})

    def _read_body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        # Checked before reading: rfile.read(-1) would block until the
        # client hangs up, pinning this handler thread.
        if length < 0:
            raise ValueError(f"negative Content-Length {length}")
        if length > MAX_BODY_BYTES:
            raise _BodyTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length) if length else b"{}"
        payload = json.loads(raw.decode("utf-8")) if raw else {}
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["v1", "health"]:
                self._send(
                    200,
                    {
                        "ok": True,
                        "schema": "repro-service/v1",
                        "root": str(self.service.root),
                        "workers": self.service.workers,
                        "jobs": self.service.job_state_counts(),
                    },
                )
            elif parts == ["v1", "queue"]:
                self._send(200, self.service.queue_snapshot())
            elif parts == ["v1", "jobs"]:
                namespace = (
                    parse_qs(url.query).get("namespace", [None])[0] or None
                )
                self._send(
                    200, {"jobs": self.service.list_jobs(namespace)}
                )
            elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                self._send(200, self.service.status(parts[2]))
            elif (
                len(parts) == 4
                and parts[:2] == ["v1", "jobs"]
                and parts[3] == "result"
            ):
                self._send(200, self.service.result(parts[2]))
            else:
                self._error(404, f"no such endpoint: GET {url.path}")
        except JobNotFoundError as exc:
            self._error(404, f"no such job: {exc.args[0]}")
        except JobNotFinishedError as exc:
            self._error(409, str(exc))
        except RuntimeError as exc:
            self._error(500, str(exc))

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["v1", "jobs"]:
                spec = JobSpec.from_payload(self._read_body())
                job_id = self.service.submit(spec)
                self._send(201, {"job_id": job_id})
            elif (
                len(parts) == 4
                and parts[:2] == ["v1", "jobs"]
                and parts[3] == "cancel"
            ):
                self._send(200, {"cancelled": self.service.cancel(parts[2])})
            else:
                self._error(404, f"no such endpoint: POST {url.path}")
        except JobNotFoundError as exc:
            self._error(404, f"no such job: {exc.args[0]}")
        except _BodyTooLargeError as exc:
            self._error(413, str(exc))
        except (ValueError, TypeError, json.JSONDecodeError) as exc:
            self._error(400, f"invalid request: {exc}")
        except RuntimeError as exc:
            self._error(503, str(exc))


def make_server(
    service: DiagnosisService,
    host: str = "127.0.0.1",
    port: int = 0,
    log: bool = False,
) -> ThreadingHTTPServer:
    """Bind an HTTP server onto a (started) service.

    ``port=0`` binds an ephemeral port — read it back from
    ``server.server_address`` (the lifecycle tests and CI drill do).
    The caller owns both lifecycles: ``server.shutdown()`` then
    ``service.close()``.
    """
    handler = type(
        "_BoundHandler", (_Handler,), {"service": service, "log_to_stderr": log}
    )
    return ThreadingHTTPServer((host, port), handler)


def serve_forever(
    root: Path | str,
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: int = 2,
    default_timeout: float | None = None,
    default_max_attempts: int = 1,
    policies: dict[str, NamespacePolicy] | None = None,
    aging_seconds: float = 60.0,
    retention: RetentionPolicy | None = None,
    gc_interval: float = 300.0,
    log: bool = True,
) -> int:
    """Run the service until interrupted (the ``serve`` subcommand body).

    Prints one machine-readable ready line (``repro-service ready ...``)
    once the socket is bound, so wrappers can poll for startup, then
    blocks in the server loop.  ``SIGINT``/``SIGTERM`` (KeyboardInterrupt
    / process kill) shut down cleanly: queued jobs stay journaled and a
    restart over the same root re-adopts them — as it does after an
    unclean ``kill -9``.  ``policies``/``aging_seconds`` configure the
    fair-share scheduler; a ``retention`` policy turns on periodic GC
    every ``gc_interval`` seconds.
    """
    service = DiagnosisService(
        root,
        workers=workers,
        default_timeout=default_timeout,
        default_max_attempts=default_max_attempts,
        policies=policies,
        aging_seconds=aging_seconds,
        retention=retention,
        gc_interval=gc_interval,
    ).start()
    server = make_server(service, host=host, port=port, log=log)
    bound_host, bound_port = server.server_address[:2]
    if service.adopted:
        print(
            f"re-adopted {len(service.adopted)} orphaned job(s): "
            + ", ".join(service.adopted),
            flush=True,
        )
    print(
        f"repro-service ready http://{bound_host}:{bound_port} "
        f"root={service.root} workers={workers}",
        flush=True,
    )
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr, flush=True)
    finally:
        server.server_close()
        service.close()
    return 0

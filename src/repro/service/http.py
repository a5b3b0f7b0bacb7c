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
unfinished job is 409, an invalid spec is 400, a corrupted
(quarantined) artifact is 500 — always ``{"error": ...}`` bodies, also
for the refusals of the stdlib request parser (a garbage request line
400, an unknown method 501, an oversize header 431).  Any other
exception is a 500 whose error names an id; the same id is logged with
the traceback on the ``repro.service.http`` logger, and the server
keeps serving.  The server thread pool only handles I/O;
the actual work still runs in the service's supervised worker
processes.

Connections: the server speaks HTTP/1.1 and keeps each connection open
for the next request (an HTTP/1.0 request, or one sent with
``Connection: close``, still gets its response and a closed
connection).  A connection idle for :data:`SOCKET_TIMEOUT` seconds
between requests, or stalled that long inside one, is closed, so a
silent client cannot hold a handler thread forever; with logging on,
only a request that stalls after its request line logs the timeout.
Each response
leaves in one write with Nagle's algorithm off: a response split in
two writes would wait for the client's delayed ACK (about 40 ms) once
the connection persists.  Every request body is read before the
response, so no unread byte can be parsed as the next request.  A body
the server will not read is answered and the connection closed: a
malformed ``Content-Length`` is 400, a body sent with a
``Transfer-Encoding`` (chunked) is 411, a body over
:data:`MAX_BODY_BYTES` is 413 (refused unread) and a body that stalls
past the timeout is 408.  ``server_close()`` also ends every
kept-alive connection, so no handler thread keeps answering for a
closed server.
"""

from __future__ import annotations

import json
import logging
import re
import socket
import sys
import threading
import uuid
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

__all__ = ["MAX_BODY_BYTES", "SOCKET_TIMEOUT", "make_server", "serve_forever"]

#: Largest request body the server reads; a longer declared
#: ``Content-Length`` is refused with 413 before any byte is read.
MAX_BODY_BYTES = 1 << 20

#: Seconds a connection may sit idle between requests, or stall inside
#: one, before the server closes it.
SOCKET_TIMEOUT = 30.0

_LOG = logging.getLogger(__name__)


class _BodyError(Exception):
    """A request body the server will not read: answered with ``code``,
    then the connection closes (its unread bytes would otherwise be
    parsed as the next request)."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _json_object(raw: bytes) -> dict[str, Any]:
    """Parse a request body that must be a JSON object (empty is ``{}``)."""
    payload = json.loads(raw.decode("utf-8")) if raw else {}
    if not isinstance(payload, dict):
        raise ValueError("request body must be a JSON object")
    return payload


class _Handler(BaseHTTPRequestHandler):
    """Route ``/v1`` requests onto the attached service."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    # A request line too broken to name a version is answered with a
    # status line and headers, not as HTTP/0.9 (a bare body).
    default_request_version = "HTTP/1.0"
    # Buffer each response (``handle_one_request`` flushes it) so it
    # leaves in one write, and send it without waiting for an ACK.
    wbufsize = -1
    disable_nagle_algorithm = True
    timeout = SOCKET_TIMEOUT
    #: Attached by :func:`make_server`.
    service: DiagnosisService

    # Quiet by default; ``make_server(log=True)`` restores request lines.
    log_to_stderr = False

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.log_to_stderr:
            super().log_message(format, *args)

    def handle_one_request(self) -> None:
        # Cleared so log_error can tell a connection that timed out
        # waiting for its next request line from one stalled mid-request.
        self.raw_requestline = b""
        super().handle_one_request()

    def log_error(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.raw_requestline and format.startswith("Request timed out"):
            return  # an idle connection closing is routine, not an error
        super().log_error(format, *args)

    def handle_expect_100(self) -> bool:
        """Send ``100 Continue`` now: the client waits for it before
        sending the body, so it must not sit in the write buffer."""
        accepted = super().handle_expect_100()
        self.wfile.flush()
        return accepted

    def _send(
        self, code: int, payload: dict[str, Any], close: bool = False
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            # Also sets close_connection: the handler stops reading.
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def send_error(
        self, code: int, message: str | None = None, explain: str | None = None
    ) -> None:
        """Answer a protocol-level refusal of the stdlib parser (a
        garbage request line, an unknown method, an oversize header) in
        the ``{"error": ...}`` JSON shape, then close the connection."""
        message = message or self.responses.get(code, ("error",))[0]
        self.log_error("code %d, message %s", code, message)
        self._error(code, message, close=True)

    def _error(self, code: int, message: str, close: bool = False) -> None:
        self._send(code, {"error": message}, close=close)

    def _unexpected(self, exc: Exception) -> None:
        """Answer an unmapped exception with a 500 and a logged error id."""
        error_id = uuid.uuid4().hex[:12]
        _LOG.error(
            "error id %s: %s %s raised %r",
            error_id,
            self.command,
            self.path,
            exc,
            exc_info=exc,
        )
        self._error(500, f"internal error {error_id} ({type(exc).__name__})")

    def _read_body(self) -> bytes:
        """Read the whole declared request body (``b""`` if none).

        Raises :class:`_BodyError` for a body the server will not read.
        """
        if self.headers.get("Transfer-Encoding"):
            raise _BodyError(
                411, "request bodies with a Transfer-Encoding are not "
                "accepted; send a Content-Length"
            )
        declared = self.headers.get_all("Content-Length") or ["0"]
        # Checked before reading: a negative length would make
        # rfile.read block until the client hangs up, and two lengths
        # leave the body's end ambiguous.
        if len(declared) > 1 or not re.fullmatch(r"\s*[0-9]+\s*", declared[0]):
            raise _BodyError(
                400, f"invalid Content-Length {', '.join(declared)!r}"
            )
        length = int(declared[0])
        if length > MAX_BODY_BYTES:
            raise _BodyError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        try:
            raw = self.rfile.read(length)
        except TimeoutError as exc:
            raise _BodyError(
                408, f"request body not received within {self.timeout:g}s"
            ) from exc
        if len(raw) < length:
            raise _BodyError(
                400, f"request body truncated at {len(raw)} of {length} bytes"
            )
        return raw

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            self._read_body()  # a GET reads none, but must leave none unread
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
        except _BodyError as exc:
            self._error(exc.code, str(exc), close=True)
        except JobNotFoundError as exc:
            self._error(404, f"no such job: {exc.args[0]}")
        except JobNotFinishedError as exc:
            self._error(409, str(exc))
        except RuntimeError as exc:
            self._error(500, str(exc))
        except Exception as exc:  # noqa: BLE001 - fail closed, keep serving
            self._unexpected(exc)

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            body = self._read_body()
            if parts == ["v1", "jobs"]:
                spec = JobSpec.from_payload(_json_object(body))
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
        except _BodyError as exc:
            self._error(exc.code, str(exc), close=True)
        except JobNotFoundError as exc:
            self._error(404, f"no such job: {exc.args[0]}")
        except (ValueError, TypeError, json.JSONDecodeError) as exc:
            self._error(400, f"invalid request: {exc}")
        except RuntimeError as exc:
            self._error(503, str(exc))
        except Exception as exc:  # noqa: BLE001 - fail closed, keep serving
            self._unexpected(exc)


class _Server(ThreadingHTTPServer):
    """A threading server whose ``server_close`` also ends the kept-alive
    connections, whose handler threads would otherwise keep answering
    for up to :data:`SOCKET_TIMEOUT` after the server closed."""

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()

    def process_request(self, request: Any, client_address: Any) -> None:
        """Track the accepted connection, then serve it on a thread."""
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        """Forget a connection its handler is done with, and close it."""
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Shut every tracked connection down, then close the listener."""
        with self._open_lock:
            still_open = list(self._open)
        for request in still_open:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the handler closed it first
        super().server_close()


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
    return _Server((host, port), handler)


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

"""Clients for the diagnosis service: in-process and HTTP.

Both clients speak the same five-verb surface — ``submit`` / ``status``
/ ``result`` / ``cancel`` / ``wait`` — so callers (the CLI's
``--service`` routing, the lifecycle tests, user scripts) are agnostic
to whether the service runs in their process or behind
``python -m repro serve``.

:class:`ServiceClient` wraps a live
:class:`~repro.service.service.DiagnosisService` directly.
:class:`HttpServiceClient` talks to the ``/v1`` HTTP API
(:mod:`repro.service.http`) with nothing but :mod:`http.client` — no
new dependencies — over one persistent HTTP/1.1 connection per calling
thread.
"""

from __future__ import annotations

import http.client
import io
import json
import select
import threading
import time
import urllib.error
import weakref
from typing import Any
from urllib.parse import urlsplit

from .jobs import TERMINAL_STATES, JobSpec
from .service import DiagnosisService

__all__ = ["HttpServiceClient", "ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """The service refused or could not complete a client request."""


class ServiceClient:
    """In-process client over a live :class:`DiagnosisService`."""

    def __init__(self, service: DiagnosisService):
        self.service = service

    def submit(
        self,
        kind: str,
        payload: dict[str, Any] | None = None,
        namespace: str = "default",
        priority: str = "normal",
        timeout: float | None = None,
        max_attempts: int = 1,
    ) -> str:
        """Submit one job; returns its (already durable) id."""
        return self.service.submit(
            JobSpec(
                kind=kind,
                payload=payload or {},
                namespace=namespace,
                priority=priority,
                timeout=timeout,
                max_attempts=max_attempts,
            )
        )

    def queue(self) -> dict[str, Any]:
        """Scheduler snapshot (fair-share queues, inflight, tokens)."""
        return self.service.queue_snapshot()

    def status(self, job_id: str) -> dict[str, Any]:
        return self.service.status(job_id)

    def result(self, job_id: str) -> dict[str, Any]:
        return self.service.result(job_id)

    def cancel(self, job_id: str) -> bool:
        return self.service.cancel(job_id)

    def wait(self, job_id: str, timeout: float | None = None) -> str:
        """Block until the job is terminal; returns its final state."""
        return self.service.wait(job_id, timeout=timeout)

    def list_jobs(self, namespace: str | None = None) -> list[dict[str, Any]]:
        return self.service.list_jobs(namespace)


class _ThreadConnection:
    """One calling thread's connection.

    ``threading.local`` drops this holder when its thread exits, and
    the holder then closes the connection rather than leave its socket
    to the garbage collector (an unclosed-socket ``ResourceWarning``).
    The close is a weak-reference finalizer, not ``__del__``: the
    finalizer holds the connection itself, so when the holder dies in a
    reference cycle (a client caught in a stored traceback) the socket
    is not part of the dead cycle and is closed, not collected open.
    """

    def __init__(self, connection: http.client.HTTPConnection):
        self.connection = connection
        weakref.finalize(self, connection.close)


class HttpServiceClient:
    """``/v1`` HTTP client for ``python -m repro serve`` (stdlib only).

    Each thread that calls the client keeps its own persistent
    connection, closed when the thread exits, so one client object can
    be shared between threads.  A connection the server has closed
    (idle timeout, restart) is noticed before the next request is sent
    on it and replaced.  If a reused connection still fails before any
    response arrives, a ``GET`` is sent once more on a fresh
    connection; a ``POST`` never is — it raises :class:`ServiceError`,
    so a submit can never create two jobs.
    """

    def __init__(self, base_url: str, request_timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.request_timeout = request_timeout
        self._url = urlsplit(self.base_url)
        self._local = threading.local()

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection, closed first if the server closed it."""
        held = getattr(self._local, "held", None)
        if held is None:
            if self._url.scheme == "http":
                factory = http.client.HTTPConnection
            elif self._url.scheme == "https":
                factory = http.client.HTTPSConnection
            else:
                raise ServiceError(
                    f"cannot reach service at {self.base_url}: "
                    f"unsupported URL scheme {self._url.scheme!r}"
                )
            connection = factory(self._url.netloc, timeout=self.request_timeout)
            self._local.held = _ThreadConnection(connection)
            return connection
        connection = held.connection
        if connection.sock is not None and select.select(
            [connection.sock], [], [], 0
        )[0]:
            # Between responses an open connection has nothing to read:
            # readable means the server hung up (or sent bytes no request
            # asked for).  Closing makes the next request reconnect
            # instead of failing on a dead socket.
            connection.close()
        return connection

    def _call(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        data = json.dumps(body).encode("utf-8") if body is not None else None
        for attempt in (1, 2):
            connection = self._connection()
            # A reused socket can still die before any response arrives
            # (the server closed it just after the check above).  Only
            # a GET is then sent again: a POST may already have acted.
            resend = (
                attempt == 1 and method == "GET" and connection.sock is not None
            )
            response = None
            try:
                connection.request(
                    method,
                    self._url.path + path,
                    body=data,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                raw = response.read()
            except (OSError, http.client.HTTPException) as exc:
                connection.close()
                if resend and response is None and isinstance(
                    exc, ConnectionError
                ):
                    continue
                raise ServiceError(
                    f"cannot reach service at {self.base_url}: {exc}"
                ) from exc
            break
        if 200 <= response.status < 300:
            return json.loads(raw.decode("utf-8"))
        try:
            detail = json.loads(raw.decode("utf-8")).get("error")
        except Exception:  # noqa: BLE001 — error body is best-effort
            detail = None
        # Callers read the status from the cause's ``.code``.
        raise ServiceError(
            detail or f"{method} {path} failed with HTTP {response.status}"
        ) from urllib.error.HTTPError(
            self.base_url + path,
            response.status,
            response.reason,
            response.headers,
            io.BytesIO(raw),
        )

    def health(self) -> dict[str, Any]:
        return self._call("GET", "/v1/health")

    def submit(
        self,
        kind: str,
        payload: dict[str, Any] | None = None,
        namespace: str = "default",
        priority: str = "normal",
        timeout: float | None = None,
        max_attempts: int = 1,
    ) -> str:
        body = JobSpec(
            kind=kind,
            payload=payload or {},
            namespace=namespace,
            priority=priority,
            timeout=timeout,
            max_attempts=max_attempts,
        ).to_payload()
        return self._call("POST", "/v1/jobs", body)["job_id"]

    def queue(self) -> dict[str, Any]:
        """Scheduler snapshot (fair-share queues, inflight, tokens)."""
        return self._call("GET", "/v1/queue")

    def status(self, job_id: str) -> dict[str, Any]:
        return self._call("GET", f"/v1/jobs/{job_id}")

    def result(self, job_id: str) -> dict[str, Any]:
        return self._call("GET", f"/v1/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> bool:
        return bool(self._call("POST", f"/v1/jobs/{job_id}/cancel")["cancelled"])

    def list_jobs(self, namespace: str | None = None) -> list[dict[str, Any]]:
        suffix = f"?namespace={namespace}" if namespace else ""
        return self._call("GET", f"/v1/jobs{suffix}")["jobs"]

    def wait(
        self,
        job_id: str,
        timeout: float | None = None,
        poll_seconds: float = 0.2,
    ) -> str:
        """Poll ``status`` until the job is terminal; returns its state."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            state = self.status(job_id)["state"]
            if state in TERMINAL_STATES:
                return state
            if deadline is not None and time.monotonic() >= deadline:
                return state
            time.sleep(poll_seconds)

"""The HTTP face's connections: keep-alive, fail-closed bodies, fuzzing.

The server speaks HTTP/1.1 and :class:`HttpServiceClient` keeps one
connection per calling thread.  These tests pin what persistence must
not break: connections are really reused and never stall on Nagle's
algorithm, an idle-closed connection is replaced without sending a
submit twice, every request body the server will not read closes the
connection (its bytes must never be parsed as the next request), and
seeded malformed requests only ever get a mapped error or a close.
"""

import gc
import json
import random
import socket
import sys
import threading
import time
import warnings
from types import SimpleNamespace

import pytest

from repro.service import DiagnosisService, HttpServiceClient, ServiceError
from repro.service import client as client_module
from repro.service.http import MAX_BODY_BYTES, SOCKET_TIMEOUT, make_server


@pytest.fixture()
def served(tmp_path):
    """A live service behind a real server, counting accepted connections."""
    service = DiagnosisService(tmp_path / "svc", workers=1).start()
    server = make_server(service, port=0)
    accepted = []
    process_request = server.process_request

    def counting(request, client_address):
        accepted.append(client_address)
        process_request(request, client_address)

    server.process_request = counting
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = HttpServiceClient(f"http://{host}:{port}")
    try:
        yield SimpleNamespace(
            service=service,
            server=server,
            address=(host, port),
            client=client,
            accepted=accepted,
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.close()
    assert not thread.is_alive()


def _responses(stream: bytes) -> list[tuple[int, dict[str, str], bytes]]:
    """Split a byte stream into ``(status, headers, body)`` responses."""
    out = []
    while stream:
        head, sep, rest = stream.partition(b"\r\n\r\n")
        assert sep, f"unterminated response head: {stream[:200]!r}"
        lines = head.decode("iso-8859-1").split("\r\n")
        version, status = lines[0].split()[:2]
        assert version == "HTTP/1.1", lines[0]
        headers = {
            name.strip().lower(): value.strip()
            for name, value in (line.split(":", 1) for line in lines[1:])
        }
        length = int(headers["content-length"])
        body, stream = rest[:length], rest[length:]
        assert len(body) == length, f"truncated body: {body!r}"
        out.append((int(status), headers, body))
    return out


def _exchange(address, data: bytes, half_close: bool = False, timeout=5.0):
    """Send raw bytes on a fresh connection; read until the server closes.

    Returns the parsed responses.  A server that keeps the connection
    open instead fails the read with a timeout.
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return _responses(b"".join(chunks))


def _submit_request(body: bytes, content_length: str | None = None) -> bytes:
    length = str(len(body)) if content_length is None else content_length
    return (
        b"POST /v1/jobs HTTP/1.1\r\nHost: fuzz\r\n"
        b"Content-Type: application/json\r\n"
        + f"Content-Length: {length}\r\n\r\n".encode()
        + body
    )


_SLEEP_SPEC = json.dumps(
    {"kind": "sleep", "payload": {"seconds": 0}, "namespace": "fuzz"}
).encode()
_HEALTH = b"GET /v1/health HTTP/1.1\r\nHost: fuzz\r\n\r\n"


def _submitted_records(service: DiagnosisService) -> list[str]:
    lines = service.store.path.read_text().splitlines()
    return [
        record["job_id"]
        for record in map(json.loads, lines)
        if record["type"] == "submitted"
    ]


# ------------------------------------------------------------ keep-alive


def test_sequential_calls_reuse_one_connection_per_thread(served):
    client = served.client
    start = time.perf_counter()
    for _ in range(50):
        assert client.health()["ok"]
    elapsed = time.perf_counter() - start
    assert len(served.accepted) == 1
    # A response that waited on the client's delayed ACK (Nagle plus a
    # two-write response) costs ~40 ms per call: >= 2 s for 50.
    assert elapsed < 1.0, f"50 keep-alive health calls took {elapsed:.2f}s"

    def calls():
        for _ in range(25):
            client.health()

    threads = [threading.Thread(target=calls) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert len(served.accepted) == 3  # one more per calling thread


def test_idle_timeout_reconnects_and_submits_once(served, monkeypatch):
    assert served.server.RequestHandlerClass.timeout == SOCKET_TIMEOUT
    monkeypatch.setattr(served.server.RequestHandlerClass, "timeout", 0.2)
    client = served.client
    assert client.health()["ok"]
    time.sleep(0.6)  # the server closes the idle connection
    assert client.health()["ok"]
    time.sleep(0.6)
    job_id = client.submit("sleep", {"seconds": 0})
    assert client.wait(job_id, timeout=30, poll_seconds=0.02) == "done"
    assert _submitted_records(served.service) == [job_id]
    # One connection per call above, at least: a pause of the polling
    # loop past the idle timeout adds a reconnect, nothing more.
    assert len(served.accepted) >= 3


def test_dropped_connection_retries_get_never_post(served, monkeypatch):
    """A connection the server closed after the pre-send check passed (a
    race the check cannot see, forced here by blinding it) is resent once
    for a GET; a POST raises instead, and no job exists."""
    monkeypatch.setattr(served.server.RequestHandlerClass, "timeout", 0.2)
    monkeypatch.setattr(
        client_module, "select", SimpleNamespace(select=lambda *a: ([], [], []))
    )
    client = served.client
    assert client.health()["ok"]
    time.sleep(0.5)  # the server closes the idle connection
    assert client.health()["ok"]
    assert len(served.accepted) == 2
    time.sleep(0.5)
    with pytest.raises(ServiceError, match="cannot reach service"):
        client.submit("sleep", {"seconds": 0})
    assert _submitted_records(served.service) == []
    assert client.health()["ok"]
    assert len(served.accepted) == 3


def test_server_close_ends_kept_alive_connections(served):
    client = served.client
    assert client.health()["ok"]
    served.server.shutdown()
    served.server.server_close()
    # Without this, the handler thread would keep answering on the
    # persistent connection for a closed server.
    with pytest.raises(ServiceError, match="cannot reach service"):
        client.health()


def test_http_1_0_request_gets_a_response_and_a_close(served):
    [(status, headers, body)] = _exchange(
        served.address, b"GET /v1/health HTTP/1.0\r\n\r\n"
    )
    assert status == 200 and json.loads(body)["ok"]


def test_expect_100_continue_is_answered_before_the_body(served):
    with socket.create_connection(served.address, timeout=3) as sock:
        sock.sendall(
            b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
            + f"Content-Length: {len(_SLEEP_SPEC)}\r\n\r\n".encode()
        )
        reader = sock.makefile("rb")
        assert reader.readline().startswith(b"HTTP/1.1 100")
        assert reader.readline() == b"\r\n"
        sock.sendall(_SLEEP_SPEC)
        assert reader.readline().startswith(b"HTTP/1.1 201")


# ------------------------------------------------- fail-closed bodies


@pytest.mark.parametrize(
    "request_bytes, code",
    [
        (_submit_request(b"x" * 4096, str(MAX_BODY_BYTES + 1)), 413),
        (_submit_request(b"{}", "-1"), 400),
        (_submit_request(b"{}", "2x"), 400),
        (
            b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 2\r\nContent-Length: 9\r\n\r\n{}",
            400,
        ),
        (
            b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
            411,
        ),
    ],
    ids=["oversize", "negative", "non-integer", "two-lengths", "chunked"],
)
def test_unread_body_closes_the_connection(served, request_bytes, code):
    # The pipelined health request must never be answered: the unread
    # body in front of it would be parsed as a request.
    [(status, headers, body)] = _exchange(served.address, request_bytes + _HEALTH)
    assert status == code
    assert headers["connection"] == "close"
    assert "error" in json.loads(body)
    assert _submitted_records(served.service) == []


def test_stalled_body_gets_408_not_a_logged_500(served, monkeypatch, caplog):
    monkeypatch.setattr(served.server.RequestHandlerClass, "timeout", 0.3)
    with caplog.at_level("ERROR", logger="repro.service.http"):
        [(status, headers, _)] = _exchange(
            served.address, _submit_request(b"{", "10")
        )
    assert (status, headers["connection"]) == (408, "close")
    assert not caplog.records
    assert served.client.health()["ok"]


def test_idle_close_is_not_logged_a_stalled_request_is(
    served, monkeypatch, capsys
):
    handler = served.server.RequestHandlerClass
    monkeypatch.setattr(handler, "timeout", 0.2)
    monkeypatch.setattr(handler, "log_to_stderr", True)  # as ``repro serve``
    assert _exchange(served.address, b"") == []  # idle: closed quietly
    stalled = b"GET /v1/health HTTP/1.1\r\nHost: fuzz\r\n"  # no blank line
    assert _exchange(served.address, stalled) == []
    assert capsys.readouterr().err.count("Request timed out") == 1


def test_consumed_body_keeps_the_connection(served):
    """A fully read body (even on a route that ignores it, or on a GET)
    leaves the connection usable for the next pipelined request."""
    cancel = (
        b"POST /v1/jobs/missing/cancel HTTP/1.1\r\nHost: x\r\n"
        b"Content-Length: 2\r\n\r\n{}"
    )
    health_with_body = _HEALTH.replace(
        b"\r\n\r\n", b"\r\nContent-Length: 2\r\n\r\n{}"
    )
    closing_health = _HEALTH.replace(
        b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n"
    )
    responses = _exchange(
        served.address, cancel + health_with_body + closing_health
    )
    assert [status for status, _, _ in responses] == [404, 200, 200]
    assert len(served.accepted) == 1


@pytest.mark.parametrize(
    "request_bytes, code",
    [
        (b"\x16\x03\x01 garbage\r\n\r\n", 400),
        (b"BREW /v1/health HTTP/1.1\r\nHost: x\r\n\r\n", 501),
        (
            b"GET /v1/health HTTP/1.1\r\n"
            + b"".join(b"X-%d: y\r\n" % k for k in range(120))
            + b"\r\n",
            431,
        ),
    ],
    ids=["garbage-line", "unknown-method", "too-many-headers"],
)
def test_parser_refusals_get_json_bodies(served, request_bytes, code):
    [(status, headers, body)] = _exchange(served.address, request_bytes)
    assert (status, headers["connection"]) == (code, "close")
    assert headers["content-type"] == "application/json"
    assert json.loads(body)["error"]


def test_head_refusal_sends_no_body(served):
    with socket.create_connection(served.address, timeout=5) as sock:
        sock.sendall(b"HEAD /v1/health HTTP/1.1\r\nHost: x\r\n\r\n")
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 501") and body == b""


def test_an_exited_threads_connection_is_closed(served, monkeypatch):
    """The connection a finished thread kept is closed, not collected
    with its socket open (an unclosed-socket ``ResourceWarning``)."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        worker = threading.Thread(target=served.client.health)
        worker.start()
        worker.join(timeout=10)
        del worker
        gc.collect()
    assert unraisable == []
    # The server saw the close: its handler thread let the socket go.
    deadline = time.monotonic() + 5
    while served.server._open and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not served.server._open


# ------------------------------------------------------------ fuzzing


def _fuzz_case(rng: random.Random) -> bytes:
    base = rng.choice(
        [
            _submit_request(_SLEEP_SPEC),
            _HEALTH,
            b"POST /v1/jobs/abc/cancel HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
        ]
    )
    mutation = rng.randrange(5)
    if mutation == 0:  # truncated anywhere, body included
        return base[: rng.randrange(len(base))]
    if mutation == 1:  # flipped bytes
        data = bytearray(base)
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] ^= rng.randint(1, 255)
        return bytes(data)
    if mutation == 2:  # bad Content-Length values
        value = rng.choice(["-1", "abc", "", "1e3", "0x10", "+5", "5 5", "٣"])
        return _submit_request(_SLEEP_SPEC, value)
    if mutation == 3:  # garbage request line
        line = bytes(rng.randrange(256) for _ in range(rng.randint(1, 60)))
        return line.replace(b"\n", b"") + b"\r\n\r\n"
    # Oversize declared body with a partial payload behind it.
    declared = str(MAX_BODY_BYTES + rng.randint(1, 10**9))
    return _submit_request(_SLEEP_SPEC[: rng.randrange(len(_SLEEP_SPEC))], declared)


def test_seeded_fuzz_gets_mapped_errors_and_the_server_keeps_serving(
    served, caplog, capsys
):
    rng = random.Random(2505)
    mapped = {200, 201, 400, 404, 408, 411, 413, 414, 431, 501, 505}
    start = time.perf_counter()
    with caplog.at_level("ERROR", logger="repro.service.http"):
        for _ in range(120):
            case = _fuzz_case(rng)
            try:
                responses = _exchange(served.address, case, half_close=True)
            except ConnectionResetError:
                continue  # a closed connection is an allowed answer
            for status, headers, body in responses:
                assert status in mapped, (status, case)
                # Refusals of the stdlib parser too: JSON, never HTML.
                assert headers["content-type"] == "application/json"
                if status >= 400:
                    assert "error" in json.loads(body), (status, body)
    assert time.perf_counter() - start < 2.0
    assert not caplog.records, [r.getMessage() for r in caplog.records]
    assert "Traceback" not in capsys.readouterr().err
    client = served.client
    assert client.health()["ok"]
    job_id = client.submit("sleep", {"seconds": 0}, namespace="after-fuzz")
    assert client.wait(job_id, timeout=30, poll_seconds=0.02) == "done"

"""Dependency-free asyncio HTTP/JSON front end for the job manager.

``python -m repro serve`` binds this server; everything is stdlib
(``asyncio.start_server`` plus hand-rolled HTTP/1.1 parsing — no
framework).  Connections are one-request (``Connection: close``), which
keeps the parser honest and lets the NDJSON event stream be framed by
connection close.

Routes (all JSON unless noted)::

    GET    /v1/health              liveness + job count
    GET    /v1/interfaces          registered interfaces, ops, kernels
    POST   /v1/jobs                submit {kind, params} -> job record
    GET    /v1/jobs                every job record
    GET    /v1/jobs/{id}           one job record (repro.job/1)
    DELETE /v1/jobs/{id}           request cancellation
    GET    /v1/jobs/{id}/events    NDJSON event stream (?since=SEQ)
    GET    /v1/artifacts/{digest}  canonical artifact bytes
    GET    /v1/store               the artifact store index

The server thread never computes: jobs run on the manager's worker
pool, and the event stream bridges to its blocking ``wait_events``
through ``asyncio.to_thread``, so slow sweeps stall neither the accept
loop nor other streams.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro.kinds import BadRequest
from repro.service.jobs import JobManager
from repro.service.store import UnknownArtifactError

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8321

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}

#: Upper bound on request head + body; sweep submissions are tiny.
_MAX_REQUEST = 1 << 20


class ServiceServer:
    """One asyncio server over one :class:`JobManager`.

    ``port=0`` binds an ephemeral port (the tests' default); the bound
    port is published on :attr:`port` once the server is listening.
    """

    def __init__(
        self,
        manager: Optional[JobManager] = None,
        host: str = DEFAULT_HOST,
        port: int = 0,
    ):
        self.manager = manager if manager is not None else JobManager()
        self.host = host
        self.port = port
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        async with server:
            await self._stop.wait()

    def run(self) -> None:
        """Serve until interrupted (the ``repro serve`` foreground loop)."""
        try:
            asyncio.run(self._serve())
        except KeyboardInterrupt:
            pass
        finally:
            self.manager.shutdown()

    def start_background(self) -> "ServiceServer":
        """Serve from a daemon thread; returns once the port is bound."""
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._serve()),
            name="repro-serve", daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("service failed to start listening")
        return self

    def wait(self) -> None:
        """Block until the background server thread exits."""
        if self._thread is not None:
            self._thread.join()

    def stop_background(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.manager.shutdown()

    # -- request plumbing ------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            try:
                head = await asyncio.wait_for(
                    reader.readuntil(b"\r\n\r\n"), timeout=30.0
                )
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                    asyncio.TimeoutError, ConnectionError):
                return
            method, target, headers = _parse_head(head)
            if method is None:
                await _respond(writer, 400, {"error": "malformed request"})
                return
            length = int(headers.get("content-length", "0") or "0")
            if length > _MAX_REQUEST:
                await _respond(writer, 400, {"error": "request too large"})
                return
            body = await reader.readexactly(length) if length else b""
            await self._route(writer, method, target, body)
        except ConnectionError:
            pass
        except Exception as exc:  # the server must not die on one request
            try:
                await _respond(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except ConnectionError:
                pass
        finally:
            writer.close()

    async def _route(self, writer, method: str, target: str,
                     body: bytes) -> None:
        split = urlsplit(target)
        parts = [p for p in split.path.split("/") if p]
        query = parse_qs(split.query)

        if parts == ["v1", "health"]:
            await _respond(writer, 200, {
                "ok": True, "jobs": len(self.manager.list()),
            })
        elif parts == ["v1", "interfaces"]:
            await _respond(writer, 200, _interfaces_payload())
        elif parts == ["v1", "jobs"] and method == "POST":
            await self._submit(writer, body)
        elif parts == ["v1", "jobs"] and method == "GET":
            await _respond(writer, 200, {"jobs": self.manager.list()})
        elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            await self._job(writer, method, parts[2])
        elif (len(parts) == 4 and parts[:2] == ["v1", "jobs"]
                and parts[3] == "events" and method == "GET"):
            since = int(query.get("since", ["0"])[0])
            await self._stream_events(writer, parts[2], since)
        elif (len(parts) == 3 and parts[:2] == ["v1", "artifacts"]
                and method == "GET"):
            await self._artifact(writer, parts[2])
        elif parts == ["v1", "store"] and method == "GET":
            await _respond(writer, 200, self.manager.store.index())
        else:
            await _respond(writer, 404, {"error": f"no route {split.path}"})

    # -- handlers --------------------------------------------------------

    async def _submit(self, writer, body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except ValueError:
            await _respond(writer, 400, {"error": "body is not JSON"})
            return
        if not isinstance(payload, dict):
            await _respond(writer, 400, {"error": "body must be an object"})
            return
        try:
            record = self.manager.submit(
                payload.get("kind"), payload.get("params")
            )
        except BadRequest as exc:
            await _respond(writer, 400, {"error": str(exc)})
            return
        await _respond(writer, 201, record.to_dict())

    async def _job(self, writer, method: str, job_id: str) -> None:
        try:
            record = self.manager.get(job_id)
        except KeyError:
            await _respond(writer, 404, {"error": f"no such job {job_id}"})
            return
        if method == "GET":
            await _respond(writer, 200, record.to_dict())
        elif method == "DELETE":
            await _respond(writer, 200, {
                "id": job_id, "cancelled": self.manager.cancel(job_id),
            })
        else:
            await _respond(writer, 405, {"error": f"{method} not allowed"})

    async def _stream_events(self, writer, job_id: str, since: int) -> None:
        try:
            self.manager.get(job_id)
        except KeyError:
            await _respond(writer, 404, {"error": f"no such job {job_id}"})
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        while True:
            events, finished = await asyncio.to_thread(
                self.manager.wait_events, job_id, since, 1.0
            )
            for event in events:
                writer.write(
                    (json.dumps(event, sort_keys=True) + "\n").encode()
                )
                since = event["seq"]
            await writer.drain()
            if finished and not events:
                return

    async def _artifact(self, writer, digest: str) -> None:
        try:
            blob = self.manager.store.get_bytes(digest)
        except UnknownArtifactError as exc:
            await _respond(writer, 404, {"error": str(exc.args[0])})
            return
        await _send(writer, 200, "application/json", blob)


def _parse_head(head: bytes):
    """(method, target, headers) from the request head; Nones when the
    request line is malformed."""
    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, _version = lines[0].split(" ", 2)
    except ValueError:
        return None, None, {}
    headers = {}
    for line in lines[1:]:
        if ":" in line:
            name, value = line.split(":", 1)
            headers[name.strip().lower()] = value.strip()
    return method.upper(), target, headers


async def _send(writer, status: int, content_type: str,
                body: bytes) -> None:
    writer.write(
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n".encode()
    )
    writer.write(body)
    await writer.drain()


async def _respond(writer, status: int, payload: dict) -> None:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    await _send(writer, status, "application/json", body)


def _interfaces_payload() -> dict:
    from repro.model.registry import get_interface, interface_names

    interfaces = []
    for name in interface_names():
        iface = get_interface(name)
        interfaces.append({
            "name": name,
            "ops": iface.op_names,
            "kernels": [kernel for kernel, _ in iface.kernels],
        })
    return {"interfaces": interfaces}

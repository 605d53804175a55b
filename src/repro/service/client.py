"""A minimal blocking JSON-lines client for the render service.

Used by the benchmark's ``serve-mixed`` clients (``perfbench/``); the
wire format is plain enough that real clients can speak it from any
language (or ``nc``), so this class is a convenience, not an SDK.
"""

from __future__ import annotations

import json
import socket

from ..errors import ProtocolError

#: Default per-request timeout — generous, first requests render.
REQUEST_TIMEOUT_S = 600.0


class ServiceClient:
    """One connection to a ``repro serve`` endpoint."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = REQUEST_TIMEOUT_S,
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    def request(self, payload: "dict[str, object]") -> "dict[str, object]":
        """Send one request object; return the parsed response object.

        Fills in ``id`` when the caller didn't provide one. The raw
        response line is kept in the returned object under no key —
        callers needing byte-identity should use :meth:`request_raw`.
        """
        response, _raw = self.request_raw(payload)
        return response

    def request_raw(
        self, payload: "dict[str, object]"
    ) -> "tuple[dict[str, object], bytes]":
        """Like :meth:`request`, but also return the raw response line."""
        if "id" not in payload:
            self._next_id += 1
            payload = {**payload, "id": f"r{self._next_id}"}
        line = json.dumps(payload, sort_keys=True) + "\n"
        self._file.write(line.encode("utf-8"))
        self._file.flush()
        raw = self._file.readline()
        if not raw:
            raise ProtocolError("server closed the connection")
        try:
            return json.loads(raw), raw
        except ValueError as exc:
            raise ProtocolError(f"bad response line: {exc}") from exc

    def ping(self) -> "dict[str, object]":
        return self.request({"op": "ping"})

    def stats(self) -> "dict[str, object]":
        response = self.request({"op": "stats"})
        return response.get("stats", {})

    def shutdown(self) -> "dict[str, object]":
        return self.request({"op": "shutdown"})

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

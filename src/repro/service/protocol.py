"""JSON-lines wire protocol of the render service.

One request per line, one response line per request, UTF-8, newline
terminated — a protocol a shell script can speak::

    {"id": "c1-0", "op": "eval", "workload": "wolf-640x480",
     "frame": 0, "scenario": "patu", "threshold": 0.4,
     "config": {"tc_scale": 2}}

Ops:

* ``eval`` — evaluate one design point; responds with the scalar
  metrics dict of
  :func:`~repro.engine.worker.extract_frame_metrics`.
* ``render`` — a :func:`~repro.engine.jobs.capture_job`: load one
  frame's capture from the store (or render and store it); responds
  with the frame and its store digest.
* ``ping`` — liveness probe; responds immediately, bypassing the
  batcher.
* ``stats`` — service counters, store shard stats, queue depth.
* ``shutdown`` — ask the server to drain and exit (trusted clients;
  the service is an internal tool, not a public endpoint).

Responses are JSON objects with ``sort_keys`` and compact separators,
so a given result always serializes to the *same bytes* — the
byte-identity contract ``tests/service/test_service.py`` checks between
concurrent batched execution and the sequential baseline. Success:
``{"id": ..., "ok": true, ...}``; failure:
``{"error": {"message": ..., "type": ...}, "id": ..., "ok": false,
"status": <int>}`` where ``status`` follows HTTP conventions (400
malformed, 404 unknown workload/scenario, 429 admission-rejected,
500 evaluation failure).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from ..engine.jobs import KIND_EVAL, ConfigKey, EvalJob, capture_job
from ..errors import AdmissionError, JobError, ProtocolError, ReproError

PROTOCOL_VERSION = 1

#: Ops the server understands.
OPS = ("eval", "render", "ping", "stats", "shutdown")

#: Request fields accepted in the ``config`` object.
_CONFIG_FIELDS = {f.name for f in fields(ConfigKey)}

#: Upper bound on one request line; a longer line is a desynced or
#: abusive peer, not a real request.
MAX_LINE_BYTES = 64 * 1024


@dataclass(frozen=True)
class Request:
    """One parsed, validated request."""

    id: str
    op: str
    job: "EvalJob | None" = None


def parse_request(line: "str | bytes") -> Request:
    """Parse and validate one request line.

    Raises :class:`~repro.errors.ProtocolError` on anything malformed;
    the server maps that to a 400-style response instead of dropping
    the connection, so one bad request never kills a client's batch.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not UTF-8: {exc}") from exc
    try:
        payload = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    request_id = payload.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError("request needs a non-empty string 'id'")
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r} (expected one of {', '.join(OPS)})"
        )
    if op in ("ping", "stats", "shutdown"):
        return Request(id=request_id, op=op)
    return Request(id=request_id, op=op, job=_parse_job(payload, op))


def _parse_job(payload: dict, op: str) -> EvalJob:
    workload = payload.get("workload")
    if not isinstance(workload, str) or not workload:
        raise ProtocolError(f"op {op!r} needs a string 'workload'")
    frame = payload.get("frame", 0)
    if not isinstance(frame, int) or isinstance(frame, bool) or frame < 0:
        raise ProtocolError(f"'frame' must be a non-negative int, got {frame!r}")
    config = _parse_config(payload.get("config"))
    if op == "render":
        return capture_job(workload, frame, config)
    scenario = payload.get("scenario", "patu")
    if not isinstance(scenario, str) or not scenario:
        raise ProtocolError(f"'scenario' must be a string, got {scenario!r}")
    threshold = payload.get("threshold", 0.4)
    if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
        raise ProtocolError(
            f"'threshold' must be a number, got {threshold!r}"
        )
    return EvalJob(
        workload, frame, scenario=scenario, threshold=float(threshold),
        config_key=config, kind=KIND_EVAL,
    )


def _parse_config(raw) -> ConfigKey:
    if raw is None:
        return ConfigKey()
    if not isinstance(raw, dict):
        raise ProtocolError(
            f"'config' must be an object, got {type(raw).__name__}"
        )
    unknown = sorted(set(raw) - _CONFIG_FIELDS)
    if unknown:
        raise ProtocolError(
            f"unknown config field(s): {', '.join(unknown)} "
            f"(accepted: {', '.join(sorted(_CONFIG_FIELDS))})"
        )
    try:
        return ConfigKey(**raw)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad config: {exc}") from exc


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------

#: Original error types of replayed :class:`JobError` failures that
#: mean the *request* named something that doesn't exist.
_CLIENT_FAULT_TYPES = ("WorkloadError",)


def encode_response(payload: "dict[str, object]") -> bytes:
    """One response as canonical bytes (sorted keys, compact, newline)."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def ok_response(request_id: str, **fields) -> "dict[str, object]":
    return {"id": request_id, "ok": True, **fields}


def error_response(
    request_id: "str | None", error: BaseException
) -> "dict[str, object]":
    """Map an exception onto the typed failure envelope."""
    status = 500
    payload: "dict[str, object]" = {
        "id": request_id or "",
        "ok": False,
        "error": {
            "type": type(error).__name__,
            "message": str(error),
        },
    }
    if isinstance(error, AdmissionError):
        status = error.status
        payload["retry_after_s"] = error.retry_after_s
    elif isinstance(error, ProtocolError):
        status = 400
    elif isinstance(error, JobError):
        # A replayed engine failure reports the original error's type
        # (WorkloadError for an unknown game, etc.), same as a
        # FailureRecord footer would. Failures whose original type
        # marks a bad *request* keep their client-error status even
        # through the park-and-replay path.
        payload["error"]["type"] = error.error_type  # type: ignore[index]
        if error.error_type in _CLIENT_FAULT_TYPES:
            status = 404
    elif isinstance(error, ReproError):
        # A typed library error is the request's fault more often than
        # the server's (unknown workload, bad scenario) — client error.
        status = 404
    payload["status"] = status
    return payload

"""Per-frame metrics JSONL sink.

One JSON object per line, one line per frame record (see
:meth:`repro.obs.telemetry.Telemetry.frame_record` for the schema).
``jsonable`` converts numpy scalars/arrays so that model outputs can be
serialized without callers sanitizing them first.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from ..errors import SchemaError
from ..ioutil import atomic_write_text

#: Schema major of ``metrics.jsonl`` records. Stamped on every record
#: at write time; :func:`check_schema` rejects unknown majors with a
#: typed :class:`~repro.errors.SchemaError`. Records without a
#: ``schema`` field (pre-versioning files) are accepted as major 1.
METRICS_SCHEMA = 1


def check_schema(record: "dict", *, expected: int, what: str) -> "dict":
    """Validate one record's ``schema`` field against ``expected``.

    The record is returned unchanged on success; an unknown major
    raises :class:`~repro.errors.SchemaError`. A missing field is
    treated as major 1 (artifacts written before versioning).
    """
    major = record.get("schema", 1)
    if not isinstance(major, int) or isinstance(major, bool) or major < 1:
        raise SchemaError(f"{what}: malformed schema field {major!r}")
    if major != expected:
        raise SchemaError(
            f"{what}: unsupported schema major {major} "
            f"(this build reads major {expected})"
        )
    return record


def jsonable(value):
    """Recursively convert a value into plain JSON-serializable types."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def write_metrics_jsonl(records: "list[dict]", path) -> pathlib.Path:
    """Write frame records as one JSON object per line.

    Every record is stamped with ``"schema": METRICS_SCHEMA`` (a
    record that already carries one keeps it).
    """
    path = pathlib.Path(path)
    lines = [
        json.dumps(jsonable({"schema": METRICS_SCHEMA, **record}))
        for record in records
    ]
    text = "\n".join(lines) + "\n" if lines else ""
    atomic_write_text(path, text)
    return path

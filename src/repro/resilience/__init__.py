"""Resilient experiment execution: degradation and admission.

Two pillars (see ``docs/resilience.md``):

* :mod:`repro.resilience.guards` — graceful degradation: sanitize
  corrupted state (captures loaded from disk, arrays handed in by
  direct API callers), fall back to exact filtering, count every
  fallback in telemetry;
* :mod:`repro.resilience.admission` — the service's bounded admission
  queue.

:class:`FailureRecord` is the structured record of one isolated
per-(workload, frame) failure inside an experiment sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from .admission import DEFAULT_MAX_PENDING, AdmissionController
from .guards import safe_anisotropy, safe_txds, sanitize_colors


@dataclass(frozen=True)
class FailureRecord:
    """One isolated failure inside an experiment sweep."""

    workload: str
    frame: "int | None"
    stage: str
    error_type: str
    message: str

    def to_dict(self) -> "dict[str, object]":
        return {
            "workload": self.workload,
            "frame": self.frame,
            "stage": self.stage,
            "error_type": self.error_type,
            "message": self.message,
        }

    def __str__(self) -> str:
        where = self.workload if self.frame is None \
            else f"{self.workload} frame {self.frame}"
        return f"[{self.stage}] {where}: {self.error_type}: {self.message}"


__all__ = [
    "AdmissionController",
    "DEFAULT_MAX_PENDING",
    "FailureRecord",
    "safe_anisotropy",
    "safe_txds",
    "sanitize_colors",
]

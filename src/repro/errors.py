"""Exception hierarchy for the repro package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
masking programming errors (``TypeError`` etc.).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid GPU / experiment configuration was supplied."""


class GeometryError(ReproError):
    """Malformed geometric input (bad mesh, degenerate matrix, ...)."""


class TextureError(ReproError):
    """Malformed texture data or invalid sampling request."""


class PipelineError(ReproError):
    """The rendering pipeline was driven in an unsupported way."""


class WorkloadError(ReproError):
    """An unknown or invalid workload / game configuration was requested."""


class ExperimentError(ReproError):
    """An experiment was configured or executed incorrectly."""


class JobError(ExperimentError):
    """A planned engine job failed; replayed at aggregation time.

    The engine executes jobs eagerly (possibly on a worker thread) but
    experiments *observe* failures during aggregation, inside their
    usual isolation scopes. ``JobError`` carries the original
    exception's type name across that gap, so the
    :class:`~repro.resilience.FailureRecord` footer reports the real
    error type no matter where or when the job actually ran.
    """

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(message)
        self.error_type = error_type


class SchemaError(ReproError):
    """A schema-versioned artifact has an unknown or unsupported major.

    Raised by readers of ``metrics.jsonl``, Chrome-trace exports and
    run-ledger records when the embedded ``schema`` field names a major
    version this build does not understand. Readers never guess: a
    record written by a future layout is rejected, not misparsed.
    """


class LedgerError(ReproError):
    """The persistent run ledger is unreadable or was driven wrongly."""


class ResilienceError(ReproError):
    """Base class for fault-handling and degradation failures.

    Raised when the resilience layer itself cannot proceed (as opposed
    to the degradation guards, which count a component *recovering*
    from corrupted state by falling back to a safe path).
    """


class DegenerateInputError(ResilienceError):
    """A predictor/AF-SSIM input left its mathematical domain.

    NaN, infinity, ``N < 1`` anisotropy degrees and out-of-range Txds
    values raise this instead of silently propagating NaN through the
    quality model.
    """


class AdmissionError(ResilienceError):
    """The service declined a request because its queue is full.

    The 429-style rejection of ``repro serve``'s admission control:
    typed, immediate, and carrying a ``retry_after_s`` hint — a full
    queue sheds load at the door instead of letting latency collapse.
    """

    status = 429

    def __init__(self, message: str, *, retry_after_s: float = 0.05) -> None:
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class ProtocolError(ReproError):
    """A service request line was malformed or semantically invalid."""

"""Typed results of a verification run and the JSON report schema.

A verify run executes a list of *oracles* — independent checks of the
pipeline's correctness — and aggregates one :class:`OracleResult` per
oracle into a :class:`VerifyReport`. The report is machine-readable
(``repro verify --report``) so CI and future perf PRs can gate on it.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

from ..ioutil import atomic_write_text
from ..obs import jsonable

#: Report schema version — bump on breaking layout changes.
REPORT_SCHEMA = 1

#: Oracle layers, in presentation order.
LAYER_DIFFERENTIAL = "differential"
LAYER_METAMORPHIC = "metamorphic"
LAYER_GOLDEN = "golden"
LAYER_FUZZ = "fuzz"
LAYERS = (LAYER_DIFFERENTIAL, LAYER_METAMORPHIC, LAYER_GOLDEN, LAYER_FUZZ)


@dataclass(frozen=True)
class VerifyConfig:
    """Knobs shared by every oracle in one run."""

    seed: int = 0
    quick: bool = False
    #: Root of the golden-artifact store (``None`` = the in-repo
    #: ``tests/goldens`` directory).
    goldens_root: "pathlib.Path | None" = None
    #: Regenerate goldens instead of checking them.
    update_goldens: bool = False
    #: Generated scenarios the fuzz lane runs (0 = lane skipped).
    fuzz: int = 0
    #: Where the fuzz lane saves shrunk minimal repro specs (``None``
    #: = print only).
    fuzz_save: "pathlib.Path | None" = None


def oracle(name: str):
    """Give an oracle function its one name: the name of its report row.

    ``repro verify --list`` prints it and ``--only`` matches it; the
    runner fails a result that comes back under another name.
    """

    def named(fn):
        fn.oracle_name = name
        return fn

    return named


@dataclass
class OracleResult:
    """Outcome of one oracle.

    ``max_error`` is the largest absolute deviation the oracle
    observed (0.0 for exact/boolean checks); ``fragments`` counts the
    independent samples/pixels/rows it examined. ``details`` is free-
    form but JSON-ready.
    """

    name: str
    layer: str
    passed: bool
    max_error: float = 0.0
    fragments: int = 0
    skipped: bool = False
    duration_s: float = 0.0
    details: "dict[str, object]" = field(default_factory=dict)

    @property
    def status(self) -> str:
        if self.skipped:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"

    def to_dict(self) -> "dict[str, object]":
        return {
            "name": self.name,
            "layer": self.layer,
            "status": self.status,
            "passed": self.passed,
            "skipped": self.skipped,
            "max_error": self.max_error,
            "fragments": self.fragments,
            "duration_s": round(self.duration_s, 6),
            "details": jsonable(self.details),
        }


@dataclass
class VerifyReport:
    """All oracle outcomes of one ``repro verify`` invocation."""

    seed: int
    quick: bool
    results: "list[OracleResult]" = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed or r.skipped for r in self.results)

    @property
    def failures(self) -> "list[OracleResult]":
        return [r for r in self.results if not r.passed and not r.skipped]

    def layer_results(self, layer: str) -> "list[OracleResult]":
        return [r for r in self.results if r.layer == layer]

    def to_dict(self) -> "dict[str, object]":
        return {
            "schema": REPORT_SCHEMA,
            "seed": self.seed,
            "quick": self.quick,
            "passed": self.passed,
            "oracles_run": sum(1 for r in self.results if not r.skipped),
            "oracles_failed": len(self.failures),
            "fragments_checked": sum(r.fragments for r in self.results),
            "oracles": [r.to_dict() for r in self.results],
        }

    def write(self, path) -> pathlib.Path:
        """Atomically write the JSON report (crash-safe like all artifacts)."""
        import json

        text = json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"
        return atomic_write_text(path, text)

    def format_summary(self) -> str:
        """Human-readable per-oracle table (stdout companion of the JSON)."""
        name_w = max([len("oracle")] + [len(r.name) for r in self.results]) + 2
        lines = [
            f"{'oracle':<{name_w}}{'layer':<14}{'status':<8}"
            f"{'max_error':>12}{'fragments':>11}"
        ]
        lines.append("-" * len(lines[0]))
        for r in self.results:
            err = "-" if r.skipped else f"{r.max_error:.2e}"
            lines.append(
                f"{r.name:<{name_w}}{r.layer:<14}{r.status:<8}"
                f"{err:>12}{r.fragments:>11}"
            )
        verdict = "PASS" if self.passed else "FAIL"
        lines.append("-" * len(lines[0]))
        lines.append(
            f"verify: {verdict} "
            f"({sum(1 for r in self.results if not r.skipped)} oracle(s) run, "
            f"{len(self.failures)} failed, "
            f"{sum(1 for r in self.results if r.skipped)} skipped)"
        )
        return "\n".join(lines)

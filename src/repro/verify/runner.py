"""The verify runner: executes the three oracle layers and aggregates.

``run_verify`` is what ``python -m repro verify`` calls: it runs every
registered oracle under a telemetry span and returns a
:class:`~repro.verify.report.VerifyReport` ready for
``format_summary()`` / ``write()``.

The golden layer lives here (rather than its own module) because its
oracles are thin: regenerate an artifact with the production pipeline,
then delegate to :class:`~repro.verify.goldens.GoldenStore`.
"""

from __future__ import annotations

import time

from ..errors import ConfigError
from ..obs import TELEMETRY
from .differential import DIFFERENTIAL_ORACLES
from .fuzz import FUZZ_ORACLES
from .goldens import (
    GOLDEN_EXPERIMENTS,
    GoldenStore,
    default_goldens_root,
    frame_digest_text,
)
from .metamorphic import METAMORPHIC_ORACLES, VERIFY_WORKLOAD, _session_capture
from .report import (
    LAYER_GOLDEN,
    OracleResult,
    VerifyConfig,
    VerifyReport,
    oracle,
)

__all__ = ["list_oracles", "run_verify"]

#: Scale the frame-digest golden is pinned at (shared with the quick
#: metamorphic capture so a verify run renders it once).
GOLDEN_FRAME_SCALE = 0.125

#: Cap on the unified diff embedded in a stale golden's details.
_DIFF_LIMIT = 4000


def _golden_store(cfg: VerifyConfig) -> GoldenStore:
    return GoldenStore(cfg.goldens_root or default_goldens_root())


def _golden_result(
    cfg: VerifyConfig,
    name: str,
    kind: str,
    text: str,
    params: "dict[str, object]",
) -> OracleResult:
    """Check-or-update one golden and wrap the outcome as an oracle."""
    store = _golden_store(cfg)
    if cfg.update_goldens:
        changed = store.update(name, text, kind, params)
        return OracleResult(
            name=f"golden_{name}",
            layer=LAYER_GOLDEN,
            passed=True,
            fragments=text.count("\n"),
            details={"mode": "update", "changed": changed},
        )
    check = store.check(name, text, params)
    if check.status == "missing":
        return OracleResult(
            name=f"golden_{name}",
            layer=LAYER_GOLDEN,
            passed=True,
            skipped=True,
            details={
                "status": check.status,
                "hint": "golden not generated yet; "
                "run `python -m repro verify --update-goldens`",
            },
        )
    details: "dict[str, object]" = {"status": check.status, **check.details}
    if check.diff:
        details["diff"] = check.diff[:_DIFF_LIMIT]
    return OracleResult(
        name=f"golden_{name}",
        layer=LAYER_GOLDEN,
        passed=check.ok,
        max_error=0.0 if check.ok else 1.0,
        fragments=text.count("\n"),
        details=details,
    )


@oracle("golden_tables")
def oracle_golden_tables(cfg: VerifyConfig) -> OracleResult:
    """Experiment tables at pinned quick parameters, byte-exact."""
    from ..experiments import REGISTRY
    from ..experiments.runner import ExperimentContext, format_table

    results = []
    for exp_id, params in sorted(GOLDEN_EXPERIMENTS.items()):
        module = REGISTRY[exp_id]
        ctx = ExperimentContext(
            scale=float(params["scale"]),
            frames=int(params["frames"]),
            workloads=tuple(params["workloads"]),
        )
        table = format_table(module.run(ctx))
        results.append(
            _golden_result(cfg, f"table_{exp_id}", "table", table, dict(params))
        )
    # Merge per-experiment outcomes into one oracle row; details keep
    # the per-golden breakdown.
    merged = OracleResult(
        name="golden_tables",
        layer=LAYER_GOLDEN,
        passed=all(r.passed for r in results),
        skipped=all(r.skipped for r in results),
        max_error=max((r.max_error for r in results), default=0.0),
        fragments=sum(r.fragments for r in results),
        details={r.name: r.details for r in results},
    )
    return merged


#: The frame golden's name in the store; its oracle reports as
#: ``golden_`` plus it.
GOLDEN_FRAME = f"frame_{VERIFY_WORKLOAD}_f0"


@oracle(f"golden_{GOLDEN_FRAME}")
def oracle_golden_frame(cfg: VerifyConfig) -> OracleResult:
    """Per-array digests of one rendered frame, byte-exact."""
    _, capture = _session_capture(GOLDEN_FRAME_SCALE)
    text = frame_digest_text(capture)
    params = {
        "workload": VERIFY_WORKLOAD,
        "frame": 0,
        "scale": GOLDEN_FRAME_SCALE,
    }
    return _golden_result(cfg, GOLDEN_FRAME, "frame", text, params)


GOLDEN_ORACLES = (oracle_golden_tables, oracle_golden_frame)

#: Every oracle, in execution order (cheap differential math first,
#: then rendered metamorphic properties, then golden regeneration,
#: then the opt-in fuzz lane over generated scenarios).
ALL_ORACLES = (
    DIFFERENTIAL_ORACLES + METAMORPHIC_ORACLES + GOLDEN_ORACLES + FUZZ_ORACLES
)


def list_oracles() -> "list[tuple[str, str]]":
    """(name, layer) of every registered oracle, in execution order.

    The name is the one the oracle's report row carries.
    """
    out = []
    for fn in ALL_ORACLES:
        layer = fn.__module__.rsplit(".", 1)[-1]
        if layer == "runner":
            layer = LAYER_GOLDEN
        out.append((fn.oracle_name, layer))
    return out


def run_verify(
    *,
    seed: int = 0,
    quick: bool = False,
    only: "str | None" = None,
    goldens_root=None,
    update_goldens: bool = False,
    fuzz: int = 0,
    fuzz_save=None,
) -> VerifyReport:
    """Run the oracle suite and return the aggregated report.

    ``only`` filters oracles by substring match against the oracle's
    name (as ``--list`` prints it and the report carries it) or its
    layer (``--only differential`` runs one layer; ``--only
    diff_cache_lru`` one oracle); a filter that matches none raises
    :class:`~repro.errors.ConfigError` rather than pass with nothing
    checked. ``fuzz`` > 0 arms the fuzz lane with that many generated
    scenarios (``fuzz_save`` persists shrunk failing specs as corpus
    files). An oracle that *raises*, or reports under a name other
    than its own, is recorded as a failure, never aborts the run.
    """
    selected = [
        (fn, name, layer)
        for fn, (name, layer) in zip(ALL_ORACLES, list_oracles())
        if only is None or only in name or only in layer
    ]
    if not selected:
        raise ConfigError(f"--only {only!r} matches no oracle name or layer")
    cfg = VerifyConfig(
        seed=seed,
        quick=quick,
        goldens_root=goldens_root,
        update_goldens=update_goldens,
        fuzz=fuzz,
        fuzz_save=fuzz_save,
    )
    report = VerifyReport(seed=seed, quick=quick)
    for fn, name, layer in selected:
        start = time.perf_counter()
        with TELEMETRY.span("verify.oracle", oracle=name):
            try:
                result = fn(cfg)
            except Exception as exc:  # noqa: BLE001 — report, don't abort
                result = OracleResult(
                    name=name,
                    layer=layer,
                    passed=False,
                    details={"error": f"{type(exc).__name__}: {exc}"},
                )
        if result.name != name:
            result = OracleResult(
                name=name,
                layer=layer,
                passed=False,
                details={"error": f"reported as {result.name!r}"},
            )
        result.duration_s = time.perf_counter() - start
        report.results.append(result)
        if not result.skipped:
            TELEMETRY.count("verify.oracles_run")
            TELEMETRY.count("verify.fragments_checked", result.fragments)
        if not result.passed and not result.skipped:
            TELEMETRY.count("verify.oracles_failed")
        TELEMETRY.progress(
            f"verify: {result.name} [{result.layer}] {result.status} "
            f"({result.duration_s:.2f}s)"
        )
    return report

"""Deterministic fault injection for the simulated PATU pipeline.

The harness models the hardware faults the degradation policy must
survive (see ``docs/resilience.md`` for the full fault model):

* **texel corruption** — filtered colors come back NaN/inf, as if a
  texel fetch returned garbage (``texture/unit.py``);
* **hash-table corruption** — the texel-address hash table feeds the
  predictor out-of-range or non-finite Txds values
  (``core/predictor.py``);
* **count-tag bit flips** — the per-pixel anisotropy degree ``N`` has a
  low bit flipped, producing ``N = 0`` or ``N > 16``
  (``core/patu.py``);
* **dropped fetches** — a texture line request is lost and the line
  buffer re-serves the previous line (``texture/unit.py``).

All injectors are driven by the process-wide :data:`FAULTS` instance,
which mirrors the telemetry no-op pattern: **off by default**, and
every injector's first statement is an ``enabled`` check that returns
the input array *unchanged and unsanitized* (object identity), so
instrumented hot paths cost one attribute load and one branch when
injection is disabled.

Injection is deterministic: each site keeps its own call counter and
derives an independent :class:`numpy.random.Generator` from
``(seed, crc32(site), call_index)``, so the same plan over the same
call sequence corrupts the same elements — failures found in CI
reproduce locally. Reproducibility is defined by call order, so the
engine runs every job on its calling thread while the injector is
armed, whatever ``--jobs`` asks for.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, fields

import numpy as np

from ..errors import FaultInjectionError
from ..obs import TELEMETRY

#: Values a corrupted hash-table entry can turn a Txds into.
_TXDS_GARBAGE = np.asarray([np.nan, np.inf, -np.inf, -1.0, 2.0])
#: Values a corrupted texel can take (non-finite, as DRAM garbage
#: reinterpreted as float typically is).
_TEXEL_GARBAGE = np.asarray([np.nan, np.inf, -np.inf])
#: Bits eligible for a count-tag flip (N fits in 5 bits: 1..16).
_COUNT_TAG_BITS = 5


@dataclass(frozen=True)
class FaultPlan:
    """Per-category injection rates (fraction of elements corrupted)."""

    seed: int = 0
    texel_rate: float = 0.0
    hash_rate: float = 0.0
    count_tag_rate: float = 0.0
    drop_rate: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name == "seed":
                continue
            rate = getattr(self, f.name)
            if not 0.0 <= rate <= 1.0:
                raise FaultInjectionError(
                    f"{f.name} must be in [0, 1], got {rate}"
                )

    @classmethod
    def uniform(cls, rate: float, *, seed: int = 0) -> "FaultPlan":
        """The same rate for every fault category."""
        return cls(
            seed=seed, texel_rate=rate, hash_rate=rate,
            count_tag_rate=rate, drop_rate=rate,
        )

    @property
    def any_faults(self) -> bool:
        return any(
            getattr(self, f.name) > 0.0 for f in fields(self)
            if f.name != "seed"
        )


class FaultInjector:
    """Process-wide seedable injector, armed via :meth:`configure`."""

    def __init__(self) -> None:
        self.enabled = False
        self.plan = FaultPlan()
        self._site_calls: "dict[str, int]" = {}
        self.injected: "dict[str, int]" = {}

    # -- lifecycle ------------------------------------------------------

    def configure(self, plan: FaultPlan) -> None:
        """Arm the injector with ``plan`` (rates of zero stay no-ops)."""
        self.plan = plan
        self.enabled = plan.any_faults
        self._site_calls = {}
        self.injected = {}

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Disarm and forget the plan, call counters and tallies."""
        self.enabled = False
        self.plan = FaultPlan()
        self._site_calls = {}
        self.injected = {}

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    # -- deterministic site-local randomness ----------------------------

    def _rng(self, site: str) -> np.random.Generator:
        call = self._site_calls.get(site, 0)
        self._site_calls[site] = call + 1
        return np.random.default_rng(
            (self.plan.seed, zlib.crc32(site.encode("utf-8")), call)
        )

    def _mask(self, rng: np.random.Generator, size: int, rate: float) -> np.ndarray:
        return rng.random(size) < rate

    def _record(self, site: str, counter: str, count: int) -> None:
        if count:
            self.injected[site] = self.injected.get(site, 0) + count
            TELEMETRY.count(counter, count)

    # -- injectors ------------------------------------------------------

    def corrupt_colors(self, colors: np.ndarray, site: str) -> np.ndarray:
        """Replace a fraction of color components with NaN/inf."""
        if not self.enabled or self.plan.texel_rate <= 0.0:
            return colors
        rng = self._rng(site)
        mask = self._mask(rng, colors.size, self.plan.texel_rate)
        count = int(mask.sum())
        if not count:
            return colors
        out = colors.copy()
        flat = out.reshape(-1)
        flat[mask] = rng.choice(_TEXEL_GARBAGE, size=count)
        self._record(site, "faults.texel_corruptions", count)
        return out

    def corrupt_txds(self, txds: np.ndarray, site: str) -> np.ndarray:
        """Feed the predictor garbage from corrupted hash entries."""
        if not self.enabled or self.plan.hash_rate <= 0.0:
            return txds
        rng = self._rng(site)
        mask = self._mask(rng, txds.size, self.plan.hash_rate)
        count = int(mask.sum())
        if not count:
            return txds
        out = np.asarray(txds, dtype=np.float64).copy()
        flat = out.reshape(-1)
        flat[mask] = rng.choice(_TXDS_GARBAGE, size=count)
        self._record(site, "faults.hash_corruptions", count)
        return out

    def corrupt_n(self, n: np.ndarray, site: str) -> np.ndarray:
        """Flip one low bit of a fraction of anisotropy count tags."""
        if not self.enabled or self.plan.count_tag_rate <= 0.0:
            return n
        rng = self._rng(site)
        mask = self._mask(rng, n.size, self.plan.count_tag_rate)
        count = int(mask.sum())
        if not count:
            return n
        out = np.asarray(n, dtype=np.int64).copy()
        flat = out.reshape(-1)
        bits = rng.integers(0, _COUNT_TAG_BITS, size=count)
        flat[mask] = flat[mask] ^ (np.int64(1) << bits)
        self._record(site, "faults.count_tag_flips", count)
        return out

    def drop_lines(self, lines: np.ndarray, site: str) -> np.ndarray:
        """Drop a fraction of fetches; the previous line is re-served.

        Models a lost line request serviced from the unit's line buffer
        (the last line it fetched) — the stream length is preserved so
        the cache simulation stays aligned with the pixel stream.
        """
        if not self.enabled or self.plan.drop_rate <= 0.0:
            return lines
        rng = self._rng(site)
        mask = self._mask(rng, lines.size, self.plan.drop_rate)
        count = int(mask.sum())
        if not count:
            return lines
        out = np.asarray(lines).copy()
        flat = out.reshape(-1)
        prev = np.roll(flat, 1)
        prev[0] = flat[0]
        flat[mask] = prev[mask]
        self._record(site, "faults.dropped_fetches", count)
        return out


#: The process-wide injector used by all instrumented sites.
FAULTS = FaultInjector()

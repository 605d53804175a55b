"""Render sessions: capture once, evaluate any design point.

The paper's key structural fact — PATU's decisions are pure functions
of per-pixel predictor state (N from texel generation, Txds from texel
address calculation) — lets the reproduction split work in two:

* :meth:`RenderSession.capture_frame` renders a workload frame once and
  captures all per-pixel filtering state and all three color variants;
* :meth:`RenderSession.evaluate` replays a (scenario, threshold) pair
  against a capture: applies the PATU decision logic, reconstructs the
  output image, scores MSSIM against the 16x-AF baseline, simulates
  the texture cache hierarchy on the design point's actual fetch
  stream, and runs the timing/energy models on the event counts.

Threshold sweeps (Fig. 17) therefore cost one render plus cheap
re-evaluations, exactly mirroring the hardware's structure.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import asdict as dataclasses_asdict
from dataclasses import dataclass
from dataclasses import replace as dataclasses_replace

import numpy as np

from ..config import BASELINE_CONFIG, GpuConfig
from ..core.af_ssim import txds_and_sharing_from_csr
from ..core.patu import FilterMode, PatuDecision, PerceptionAwareTextureUnit
from ..core.scenarios import Scenario
from ..errors import PipelineError
from ..memsys.cache import run_starts
from ..memsys.hierarchy import HierarchyStats, TextureMemoryHierarchy
from ..memsys.traffic import BandwidthBreakdown, frame_breakdown
from ..obs import TELEMETRY
from ..power.components import EnergyParams
from ..power.energy import EnergyBreakdown, EnergyModel, FrameEvents
from ..quality.ssim import SsimReference
from ..quality.ssim import mssim as mssim_fn
from ..raster.quads import QuadGroups, quad_ids
from ..resilience.guards import sanitize_colors
from ..texture.addressing import TextureLayout
from ..texture.mipmap import MipChain
from ..texture.unit import TEXELS_PER_TRILINEAR, TextureUnit
from ..timing.gpu_timing import FrameTiming, FrameWorkload, GpuTimingModel
from ..timing.params import TimingParams
from ..timing.texpipe import TexturePipelineModel, TextureTiming
from ..geometry.tiling import tile_pixel_order
from ..workloads.scene import Workload
from .pipeline import RenderedFrame, render_gbuffer

_LUMA = np.asarray([0.299, 0.587, 0.114], dtype=np.float64)


@dataclass
class FrameCapture:
    """Everything captured from rendering one frame once (see module doc).

    The array fields, in declaration order, are the members of the
    on-disk archive (:data:`repro.renderer.serialization.ARRAY_FIELDS`):
    reordering them changes the bytes of every stored entry.
    """

    workload_name: str
    frame_index: int
    width: int
    height: int
    tile_size: int
    # Visible pixels, in tile scheduling order.
    rows: np.ndarray
    cols: np.ndarray
    tile_ids: np.ndarray
    # Per-pixel filtering state.
    tex_ids: np.ndarray  # frame-local texture binding index per pixel
    n: np.ndarray
    lod_tf: np.ndarray
    lod_af: np.ndarray
    txds: np.ndarray
    share_fraction: np.ndarray
    af_color: np.ndarray
    tf_color: np.ndarray
    tfa_color: np.ndarray
    # CSR AF-sample data (row_ptr over pixels).
    sample_row_ptr: np.ndarray
    sample_keys: np.ndarray
    af_lines: np.ndarray  # 8 lines per sample, CSR rows x8
    tf_lines: np.ndarray  # (pixels, 8)
    tfa_lines: np.ndarray  # (pixels, 8)
    # Frame-level workload counts and the reference image.
    workload: FrameWorkload
    baseline_luminance: np.ndarray
    clear_luminance: float

    #: What every evaluation of this capture reuses (:class:`_Derived`),
    #: built by the first one. A plain attribute, not a field: it lives
    #: only in memory and is no part of the capture's identity.
    _derived = None

    @property
    def num_pixels(self) -> int:
        return self.rows.shape[0]

    @property
    def mean_anisotropy(self) -> float:
        return float(self.n.mean()) if self.n.size else 0.0

    def colors(self, mode: np.ndarray) -> np.ndarray:
        """Each pixel's color variant under its :class:`FilterMode`."""
        colors = self.af_color.copy()
        tf_mask = mode == FilterMode.TF_TF_LOD
        tfa_mask = mode == FilterMode.TF_AF_LOD
        colors[tf_mask] = self.tf_color[tf_mask]
        colors[tfa_mask] = self.tfa_color[tfa_mask]
        return colors

    def luminance_image(self, colors: np.ndarray) -> np.ndarray:
        """Compose a full-frame luminance image from per-pixel colors."""
        img = np.full((self.height, self.width), self.clear_luminance,
                      dtype=np.float64)
        img[self.rows, self.cols] = colors[:, :3].astype(np.float64) @ _LUMA
        return img


@dataclass
class FrameResult:
    """One (capture, scenario, threshold) evaluation."""

    workload_name: str
    frame_index: int
    scenario: Scenario
    threshold: float
    mssim: float
    approximation_rate: float
    quad_divergence: float
    frame_timing: FrameTiming
    texture_timing: TextureTiming
    request_latency: float
    hierarchy: HierarchyStats
    bandwidth: BandwidthBreakdown
    energy: EnergyBreakdown
    events: FrameEvents
    fps: float
    #: Pixels whose predictor state was corrupted and fell back to
    #: exact AF, plus a capture is never allowed to carry NaN colors —
    #: see docs/resilience.md for the degradation policy.
    degraded_pixels: int = 0
    luminance: "np.ndarray | None" = None

    @property
    def frame_cycles(self) -> float:
        return self.frame_timing.total_cycles

    @property
    def total_energy_nj(self) -> float:
        return self.energy.total_nj

    def to_dict(self) -> "dict[str, object]":
        """JSON-ready summary of this evaluation (no image payload).

        This is the per-frame record the metrics JSONL sink consumes;
        external tooling should prefer it over reaching into the
        nested dataclasses.
        """
        return {
            "workload": self.workload_name,
            "frame": self.frame_index,
            "scenario": self.scenario.name,
            "threshold": self.threshold,
            "mssim": self.mssim,
            "approximation_rate": self.approximation_rate,
            "quad_divergence": self.quad_divergence,
            "degraded_pixels": self.degraded_pixels,
            "frame_cycles": self.frame_cycles,
            "fps": self.fps,
            "request_latency": self.request_latency,
            "total_energy_nj": self.total_energy_nj,
            "frame_timing": dataclasses_asdict(self.frame_timing),
            "texture_timing": dataclasses_asdict(self.texture_timing),
            "hierarchy": self.hierarchy.to_dict(),
            "bandwidth": {
                **self.bandwidth.as_dict(),
                "total": self.bandwidth.total_bytes,
            },
            "energy": {
                **dataclasses_asdict(self.energy),
                "total_nj": self.energy.total_nj,
            },
            "events": dataclasses_asdict(self.events),
        }


class RenderSession:
    """Renders workloads and evaluates PATU design points against them."""

    def __init__(
        self,
        config: GpuConfig = BASELINE_CONFIG,
        *,
        scale: float = 0.25,
        scale_caches: bool = True,
        compressed_textures: bool = False,
    ) -> None:
        if scale_caches and scale < 1.0:
            # Shrink the L2 in proportion to the rendered pixel count so
            # the capacity-to-frame-working-set ratio matches the nominal
            # resolution (the divisor is rounded to a power of two to
            # keep the set count a power of two). The L1 is left at full
            # size: it captures intra-tile footprint locality, whose
            # structure is resolution-independent.
            divisor = 1 << max(round(np.log2(1.0 / (scale * scale))), 0)
            config = dataclasses_replace(
                config,
                texture_l2=config.texture_l2.scaled_down(divisor),
            )
        self.config = config
        self.scale = scale
        #: Sample lossily-compressed textures through block-compressed
        #: addressing (see repro.texture.compression).
        self.compressed_textures = compressed_textures
        self.timing_params = TimingParams()
        self._texpipe = TexturePipelineModel(config, self.timing_params)
        self._gpu_timing = GpuTimingModel(config, self.timing_params)
        self._energy_model = EnergyModel(config, EnergyParams())
        #: ``id(scene)`` -> (weak reference to the scene, its layout,
        #: texture name -> chain index).
        self._layouts: "dict[int, tuple[weakref.ref, TextureLayout, dict[str, int]]]" = {}
        # Captures of one scene may render on several threads at once
        # (``--jobs N``); the first builds the layout, the rest wait.
        self._layouts_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------

    def _scene_layout(
        self, workload: Workload
    ) -> "tuple[TextureLayout, dict[str, int]]":
        """The mip chains of ``workload``'s scene, built once per session.

        The chains live as long as the session, so an experiment
        context builds each scene's chains once, and the next context
        builds them again. The build is traced as a
        ``capture.texture_layout`` span.
        """
        scene = workload.scene
        key = id(scene)
        with self._layouts_lock:
            cached = self._layouts.get(key)
            # An id names an object only while it lives: a scene freed
            # since (an evicted fuzz workload, say) hands its id on to
            # the next one allocated there, so an entry serves only the
            # scene object it was built from.
            if cached is None or cached[0]() is not scene:
                names = sorted(scene.textures)
                with TELEMETRY.span(
                    "capture.texture_layout",
                    game=workload.scene_builder.game,
                    textures=len(names),
                ):
                    chains = [MipChain(scene.textures[name]) for name in names]
                    if self.compressed_textures:
                        from ..texture.compression import (
                            CompressedTextureLayout,
                            compress_chain,
                        )

                        chains = [compress_chain(c) for c in chains]
                        layout = CompressedTextureLayout(chains)
                    else:
                        layout = TextureLayout(chains)
                cached = (
                    weakref.ref(scene),
                    layout,
                    {name: i for i, name in enumerate(names)},
                )
                self._layouts[key] = cached
        return cached[1], cached[2]

    def capture_frame(self, workload: Workload, frame_index: int) -> FrameCapture:
        """Render one frame and capture all per-pixel filtering state."""
        TELEMETRY.count("session.capture_frames")
        with TELEMETRY.span(
            "session.capture_frame", workload=workload.name, frame=frame_index
        ):
            capture = self._capture_frame_impl(workload, frame_index)
        TELEMETRY.progress(
            f"captured {workload.name} frame {frame_index}: "
            f"{capture.num_pixels} px, mean N {capture.mean_anisotropy:.2f}"
        )
        return capture

    def _capture_frame_impl(
        self, workload: Workload, frame_index: int
    ) -> FrameCapture:
        rendered = self.render_frame(workload, frame_index)
        # Tile scheduling order: iterate the surviving tiles (row-major
        # tiles, raster order inside) instead of sorting a full-frame
        # pixel scan.
        rows, cols, tile_ids = tile_pixel_order(
            rendered.gbuffer.coverage_mask, self.config.tile_size
        )
        if rows.size == 0:
            raise PipelineError(
                f"frame {frame_index} of {workload.name} produced no fragments"
            )
        part = self.filter_pixels(workload, rendered, rows, cols, tile_ids)
        return self.assemble_capture(workload, frame_index, rendered, part)

    def render_frame(self, workload: Workload, frame_index: int) -> RenderedFrame:
        """Render one frame's G-buffer (phase 1 of a capture)."""
        width, height = workload.scaled_size(self.scale)
        camera = workload.camera(frame_index)
        with TELEMETRY.span("capture.gbuffer"):
            return render_gbuffer(
                workload.scene, camera, width, height,
                tile_size=self.config.tile_size,
            )

    def filter_pixels(
        self,
        workload: Workload,
        rendered: RenderedFrame,
        rows: np.ndarray,
        cols: np.ndarray,
        tile_ids: np.ndarray,
    ) -> "dict[str, np.ndarray]":
        """Texture-filter the tile-ordered visible pixels (phase 2 of a capture).

        Returns the capture's arrays keyed by :class:`FrameCapture`
        field name: every array field but ``baseline_luminance``.
        """
        gb = rendered.gbuffer
        width = gb.width
        layout, name_to_chain = self._scene_layout(workload)
        unit = TextureUnit(layout, max_aniso=self.config.texture_unit.max_anisotropy)

        npx = rows.shape[0]
        tex_of_pixel = gb.tex_id[rows, cols]

        # Hardware computes texture-coordinate derivatives per 2x2 quad
        # (intra-quad finite differences), so all pixels of a quad share
        # one footprint. Average the analytic per-pixel derivatives over
        # each (quad, texture) group to model that; this is what makes
        # PATU's predictor state quad-coherent (Section V-C reports only
        # ~1% of quads diverge).
        quad_group = _group_index(
            quad_ids(rows, cols, width).astype(np.int64), tex_of_pixel.astype(np.int64)
        )
        if TELEMETRY.enabled:
            TELEMETRY.count("capture.visible_pixels", npx)
            TELEMETRY.count(
                "raster.quads_emitted",
                int(quad_group.max()) + 1 if quad_group.size else 0,
            )
        # One stable sort by texture: each texture's pixels form one
        # contiguous run, in the same (ascending pixel) order a
        # per-texture mask would select them.
        order = np.argsort(tex_of_pixel, kind="stable")
        sorted_tex = tex_of_pixel[order]
        bounds = np.flatnonzero(sorted_tex[1:] != sorted_tex[:-1]) + 1
        bounds = np.concatenate([[0], bounds, [npx]])
        sorted_rows = rows[order]
        sorted_cols = cols[order]
        u = gb.u[sorted_rows, sorted_cols].astype(np.float64)
        v = gb.v[sorted_rows, sorted_cols].astype(np.float64)
        deriv = []
        for field_name in ("dudx", "dvdx", "dudy", "dvdy"):
            values = getattr(gb, field_name)[rows, cols].astype(np.float64)
            deriv.append(_group_mean(values, quad_group)[order])
        n = np.empty(npx, dtype=np.int64)
        lod_tf = np.empty(npx, dtype=np.float64)
        lod_af = np.empty(npx, dtype=np.float64)
        af_color = np.empty((npx, 4), dtype=np.float32)
        tf_color = np.empty((npx, 4), dtype=np.float32)
        tfa_color = np.empty((npx, 4), dtype=np.float32)
        tf_lines = np.empty((npx, TEXELS_PER_TRILINEAR), dtype=np.int64)
        tfa_lines = np.empty((npx, TEXELS_PER_TRILINEAR), dtype=np.int64)

        samples = []
        with TELEMETRY.span("capture.texture_filtering"):
            for start, stop in zip(bounds[:-1], bounds[1:]):
                run = slice(start, stop)
                chain_index = name_to_chain[
                    rendered.texture_names[int(sorted_tex[start])]
                ]
                batch = unit.filter_batch(
                    chain_index, u[run], v[run], *(d[run] for d in deriv)
                )
                pixel_idx = order[run]
                n[pixel_idx] = batch.n
                lod_tf[pixel_idx] = batch.lod_tf
                lod_af[pixel_idx] = batch.lod_af
                _scatter_rows(af_color, pixel_idx, batch.af_color)
                _scatter_rows(tf_color, pixel_idx, batch.tf_color)
                _scatter_rows(tfa_color, pixel_idx, batch.tf_af_lod_color)
                _scatter_rows(tf_lines, pixel_idx, batch.tf_lines)
                _scatter_rows(tfa_lines, pixel_idx, batch.tf_af_lod_lines)
                samples.append((batch.sample_keys, batch.af_lines))

        # Degradation guard: corrupted texels are clamped to a safe
        # value here, so no NaN/inf ever reaches the reference image,
        # the quality model, or a FrameResult.
        af_color = sanitize_colors(af_color)
        tf_color = sanitize_colors(tf_color)
        tfa_color = sanitize_colors(tfa_color)

        with TELEMETRY.span("capture.csr_merge"):
            # Frame-level CSR over AF samples, merged from per-texture
            # batches: the batches hold the samples of the pixels in
            # texture-sorted order, and ``dst`` is where each lands.
            row_ptr = np.zeros(npx + 1, dtype=np.int64)
            np.cumsum(n, out=row_ptr[1:])
            total_samples = int(row_ptr[-1])
            sample_keys = np.empty(total_samples, dtype=np.int64)
            af_lines = np.empty(
                (total_samples, TEXELS_PER_TRILINEAR), dtype=np.int64
            )
            dst = _expand_ranges(row_ptr[order], n[order])
            offset = 0
            for keys, lines in samples:
                part = dst[offset:offset + keys.size]
                sample_keys[part] = keys
                _scatter_rows(
                    af_lines, part, lines.reshape(-1, TEXELS_PER_TRILINEAR)
                )
                offset += keys.size
            af_lines = af_lines.reshape(-1)

            # The per-pixel Txds still carries sub-texel alignment noise from
            # each pixel's own (u, v); the quad's pipelines process the quad
            # as one SIMD unit, so smooth the statistic over the quad too.
            txds, share = txds_and_sharing_from_csr(sample_keys, row_ptr)
            txds = _group_mean(txds, quad_group)

        return {
            "rows": rows,
            "cols": cols,
            "tile_ids": tile_ids,
            "tex_ids": tex_of_pixel.astype(np.int16),
            "n": n,
            "lod_tf": lod_tf,
            "lod_af": lod_af,
            "txds": txds,
            "share_fraction": share,
            "af_color": af_color,
            "tf_color": tf_color,
            "tfa_color": tfa_color,
            "sample_row_ptr": row_ptr,
            "sample_keys": sample_keys,
            "af_lines": af_lines,
            "tf_lines": tf_lines,
            "tfa_lines": tfa_lines,
        }

    def assemble_capture(
        self,
        workload: Workload,
        frame_index: int,
        rendered: RenderedFrame,
        part: "dict[str, np.ndarray]",
    ) -> FrameCapture:
        """Wrap the filtered pixels into a FrameCapture (phase 3)."""
        width, height = workload.scaled_size(self.scale)
        npx = part["n"].shape[0]
        workload_counts = FrameWorkload(
            vertices=rendered.vertices,
            triangles=rendered.triangles_after_cull,
            tile_triangle_pairs=rendered.tile_triangle_pairs,
            fragments_generated=rendered.raster_stats.fragments_generated,
            fragments_shaded=npx,
        )
        clear_lum = float(np.asarray(workload.scene.clear_color[:3]) @ _LUMA)
        capture = FrameCapture(
            workload_name=workload.name,
            frame_index=frame_index,
            width=width,
            height=height,
            tile_size=self.config.tile_size,
            workload=workload_counts,
            baseline_luminance=np.empty(0),
            clear_luminance=clear_lum,
            **part,
        )
        capture.baseline_luminance = capture.luminance_image(capture.af_color)
        return capture

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(
        self,
        capture: FrameCapture,
        scenario: Scenario,
        threshold: float,
        *,
        stage2_threshold: "float | None" = None,
        hash_entries: int = 16,
        store_image: bool = False,
    ) -> FrameResult:
        """Score one design point against a captured frame.

        ``stage2_threshold`` and ``hash_entries`` expose the ablation
        knobs of :class:`PerceptionAwareTextureUnit` (split thresholds,
        shrunken texel-address table).
        """
        patu = PerceptionAwareTextureUnit(
            scenario, threshold,
            stage2_threshold=stage2_threshold, hash_entries=hash_entries,
        )
        decision = patu.decide(capture.n, capture.txds)
        return self._evaluate_decision(
            capture, decision, scenario, threshold, store_image
        )

    def evaluate_software(
        self,
        capture: FrameCapture,
        threshold: float,
        *,
        store_image: bool = False,
    ) -> FrameResult:
        """Score the Section III software alternative (per-draw-call AF).

        See :mod:`repro.core.software` for the decision semantics.
        """
        from ..core.software import SOFTWARE, software_decision

        decision = software_decision(capture.tex_ids, capture.n, threshold)
        return self._evaluate_decision(
            capture, decision, SOFTWARE, threshold, store_image
        )

    def _evaluate_decision(
        self,
        capture: FrameCapture,
        decision: PatuDecision,
        scenario: Scenario,
        threshold: float,
        store_image: bool,
    ) -> FrameResult:
        with TELEMETRY.span(
            "session.evaluate",
            workload=capture.workload_name,
            frame=capture.frame_index,
            scenario=scenario.name,
            threshold=threshold,
        ):
            derived = _derived(capture)
            with TELEMETRY.span("evaluate.reconstruct"):
                colors = capture.colors(decision.mode)
                # Belt-and-braces: captures are sanitized at creation,
                # but a deserialized or hand-built capture must not be
                # able to push NaN into the quality model either.
                colors = sanitize_colors(colors)

            with TELEMETRY.span("evaluate.mssim"):
                if scenario.name == "baseline":
                    quality = 1.0
                    lum = capture.baseline_luminance
                else:
                    lum = capture.luminance_image(colors)
                    quality = mssim_fn(derived.reference, lum)
                if not np.isfinite(quality):
                    # Score a fully-degraded frame as zero quality
                    # rather than propagating NaN into results.
                    TELEMETRY.count("resilience.mssim_fallbacks")
                    quality = 0.0

            with TELEMETRY.span("evaluate.fetch_stream"):
                lines, lengths, repeats = self._fetch_stream(capture, decision.mode)
            hier = self._simulate_hierarchy(capture, lines, lengths, repeats)

            events = self._frame_events(capture, decision, scenario, hier)
            tex_timing, frame_timing, req_latency = self._frame_timing(
                capture, decision, scenario, hier
            )

            bandwidth = frame_breakdown(
                texture_dram_bytes=hier.dram_bytes,
                visible_pixels=capture.num_pixels,
                fragments_generated=capture.workload.fragments_generated,
                fragments_passed=capture.num_pixels,
                vertices=capture.workload.vertices,
            )
            with TELEMETRY.span("evaluate.energy"):
                energy = self._energy_model.frame_energy(
                    events, frame_timing.total_cycles
                )

            divergence = derived.quads.divergence(
                decision.prediction.approximated
            )
            result = FrameResult(
                workload_name=capture.workload_name,
                frame_index=capture.frame_index,
                scenario=scenario,
                threshold=threshold,
                mssim=quality,
                approximation_rate=decision.approximation_rate,
                quad_divergence=divergence,
                frame_timing=frame_timing,
                texture_timing=tex_timing,
                request_latency=req_latency,
                hierarchy=hier,
                bandwidth=bandwidth,
                energy=energy,
                events=events,
                fps=self._gpu_timing.fps(frame_timing),
                degraded_pixels=decision.prediction.degraded_count,
                luminance=lum if store_image else None,
            )
        if TELEMETRY.enabled:
            TELEMETRY.observe("session.mssim", result.mssim)
            TELEMETRY.observe("session.frame_cycles", result.frame_cycles)
            # Perceptual observability: the distributions behind the
            # scalar result — per-pixel anisotropy (the paper's N), the
            # LOD shift approximated pixels suffer, and the fraction
            # approximated — feed the ledger's quality rollup.
            TELEMETRY.observe_many("quality.aniso_n", capture.n)
            approximated = decision.prediction.approximated
            TELEMETRY.observe_many(
                "quality.lod_shift",
                np.abs(capture.lod_af - capture.lod_tf)[approximated],
            )
            TELEMETRY.observe(
                "quality.approximation_rate", result.approximation_rate
            )
            TELEMETRY.frame_record(result.to_dict(), patu=decision.to_dict())
        TELEMETRY.progress(
            f"evaluated {capture.workload_name} frame {capture.frame_index} "
            f"[{scenario.name} @ {threshold:g}]: MSSIM {result.mssim:.3f}, "
            f"approx {result.approximation_rate:.1%}"
        )
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _fetch_stream(
        self, capture: FrameCapture, mode: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray, int]":
        """A design point's fetch stream, given each pixel's filter mode.

        Returns :meth:`FetchSegments.stream` of the capture's segments
        for this session's L1 set count.
        """
        l1_sets = self.config.texture_l1.num_sets
        return _derived(capture).segments(capture, l1_sets).stream(mode)

    def _simulate_hierarchy(
        self,
        capture: FrameCapture,
        lines: np.ndarray,
        lengths: np.ndarray,
        repeats: int = 0,
    ) -> HierarchyStats:
        """Run the design point's fetch stream through the caches.

        ``lengths`` are the per-pixel lengths of ``lines``; ``repeats``
        counts the accesses removed from it as repeats of the previous
        line of their L1 set in the same pixel segment.
        """
        with TELEMETRY.span("session.simulate_hierarchy", lines=int(lines.size)):
            tile_units, tile_lengths = self._tile_schedule(capture, lengths)
            hierarchy = TextureMemoryHierarchy(self.config)
            return hierarchy.process_frame(
                lines, tile_units, tile_lengths, repeats=repeats
            )

    def _tile_schedule(
        self, capture: FrameCapture, lengths: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Each tile's texture unit and fetch-stream length, in tile order.

        ``lengths`` are the per-pixel lengths of a fetch stream in pixel
        order; tiles go round-robin over the units.
        """
        boundaries = np.nonzero(np.diff(capture.tile_ids))[0] + 1
        starts = np.concatenate([[0], boundaries])
        tile_units = capture.tile_ids[starts] % self.config.num_texture_units
        return tile_units, np.add.reduceat(lengths, starts)

    def _frame_events(
        self,
        capture: FrameCapture,
        decision: PatuDecision,
        scenario: Scenario,
        hier: HierarchyStats,
    ) -> FrameEvents:
        checks = capture.num_pixels if scenario.use_stage1 else 0
        return FrameEvents(
            trilinear_samples=decision.total_trilinear,
            address_samples=decision.total_address_work,
            l1_accesses=hier.l1.accesses,
            l2_accesses=hier.l2.accesses,
            dram_lines=hier.dram.lines_fetched,
            shader_ops=int(
                capture.workload.fragments_shaded * self.timing_params.frag_alu_ops
            ),
            vertices=capture.workload.vertices,
            hash_insertions=decision.total_hash_insertions,
            patu_checks=checks,
        )

    def _frame_timing(
        self,
        capture: FrameCapture,
        decision: PatuDecision,
        scenario: Scenario,
        hier: HierarchyStats,
    ) -> "tuple[TextureTiming, FrameTiming, float]":
        with TELEMETRY.span("session.frame_timing"):
            hierarchy = TextureMemoryHierarchy(self.config)
            dram_latency = hierarchy.dram_average_latency(hier)
            dram_cycles = hierarchy.dram_transfer_cycles(hier)
            checks = capture.num_pixels if scenario.use_stage1 else 0
            tex_timing = self._texpipe.frame_timing(
                trilinear_samples=decision.total_trilinear,
                address_samples=decision.total_address_work,
                checked_pixels=checks,
                hier=hier,
                dram_transfer_cycles=dram_cycles,
                dram_latency=dram_latency,
            )
            frame_timing = self._gpu_timing.frame_timing(
                capture.workload, tex_timing
            )
            req_latency = self._texpipe.request_latency(
                tex_timing,
                num_requests=capture.num_pixels,
                trilinear_samples=decision.total_trilinear,
                hier=hier,
                dram_latency=dram_latency,
            )
            return tex_timing, frame_timing, req_latency


class FetchSegments:
    """Each pixel's fetch segment in every filter mode, MRU repeats removed.

    A pixel's segment is its AF samples' lines (``n`` x 8) or its 8 TF
    or TFA lines, all fetched through its tile's unit's L1. Within an
    AF segment, a line whose previous access to the same L1 set was the
    same line hits that set's MRU line and leaves the LRU state
    unchanged (:func:`~repro.memsys.cache.run_starts` with the L1's
    ``l1_sets``); within a TF or TFA segment only repeats of the
    previous line are dropped (the set rule would drop just 2-6% more
    of their lines). Each is removed here once per capture and counted
    back as an L1 hit. Cell ``[i, m]`` of ``starts``, ``lengths`` and
    ``removed`` locates pixel ``i``'s kept segment for
    :class:`FilterMode` ``m`` in ``lines`` and counts the lines removed
    from it.
    """

    def __init__(self, capture: FrameCapture, l1_sets: int) -> None:
        trilinear = np.arange(capture.num_pixels + 1) * TEXELS_PER_TRILINEAR
        # Per FilterMode value: the full lines, their segment bounds and
        # the set count that decides a repeat.
        full = (
            (capture.af_lines, capture.sample_row_ptr * TEXELS_PER_TRILINEAR,
             l1_sets),
            (capture.tf_lines.ravel(), trilinear, 1),
            (capture.tfa_lines.ravel(), trilinear, 1),
        )
        kept, bounds = [], []
        for lines, segment_bounds, sets in full:
            keep = run_starts(lines, segment_bounds, sets)
            offset = sum(part.size for part in kept)
            bounds.append(np.searchsorted(keep, segment_bounds) + offset)
            kept.append(lines[keep])
        lines = np.concatenate(kept)
        # int32 lines take half the memory, and the hierarchy sorts
        # them faster than int64.
        fits = lines.size == 0 or lines.max() <= np.iinfo(np.int32).max
        self.lines = lines.astype(np.int32) if fits else lines
        self.starts = np.stack([b[:-1] for b in bounds], axis=1)
        self.lengths = np.stack([np.diff(b) for b in bounds], axis=1)
        self.removed = (
            np.stack([np.diff(b) for _, b, _ in full], axis=1) - self.lengths
        )

    def stream(self, mode: np.ndarray) -> "tuple[np.ndarray, np.ndarray, int]":
        """One design point's fetch stream, given each pixel's mode.

        Returns the kept lines in pixel order, each pixel's kept
        length, and the number of repeats removed from the full stream.
        """
        modes = self.lengths.shape[1]
        cells = np.arange(0, modes * mode.size, modes)
        cells += mode
        lengths = self.lengths.take(cells)
        lines = self.lines[_expand_ranges(self.starts.take(cells), lengths)]
        return lines, lengths, int(self.removed.take(cells).sum())


class _Derived:
    """Per-capture state that every evaluation of the capture reuses.

    It holds no reference to its capture, which holds it: the cycle
    would keep a dropped capture alive until the cyclic collector ran.
    """

    def __init__(self, capture: FrameCapture) -> None:
        #: Filters its window statistics inside the first MSSIM call.
        self.reference = SsimReference(capture.baseline_luminance)
        self.quads = QuadGroups(capture.rows, capture.cols, capture.width)
        # Serializes this capture's builds only: threads deriving two
        # captures at once (``--jobs N``) do not wait on each other.
        self._lock = threading.Lock()
        self._segments: "dict[int, FetchSegments]" = {}

    def segments(self, capture: FrameCapture, l1_sets: int) -> FetchSegments:
        """The capture's fetch segments for an L1 of ``l1_sets`` sets."""
        segments = self._segments.get(l1_sets)
        if segments is None:
            with self._lock:
                segments = self._segments.get(l1_sets)
                if segments is None:
                    with TELEMETRY.span(
                        "evaluate.derive_segments", l1_sets=l1_sets
                    ):
                        segments = FetchSegments(capture, l1_sets)
                    self._segments[l1_sets] = segments
        return segments


def _derived(capture: FrameCapture) -> _Derived:
    """The capture's :class:`_Derived`; racing first calls share one."""
    derived = capture._derived
    if derived is None:
        # One atomic dict operation: the first thread's object wins.
        derived = vars(capture).setdefault("_derived", _Derived(capture))
    return derived


def _group_index(primary: np.ndarray, secondary: np.ndarray) -> np.ndarray:
    """Dense group index for (primary, secondary) key pairs."""
    combined = primary * (int(secondary.max()) + 1 if secondary.size else 1) + secondary
    _, inverse = np.unique(combined, return_inverse=True)
    return inverse


def _group_mean(values: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Replace each value by the mean of its group."""
    sums = np.bincount(group, weights=values)
    counts = np.bincount(group)
    return (sums / counts)[group]


def _scatter_rows(out: np.ndarray, index: np.ndarray, rows: np.ndarray) -> None:
    """``out[index] = rows`` for 2-D arrays, each row moved as one item.

    Both arrays are viewed as 1-D arrays of row-sized void items, so the
    fancy index makes one copy per row instead of one per element, with
    the same bytes. The views share the arrays' memory. An array that is
    not C-contiguous 2-D would need a copy, in which writes are lost, so
    it raises; so do rows of another dtype or width, which raw items
    would move unconverted.
    """
    for array in (out, rows):
        if array.ndim != 2 or not array.flags.c_contiguous:
            raise PipelineError(
                f"row scatter needs C-contiguous 2-D arrays, got shape "
                f"{array.shape} with strides {array.strides}"
            )
    if rows.dtype != out.dtype or rows.shape[1] != out.shape[1]:
        raise PipelineError(
            f"row scatter of {rows.dtype} rows of {rows.shape[1]} into "
            f"{out.dtype} rows of {out.shape[1]}"
        )
    item = np.dtype((np.void, out.shape[1] * out.itemsize))
    out.view(item)[:, 0][index] = rows.view(item)[:, 0]


def _expand_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices covering ``[starts[i], starts[i]+lengths[i])`` concatenated.

    The standard vectorized "ragged ranges" construction: a global
    arange, shifted per segment so each segment restarts at its start.
    The indices are int32 when they fit, else int64.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    seg_ends = np.cumsum(lengths)
    total = int(seg_ends[-1]) if seg_ends.size else 0
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # int32 indices when every index and offset fits: half the memory
    # of the stream-sized temporaries, and gathers as fast.
    largest = max(total, int((starts + lengths).max()))
    index = np.int32 if largest <= np.iinfo(np.int32).max else np.int64
    shift = np.repeat((starts - (seg_ends - lengths)).astype(index), lengths)
    return np.add(shift, np.arange(total, dtype=index), out=shift)

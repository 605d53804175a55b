"""Tests for the energy, DRAM-power and area models."""

import pytest

from repro.config import GpuConfig
from repro.errors import PipelineError, ReproError
from repro.power.area import PatuAreaModel
from repro.power.components import EnergyParams
from repro.power.energy import EnergyModel, FrameEvents


def _events(**overrides):
    base = dict(
        trilinear_samples=10_000,
        address_samples=10_000,
        l1_accesses=80_000,
        l2_accesses=8_000,
        dram_lines=1_000,
        shader_ops=100_000,
        vertices=500,
        hash_insertions=0,
        patu_checks=0,
    )
    base.update(overrides)
    return FrameEvents(**base)


class TestEnergyModel:
    def test_energy_is_linear_in_events(self):
        model = EnergyModel(GpuConfig())
        one = model.frame_energy(_events(dram_lines=1000), 100_000)
        two = model.frame_energy(_events(dram_lines=2000), 100_000)
        assert (two.dram_nj - one.dram_nj) == pytest.approx(
            1000 * model.params.dram_line_nj
        )

    def test_background_scales_with_time(self):
        model = EnergyModel(GpuConfig())
        short = model.frame_energy(_events(), 100_000)
        long = model.frame_energy(_events(), 200_000)
        assert long.background_nj == pytest.approx(2 * short.background_nj)
        assert long.dynamic_nj == pytest.approx(short.dynamic_nj)

    def test_patu_events_priced(self):
        model = EnergyModel(GpuConfig())
        without = model.frame_energy(_events(), 100_000)
        with_patu = model.frame_energy(
            _events(hash_insertions=5000, patu_checks=2000), 100_000
        )
        assert with_patu.patu_nj > without.patu_nj
        expected = (
            5000 * model.params.hash_insert_nj + 2000 * model.params.patu_check_nj
        )
        assert with_patu.patu_nj == pytest.approx(expected)

    def test_average_power(self):
        model = EnergyModel(GpuConfig())
        bd = model.frame_energy(_events(), 1_000_000)
        # 1e6 cycles at 1 GHz = 1 ms.
        watts = bd.average_power_w(1_000_000, 1e9)
        assert watts == pytest.approx(bd.total_nj * 1e-9 / 1e-3)

    def test_rejects_nonpositive_cycles(self):
        model = EnergyModel(GpuConfig())
        with pytest.raises(PipelineError):
            model.frame_energy(_events(), 0)

    def test_rejects_negative_events(self):
        with pytest.raises(PipelineError):
            _events(dram_lines=-1)


class TestAreaModel:
    def test_paper_storage_per_unit(self):
        report = PatuAreaModel(GpuConfig()).report()
        # 4 tables x 16 entries x 260 bits ~= 2 KB (Section V-D).
        assert report.storage_kb_per_unit == pytest.approx(2.03, abs=0.01)

    def test_paper_area_per_cluster(self):
        report = PatuAreaModel(GpuConfig()).report()
        assert report.mm2_per_cluster == pytest.approx(0.15, abs=0.01)

    def test_overhead_is_small_fraction_of_gpu(self):
        report = PatuAreaModel(GpuConfig()).report()
        assert report.gpu_fraction < 0.01

    def test_area_scales_with_entries(self):
        small = PatuAreaModel(GpuConfig(), entries=8).report()
        large = PatuAreaModel(GpuConfig(), entries=16).report()
        assert large.sram_mm2_per_cluster == pytest.approx(
            2 * small.sram_mm2_per_cluster
        )

    def test_rejects_zero_entries(self):
        with pytest.raises(ReproError):
            PatuAreaModel(GpuConfig(), entries=0)


class TestEnergyParamsRatios:
    def test_event_cost_ordering_is_physical(self):
        p = EnergyParams()
        # DRAM >> L2 > L1 > filtering op > addressing > shader op.
        assert p.dram_line_nj > p.l2_access_nj > p.l1_access_nj
        assert p.trilinear_filter_nj > p.address_sample_nj > p.shader_op_nj
        assert p.hash_insert_nj < p.l1_access_nj  # PATU overhead is tiny

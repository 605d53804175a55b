"""Tests for PGM/PPM/PNG image I/O."""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.quality.imageio import write_pgm, write_png, write_ppm
from repro.verify.readers import read_png, read_pnm


class TestRoundTrip:
    def test_pgm_round_trip(self, tmp_path, rng):
        img = rng.random((16, 24))
        path = write_pgm(tmp_path / "x.pgm", img)
        back = read_pnm(path)
        assert back.shape == (16, 24)
        assert np.abs(back - img).max() <= 1.0 / 255.0

    def test_ppm_round_trip(self, tmp_path, rng):
        img = rng.random((8, 12, 3))
        path = write_ppm(tmp_path / "x.ppm", img)
        back = read_pnm(path)
        assert back.shape == (8, 12, 3)
        assert np.abs(back - img).max() <= 1.0 / 255.0

    def test_ppm_drops_alpha(self, tmp_path):
        img = np.zeros((4, 4, 4))
        img[..., 3] = 1.0
        path = write_ppm(tmp_path / "a.ppm", img)
        assert read_pnm(path).shape == (4, 4, 3)

    def test_values_clamped(self, tmp_path):
        img = np.array([[2.0, -1.0]])
        # 1x2 is tiny but legal.
        path = write_pgm(tmp_path / "c.pgm", img)
        back = read_pnm(path)
        assert back[0, 0] == 1.0 and back[0, 1] == 0.0


class TestPng:
    def test_gray_round_trip(self, tmp_path, rng):
        img = rng.random((16, 24))
        path = write_png(tmp_path / "x.png", img)
        assert path.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"
        back = read_png(path)
        assert back.shape == (16, 24)
        assert np.abs(back - img).max() <= 1.0 / 255.0

    def test_rgb_round_trip(self, tmp_path, rng):
        img = rng.random((8, 12, 3))
        back = read_png(write_png(tmp_path / "x.png", img))
        assert back.shape == (8, 12, 3)
        assert np.abs(back - img).max() <= 1.0 / 255.0

    def test_alpha_dropped(self, tmp_path):
        img = np.zeros((4, 4, 4))
        img[..., 3] = 1.0
        assert read_png(write_png(tmp_path / "a.png", img)).shape == (4, 4, 3)

    def test_bad_shape_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            write_png(tmp_path / "x.png", np.zeros((4, 4, 2)))

    def test_not_a_png_rejected(self, tmp_path):
        p = tmp_path / "bad.png"
        p.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 4)
        with pytest.raises(ReproError):
            read_png(p)


class TestValidation:
    def test_pgm_requires_2d(self, tmp_path):
        with pytest.raises(ReproError):
            write_pgm(tmp_path / "x.pgm", np.zeros((4, 4, 3)))

    def test_ppm_requires_3_channels(self, tmp_path):
        with pytest.raises(ReproError):
            write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))

    def test_non_finite_rejected(self, tmp_path):
        img = np.zeros((4, 4))
        img[0, 0] = np.nan
        with pytest.raises(ReproError):
            write_pgm(tmp_path / "x.pgm", img)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.pnm"
        p.write_bytes(b"P3\n2 2\n255\n")
        with pytest.raises(ReproError):
            read_pnm(p)

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "trunc.pgm"
        p.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(ReproError):
            read_pnm(p)

    def test_comments_in_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 1\n255\n\x00\xff")
        back = read_pnm(p)
        assert back.shape == (1, 2)
        assert back[0, 1] == 1.0
